"""Special-function kernel tests.

Reference values were computed once with mpmath at 40 digits and frozen
here as literals; erfc-based closed forms use math.erfc directly, which is
independent of the series code under test. The m = 1 contour path is also
checked against an mpmath quadrature on another path, computed at run time,
and off the pole-free sector against an mpmath series at the exact
parameters.
"""

import cmath
import copy
import math
import pickle
import struct
import sys
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bihilfer import (
    DomainError,
    KilbasSaigoParams,
    gamma_ratio,
    kilbas_saigo,
    kilbas_saigo_coefficients,
    log_gamma_ratio,
)
from bihilfer import DegenerateProblem, OrderTriple, fundamental_solution
from bihilfer import special_functions
from bihilfer.series_grid import _PowerGrid, _sum_series_grid
from bihilfer.special_functions import (
    _CACHE_SIZE,
    _CONTOUR_H,
    _CONTOUR_MU,
    _CONTOUR_N,
    _CONTOUR_NODES,
    _EPS,
    _ENDS,
    _MAX_TERMS,
    SeriesEvalReport,
    _check_series_args,
    _power,
    _sum_series,
    _triple,
)

# (p, q, ln Gamma(p) - ln Gamma(q)) frozen from a 40-digit computation
LGAMMA_RATIO_REFERENCE = [
    (25.7, 25.0, 2.249024509582432923832),
    (22.4, 19.5, 8.750007014389183463664),
    (433.43, 430.53, 17.59493655323995893658),
    (983.1, 980.2, 19.97730259380821958034),
    (1000000.5, 1000000.0, 6.907755153982137052059),
    (47.2, 50.0, -10.84484511880641959334),
    (20.0, 21.0, -2.995732273553990993435),
]

# (x, ln Gamma(x)) frozen from a 40-digit computation
LGAMMA_REFERENCE = [
    (1e-6, 13.81550998074943166921),
    (0.25, 1.288022524698077457371),
    (0.5, 0.5723649429247000870717),
    (1.0, 0.0),
    (1.5, -0.1207822376352452223455),
    (2.0, 0.0),
    (2.5, 0.2846828704729191596325),
    (3.7, 1.428072326665387921872),
    (10.0, 12.80182748008146961121),
    (170.25, 702.7206616776804649751),
    (1000.0, 5905.220423209181211826),
    (1e6, 12815504.56914761165998),
]


def log_gamma(x):
    """lnGamma(x) = lnGamma(x) - lnGamma(1), through the public ratio."""
    return log_gamma_ratio(x, 1.0)


class TestLogGamma:
    @pytest.mark.parametrize("x,expected", LGAMMA_REFERENCE)
    def test_reference_values(self, x, expected):
        assert abs(log_gamma(x) - expected) <= 1e-13 * max(1.0, abs(expected))

    def test_trivial_zeros(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_half_integer(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)

    @given(st.floats(min_value=1e-3, max_value=1e5))
    def test_functional_equation(self, x):
        # Gamma(x+1) = x Gamma(x)
        lhs = log_gamma(x + 1.0)
        rhs = log_gamma(x) + math.log(x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestLogGammaRatio:
    @pytest.mark.parametrize("p,q,expected", LGAMMA_RATIO_REFERENCE)
    def test_reference_values(self, p, q, expected):
        # unlike a plain lgamma difference, the stabilized ratio keeps
        # absolute accuracy at the scale of the result itself
        assert abs(log_gamma_ratio(p, q) - expected) <= 2e-14 * max(1.0, abs(expected))

    @pytest.mark.parametrize(
        "p,q",
        [(p, q) for p in (1e-300, 1e-17, 1e-10, 3e-8) for q in (1.0, 2.5, 25.0)]
        # Far apart and both past the Stirling threshold.
        + [(20.0, 1e20), (30.0, 1e17), (21.0, 1e300), (1e20, 20.0)],
    )
    def test_small_or_far_apart_arguments(self, p, q):
        # q + (p - q) rebuilds p only where p - q is exact: at p = 1e-17 it
        # read 0.0, and lgamma(0.0) raised.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            expected = float(mpmath.loggamma(p) - mpmath.loggamma(q))
        assert abs(log_gamma_ratio(p, q) - expected) <= 2e-14 * max(1.0, abs(expected))

    def test_equal_arguments_exact_zero(self):
        for x in (0.5, 19.0, 20.0, 433.2, 1e6):
            assert log_gamma_ratio(x, x) == 0.0

    def test_antisymmetry(self):
        for p, q in [(25.7, 25.0), (433.43, 430.53), (5.0, 3.5)]:
            assert log_gamma_ratio(p, q) == pytest.approx(-log_gamma_ratio(q, p), rel=1e-15)

    @given(
        st.floats(min_value=18.0, max_value=1e4),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=200)
    def test_consistent_with_lgamma_difference(self, q, nu):
        p = q + nu
        direct = math.lgamma(p) - math.lgamma(q)
        stable = log_gamma_ratio(p, q)
        # the direct difference itself carries ~|lgamma|*eps of rounding
        slack = 8e-16 * max(abs(math.lgamma(p)), abs(math.lgamma(q)), 1.0)
        assert abs(stable - direct) <= slack + 1e-14


class TestGammaRatio:
    def test_examples(self):
        assert gamma_ratio(3.0, 1.0) == pytest.approx(2.0, rel=1e-13)
        assert gamma_ratio(7.3, 7.3) == 1.0
        assert gamma_ratio(1.5, 1.0) == pytest.approx(0.8862269254527580, rel=1e-13)

    def test_large_arguments_no_overflow(self):
        # Gamma(500.5) alone overflows; the ratio must not.
        r = gamma_ratio(500.5, 500.0)
        assert math.isfinite(r)
        assert r == pytest.approx(math.exp(0.5 * math.log(500.0)), rel=1e-3)

    @pytest.mark.parametrize("p,q", [(0.0, 1.0), (1.0, 0.0), (-2.0, 3.0)])
    def test_domain(self, p, q):
        with pytest.raises(DomainError):
            gamma_ratio(p, q)

    @pytest.mark.parametrize(
        "p,q,ratio,log_ratio",
        [
            # The log-ratio is finite (about 1.4e5); its exp is not.
            (5972318.09, 5789919.72, math.inf, None),
            # lnGamma(p) itself passes the double range; lnGamma(q) first
            # in the last two.
            (1e308, 1.0, math.inf, math.inf),
            (1.0, 1e308, 0.0, -math.inf),
            (1e308, 3e305, math.inf, math.inf),
            (3e305, 1e308, 0.0, -math.inf),
        ],
    )
    def test_past_the_double_range(self, p, q, ratio, log_ratio):
        # math.exp and math.lgamma raised OverflowError here.
        assert gamma_ratio(p, q) == ratio
        if log_ratio is not None:
            assert log_gamma_ratio(p, q) == log_ratio

    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=200)
    def test_reciprocal(self, p, q):
        assert abs(gamma_ratio(p, q) * gamma_ratio(q, p) - 1.0) <= 1e-12


class TestKilbasSaigoParams:
    def test_validation(self):
        with pytest.raises(DomainError, match="alpha > 0"):
            KilbasSaigoParams(alpha=0.0, m=1.0, l=0.0)
        with pytest.raises(DomainError, match="m > 0"):
            KilbasSaigoParams(alpha=1.0, m=0.0, l=0.0)
        with pytest.raises(DomainError, match=r"alpha\*l > -1"):
            KilbasSaigoParams(alpha=1.0, m=1.0, l=-1.0)

    def test_boundary_admissible(self):
        KilbasSaigoParams(alpha=0.5, m=1.0, l=-1.999)  # alpha*l = -0.9995 > -1

    @pytest.mark.parametrize(
        "alpha,m,l",
        [
            (math.inf, 1.0, 1.0),
            (1.0, math.inf, 1.0),
            (1.0, 1.0, math.inf),
            (1.0, 1.0, -math.inf),
            (math.nan, 1.0, 0.0),
            (1.0, math.nan, 0.0),
            (1.0, 1.0, math.nan),
        ],
        ids=["alpha-inf", "m-inf", "l-inf", "l-minus-inf", "alpha-nan", "m-nan", "l-nan"],
    )
    def test_non_finite_rejected(self, alpha, m, l):
        with pytest.raises(DomainError, match="finite"):
            KilbasSaigoParams(alpha=alpha, m=m, l=l)

    # Every inadmissible triple above, with the condition its message names.
    INADMISSIBLE = [
        ((0.0, 1.0, 0.0), "alpha > 0"),
        ((1.0, 0.0, 0.0), "m > 0"),
        ((1.0, 1.0, -1.0), r"alpha\*l > -1"),
        ((math.inf, 1.0, 1.0), "finite"),
        ((1.0, math.inf, 1.0), "finite"),
        ((1.0, 1.0, math.inf), "finite"),
        ((1.0, 1.0, -math.inf), "finite"),
        ((math.nan, 1.0, 0.0), "finite"),
        ((1.0, math.nan, 0.0), "finite"),
        ((1.0, 1.0, math.nan), "finite"),
    ]

    @pytest.mark.parametrize("triple,message", INADMISSIBLE, ids=[
        "alpha-zero", "m-zero", "alpha-l-minus-one", "alpha-inf", "m-inf", "l-inf",
        "l-minus-inf", "alpha-nan", "m-nan", "l-nan"])
    def test_make_and_replace_check_admissibility(self, triple, message):
        # _replace builds its result with _make; both must refuse what the
        # constructor refuses.
        with pytest.raises(DomainError, match=message):
            KilbasSaigoParams._make(triple)
        with pytest.raises(DomainError, match=message):
            KilbasSaigoParams(0.5, 2.0, 1.0)._replace(**dict(zip(("alpha", "m", "l"), triple)))

    def test_replace_and_make_keep_the_type(self):
        p = KilbasSaigoParams(0.5, 1.0, 0.0)
        assert type(p._replace(l=2.0)) is KilbasSaigoParams
        assert p._replace(l=2.0) == KilbasSaigoParams(0.5, 1.0, 2.0)
        assert type(KilbasSaigoParams._make([0.5, 1.0, 0.0])) is KilbasSaigoParams

    def test_attributes_are_read_only(self):
        p = KilbasSaigoParams(0.5, 1.0, 0.0)
        for name in ("alpha", "m", "l", "other"):
            with pytest.raises(AttributeError):
                setattr(p, name, 2.0)
        assert (p.alpha, p.m, p.l) == (0.5, 1.0, 0.0)

    def test_repr(self):
        text = repr(KilbasSaigoParams(0.5, 1.0, 0.0))
        assert text == "KilbasSaigoParams(alpha=0.5, m=1.0, l=0.0)"

    def test_tuple_equality_and_hash(self):
        p = KilbasSaigoParams(0.5, 1.0, 0.0)
        assert p == KilbasSaigoParams(alpha=0.5, m=1.0, l=0.0) == (0.5, 1.0, 0.0)
        assert hash(p) == hash((0.5, 1.0, 0.0))
        assert p != KilbasSaigoParams(0.5, 1.0, 0.25)

    PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)

    @pytest.mark.parametrize(
        "roundtrip",
        [copy.copy, copy.deepcopy]
        + [lambda p, n=n: pickle.loads(pickle.dumps(p, n)) for n in PROTOCOLS],
        ids=["copy", "deepcopy"] + [f"pickle-{n}" for n in PROTOCOLS],
    )
    def test_copy_and_pickle_roundtrip(self, roundtrip):
        p = KilbasSaigoParams(1.7, 2.3, -0.2)
        q = roundtrip(p)
        assert type(q) is KilbasSaigoParams
        assert q == p and hash(q) == hash(p)
        assert kilbas_saigo(q, -1.5) == kilbas_saigo(p, -1.5)

    @pytest.mark.parametrize("k", [0, 1, 4, 37])
    def test_tail_params_is_the_constructors_triple(self, k):
        problem = DegenerateProblem(OrderTriple(1.5, 1.25, 0.5, 2), 0.5, -1.0)
        sol = fundamental_solution(problem, 1)
        p = sol.kilbas_saigo_params()
        tail = sol._tail_params(k)
        assert type(tail) is KilbasSaigoParams
        assert tail == KilbasSaigoParams(p.alpha, p.m, p.l + p.m * k)


class TestKilbasSaigo:
    def test_value_at_zero_is_one_exactly(self):
        for params in [
            KilbasSaigoParams(0.5, 1.0, 0.0),
            KilbasSaigoParams(1.7, 2.3, -0.2),
            KilbasSaigoParams(0.3, 0.9, 4.0),
        ]:
            report = kilbas_saigo(params, 0.0)
            assert report.value == 1.0
            assert report.terms_used == 1
            assert report.converged

    @pytest.mark.parametrize("z", [-1.0, 2.5 + 1.0j, -1e300])
    @pytest.mark.parametrize("params", [(1e308, 1.0, 0.0), (1e308, 0.5, 1.0)])
    def test_gamma_past_the_double_range(self, params, z):
        # From c_1 on, a Gamma argument alpha (jm + l) + 1 or its offset
        # passes the double range: lnGamma raised OverflowError, and an
        # overflowed argument gave a nan log-ratio. Those c_j are zero, so
        # the sum is c_0 = 1, and the tail bound is 0 (rho = 0) at the first
        # stride end, 4 terms; the last magnitude is +0.0 although at z < 0
        # the zero terms alternate in sign.
        params = KilbasSaigoParams(*params)
        report = kilbas_saigo(params, z)
        assert report == (1.0, 4, 0.0, True, "series")
        assert _bits(report) == _bits(SeriesEvalReport(1 + 0j, 4, 0.0, True))
        assert kilbas_saigo_coefficients(params, 5) == [1.0, 0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("z, expected", [(-8.0, 0.06903578830852457),
                                             (-7.75, 0.0715409283658646)])
    def test_cancelling_sum_of_ratio_products(self, z, expected):
        # E_{0.6,2,1} on the negative axis, by the series, against mpmath.
        # Each term is a product of term ratios; terms formed as
        # exp(ln c_k + k ln|z|) carry the running sum's rounding and miss
        # the bound (3.1e-9 and 2.9e-9 off).
        report = kilbas_saigo(KilbasSaigoParams(0.6, 2.0, 1.0), z)
        assert report.path == "series" and report.converged
        assert abs(report.value - expected) <= 1.5e-9

    @pytest.mark.parametrize("z, expected", [(1e300, 1.7502762069260152e37),
                                             (1e306, 1.7502762069260152e43)])
    def test_ratio_below_the_double_range(self, z, expected):
        # c_1 = 1/150! = 1.75e-263, and c_2/c_1 = 150!/300! = 1.9e-352
        # underflows to zero: the sum is 1 + z/150! to 2e-46 relative
        # (mpmath's value).
        report = kilbas_saigo(KilbasSaigoParams(150.0, 1.0, 0.0), z)
        assert report.converged and abs(report.value - expected) <= 1e-12 * expected

    def test_exponential_case(self):
        report = kilbas_saigo(KilbasSaigoParams(1.0, 1.0, 0.0), 1.0)
        assert report.converged
        assert abs(report.value - math.e) <= 1e-12 * math.e

    def test_erfc_closed_form(self):
        # E_{1/2,1,0}(z) = exp(z^2) erfc(-z) on the real axis
        params = KilbasSaigoParams(0.5, 1.0, 0.0)
        for z in (1.0, -1.0, 2.0, -2.5, -3.0):
            expected = math.exp(z * z) * math.erfc(-z)
            report = kilbas_saigo(params, z)
            assert report.converged
            assert report.value.imag == 0.0  # real z is summed in real arithmetic
            assert abs(report.value - expected) <= 1e-10 * max(1.0, abs(expected))
        # Where the series cancels: its sum read 1.07e13 at -8 and -3.9e159
        # at -20, both reported converged.
        for z in (-4.0, -6.0, -8.0, -20.0):
            expected = math.exp(z * z) * math.erfc(-z)
            report = kilbas_saigo(params, z)
            assert report.converged
            assert report.value.imag == 0.0
            assert abs(report.value - expected) <= 1e-12 * abs(expected)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(0.1, 0.95),
        xs=st.lists(st.floats(0.0, 1e3), min_size=2, max_size=2).map(sorted),
    )
    def test_completely_monotone_on_negative_axis(self, alpha, xs):
        # E_{alpha,1,0}(-x) is completely monotone for 0 < alpha <= 1
        # (Pollard 1948): positive and strictly decreasing in x >= 0. The
        # points are at least 1e-6 (1 + x) apart, so the decrease is far
        # above rounding.
        x, farther = xs
        assume(farther - x >= 1e-6 * (1.0 + x))
        params = KilbasSaigoParams(alpha, 1.0, 0.0)
        near, far = kilbas_saigo(params, -x), kilbas_saigo(params, -farther)
        assert near.converged and far.converged
        assert near.value.real > far.value.real > 0.0

    def test_known_digit_values(self):
        params = KilbasSaigoParams(0.5, 1.0, 0.0)
        assert kilbas_saigo(params, 1.0).value.real == pytest.approx(5.0089800, abs=1e-6)
        assert kilbas_saigo(params, -1.0).value.real == pytest.approx(0.4275836, abs=1e-6)

    def test_report_invariant(self):
        tol = 1e-12
        for params, z in [
            (KilbasSaigoParams(0.5, 1.0, 0.0), 3.0 + 1.0j),
            (KilbasSaigoParams(0.8, 1.5, 0.3), -2.0),
            (KilbasSaigoParams(1.0, 1.0, 0.0), 4.9),
        ]:
            report = kilbas_saigo(params, z, tol=tol)
            assert report.converged
            assert report.last_term_magnitude <= tol * max(1.0, abs(report.value))
            # The tail bound of the stopping rule, at the term ratio that
            # follows the last summed term.
            rho = _triple(*params).grow(report.terms_used + 1)[report.terms_used] * abs(z)
            assert rho < 1.0
            assert report.last_term_magnitude * rho / (1.0 - rho) <= tol * max(1.0, abs(report.value))

    def test_nonconverged_flag_value_still_returned(self):
        # Terms overflow long before the rule can fire.
        report = kilbas_saigo(KilbasSaigoParams(0.3, 1.0, 0.0), 50.0)
        assert not report.converged

    def test_term_cap_ends_sum_unconverged(self):
        # The terms peak near 9e4 at k ~ 4,500 and are still ~0.2 at
        # k = 10,000, so only the engine's 10,000-term cap ends the sum.
        report = kilbas_saigo(KilbasSaigoParams(0.01, 0.01, 0.0), 0.9999)
        assert report.terms_used == 10_000
        assert not report.converged
        assert math.isfinite(report.value.real)

    def test_complex_magnitude_past_double_range_ends_sum_unconverged(self):
        # Both parts of a term stay finite while |t| overflows, which the
        # complex abs reports by raising; the engine flags it instead.
        report = kilbas_saigo(KilbasSaigoParams(1.0, 1.0, 0.0), cmath.rect(720.0, 1.0))
        assert not report.converged
        assert report.last_term_magnitude == math.inf

    # Every route of a call: the contour rule at -1 (the plain ids), then
    # the series of a triple off the rule at a real z, z = 0 and nan, and
    # the rule's triple at z = 0, off the sector and at nan.
    @pytest.mark.parametrize("triple,z,tol", [
        pytest.param(triple, z, tol, id=str(tol) if (triple, z) == ((0.5, 1.0, 0.0), -1.0)
                     else f"{triple}-{z}-{tol}")
        for triple, z in [((0.5, 1.0, 0.0), -1.0), ((0.6, 2.0, 1.0), -1.0), ((0.6, 2.0, 1.0), 0.0),
                          ((0.6, 2.0, 1.0), math.nan), ((0.5, 1.0, 0.0), 0.0),
                          ((0.5, 1.0, 0.0), 3.0), ((0.5, 1.0, 0.0), math.nan)]
        for tol in [math.inf, 1.0, 0.0, -1.0, math.nan]
    ])
    def test_tol_outside_unit_interval_rejected(self, triple, z, tol):
        with pytest.raises(ValueError, match="tol must lie in"):
            kilbas_saigo(KilbasSaigoParams(*triple), z, tol=tol)

    def test_complex_argument(self):
        params = KilbasSaigoParams(1.0, 1.0, 0.0)
        z = 0.7 + 0.4j
        report = kilbas_saigo(params, z)
        import cmath

        assert abs(report.value - cmath.exp(z)) <= 1e-12 * abs(cmath.exp(z))


def mittag_leffler(a: float, b: float, z: complex, tol: float = 1e-12) -> complex:
    """Two-parameter Mittag-Leffler function E_{a,b}(z) = sum_k z^k / Gamma(ak+b),
    for finite a, b > 0: a reference for the m = 1 reductions of
    E_{alpha,m,l}. Summed by the same engine as kilbas_saigo, but each term
    ratio Gamma(a(k-1)+b)/Gamma(ak+b) is formed directly from math.gamma,
    or math.lgamma past its range, and 1/Gamma(b) at k = 0 from math.lgamma,
    independently
    of the package's Gamma ratios and cache. A plain series, so it cancels
    where kilbas_saigo takes its contour rule; the partial sum is returned
    even if the stopping rule never fires."""
    ratios: list[float] = []

    def fetch(n: int) -> list[float]:
        while len(ratios) < n:
            k = len(ratios)
            try:
                if k == 0:
                    ratio = math.exp(-math.lgamma(b))
                else:
                    q, p = a * (k - 1) + b, a * k + b
                    try:
                        ratio = math.gamma(q) / math.gamma(p)
                    except OverflowError:
                        ratio = math.exp(math.lgamma(q) - math.lgamma(p))
            except OverflowError:
                ratio = 0.0
            # 1/Gamma underflows where lnGamma overflows or both Gammas are inf.
            ratios.append(ratio if ratio < math.inf else 0.0)
        return ratios

    return _sum_series(fetch, z, tol).value


class TestMittagLeffler:
    def test_exponential(self):
        assert abs(mittag_leffler(1.0, 1.0, 1.0) - math.e) <= 1e-12 * math.e

    def test_zero_argument(self):
        for a, b in [(0.5, 1.0), (1.3, 2.7)]:
            expected = math.exp(-math.lgamma(b))
            assert mittag_leffler(a, b, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_erfc_closed_form(self):
        for z in (1.0, -3.0):
            expected = math.exp(z * z) * math.erfc(-z)
            value = mittag_leffler(0.5, 1.0, z)
            assert value.imag == 0.0
            assert abs(value - expected) <= 1e-10 * expected

    @pytest.mark.parametrize("a, b", [(0.5, 1e308), (1e308, 0.5)])
    def test_gamma_past_the_double_range(self, a, b):
        # lnGamma(a k + b) overflows, at k = 0 or 1: its coefficient
        # 1/Gamma(a k + b) is zero, not an OverflowError.
        expected = 0j if b > 1.0 else complex(math.exp(-math.lgamma(b)))
        assert mittag_leffler(a, b, 1.0) == expected


class TestReductions:
    """E_{alpha,m,l} collapses to Mittag-Leffler forms when m = 1.

    The z-range shrinks with alpha: the alternating sums develop huge
    intermediate terms (the peak grows like exp(|z|^(1/alpha))), and once
    term rounding alone exceeds the tolerance no double-precision summation
    pair can agree. The bounds below keep the comparison meaningful.
    """

    CASES = [(0.3, 1.5), (0.5, 2.5), (0.8, 5.0), (1.0, 6.0)]

    @pytest.mark.parametrize("alpha,z_max", CASES)
    def test_first_reduction(self, alpha, z_max):
        tol = 1e-12
        params = KilbasSaigoParams(alpha, 1.0, 0.0)
        for z in [z_max * x / 10.0 for x in range(-10, 11)]:
            ks = kilbas_saigo(params, z, tol=tol).value
            ml = mittag_leffler(alpha, 1.0, z, tol=tol)
            assert abs(ks - ml) <= 10.0 * tol * max(1.0, abs(ks))

    @pytest.mark.parametrize("alpha,z_max", CASES)
    def test_second_reduction(self, alpha, z_max):
        tol = 1e-12
        params = KilbasSaigoParams(alpha, 1.0, 1.0)
        scale = math.exp(math.lgamma(alpha + 1.0))
        for z in [z_max * x / 10.0 for x in range(-10, 11)]:
            ks = kilbas_saigo(params, z, tol=tol).value
            ml = scale * mittag_leffler(alpha, alpha + 1.0, z, tol=tol)
            assert abs(ks - ml) <= 10.0 * tol * max(1.0, abs(ks))


class TestCoefficients:
    SWEEP = [
        KilbasSaigoParams(a, m, l)
        for a in (0.3, 0.5, 1.0, 1.7)
        for m in (0.5, 1.0, 2.0)
        for l in (-0.4, 0.0, 1.0, 3.0)
        if a * l > -1.0
    ]

    def test_first_coefficient_is_one(self):
        for params in self.SWEEP:
            assert kilbas_saigo_coefficients(params, 1) == [1.0]

    def test_positivity_and_decay(self):
        ratio_checked = 0
        for params in self.SWEEP:
            coeffs = kilbas_saigo_coefficients(params, 202)
            assert all(c >= 0.0 for c in coeffs)
            # Fast-decaying sequences underflow before k = 200; positivity
            # can only be meaningful while the doubles are nonzero.
            first_zero = next((k for k, c in enumerate(coeffs) if c == 0.0), None)
            if first_zero is not None:
                assert first_zero > 50
                assert all(c == 0.0 for c in coeffs[first_zero:])
            else:
                assert all(c > 0.0 for c in coeffs)
                assert coeffs[201] / coeffs[200] < 0.5
                ratio_checked += 1
        assert ratio_checked >= 8

    @pytest.mark.parametrize("triple", [(0.5, 1.0, 0.0), (0.6, 2.0, 1.0), (0.3, 1.0, -2.0),
                                        (0.05, 0.3, 3.0)])
    def test_running_product_matches_mpmath(self, triple):
        # c_k, the running product of the cached ratios, against a 30-digit
        # product at every k up to the first subnormal c_k or k = 1,000. The
        # exp of a running sum of ln ratios read 7.2e-13, 5.6e-13 and 4.2e-13
        # off; ratios below q = 20 taken as a difference of two lnGamma, up
        # to 9.5e-14, and 8.3e-13 at (0.05, 0.3, 3).
        mp = pytest.importorskip("mpmath").mp
        coeffs = kilbas_saigo_coefficients(KilbasSaigoParams(*triple), 1000)
        first_subnormal = next((k for k, c in enumerate(coeffs) if c < sys.float_info.min),
                               len(coeffs))
        worst = 0.0
        with mp.workdps(30):
            alpha, m, l = map(mp.mpf, triple)
            exact = mp.mpf(1)
            for k in range(1, first_subnormal):
                q = alpha * ((k - 1) * m + l) + 1
                exact *= mp.gamma(q) / mp.gamma(q + alpha)
                worst = max(worst, float(abs(coeffs[k] - exact) / exact))
        assert worst <= 1e-14

    def test_cache_is_consistent(self):
        params = KilbasSaigoParams(0.6, 1.2, 0.1)
        short = kilbas_saigo_coefficients(params, 10)
        long = kilbas_saigo_coefficients(params, 50)
        assert long[:10] == short

    def test_cache_is_bounded_and_refills_identically(self):
        _triple.cache_clear()
        fresh = [KilbasSaigoParams(0.45, 1.1, 0.01 * n) for n in range(_CACHE_SIZE + 1)]
        first = kilbas_saigo_coefficients(fresh[0], 80)
        dropped = _triple(*fresh[0]).grow(1)
        for params in fresh[1:]:
            kilbas_saigo_coefficients(params, 8)
            assert _triple.cache_info().currsize <= _CACHE_SIZE
        assert _triple.cache_info().currsize == _CACHE_SIZE
        misses = _triple.cache_info().misses
        assert _triple(*fresh[0]).grow(1) is not dropped  # least recently used
        assert _triple.cache_info().misses == misses + 1
        assert kilbas_saigo_coefficients(fresh[0], 80) == first

    @pytest.mark.parametrize(
        "triple,zs",
        # The contour triple takes the rule at -3 and the series at 3.
        [((0.55, 1.35, 0.25), (2.5,)), ((0.5, 1.0, 0.0), (-3.0, 3.0))],
        ids=["series", "contour"],
    )
    def test_concurrent_evaluation_shares_cache_safely(self, triple, zs):
        import threading

        params = KilbasSaigoParams(*triple)
        reference = [kilbas_saigo(params, z).value for z in zs]
        # The threads race on the first build of the triple's record.
        _triple.cache_clear()
        start = threading.Barrier(8)
        results = []
        errors = []

        def work():
            try:
                start.wait(timeout=60)
                for _ in range(50):
                    results.append([kilbas_saigo(params, z).value for z in zs])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert all(v == reference for v in results)
        assert len(results) == 8 * 50
        coeffs = kilbas_saigo_coefficients(params, 60)
        assert all(
            a == b for a, b in zip(coeffs, kilbas_saigo_coefficients(params, 60))
        )


def _scalar_reports(fetch, ray, tol):
    """The scalar engine at each point lam * y**a of the ray, by Python's pow
    (the point the grid driver's overflow fallback sums)."""
    return [_sum_series(fetch, ray.lam * _power(y, ray.a), tol) for y in ray.ys.tolist()]


def _shifted(params, start):
    """The triple whose coefficients are c_{start+k}/c_start of params'."""
    return KilbasSaigoParams(params.alpha, params.m, params.l + params.m * start)


def _assert_bit_identical(grid, parts):
    """grid is the grids `parts` one after another, bit for bit."""
    for field in ("value", "terms_used", "last_term_magnitude", "converged"):
        assert getattr(grid, field).tobytes() == b"".join(
            getattr(part, field).tobytes() for part in parts), field


def _assert_agrees(grid, fetch, ray, tol=1e-12, exact=()):
    """The ray contract against the scalar engine at z = lam * y**a:
    terms_used and converged as the engine's; bit for bit every overflowed
    point (last term inf) and every point whose z the driver forms with
    Python's bits but for the signs of zeros (which no sum shows), as it must
    at the rows of `exact`; the other values to rounding. The driver forms y**a by numpy's power, which can differ from
    Python's in the last bit, so term k differs by up to about k eps
    relative and the N-term sums by N eps times sum_k |t_k|, which is the
    engine's value at |z| (the coefficients are positive); 1e-15 N sum|t_k|
    is the bound."""
    reports = _scalar_reports(fetch, ray, tol)
    assert grid.terms_used.tolist() == [r.terms_used for r in reports]
    assert grid.converged.tolist() == [r.converged for r in reports]
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.power(ray.ys, ray.a)
        # A real ray's z is real. + 0.0 turns -0.0 into 0.0 and leaves
        # every other bit pattern.
        imag = powers * ray.lam.imag if ray.lam.imag else np.zeros_like(powers)
        parts = np.stack([powers * ray.lam.real, imag], axis=1) + 0.0
    for j, (y, r) in enumerate(zip(ray.ys.tolist(), reports)):
        got = (grid.value[j].item(), grid.last_term_magnitude[j].item())
        z = ray.lam * _power(y, ray.a)
        same_z = struct.pack("<2d", z.real + 0.0, z.imag + 0.0) == parts[j].tobytes()
        assert same_z or j not in exact, j
        if same_z or r.last_term_magnitude == math.inf:
            assert struct.pack("<3d", got[0].real, got[0].imag, got[1]) == struct.pack(
                "<3d", r.value.real, r.value.imag, r.last_term_magnitude), j
        else:
            size = _sum_series(fetch, abs(ray.lam * _power(y, ray.a)), tol).value.real
            assert abs(got[0] - r.value) <= 1e-15 * r.terms_used * size, j
    return reports


# The sum of E_{0.01,0.01,0} at 0.9999 only ends at the 10,000-term cap.
CAPPED = (KilbasSaigoParams(0.01, 0.01, 0.0), 0.9999)

_reals = st.floats(-60.0, 60.0)
_points = st.one_of(
    _reals,
    st.builds(complex, _reals, _reals.filter(lambda v: v != 0.0)),
    st.just(0.0),
    # A term of these overflows the double range.
    st.builds(cmath.rect, st.floats(700.0, 1e6), st.floats(-math.pi, math.pi)),
    st.floats(700.0, 1e6),
)


class TestGridDriver:
    """The grid driver along a ray against the scalar engine, field by
    field."""

    def test_covers_every_exit_of_the_engine(self):
        # The cap, the point z = 0, a converged sum, and terms past the
        # double range at real and complex z, which the scalar engine sums
        # and reports. At y**1 the driver's z is Python's, so every row
        # holds the scalar bits.
        params, capped = CAPPED
        fetch = _triple(*_shifted(params, 2)).grow
        real = _PowerGrid(1.0, 1.0, np.array([capped, 0.0, 0.5, 800.0]))
        complex_ = _PowerGrid(cmath.rect(1.0, 1.0), 1.0, np.array([capped, 0.0, 0.3, 720.0]))
        for ray, overflow in ((real, 3), (complex_, 3)):
            reports = _assert_agrees(_sum_series_grid(fetch, ray, 1e-12), fetch, ray,
                                     exact=(0, 1, 2, 3))
            assert reports[0].terms_used == 10_000 and not reports[0].converged
            assert reports[overflow].last_term_magnitude == math.inf

    @pytest.mark.parametrize("odd", [1e60, -1e60j, math.nan, complex(math.nan, 1.0)])
    def test_one_column_past_the_exponent_cap(self, odd):
        # One point forms a term past the double range, or a nan one, within
        # its first terms; the others never do, and the capped point runs
        # up to _MAX_TERMS beside it. Only the odd point goes to the scalar
        # engine, which sums it with the scalar bits.
        params, capped = CAPPED
        fetch = _triple(*params).grow
        lam = 1j * math.copysign(1.0, odd.imag) if isinstance(odd, complex) else 1.0
        ray = _PowerGrid(lam, 1.0, np.array([capped, 0.5, abs(odd), 0.3]))
        grid = _sum_series_grid(fetch, ray)
        reports = _assert_agrees(grid, fetch, ray, exact=(2,))
        assert grid.terms_used[0] == 10_000 and reports[2].terms_used < 16
        assert grid.converged.tolist() == [False, True, False, True]
        assert math.isinf(grid.last_term_magnitude[2]) != cmath.isnan(odd)

    def test_arg_lam_underflows(self):
        # A subnormal imaginary part: arg lam = atan2(5e-324, 2) underflows
        # to 0, where cmath.phase raises OverflowError.
        fetch = _triple(0.5, 1.0, 0.0).grow
        ray = _PowerGrid(complex(2.0, 5e-324), 1.0, np.array([0.0, 0.3, 1.0, 2.0]))
        _assert_agrees(_sum_series_grid(fetch, ray), fetch, ray, exact=(0,))

    def test_spans_chunks_and_blocks(self):
        # Many points, some summing more than 16 terms.
        fetch = _triple(0.5, 1.0, 0.0).grow
        ray = _PowerGrid(cmath.rect(4.0, 0.3), 1.0, np.linspace(0.0, 1.0, 1201))
        grid = _sum_series_grid(fetch, ray)
        assert grid.terms_used.max() > 16
        _assert_agrees(grid, fetch, ray, exact=(0,))

    def test_empty_grid(self):
        grid = _sum_series_grid(_triple(*CAPPED[0]).grow, _PowerGrid(1.0, 1.0, np.empty(0)))
        assert grid.value.size == grid.terms_used.size == 0

    def test_no_request_passes_the_cap(self):
        # The 10,000-term cap beside 513 short sums. The fetch returns no
        # more term ratios than asked for, so the driver asks again as
        # its sums grow, and never for more than the terms it may sum.
        requested = []
        fetch = _triple(*CAPPED[0]).grow

        def recording(n):
            requested.append(n)
            return fetch(n)[:n]

        ray = _PowerGrid(1.0, 1.0, np.array([CAPPED[1], *[0.1] * 512, 0.2]))
        grid = _sum_series_grid(recording, ray)
        assert max(requested) == _MAX_TERMS
        assert grid.terms_used[0] == _MAX_TERMS and not grid.converged[0]
        _assert_agrees(grid, fetch, ray)

    def test_long_small_term_streak(self):
        # At y = 12 on lam = 1 and tol = 0.5 every term from k = 73 on is
        # below tol |S_k|, but the term ratio R[k] y stays at least 1 up to
        # k = 287, so no tail bound exists before the stride end 288, and the
        # bound first passes at 312; at y = 20 the ratio falls below 1 at
        # k = 800 and the bound passes at 832. On lam = -1 and 1j the sums at
        # y = 12 and 20 cancel, so the bound must fall below tol, not below
        # tol |S|, and where they stop follows the rounding of their terms.
        fetch = _triple(0.5, 1.0, 0.0).grow
        ys = np.array([12.0, 20.0, 0.5, 3.0, 0.0])
        for lam, terms in ((1.0, [312, 832, 4, 24, 1]), (-1.0, [520, 1176, 4, 48, 1]),
                           (1j, [520, 1176, 4, 48, 1])):
            ray = _PowerGrid(lam, 1.0, ys)
            grid = _sum_series_grid(fetch, ray, 0.5)
            assert grid.terms_used.tolist() == terms
            _assert_agrees(grid, fetch, ray, tol=0.5)


# Groups of points whose sums differ in length, placed side by side. The
# points are y on the ray lam * y, |lam| = 1.
_short = st.floats(0.0, 2.0)
# Hundreds of terms for E_{1/2,1,0}; for CAPPED's triple these overflow.
_long = st.floats(8.0, 20.0)
_groups = st.lists(
    st.one_of(
        st.lists(_short, min_size=1, max_size=6),
        st.lists(_long, min_size=1, max_size=6),
        st.lists(st.just(0.0), min_size=1, max_size=6),
        # Terms past the double range: the scalar fallback.
        st.lists(st.floats(700.0, 1e6), min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=8,
)


class TestGridChunks:
    """Neighbouring points whose sums differ in length: each point's report
    is the one it gets alone, bit for bit, and the scalar engine's."""

    @settings(max_examples=40, deadline=None)
    @given(
        groups=_groups,
        lam=st.sampled_from([1.0, -1.0, 1j, cmath.rect(1.0, 2.5)]),
        start=st.integers(0, 4),
        tol=st.sampled_from([1e-12, 1e-6, 0.5]),
        capped=st.booleans(),
    )
    def test_bit_identical_across_chunks(self, groups, lam, start, tol, capped):
        params = KilbasSaigoParams(0.5, 1.0, 0.0)
        ys = [y for group in groups for y in group]
        if capped:
            params, y = CAPPED
            ys = [y, *ys]
        fetch = _triple(*_shifted(params, start)).grow
        ray = _PowerGrid(lam, 1.0, np.array(ys))
        alone = [_sum_series_grid(fetch, ray._replace(ys=ray.ys[j : j + 1]), tol)
                 for j in range(len(ys))]
        _assert_bit_identical(_sum_series_grid(fetch, ray, tol), alone)

    @pytest.mark.parametrize(
        "params,lam,ys",
        [
            # short, hundreds of terms, short, zeros only, overflow
            ((0.5, 1.0, 0.0), 1j,
             [0.5, 0.3, 0.1, 15.0, 12.0, 14.0, 0.2, 0.1, 0.4, 0.0, 0.0, 0.0,
              800.0, 0.5, 900.0]),
            # the 10,000-term cap, then short sums
            ((0.01, 0.01, 0.0), 1.0, [0.9999, 0.1, 0.2, 0.1, 0.3, 0.2, 0.9, 0.0, 0.5]),
        ],
        ids=["long-short-zero-overflow", "after-cap"],
    )
    def test_neighbouring_chunks_of_unequal_length(self, params, lam, ys):
        fetch = _triple(*KilbasSaigoParams(*params)).grow
        ray = _PowerGrid(lam, 1.0, np.array(ys))
        _assert_agrees(_sum_series_grid(fetch, ray, 1e-12), fetch, ray)

    @pytest.mark.parametrize("lam,y_max", [(-1.0, 4.0), (1j, 4.0), (1.0, 10.0)])
    def test_long_ray_both_ways(self, lam, y_max):
        # 1,201 points from 0 to y_max, from one term to over a hundred.
        # Ascending, terms_used never falls, so at every step the points
        # that stop lead the live ones and leave as views; descending, they
        # trail them and are compacted. Both give every point the same bits,
        # the scalar engine's to rounding. (Further out on lam = -1 and 1j,
        # terms_used is no longer monotone.)
        fetch = _triple(0.5, 1.0, 0.0).grow
        up = _PowerGrid(lam, 1.0, np.linspace(0.0, y_max, 1201))
        down = up._replace(ys=up.ys[::-1].copy())
        grid, back = (_sum_series_grid(fetch, ray) for ray in (up, down))
        assert (np.diff(grid.terms_used) >= 0).all() and grid.terms_used[-1] > 100
        for name, array in vars(grid).items():
            assert getattr(back, name)[::-1].tobytes() == array.tobytes(), name
        _assert_agrees(grid, fetch, up)


def _reference_sum_series(ratios_of, z, tol=1e-12) -> SeriesEvalReport:
    """The scalar engine written plainly, with none of its per-stride
    savings: one loop for both number fields, term k as t_{k-1} (R[k] z),
    every finiteness check on every term, and the stopping test wherever the
    count of summed terms reaches a stride end. The engine must return the
    same report for every input."""
    _check_series_args(tol)
    ratios = ratios_of(1)
    if z == 0:
        return SeriesEvalReport(complex(ratios[0]), 1, 0.0, True)
    z = complex(z)
    if z.imag == 0.0:
        z, total = z.real, 0.0
    else:
        total = 0j
    if not cmath.isfinite(z):
        return SeriesEvalReport(complex(ratios[0] * (z * 0.0)), 1, math.nan, False)
    ends = set(_ENDS)
    for k in range(_MAX_TERMS):
        if k + 1 >= len(ratios) and len(ratios) < _MAX_TERMS:
            ratios = ratios_of(min(2 * (k + 1), _MAX_TERMS))
        t = ratios[0] if k == 0 else t * (ratios[k] * z)
        if not cmath.isfinite(t):
            # A term past the double range: the sum before it.
            return SeriesEvalReport(complex(total), k + 1, math.inf, False)
        total += t
        if not cmath.isfinite(total):
            return SeriesEvalReport(complex(total), k + 1, math.inf, False)
        if k + 1 not in ends:
            continue
        try:
            mag, size = abs(t), abs(total)
        except OverflowError:
            # A complex magnitude past the double range.
            return SeriesEvalReport(complex(total), k + 1, math.inf, False)
        if k + 1 == _MAX_TERMS:
            return SeriesEvalReport(complex(total), k + 1, mag, False)
        # The terms past t_k are at most |t_k| rho^j: R decreases.
        try:
            rho = ratios[k + 1] * abs(z)
        except OverflowError:
            rho = math.inf  # |z| past the double range
        if rho < 1.0 and mag * rho <= tol * max(1.0, size) * (1.0 - rho):
            return SeriesEvalReport(complex(total), k + 1, mag, True)


# The contour rule as it was before kilbas_saigo's per-call work was cut,
# kept verbatim but for the functions' names and docstrings, with the
# pole's exact trapezoid correction off the sector: every report of the
# rule must stay the same, bit for bit.
def _reference_in_sector(alpha: float, z: complex) -> bool:
    """z != 0 and |arg z| >= alpha*pi: no pole on the principal sheet."""
    return z != 0 and abs(math.atan2(z.imag, z.real)) >= alpha * math.pi


def _reference_contour_pole(alpha: float, beta: float, z: complex) -> "tuple[complex, float, float] | None":
    """(the pole's correction, its rounding bound, the second-nearest
    missing node's term) at z, or None where the rule cannot take z; exact
    zeros in the sector."""
    if z == 0 or not cmath.isfinite(z):
        return None
    if _reference_in_sector(alpha, z):
        return 0j, 0.0, 0.0
    log_s = cmath.log(z) / alpha
    try:
        s = cmath.exp(log_s)
        residue = cmath.exp(math.lgamma(beta) + (1.0 - beta) * log_s + s) / alpha
        size = abs(residue)
    except OverflowError:
        return None
    w = cmath.sqrt(s / _CONTOUR_MU)
    d, c = 1.0 - w.real, 2.0 * math.pi / _CONTOUR_H
    rho = cmath.exp(c * complex(-abs(d), w.imag if d > 0.0 else -w.imag))
    gap = abs(1.0 - rho)
    try:
        pole = (-residue * rho if d > 0.0 else residue) / (1.0 - rho)
    except ZeroDivisionError:
        return None
    spread = 2.0 + abs(log_s)
    shift = c * (abs(w) * spread + abs(1.0 - w)) * abs(rho) / gap
    rounding = size * _EPS * ((1.0 + abs(s)) * spread + shift) / gap
    missing, x = 0.0, abs(w.imag)
    if x > _CONTOUR_N * _CONTOUR_H:
        # The term of the missing node nearest the pole joins the correction
        # with its rounding; that of the next one on the pole's far side, at
        # least N + 1, is charged.
        k = max(round(x / _CONTOUR_H), _CONTOUR_N + 1)
        far = k + 1 if x / _CONTOUR_H > k or k == _CONTOUR_N + 1 else k - 1
        scale = math.lgamma(beta) + math.log(_CONTOUR_H * _CONTOUR_MU / math.pi)
        terms = []
        for j in (k, far):
            v = complex(1.0, _CONTOUR_H * (j if w.imag > 0.0 else -j))
            node = _CONTOUR_MU * v * v
            log_node = cmath.log(node)
            weight = cmath.exp(scale + cmath.log(v) + node + (alpha - beta) * log_node)
            try:
                terms.append((weight / (cmath.exp(alpha * log_node) - z), _EPS * (1.0 + abs(node))))
            except (ZeroDivisionError, OverflowError):
                return None
        (near, near_rounding), (far_term, _) = terms
        pole, rounding = pole + near, rounding + abs(near) * near_rounding
        missing = abs(far_term)
    return pole, rounding, missing


@lru_cache(maxsize=_CACHE_SIZE)
def _reference_contour_node_tuples(alpha: float, l: float) -> tuple[tuple[tuple, ...], ...]:
    """(full, half): the nodes, and the folded nodes u >= 0 for real z."""
    n, beta = _CONTOUR_N, alpha * l + 1.0
    h, mu = _CONTOUR_H, _CONTOUR_MU
    scale = math.lgamma(beta) + math.log(h * mu / math.pi)
    full = []
    for k in range(-n, n + 1):
        w = complex(1.0, h * k)
        s = mu * w * w
        log_s = cmath.log(s)
        weight = cmath.exp(scale + cmath.log(w) + s + (alpha - beta) * log_s)
        full.append((cmath.exp(alpha * log_s), weight, _EPS * (1.0 + abs(s))))
    half = [full[n], *((power, 2.0 * weight, rounding) for power, weight, rounding in full[n + 1 :])]
    return tuple(full), tuple(half)


def _reference_contour_estimate(params: KilbasSaigoParams, z: complex) -> "tuple[complex, float, float] | None":
    """(value, outermost node's contribution, error estimate), or None."""
    alpha, _, l = params
    pole = _reference_contour_pole(alpha, alpha * l + 1.0, z)
    if pole is None:
        return None
    real = z.imag == 0.0
    nodes = _reference_contour_node_tuples(alpha, l)[real]
    # -0.0 is the identity of IEEE addition, so each sum starts at its
    # first term exactly.
    value, bound = complex(-0.0, -0.0), -0.0
    try:
        for power, weight, rounding in nodes:
            t = weight / (power - z)
            mag = abs(t)
            value += t
            bound += mag * rounding
        if real:
            value, last = complex(value.real), 0.5 * mag
        else:
            power, weight, _ = nodes[0]
            last = max(abs(weight / (power - z)), mag)
    except (ZeroDivisionError, OverflowError):
        # Off the sector z can sit on a node, or a term can outgrow the
        # double range.
        return None
    correction, rounding, missing = pole
    return value + correction, last, bound + rounding + last + missing


def _reference_kilbas_saigo(params, z, tol=1e-12) -> SeriesEvalReport:
    """kilbas_saigo with the reference contour rule and series engine."""
    if _triple(*params).contour is not None:
        _check_series_args(tol)
        rule = _reference_contour_estimate(params, complex(z))
        if rule is not None:
            value, last, estimate = rule
            try:
                size = abs(value)
            except OverflowError:
                size = math.inf  # the magnitude of a value past the double range
            if estimate <= tol * (size if size > 1.0 else 1.0) and cmath.isfinite(value):
                return SeriesEvalReport(value, _CONTOUR_NODES, last, True, "contour")
    return _reference_sum_series(_triple(*params).grow, z, tol)


def _bits(report):
    """Every field of a report, floats as their bit patterns."""
    value = struct.pack("<3d", report.value.real, report.value.imag, report.last_term_magnitude)
    return value, type(report.value), report.terms_used, report.converged


class TestScalarEngineReference:
    """The scalar engine against its earlier loop, field by field, every exit
    included."""

    @settings(max_examples=80, deadline=None)
    @given(
        alpha=st.floats(0.1, 3.0),
        m=st.floats(0.2, 3.0),
        l=st.floats(-0.3, 2.0),
        zs=st.lists(st.one_of(_points, st.just(cmath.rect(720.0, 1.0))), min_size=1,
                    max_size=8),
        start=st.integers(0, 6),
        tol=st.sampled_from([1e-12, 1e-6, 0.5]),
        capped=st.booleans(),
    )
    def test_same_report_as_reference(self, alpha, m, l, zs, start, tol, capped):
        params = KilbasSaigoParams(alpha, m, l)
        if capped:
            params, z = CAPPED
            zs = [z, *zs]
        fetch = _triple(*_shifted(params, start)).grow
        for z in zs:
            assert _bits(_sum_series(fetch, z, tol)) == _bits(
                _reference_sum_series(fetch, z, tol)
            ), z

    @pytest.mark.parametrize(
        "params,z,start,exit",
        [
            ((0.01, 0.01, 0.0), 0.9999, 0, (10_000, False)),
            ((1.0, 1.0, 0.0), 0.0, 3, (1, True)),
            ((0.5, 1.0, 0.0), -3.0, 2, "converged"),
            ((1.0, 1.0, 0.0), 800.0, 0, "overflow"),
            ((1.0, 1.0, 0.0), cmath.rect(720.0, 1.0), 0, "overflow"),
            ((1.0, 1.0, 0.0), math.inf, 0, (1, False)),
            ((1.0, 1.0, 0.0), -math.inf, 0, (1, False)),
            ((1.0, 1.0, 0.0), math.nan, 0, (1, False)),
            ((1.0, 1.0, 0.0), complex(math.inf, 1.0), 0, (1, False)),
            ((1.0, 1.0, 0.0), complex(1.0, math.inf), 0, (1, False)),
            ((1.0, 1.0, 0.0), complex(math.nan, 0.0), 0, (1, False)),
            ((1.0, 1.0, 0.0), complex(0.0, math.nan), 0, (1, False)),
            ((1.0, 1.0, 0.0), -800.0, 0, "overflow"),
            ((0.01, 0.01, 0.0), -0.9999, 0, (10_000, False)),
            ((1.0, 1.0, 0.0), 710.0, 0, "overflow"),
            ((1.0, 1.0, 0.0), complex(710.0, 1e-3), 0, "overflow"),
            # Both parts of S_N finite at a stride end, |S_N| past the range.
            ((1.0, 1.0, 0.0), cmath.rect(716.0, 1.0), 0, "overflow"),
            # Both parts of z finite, |z| past the range.
            ((0.5, 2.0, 0.0), complex(1.5e308, 1.5e308), 0, "overflow"),
        ],
        ids=["term-cap", "zero-point", "converged", "term-overflow", "magnitude-overflow",
             "non-finite-point", "minus-inf", "nan", "inf-real-part", "inf-imag-part",
             "nan-real-part", "nan-imag-part", "negative-term-overflow", "negative-term-cap",
             "sum-overflow", "complex-sum-overflow", "magnitude-at-stride-end",
             "magnitude-of-z"],
    )
    def test_every_exit(self, params, z, start, exit):
        # At e^710 every term is finite but the sum is not, and an infinite
        # sum passed the stopping test on every term: it stopped converged.
        fetch = _triple(*_shifted(KilbasSaigoParams(*params), start)).grow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = _sum_series(fetch, z, 1e-12)
        if exit == "overflow":
            assert report.last_term_magnitude == math.inf and not report.converged
        elif exit == "converged":
            assert report.converged and 3 < report.terms_used < 10_000
        else:
            assert (report.terms_used, report.converged) == exit
        assert _bits(report) == _bits(_reference_sum_series(fetch, z, 1e-12))
        # Again with the ratios cached, so that no fill runs between the
        # engine's steps (a fill's math calls clear a stale errno).
        assert _bits(_sum_series(fetch, z, 1e-12)) == _bits(report)

    def test_benchmark_pool_points(self):
        """The ks-sweep workload's pool: 8 triples at 64 fixed points, 384
        of them off the contour rule, each the reference engine's report.
        The other 128 take the rule, each the reference rule's report; the
        rule refuses none of the contour triples' points."""
        triples = [(0.5, 1.0, 0.0), (0.3, 1.0, 0.0), (1.0, 1.0, 0.0), (2.0, 1.0, 0.0),
                   (0.75, 1.25, 0.5), (1.5, 0.8, -0.2), (0.6, 2.0, 1.0), (1.2, 0.6, 0.3)]
        points = [complex(x) for x in np.linspace(-8.0, -0.25, 32)]
        points += [complex(x) for x in np.linspace(0.25, 4.0, 16)]
        points += [complex(r * math.cos(t), r * math.sin(t))
                   for r, t in zip(np.linspace(0.5, 6.0, 16), np.linspace(0.15, math.pi - 0.15, 16))]
        series = refused = 0
        for triple in triples:
            params = KilbasSaigoParams(*triple)
            for z in points:
                report = kilbas_saigo(params, z)
                if report.path == "series":
                    series += 1
                    refused += _triple(*params).contour is not None
                    assert _bits(report) == _bits(
                        _reference_sum_series(_triple(*params).grow, z)
                    ), (triple, z)
                reference = _reference_kilbas_saigo(params, z)
                assert (*_bits(report), report.path) == (*_bits(reference), reference.path)
        assert (series, refused) == (384, 0)
        # None of them has its pole past the outermost node; this one does,
        # 1e-6 from the missing node u = 17h, which the rule sums.
        params, z = KilbasSaigoParams(0.5, 1.0, 0.0), complex(2.0466534158929766, 6.52370980981228)
        report, reference = kilbas_saigo(params, z), _reference_kilbas_saigo(params, z)
        assert (*_bits(report), report.path) == (*_bits(reference), reference.path)
        assert report.path == "contour"

    @pytest.mark.parametrize("z", [CAPPED[1], complex(0.0, CAPPED[1])], ids=["real", "complex"])
    def test_no_request_passes_the_cap(self, z):
        # A sum that runs to the 10,000-term cap, on the real loop and on
        # the complex one. The fetch returns no more term ratios than
        # asked for, so the engine asks again as the sum grows, and never
        # for more than the terms it may sum; nor does kilbas_saigo grow the
        # triple's cached list past them.
        params = CAPPED[0]
        requested = []

        def recording(n):
            requested.append(n)
            return _triple(*params).grow(n)[:n]

        report = _sum_series(recording, z)
        assert max(requested) == _MAX_TERMS
        assert (report.terms_used, report.converged) == (_MAX_TERMS, False)
        assert _bits(report) == _bits(_reference_sum_series(_triple(*params).grow, z))
        _triple.cache_clear()
        assert _bits(kilbas_saigo(params, z)) == _bits(report)
        assert len(_triple(*params).ratios) == _MAX_TERMS


class _CappedRatios(list):
    """A ratio list longer than the cap that raises IndexError on a read of
    R[_MAX_TERMS] or past it, by index or by slice."""

    def __getitem__(self, index):
        stop = index.stop if isinstance(index, slice) else index + 1
        if stop is not None and stop > _MAX_TERMS:
            raise IndexError(f"ratio {stop - 1} read past the {_MAX_TERMS}-term cap")
        return super().__getitem__(index)


class TestTailBound:
    """The stopping rule's contract: where a sum stops converged, the terms
    it drops sum to at most tol max(1, |S|)."""

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(0.3, 2.0), m=st.floats(0.5, 2.0), l=st.floats(-0.2, 1.0),
           scale=st.floats(0.05, 1.0), tol=st.sampled_from([1e-12, 1e-6, 0.5]))
    # E_{1/2,1,0} at x = 24 and 26 (test_positive_axis_past_the_rule).
    @example(alpha=0.5, m=1.0, l=0.0, scale=24.0 / 300.0**0.5, tol=1e-12)
    @example(alpha=0.5, m=1.0, l=0.0, scale=26.0 / 300.0**0.5, tol=1e-12)
    def test_next_terms_below_the_bound(self, alpha, m, l, scale, tol):
        # On the positive axis every term is positive, so the next terms add
        # up to the dropped tail with nothing to cancel it. The terms peak
        # near k = x^(1/alpha)/(alpha m), at about e^(x^(1/alpha)/m): out to
        # x = (300 m)^alpha, e^300, the sums run long and stop where the term
        # ratio is near 1, where a bound on the last term alone left up to
        # r/(1 - r) times it unsummed.
        x = scale * (300.0 * m) ** alpha
        fetch = _triple(alpha, m, l).grow
        report = _sum_series(fetch, x, tol)
        assert report.converged
        n = report.terms_used
        ratios = fetch(n + 2000)
        t, tail = report.last_term_magnitude, 0.0
        for k in range(n, n + 2000):
            t *= ratios[k] * x
            tail += t
        assert tail <= tol * max(1.0, report.value.real)

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(0.05, 3.0), m=st.floats(0.05, 3.0), l=st.floats(-20.0, 5.0),
           n=st.integers(200, 300))
    def test_ratios_never_increase(self, alpha, m, l, n):
        # The rule's premise: from k = 1 on, the cached ratios c_k/c_{k-1}
        # the engine sums never increase, so |t_N| rho^j bounds every term
        # past t_N.
        assume(alpha * l > -1.0)
        ratios = _triple(alpha, m, l).grow(n)[1:n]
        assert all(later <= earlier for earlier, later in zip(ratios, ratios[1:]))

    @pytest.mark.parametrize("z", [CAPPED[1], -CAPPED[1], complex(0.0, CAPPED[1])],
                             ids=["real", "negative", "complex"])
    def test_no_ratio_read_past_the_cap(self, z):
        # A sum that reaches _MAX_TERMS ends there unconverged, with no
        # stopping test that would need R[_MAX_TERMS]: not even where the
        # list holds it, as the cached one does once
        # kilbas_saigo_coefficients has read past the cap.
        ratios = _CappedRatios([*_triple(*CAPPED[0]).grow(_MAX_TERMS)[:_MAX_TERMS], 0.5, 0.5])
        fetch = lambda n: ratios  # noqa: E731
        report = _sum_series(fetch, z)
        assert (report.terms_used, report.converged) == (_MAX_TERMS, False)
        assert _bits(report) == _bits(_reference_sum_series(fetch, z))
        ray = _PowerGrid(z / abs(z), 1.0, np.array([abs(z), 0.1]))
        grid = _sum_series_grid(fetch, ray)
        assert grid.converged.tolist() == [False, True]
        _assert_agrees(grid, fetch, ray)


class TestCacheStats:
    def test_counts_hits_misses_and_fills(self):
        _triple.cache_clear()
        params = KilbasSaigoParams(0.7, 1.3, 0.2)
        assert len(_triple(*params).grow(10)) == 10
        assert len(_triple(*params).grow(4)) == 10
        assert len(_triple(*params).grow(25)) == 25
        assert _triple(0.7, 1.3, 0.3).grow(1) == [1.0]
        info = _triple.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 2, 2)
        with pytest.raises(AttributeError):
            info.hits = 0

    def test_spellings_of_a_triple_share_one_record(self):
        # An int m and a signed zero l are the same key.
        record = _triple(*KilbasSaigoParams(0.5, 1, 0))
        assert _triple(*KilbasSaigoParams(0.5, 1.0, -0.0)) is record
        a, b = (kilbas_saigo(KilbasSaigoParams(*t), -8.0) for t in ((0.5, 1, 0), (0.5, 1.0, -0.0)))
        assert a.path == "contour" and (*_bits(a), a.path) == (*_bits(b), b.path)

    def test_evicted_contour_record_is_rebuilt_identically(self):
        _triple.cache_clear()
        triples = [KilbasSaigoParams(0.45, 1.0, -0.01 * n) for n in range(_CACHE_SIZE + 1)]
        first = _triple(*triples[0])
        before = [_bits(kilbas_saigo(triples[0], z)) for z in (-3.0, 3.0)]
        for params in triples[1:]:
            assert _triple(*params).contour is not None
        assert _triple.cache_info().currsize == _CACHE_SIZE
        misses = _triple.cache_info().misses
        again = _triple(*triples[0])
        assert again is not first and _triple.cache_info().misses == misses + 1
        assert again.contour == first.contour
        assert [_bits(kilbas_saigo(triples[0], z)) for z in (-3.0, 3.0)] == before

    def test_orphaned_grower_keeps_growing(self):
        _triple.cache_clear()
        params = KilbasSaigoParams(0.45, 1.1, 0.3)
        ratios, grow, _ = _triple(*params)
        for n in range(1, _CACHE_SIZE + 1):
            _triple(0.45, 1.1, 0.3 + 0.01 * n)
        assert _triple(*params).ratios is not ratios  # dropped, then rebuilt
        assert grow(40) is ratios and len(ratios) == 40
        rebuilt = _triple(*params)
        assert ratios == rebuilt.grow(40) and len(rebuilt.ratios) == 40

    def test_least_recently_used_order(self):
        # Runs of requests for one triple, as a sweep makes them, hit and
        # miss as in a plain LRU that moves every hit to the end; a hit hands
        # back the triple's list, a miss a new one with the same values.
        _triple.cache_clear()
        model, lists = [], {}
        rng = np.random.default_rng(7)
        triples = [KilbasSaigoParams(0.5, 1.0, 0.01 * n) for n in range(_CACHE_SIZE + 20)]
        for _ in range(600):
            params = triples[int(rng.integers(len(triples)))]
            for _ in range(int(rng.integers(1, 4))):
                key = (params.alpha, params.m, params.l)
                hits = _triple.cache_info().hits
                log = _triple(*params).grow(2)
                hit = key in model
                assert _triple.cache_info().hits == hits + hit
                assert (log is lists.get(key)) == hit
                assert log == lists.get(key, log)
                lists[key] = log
                if hit:
                    model.remove(key)
                model.append(key)
                del model[:-_CACHE_SIZE]
        # Probing the kept triples oldest first evicts none of them.
        assert all(_triple(*key).ratios is lists[key] for key in model)
        assert _triple.cache_info().currsize == _CACHE_SIZE


def _hankel_reference(alpha, l, z):
    """Gamma(beta) E_{alpha,beta}(z), beta = alpha l + 1, by mpmath's
    Gauss-Legendre quadrature of the Laplace-inversion integral on a Hankel
    path (rays at +-3pi/4 beyond the unit circle, joined by its arc), to
    about 17 digits.
    Another path and another rule than the code under test; valid where
    s^alpha = z has no root on the principal sheet."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(17):
        a, b = mp.mpf(alpha), mp.mpf(alpha) * mp.mpf(l) + 1
        zz = mp.mpc(z.real, z.imag)

        def f(s):
            return mp.exp(s) * s ** (a - b) / (s**a - zz)

        up = mp.expjpi(mp.mpf(3) / 4)
        down = mp.conj(up)
        rays = mp.quad(lambda r: f(r * up) * up - f(r * down) * down, [1, 8, 64],
                       method="gauss-legendre")
        arc = mp.quad(lambda p: f(mp.expj(p)) * 1j * mp.expj(p),
                      [-3 * mp.pi / 4, 3 * mp.pi / 4], method="gauss-legendre")
        return complex(mp.gamma(b) * (rays + arc) / (2j * mp.pi))


def _on_sector_edge(r, alpha, sign):
    """The float nearest r e^{i sign alpha pi} with |arg z| >= alpha pi."""
    z = cmath.rect(r, sign * alpha * math.pi)
    while abs(cmath.phase(z)) < alpha * math.pi:
        z = complex(z.real, np.nextafter(z.imag, sign * math.inf))
    return z


def _contour_cases():
    for alpha in (0.1, 0.3, 0.5, 0.8, 0.95):
        # l = 0, and beta = alpha at l = (alpha - 1)/alpha
        for l in (0.0, (alpha - 1.0) / alpha):
            for z in (
                _on_sector_edge(1e-6, alpha, 1),
                _on_sector_edge(1e3, alpha, -1),
                complex(-1.0, -0.0),
                complex(-30.0, 0.0),
                cmath.rect(8.0, (1.0 + alpha) * math.pi / 2),
                cmath.rect(0.05, -(1.0 + alpha) * math.pi / 2),
            ):
                yield alpha, l, z


class TestContourPath:
    """The m = 1 contour rule against an independent mpmath integral."""

    @pytest.mark.parametrize("alpha,l", sorted({(a, l) for a, l, _ in _contour_cases()}))
    def test_matches_mpmath_across_the_sector(self, alpha, l):
        params = KilbasSaigoParams(alpha, 1.0, l)
        tol = 1e-12
        for a, ll, z in _contour_cases():
            if (a, ll) != (alpha, l):
                continue
            report = kilbas_saigo(params, z, tol)
            expected = _hankel_reference(alpha, l, z)
            assert report.path == "contour", z
            assert report.terms_used == 33
            assert report.converged
            assert abs(report.value - expected) <= tol * max(1.0, abs(expected)), z
            if z.imag == 0.0:
                assert report.value.imag == 0.0

    def test_off_the_rule_takes_the_series(self):
        for params, z in [
            (KilbasSaigoParams(0.5, 1.0, 0.0), 0.0),
            (KilbasSaigoParams(0.5, 1.0, 0.0), complex(math.nan, 1.0)),
            (KilbasSaigoParams(0.5, 1.0, 0.0), math.inf),
            # e^(s*) overflows at s* = 1e4.
            (KilbasSaigoParams(0.5, 1.0, 0.0), 100.0),
            (KilbasSaigoParams(0.5, 1.0, 0.5), -3.0),  # beta > 1
            (KilbasSaigoParams(0.5, 1.5, 0.0), -3.0),  # m != 1
            (KilbasSaigoParams(1.0, 1.0, 0.0), -3.0),  # alpha >= 1
            (KilbasSaigoParams(0.5, 1.0, 5e-324), -3.0),  # l > 0, beta rounds to 1
            (KilbasSaigoParams(0.5, math.nextafter(1.0, 2.0), 0.0), -3.0),  # m > 1
        ]:
            assert kilbas_saigo(params, z).path == "series"

    def test_residue_past_the_double_range_takes_the_series(self):
        # The residue e^(s*)/alpha overflows at s* = 709.2 although e^(s*)
        # does not; the rule read inf+nanj, converged. The series is not
        # finite there either, and says so.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = kilbas_saigo(KilbasSaigoParams(0.5, 1.0, 0.0), 26.63)
        assert report.path == "series" and not report.converged
        assert report.value == math.inf and report.last_term_magnitude == math.inf

    def test_pole_near_the_contour_meets_tol(self):
        # Off the sector the pole s* = 9 lies at d = -0.47 from the contour.
        # Its trapezoid error, about 5e-3, is subtracted exactly, so the
        # rule meets tol.
        tol = 1e-12
        report = kilbas_saigo(KilbasSaigoParams(0.5, 1.0, 0.0), 3.0, tol)
        expected = _series_reference(0.5, 0.0, complex(3.0))
        assert report.path == "contour" and report.value.imag == 0.0
        assert abs(report.value - expected) <= tol * max(1.0, abs(expected))

    @pytest.mark.parametrize(
        "triple",
        [(0.5, 1, 0), (0.5, 1.0, -0.0), (0.5, 1.0, 5e-324), (math.nextafter(1.0, 0.0), 1.0, 0.0),
         (1.0, 1.0, 0.0), (0.5, math.nextafter(1.0, 2.0), 0.0), (0.5, math.nextafter(1.0, 0.0), 0.0),
         (0.3, 1.0, -1.0), (0.6, 2.0, 1.0)],
    )
    def test_record_holds_nodes_exactly_on_the_rule(self, triple):
        alpha, m, l = triple
        on_rule = m == 1 and alpha < 1 and l <= 0
        assert (_triple(*KilbasSaigoParams(*triple)).contour is not None) == on_rule
        assert (kilbas_saigo(KilbasSaigoParams(*triple), -3.0).path == "contour") == on_rule

    def test_argument_that_underflows(self):
        # arg z = atan2(5e-324, 3) underflows to 0, where cmath.phase raises
        # OverflowError; the rule takes z, with the pole's correction, as it
        # takes 3.
        params = KilbasSaigoParams(0.3, 1.0, 0.0)
        tiny, real = kilbas_saigo(params, complex(3.0, 5e-324)), kilbas_saigo(params, 3.0)
        assert tiny.path == real.path == "contour" and tiny.converged
        assert abs(tiny.value - real.value) <= 1e-14 * abs(real.value)

    def test_across_the_sector_edge(self):
        # Just off the edge the pole lies far left of the contour (d = 0.98),
        # so the rule takes z with a correction of 3e-16 relative and the
        # value is continuous.
        params = KilbasSaigoParams(0.5, 1.0, 0.0)
        inside = _on_sector_edge(2.0, 0.5, 1)
        outside = cmath.rect(2.0, 0.5 * math.pi * (1.0 - 1e-12))
        assert abs(cmath.phase(outside)) < 0.5 * math.pi
        near, off = kilbas_saigo(params, inside), kilbas_saigo(params, outside)
        assert near.path == off.path == "contour"
        assert abs(near.value - off.value) <= 1e-11 * abs(near.value)

    def test_tolerance_out_of_reach_takes_the_series(self):
        # The rule's rounding bound alone is above 1e-16, so the series
        # answers, converged at its own tolerance.
        report = kilbas_saigo(KilbasSaigoParams(0.5, 1.0, 0.0), -1.0, tol=1e-16)
        assert report.path == "series"
        assert report.converged

    @pytest.mark.parametrize("tol", [math.inf, 1.0, 0.0, math.nan])
    def test_tolerance_checked_on_the_contour_path(self, tol):
        params = KilbasSaigoParams(0.5, 1.0, 0.0)
        with pytest.raises(ValueError, match="tol must lie in"):
            kilbas_saigo(params, -8.0, tol)
        # A contour branch's tail is its printed value, checked alike, also
        # on an empty grid, which calls no kilbas_saigo.
        branch = fundamental_solution(DegenerateProblem(OrderTriple(0.5, 0.5, 1.0, 1), 0.0, -8.0), 0)
        for ys in (np.ones(1), np.ones(0)):
            with pytest.raises(ValueError, match="tol must lie in"):
                branch.tail_grid_report(ys, 0, tol)

    @pytest.mark.parametrize("x", [-1e-3, -3.0, -40.0])
    def test_folded_real_rule_matches_the_full_rule(self, x):
        # A real z sums the nodes u >= 0 with their mirror images folded in;
        # a z just off the axis sums all 33 nodes.
        params = KilbasSaigoParams(0.3, 1.0, -1.0)
        real, near = kilbas_saigo(params, x), kilbas_saigo(params, complex(x, 1e-300))
        assert real.path == near.path == "contour"
        assert real.value.imag == 0.0
        assert abs(real.value - near.value) <= 1e-13 * max(1.0, abs(real.value))
        assert real.last_term_magnitude == pytest.approx(near.last_term_magnitude, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha,l", [(0.5, 0.0), (0.3, -1.0), (0.9, -0.5), (0.05, -10.0)])
    def test_grid_nodes_are_the_scalar_nodes(self, alpha, l):
        # The full rule and the folded one for real z.
        rules = _triple(alpha, 1.0, l).contour[1:3]
        assert [len(rule) for rule in rules] == [33, 17]

    @pytest.mark.parametrize(
        "alpha,z",
        [
            (0.5, complex(-3.0, 0.0)),
            (0.5, complex(-3.0, -0.0)),
            (0.3, cmath.rect(8.0, 0.8 * math.pi)),
            (0.5, _on_sector_edge(2.0, 0.5, 1)),
            (0.3, _on_sector_edge(1e3, 0.3, -1)),
        ],
    )
    def test_pole_adds_exact_zeros_in_the_sector(self, alpha, z):
        assert _reference_in_sector(alpha, z)
        # Exactly +0.0 in every part, so adding them leaves the rule's bits.
        correction, rounding, missing = _reference_contour_pole(alpha, 1.0, z)
        assert (type(correction), type(rounding), type(missing)) == (complex, float, float)
        parts = (correction.real, correction.imag, rounding, missing)
        assert struct.pack("<4d", *parts) == bytes(32)

    @pytest.mark.parametrize(
        "z",
        [
            0j,
            complex(math.nan, 0.0),
            complex(math.nan, 1.0),
            complex(-1.0, math.nan),
            complex(-math.inf, 0.0),
            complex(-math.inf, 1.0),
            complex(math.inf, 0.0),
            complex(0.0, -math.inf),
        ],
    )
    def test_pole_refuses_zero_and_nan(self, z):
        assert special_functions._contour_estimate(_triple(0.5, 1.0, 0.0).contour, z, 0.5) is None

    @pytest.mark.parametrize(
        "z",
        [complex(-math.inf, 0.0), complex(-math.inf, 1.0), complex(math.inf, 0.0), complex(0.0, -math.inf)],
    )
    def test_infinite_z_is_not_converged(self, z):
        # -inf lies in the sector; it used to read 0j, converged, on the contour.
        params = KilbasSaigoParams(0.5, 1.0, 0.0)
        table = [kilbas_saigo(params, point) for point in (z, -3.0)]
        assert [r.converged for r in table] == [False, True]
        assert [r.path for r in table] == ["series", "contour"]


class TestSilentWrongSeries:
    """m = 1 points that still take the cancelling series and report it
    converged. Each asserts what an honest report would give: within tol of
    the reference, or not converged."""

    @pytest.mark.xfail(strict=True, reason="below the contour rule's rounding floor the "
                       "series answers 1.07e13, converged, against 0.0699852")
    def test_tolerance_below_the_contour_floor(self):
        mp = pytest.importorskip("mpmath").mp
        tol = 1e-15
        report = kilbas_saigo(KilbasSaigoParams(0.5, 1.0, 0.0), -8.0, tol)
        with mp.workdps(30):
            expected = float(mp.exp(64) * mp.erfc(8))
        assert not report.converged or abs(report.value - expected) <= tol * max(1.0, expected)

    @pytest.mark.xfail(strict=True, reason="beta = 1.3 > 1 is left to the series, which "
                       "answers 0.5285, converged, against 0.23579")
    def test_beta_above_one(self):
        tol = 1e-12
        report = kilbas_saigo(KilbasSaigoParams(0.3, 1.0, 1.0), -3.0, tol)
        expected = _hankel_reference(0.3, 1.0, complex(-3.0))
        assert not report.converged or abs(report.value - expected) <= tol * max(1.0, abs(expected))

    def test_pole_near_a_missing_node(self):
        # The rule refused a pole 1e-6 from its missing node u = 17h, and the
        # series answered 2.8e4+2.2e4i, converged, against -0.0254+0.0793i.
        # The rule now sums that node and takes the point.
        tol = 1e-12
        z = _off_sector_point(0.5, complex(1.0, 17.0 * _CONTOUR_H + 1e-6))
        report = kilbas_saigo(KilbasSaigoParams(0.5, 1.0, 0.0), z, tol)
        expected = _series_reference(0.5, 0.0, z)
        assert report.path == "contour"
        assert not report.converged or abs(report.value - expected) <= tol * max(1.0, abs(expected))

    @pytest.mark.parametrize("x", [24.0, 26.0])
    def test_positive_axis_past_the_rule(self, x):
        # The contour rule is 1.1e-13 off here but its estimate passes tol,
        # so it refuses, and the series sums 1,500-1,750 same-signed terms
        # whose ratio is near 0.88 where it stops. A rule that bounded the
        # last term rather than the dropped tail stopped with about 7 tol
        # unsummed: 5.0e-12 off at x = 24 and 5.8e-12 at 26, converged.
        mp = pytest.importorskip("mpmath").mp
        tol = 1e-12
        report = kilbas_saigo(KilbasSaigoParams(0.5, 1.0, 0.0), x, tol)
        with mp.workdps(40):
            expected = float(mp.exp(mp.mpf(x) ** 2) * mp.erfc(-mp.mpf(x)))
        assert report.path == "series" and report.converged
        assert abs(report.value - expected) <= tol * max(1.0, expected)


def _series_reference(alpha, l, z):
    """Gamma(beta) E_{alpha,beta}(z), beta = alpha l + 1, as its power series
    summed by mpmath at the exact parameters, with enough digits to absorb
    the cancellation (the largest term is about e^(|z|^(1/alpha))). Valid
    anywhere; the test points keep |z|^(1/alpha) below about 400."""
    mp = pytest.importorskip("mpmath").mp
    peak = abs(z) ** (1.0 / alpha)
    with mp.workdps(30 + int(peak / math.log(10.0))):
        a = mp.mpf(alpha)
        b = a * mp.mpf(l) + 1
        zz = mp.mpc(z.real, z.imag)
        total, power, k = mp.mpc(0), mp.mpc(1), 0
        # The terms decrease from k = peak/alpha on.
        while True:
            term = power * mp.rgamma(a * k + b)
            total += term
            if k > 2.0 * peak / alpha + 10.0 and abs(term) < mp.mpf(10) ** -30:
                break
            power *= zz
            k += 1
        return complex(mp.gamma(b) * total)


def _off_sector_point(alpha, w):
    """The z = s*^alpha whose pole s* = mu w^2 (Re w > 0) lies at
    d = 1 - Re w from the contour; real when w is."""
    s = special_functions._CONTOUR_MU * w * w
    if isinstance(w, float):
        return complex(s**alpha)
    return cmath.exp(alpha * cmath.log(s))


# Points off the sector where the summed series is wrong beyond tol while
# reporting converged (3.28e104 against -0.0908+0.1245i at the first; 8.0e-10
# and 3.5e-9 off at z = 8e^{1.6i}, whose pole lies at d = 0.032 from the
# contour).
_PINNED_POLE_POINTS = [
    ((0.3, 1.0, 0.0), complex(3.50591099948506, 4.07557350773563)),
    ((0.3, 1.0, 0.0), complex(3.0)),
    ((0.3, 1.0, 0.0), complex(4.0)),
    ((0.5, 1.0, 0.0), complex(0.29003976330735626, 3.052920139824338)),
    ((0.3, 1.0, 0.0), complex(1.210511339837462, 1.5499806688803217)),
    ((0.8, 1.0, 0.0), cmath.rect(8.0, 1.6)),
    ((0.8, 1.0, -0.625), cmath.rect(8.0, 1.6)),
]


def _pole_sample():
    """(alpha, l, z) off the sector: 40 random points with |z| <= 6 and
    |z|^(1/alpha) <= 400, and points whose pole lies near the contour."""
    rng = np.random.default_rng(20261019)
    points = []
    while len(points) < 40:
        alpha = float(rng.choice([0.3, 0.5, 0.7, 0.9]))
        l = float(rng.choice([0.0, -0.3, -0.495 / alpha]))
        r, phase = rng.uniform(0.05, min(6.0, 400.0**alpha)), rng.uniform(-1.0, 1.0) * alpha * math.pi
        z = complex(r) if len(points) % 5 == 0 else cmath.rect(r, phase)
        points.append((alpha, l, z))
    for alpha, l in ((0.3, 0.0), (0.5, -0.3), (0.9, 0.0)):
        for shift in (-0.5, -0.1, -0.01, 0.01, 0.1, 0.5):
            points.append((alpha, l, _off_sector_point(alpha, 1.0 + shift)))
            points.append((alpha, l, _off_sector_point(alpha, complex(1.0 + shift, 0.6))))
    return points


def _off_sector_map():
    """(alpha, l, z) off the sector, for five alpha. A grid: five radii from
    0.05 to min(6, 100^alpha) against five arguments from 0 to 0.95 alpha pi,
    real z among them, each (radius, argument) pair at one of three beta in
    turn. (Past |z|^(1/alpha) = 100 the reference's cost climbs steeply.)
    Then at each beta, poles on the contour past the outermost node u = 16h:
    within 1e-6 of the missing nodes u = 17h, -18h and -30h (|s*| = 47, 52
    and 137), and halfway between two; at alpha >= 0.8 also within 1e-6 of
    u = 50h (|s*| = 372)."""
    betas = (0.1, 0.5, 1.0)
    h = special_functions._CONTOUR_H
    points = []
    for alpha in (0.2, 0.3, 0.5, 0.8, 0.95):
        radii = np.geomspace(0.05, min(6.0, 100.0**alpha), 5)
        for i, r in enumerate(radii.tolist()):
            for j, turn in enumerate((0.0, 0.25, 0.5, 0.75, 0.95)):
                z = cmath.rect(r, turn * alpha * math.pi) if turn else complex(r)
                points.append((alpha, (betas[(i + j) % 3] - 1.0) / alpha, z))
        for beta in betas:
            poles = [17.0 * h + 1e-6, 1e-6 - 18.0 * h, 17.5 * h, 1e-6 - 30.0 * h] + [50.0 * h - 1e-6] * (alpha >= 0.8)
            for u in poles:
                points.append((alpha, (beta - 1.0) / alpha, _off_sector_point(alpha, complex(1.0, u))))
    return points


class TestPoleBranch:
    """Off the sector, |arg z| < alpha pi, the contour rule subtracts the
    one pole's trapezoid error and adds its residue where s* lies right of
    the contour; checked against an mpmath series at the exact
    parameters."""

    @pytest.mark.parametrize("triple,z", _PINNED_POLE_POINTS)
    def test_pinned_points_within_tol_or_not_converged(self, triple, z):
        tol = 1e-12
        params = KilbasSaigoParams(*triple)
        report = kilbas_saigo(params, z, tol)
        expected = _series_reference(triple[0], triple[2], z)
        assert report.path == "contour"
        assert not report.converged or abs(report.value - expected) <= tol * max(1.0, abs(expected))
        _scalar_calls(params, [z], tol)

    @pytest.mark.parametrize(
        "sample,counts", [(_pole_sample, (76, 0)), (_off_sector_map, (187, 4))], ids=["sample", "map"]
    )
    def test_estimate_covers_the_error(self, sample, counts):
        # Every point the rule can take, accepted or not, is within the
        # rule's summed estimate (the reference's) of the reference value,
        # and the accepted ones are within tol; (accepted, refused) counts
        # both. Where _contour_estimate accepts, its value is the rule's and
        # its estimate, from a constant where one decides, is no smaller.
        tol = 1e-12
        accepted = refused = 0
        for alpha, l, z in sample():
            params = KilbasSaigoParams(alpha, 1.0, l)
            assert not _reference_in_sector(alpha, z)
            rule = special_functions._contour_estimate(_triple(*params).contour, z, tol)
            summed = _reference_contour_estimate(params, z)
            report = kilbas_saigo(params, z, tol)
            if summed is None:
                assert rule is None and report.path == "series"
                refused += 1
                continue
            value, _, estimate = summed
            expected = _series_reference(alpha, l, z)
            assert abs(value - expected) <= estimate, (alpha, l, z)
            if report.path == "contour":
                accepted += 1
                assert report.value == rule[0] == value and rule[2] >= estimate
                assert abs(value - expected) <= tol * max(1.0, abs(expected)), (alpha, l, z)
            else:
                assert rule is None
                refused += 1
        assert (accepted, refused) == counts

    def test_real_positive_axis_is_exactly_real(self):
        params = KilbasSaigoParams(0.3, 1.0, 0.0)
        for x in (2.5, 3.0, 4.0):
            report = kilbas_saigo(params, x)
            assert report.path == "contour"
            assert report.value.imag == 0.0

    def test_z_on_a_node_takes_the_series(self):
        # The u = 0 node is s = mu, so at z = mu^alpha the pole lies on the
        # contour and a node's divisor is zero.
        params = KilbasSaigoParams(0.5, 1.0, 0.0)
        power = _triple(0.5, 1.0, 0.0).contour[2][0][0]
        z = complex(power.real)
        assert special_functions._contour_estimate(_triple(*params).contour, z, 0.5) is None
        assert [r.path for r in _scalar_calls(params, [z])] == ["series"]


def _scalar_calls(params, zs, tol=1e-12):
    """kilbas_saigo on a contour triple at every z: a report on the rule is
    converged with its node count, and any other is the series'. Returns
    the reports."""
    assert _triple(*params).contour is not None
    reports = [kilbas_saigo(params, z, tol) for z in zs]
    for r in reports:
        assert r.path in ("contour", "series")
        if r.path == "contour":
            assert r.converged and r.terms_used == _CONTOUR_NODES
    return reports


_routing_points = st.one_of(
    st.just(0.0),
    st.floats(-50.0, 50.0),
    st.builds(complex, st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
    # Within a few ulps of the edge |arg z| = alpha pi, made with alpha below.
    st.tuples(st.floats(1e-6, 1e3), st.sampled_from([-1, 1]), st.integers(-3, 3)),
)


class TestRoutingParity:
    """kilbas_saigo on contour triples, on points that take both paths: which
    path each takes and where the pole's correction is added. A contour
    branch's tail is its printed value (TestContourBranch in test_solver);
    on a series triple the grid driver agrees with the scalar engine to
    rounding (TestGridDriver)."""

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.05, 0.99),
        alpha_l=st.one_of(st.just(0.0), st.floats(-0.95, 0.0)),
        raw=st.lists(_routing_points, min_size=1, max_size=20),
        tol=st.sampled_from([1e-12, 1e-6, 1e-15, 1e-16]),
    )
    def test_contour_reports_are_converged(self, alpha, alpha_l, raw, tol):
        params = KilbasSaigoParams(alpha, 1.0, alpha_l / alpha)
        zs = []
        for z in raw:
            if isinstance(z, tuple):
                r, sign, ulps = z
                z = _on_sector_edge(r, min(alpha, 0.999), sign)
                for _ in range(abs(ulps)):
                    z = complex(z.real, np.nextafter(z.imag, math.copysign(math.inf, ulps)))
            zs.append(complex(z))
        _scalar_calls(params, zs, tol)

    def test_fixed_sector_sweep(self):
        # 25 triples with 0.05 < alpha < 0.99 and beta <= 1, 100 points each:
        # the negative axis with +0.0 and -0.0 imaginary parts, the open
        # sector, and its edge to within 3 ulps either side. Then 40 points
        # each off the sector, z = (mu w^2)^alpha with the pole at
        # d = 1 - Re w: a quarter on the positive real axis, a quarter with
        # the pole within 1e-6..1e-1 of the contour, either side.
        rng = np.random.default_rng(20261018)
        in_sector = pole_contour = 0
        for triple in range(25):
            alpha = rng.uniform(0.05, 0.99)
            beta = (1.0, alpha, rng.uniform(0.02, 1.0))[triple % 3]
            params = KilbasSaigoParams(alpha, 1.0, (beta - 1.0) / alpha)
            zs = []
            for k in range(100):
                r, sign = 10.0 ** rng.uniform(-6.0, 3.0), rng.choice([-1, 1])
                if k % 4 == 0:
                    z = complex(-r, sign * 0.0)
                elif k % 4 == 1:
                    z = cmath.rect(r, sign * rng.uniform(alpha, 1.0) * math.pi)
                else:
                    z = _on_sector_edge(min(r, 30.0), alpha, sign)
                    ulps = int(rng.integers(-3, 4))
                    for _ in range(abs(ulps)):
                        z = complex(z.real, np.nextafter(z.imag, math.copysign(math.inf, ulps)))
                zs.append(z)
            rows = _scalar_calls(params, zs)
            in_sector += sum(_reference_in_sector(alpha, z) for z in zs)
            assert "contour" in [r.path for r in rows]
            off = []
            for k in range(40):
                x = rng.uniform(0.02, 3.0)
                if k % 4 == 1:
                    x = 1.0 + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-6.0, -1.0)
                off.append(_off_sector_point(alpha, x if k % 4 == 0 else complex(x, rng.uniform(-1.5, 1.5))))
            assert not any(_reference_in_sector(alpha, z) for z in off)
            pole_contour += [r.path for r in _scalar_calls(params, off)].count("contour")
        assert in_sector >= 2000
        assert pole_contour >= 200

    @pytest.mark.parametrize("alpha,l", [(0.3, 0.0), (0.5, 0.0), (0.7, -0.5)])
    def test_sector_and_pole_points_in_one_call(self, alpha, l):
        # One table holds every kind of row, each real and complex: the
        # sector (with both zero imaginary parts and its exact edge), the
        # pole right of the contour (d = -1.0, -1.2 and -0.6, the residue
        # included in its correction) and left of it (d = 0.95), and the
        # series where the rule refuses z (z = 0 and the pole on the contour
        # at d = 0). Every point off the sector gets a nonzero correction.
        params = KilbasSaigoParams(alpha, 1.0, l)
        contour = [
            complex(-3.0, 0.0),
            complex(-0.5, -0.0),
            cmath.rect(6.0, (1.0 + alpha) * math.pi / 2),
            _on_sector_edge(2.0, alpha, -1),
            _off_sector_point(alpha, 2.0),
            _off_sector_point(alpha, complex(2.2, -0.7)),
            _off_sector_point(alpha, 0.05),
            _off_sector_point(alpha, complex(0.05, 0.02)),
            _off_sector_point(alpha, complex(1.6, -0.4)),
        ]
        series = [0.0, _off_sector_point(alpha, 1.0)]
        zs = [contour[0], *series, *contour[1:]]
        rows = _scalar_calls(params, zs)
        assert [r.path for r in rows] == ["contour", "series", "series", *["contour"] * 8]
        beta = alpha * l + 1.0
        corrections = [_reference_contour_pole(alpha, beta, z)[0] != 0 for z in contour]
        assert corrections == [False] * 4 + [True] * 5
        assert [_reference_in_sector(alpha, z) for z in contour] == [True] * 4 + [False] * 5

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_same_path_at_the_exact_threshold(self, alpha):
        # The rounding bound decides only the path: find adjacent tol where
        # the scalar call changes path.
        # The last five lie off the sector, their pole at d = -0.6 (on the
        # real axis and off it), d = 0.65, and d = -1, where the pole's
        # discretisation error and rounding bound are of a size, so the
        # order of the estimate's sum shows.
        params = KilbasSaigoParams(alpha, 1.0, 0.0)
        as_int = lambda x: struct.unpack("<q", struct.pack("<d", x))[0]
        as_float = lambda i: struct.unpack("<d", struct.pack("<q", i))[0]
        for z in (
            -0.5,
            -2.0,
            complex(-1.5, 0.7),
            complex(-2.2, -1.2),
            _off_sector_point(alpha, 1.6),
            _off_sector_point(alpha, complex(1.6, -0.4)),
            _off_sector_point(alpha, complex(0.35, 0.5)),
            _off_sector_point(alpha, 2.0),
            _off_sector_point(alpha, complex(2.0, 0.5)),
        ):
            # Positive doubles order like their bit patterns.
            lo, hi = as_int(1e-17), as_int(1e-6)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if kilbas_saigo(params, z, as_float(mid)).path == "contour":
                    hi = mid
                else:
                    lo = mid
            assert kilbas_saigo(params, z, as_float(lo)).path == "series"
            assert kilbas_saigo(params, z, as_float(hi)).path == "contour"
            for tol in (as_float(lo), as_float(hi)):
                _scalar_calls(params, [z], tol)

    @pytest.mark.parametrize("lam", [-50.0, -2.0 + 1.0j, 1.0j])
    def test_whole_tail_has_the_bits_of_evaluate(self, lam):
        # The branch of (0.5, 0.5, mu=1, i=1, m=0) is the contour triple
        # (0.5, 1, 0); its tail from 0 is evaluate, every field bit for bit.
        sol = fundamental_solution(DegenerateProblem(OrderTriple(0.5, 0.5, 1.0, 1), 0.0, lam), 0)
        ys = np.linspace(0.0, 1.0, 65)[1:]
        tail = sol.tail_grid_report(ys, 0)
        rows = [SeriesEvalReport(*(f.item() for f in row)) for row in zip(*vars(tail).values())]
        points = sol.evaluate(ys)
        assert [(*_bits(r), r.path) for r in rows] == [(*_bits(r), r.path) for r in points]
        dtypes = [np.complex128, np.int64, np.float64, np.bool_, np.dtype("<U7")]
        assert [field.dtype for field in vars(tail).values()] == dtypes
        assert tail.path.tolist() == ["contour"] * 64

    def test_mixed_table_uses_both_paths(self):
        # A table on both paths, as eval-ks writes one.
        params = KilbasSaigoParams(0.5, 1.0, 0.0)
        zs = np.linspace(-8.0, 4.0, 1201) * np.exp(0.3j)
        zs = [*zs.tolist(), *np.linspace(-8.0, 4.0, 41).tolist(), 0.0, complex(-2.0, -0.0)]
        rows = _scalar_calls(params, zs)
        assert {r.path for r in rows} == {"contour", "series"}


def _summed_bound(nodes, z):
    """The summed rounding bound sum_k eps (1 + |s_k|) |t_k| of the rule's
    nodes at z, or None where a node sits on z or a term's magnitude, and so
    the bound, passes the double range."""
    try:
        bound = special_functions._contour_sum(nodes, z)[1]
    except (ZeroDivisionError, OverflowError):
        return None
    return bound if bound < math.inf else None


def _node_point(record, k, kind):
    """A z next to node k's p_k: on the real axis at Re p_k, or on the
    sector edge where it lies nearest p_k."""
    alpha, power = record[0], record[1][k][0]
    if kind == "axis":
        return complex(power.real)
    edge = alpha * math.pi * math.copysign(1.0, power.imag or 1.0)
    foot = abs(power) * math.cos(abs(edge) - abs(math.atan2(power.imag, power.real)))
    return cmath.rect(max(foot, 1e-3), edge * (1.0 + 1e-15))


class TestContourConstants:
    """The contour rule's per-triple rounding constants: each bounds the
    summed rounding bound wherever it applies, so the rule accepts exactly
    the points the summed bound accepts, with the same report."""

    _RULE_TRIPLES = [(0.5, 1.0, 0.0), (0.3, 1.0, 0.0), (0.9, 1.0, -1.0), (0.3, 1.0, -3.0),
                     (0.5, 1.0, -1.9), (0.2, 1.0, -4.75)]

    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.one_of(st.floats(0.01, 0.999), st.floats(5e-324, 1.0, exclude_max=True)),
        beta=st.floats(0.0, 1.0, exclude_min=True),
        size=st.floats(-3.0, 3.0),
        turn=st.floats(0.0, 1.0),
        sign=st.sampled_from([-1.0, 1.0]),
        kind=st.sampled_from(["negative", "positive", "sector", "axis", "edge"]),
        node=st.integers(0, 2 * _CONTOUR_N),
    )
    @example(alpha=0.5, beta=1.0, size=0.0, turn=0.0, sign=1.0, kind="axis", node=20)
    @example(alpha=0.05, beta=0.05, size=0.0, turn=0.0, sign=1.0, kind="edge", node=20)
    # Terms of magnitude past the double range, in the sector near z = 1.
    @example(alpha=2.2250738585072014e-308, beta=0.5, size=0.0, turn=0.0, sign=-1.0, kind="sector", node=0)
    def test_constants_cover_the_summed_bound(self, alpha, beta, size, turn, sign, kind, node):
        l = (beta - 1.0) / alpha
        assume(math.isfinite(l) and alpha * l > -1.0 and l <= 0.0)
        record = _triple(alpha, 1.0, l).contour
        _, full, half, _, _, sector, axis, head = record
        if kind in ("axis", "edge"):
            z = _node_point(record, node, kind)
        elif kind == "sector":
            z = cmath.rect(10.0**size, sign * (alpha + turn * (1.0 - alpha)) * math.pi)
        else:
            z = complex(10.0**size * (1.0 if kind == "positive" else -1.0))
        in_sector = abs(math.atan2(z.imag, z.real)) >= alpha * math.pi
        assume(z != 0 and (in_sector or z.imag == 0.0))
        if z.imag == 0.0:
            bound = _summed_bound(half, z)
            assume(bound is not None)
            power, weight, _ = half[0]
            assert axis + head * abs(weight / (power - z)) >= bound
        if in_sector:
            bound = _summed_bound(full, z)
            assume(bound is not None)
            assert sector >= bound
            # On the negative axis it bounds the folded sum as well.
            folded = _summed_bound(half, z)
            assert z.imag != 0.0 or folded is None or sector >= folded

    def test_reports_match_the_summed_rule(self):
        # At every tol the reports are the reference's, field for field. At
        # beta = 0.05 and 0.1 the constants exceed the smaller tolerances,
        # so the summed bound decides there; elsewhere a constant does.
        points = [complex(x) for x in np.linspace(-8.0, -0.25, 32)]
        points += [complex(x) for x in np.linspace(0.25, 4.0, 16)]
        points += [complex(r * math.cos(t), r * math.sin(t))
                   for r, t in zip(np.linspace(0.5, 6.0, 16), np.linspace(0.15, math.pi - 0.15, 16))]
        by_constant = by_sum = 0
        summed_at_small_beta = set()
        for triple in self._RULE_TRIPLES:
            params = KilbasSaigoParams(*triple)
            contour = _triple(*params).contour
            for tol in (1e-16, 1e-14, 1e-13, 1e-12, 1e-6, 0.5):
                for z in points:
                    report, reference = kilbas_saigo(params, z, tol), _reference_kilbas_saigo(params, z, tol)
                    assert (*_bits(report), report.path) == (*_bits(reference), reference.path), (triple, z, tol)
                    if report.path != "contour":
                        continue
                    estimate = special_functions._contour_estimate(contour, z, tol)[2]
                    if estimate == _reference_contour_estimate(params, z)[2]:
                        by_sum += 1
                        if triple[0] * triple[2] + 1.0 < 0.2:
                            summed_at_small_beta.add(triple)
                    else:
                        by_constant += 1
        assert by_constant > 0 and by_sum > 0
        assert summed_at_small_beta == {(0.9, 1.0, -1.0), (0.3, 1.0, -3.0), (0.5, 1.0, -1.9), (0.2, 1.0, -4.75)}

    @pytest.mark.parametrize("z", [complex(-2.0, 1.0), complex(-3.0)], ids=["complex", "real"])
    def test_summed_bound_decides_where_the_constant_does_not(self, z):
        # At the smallest tol where the sector constant is tried and the
        # summed estimate meets it, the constant's estimate does not, so the
        # summed bound must accept the point. (|E| < 1 at both points.)
        params = KilbasSaigoParams(0.5, 1.0, 0.0)
        contour = _triple(*params).contour
        value, _, summed = _reference_contour_estimate(params, z)
        tol = max(summed, contour[5])
        assert abs(value) < 1.0 and tol < special_functions._contour_estimate(contour, z, 0.5)[2]
        report, reference = kilbas_saigo(params, z, tol), _reference_kilbas_saigo(params, z, tol)
        assert report.path == "contour" and (*_bits(report), report.path) == (*_bits(reference), reference.path)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-320])
    def test_tiny_alpha(self, alpha):
        # The record builds where a node's distance from the sector or the
        # axis rounds to zero (its constant is inf), and every report is
        # the reference's; at z = -2 the rule gives 1/(1 - z).
        params = KilbasSaigoParams(alpha, 1.0, 0.0)
        record = _triple(*params).contour
        assert record is not None and record[5] >= 0.0 and record[6] >= 0.0
        zs = [-2.0, -0.5, -1e3, 2.0, 0.5, complex(-2.0, 1.0), complex(-2.0, -0.0), complex(0.5, 1e-300),
              complex(1.0, 1e-300), complex(3.0, -2.0), 1j]
        for tol in (1e-16, 1e-12, 0.5):
            for z in zs:
                report, reference = kilbas_saigo(params, z, tol), _reference_kilbas_saigo(params, z, tol)
                assert (*_bits(report), report.path) == (*_bits(reference), reference.path), (z, tol)
        report = kilbas_saigo(params, -2.0)
        assert report.path == "contour" and abs(report.value - 1.0 / 3.0) <= 1e-14
