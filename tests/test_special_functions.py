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
from hypothesis import assume, given, settings
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
from bihilfer.series_grid import _PowerGrid, _sum_log_series_grid
from bihilfer.special_functions import (
    _CACHE_SIZE,
    _CONTOUR_H,
    _CONTOUR_MU,
    _CONTOUR_N,
    _CONTOUR_NODES,
    _EPS,
    _MAX_TERMS,
    SeriesEvalReport,
    _check_series_args,
    _power,
    _sum_log_series,
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
        # overflowed argument gave a nan log-coefficient. Those c_j are
        # zero, so the sum is c_0 = 1 after three zero terms.
        params = KilbasSaigoParams(*params)
        assert kilbas_saigo(params, z) == (1.0, 4, 0.0, True, "series")
        assert kilbas_saigo_coefficients(params, 5) == [1.0, 0.0, 0.0, 0.0, 0.0]

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
    E_{alpha,m,l}. Summed by the same engine as kilbas_saigo, but each
    log-coefficient is formed directly as -lnGamma(ak+b), independently of
    any coefficient recurrence or cache. A plain series, so it cancels
    where kilbas_saigo takes its contour rule; the partial sum is returned
    even if the stopping rule never fires."""
    log_coeffs: list[float] = []

    def fetch(n: int) -> list[float]:
        while len(log_coeffs) < n:
            try:
                log_coeffs.append(-math.lgamma(a * len(log_coeffs) + b))
            except OverflowError:
                log_coeffs.append(-math.inf)  # 1/Gamma underflows
        return log_coeffs

    return _sum_log_series(fetch, z, tol).value


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
    return [_sum_log_series(fetch, ray.lam * _power(y, ray.a), tol) for y in ray.ys.tolist()]


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
    terms_used and converged as the engine's, every overflowed point (last
    term inf) and each row of `exact` bit for bit, and the other values to
    rounding. The driver forms ln|z| as ln|lam| + a ln y and the phase as
    k arg lam, so term k's exponent differs by up to about k eps (|ln|z|| +
    |arg z|) and the N-term sums by N eps times sum_k |t_k|, which is the
    engine's value at |z| (the coefficients are positive); 1e-15 N sum|t_k|
    is the bound."""
    reports = _scalar_reports(fetch, ray, tol)
    assert grid.terms_used.tolist() == [r.terms_used for r in reports]
    assert grid.converged.tolist() == [r.converged for r in reports]
    for j, (y, r) in enumerate(zip(ray.ys.tolist(), reports)):
        got = (grid.value[j].item(), grid.last_term_magnitude[j].item())
        if j in exact or r.last_term_magnitude == math.inf:
            assert struct.pack("<3d", got[0].real, got[0].imag, got[1]) == struct.pack(
                "<3d", r.value.real, r.value.imag, r.last_term_magnitude), j
        else:
            size = _sum_log_series(fetch, abs(ray.lam * _power(y, ray.a)), tol).value.real
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
        # The cap, the point z = 0, a converged sum, and terms past exp(700)
        # at real and complex z, which the scalar engine sums and reports.
        params, capped = CAPPED
        fetch = _triple(*_shifted(params, 2)).grow
        real = _PowerGrid(1.0, 1.0, np.array([capped, 0.0, 0.5, 800.0]))
        complex_ = _PowerGrid(cmath.rect(1.0, 1.0), 1.0, np.array([capped, 0.3, 720.0]))
        for ray, overflow in ((real, 3), (complex_, 2)):
            reports = _assert_agrees(_sum_log_series_grid(fetch, ray, 1e-12), fetch, ray, exact=(1,))
            assert reports[0].terms_used == 10_000 and not reports[0].converged
            assert reports[overflow].last_term_magnitude == math.inf

    @pytest.mark.parametrize("odd", [1e60, -1e60j, math.nan, complex(math.nan, 1.0)])
    def test_one_column_past_the_exponent_cap(self, odd):
        # One point forms a term past exp(700), or a nan exponent, within
        # its first terms; the others never do, and the capped point runs
        # up to _MAX_TERMS beside it. Only the odd point goes to the scalar
        # engine, which sums it with the scalar bits.
        params, capped = CAPPED
        fetch = _triple(*params).grow
        lam = 1j * math.copysign(1.0, odd.imag) if isinstance(odd, complex) else 1.0
        ray = _PowerGrid(lam, 1.0, np.array([capped, 0.5, abs(odd), 0.3]))
        grid = _sum_log_series_grid(fetch, ray)
        reports = _assert_agrees(grid, fetch, ray, exact=(2,))
        assert grid.terms_used[0] == 10_000 and reports[2].terms_used < 16
        assert grid.converged.tolist() == [False, True, False, True]
        assert math.isinf(grid.last_term_magnitude[2]) != cmath.isnan(odd)

    def test_arg_lam_underflows(self):
        # arg lam = atan2(5e-324, 2) underflows to 0, where cmath.phase
        # raises OverflowError.
        fetch = _triple(0.5, 1.0, 0.0).grow
        ray = _PowerGrid(complex(2.0, 5e-324), 1.0, np.array([0.0, 0.3, 1.0, 2.0]))
        _assert_agrees(_sum_log_series_grid(fetch, ray), fetch, ray, exact=(0,))

    def test_spans_chunks_and_blocks(self):
        # Many points, some summing more than 16 terms.
        fetch = _triple(0.5, 1.0, 0.0).grow
        ray = _PowerGrid(cmath.rect(4.0, 0.3), 1.0, np.linspace(0.0, 1.0, 1201))
        grid = _sum_log_series_grid(fetch, ray)
        assert grid.terms_used.max() > 16
        _assert_agrees(grid, fetch, ray, exact=(0,))

    def test_empty_grid(self):
        grid = _sum_log_series_grid(_triple(*CAPPED[0]).grow, _PowerGrid(1.0, 1.0, np.empty(0)))
        assert grid.value.size == grid.terms_used.size == 0

    def test_no_request_passes_the_cap(self):
        # The 10,000-term cap beside 513 short sums. The fetch returns no
        # more log-coefficients than asked for, so the driver asks again as
        # its sums grow, and never for more than the terms it may sum.
        requested = []
        fetch = _triple(*CAPPED[0]).grow

        def recording(n):
            requested.append(n)
            return fetch(n)[:n]

        ray = _PowerGrid(1.0, 1.0, np.array([CAPPED[1], *[0.1] * 512, 0.2]))
        grid = _sum_log_series_grid(recording, ray)
        assert max(requested) == _MAX_TERMS
        assert grid.terms_used[0] == _MAX_TERMS and not grid.converged[0]
        _assert_agrees(grid, fetch, ray)

    def test_long_small_term_streak(self):
        # At y = 12 on lam = 1 and tol = 0.5 the rule fires only after 216
        # small terms in a row, at term 289: a streak kept in a narrow
        # counter would wrap and stop elsewhere.
        fetch = _triple(0.5, 1.0, 0.0).grow
        ys = np.array([12.0, 20.0, 0.5, 3.0, 0.0])
        for lam, terms in ((1.0, [289, 801, 4, 19, 1]), (-1.0, [493, 1128, 5, 49, 1]),
                           (1j, [500, 1127, 4, 49, 1])):
            ray = _PowerGrid(lam, 1.0, ys)
            grid = _sum_log_series_grid(fetch, ray, 0.5)
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
        # Terms past exp(700): the scalar fallback.
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
        alone = [_sum_log_series_grid(fetch, ray._replace(ys=ray.ys[j : j + 1]), tol)
                 for j in range(len(ys))]
        _assert_bit_identical(_sum_log_series_grid(fetch, ray, tol), alone)

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
        _assert_agrees(_sum_log_series_grid(fetch, ray, 1e-12), fetch, ray)

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
        grid, back = (_sum_log_series_grid(fetch, ray) for ray in (up, down))
        assert (np.diff(grid.terms_used) >= 0).all() and grid.terms_used[-1] > 100
        for name, array in vars(grid).items():
            assert getattr(back, name)[::-1].tobytes() == array.tobytes(), name
        _assert_agrees(grid, fetch, up)


def _reference_sum_log_series(log_coeffs, z, tol=1e-12) -> SeriesEvalReport:
    """The scalar engine as it was before its per-term cost was cut, kept
    verbatim but for the start offset and term weights it no longer takes,
    and with the engine's non-finite exit at the stopping index: the engine
    must return the same report for every input."""
    _check_series_args(tol)
    logs = log_coeffs(1)
    if z == 0:
        return SeriesEvalReport(complex(math.exp(logs[0])), 1, 0.0, True)
    z = complex(z)
    if z.imag == 0.0:
        exp, log_z, flip, total = math.exp, math.log(abs(z.real)), z.real < 0.0, 0.0
    else:
        exp, log_z, flip, total = cmath.exp, cmath.log(z), False, 0.0j
    streak = 0
    prev_mag = math.inf
    mag = math.inf
    k = 0
    while k < _MAX_TERMS:
        if k >= len(logs):
            logs = log_coeffs(2 * k)
        try:
            t = exp(logs[k] + k * log_z)
        except OverflowError:
            # Term outgrew the double range; report the best partial sum.
            return SeriesEvalReport(complex(total), k + 1, math.inf, False)
        if flip and k & 1:
            t = -t
        total += t
        try:
            mag, size = abs(t), abs(total)
        except OverflowError:
            # A complex magnitude past the double range: unconverged as well.
            return SeriesEvalReport(complex(total), k + 1, math.inf, False)
        if not math.isfinite(mag):
            return SeriesEvalReport(complex(total), k + 1, mag, False)
        if mag <= tol * max(1.0, size):
            streak += 1
        else:
            streak = 0
        if k >= 2 and streak >= 3 and (mag < prev_mag or mag == prev_mag == 0.0):
            if not cmath.isfinite(total):
                return SeriesEvalReport(complex(total), k + 1, math.inf, False)
            return SeriesEvalReport(complex(total), k + 1, mag, True)
        prev_mag = mag
        k += 1
    return SeriesEvalReport(complex(total), k, mag, False)


# The contour rule as it was before kilbas_saigo's per-call work was cut,
# kept verbatim but for the functions' names and docstrings, with the
# pole's exact trapezoid correction off the sector: every report of the
# rule must stay the same, bit for bit.
def _reference_in_sector(alpha: float, z: complex) -> bool:
    """z != 0 and |arg z| >= alpha*pi: no pole on the principal sheet."""
    return z != 0 and abs(math.atan2(z.imag, z.real)) >= alpha * math.pi


def _reference_contour_pole(alpha: float, beta: float, z: complex) -> "tuple[complex, float, float] | None":
    """(the pole's correction, its rounding bound, the missing node's term)
    at z, or None where the rule cannot take z; exact zeros in the sector."""
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
    missing, x = 0.0, abs(w.imag)
    if x > _CONTOUR_N * _CONTOUR_H:
        # The term of the missing node nearest the pole.
        k = max(round(x / _CONTOUR_H), _CONTOUR_N + 1)
        v = complex(1.0, _CONTOUR_H * (k if w.imag > 0.0 else -k))
        node = _CONTOUR_MU * v * v
        log_node = cmath.log(node)
        scale = math.lgamma(beta) + math.log(_CONTOUR_H * _CONTOUR_MU / math.pi)
        weight = cmath.exp(scale + cmath.log(v) + node + (alpha - beta) * log_node)
        try:
            missing = abs(weight / (cmath.exp(alpha * log_node) - z))
        except (ZeroDivisionError, OverflowError):
            return None
    return pole, size * _EPS * ((1.0 + abs(s)) * spread + shift) / gap, missing


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
    return _reference_sum_log_series(_triple(*params).grow, z, tol)


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
            assert _bits(_sum_log_series(fetch, z, tol)) == _bits(
                _reference_sum_log_series(fetch, z, tol)
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
        ],
        ids=["term-cap", "zero-point", "converged", "term-overflow", "magnitude-overflow",
             "non-finite-point", "minus-inf", "nan", "inf-real-part", "inf-imag-part",
             "nan-real-part", "nan-imag-part", "negative-term-overflow", "negative-term-cap",
             "sum-overflow", "complex-sum-overflow"],
    )
    def test_every_exit(self, params, z, start, exit):
        # At e^710 every term is finite but the sum is not, and an infinite
        # sum passed the stopping test on every term: it stopped converged.
        fetch = _triple(*_shifted(KilbasSaigoParams(*params), start)).grow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = _sum_log_series(fetch, z, 1e-12)
        if exit == "overflow":
            assert report.last_term_magnitude == math.inf and not report.converged
        elif exit == "converged":
            assert report.converged and 3 < report.terms_used < 10_000
        else:
            assert (report.terms_used, report.converged) == exit
        assert _bits(report) == _bits(_reference_sum_log_series(fetch, z, 1e-12))

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
                        _reference_sum_log_series(_triple(*params).grow, z)
                    ), (triple, z)
                reference = _reference_kilbas_saigo(params, z)
                assert (*_bits(report), report.path) == (*_bits(reference), reference.path)
        assert (series, refused) == (384, 0)

    @pytest.mark.parametrize("z", [CAPPED[1], complex(0.0, CAPPED[1])], ids=["real", "complex"])
    def test_no_request_passes_the_cap(self, z):
        # A sum that runs to the 10,000-term cap, on the real loop and on
        # the complex one. The fetch returns no more log-coefficients than
        # asked for, so the engine asks again as the sum grows, and never
        # for more than the terms it may sum; nor does kilbas_saigo grow the
        # triple's cached list past them.
        params = CAPPED[0]
        requested = []

        def recording(n):
            requested.append(n)
            return _triple(*params).grow(n)[:n]

        report = _sum_log_series(recording, z)
        assert max(requested) == _MAX_TERMS
        assert (report.terms_used, report.converged) == (_MAX_TERMS, False)
        assert _bits(report) == _bits(_reference_sum_log_series(_triple(*params).grow, z))
        _triple.cache_clear()
        assert _bits(kilbas_saigo(params, z)) == _bits(report)
        assert len(_triple(*params).logs) == _MAX_TERMS


class TestCacheStats:
    def test_counts_hits_misses_and_fills(self):
        _triple.cache_clear()
        params = KilbasSaigoParams(0.7, 1.3, 0.2)
        assert len(_triple(*params).grow(10)) == 10
        assert len(_triple(*params).grow(4)) == 10
        assert len(_triple(*params).grow(25)) == 25
        assert _triple(0.7, 1.3, 0.3).grow(1) == [0.0]
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
        logs, grow, _ = _triple(*params)
        for n in range(1, _CACHE_SIZE + 1):
            _triple(0.45, 1.1, 0.3 + 0.01 * n)
        assert _triple(*params).logs is not logs  # dropped, then rebuilt
        assert grow(40) is logs and len(logs) == 40
        assert logs == _triple(*params).grow(40)

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
        assert all(_triple(*key).logs is lists[key] for key in model)
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
        assert special_functions._contour_estimate(_triple(0.5, 1.0, 0.0).contour, z) is None

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
                       "answers 21.06, converged, against 0.23579")
    def test_beta_above_one(self):
        tol = 1e-12
        report = kilbas_saigo(KilbasSaigoParams(0.3, 1.0, 1.0), -3.0, tol)
        expected = _hankel_reference(0.3, 1.0, complex(-3.0))
        assert not report.converged or abs(report.value - expected) <= tol * max(1.0, abs(expected))

    @pytest.mark.xfail(strict=True, reason="the contour rule refuses a pole 1e-6 from "
                       "its missing node u = 17h, and the series answers 2.8e4+2.2e4i, "
                       "converged, against -0.0254+0.0793i")
    def test_pole_near_a_missing_node(self):
        tol = 1e-12
        z = _off_sector_point(0.5, complex(1.0, 17.0 * _CONTOUR_H + 1e-6))
        report = kilbas_saigo(KilbasSaigoParams(0.5, 1.0, 0.0), z, tol)
        expected = _series_reference(0.5, 0.0, z)
        assert not report.converged or abs(report.value - expected) <= tol * max(1.0, abs(expected))


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
        "sample,counts", [(_pole_sample, (76, 0)), (_off_sector_map, (172, 19))], ids=["sample", "map"]
    )
    def test_estimate_covers_the_error(self, sample, counts):
        # Every point the rule can take, accepted or not, is within the
        # rule's estimate of the reference, and the accepted ones are within
        # tol; (accepted, refused) counts both.
        tol = 1e-12
        accepted = refused = 0
        for alpha, l, z in sample():
            params = KilbasSaigoParams(alpha, 1.0, l)
            assert not _reference_in_sector(alpha, z)
            rule = special_functions._contour_estimate(_triple(*params).contour, z)
            report = kilbas_saigo(params, z, tol)
            if rule is None:
                assert report.path == "series"
                refused += 1
                continue
            value, _, estimate = rule
            expected = _series_reference(alpha, l, z)
            assert abs(value - expected) <= estimate, (alpha, l, z)
            if report.path == "contour":
                accepted += 1
                assert report.value == value
                assert abs(value - expected) <= tol * max(1.0, abs(expected)), (alpha, l, z)
            else:
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
        assert special_functions._contour_estimate(_triple(*params).contour, z) is None
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
