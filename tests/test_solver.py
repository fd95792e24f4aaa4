"""Tests for the series construction and its parameter mappings."""

import cmath
import math
import re
import struct
import sys
import warnings

import numpy as np
import pytest

from bihilfer import (
    CauchySolution,
    DegenerateProblem,
    DomainError,
    KilbasSaigoParams,
    OrderTriple,
    cauchy_solution,
    coefficient_sequence,
    derive_params,
    fundamental_solution,
    initial_condition_check,
    kilbas_saigo,
    kilbas_saigo_coefficients,
)
from bihilfer.series_grid import _PowerGrid, _sum_series_grid
from bihilfer.special_functions import SeriesEvalReport, _sum_series, _triple
from test_special_functions import mittag_leffler


def make_problem(alpha, beta, mu, i, m=0.0, lam=1.0):
    return DegenerateProblem(orders=OrderTriple(alpha, beta, mu, i), m=m, lam=lam)


CAPUTO_HALF = make_problem(0.5, 0.5, 1.0, 1)


def _reports(result):
    """The SeriesEvalReports of an evaluate list or of a grid report."""
    if isinstance(result, list):
        return result
    return [SeriesEvalReport(*(f.item() for f in row)) for row in zip(*vars(result).values())]


def _bits(report):
    """Every field of a report, floats as their bit patterns."""
    floats = struct.pack("<3d", report.value.real, report.value.imag, report.last_term_magnitude)
    return floats, report.terms_used, report.converged, report.path


def assert_matches_pointwise(got, points):
    """Reports (an evaluate list or a grid report) equal the pointwise
    reports bit for bit, field by field."""
    assert [_bits(r) for r in _reports(got)] == [_bits(r) for r in points]


def values(reports):
    return [r.value for r in reports]

# Valid corner of the admissibility sweep used across several tests
SWEEP = [
    make_problem(i - da, i - db, mu, i, m=m)
    for i in (1, 2, 3)
    for da in (0.9, 0.5, 0.1)
    for db in (0.9, 0.5, 0.1)
    for mu in (0.0, 0.3, 1.0)
    for m in (0.0, 0.5, 2.0)
    if m + mu * ((i - da) - (i - db)) >= 0.0
]


class TestDegenerateProblem:
    def test_negative_m_rejected(self):
        with pytest.raises(DomainError, match="m >= 0"):
            make_problem(0.5, 0.5, 1.0, 1, m=-0.1)

    def test_shift_inequality_rejected(self):
        # mu*(alpha-beta) = -0.8 and m = 0
        with pytest.raises(DomainError, match=r"m \+ mu\*\(alpha-beta\) >= 0"):
            make_problem(0.1, 0.9, 1.0, 1, m=0.0)

    def test_order_window_mismatch_rejected(self):
        with pytest.raises(DomainError, match="beta"):
            make_problem(1.7, 0.3, 0.5, 2)

    @pytest.mark.parametrize(
        "m,lam,message",
        [
            (math.inf, 1.0, "m >= 0 and finite"),
            (math.nan, 1.0, "m >= 0 and finite"),
            (0.0, complex(math.inf, 0.0), "lambda must be finite"),
            (0.0, complex(0.0, math.nan), "lambda must be finite"),
        ],
        ids=["m-inf", "m-nan", "lambda-inf", "lambda-nan"],
    )
    def test_non_finite_data_rejected(self, m, lam, message):
        with pytest.raises(DomainError, match=message):
            make_problem(0.5, 0.5, 1.0, 1, m=m, lam=lam)

    def test_lambda_coerced_complex(self):
        assert CAPUTO_HALF.lam == 1.0 + 0.0j


class TestDeriveParams:
    def test_caputo_half(self):
        params = derive_params(CAPUTO_HALF)
        assert params.gamma == pytest.approx(0.5)
        assert params.a == pytest.approx(0.5)
        assert params.b == (0.0,)

    def test_rl_half(self):
        params = derive_params(make_problem(0.5, 0.5, 0.0, 1))
        assert params.gamma == pytest.approx(0.5)
        assert params.a == pytest.approx(0.5)
        assert params.b[0] == pytest.approx(-0.5)

    def test_sweep_invariants(self):
        for problem in SWEEP:
            params = derive_params(problem)
            i = problem.orders.i
            assert i - 1 < params.gamma < i
            assert params.a > 0.0
            assert len(params.b) == i
            assert params.b[0] > -1.0
            for s in range(i - 1):
                assert params.b[s] < params.b[s + 1]
                assert params.b[s] != params.b[s + 1]
            for bs in params.b:
                assert problem.m + bs + 1.0 > 0.0

    @pytest.mark.parametrize("mu,beta,m", [(0.0, 1e-300, 0.0), (2.0**-54, 2.0**-54, 2.0**-54)])
    def test_inner_order_rounding_to_one_is_refused(self, mu, beta, m):
        # An admissible problem whose inner order (1-mu)(1-beta) rounds to
        # 1, so b_0 = -1 and m + b_0 + 1 = 0. Without the check its branch
        # is the triple (beta, ~1, ~-1/beta), whose series reads 0 after
        # 10,000 terms, unconverged, at every y.
        problem = make_problem(0.5, beta, mu, 1, m=m)
        assert problem.orders.inner_order == 1.0
        with pytest.raises(DomainError, match=r"m \+ b_s \+ 1 > 0 violated \(b_s=-1.0"):
            derive_params(problem)


class TestCoefficientSequence:
    def test_k_zero(self):
        assert coefficient_sequence(CAPUTO_HALF, 0, 0) == [1.0]

    def test_caputo_half_matches_mittag_leffler_coeffs(self):
        coeffs = coefficient_sequence(CAPUTO_HALF, 0, 10)
        for k, c in enumerate(coeffs):
            assert c == pytest.approx(1.0 / math.gamma(0.5 * k + 1.0), rel=1e-12)
        assert coeffs[1] == pytest.approx(1.1283791670955126, rel=1e-12)
        assert coeffs[2] == pytest.approx(1.0, rel=1e-12)

    def test_rl_half_first_coefficient(self):
        coeffs = coefficient_sequence(make_problem(0.5, 0.5, 0.0, 1), 0, 1)
        assert coeffs[1] == pytest.approx(1.7724538509055159, rel=1e-12)

    def test_branch_range_checked(self):
        with pytest.raises(ValueError, match="branch"):
            coefficient_sequence(CAPUTO_HALF, 1, 5)

    def test_positivity_across_sweep(self):
        for problem in SWEEP:
            for s in range(problem.orders.i):
                coeffs = coefficient_sequence(problem, s, 60)
                assert all(c >= 0.0 for c in coeffs)
                first_zero = next((k for k, c in enumerate(coeffs) if c == 0.0), None)
                if first_zero is not None:
                    # decayed below the double range; zeros must be terminal
                    assert first_zero > 20
                    assert all(c == 0.0 for c in coeffs[first_zero:])

    def test_termwise_match_with_kilbas_saigo(self):
        # The Kilbas-Saigo coefficients at the branch triple against the
        # paper's term balance in 30-digit arithmetic,
        # c_k = prod_{j=1..k} Gamma(aj+b_s-gamma+1) / Gamma(aj+b_s+1);
        # comparisons stop where coefficients leave the normal double range
        # (below that a relative bound is meaningless).
        mp = pytest.importorskip("mpmath").mp
        tiny = sys.float_info.min
        with mp.workdps(30):
            for problem in SWEEP:
                params = derive_params(problem)
                a, gamma = mp.mpf(params.a), mp.mpf(params.gamma)
                for s in range(problem.orders.i):
                    bs = mp.mpf(params.b[s])
                    sol = fundamental_solution(problem, s)
                    ks = kilbas_saigo_coefficients(sol.kilbas_saigo_params(), 61)
                    exact = mp.mpf(1)
                    for k, c_ks in enumerate(ks):
                        if k > 0:
                            exact *= mp.gamma(a * k + bs - gamma + 1) / mp.gamma(a * k + bs + 1)
                        if exact < tiny:
                            break
                        assert abs(c_ks - exact) <= 1e-12 * exact


class TestSeriesSolution:
    def test_lambda_zero_collapses_to_power(self):
        problem = make_problem(0.7, 0.4, 0.5, 1, m=0.5, lam=0.0)
        sol = fundamental_solution(problem, 0)
        ys = [0.2, 0.7, 1.0]
        for y, value in zip(ys, values(sol.evaluate(ys))):
            assert value == pytest.approx(y**sol.b, rel=1e-14)

    def test_caputo_half_erfc_values(self):
        sol = fundamental_solution(CAPUTO_HALF, 0)
        assert sol.evaluate([1.0])[0].value.real == pytest.approx(5.0089800, abs=1e-6)
        neg = fundamental_solution(make_problem(0.5, 0.5, 1.0, 1, lam=-1.0), 0)
        assert neg.evaluate([1.0])[0].value.real == pytest.approx(0.4275836, abs=1e-6)

    def test_vanishes_at_origin_for_positive_leading_exponent(self):
        problem = make_problem(1.5, 1.5, 1.0, 2)
        sol = fundamental_solution(problem, 1)  # b_1 = 1
        assert abs(sol.evaluate([1e-12])[0].value) < 1e-11

    def test_evaluate_requires_positive_y(self):
        sol = fundamental_solution(CAPUTO_HALF, 0)
        with pytest.raises(DomainError):
            sol.evaluate([0.0])
        with pytest.raises(DomainError):
            sol.evaluate([-0.5])

    @pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan])
    def test_non_finite_y_rejected_on_every_path(self, y):
        sol = fundamental_solution(make_problem(0.5, 0.5, 1.0, 1, lam=-1.0), 0)
        cauchy = cauchy_solution(make_problem(1.5, 1.25, 0.5, 2, m=0.5, lam=-2.0 + 1.0j), [1.0, 0.5])
        grid = np.array([0.5, y, 1.0])
        calls = [
            lambda: sol.evaluate_report(y),
            lambda: sol.evaluate_tail_report(y, 1),
            lambda: sol.evaluate(grid),
            lambda: sol.tail_grid_report(grid, 1),
            lambda: cauchy.evaluate_report(y),
            lambda: cauchy.evaluate(grid),
        ]
        for call in calls:
            with pytest.raises(DomainError, match=f"requires finite y > 0, got y={y}"):
                call()

    def test_grid_rejects_what_pointwise_rejects(self):
        sol = fundamental_solution(CAPUTO_HALF, 0)
        with pytest.raises(DomainError, match=r"y > 0, got y=0.0"):
            sol.evaluate(np.array([0.5, 0.0]))
        with pytest.raises(DomainError, match=r"y > 0, got y=-0.5"):
            sol.tail_grid_report(np.array([0.5, -0.5]), 1)

    @pytest.mark.parametrize("m", [0.0, 1.0], ids=["contour", "series"])
    def test_tail_refuses_the_origin_as_its_branch_does(self, m):
        # A branch is singular at y = 0 when b < 0; its tails share its
        # domain, y > 0, and its message.
        sol = fundamental_solution(make_problem(0.5, 0.5, 1.0, 1, m=m, lam=-1.0), 0)
        calls = [
            lambda: sol.evaluate([0.5, 0.0]),
            lambda: sol.tail_grid_report(np.array([0.5, 0.0]), 1),
            lambda: sol.evaluate_tail_report(0.0, 1),
        ]
        messages = []
        for call in calls:
            with pytest.raises(DomainError) as info:
                call()
            messages.append(str(info.value))
        assert messages == ["evaluation requires finite y > 0, got y=0.0"] * 3

    @pytest.mark.parametrize("tol", [0.0, 1.0, 5.0, math.nan])
    @pytest.mark.parametrize(
        "call",
        [
            lambda tol: fundamental_solution(CAPUTO_HALF, 0).evaluate([], tol),
            lambda tol: cauchy_solution(CAPUTO_HALF, [1.0]).evaluate([], tol),
            lambda tol: cauchy_solution(CAPUTO_HALF, [0.0]).evaluate([0.5, 1.0], tol),
            lambda tol: cauchy_solution(make_problem(1.5, 1.25, 0.5, 2, m=0.5), [0.0, 0.0]).evaluate(
                [1.0], tol),
        ],
        ids=["branch-empty", "cauchy-empty", "zero-phis", "zero-phis-i2"],
    )
    def test_bad_tol_refused_with_nothing_to_sum(self, call, tol):
        # A grid that sums nothing still checks tol, as tail_grid_report
        # does: an empty grid returned [], and all-zero phis a converged 0j.
        with pytest.raises(ValueError, match=r"^tol must lie in \(0, 1\), got "):
            call(tol)

    def test_grid_is_checked_before_tol(self):
        calls = [
            lambda: fundamental_solution(CAPUTO_HALF, 0).evaluate([0.0], 5.0),
            lambda: cauchy_solution(CAPUTO_HALF, [0.0]).evaluate([0.0], math.nan),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="requires finite y > 0"):
                call()

    @pytest.mark.parametrize("shape", [(), (2, 1)], ids=["0-d", "2-d"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda g: fundamental_solution(CAPUTO_HALF, 0).evaluate(g),
            lambda g: fundamental_solution(CAPUTO_HALF, 0).tail_grid_report(g, 1),
            lambda g: cauchy_solution(CAPUTO_HALF, [1.0]).evaluate(g),
        ],
        ids=["branch", "tail", "cauchy"],
    )
    def test_grid_must_be_one_dimensional(self, call, shape):
        # A 0-d or 2-d grid raised IndexError, TypeError or a broadcast error.
        grid = np.full(shape, 0.5)
        with pytest.raises(ValueError, match=rf"1-d grid of y, got shape {re.escape(str(shape))}"):
            call(grid)

    def test_negative_series_start_rejected(self):
        # A negative start has no shifted triple (alpha, m, l + m*start).
        sol = fundamental_solution(make_problem(0.5, 0.5, 1.0, 1, lam=-1.0), 0)
        with pytest.raises(ValueError, match="start must be >= 0"):
            sol.evaluate_tail_report(0.5, -1)
        with pytest.raises(ValueError, match="start must be >= 0"):
            sol.tail_grid_report(np.array([0.5]), -1)
        with pytest.raises(ValueError, match="^k_start must be >= 0"):
            sol.evaluate_tail_report(1.0, -1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda sol: sol.tail_grid_report(np.array([0.5]), 1.5),
            lambda sol: sol.tail_grid_report(np.array([1.0]), 2.0),
            lambda sol: sol.evaluate_tail_report(0.5, 1.5),
            lambda sol: sol.coefficient(1.5),
        ],
        ids=["tail", "tail-integral-float", "tail-report", "coefficient"],
    )
    def test_non_integer_series_start_rejected(self, call):
        # A float index used to reach the coefficient cache, which raised
        # TypeError, or passed where only its sign was checked.
        sol = fundamental_solution(make_problem(0.5, 0.5, 1.0, 1, lam=-1.0), 0)
        with pytest.raises(ValueError, match=r"^k(_start)? must be an integer, got k(_start)?="):
            call(sol)

    def test_matches_kilbas_saigo_mapping(self):
        tol = 1e-12
        for problem in [
            CAPUTO_HALF,
            make_problem(0.5, 0.5, 0.0, 1, m=1.0, lam=-1.0),
            make_problem(0.8, 0.3, 0.4, 1, m=0.5, lam=0.5 + 0.5j),
            make_problem(1.5, 1.25, 0.7, 2, m=0.5, lam=2.0),
        ]:
            for s in range(problem.orders.i):
                sol = fundamental_solution(problem, s)
                ks_params = sol.kilbas_saigo_params()
                ys = [0.1, 0.5, 1.0]
                for y, got in zip(ys, values(sol.evaluate(ys, tol=tol))):
                    z = problem.lam * y**sol.a
                    expected = y**sol.b * kilbas_saigo(ks_params, z, tol=tol).value
                    assert abs(got - expected) <= 10.0 * tol * max(1.0, abs(expected))

    def test_homogeneity(self):
        # the series depends on (lambda, y) only through y^b * f(lambda y^a)
        problem = make_problem(0.6, 0.4, 0.3, 1, m=0.5, lam=0.8 + 0.3j)
        sol = fundamental_solution(problem, 0)
        c = 1.7
        scaled_problem = make_problem(0.6, 0.4, 0.3, 1, m=0.5, lam=(0.8 + 0.3j) / c**sol.a)
        scaled = fundamental_solution(scaled_problem, 0)
        ys = np.array([0.2, 0.4])
        for lhs, value in zip(values(scaled.evaluate(c * ys)), values(sol.evaluate(ys))):
            rhs = c**sol.b * value
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_lazy_extension(self):
        sol = fundamental_solution(CAPUTO_HALF, 0)
        value = sol.coefficient(40)
        assert value == pytest.approx(1.0 / math.gamma(21.0), rel=1e-11)

    def test_coefficient_is_the_coefficient_list_entry(self):
        sol = fundamental_solution(make_problem(1.5, 1.25, 0.5, 2, m=0.5, lam=-2.0 + 1.0j), 0)
        coeffs = kilbas_saigo_coefficients(sol.kilbas_saigo_params(), 201)
        assert [sol.coefficient(k) for k in range(201)] == coeffs  # bit for bit

    def test_grid_evaluation_matches_pointwise(self):
        problem = make_problem(0.8, 0.6, 0.4, 1, m=0.5, lam=-1.0 + 0.5j)
        sol = fundamental_solution(problem, 0)
        ys = np.linspace(0.05, 1.0, 17)
        assert_matches_pointwise(sol.evaluate(ys), [sol.evaluate_report(float(y)) for y in ys])

    def test_tail_grid_report_matches_pointwise(self):
        problem = make_problem(1.5, 1.25, 0.5, 2, m=0.5, lam=-2.0 + 1.0j)
        for s, k_start in [(0, 1), (1, 0), (1, 3)]:
            sol = fundamental_solution(problem, s)
            ys = np.linspace(0.0, 2.0, 1025)[1:]
            grid = sol.tail_grid_report(ys, k_start)
            points = [sol.evaluate_tail_report(float(y), k_start) for y in ys]
            assert_matches_pointwise(grid, points)

    @pytest.mark.parametrize("n", [513, 1025, 1500])
    def test_tail_grid_report_across_slices(self, n):
        # The grid driver sums 512-point chunks; these grids end mid-chunk.
        problem = make_problem(1.5, 1.25, 0.5, 2, m=0.5, lam=-2.0 + 1.0j)
        sol = fundamental_solution(problem, 0)
        ys = np.linspace(0.0, 2.0, n + 1)[1:]
        grid = sol.tail_grid_report(ys, 2)
        assert_matches_pointwise(grid, [sol.evaluate_tail_report(float(y), 2) for y in ys])

    @pytest.mark.parametrize("lam", [-2.0 + 1.0j, -2.0, 1.0, 0.0])
    def test_tail_matches_the_scalar_engine(self, lam):
        # A tail is summed on the power grid lambda*y^a with one phase per
        # term; the scalar engine at each z = lambda*y^a, times the factor
        # y^(a k + b) lambda^k, is its reference.
        problem = make_problem(1.5, 1.25, 0.5, 2, m=0.5, lam=lam)
        ys = np.concatenate([[1e-9, 1e-6, 3e-4, 9e-4], np.linspace(1e-3, 2.0, 257)])
        for s in range(2):
            sol = fundamental_solution(problem, s)
            for k_start in (1, 2, 3):
                grid = sol.tail_grid_report(ys, k_start)
                for j, y in enumerate(ys.tolist()):
                    ref = _sum_series(_triple(*sol._tail_params(k_start)).grow, sol.lam * y**sol.a)
                    coef = sol.coefficient(k_start)
                    want = y ** (sol.a * k_start + sol.b) * sol.lam**k_start * (coef * ref.value)
                    assert abs(grid.value[j] - want) <= 1e-14 * abs(want), (s, k_start, y)
                    assert grid.terms_used[j] == ref.terms_used, (s, k_start, y)
                if isinstance(lam, float):
                    assert (grid.value.imag == 0.0).all()

    def test_tail_evaluation(self):
        problem = make_problem(0.5, 0.5, 0.0, 1, lam=2.0)
        sol = fundamental_solution(problem, 0)
        y = 0.65
        full = sol.evaluate([y])[0].value
        head = sum(
            sol.coefficient(k) * problem.lam**k * y ** (sol.a * k + sol.b)
            for k in range(3)
        )
        (tail,) = sol.tail_grid_report([y], 3).value
        assert abs((head + tail) - full) <= 1e-12 * abs(full)


# E_{1/2}(-50 sqrt y) = exp(2500 y) erfc(50 sqrt y): an m = 0 problem, so its
# branch is the m = 1 triple (0.5, 1, 0), whose series cancels on the negative
# axis. Summed, it read 5.5e93 (converged) at y = 0.1 and about +-7e307
# (unconverged) at y = 0.5 and 1.
LAMBDA_MINUS_50 = make_problem(0.5, 0.5, 1.0, 1, lam=-50.0)
# The same at m = 1: its branch is the triple (0.5, 3, 2), a series branch,
# whose series cancels and overflows on the negative axis too.
SERIES_MINUS_50 = make_problem(0.5, 0.5, 1.0, 1, m=1.0, lam=-50.0)


class TestContourBranch:
    """A whole branch is kilbas_saigo at its triple, contour rule included.
    A contour branch's tail is its printed value minus its head; a series
    branch's tail is the grid driver at the shifted triple."""

    def test_branch_takes_the_contour_rule(self):
        mp = pytest.importorskip("mpmath").mp
        sol = fundamental_solution(LAMBDA_MINUS_50, 0)
        ys = [0.1, 0.5, 1.0]
        points = [sol.evaluate_report(y) for y in ys]
        assert_matches_pointwise(sol.evaluate(np.array(ys)), points)
        for y, report in zip(ys, points):
            ks = kilbas_saigo(sol.kilbas_saigo_params(), sol.lam * y**sol.a)
            assert report.path == ks.path == "contour"
            assert report.converged
            assert report.value == y**sol.b * ks.value
            with mp.workdps(30):
                exact = float(mp.exp(2500 * mp.mpf(y)) * mp.erfc(50 * mp.sqrt(y)))
            assert abs(report.value - exact) <= 1e-12 * max(1.0, exact), y

    def test_branch_is_kilbas_saigo_at_its_triple(self):
        # Every field, bit for bit, on every route: y^b kilbas_saigo(lambda
        # y^a), a power past the double range inf and a value that is not
        # finite unconverged. The cases take the contour rule on the
        # negative axis and at a complex lambda, its series fallback below
        # the rule's rounding floor (tol 1e-15, where many rows are also
        # unconverged), series branches, and y up to 1e300, where y^a
        # overflows and, at b = 2, y^b too.
        def power(y, p):
            try:
                return y**p
            except OverflowError:
                return math.inf

        ys = np.linspace(0.01, 2.0, 100).tolist()
        huge = np.geomspace(1e-3, 1e300, 40).tolist()
        i2 = make_problem(1.5, 1.25, 0.5, 2, m=0.5, lam=-2.0 + 1.0j)
        cases = [
            (LAMBDA_MINUS_50, ys, 1e-12),
            (i2, ys, 1e-12),
            (make_problem(0.5, 0.5, 1.0, 1, lam=-2.0 + 3.0j), np.linspace(0.01, 4.0, 100).tolist(), 1e-12),
            (LAMBDA_MINUS_50, np.linspace(0.01, 2.0, 103).tolist(), 1e-15),
            (LAMBDA_MINUS_50, huge, 1e-12),
            (i2, huge, 1e-12),
            (make_problem(2.5, 2.5, 1.0, 3, lam=-1.0), huge, 1e-12),
        ]
        routes = set()
        for problem, grid, tol in cases:
            for s in range(problem.orders.i):
                sol = fundamental_solution(problem, s)
                params = sol.kilbas_saigo_params()
                points = []
                for y in grid:
                    ks = kilbas_saigo(params, sol.lam * power(y, sol.a), tol)
                    value = power(y, sol.b) * sol.lam**0 * ks.value
                    points.append(ks._replace(value=value,
                                              converged=ks.converged and cmath.isfinite(value)))
                    routes.update(name for name, taken in [
                        ("contour", ks.path == "contour"),
                        ("fallback", ks.path == "series" and _triple(*params).contour is not None),
                        ("unconverged", not ks.converged),
                        ("y^a overflows", power(y, sol.a) == math.inf),
                        ("y^b overflows", power(y, sol.b) == math.inf)] if taken)
                assert_matches_pointwise(sol.evaluate(grid, tol), points)
        assert len(routes) == 5

    def test_overflowing_tail_points_take_the_scalar_engine(self):
        # On a series branch, a point whose terms pass exp(700) is summed by
        # the scalar engine at z = lambda*y^a and keeps its report, field for
        # field; no RuntimeWarning escapes the grid or the factor applied
        # after it. The tail from 2 (verify's) sums the coefficients of the
        # shifted triple.
        sol = fundamental_solution(SERIES_MINUS_50, 0)
        p = sol.kilbas_saigo_params()
        assert _triple(*p).contour is None
        shifted = KilbasSaigoParams(p.alpha, p.m, p.l + p.m * 2)
        ys = np.linspace(0.0, 2.0, 257)[1:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = _sum_series_grid(_triple(*shifted).grow, _PowerGrid(sol.lam, sol.a, ys))
            tail = sol.tail_grid_report(ys, 2)
        overflowed = np.flatnonzero(grid.last_term_magnitude == math.inf)
        assert overflowed.size > 100
        for j in overflowed.tolist():
            ref = kilbas_saigo(shifted, sol.lam * float(ys[j]) ** sol.a)
            got = (grid.value[j], grid.terms_used[j], grid.last_term_magnitude[j], grid.converged[j])
            assert got == ref[:4]
            assert (tail.terms_used[j], tail.converged[j]) == (ref.terms_used, False)

    def test_tail_is_the_printed_value_minus_its_head(self):
        # Tail plus head is evaluate to rounding, on the contour rule at
        # every K.
        sol = fundamental_solution(LAMBDA_MINUS_50, 0)
        ys = np.linspace(0.0, 0.01, 65)[1:]
        printed = sol.evaluate(ys)
        for k_start in (0, 1, 3):
            grid = sol.tail_grid_report(ys, k_start)
            points = [sol.evaluate_tail_report(float(y), k_start) for y in ys]
            assert_matches_pointwise(grid, points)
            assert grid.path.tolist() == ["contour"] * 64
            for y, tail, report in zip(ys.tolist(), grid.value.tolist(), printed):
                head = [sol.coefficient(k) * sol.lam**k * y ** (sol.a * k + sol.b)
                        for k in range(k_start)]
                size = abs(report.value) + sum(map(abs, head))
                assert abs(tail + sum(head) - report.value) <= 4 * sys.float_info.epsilon * size, y

    def test_cauchy_value_carries_the_branch_path(self):
        sol = cauchy_solution(LAMBDA_MINUS_50, [1.0])
        ys = [0.1, 0.5, 1.0]
        points = [sol.evaluate_report(y) for y in ys]
        assert_matches_pointwise(sol.evaluate(np.array(ys)), points)
        assert [r.path for r in points] == ["contour"] * 3
        assert [r.path for r in sol.evaluate(np.array([0.1]))] == ["contour"]

    def test_cauchy_path_of_differing_branches(self):
        # One rule per point: the path every branch with a nonzero weight
        # took, "mixed" where they differ, "series" with no such branch.
        # The branches come from two problems so that one takes the
        # contour (m = 0) and one the series (m = 0.5, branch m = 2).
        contour = fundamental_solution(LAMBDA_MINUS_50, 0)
        series = fundamental_solution(make_problem(0.5, 0.5, 1.0, 1, m=0.5, lam=-50.0), 0)
        ys = np.array([0.1, 0.5])
        for weights, path in [
            ((1.0, 1.0), "mixed"),
            ((1.0, 0.0), "contour"),
            ((0.0, 1.0), "series"),
            ((0.0, 0.0), "series"),
        ]:
            sol = CauchySolution(LAMBDA_MINUS_50, weights, (contour, series), weights)
            points = [sol.evaluate_report(float(y)) for y in ys]
            assert_matches_pointwise(sol.evaluate(ys), points)
            assert [r.path for r in points] == [path] * 2


def _mp_tail(mp, sol, k_start, y):
    """sum_{k >= k_start} c_k lambda^k y^(ak+b) at 30 digits, the c_k from
    their Gamma products at the branch's double triple."""
    p = sol.kilbas_saigo_params()
    with mp.workdps(30):
        alpha, m, l, y = (mp.mpf(v) for v in (p.alpha, p.m, p.l, y))
        z, c, total, k = mp.mpc(sol.lam) * y ** mp.mpf(sol.a), mp.mpf(1), mp.mpc(0), 0
        while k < k_start + 5 or abs(term) > mp.mpf(10) ** -30 * abs(total):
            if k >= k_start:
                term = c * z**k
                total += term
            c *= mp.gamma(alpha * (k * m + l) + 1) / mp.gamma(alpha * (k * m + l + 1) + 1)
            k += 1
        return complex(total * y ** mp.mpf(sol.b))


class TestShiftedTail:
    """A tail from K is c_K lambda^K y^(aK+b) times the Kilbas-Saigo function
    of the shifted triple (alpha, m, l + mK), whose series starts at 1, so the
    stopping rule is relative to the tail however small c_K is."""

    @pytest.mark.parametrize(
        "problem,k_start,ys",
        [
            (make_problem(1.5, 1.25, 0.5, 2, m=0.5, lam=-2.0 + 1.0j), 10, [0.25, 1.0, 2.0]),
            (make_problem(2.5, 2.3, 0.4, 3, m=0.5, lam=-1.5), 6, [2.0]),
        ],
        ids=["i2-K10", "i3-K6"],
    )
    def test_small_leading_coefficient(self, problem, k_start, ys):
        # Stopped on terms scaled by c_K, these tails ended after 3 terms,
        # marked converged, 1.4e-8 to 1.7e-3 off.
        mp = pytest.importorskip("mpmath").mp
        sol = fundamental_solution(problem, 0)
        report = sol.tail_grid_report(np.array(ys), k_start)
        assert report.converged.all()
        for y, value in zip(ys, report.value.tolist()):
            want = _mp_tail(mp, sol, k_start, y)
            assert abs(value - want) <= 1e-12 * abs(want), y

    def test_riemann_liouville_tail_takes_the_contour(self):
        # The branch of (0.5, 0.5, mu=0, i=1, m=0) is the triple (0.5, 1, -1);
        # its tail from 1 is the triple (0.5, 1, 0) at -50 sqrt y, whose
        # series cancels: summed, it read -4.85e95 at y = 0.1, marked
        # converged. (E - 1) y^b is -50 sqrt(pi) exp(2500 y) erfc(50 sqrt y).
        mp = pytest.importorskip("mpmath").mp
        sol = fundamental_solution(make_problem(0.5, 0.5, 0.0, 1, lam=-50.0), 0)
        ys = [0.01, 0.1, 0.25]
        report = sol.tail_grid_report(np.array(ys), 1)
        assert report.path.tolist() == ["contour"] * 3
        assert report.converged.all()
        for y, value in zip(ys, report.value.tolist()):
            with mp.workdps(30):
                root = mp.sqrt(mp.mpf(y))
                want = float(-50 * mp.sqrt(mp.pi) * mp.exp(2500 * root**2) * mp.erfc(50 * root))
            assert abs(value - want) <= 1e-12 * abs(want), y


class TestOverflowingPower:
    """A grid point where lambda y^a or y^(aK+b) passes the double range is
    reported unconverged, without an exception or a warning, and leaves the
    other points' bits as they are; so is one whose value does."""

    PROBLEM = make_problem(1.5, 1.25, 0.5, 2, m=0.5, lam=-1.0)  # a = 1.875

    @staticmethod
    def _check(evaluate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = _reports(evaluate(np.array([1.0, 1e200, 2.0])))
        clean = _reports(evaluate(np.array([1.0, 2.0])))
        assert [r.converged for r in report] == [True, False, True]
        assert_matches_pointwise(report[::2], clean)

    def test_grid_report(self):
        self._check(fundamental_solution(self.PROBLEM, 0).evaluate)

    @pytest.mark.parametrize("k_start", [0, 1, 3])
    def test_tail_grid_report(self, k_start):
        sol = fundamental_solution(self.PROBLEM, 1)
        self._check(lambda ys: sol.tail_grid_report(ys, k_start))

    def test_cauchy_grid_report(self):
        self._check(cauchy_solution(self.PROBLEM, [1.0, 0.5]).evaluate)

    def test_branch_value_past_the_double_range(self):
        # At y = 4 kilbas_saigo is finite and converged, and y**b = 4
        # carries the branch past the double range: it read inf, converged.
        sol = fundamental_solution(make_problem(1.5, 1.5, 1.0, 2, lam=2395.0), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inner = kilbas_saigo(sol.kilbas_saigo_params(), sol.lam * 4.0**sol.a)
            report = sol.evaluate([1.0, 4.0])
        assert inner.converged and math.isfinite(inner.value.real) and sol.b == 1.0
        assert [r.converged for r in report] == [True, False]
        assert report[1].value == math.inf

    def test_cauchy_value_past_the_double_range(self):
        # Its one branch is finite and converged at y = 1, and the weight
        # 1e10 carries the sum past the double range: it read inf, converged.
        sol = cauchy_solution(make_problem(0.5, 0.5, 1.0, 1, lam=26.5), [1e10])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            branch = sol.branches[0].evaluate([0.5, 1.0])
            report = sol.evaluate([0.5, 1.0])
        assert all(r.converged and math.isfinite(r.value.real) for r in branch)
        assert [r.converged for r in report] == [True, False]
        assert report[1].value == math.inf

    @pytest.mark.parametrize(
        "magnitudes,last",
        [((math.nan, math.nan), math.nan), ((0.5, math.nan), math.nan), ((math.nan, 0.5), math.nan),
         ((math.inf, 0.5), math.inf), ((0.5, math.inf), math.inf), ((math.inf, math.nan), math.nan),
         ((0.5, 0.5), 1.0)],
    )
    def test_cauchy_magnitude_keeps_nan_and_inf(self, magnitudes, last):
        # A nan from any weighted branch makes the combined magnitude nan,
        # whatever its order (max(0.0, nan) is 0.0); an inf stays inf.
        class Branch:
            def __init__(self, magnitude):
                self.magnitude = magnitude

            def _evaluate(self, ys, tol):
                return [(1.0 + 0j, 3, self.magnitude, False, "series")]

        sol = CauchySolution(self.PROBLEM, (1.0, 1.0), tuple(map(Branch, magnitudes)), (1.0, 2.0))
        report = sol.evaluate([1.0])[0]
        assert not report.converged
        assert repr(report.last_term_magnitude) == repr(last)

    def test_cauchy_magnitude_past_the_double_range_is_nan(self):
        # Both branches report nan at y = 1e200; the combined report read
        # 0.0 next to converged=False.
        sol = cauchy_solution(self.PROBLEM, [1.0, 0.5])
        branches = [branch.evaluate([1e200])[0] for branch in sol.branches]
        report = sol.evaluate([1e200])[0]
        assert all(math.isnan(r.last_term_magnitude) for r in branches)
        assert math.isnan(report.last_term_magnitude) and not report.converged


class TestCauchySolution:
    def test_all_zero_data(self):
        sol = cauchy_solution(make_problem(1.5, 1.3, 0.5, 2, m=1.0), [0.0, 0.0])
        for value in values(sol.evaluate([0.1, 1.0])):
            assert value == 0.0

    def test_single_branch_caputo(self):
        sol = cauchy_solution(CAPUTO_HALF, [1.0])
        ys = [0.25, 1.0]
        for y, value in zip(ys, values(sol.evaluate(ys))):
            expected = math.exp(y) * math.erfc(-math.sqrt(y))  # E_{1/2}(sqrt y)
            assert abs(value - expected) <= 1e-10 * abs(expected)

    def test_second_branch_leading_exponent(self):
        problem = make_problem(1.5, 1.25, 0.4, 2, m=0.5)
        params = derive_params(problem)
        sol = cauchy_solution(problem, [0.0, 1.0])
        y = 1e-9
        # only the s = 1 branch is active, so u ~ (phi_1/1!) y^{b_1}
        assert abs(sol.evaluate([y])[0].value) == pytest.approx(y ** params.b[1], rel=1e-3)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="phis"):
            cauchy_solution(CAPUTO_HALF, [1.0, 2.0])

    @pytest.mark.parametrize(
        "phi", [math.nan, math.inf, complex(1.0, -math.inf)], ids=["nan", "inf", "imag-inf"]
    )
    def test_non_finite_data_rejected(self, phi):
        with pytest.raises(ValueError, match="phis must be finite"):
            cauchy_solution(CAPUTO_HALF, [phi])

    def test_grid_report_matches_pointwise(self):
        problem = make_problem(1.5, 1.25, 0.5, 2, m=0.5, lam=-2.0 + 1.0j)
        sol = cauchy_solution(problem, [1.0, 0.5])
        ys = np.linspace(2.0 / 700, 2.0, 700)
        grid = sol.evaluate(ys)
        points = [sol.evaluate_report(float(y)) for y in ys]
        assert_matches_pointwise(grid, points)

    @pytest.mark.parametrize("n", [513, 1025, 1500])
    def test_grid_report_across_slices(self, n):
        problem = make_problem(1.5, 1.25, 0.5, 2, m=0.5, lam=-2.0 + 1.0j)
        sol = cauchy_solution(problem, [1.0, 0.5])
        ys = np.linspace(2.0 / n, 2.0, n)
        assert_matches_pointwise(sol.evaluate(ys), [sol.evaluate_report(float(y)) for y in ys])

    def test_is_the_weighted_sum_of_kilbas_saigo_branches(self):
        problem = make_problem(1.5, 1.25, 0.5, 2, m=0.5, lam=-2.0 + 1.0j)
        sol = cauchy_solution(problem, [1.0, 0.5])
        ys = np.linspace(2.0 / 64, 2.0, 64)
        grid = sol.evaluate(ys)
        for j, y in enumerate(ys.tolist()):
            total, terms = 0j, 0
            for w, branch in zip(sol.weights, sol.branches):
                ks = kilbas_saigo(branch.kilbas_saigo_params(), branch.lam * y**branch.a)
                total += w * (y**branch.b * branch.lam**0 * ks.value)
                terms += ks.terms_used
            assert (grid[j].value, grid[j].terms_used) == (total, terms)

    def test_weights_include_factorial(self):
        problem = make_problem(2.5, 2.5, 1.0, 3, m=0.0)
        sol = cauchy_solution(problem, [1.0, 1.0, 1.0])
        assert sol.weights == (1.0, 1.0, 0.5)

    def test_initial_conditions_across_the_sweep(self):
        # The check folds every falling product it differentiates with into
        # its term ratios as fp_k/fp_{k-1}, so a zero fp_k would raise
        # ZeroDivisionError at the next ratio; i = 6 and 9 add
        # derivatives of order up to 8, and lambda = -2+i phases.
        wide = [make_problem(i - da, i - db, 0.4, i, m=m, lam=-2.0 + 1.0j)
                for i in (6, 9) for da, db in ((0.5, 0.75), (0.1, 0.9), (0.3, 0.7))
                for m in (0.0, 0.5, 2.0)]
        for problem in SWEEP + wide:
            i = problem.orders.i
            errors = initial_condition_check(problem, [float(j + 1) for j in range(i)])
            assert len(errors) == i and all(e <= 1e-6 for e in errors), problem

    def test_grid_evaluation_matches_pointwise(self):
        problem = make_problem(1.5, 1.5, 0.5, 2, m=0.0, lam=1.0 - 0.5j)
        sol = cauchy_solution(problem, [2.0, 3.0])
        ys = np.linspace(0.1, 1.0, 7)
        assert_matches_pointwise(sol.evaluate(ys), [sol.evaluate_report(float(y)) for y in ys])


def hilfer_reduction_params(problem):
    """Kilbas-Saigo triples per branch in the alpha = beta case, where the
    operator is the classical Hilfer derivative:
    (alpha, m/alpha + 1, (m + s - (1-mu)*(i-alpha))/alpha)."""
    alpha, _, mu, i = problem.orders
    m = problem.m
    return [KilbasSaigoParams(alpha, m / alpha + 1.0, (m + s - (1.0 - mu) * (i - alpha)) / alpha)
            for s in range(i)]


class TestHilferReduction:
    def test_caputo_case(self):
        params = hilfer_reduction_params(CAPUTO_HALF)
        assert len(params) == 1
        assert params[0].alpha == pytest.approx(0.5)
        assert params[0].m == pytest.approx(1.0)
        assert params[0].l == pytest.approx(0.0, abs=1e-15)

    def test_rl_case(self):
        params = hilfer_reduction_params(make_problem(0.5, 0.5, 0.0, 1))
        # l = -1 is admissible here: alpha*l = -0.5 stays above -1
        assert params[0].l == pytest.approx(-1.0, abs=1e-15)
        assert params[0].m == pytest.approx(1.0)

    def test_agrees_with_generic_mapping(self):
        for alpha in (0.3, 0.5, 0.9, 1.5, 2.2):
            i = math.ceil(alpha) if alpha != math.ceil(alpha) else int(alpha) + 1
            for mu in (0.0, 0.3, 0.7, 1.0):
                for m in (0.0, 0.5, 2.0):
                    problem = make_problem(alpha, alpha, mu, i, m=m)
                    reduced = hilfer_reduction_params(problem)
                    for s, ks in enumerate(reduced):
                        sol = fundamental_solution(problem, s)
                        generic = sol.kilbas_saigo_params()
                        assert abs(ks.alpha - generic.alpha) <= 1e-14 * max(1, abs(generic.alpha))
                        assert abs(ks.m - generic.m) <= 1e-14 * max(1, abs(generic.m))
                        assert abs(ks.l - generic.l) <= 1e-14 * max(1, abs(generic.l))


class TestClosedFormClosure:
    def test_rl_fundamental_solution_parameter_identity(self):
        # mu = 0, i = 1: u_0 = y^(beta-1) E_{beta, 1+m/beta, 1+(m-1)/beta}(lambda y^(m+beta))
        for beta in (0.3, 0.5, 0.8):
            for m in (0.0, 0.5, 2.0):
                problem = make_problem(beta, beta, 0.0, 1, m=m, lam=1.0)
                sol = fundamental_solution(problem, 0)
                ks = sol.kilbas_saigo_params()
                assert abs(ks.alpha - beta) <= 1e-14
                assert abs(ks.m - (1.0 + m / beta)) <= 1e-14 * (1.0 + m / beta)
                assert abs(ks.l - (1.0 + (m - 1.0) / beta)) <= 1e-14 * max(
                    1.0, abs(1.0 + (m - 1.0) / beta)
                )
                assert sol.b == pytest.approx(beta - 1.0)

    def test_caputo_cross_oracle(self):
        # mu=1, alpha=beta, m=0: u_0(y) = E_alpha(lambda y^alpha)
        for alpha, lam in [(0.5, 1.0), (0.5, -1.0), (0.8, 0.7 - 0.2j), (0.3, 4.0)]:
            problem = make_problem(alpha, alpha, 1.0, 1, lam=lam)
            sol = fundamental_solution(problem, 0)
            ys = np.linspace(0.05, 1.0, 9)
            report = sol.evaluate(ys)
            assert all(r.converged for r in report)
            for y, value in zip(ys, values(report)):
                expected = mittag_leffler(alpha, 1.0, lam * y**alpha)
                assert abs(value - expected) <= 1e-10 * max(
                    1.0, abs(expected)
                )
