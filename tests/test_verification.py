"""Tests for the verification checks themselves."""

import math
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bihilfer import (
    DegenerateProblem,
    DomainError,
    KilbasSaigoParams,
    OrderTriple,
    SampledFunction,
    SeriesSolution,
    coefficient_sequence,
    falling_product,
    fundamental_solution,
    hilfer_monomial,
    hilfer_numeric,
    initial_condition_check,
    kilbas_saigo_coefficients,
    residual_coefficient_identity,
    residual_numeric,
)
from bihilfer import special_functions
from bihilfer.cli import RESIDUAL_THRESHOLD
from bihilfer.special_functions import _sum_series, _triple
from bihilfer.verification import _derivative_series, residual_min_points
from test_special_functions import mittag_leffler


def make_problem(alpha, beta, mu, i, m=0.0, lam=1.0):
    return DegenerateProblem(orders=OrderTriple(alpha, beta, mu, i), m=m, lam=lam)


CAPUTO_HALF = make_problem(0.5, 0.5, 1.0, 1)
WINDOW_3 = make_problem(2.5, 2.3, 0.4, 3, m=0.5, lam=-1.5)
WINDOW_4 = make_problem(3.5, 3.25, 0.5, 4, m=0.5, lam=-2.0 + 1.0j)


@contextmanager
def perturbed_ratio(problem, s, k, corrupt):
    """Branch s's cached ratio c_k/c_{k-1} replaced by corrupt(ratio) inside
    the block: the list the series engine sums and the coefficient readers
    multiply out."""
    params = fundamental_solution(problem, s).kilbas_saigo_params()
    ratios = _triple(*params).grow(k + 1)
    saved = ratios[k]
    ratios[k] = corrupt(saved)
    try:
        yield
    finally:
        ratios[k] = saved


def identity_on_perturbed_cache(problem, s):
    # A corrupted cache does not take a branch outside 0..i-1 past the
    # range check.
    with perturbed_ratio(problem, 1, 5, lambda r: -r):
        return residual_coefficient_identity(problem, s, 10)


class TestCoefficientIdentity:
    def test_caputo_half(self):
        assert residual_coefficient_identity(CAPUTO_HALF, 0, 200) <= 1e-12

    def test_small_sweep(self):
        for problem in [
            make_problem(0.6, 0.4, 0.3, 1, m=0.5, lam=2.0),
            make_problem(1.1, 1.9, 0.0, 2, m=0.0, lam=-1.0),
            make_problem(2.5, 2.1, 0.7, 3, m=1.0, lam=0.5 + 0.5j),
        ]:
            for s in range(problem.orders.i):
                assert residual_coefficient_identity(problem, s, 100) <= 1e-12

    def test_lambda_zero_vacuous(self):
        problem = make_problem(0.5, 0.5, 1.0, 1, lam=0.0)
        params = fundamental_solution(problem, 0).kilbas_saigo_params()
        _triple.cache_clear()
        assert residual_coefficient_identity(problem, 0, 10) == 0.0
        assert residual_coefficient_identity(problem, 0, 10**7) == 0.0
        assert len(_triple(*params).ratios) == 1  # no coefficient was read

    def test_large_K_reads_up_to_the_first_subnormal_coefficient(self):
        # c_k = 1/Gamma(k/2 + 1) is subnormal from k = 341 on, where the
        # check stops: K = 10**7 fills no longer a list than K = 400.
        params = fundamental_solution(CAPUTO_HALF, 0).kilbas_saigo_params()
        _triple.cache_clear()
        assert residual_coefficient_identity(CAPUTO_HALF, 0, 10**7) <= 1e-12
        filled = len(_triple(*params).ratios)
        _triple.cache_clear()
        assert residual_coefficient_identity(CAPUTO_HALF, 0, 400) <= 1e-12
        assert len(_triple(*params).ratios) == filled < 400

    def test_kernel_monomial_maps_to_exact_zero(self):
        problem = make_problem(1.5, 1.25, 0.4, 2, m=0.5)
        for s in range(2):
            bs = s - problem.orders.inner_order
            assert hilfer_monomial(problem.orders, bs).coef == 0.0

    def test_corruption_detected(self):
        # c_5 alone times 1 + 1e-6: ratio 5 up and ratio 6 down by that factor.
        with perturbed_ratio(CAPUTO_HALF, 0, 5, lambda r: r * (1.0 + 1e-6)):
            with perturbed_ratio(CAPUTO_HALF, 0, 6, lambda r: r / (1.0 + 1e-6)):
                err = residual_coefficient_identity(CAPUTO_HALF, 0, 100)
        assert err > 1e-8

    @pytest.mark.parametrize(
        "k,corrupt",
        [(1, lambda c: -c), (3, lambda c: -c), (2, lambda c: math.nan)],
        ids=["negated-c1", "negated-c3", "nan-c2"],
    )
    def test_bad_coefficient_fails(self, k, corrupt):
        # A negative or nan coefficient is no subnormal one: the check must
        # not stop at it, and a nan error must not be dropped by max.
        with perturbed_ratio(CAPUTO_HALF, 0, k, corrupt):
            err = residual_coefficient_identity(CAPUTO_HALF, 0, 100)
        assert not err <= 1e-12

    def test_perturbed_cached_log_detected(self):
        # ln c_5 and every later ln c_k up by 1e-6, through ratio 5.
        with perturbed_ratio(CAPUTO_HALF, 0, 5, lambda r: r * math.exp(1e-6)):
            err = residual_coefficient_identity(CAPUTO_HALF, 0, 100)
        assert err > 1e-8

    def test_reads_the_ratios_the_tables_sum(self):
        # A ratio 1e-6 off moves a table value at z = -2+i by 1e-8 relative,
        # and the identity must see it: it read 5.6e-14, a pass, while it
        # checked a running sum of ln c_k that no table sums.
        problem = make_problem(1.5, 1.25, 0.5, 2, m=0.5, lam=-2.0 + 1.0j)
        params = fundamental_solution(problem, 0).kilbas_saigo_params()
        z = -2.0 + 1.0j
        clean = special_functions.kilbas_saigo(params, z).value
        with perturbed_ratio(problem, 0, 5, lambda r: r * (1.0 + 1e-6)):
            moved = special_functions.kilbas_saigo(params, z).value
            err = residual_coefficient_identity(problem, 0, 100)
        assert abs(moved - clean) > 1e-9 * abs(clean)
        assert err > 1e-8

    def test_needs_at_least_one_term(self):
        with pytest.raises(ValueError):
            residual_coefficient_identity(CAPUTO_HALF, 0, 0)

    @pytest.mark.parametrize("count", [2.5, 2.0])
    @pytest.mark.parametrize(
        "name,minimum,call",
        [
            ("count", 1, lambda n: kilbas_saigo_coefficients(KilbasSaigoParams(0.5, 1.0, 0.0), n)),
            ("K", 0, lambda n: coefficient_sequence(CAPUTO_HALF, 0, n)),
            ("K", 1, lambda n: residual_coefficient_identity(CAPUTO_HALF, 0, n)),
        ],
        ids=["coefficients", "sequence", "identity"],
    )
    def test_count_must_be_an_integer(self, name, minimum, call, count):
        # A float count used to fail in the coefficient cache with a
        # TypeError from slicing.
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {name}={count}$"):
            call(count)
        with pytest.raises(ValueError, match=f"^{name} must be >= {minimum}, got {name}={minimum - 1}$"):
            call(minimum - 1)


class TestBranchRange:
    @pytest.mark.parametrize(
        "check",
        [
            lambda p: identity_on_perturbed_cache(p, -1),
            lambda p: identity_on_perturbed_cache(p, 2),
            lambda p: residual_numeric(p, 5),
        ],
        ids=["identity-negative", "identity-past-end", "numeric"],
    )
    def test_branch_range_checked(self, check):
        problem = make_problem(1.5, 1.25, 0.5, 2, m=0.5, lam=-2.0 + 1.0j)
        with pytest.raises(ValueError, match=r"branch s must lie in 0\.\.1"):
            check(problem)

    @pytest.mark.parametrize(
        "s,check",
        [
            (0.5, lambda p: SeriesSolution(p, 0.5)),
            (1.0, lambda p: fundamental_solution(p, 1.0)),
            (1.0, lambda p: residual_coefficient_identity(p, 1.0, 3)),
            ("0", lambda p: SeriesSolution(p, "0")),
            (None, lambda p: SeriesSolution(p, None)),
        ],
        ids=["branch", "fundamental", "identity", "branch-str", "branch-none"],
    )
    def test_branch_must_be_an_integer(self, s, check):
        # A float inside 0..i-1 used to pass the range check and fail with a
        # TypeError from indexing the branch exponents; a string or None
        # failed with a TypeError from the range comparison.
        problem = make_problem(1.5, 1.25, 0.5, 2, m=0.5, lam=-2.0 + 1.0j)
        with pytest.raises(ValueError, match=f"^s must be an integer, got s={s!r}$"):
            check(problem)


class TestNumericResidual:
    def test_caputo_half_small_grid(self):
        report = residual_numeric(CAPUTO_HALF, 0, n_points=512)
        assert report.converged
        assert report.max_rel_error <= 5e-3

    def test_rl_half_small_grid(self):
        problem = make_problem(0.5, 0.5, 0.0, 1, lam=-1.0)
        report = residual_numeric(problem, 0, n_points=512)
        assert report.max_rel_error <= 5e-3

    def test_halving_reduces_error(self):
        for problem in (CAPUTO_HALF, WINDOW_3, WINDOW_4):
            errors = []
            for n in (256, 512, 1024):
                report = residual_numeric(problem, 0, n_points=n)
                errors.append(report.max_abs_error)
            assert errors[0] / errors[1] >= 2.5
            assert errors[1] / errors[2] >= 2.5
            order = math.log2(errors[0] / errors[2]) / 2.0
            assert order >= 1.3

    def test_window_and_exclusions(self):
        report = residual_numeric(CAPUTO_HALF, 0, n_points=256)
        assert report.grid.size == 257
        assert report.excluded_boundary_points == 2  # the two right-edge stencils

    @pytest.mark.parametrize("i", range(1, 10))
    def test_minimum_grid_leaves_compared_points(self, i):
        problem = make_problem(i - 0.5, i - 0.75, 0.5, i, m=0.5, lam=-1.0)
        n = residual_min_points(i)
        assert n == 8 or i > 2
        report = residual_numeric(problem, 0, n_points=n)
        assert np.isfinite(report.max_abs_error)
        with pytest.raises(ValueError, match=f"n_points must be >= {n}"):
            residual_numeric(problem, 0, n_points=n - 1)

    def test_window_3_and_4_pass(self):
        for problem in (WINDOW_3, WINDOW_4):
            for s in range(problem.orders.i):
                report = residual_numeric(problem, s, n_points=512)
                assert report.excluded_boundary_points == (problem.orders.i + 1) // 2 + 1
                assert report.max_rel_error <= 5e-3

    def test_complex_lambda(self):
        problem = make_problem(0.5, 0.5, 1.0, 1, m=1.0, lam=0.5 + 0.5j)
        report = residual_numeric(problem, 0, n_points=512)
        assert report.max_rel_error <= 5e-3

    def test_i2_branches(self):
        problem = make_problem(1.5, 1.25, 0.3, 2, m=0.5, lam=1.0)
        for s in (0, 1):
            report = residual_numeric(problem, s, n_points=512)
            assert report.max_rel_error <= 5e-3

    @pytest.mark.parametrize("y_max", [-1.0, 0.0, math.nan, math.inf])
    def test_y_max_must_be_positive_and_finite(self, y_max):
        # It was taken unchecked into the grid, whose first bad point was
        # then reported as "got y=-0.015625" or "got y=nan".
        with pytest.raises(ValueError, match=f"^y_max must be positive and finite, got {y_max}$"):
            residual_numeric(CAPUTO_HALF, 0, y_max=y_max, n_points=64)

    @pytest.mark.parametrize("n_points", [64.5, 64.0])
    def test_n_points_must_be_an_integer(self, n_points):
        # 64.5 used to sample 66 points, the last at 65h > y_max.
        with pytest.raises(ValueError, match=f"^n_points must be an integer, got n_points={n_points}$"):
            residual_numeric(CAPUTO_HALF, 0, n_points=n_points)

    def test_grid_tail_matches_pointwise_loop(self):
        # The verify-fine problem, branch by branch, against the residual
        # built from a per-point evaluate_tail_report loop.
        problem = make_problem(1.5, 1.25, 0.5, 2, m=0.5, lam=-2.0 + 1.0j)
        n, y_max = 4096, 2.0
        for s in range(2):
            report = residual_numeric(problem, s, y_max=y_max, n_points=n)
            sol = fundamental_solution(problem, s)
            k1, h = report.tail_start, y_max / n
            ys = h * np.arange(n + 1)
            w = np.array([0j, *(sol.evaluate_tail_report(float(y), k1).value for y in ys[1:])])
            lhs = hilfer_numeric(SampledFunction(h, w), problem.orders).values
            k0 = k1 - 1
            w_rhs = w.copy()
            w_rhs[1:] += sol.coefficient(k0) * sol.lam**k0 * ys[1:] ** (sol.a * k0 + sol.b)
            rhs = problem.lam * ys**problem.m * w_rhs
            assert report.lhs.tobytes() == lhs.tobytes()
            assert report.rhs.tobytes() == rhs.tobytes()

    def test_singular_rhs_head_at_origin(self):
        # large m forces tail_start = 1, putting the full (singular at 0)
        # series on the rhs; the y^m factor keeps the product finite
        problem = make_problem(0.5, 0.5, 0.0, 1, m=2.0, lam=1.0)
        report = residual_numeric(problem, 0, n_points=512)
        assert report.tail_start == 1
        assert np.all(np.isfinite(report.rhs))
        assert report.rhs[0] == 0.0
        assert report.max_rel_error <= 5e-3

    def test_overflowing_tail_is_unconverged(self):
        # At m = 1 and lambda = -50 the branch (0.5, 3, 2) is a series
        # branch, and its tail from k_start = 2 is a series that cancels and
        # overflows; it cannot be sampled.
        problem = make_problem(0.5, 0.5, 1.0, 1, m=1.0, lam=-50.0)
        report = residual_numeric(problem, 0, n_points=256)
        assert report.tail_start == 2
        assert not report.converged
        assert report.max_abs_error == report.max_rel_error == math.inf
        assert report.excluded_boundary_points == 2
        assert np.isnan(report.lhs).all()

    @pytest.mark.parametrize(
        "problem",
        [make_problem(0.5, 0.5, 1.0, 1, m=1.0, lam=1e160),
         make_problem(1.5, 1.25, 0.5, 2, m=0.5, lam=1e200),
         make_problem(0.5, 0.5, 1.0, 1, lam=-1e160)],
        ids=["series-tail", "window-2", "contour-head"],
    )
    def test_overflowing_lambda_power_is_an_overflowed_tail(self, problem):
        # lambda^k past the double range raised OverflowError from the series
        # tail's leading factor (series-tail, window-2) or from the head that
        # a contour branch's tail subtracts (contour-head); it is an
        # overflowed tail now, silently.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = [residual_numeric(problem, s, n_points=8) for s in range(problem.orders.i)]
        assert [(r.max_abs_error, r.max_rel_error, r.converged) for r in reports] == [
            (math.inf, math.inf, False)] * problem.orders.i

    def test_overflowing_rhs_is_unmeasured(self):
        # At lambda = 1e60 the tail is finite but lambda y^m times it is not:
        # numpy warned twice and the metric read nan.
        problem = make_problem(0.5, 0.5, 1.0, 1, lam=1e60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = residual_numeric(problem, 0, n_points=8)
        assert np.isfinite(report.lhs).all() and not np.isfinite(report.rhs).all()
        assert report.max_abs_error == report.max_rel_error == math.inf


class TestContourResidual:
    """A branch that takes the contour rule is sampled as the tables print
    it: the residual's tail is evaluate minus its head, so verify witnesses
    the contour rule. The branch of (0.5, 0.5, mu, i=1, m=0) is the triple
    (0.5, 1, mu/2 - 1/2), on the rule."""

    @pytest.mark.parametrize("mu", [1.0, 0.5])
    @pytest.mark.parametrize("lam,y_max", [(-1.0, 4.0), (-20.0, 1.0), (-50.0, 1.0), (-2.0 + 3.0j, 4.0)])
    def test_residual_passes(self, mu, lam, y_max):
        # Sampled as the cancelling series of the shifted triple, the
        # mu = 1 residual read 1.2e116 at -20 and 20.2 at -2+3i, and was
        # inf at -50.
        problem = make_problem(0.5, 0.5, mu, 1, lam=lam)
        assert _triple(*fundamental_solution(problem, 0).kilbas_saigo_params()).contour is not None
        report = residual_numeric(problem, 0, y_max=y_max, n_points=512)
        assert report.converged
        assert report.max_rel_error <= RESIDUAL_THRESHOLD

    @pytest.mark.parametrize("mu", [1.0, 0.5])
    def test_mutated_contour_value_moves_the_residual(self, mu, monkeypatch):
        # Every contour value times 1 + 1e-5 moved the 4096-point residual
        # at lambda = -1 from 2.2e-7 to 1.6e-5 (mu = 1) and from 1.3e-7 to
        # 6.1e-6 (mu = 0.5).
        problem = make_problem(0.5, 0.5, mu, 1, lam=-1.0)
        base = residual_numeric(problem, 0, y_max=4.0, n_points=4096).max_rel_error
        rule = special_functions._contour_estimate

        def mutated(contour, z, tol):
            out = rule(contour, z, tol)
            return None if out is None else (out[0] * (1 + 1e-5), *out[1:])

        monkeypatch.setattr(special_functions, "_contour_estimate", mutated)
        moved = residual_numeric(problem, 0, y_max=4.0, n_points=4096).max_rel_error
        assert moved > 10 * base


    @pytest.mark.xfail(strict=True, reason=(
        "a contour branch's tail is evaluate minus its head, and near z = 0 the "
        "contour value's absolute error of about 4e-15 is about 1% of the tail "
        "c_4 z^4 (ROADMAP item 14)"))
    @pytest.mark.parametrize("mu", [1.0, 0.5])
    @pytest.mark.parametrize("lam", [-1e-3, 1e-3, -1e-4])
    def test_residual_passes_at_small_lambda(self, mu, lam):
        # The table is right: at y = 0.25 and 1, evaluate agrees with the
        # series to 5e-15. The residual read 9.5e-9 at mu = 1, lambda = -1e-3
        # while the tail was the series at the shifted triple; it reads 0.129.
        problem = make_problem(0.5, 0.5, mu, 1, lam=lam)
        assert _triple(*fundamental_solution(problem, 0).kilbas_saigo_params()).contour is not None
        report = residual_numeric(problem, 0, n_points=512)
        assert report.converged
        assert report.max_rel_error <= RESIDUAL_THRESHOLD


class TestInitialConditions:
    def test_caputo_unit_data(self):
        errors = initial_condition_check(CAPUTO_HALF, [1.0])
        assert errors[0] <= 1e-10

    def test_zero_data(self):
        problem = make_problem(1.5, 1.5, 0.5, 2, m=0.0)
        errors = initial_condition_check(problem, [0.0, 0.0])
        assert all(e == 0.0 for e in errors)

    def test_two_branch_recovery(self):
        problem = make_problem(1.5, 1.25, 0.4, 2, m=0.5, lam=1.0)
        errors = initial_condition_check(problem, [2.0, 3.0])
        assert all(e <= 1e-6 for e in errors)

    def test_hard_slowly_decaying_tail(self):
        # a - 1 = 0.1: the derivative's error term decays like y^0.1
        problem = make_problem(1.1, 1.1, 0.3, 2, m=0.0, lam=1.0)
        errors = initial_condition_check(problem, [1.0, 2.0])
        assert all(e <= 1e-6 for e in errors)

    def test_complex_lambda_and_data(self):
        problem = make_problem(0.7, 0.5, 0.6, 1, m=0.5, lam=0.3 - 0.8j)
        errors = initial_condition_check(problem, [1.0 + 1.0j])
        assert errors[0] <= 1e-6

    @pytest.mark.parametrize("phis", [[1.0] * 9, [float(j) for j in range(1, 10)]],
                             ids=["ones", "one-to-nine"])
    def test_high_window_index(self, phis):
        # At i = 9, y^(s-j) reaches 1e320 at y = 1e-40 for s = 0, j = 8.
        # Derivatives up to order 8, each summed with the ratios of its
        # falling products folded into the term ratios, with warnings as
        # errors.
        problem = make_problem(8.5, 8.25, 0.5, 9, m=0.5, lam=-1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errors = initial_condition_check(problem, phis)
        assert len(errors) == 9
        assert all(math.isfinite(e) and e <= 1e-6 for e in errors)

    def test_window_3_and_4(self):
        assert all(e <= 1e-6 for e in initial_condition_check(WINDOW_3, [1.0, -0.5, 2.0]))
        assert all(e <= 1e-6 for e in initial_condition_check(WINDOW_4, [1.0, 0.5j, -1.0, 2.0]))


def _weighted_reference(branch, j, z):
    """sum_k fp_k c_{start+k} z^k with the falling products
    fp_k = falling_product(a(k+start)+s, j), summed term by term with the
    weights as plain factors until a term is below 1e-20 of the sum."""
    start = 1 if branch.s < j else 0
    total = 0j
    for k in range(200):
        fp = falling_product(branch.a * (k + start) + branch.s, j) if j else 1.0
        term = fp * branch.coefficient(start + k) * z**k
        total += term
        if k > 3 and abs(term) <= 1e-20 * abs(total):
            return total
    raise AssertionError("reference sum did not settle")


class TestFoldedDerivativeWeights:
    """The initial-condition check hands the series engine fp_k/fp_{k-1}
    folded into its term ratios; the sum must be the weighted one."""

    @pytest.mark.parametrize("i", [1, 2, 3, 6, 9])
    @pytest.mark.parametrize("lam", [-1.5 + 0.5j, 0.0], ids=["complex", "zero"])
    def test_matches_the_weighted_sum(self, i, lam):
        problem = make_problem(i - 0.5, i - 0.75, 0.4, i, m=0.5, lam=lam)
        for s in range(i):
            branch = fundamental_solution(problem, s)
            for j in range(i):
                start, ratios_of = _derivative_series(branch, j)
                assert start == (1 if s < j else 0)
                for y in (0.3, 0.9):
                    z = lam * y**branch.a
                    got = branch.coefficient(start) * _sum_series(ratios_of, z, 1e-17).value
                    want = _weighted_reference(branch, j, z)
                    assert abs(got - want) <= 1e-14 * abs(want), (s, j, y)

    @settings(max_examples=60, deadline=None)
    @given(i=st.integers(1, 4), alpha=st.floats(0.01, 0.99), beta=st.floats(0.01, 0.99),
           mu=st.floats(0.0, 1.0), m=st.floats(0.0, 3.0), n=st.integers(200, 300))
    def test_folded_ratios_never_increase(self, i, alpha, beta, mu, m, n):
        # The stopping rule's premise holds for the ratios handed to the
        # engine too: from k = 1 on, with every derivative's falling
        # products folded in, they never increase, for every j < i.
        assume(m + mu * (alpha - beta) >= 0.0)
        problem = make_problem(i - 1 + alpha, i - 1 + beta, mu, i, m=m, lam=1.0)
        for s in range(i):
            branch = fundamental_solution(problem, s)
            for j in range(i):
                ratios = _derivative_series(branch, j)[1](n)[1:n]
                assert all(later <= earlier for earlier, later in zip(ratios, ratios[1:])), (s, j)


class TestCrossOracleClosure:
    def test_caputo_relaxation_matches_mittag_leffler(self):
        # mu=1, alpha=beta, m=0: the whole construction collapses to the
        # classical relaxation solution E_alpha(lambda y^alpha), checked
        # against the direct series oracle with no quadrature anywhere.
        for alpha, lam in [(0.3, 1.0), (0.5, -1.0), (0.8, 0.6 + 0.3j)]:
            problem = make_problem(alpha, alpha, 1.0, 1, lam=lam)
            sol = fundamental_solution(problem, 0)
            ys = np.linspace(0.01, 1.0, 21)
            for y, report in zip(ys.tolist(), sol.evaluate(ys)):
                value = report.value
                expected = mittag_leffler(alpha, 1.0, lam * y ** alpha)
                assert abs(value - expected) <= 1e-10 * max(
                    1.0, abs(expected)
                )
