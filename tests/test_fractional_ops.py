"""Tests for the analytic and numeric realizations of the derivative."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bihilfer
from bihilfer import (
    DegenerateProblem,
    DomainError,
    OrderTriple,
    SampledFunction,
    falling_product,
    fundamental_solution,
    gamma_ratio,
    hilfer_monomial,
    hilfer_numeric,
    log_gamma_ratio,
    rl_integral_monomial,
    rl_integral_numeric,
)
from bihilfer.fractional_ops import _derivative, _kernel, _stencil, _weights
from bihilfer.verification import _default_tail_start


def sampled(fn, h, n):
    ys = h * np.arange(n + 1)
    return SampledFunction(h, fn(ys)), ys


def direct_rl_integral(f, nu):
    """Reference for rl_integral_numeric: the same weights, with the
    convolution summed directly by np.convolve in O(n^2)."""
    values = f.values
    n = values.size
    w, a0 = _weights(nu, n)
    out = np.zeros(n, dtype=complex)
    out[1:] = a0 * values[0] + values[1:]
    out[2:] += np.convolve(values[1:-1], w[: n - 2])[: n - 2]
    return out * (f.h**nu / math.exp(math.lgamma(nu + 2.0)))


class TestOrderTriple:
    def test_valid(self):
        t = OrderTriple(alpha=0.5, beta=0.7, mu=0.3, i=1)
        assert t.gamma == pytest.approx(0.7 + 0.3 * (0.5 - 0.7))
        assert t.inner_order == pytest.approx(0.7 * 0.3)
        assert t.outer_order == pytest.approx(0.3 * 0.5)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(alpha=1.0, beta=0.5, mu=0.5, i=1), "alpha"),
            (dict(alpha=0.5, beta=0.0, mu=0.5, i=1), "beta"),
            (dict(alpha=1.7, beta=0.3, mu=0.5, i=2), "beta"),
            (dict(alpha=0.5, beta=0.5, mu=1.5, i=1), "mu"),
            (dict(alpha=0.5, beta=0.5, mu=0.5, i=0), "i"),
        ],
    )
    def test_invalid(self, kwargs, match):
        with pytest.raises(DomainError, match=match):
            OrderTriple(**kwargs)

    def test_endpoints_of_mu_allowed(self):
        OrderTriple(alpha=0.5, beta=0.5, mu=0.0, i=1)
        OrderTriple(alpha=0.5, beta=0.5, mu=1.0, i=1)

    def test_window_index_is_an_integer(self):
        # numpy's integers are integers; a float or a string is not, even 2.0.
        t = OrderTriple(alpha=1.5, beta=1.5, mu=0.5, i=np.int64(2))
        assert t.i == 2 and type(t.i) is int
        for i in (2.0, "2"):
            with pytest.raises(DomainError, match="i must be a positive integer"):
                OrderTriple(alpha=1.5, beta=1.5, mu=0.5, i=i)

    def test_importable_from_its_old_module(self):
        # OrderTriple lives in the solver, which imports no numpy.
        from bihilfer.fractional_ops import OrderTriple as moved
        from bihilfer.solver import OrderTriple as home

        assert moved is home is OrderTriple is bihilfer.OrderTriple


class TestFallingProduct:
    def test_single_factor(self):
        assert falling_product(5.0, 1) == 5.0

    def test_direct(self):
        assert falling_product(3.5, 2) == pytest.approx(3.5 * 2.5)

    @given(st.integers(min_value=1, max_value=6))
    def test_integer_kernel_vanishes_exactly(self, i):
        for s in range(i):
            assert falling_product(float(s), i) == 0.0

    def test_nonvanishing_above_window(self):
        assert falling_product(4.0, 3) == pytest.approx(4.0 * 3.0 * 2.0)

    @pytest.mark.parametrize("i, message", [
        (2.0, "i must be an integer, got i=2.0"),
        (2.5, "i must be an integer, got i=2.5"),
        (0, "i must be >= 1, got i=0"),
    ])
    def test_count_must_be_an_integer_of_at_least_one(self, i, message):
        with pytest.raises(ValueError, match=message):
            falling_product(3.5, i)


class TestRlIntegralMonomial:
    def test_plain_integral(self):
        term = rl_integral_monomial(1.0, 0.0)
        assert term.coef == pytest.approx(1.0, rel=1e-14)
        assert term.exponent == 1.0

    def test_half_integral_of_one(self):
        term = rl_integral_monomial(0.5, 0.0)
        assert term.coef == pytest.approx(1.1283791670955126, rel=1e-13)
        assert term.exponent == 0.5

    def test_half_integral_of_sqrt(self):
        term = rl_integral_monomial(0.5, 0.5)
        assert term.coef == pytest.approx(0.8862269254527580, rel=1e-13)
        assert term.exponent == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            rl_integral_monomial(0.5, -1.0)
        with pytest.raises(DomainError):
            rl_integral_monomial(0.0, 0.5)


@pytest.mark.parametrize(
    "call,error,match",
    [
        (lambda: SampledFunction(math.inf, np.ones(8)), ValueError, "grid step h must be finite"),
        (lambda: rl_integral_monomial(math.inf, 1.0), DomainError, r"finite nu > 0 violated \(nu=inf"),
        (lambda: rl_integral_monomial(0.5, math.inf), DomainError,
         r"finite delta > -1 violated \(delta=inf"),
        (lambda: hilfer_monomial(OrderTriple(0.5, 0.5, 1.0, 1), math.inf), DomainError,
         r"finite delta > -1 violated \(delta=inf"),
        (lambda: log_gamma_ratio(2.0, math.inf), DomainError, "requires finite q > 0, got q=inf"),
        (lambda: gamma_ratio(math.inf, 2.0), DomainError, "requires finite p > 0, got p=inf"),
    ],
    ids=["sampled-h", "rl-nu", "rl-delta", "hilfer-delta", "log-gamma-ratio-q", "gamma-ratio-p"],
)
def test_non_finite_input_rejected(call, error, match):
    # Each returned inf or nan: rl_integral_monomial(inf, 1.0) gave
    # PowerTerm(0.0, inf), log_gamma_ratio(2.0, inf) nan, and
    # rl_integral_numeric on SampledFunction(inf, ...) inf+nanj.
    with pytest.raises(error, match=match):
        call()


class TestHilferMonomial:
    def test_caputo_half_derivative_of_y(self):
        orders = OrderTriple(alpha=0.5, beta=0.5, mu=1.0, i=1)
        term = hilfer_monomial(orders, 1.0)
        assert term.coef == pytest.approx(1.1283791670955126, rel=1e-12)
        assert term.exponent == pytest.approx(0.5)

    def test_rl_half_derivative_of_y(self):
        orders = OrderTriple(alpha=0.5, beta=0.5, mu=0.0, i=1)
        term = hilfer_monomial(orders, 1.0)
        assert term.coef == pytest.approx(1.1283791670955126, rel=1e-12)
        assert term.exponent == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "orders",
        [
            OrderTriple(alpha=0.6, beta=0.4, mu=0.3, i=1),
            OrderTriple(alpha=1.5, beta=1.2, mu=0.7, i=2),
            OrderTriple(alpha=2.3, beta=2.8, mu=0.5, i=3),
        ],
    )
    def test_kernel_monomials_map_to_zero(self, orders):
        for s in range(orders.i):
            delta = s - orders.inner_order
            term = hilfer_monomial(orders, delta)
            assert term.coef == 0.0
            assert term.exponent == delta - orders.gamma

    def test_inadmissible_delta(self):
        orders = OrderTriple(alpha=0.5, beta=0.5, mu=1.0, i=1)
        with pytest.raises(DomainError):
            hilfer_monomial(orders, -1.2)
        orders2 = OrderTriple(alpha=1.5, beta=1.5, mu=1.0, i=2)
        with pytest.raises(DomainError):  # 0.5 - 2 = -1.5 <= -1 and not a kernel power
            hilfer_monomial(orders2, 0.5)

    @pytest.mark.parametrize("i", [1, 2])
    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0, 3.7])
    def test_caputo_endpoint_collapse(self, i, delta):
        # mu = 1: coefficient Gamma(delta+1)/Gamma(delta+1-alpha) on admissible powers
        alpha = i - 0.4
        orders = OrderTriple(alpha=alpha, beta=i - 0.7, mu=1.0, i=i)
        if delta - i <= -1.0:
            return  # outside the monomial formula's domain for this window
        term = hilfer_monomial(orders, delta)
        expected = math.gamma(delta + 1.0) / math.gamma(delta + 1.0 - alpha)
        assert term.coef == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("i", [1, 2])
    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0, 3.7])
    def test_rl_endpoint_collapse(self, i, delta):
        # mu = 0: coefficient Gamma(delta+1)/Gamma(delta+1-beta) on admissible powers
        beta = i - 0.6
        orders = OrderTriple(alpha=i - 0.2, beta=beta, mu=0.0, i=i)
        x = delta + orders.inner_order
        if x - i <= -1.0 or abs(falling_product(x, i)) < 1e-12 * (abs(delta) + 1) ** i:
            return
        term = hilfer_monomial(orders, delta)
        expected = math.gamma(delta + 1.0) / math.gamma(delta + 1.0 - beta)
        assert term.coef == pytest.approx(expected, rel=1e-12)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=0.1, max_value=7.0),
    )
    @settings(max_examples=150)
    def test_exponent_law(self, da, db, mu, i, ddelta):
        orders = OrderTriple(alpha=i - da, beta=i - db, mu=mu, i=i)
        delta = i - 1.0 + ddelta  # keeps the formula admissible
        term = hilfer_monomial(orders, delta)
        gamma = orders.beta + orders.mu * (orders.alpha - orders.beta)
        assert term.exponent == delta - gamma


class TestRlIntegralNumeric:
    def test_zero_maps_to_zero(self):
        f, _ = sampled(lambda y: np.zeros_like(y), 0.01, 100)
        out = rl_integral_numeric(f, 0.7)
        assert np.all(out.values == 0.0)

    def test_order_one_is_plain_integral(self):
        f, ys = sampled(lambda y: np.ones_like(y, dtype=complex), 1.0 / 64, 64)
        out = rl_integral_numeric(f, 1.0)
        assert np.allclose(out.values, ys, rtol=0, atol=1e-13)

    def test_constant_against_closed_form(self):
        # I^nu 1 = y^nu / Gamma(nu+1); exact for the interpolatory rule
        f, ys = sampled(lambda y: np.ones_like(y, dtype=complex), 1.0 / 128, 128)
        for nu in (0.3, 0.5, 1.5):
            out = rl_integral_numeric(f, nu)
            expected = ys**nu / math.gamma(nu + 1.0)
            assert np.allclose(out.values, expected, rtol=1e-12, atol=1e-13)

    def test_linear_against_closed_form(self):
        f, ys = sampled(lambda y: y.astype(complex), 1.0 / 256, 256)
        out = rl_integral_numeric(f, 0.5)
        term = rl_integral_monomial(0.5, 1.0)
        expected = term.coef * ys**term.exponent
        # exact for piecewise-linear data up to rounding
        assert np.allclose(out.values, expected, rtol=1e-11, atol=1e-12)
        assert out.values[-1] == pytest.approx(0.7522527780636751, rel=1e-10)

    def test_quadratic_second_order_convergence(self):
        errors = []
        for n in (64, 128, 256):
            f, ys = sampled(lambda y: (y**2).astype(complex), 1.0 / n, n)
            out = rl_integral_numeric(f, 0.6)
            term = rl_integral_monomial(0.6, 2.0)
            errors.append(np.max(np.abs(out.values - term.coef * ys**term.exponent)))
        order = math.log2(errors[0] / errors[2]) / 2.0
        assert order >= 1.9

    def test_semigroup(self):
        # I^0.5 I^0.7 = I^1.2; composed quadrature error is O(h^1.5)
        f, ys = sampled(lambda y: np.exp(-y).astype(complex), 1.0 / 512, 512)
        once = rl_integral_numeric(f, 1.2)
        twice = rl_integral_numeric(rl_integral_numeric(f, 0.5), 0.7)
        mask = ys >= 0.1
        num = np.abs(twice.values[mask] - once.values[mask])
        assert np.max(num / np.abs(once.values[mask])) < 2e-3

    def test_linearity(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=65) + 1j * rng.normal(size=65)
        b = rng.normal(size=65) + 1j * rng.normal(size=65)
        fa = SampledFunction(0.01, a)
        fb = SampledFunction(0.01, b)
        fab = SampledFunction(0.01, 2.0 * a - 1.5j * b)
        lhs = rl_integral_numeric(fab, 0.4).values
        rhs = 2.0 * rl_integral_numeric(fa, 0.4).values - 1.5j * rl_integral_numeric(fb, 0.4).values
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-13)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="3 samples"):
            SampledFunction(0.1, [1.0, 2.0])
        f = SampledFunction(0.1, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DomainError):
            rl_integral_numeric(f, 2.0)
        bad = SampledFunction(0.1, [1.0, math.inf, 3.0])
        with pytest.raises(ValueError, match="finite"):
            rl_integral_numeric(bad, 0.5)


class TestQuadratureWeights:
    @pytest.mark.parametrize("nu", [0.05, 0.375, 1.25, 1.95])
    def test_against_mpmath(self, nu):
        # w_k = (k+1)^p - 2k^p + (k-1)^p and a0(k) = (k-1)^p - (k-p)k^nu,
        # p = nu+1, in 40 digits; the double forms of these cancel.
        mp = pytest.importorskip("mpmath").mp
        ks = list(range(1, 13)) + [1000, 130000]
        w, a0 = _weights(nu, ks[-1] + 1)
        with mp.workdps(40):
            p = mp.mpf(nu) + 1
            for k in ks:
                x = mp.mpf(k)
                w_ref = (x + 1) ** p - 2 * x**p + (x - 1) ** p
                a0_ref = (x - 1) ** p - (x - p) * x**nu
                assert abs(w[k - 1] - w_ref) <= 1e-14 * abs(w_ref), k
                assert abs(a0[k - 1] - a0_ref) <= 1e-14 * abs(a0_ref), k

    @pytest.mark.parametrize("nu", [0.375, 1.25])
    def test_constant_on_fine_grid(self, nu):
        # I^nu 1 = y^nu / Gamma(1+nu) is exact for the rule, so at n = 2^17
        # only rounding in the weights and the convolution remains.
        n = 2**17
        f, ys = sampled(lambda y: np.ones_like(y, dtype=complex), 1.0 / n, n)
        out = rl_integral_numeric(f, nu).values
        mask = ys >= 0.25
        expected = ys[mask] ** nu / math.gamma(1.0 + nu)
        assert np.max(np.abs(out[mask] - expected) / expected) <= 1e-13


class TestFftConvolution:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 17, 512, 4097])
    @pytest.mark.parametrize("nu", [0.375, 1.25])
    def test_matches_direct_sum(self, n, nu):
        rng = np.random.default_rng(n)
        f = SampledFunction(0.01, rng.normal(size=n) + 1j * rng.normal(size=n))
        ref = direct_rl_integral(f, nu)
        got = rl_integral_numeric(f, nu).values
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("s", [0, 1])
    def test_matches_direct_sum_on_verify_problem(self, s):
        # The inner integral of `verify` (hilfer_numeric's first stage) on
        # the series tail it samples, checked pointwise on the residual
        # window [y_max/4, y_max].
        problem = DegenerateProblem(
            orders=OrderTriple(alpha=1.5, beta=1.25, mu=0.5, i=2), m=0.5, lam=complex(-2.0, 1.0)
        )
        sol = fundamental_solution(problem, s)
        k1 = _default_tail_start(sol)
        n, y_max = 8192, 2.0
        ys = (y_max / n) * np.arange(n + 1)
        f = SampledFunction(y_max / n, sol.tail_grid_report(ys, k1).value)
        nu = problem.orders.inner_order
        ref = direct_rl_integral(f, nu)
        got = rl_integral_numeric(f, nu).values
        window = ys >= y_max / 4.0
        assert np.max(np.abs(got[window] - ref[window]) / np.abs(ref[window])) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4097])
    def test_cold_and_warm_kernel_agree(self, n):
        # The second call reads a0, the FFT length and the spectrum of w from
        # the kernel cache; it must give the bits of the first, which built
        # them, and of a call after the cache was cleared.
        rng = np.random.default_rng(n)
        f = SampledFunction(0.01, rng.normal(size=n) + 1j * rng.normal(size=n))
        _kernel.cache_clear()
        cold = rl_integral_numeric(f, 0.375).values
        warm = rl_integral_numeric(f, 0.375).values
        assert _kernel.cache_info()[:2] == (1, 1)  # (hits, misses)
        _kernel.cache_clear()
        assert rl_integral_numeric(f, 0.375).values.tobytes() == cold.tobytes() == warm.tobytes()

    def test_cached_kernel_is_read_only(self):
        a0, size, spectrum = _kernel(0.375, 64)
        assert size == 128 and a0.size == 63 and spectrum.size == 65
        for array in (a0, spectrum):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_independent_of_blas_thread_count(self):
        # A BLAS-backed direct sum splits dot products longer than about
        # 10,000 elements across threads, which changes the rounding.
        script = (
            "import hashlib, numpy as np\n"
            "from bihilfer import SampledFunction, rl_integral_numeric\n"
            "rng = np.random.default_rng(3)\n"
            "v = rng.normal(size=16385) + 1j * rng.normal(size=16385)\n"
            "out = rl_integral_numeric(SampledFunction(1 / 16384, v), 0.375).values\n"
            "print(hashlib.sha256(out.tobytes()).hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(bihilfer.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, timeout=120, check=True)
            digests.append(run.stdout)
        assert digests[0] == digests[1]


class TestDerivative:
    @pytest.mark.parametrize("order", range(1, 7))
    @pytest.mark.parametrize("wide", [False, True], ids=["fewest", "wide"])
    def test_exact_on_polynomials(self, order, wide):
        # Degree order+1 is the highest a second-order stencil differentiates
        # exactly. n = order+1 intervals is the fewest samples it accepts;
        # n = 2(order+2) also has central points. The 1e-9 bound leaves room
        # for rounding amplified by h^-order.
        n = 2 * (order + 2) if wide else order + 1
        ys = np.arange(n + 1) / n
        p = np.polynomial.Polynomial([(-1.0) ** j * (j + 1) for j in range(order + 2)])
        exact = p.deriv(order)(ys)
        out = _derivative(p(ys).astype(complex), 1.0 / n, order)
        assert np.max(np.abs(out - exact)) <= 1e-9 * np.max(np.abs(exact))

    @pytest.mark.parametrize(
        "offsets,order,weights",
        [
            ([-1, 0, 1], 1, [-0.5, 0.0, 0.5]),
            ([0, 1, 2], 1, [-1.5, 2.0, -0.5]),
            ([0, -1, -2], 1, [1.5, -2.0, 0.5]),
            ([-1, 0, 1], 2, [1.0, -2.0, 1.0]),
            ([0, 1, 2, 3], 2, [2.0, -5.0, 4.0, -1.0]),
            ([0, -1, -2, -3], 2, [2.0, -5.0, 4.0, -1.0]),
        ],
    )
    def test_order_one_and_two_weights(self, offsets, order, weights):
        assert _stencil(np.array(offsets), order).tolist() == weights

    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_textbook_formulas_bitwise(self, order):
        # The usual order-1 and -2 formulas, summed in the order they are
        # written; the general rule must round exactly as they do. h is a
        # power of two, as on the default grids, so h**2 == h*h exactly.
        re, im = np.random.default_rng(3).normal(size=(2, 200))
        v = re + 1j * im
        h = 2.0 / 512
        ref = np.empty_like(v)
        if order == 1:
            ref[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
            ref[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
            ref[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
        else:
            ref[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
            ref[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / (h * h)
            ref[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / (h * h)
        assert np.array_equal(_derivative(v, h, order), ref)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 5 samples"):
            _derivative(np.zeros(4, dtype=complex), 1.0, 3)


class TestHilferNumeric:
    def test_zero_maps_to_zero(self):
        orders = OrderTriple(alpha=0.5, beta=0.5, mu=0.5, i=1)
        f, _ = sampled(lambda y: np.zeros_like(y), 0.01, 64)
        out = hilfer_numeric(f, orders)
        assert np.allclose(out.values, 0.0, atol=1e-14)

    def test_constant_solution_zero_residual(self):
        # At lambda = 0 the Caputo branch (b_0 = 0) is u = 1, and its tail
        # from k = 0 samples it; the operator takes it to lambda y^m u = 0.
        problem = DegenerateProblem(orders=OrderTriple(alpha=0.5, beta=0.5, mu=1.0, i=1), m=0.0, lam=0.0)
        n = 256
        ys = (1.0 / n) * np.arange(n + 1)
        u = fundamental_solution(problem, 0).tail_grid_report(ys, 0).value
        assert (u == 1.0).all()
        out = hilfer_numeric(SampledFunction(1.0 / n, u), problem.orders)
        assert np.allclose(out.values, 0.0, atol=1e-12)

    def test_caputo_half_of_y(self):
        orders = OrderTriple(alpha=0.5, beta=0.5, mu=1.0, i=1)
        f, ys = sampled(lambda y: y.astype(complex), 1.0 / 512, 512)
        out = hilfer_numeric(f, orders)
        assert out.values[-1] == pytest.approx(1.1283791670955126, rel=1e-8)

    def test_rl_half_of_y_squared(self):
        orders = OrderTriple(alpha=0.5, beta=0.5, mu=0.0, i=1)
        f, ys = sampled(lambda y: (y**2).astype(complex), 1.0 / 512, 512)
        out = hilfer_numeric(f, orders)
        assert out.values[-1] == pytest.approx(1.5045055561273501, rel=1e-5)

    @pytest.mark.parametrize(
        "orders,delta",
        [
            (OrderTriple(alpha=0.5, beta=0.25, mu=0.0, i=1), 2.0),
            (OrderTriple(alpha=0.5, beta=0.25, mu=0.5, i=1), 2.0),
            (OrderTriple(alpha=1.5, beta=1.25, mu=0.5, i=2), 3.5),
            (OrderTriple(alpha=1.5, beta=1.25, mu=1.0, i=2), 3.5),
        ],
    )
    def test_monomial_oracle_convergence(self, orders, delta):
        term = hilfer_monomial(orders, delta)
        errors = []
        for n in (128, 256, 512):
            h = 1.0 / n
            f, ys = sampled(lambda y: (y**delta).astype(complex), h, n)
            out = hilfer_numeric(f, orders)
            mask = ys >= 0.25
            mask[-2:] = False
            exact = term.coef * ys[mask] ** term.exponent
            errors.append(np.max(np.abs(out.values[mask] - exact)))
        order = math.log2(errors[0] / errors[2]) / 2.0
        assert order >= 1.5

    def test_linearity(self):
        orders = OrderTriple(alpha=0.7, beta=0.6, mu=0.4, i=1)
        rng = np.random.default_rng(11)
        a = rng.normal(size=129) + 1j * rng.normal(size=129)
        b = rng.normal(size=129) + 1j * rng.normal(size=129)
        h = 1.0 / 128
        lhs = hilfer_numeric(SampledFunction(h, 3.0 * a + 2j * b), orders).values
        rhs = (
            3.0 * hilfer_numeric(SampledFunction(h, a), orders).values
            + 2j * hilfer_numeric(SampledFunction(h, b), orders).values
        )
        assert np.allclose(lhs, rhs, rtol=1e-11, atol=1e-10)

    def test_identity_collapses(self):
        # mu = 1 makes the inner integral the identity, mu = 0 the outer one
        f, ys = sampled(lambda y: (y**2).astype(complex), 1.0 / 256, 256)
        caputo = hilfer_numeric(f, OrderTriple(alpha=0.5, beta=0.9, mu=1.0, i=1))
        caputo2 = hilfer_numeric(f, OrderTriple(alpha=0.5, beta=0.2, mu=1.0, i=1))
        # beta is irrelevant at mu = 1
        assert np.allclose(caputo.values, caputo2.values, rtol=0, atol=1e-14)
