"""Tests for controlled paths, remainders, composition and the solver.

Covers:
  1. Construction from raw levels and validation of the level/offset
     representation.
  2. Remainders: exact zeros on polynomial tuples, closed-form small cases,
     and the exact midpoint decomposition identity on random level tuples,
     pinned and as a Hypothesis property with nonzero offsets.
  3. Function families and the iterated-field polynomials.
  4. Composition through smooth functions (Faa di Bruno levels).
  5. The compensated-sum rough integral: polynomial exactness, pinned and
     as a Hypothesis property on random polynomial integrands, its coarse
     view, and the marginal-order warning.
  6. The one-step scheme for dy = b(y) dt + V(y) dx: exactly integrable
     cases, a deterministic-driver convergence check, and the blow-up guard.
  7. Coarsening a controlled path onto every k-th node.
"""

import math
import warnings

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughpvar import (
    ControlledPath,
    FbmPath,
    FbmSpec,
    FunctionFamily,
    build_controlled_process,
    compose,
    field_iterate_polynomials,
    remainder,
    remainder_decomposition_residual,
    rough_integral,
    sample_fbm,
    solve_rde,
    subsample_controlled,
)
from roughpvar.controlled import _decomposition_residuals


def _canonical(x, ell):
    """The driver as a controlled path: levels (x, 1, 0, ...)."""
    rows = [x.values, np.ones_like(x.values)]
    rows += [np.zeros_like(x.values)] * (ell - 2)
    return ControlledPath(x, rows[:ell])


def _line_driver(n):
    """Deterministic unit-slope driver wrapped as a sampled path."""
    return FbmPath(FbmSpec(hurst=0.5, n=n, seed=0), np.linspace(0.0, 1.0, n + 1))


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


class TestControlledPath:
    """Level/offset representation invariants."""

    def test_from_raw_levels_normalizes(self):
        x = sample_fbm(FbmSpec(hurst=0.4, n=16, seed=1))
        raw = [3.0 + x.values, 2.0 * np.ones_like(x.values)]
        cp = ControlledPath(x, raw)
        assert np.array_equal(cp.offsets, [3.0, 2.0])
        assert cp.levels[0][0] == 0.0 and cp.levels[1][0] == 0.0
        assert np.allclose(cp.level(0), 3.0 + x.values, atol=0.0)
        assert np.allclose(cp.level(1), 2.0, atol=0.0)
        assert cp.ell == 2 and cp.n == 16
        assert cp.alpha == x.hurst
        assert not cp.levels.flags.writeable

    def test_validation_errors(self):
        x = sample_fbm(FbmSpec(hurst=0.4, n=16, seed=1))
        good_row = np.zeros(17)
        with pytest.raises(ValueError):
            ControlledPath(x, np.zeros((1, 5)), alpha=0.4)
        with pytest.raises(ValueError):
            ControlledPath(x, np.zeros((0, 17)), alpha=0.4)
        with pytest.raises(ValueError):
            ControlledPath(x, [good_row], alpha=1.5)
        odd_fine = _canonical(sample_fbm(FbmSpec(hurst=0.4, n=24, seed=1)), 1)
        with pytest.raises(ValueError):
            ControlledPath(x, [good_row], fine=odd_fine)

    def test_quadrature_path_defaults_to_self(self):
        x = sample_fbm(FbmSpec(hurst=0.4, n=16, seed=1))
        cp = _canonical(x, 2)
        assert cp.quadrature_path() is cp
        assert cp.fine_factor == 1


# ---------------------------------------------------------------------------
# remainders
# ---------------------------------------------------------------------------


class TestRemainder:
    """Taylor-type remainders of the level expansion."""

    def test_exact_zero_for_driver_tuple(self):
        x = sample_fbm(FbmSpec(hurst=0.35, n=64, seed=5))
        cp = _canonical(x, 2)
        s = np.arange(64) / 64.0
        t = np.arange(1, 65) / 64.0
        assert np.max(np.abs(remainder(cp, 0, s, t))) == 0.0

    def test_exact_zero_for_square_tuple(self):
        x = sample_fbm(FbmSpec(hurst=0.35, n=64, seed=6))
        cp = build_controlled_process("sq", x, params={"ell": 3})
        s = np.zeros(16)
        t = np.arange(1, 17) / 64.0
        for k in range(3):
            worst = np.max(np.abs(remainder(cp, k, s, t)))
            assert worst < 1e-14, f"level {k}: {worst:.2e}"

    def test_truncated_square_tuple_has_explicit_remainder(self):
        # with levels (x^2/2, x) the expansion stops one term early and the
        # remainder over any cell is exactly (dx)^2 / 2
        x = sample_fbm(FbmSpec(hurst=0.35, n=64, seed=7))
        cp = ControlledPath(x, [0.5 * x.values**2, x.values])
        dx = x.values[40] - x.values[8]
        got = remainder(cp, 0, 8 / 64.0, 40 / 64.0)
        assert got == pytest.approx(0.5 * dx * dx, rel=1e-12)

    def test_top_level_remainder_is_plain_increment(self):
        x = sample_fbm(FbmSpec(hurst=0.35, n=64, seed=8))
        cp = build_controlled_process("exp-rde", x, params={"ell": 3})
        got = remainder(cp, 2, 0.25, 1.0)
        expected = math.exp(x.values[64]) - math.exp(x.values[16])
        assert got == pytest.approx(expected, rel=1e-12)

    def test_level_index_domain(self):
        x = sample_fbm(FbmSpec(hurst=0.35, n=64, seed=8))
        cp = _canonical(x, 2)
        with pytest.raises(ValueError):
            remainder(cp, 2, 0.0, 1.0)
        with pytest.raises(ValueError):
            remainder(cp, -1, 0.0, 1.0)


class TestDecompositionIdentity:
    """Midpoint decomposition of the zeroth remainder, an exact identity."""

    @pytest.mark.parametrize("ell", [2, 3, 6])
    def test_random_level_tuples(self, ell):
        # the identity is structural: it holds for arbitrary level rows,
        # whether or not they satisfy any analytic remainder bound
        rng = np.random.default_rng(100 + ell)
        x = sample_fbm(FbmSpec(hurst=0.3, n=256, seed=9))
        raw = [rng.normal(size=257) for _ in range(ell)]
        cp = ControlledPath(x, raw)

        idx = rng.integers(0, 257, size=(200, 3))
        idx.sort(axis=1)
        s, u, t = idx[:, 0] / 256.0, idx[:, 1] / 256.0, idx[:, 2] / 256.0
        residual = remainder_decomposition_residual(cp, s, u, t)

        # scale assembled from the same public remainder values
        scale = (
            np.abs(remainder(cp, 0, s, t))
            + np.abs(remainder(cp, 0, s, u))
            + np.abs(remainder(cp, 0, u, t))
        )
        dx = x.values[(t * 256).astype(int)] - x.values[(u * 256).astype(int)]
        for m in range(1, ell):
            term = remainder(cp, m, s, u) * dx**m / math.factorial(m)
            scale = scale + np.abs(term)
        bad = np.abs(residual) > 1e-12 * np.maximum(scale, 1e-300)
        assert not np.any(bad), f"{int(np.sum(bad))} residuals above 1e-12 * scale"

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ell=st.integers(1, 6),
        n=st.integers(2, 64),
        offsets=st.lists(
            st.floats(-100.0, 100.0).filter(lambda v: abs(v) > 1e-3), min_size=6, max_size=6
        ),
    )
    def test_random_raw_levels_with_offsets(self, seed, ell, n, offsets):
        # raw rows start at nonzero values, so the constructor's offset split
        # is exercised together with the remainder arithmetic
        rng = np.random.default_rng(seed)
        values = np.concatenate([[0.0], np.cumsum(rng.normal(size=n))]) / math.sqrt(n)
        x = FbmPath(FbmSpec(hurst=0.3, n=n, seed=0), values)
        raw = [offsets[m] + rng.normal(size=n + 1) for m in range(ell)]
        cp = ControlledPath(x, raw)
        assert np.array_equal(cp.offsets, [row[0] for row in raw])

        idx = np.sort(rng.integers(0, n + 1, size=(40, 3)), axis=1)
        i, u, j = idx[:, 0], idx[:, 1], idx[:, 2]
        residual = remainder_decomposition_residual(cp, i / n, u / n, j / n)
        _, scale = _decomposition_residuals(cp, i, u, j)
        bad = np.abs(residual) > 1e-12 * scale
        assert not np.any(bad), f"{int(np.sum(bad))} residuals above 1e-12 * scale"

    def test_scalar_form(self):
        x = sample_fbm(FbmSpec(hurst=0.3, n=64, seed=10))
        cp = build_controlled_process("exp-rde", x, params={"ell": 4})
        res = remainder_decomposition_residual(cp, 0.125, 0.5, 0.875)
        assert isinstance(res, float)
        assert abs(res) < 1e-13


# ---------------------------------------------------------------------------
# function families and field iterates
# ---------------------------------------------------------------------------


class TestFunctionFamily:
    """Vectorized derivative families."""

    def test_polynomial_derivatives(self):
        fam = FunctionFamily.polynomial([1.0, 2.0, 3.0])  # 1 + 2y + 3y^2
        y = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(fam.deriv(0)(y), 1.0 + 2.0 * y + 3.0 * y * y, atol=0.0)
        assert np.allclose(fam.deriv(1)(y), 2.0 + 6.0 * y, atol=0.0)
        assert np.allclose(fam.deriv(2)(y), 6.0, atol=0.0)
        assert np.allclose(fam.deriv(3)(y), 0.0, atol=0.0)

    def test_exponential_family(self):
        fam = FunctionFamily.exponential(rate=1.3, order=4)
        y = np.array([0.0, 0.5])
        for j in range(4):
            assert np.allclose(fam.deriv(j)(y), 1.3**j * np.exp(1.3 * y), rtol=1e-14)

    def test_identity_and_constant(self):
        ident = FunctionFamily.identity()
        const = FunctionFamily.constant(4.0)
        assert ident.deriv(0)(3.0) == 3.0
        assert ident.deriv(1)(3.0) == 1.0
        assert const.deriv(0)(3.0) == 4.0
        assert const.deriv(1)(3.0) == 0.0

    def test_order_and_errors(self):
        fam = FunctionFamily.polynomial([0.0, 1.0], order=3)
        assert fam.order == 3
        with pytest.raises(ValueError):
            fam.deriv(3)
        with pytest.raises(ValueError):
            fam.deriv(-1)
        with pytest.raises(ValueError):
            FunctionFamily.polynomial([])
        with pytest.raises(ValueError):
            FunctionFamily(funcs=())


def test_field_iterate_polynomials_literal():
    # g_0 = V, g_1 = V V', g_2 = V (V')^2 + V^2 V''
    polys = field_iterate_polynomials(3)
    assert polys[0] == {(0,): 1.0}
    assert polys[1] == {(0, 1): 1.0}
    assert polys[2] == {(0, 1, 1): 1.0, (0, 0, 2): 1.0}
    assert field_iterate_polynomials(0) == []
    with pytest.raises(ValueError):
        field_iterate_polynomials(-1)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


class TestCompose:
    """Pushing controlled paths through smooth functions."""

    def test_polynomial_of_the_driver(self):
        # the canonical tuple (x, 1, 0, 0) composed with f yields the
        # plain derivative tuple (f(x), f'(x), f''(x), f'''(x))
        x = sample_fbm(FbmSpec(hurst=0.4, n=64, seed=14))
        fam = FunctionFamily.polynomial([1.0, 2.0, 0.5, -1.0])
        out = compose(fam, _canonical(x, 4))
        for j in range(4):
            assert np.allclose(out.level(j), fam.deriv(j)(x.values), rtol=1e-13), j

    def test_exponential_of_the_driver(self):
        x = sample_fbm(FbmSpec(hurst=0.4, n=64, seed=15))
        out = compose(FunctionFamily.exponential(1.0), _canonical(x, 3))
        for j in range(3):
            assert np.allclose(out.level(j), np.exp(x.values), rtol=1e-13), j

    def test_identity_composition_reproduces_levels(self):
        x = sample_fbm(FbmSpec(hurst=0.4, n=64, seed=16))
        cp = build_controlled_process("sq", x, params={"ell": 3})
        out = compose(FunctionFamily.identity(), cp)
        for j in range(3):
            assert np.allclose(out.level(j), cp.level(j), atol=0.0), j

    def test_order_truncation_and_fine_propagation(self):
        x_fine = sample_fbm(FbmSpec(hurst=0.4, n=256, seed=17))
        cp = build_controlled_process("fbm", x_fine, fine_factor=4)
        out = compose(FunctionFamily.polynomial([0.0, 0.0, 0.5], order=2), cp)
        assert out.ell == 2
        assert out.fine is not None and out.fine_factor == 4
        assert np.array_equal(out.level(0), out.fine.level(0)[::4])


# ---------------------------------------------------------------------------
# rough integral
# ---------------------------------------------------------------------------


class TestRoughIntegral:
    """Compensated-sum integration against the driver."""

    def test_driver_against_itself_is_exact(self):
        x = sample_fbm(FbmSpec(hurst=0.35, n=128, seed=18))
        out = rough_integral(_canonical(x, 2), x)
        expected = 0.5 * x.values**2
        worst = np.max(np.abs(out.level(0) - expected))
        print(f"  sup error of int x dx vs x^2/2: {worst:.2e}")
        assert worst < 1e-14
        assert out.ell == 3

    def test_square_tuple_integrates_to_cube(self):
        x = sample_fbm(FbmSpec(hurst=0.35, n=128, seed=19))
        cp = build_controlled_process("sq", x, params={"ell": 3})
        out = rough_integral(cp, x)
        worst = np.max(np.abs(out.level(0) - x.values**3 / 6.0))
        assert worst < 1e-14

    def test_constant_integrand(self):
        x = sample_fbm(FbmSpec(hurst=0.35, n=128, seed=20))
        ones = np.ones_like(x.values)
        cp = ControlledPath(x, [ones, np.zeros_like(ones)])
        out = rough_integral(cp, x)
        assert np.allclose(out.level(0), x.values, atol=1e-15)

    def test_refine_returns_coarse_view(self):
        x_fine = sample_fbm(FbmSpec(hurst=0.35, n=512, seed=21))
        out = subsample_controlled(rough_integral(_canonical(x_fine, 2), x_fine), 4)
        assert out.n == 128
        assert out.fine is not None and out.fine.n == 512
        assert np.array_equal(out.level(0), out.fine.level(0)[::4])
        assert np.allclose(out.level(0), 0.5 * out.x.values**2, atol=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        hurst=st.floats(0.1, 0.9),
        n=st.integers(2, 256),
        ell=st.integers(1, 6),
        # zero, or far enough from it that no Taylor term falls to subnormal
        # numbers, whose rounding is not relative
        coeffs=st.lists(
            st.one_of(st.just(0.0), st.floats(-3.0, 3.0).filter(lambda v: abs(v) >= 1e-3)),
            min_size=1,
            max_size=6,
        ),
    )
    def test_polynomial_integrands_are_exact(self, seed, hurst, n, ell, coeffs):
        # For f of degree at most ell - 1 with levels (f, f', ..., f^(ell-1))
        # each cell's expansion is the full Taylor sum of F with F' = f, so
        # the compensated sum telescopes to F(x_t) - F(0) up to rounding.
        f = np.array(coeffs[:ell])
        x = sample_fbm(FbmSpec(hurst=hurst, n=n, seed=seed))
        levels = [P.polyval(x.values, P.polyder(f, j)) for j in range(ell)]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "integrand order", RuntimeWarning)
            out = rough_integral(ControlledPath(x, levels), x)

        antiderivative = P.polyint(f)
        expected = P.polyval(x.values, antiderivative) - antiderivative[0]
        # rounding scale: every Taylor term the sum adds, and every monomial of F
        dx = np.abs(np.diff(x.values))
        terms = sum(
            np.abs(levels[i - 1][:-1]) * dx**i / math.factorial(i) for i in range(1, ell + 1)
        )
        monomials = P.polyval(np.abs(x.values), np.abs(antiderivative))
        scale = np.concatenate([[0.0], np.cumsum(terms)]) + monomials
        error = np.abs(out.level(0) - expected)
        assert np.all(error <= 1e-12 * scale), f"worst relative error {np.max(error / scale):.2e}"

    def test_driver_mismatch_rejected(self):
        x1 = sample_fbm(FbmSpec(hurst=0.35, n=64, seed=22))
        x2 = sample_fbm(FbmSpec(hurst=0.35, n=64, seed=23))
        with pytest.raises(ValueError):
            rough_integral(_canonical(x1, 2), x2)

    def test_marginal_order_warns(self):
        x = sample_fbm(FbmSpec(hurst=0.5, n=64, seed=24))
        z = ControlledPath(x, [x.values], alpha=0.5)
        with pytest.warns(RuntimeWarning, match="marginal"):
            rough_integral(z, x)


# ---------------------------------------------------------------------------
# differential equation scheme
# ---------------------------------------------------------------------------


class TestSolveRde:
    """One-step scheme with iterated-field terms."""

    def test_constant_field_is_exact(self):
        x = sample_fbm(FbmSpec(hurst=0.3, n=256, seed=25))
        out = solve_rde(None, FunctionFamily.constant(1.0), 2.0, x, ell=3)
        assert np.allclose(out.level(0), 2.0 + x.values, atol=1e-14)

    def test_pure_drift_is_exact(self):
        x = sample_fbm(FbmSpec(hurst=0.3, n=256, seed=26))
        out = solve_rde(
            FunctionFamily.constant(1.0), FunctionFamily.constant(0.0), 0.5, x, ell=2
        )
        assert np.allclose(out.level(0), 0.5 + x.times, atol=1e-13)

    def test_linear_field_on_line_driver(self):
        # dy = y dx with x_t = t integrates to e^t; six levels on 64 cells
        # leave a global error around h^5 / 5!
        x = _line_driver(64)
        out = solve_rde(None, FunctionFamily.identity(), 1.0, x, ell=6)
        worst = np.max(np.abs(out.level(0) - np.exp(x.times)))
        print(f"  sup error vs exp(t): {worst:.2e}")
        assert worst < 1e-10

    def test_solution_levels_are_field_iterates(self):
        x = sample_fbm(FbmSpec(hurst=0.4, n=128, seed=27))
        out = solve_rde(None, FunctionFamily.identity(), 1.0, x, ell=4)
        y = out.level(0)
        for i in range(1, 4):
            assert np.array_equal(out.level(i), y), i

    def test_refine_attaches_fine_solution(self):
        x_fine = sample_fbm(FbmSpec(hurst=0.4, n=512, seed=28))
        out = subsample_controlled(
            solve_rde(None, FunctionFamily.identity(), 1.0, x_fine, ell=3), 8
        )
        assert out.n == 64
        assert out.fine is not None
        assert np.array_equal(out.level(0), out.fine.level(0)[::8])

    def test_blow_up_guard(self):
        x = sample_fbm(FbmSpec(hurst=0.5, n=256, seed=29))
        with pytest.raises(RuntimeError, match="blow-up"):
            solve_rde(
                FunctionFamily.polynomial([0.0, 0.0, 1.0]),
                FunctionFamily.constant(0.0),
                1e9,
                x,
                ell=2,
            )

    def test_blow_up_guard_catches_non_finite_state(self):
        # From 1e13 the field iterates of V(y) = 5 y^8 overflow to +inf from
        # the third on. On a falling driver their terms alternate in sign, so
        # the first step is inf - inf = NaN, which exceeds no guard. Under
        # numpy's default error handling, with every warning turned into an
        # error, the guard's RuntimeError must be the only report.
        x = FbmPath(FbmSpec(hurst=0.5, n=8, seed=0), np.linspace(0.0, -1.0, 9))
        field = FunctionFamily.polynomial([0.0] * 8 + [5.0], order=6)
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="blow-up guard"):
                solve_rde(None, field, 1e13, x, ell=6)

    def test_validation(self):
        x = sample_fbm(FbmSpec(hurst=0.5, n=256, seed=29))
        ident = FunctionFamily.identity()
        with pytest.raises(ValueError):
            solve_rde(None, ident, 1.0, x, ell=1)
        with pytest.raises(ValueError, match="divide"):
            build_controlled_process("custom-rde", x, fine_factor=7)
        with pytest.raises(ValueError):
            solve_rde(None, FunctionFamily.identity(order=2), 1.0, x, ell=5)


# ---------------------------------------------------------------------------
# subsampling
# ---------------------------------------------------------------------------


def test_subsample_controlled_consistency():
    x_fine = sample_fbm(FbmSpec(hurst=0.35, n=1024, seed=30))
    fine_cp = build_controlled_process("sq", x_fine)
    coarse = subsample_controlled(fine_cp, 8)
    assert coarse.n == 128
    assert coarse.fine is fine_cp and coarse.fine_factor == 8
    for i in range(coarse.ell):
        assert np.array_equal(coarse.level(i), fine_cp.level(i)[::8]), i
    assert coarse.quadrature_path() is fine_cp
    assert subsample_controlled(fine_cp, 1) is fine_cp
    with pytest.raises(ValueError):
        subsample_controlled(fine_cp, 7)
