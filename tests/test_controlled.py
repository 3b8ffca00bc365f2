"""Tests for controlled paths, remainders, the rough integral and the solver.

Covers:
  1. Construction from raw levels and validation of the level
     representation; stored levels read back as given, bit for bit and
     without a copy, at the fine grid and subsampled (Hypothesis).
  2. Remainders: exact zeros on polynomial tuples, closed-form small cases,
     and the exact midpoint decomposition identity on random level tuples,
     pinned and as a Hypothesis property with rows that start anywhere.
  3. The solver's polynomials give the bits of numpy's polyval, and its
     field iterates follow the chain rule, both as Hypothesis properties.
  4. The compensated-sum rough integral: polynomial exactness, pinned and
     as a Hypothesis property on random polynomial integrands, its coarse
     view, and the marginal-order warning.
  5. The one-step scheme for dy = b(y) dt + V(y) dx: exactly integrable
     cases, a deterministic-driver convergence check, the blow-up guard,
     the refusal of non-finite, empty or malformed inputs (a list y0, a
     non-integral ell) before the solve, and levels bit-identical to
     polyval-evaluated fields (Hypothesis).
  6. Coarsening a controlled path onto every k-th node.
  7. Constant levels given as scalars store no row: the closed-form
     builders' stored row counts, and a Hypothesis property that such a
     path agrees bit for bit with the one that stores every row.
  8. ``dataclasses.replace`` keeps every level and constant, as a
     Hypothesis property.
"""

import dataclasses
import math
import warnings

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roughpvar import (
    ControlledPath,
    FbmPath,
    FbmSpec,
    RunError,
    StatConfig,
    build_controlled_process,
    limit_cond_std,
    limit_drift,
    pvar_statistic,
    remainder,
    remainder_decomposition_residual,
    rough_integral,
    sample_fbm,
    solve_rde,
    subsample_controlled,
)
from roughpvar import controlled
from roughpvar.controlled import _decomposition_residuals, _field_iterates, _poly_callable
from streams import philox


def _canonical(x, ell):
    """The driver as a controlled path: levels (x, 1, 0, ...)."""
    rows = [x.values, np.ones_like(x.values)]
    rows += [np.zeros_like(x.values)] * (ell - 2)
    return ControlledPath(x, rows[:ell])


def _polyval_callable(coeffs):
    """``controlled._poly_callable`` evaluated by
    ``np.polynomial.polynomial.polyval``."""
    return lambda y: P.polyval(np.asarray(y, dtype=float), coeffs)


def _line_driver(n):
    """Deterministic unit-slope driver wrapped as a sampled path."""
    return FbmPath(FbmSpec(hurst=0.5, n=n), np.linspace(0.0, 1.0, n + 1))


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


class TestControlledPath:
    """Level representation invariants."""

    def test_from_raw_levels_normalizes(self):
        x = sample_fbm(FbmSpec(hurst=0.4, n=16), philox(1))
        raw = [3.0 + x.values, 2.0 * np.ones_like(x.values)]
        cp = ControlledPath(x, raw)
        assert cp.constants == () and cp.levels.shape == (2, 17)
        assert cp.levels.tobytes() == np.array(raw).tobytes()
        assert np.array_equal(cp.level(0), 3.0 + x.values)
        assert np.array_equal(cp.level(1), np.full(17, 2.0))
        assert cp.ell == 2 and cp.n == 16
        assert not cp.levels.flags.writeable

    def test_validation_errors(self):
        x = sample_fbm(FbmSpec(hurst=0.4, n=16), philox(1))
        good_row = np.zeros(17)
        with pytest.raises(ValueError):
            ControlledPath(x, np.zeros((1, 5)))
        with pytest.raises(ValueError):
            ControlledPath(x, np.zeros((0, 17)))
        with pytest.raises(ValueError, match="must be 2-d"):
            ControlledPath(x, np.zeros((1, 2, 17)))
        odd_fine = _canonical(sample_fbm(FbmSpec(hurst=0.4, n=24), philox(1)), 1)
        with pytest.raises(ValueError):
            ControlledPath(x, [good_row], fine=odd_fine)

    def test_quadrature_path_defaults_to_self(self):
        x = sample_fbm(FbmSpec(hurst=0.4, n=16), philox(1))
        cp = _canonical(x, 2)
        assert cp.quadrature_path() is cp
        assert cp.fine_factor == 1

    @pytest.mark.parametrize("tag", ["fbm", "sq", "exp-rde"])
    def test_stored_levels_are_read_without_a_copy(self, tag):
        x_fine = sample_fbm(FbmSpec(hurst=0.3, n=64), philox(2))
        coarse = build_controlled_process(tag, x_fine, 4, {"ell": 3})
        for cp in (coarse, coarse.fine):
            for i in range(cp.levels.shape[0]):
                assert np.shares_memory(cp.level_value(i), cp.levels), (cp.n, i)
                assert np.shares_memory(cp.level(i), cp.levels), (cp.n, i)
                assert not cp.level(i).flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ell=st.integers(1, 6),
        n=st.integers(2, 24),
        factor=st.sampled_from([1, 2, 4]),
        exp_like=st.booleans(),
    )
    def test_levels_read_back_as_given(self, seed, ell, n, factor, exp_like):
        # Rows start anywhere. Exp-like rows start at 1 with entries exp(2N),
        # the shape of exp-rde's levels.
        rng = np.random.default_rng(seed)
        cells = n * factor
        steps = rng.normal(size=cells) / math.sqrt(cells)
        x = FbmPath(FbmSpec(hurst=0.3, n=cells), np.concatenate([[0.0], np.cumsum(steps)]))
        if exp_like:
            rows = [np.exp(2.0 * rng.normal(size=cells + 1)) for _ in range(ell)]
            for row in rows:
                row[0] = 1.0
        else:
            rows = [rng.uniform(-100.0, 100.0) + rng.normal(size=cells + 1) for _ in range(ell)]
        fine = ControlledPath(x, rows)
        coarse = subsample_controlled(fine, factor)
        for i, row in enumerate(rows):
            assert _same_bits(fine.level(i), row), i
            assert _same_bits(coarse.level(i), row[::factor]), i


# ---------------------------------------------------------------------------
# remainders
# ---------------------------------------------------------------------------


class TestRemainder:
    """Taylor-type remainders of the level expansion."""

    def test_exact_zero_for_driver_tuple(self):
        x = sample_fbm(FbmSpec(hurst=0.35, n=64), philox(5))
        cp = _canonical(x, 2)
        s = np.arange(64) / 64.0
        t = np.arange(1, 65) / 64.0
        assert np.max(np.abs(remainder(cp, 0, s, t))) == 0.0

    def test_exact_zero_for_square_tuple(self):
        x = sample_fbm(FbmSpec(hurst=0.35, n=64), philox(6))
        cp = build_controlled_process("sq", x, params={"ell": 3})
        s = np.zeros(16)
        t = np.arange(1, 17) / 64.0
        for k in range(3):
            worst = np.max(np.abs(remainder(cp, k, s, t)))
            assert worst < 1e-14, f"level {k}: {worst:.2e}"

    def test_truncated_square_tuple_has_explicit_remainder(self):
        # with levels (x^2/2, x) the expansion stops one term early and the
        # remainder over any cell is exactly (dx)^2 / 2
        x = sample_fbm(FbmSpec(hurst=0.35, n=64), philox(7))
        cp = ControlledPath(x, [0.5 * x.values**2, x.values])
        dx = x.values[40] - x.values[8]
        got = remainder(cp, 0, 8 / 64.0, 40 / 64.0)
        assert got == pytest.approx(0.5 * dx * dx, rel=1e-12)

    def test_top_level_remainder_is_plain_increment(self):
        x = sample_fbm(FbmSpec(hurst=0.35, n=64), philox(8))
        cp = build_controlled_process("exp-rde", x, params={"ell": 3})
        got = remainder(cp, 2, 0.25, 1.0)
        expected = math.exp(x.values[64]) - math.exp(x.values[16])
        assert got == pytest.approx(expected, rel=1e-12)

    def test_level_index_domain(self):
        x = sample_fbm(FbmSpec(hurst=0.35, n=64), philox(8))
        cp = _canonical(x, 2)
        with pytest.raises(ValueError):
            remainder(cp, 2, 0.0, 1.0)
        with pytest.raises(ValueError):
            remainder(cp, -1, 0.0, 1.0)
        with pytest.raises(ValueError, match="does not lie on the grid"):
            remainder(cp, 0, 0.3, 1.0)
        with pytest.raises(ValueError, match="outside"):
            remainder(cp, 0, 0.0, 1.5)


class TestDecompositionIdentity:
    """Midpoint decomposition of the zeroth remainder, an exact identity."""

    @pytest.mark.parametrize("ell", [2, 3, 6])
    def test_random_level_tuples(self, ell):
        # the identity is structural: it holds for arbitrary level rows,
        # whether or not they satisfy any analytic remainder bound
        rng = np.random.default_rng(100 + ell)
        x = sample_fbm(FbmSpec(hurst=0.3, n=256), philox(9))
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
        # raw rows start at nonzero values, which the remainder arithmetic
        # reads as they are
        rng = np.random.default_rng(seed)
        values = np.concatenate([[0.0], np.cumsum(rng.normal(size=n))]) / math.sqrt(n)
        x = FbmPath(FbmSpec(hurst=0.3, n=n), values)
        raw = [offsets[m] + rng.normal(size=n + 1) for m in range(ell)]
        cp = ControlledPath(x, raw)
        assert cp.constants == () and _same_bits(cp.levels, raw)

        idx = np.sort(rng.integers(0, n + 1, size=(40, 3)), axis=1)
        i, u, j = idx[:, 0], idx[:, 1], idx[:, 2]
        residual = remainder_decomposition_residual(cp, i / n, u / n, j / n)
        _, scale = _decomposition_residuals(cp, i, u, j)
        bad = np.abs(residual) > 1e-12 * scale
        assert not np.any(bad), f"{int(np.sum(bad))} residuals above 1e-12 * scale"

    def test_scalar_form(self):
        x = sample_fbm(FbmSpec(hurst=0.3, n=64), philox(10))
        cp = build_controlled_process("exp-rde", x, params={"ell": 4})
        res = remainder_decomposition_residual(cp, 0.125, 0.5, 0.875)
        assert isinstance(res, float)
        assert abs(res) < 1e-13


# ---------------------------------------------------------------------------
# polynomials and field iterates
# ---------------------------------------------------------------------------


class TestPolyDerivatives:
    """The solver's polynomial evaluator, and the field iterates it builds
    from derivatives."""

    @settings(max_examples=300, deadline=None)
    @given(
        coeffs=st.lists(st.floats(width=64), min_size=1, max_size=7),
        ys=st.lists(st.floats(width=64), min_size=1, max_size=5),
    )
    def test_polynomial_is_polyval_bit_for_bit(self, coeffs, ys):
        # Horner on Python floats in polyval's order, on a Python float, a
        # 0-d and a 1-d array; the draws include infinities, NaN and overflow.
        # IEEE 754 leaves the payload of NaN + NaN open, so NaN results are
        # compared by position and every other result bit for bit.
        with np.errstate(all="ignore"):
            poly = _poly_callable(coeffs)
            for y in (ys[0], np.array(ys[0]), np.array(ys)):
                want = P.polyval(np.asarray(y, dtype=float), np.array(coeffs))
                got = poly(y)
                assert np.shape(got) == np.shape(want)
                got, want = np.asarray(got), np.asarray(want)
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan), y
                assert got[~nan].tobytes() == want[~nan].tobytes(), y

    def test_refuses_empty_coefficients(self):
        x = _line_driver(8)
        for coeffs in ([], [[1.0, 2.0]]):
            with pytest.raises(ValueError, match="nonempty 1-d"):
                _poly_callable(coeffs)
            with pytest.raises(ValueError, match="nonempty 1-d"):
                solve_rde(None, coeffs, 1.0, x, ell=2)
            with pytest.raises(ValueError, match="nonempty 1-d"):
                solve_rde(coeffs, [1.0], 1.0, x, ell=2)

    @settings(max_examples=300, deadline=None)
    @given(
        field=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
        y=st.floats(-2.0, 2.0),
    )
    def test_field_iterates_follow_the_chain_rule(self, field, y):
        # g_1 = V V', g_2 = V V'^2 + V^2 V'', g_3 = V V'^3 + 4 V^2 V' V'' + V^3 V'''
        def chain_rule_terms(coeffs, at):
            v = [P.polyval(at, P.polyder(coeffs, m)) for m in range(4)]
            return [
                [v[0] * v[1]],
                [v[0] * v[1] ** 2, v[0] ** 2 * v[2]],
                [v[0] * v[1] ** 3, 4 * v[0] ** 2 * v[1] * v[2], v[0] ** 3 * v[3]],
            ]

        iterates = _field_iterates(field, 4)
        assert iterates[0](y) == P.polyval(y, field)
        # Horner's rounding is relative to the polynomial at |coefficients|
        # and |y|, so the terms at those are the scale of each error; below
        # the smallest normal float, rounding is absolute.
        scales = chain_rule_terms(np.abs(field), abs(y))
        for m, (terms, scale) in enumerate(zip(chain_rule_terms(field, y), scales), 1):
            err = abs(iterates[m](y) - sum(terms))
            assert err <= 1e-12 * sum(scale) + np.finfo(float).tiny, (m, err)

    @given(value=st.floats(-10.0, 10.0), y=st.floats(-10.0, 10.0))
    def test_constant_field_has_zero_iterates(self, value, y):
        iterates = _field_iterates([value], 5)
        assert iterates[0](y) == value
        assert [g(y) for g in iterates[1:]] == [0.0] * 4


# ---------------------------------------------------------------------------
# rough integral
# ---------------------------------------------------------------------------


class TestRoughIntegral:
    """Compensated-sum integration against the driver."""

    def test_driver_against_itself_is_exact(self):
        x = sample_fbm(FbmSpec(hurst=0.35, n=128), philox(18))
        out = rough_integral(_canonical(x, 2), x)
        expected = 0.5 * x.values**2
        worst = np.max(np.abs(out.level(0) - expected))
        print(f"  sup error of int x dx vs x^2/2: {worst:.2e}")
        assert worst < 1e-14
        assert out.ell == 3

    def test_square_tuple_integrates_to_cube(self):
        x = sample_fbm(FbmSpec(hurst=0.35, n=128), philox(19))
        cp = build_controlled_process("sq", x, params={"ell": 3})
        out = rough_integral(cp, x)
        worst = np.max(np.abs(out.level(0) - x.values**3 / 6.0))
        assert worst < 1e-14

    def test_constant_integrand(self):
        x = sample_fbm(FbmSpec(hurst=0.35, n=128), philox(20))
        ones = np.ones_like(x.values)
        cp = ControlledPath(x, [ones, np.zeros_like(ones)])
        out = rough_integral(cp, x)
        assert np.allclose(out.level(0), x.values, atol=1e-15)

    def test_refine_returns_coarse_view(self):
        x_fine = sample_fbm(FbmSpec(hurst=0.35, n=512), philox(21))
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
        x = sample_fbm(FbmSpec(hurst=hurst, n=n), philox(seed))
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
        x1 = sample_fbm(FbmSpec(hurst=0.35, n=64), philox(22))
        x2 = sample_fbm(FbmSpec(hurst=0.35, n=64), philox(23))
        with pytest.raises(ValueError):
            rough_integral(_canonical(x1, 2), x2)

    def test_marginal_order_warns(self):
        x = sample_fbm(FbmSpec(hurst=0.5, n=64), philox(24))
        z = ControlledPath(x, [x.values])
        with pytest.warns(RuntimeWarning, match="marginal"):
            rough_integral(z, x)


# ---------------------------------------------------------------------------
# differential equation scheme
# ---------------------------------------------------------------------------


class TestSolveRde:
    """One-step scheme with iterated-field terms."""

    def test_constant_field_is_exact(self):
        x = sample_fbm(FbmSpec(hurst=0.3, n=256), philox(25))
        out = solve_rde(None, [1.0], 2.0, x, ell=3)
        assert np.allclose(out.level(0), 2.0 + x.values, atol=1e-14)

    def test_pure_drift_is_exact(self):
        x = sample_fbm(FbmSpec(hurst=0.3, n=256), philox(26))
        out = solve_rde([1.0], [0.0], 0.5, x, ell=2)
        assert np.allclose(out.level(0), 0.5 + x.times, atol=1e-13)

    def test_linear_field_on_line_driver(self):
        # dy = y dx with x_t = t integrates to e^t; six levels on 64 cells
        # leave a global error around h^5 / 5!
        x = _line_driver(64)
        out = solve_rde(None, [0.0, 1.0], 1.0, x, ell=6)
        worst = np.max(np.abs(out.level(0) - np.exp(x.times)))
        print(f"  sup error vs exp(t): {worst:.2e}")
        assert worst < 1e-10

    def test_solution_levels_are_field_iterates(self):
        x = sample_fbm(FbmSpec(hurst=0.4, n=128), philox(27))
        out = solve_rde(None, [0.0, 1.0], 1.0, x, ell=4)
        y = out.level(0)
        for i in range(1, 4):
            assert np.array_equal(out.level(i), y), i

    def test_refine_attaches_fine_solution(self):
        x_fine = sample_fbm(FbmSpec(hurst=0.4, n=512), philox(28))
        out = subsample_controlled(
            solve_rde(None, [0.0, 1.0], 1.0, x_fine, ell=3), 8
        )
        assert out.n == 64
        assert out.fine is not None
        assert np.array_equal(out.level(0), out.fine.level(0)[::8])

    @settings(max_examples=25, deadline=None)
    @given(
        field=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
        drift=st.none() | st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
        y0=st.floats(-1.0, 1.0),
        ell=st.integers(2, 6),
        seed=st.integers(0, 2**16),
    )
    def test_polynomial_fields_match_polyval_bit_for_bit(self, field, drift, y0, ell, seed):
        # the same fields evaluated by np.polynomial.polynomial.polyval give
        # the same levels, or the same blow-up, bit for bit
        x = sample_fbm(FbmSpec(hurst=0.3, n=128), philox(seed))

        def solve():
            try:
                cp = solve_rde(drift, field, y0, x, ell)
            except RunError as err:
                return str(err)
            return [np.asarray(cp.level(j)).tobytes() for j in range(cp.ell)]

        horner = solve()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(controlled, "_poly_callable", _polyval_callable)
            assert solve() == horner

    def test_blow_up_guard(self):
        x = sample_fbm(FbmSpec(hurst=0.5, n=256), philox(29))
        with pytest.raises(RunError, match="blow-up"):
            solve_rde([0.0, 0.0, 1.0], [0.0], 1e9, x, ell=2)

    def test_blow_up_guard_catches_non_finite_state(self):
        # From 1e13 the field iterates of V(y) = 5 y^8 overflow to +inf from
        # the third on. On a falling driver their terms alternate in sign, so
        # the first step is inf - inf = NaN, which exceeds no guard. Under
        # numpy's default error handling, with every warning turned into an
        # error, the guard's RunError must be the only report.
        x = FbmPath(FbmSpec(hurst=0.5, n=8), np.linspace(0.0, -1.0, 9))
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            with pytest.raises(RunError, match="blow-up guard"):
                solve_rde(None, [0.0] * 8 + [5.0], 1e13, x, ell=6)

    def test_validation(self):
        x = sample_fbm(FbmSpec(hurst=0.5, n=256), philox(29))
        with pytest.raises(ValueError):
            solve_rde(None, [0.0, 1.0], 1.0, x, ell=1)
        with pytest.raises(ValueError, match="ell must be an integer, got 2.5"):
            solve_rde(None, [0.0, 1.0], 1.0, x, ell=2.5)
        assert solve_rde(None, [0.0, 1.0], 1.0, x, ell=3.0).ell == 3
        with pytest.raises(ValueError, match="divide"):
            build_controlled_process("custom-rde", x, fine_factor=7)
        with pytest.raises(ValueError, match="unknown process 'ou'; known: "):
            build_controlled_process("ou", x)

    @pytest.mark.parametrize(
        "params, match",
        [
            ({"y0": math.nan}, "y0 must be finite"),
            ({"y0": -math.inf}, "y0 must be finite"),
            ({"field_coeffs": (0.0, math.nan)}, "field_coeffs must be finite"),
            ({"drift_coeffs": (math.inf,)}, "drift_coeffs must be finite"),
        ],
    )
    def test_non_finite_inputs_refused_before_the_solve(self, params, match):
        # Before the refusal, these reached the solver and stopped at its
        # blow-up guard, reported as a blow-up at step 1.
        x = sample_fbm(FbmSpec(hurst=0.3, n=64), philox(29))
        with pytest.raises(ValueError, match=match):
            build_controlled_process("custom-rde", x, params=params)

    @pytest.mark.parametrize(
        "params, match",
        [
            ({"y0": [1.0, 2.0]}, r"y0 must be one number, got \[1.0, 2.0\]"),
            ({"y0": None}, "y0 must be one number"),
            ({"field_coeffs": None}, "field_coeffs must be a nonempty 1-d sequence"),
            ({"ell": 2.7}, "ell must be an integer, got 2.7"),
            ({"ell": math.nan}, "ell must be an integer"),
        ],
    )
    def test_malformed_inputs_refused_before_the_solve(self, params, match):
        # Before the refusal, a list y0 raised TypeError inside the solve, an
        # ell of 2.7 ran with 2 levels, and a field of None reached the solver.
        x = sample_fbm(FbmSpec(hurst=0.3, n=64), philox(29))
        with pytest.raises(ValueError, match=match):
            build_controlled_process("custom-rde", x, params=params)

    @pytest.mark.parametrize("ell", [3, 3.0, np.int64(3)])
    def test_integral_ell_accepted(self, ell):
        # a manifest may hold the level count as a float
        x = sample_fbm(FbmSpec(hurst=0.3, n=64), philox(29))
        assert build_controlled_process("custom-rde", x, params={"ell": ell}).ell == 3


# ---------------------------------------------------------------------------
# subsampling
# ---------------------------------------------------------------------------


def test_subsample_controlled_consistency():
    x_fine = sample_fbm(FbmSpec(hurst=0.35, n=1024), philox(30))
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


# ---------------------------------------------------------------------------
# levels without a stored row
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tag, stored", [("fbm", 1), ("sq", 2), ("cube", 3), ("exp-rde", 6)])
def test_closed_forms_store_only_non_constant_rows(tag, stored):
    x_fine = sample_fbm(FbmSpec(hurst=0.3, n=256), philox(31))
    cp = build_controlled_process(tag, x_fine, 4, {"ell": 6})
    assert cp.ell == 6 and len(cp.constants) == 6 - stored
    assert cp.fine.ell == 6 and cp.fine.constants == cp.constants
    assert cp.fine.levels.shape == (stored, 257)
    assert cp.levels.shape == (stored, 65)


def test_scalar_before_an_array_level_is_stored():
    x = _line_driver(8)
    cp = ControlledPath(x, [x.values, 2.0, x.values, 0.0])
    assert cp.ell == 4 and cp.levels.shape == (3, 9)
    assert cp.constants == (0.0,)
    assert np.array_equal(cp.levels[1], np.full(9, 2.0))
    assert np.array_equal(cp.level(3), np.zeros(9))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_paths(a, b):
    """Every level bit for bit, whether it is stored as a row or a constant."""
    return a.ell == b.ell and all(_same_bits(a.level(i), b.level(i)) for i in range(a.ell))


class TestLevelsWithoutRows:
    """Scalar constant levels read exactly as full constant rows."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ell=st.integers(2, 6),
        arrays=st.integers(1, 6),
        n=st.integers(2, 24),
        factor=st.sampled_from([1, 2, 4]),
        constants=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
        p=st.sampled_from([2.0, 3.0, 4.0]),
    )
    # a constant second level whose square C's pow rounds away from c * c
    @example(seed=0, ell=3, arrays=1, n=2, factor=1,
             constants=[0.0, 1.7398500819005398, 0.0, 0.0, 0.0, 0.0], p=2.0)
    def test_trimmed_path_matches_full_path(self, seed, ell, arrays, n, factor, constants, p):
        rng = np.random.default_rng(seed)
        cells = n * factor
        steps = rng.normal(size=cells) / math.sqrt(cells)
        x = FbmPath(FbmSpec(hurst=0.3, n=cells), np.concatenate([[0.0], np.cumsum(steps)]))
        arrays = min(arrays, ell)
        rows = [rng.normal() + rng.normal(size=cells + 1) for _ in range(arrays)]
        trailing = constants[: ell - arrays]
        trimmed = ControlledPath(x, rows + trailing)
        full = ControlledPath(x, rows + [np.full(cells + 1, c) for c in trailing])
        assert trimmed.levels.shape == (arrays, cells + 1)
        assert full.levels.shape == (ell, cells + 1)
        assert _same_paths(trimmed, full)

        idx = np.sort(rng.integers(0, cells + 1, size=(30, 3)), axis=1)
        i, u, j = (idx[:, m] / cells for m in range(3))
        for k in range(ell):
            assert _same_bits(remainder(trimmed, k, i, j), remainder(full, k, i, j)), k
        assert _same_bits(
            remainder_decomposition_residual(trimmed, i, u, j),
            remainder_decomposition_residual(full, i, u, j),
        )

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # marginal order
            assert _same_paths(rough_integral(trimmed, x), rough_integral(full, x))

        coarse_trimmed = subsample_controlled(trimmed, factor)
        coarse_full = subsample_controlled(full, factor)
        assert _same_paths(coarse_trimmed, coarse_full)
        cfg = StatConfig(p=p)
        assert _same_bits(pvar_statistic(coarse_trimmed, cfg), pvar_statistic(coarse_full, cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # fewer than 4 levels
            assert _same_bits(limit_drift(coarse_trimmed, p), limit_drift(coarse_full, p))
        assert _same_bits(
            limit_cond_std(coarse_trimmed, p), limit_cond_std(coarse_full, p)
        )


class TestReplace:
    """``dataclasses.replace`` passes the stored form back in."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        tag=st.sampled_from(["raw", "fbm", "sq", "cube", "exp-rde"]),
        ell=st.integers(2, 6),
        arrays=st.integers(1, 6),
        n=st.integers(2, 24),
        factor=st.sampled_from([1, 2, 4]),
        constants=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
    )
    def test_round_trip_keeps_every_level_and_offset(
        self, seed, tag, ell, arrays, n, factor, constants
    ):
        rng = np.random.default_rng(seed)
        cells = n * factor
        steps = rng.normal(size=cells) / math.sqrt(cells)
        x = FbmPath(FbmSpec(hurst=0.3, n=cells), np.concatenate([[0.0], np.cumsum(steps)]))
        if tag == "raw":
            arrays = min(arrays, ell)
            rows = [rng.normal() + rng.normal(size=cells + 1) for _ in range(arrays)]
            cp = subsample_controlled(ControlledPath(x, rows + constants[: ell - arrays]), factor)
        else:
            cp = build_controlled_process(tag, x, factor, params={"ell": ell})
        copy = dataclasses.replace(cp)
        assert copy.fine is cp.fine and copy.x is cp.x
        assert _same_bits(copy.levels, cp.levels)
        assert _same_bits(copy.constants, cp.constants)
        assert _same_paths(copy, cp)
        if cp.fine is not None:
            assert _same_paths(dataclasses.replace(cp.fine), cp.fine)
