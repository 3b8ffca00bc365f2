"""Tests for the Hermite expansion layer behind the limit constants.

Covers:
  1. The probabilists' Hermite recurrence against numpy's hermite_e oracle.
  2. Gaussian absolute moments: exact small cases, the p -> p+2 recurrence,
     and a quadrature cross-check; the in-package ports of scipy's ``ndtr``
     and Gamma, and the moments built on them, bit for bit against scipy.
  3. The weights (2q)! c_q^2 that the asymptotic variance sums, from the
     even Hermite coefficients c_q of |x|^p: against the literal
     alternating projection sum, Gauss-Hermite quadrature for even p and
     adaptive quadrature for kinked powers.
  4. The asymptotic variance series: independent-increment exact values,
     a hand-built lag-sum oracle for p = 2, a closed-form oracle for other
     p through 2F1, frozen bits at and away from the default cutoff, the
     memory bound of one evaluation, domain errors, and the truncation-tail
     warning, whose estimate covers the Hermite mass the series drops; the
     leaf-by-leaf lag sum against ``np.sum``, bit for bit.
  5. The first two derivatives of |x|^p that the drift reads.
"""

import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from roughpvar import (
    asymptotic_variance,
    gaussian_abs_moment,
    hermite,
    hermite_coeffs_numeric,
)
from roughpvar.fbm import fgn_autocovariance
from roughpvar.hermite import (
    _SUM_LEAF,
    HERMITE_TERMS,
    LAG_CUTOFF,
    _pairwise_sum,
    gamma,
    ndtr,
    validate_variance_domain,
    variance_weights,
)
from roughpvar.stats import _abs_power_derivatives


# ---------------------------------------------------------------------------
# Hermite polynomials
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 10, 25])
def test_hermite_matches_numpy_hermite_e(degree):
    x = np.linspace(-3.0, 3.0, 41)
    basis = np.zeros(degree + 1)
    basis[degree] = 1.0
    expected = np.polynomial.hermite_e.hermeval(x, basis)
    got = hermite(degree, x)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-9), degree


def test_hermite_small_cases_and_scalars():
    assert hermite(0, 1.7) == 1.0
    assert hermite(1, 1.7) == pytest.approx(1.7, abs=0.0)
    assert hermite(2, 2.0) == pytest.approx(3.0, abs=1e-15)  # x^2 - 1
    assert hermite(3, 2.0) == pytest.approx(2.0, abs=1e-15)  # x^3 - 3x
    with pytest.raises(ValueError):
        hermite(-1, 0.0)


# ---------------------------------------------------------------------------
# Gaussian absolute moments
# ---------------------------------------------------------------------------


def test_abs_moment_exact_values():
    assert gaussian_abs_moment(0.0) == pytest.approx(1.0, rel=1e-14)
    assert gaussian_abs_moment(1.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)
    assert gaussian_abs_moment(2.0) == pytest.approx(1.0, rel=1e-14)
    assert gaussian_abs_moment(4.0) == pytest.approx(3.0, rel=1e-14)
    assert gaussian_abs_moment(6.0) == pytest.approx(15.0, rel=1e-14)
    assert gaussian_abs_moment(8.0) == pytest.approx(105.0, rel=1e-14)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0, 3.7])
def test_abs_moment_recurrence(p):
    # integration by parts: E|N|^{p+2} = (p+1) E|N|^p
    assert gaussian_abs_moment(p + 2.0) == pytest.approx(
        (p + 1.0) * gaussian_abs_moment(p), rel=1e-13
    )


def test_abs_moment_quadrature_oracle():
    # adaptive quadrature on the half line (the integrand is even); this
    # handles the kink at zero, which Gauss-Hermite nodes resolve poorly
    for p in (1.5, 2.5, 3.0):
        val, err = scipy.integrate.quad(
            lambda x: 2.0 * x**p * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
            0.0,
            np.inf,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        assert err < 1e-10
        assert gaussian_abs_moment(p) == pytest.approx(val, rel=1e-9), p


def test_abs_moment_domain():
    with pytest.raises(ValueError):
        gaussian_abs_moment(-1.0)


# ---------------------------------------------------------------------------
# the Cephes ports: scipy's bits without importing scipy
# ---------------------------------------------------------------------------


def _bits(values) -> str:
    return np.asarray(values, dtype=float).tobytes().hex()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(-40.0, 40.0),  # every branch of erf and erfc
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        ),
        min_size=1,
        max_size=100,
    )
)
def test_ndtr_is_scipy_ndtr_bit_for_bit(values):
    assert _bits(ndtr(values)) == _bits(scipy.special.ndtr(values))


def test_ndtr_at_its_branch_points():
    # |a| / sqrt(2) crosses 1/sqrt(2), 1 and 8, and exp(-a^2 / 2) underflows
    edges = np.array([1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 709.78)])
    near = edges[:, None] * (1.0 + np.linspace(-1e-6, 1e-6, 2001))
    values = np.concatenate([near.ravel(), -near.ravel(), np.linspace(-40.0, 40.0, 100001)])
    assert _bits(ndtr(values)) == _bits(scipy.special.ndtr(values))


@settings(max_examples=500, deadline=None)
@given(st.floats(0.0, 33.0, exclude_min=True, allow_subnormal=True))
def test_gamma_is_scipy_gamma_bit_for_bit_up_to_33(x):
    assert _bits(gamma(x)) == _bits(scipy.special.gamma(x))


def test_gamma_on_tiny_and_gridded_arguments():
    # below 1e-9 Cephes leaves the recurrence for a series term
    values = np.concatenate(
        [np.geomspace(1e-300, 1e-9, 20001), np.linspace(0.0, 33.0, 100001)[1:]]
    )
    assert _bits([gamma(x) for x in values.tolist()]) == _bits(scipy.special.gamma(values))


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 40.0, 70.0])
def test_abs_moment_is_scipy_formula_bit_for_bit(p):
    # the moments σ² reads, E|N|^p and E|N|^(2p); 40 and 70 reach Gamma
    # above 33, which scipy computes
    for q in (p, 2.0 * p):
        expected = 2.0 ** (q / 2.0) * scipy.special.gamma((q + 1.0) / 2.0) / math.sqrt(math.pi)
        assert _bits(gaussian_abs_moment(q)) == _bits(expected), q


# ---------------------------------------------------------------------------
# expansion coefficients of |x|^p
# ---------------------------------------------------------------------------


def _coeff_by_alternating_sum(p, q):
    # literal projection: the degree-2q polynomial expanded monomial by
    # monomial, E[|N|^p He_2q(N)] / (2q)! =
    #   sum_m (-1/2)^m c_{p + 2q - 2m} / (m! (2q - 2m)!)
    total = 0.0
    for m in range(q + 1):
        total += (
            (-0.5) ** m
            * gaussian_abs_moment(p + 2.0 * (q - m))
            / (math.factorial(m) * math.factorial(2 * q - 2 * m))
        )
    return total


def _coeff_from_weight(weights, q):
    # |c_q| from the weight (2q)! c_q^2, and 0 once the list has ended
    if q > len(weights):
        return 0.0
    return math.sqrt(weights[q - 1] / math.factorial(2 * q))


def test_coeff_known_values():
    # |x|^2 = He_2(x) + 1: the weight 2! * 1^2 at q = 1, nothing above
    assert variance_weights(2.0, 40) == [pytest.approx(2.0, rel=1e-14)]
    # |x|^3 at degree 2: c_1 = 3/2 * E|N|^3 = 3 E|N| = 3 sqrt(2 / pi)
    assert variance_weights(3.0, 1) == [pytest.approx(2.0 * 9.0 * 2.0 / math.pi, rel=1e-13)]
    # x^4 = He_4 + 6 He_2 + 3: 2! * 6^2 and 4! * 1^2, nothing above
    assert variance_weights(4.0, 40) == [
        pytest.approx(72.0, rel=1e-14),
        pytest.approx(24.0, rel=1e-14),
    ]
    assert len(variance_weights(2.5, 40)) == 40


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
def test_coeff_product_form_vs_alternating_sum(p):
    # the alternating route cancels, so its exact zeros come out as roundoff
    # dust; compare |c_q| with an absolute floor at that scale
    weights = variance_weights(p, 8)
    for q in range(1, 9):
        lit = abs(_coeff_by_alternating_sum(p, q))
        got = _coeff_from_weight(weights, q)
        assert got == pytest.approx(lit, rel=1e-8, abs=1e-13), (p, q, got, lit)


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_coeff_vs_gauss_hermite_for_polynomials(p):
    # Gauss-Hermite is exact on polynomials, so even p admits a tight bound:
    # each weight within 1e-10 relative of (2q)! c_q^2, and the coefficients
    # past the list's end within 1e-10 of zero
    numeric = hermite_coeffs_numeric(lambda u: np.abs(u) ** p, 12)
    weights = variance_weights(p, 6)
    assert len(weights) == int(p) // 2
    for q in range(1, 7):
        if q <= len(weights):
            oracle = math.factorial(2 * q) * numeric[2 * q] ** 2
            assert weights[q - 1] == pytest.approx(oracle, rel=1e-10), (p, q)
        else:
            assert abs(numeric[2 * q]) <= 1e-10, (p, q)
    odd = np.max(np.abs(numeric[1::2]))
    assert odd < 1e-10, f"odd coefficients of an even function: {odd:.2e}"


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_coeff_vs_adaptive_quadrature_for_kinked_powers(p):
    # fractional and odd powers have a kink at zero, so the oracle here is
    # adaptive quadrature on the half line (integrands are even); quad may
    # flag roundoff while refining the oscillatory high-degree integrands,
    # and the achieved error bound is asserted on below regardless
    weights = variance_weights(p, 4)
    for q in range(1, 5):
        oracle, err = _coeff_by_adaptive_quadrature(p, q)
        assert err < 1e-10
        got = _coeff_from_weight(weights, q)
        assert got == pytest.approx(abs(oracle), rel=1e-8, abs=1e-12), (p, q)


def _coeff_by_adaptive_quadrature(p, q):
    # E[|N|^p He_2q(N)] / (2q)! and its error bound
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        val, err = scipy.integrate.quad(
            lambda x: 2.0 * x**p * hermite(2 * q, x) * math.exp(-0.5 * x * x)
            / math.sqrt(2.0 * math.pi),
            0.0,
            np.inf,
            epsabs=1e-13,
            epsrel=1e-13,
        )
    return val / math.factorial(2 * q), err / math.factorial(2 * q)


def test_coeffs_numeric_recovers_hermite_basis():
    numeric = hermite_coeffs_numeric(lambda u: hermite(3, u), 6)
    expected = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    assert np.allclose(numeric, expected, atol=1e-10), numeric
    with pytest.raises(ValueError, match="nonnegative"):
        hermite_coeffs_numeric(lambda u: u, -1)


# ---------------------------------------------------------------------------
# asymptotic variance
# ---------------------------------------------------------------------------


class TestAsymptoticVariance:
    """Limit variance of the centered, normalized power variation."""

    def test_independent_increments_quadratic(self):
        # Var(N^2) = 3 - 1 = 2; finite series, exact up to rounding
        assert asymptotic_variance(2.0, 0.5) == pytest.approx(2.0, abs=1e-8)

    def test_independent_increments_quartic(self):
        # Var(N^4) = 105 - 9 = 96
        assert asymptotic_variance(4.0, 0.5) == pytest.approx(96.0, abs=1e-6)

    def test_independent_increments_cubic(self):
        # Var(|N|^3) = 15 - 8/pi; infinite series, generous truncation
        got = asymptotic_variance(3.0, 0.5, hermite_terms=120, lag_cutoff=1000)
        expected = 15.0 - 8.0 / math.pi
        assert got == pytest.approx(expected, rel=1e-7)

    def test_quadratic_correlated_vs_lag_sum_oracle(self):
        # for p = 2 the series is the single term 2 * sum_k rho(k)^2,
        # assembled here directly from the autocovariance
        hurst, cutoff = 0.25, 10**6
        rho = fgn_autocovariance(np.arange(1, cutoff + 1), hurst)
        oracle = 2.0 * (1.0 + 2.0 * float(np.sum(rho * rho)))
        got = asymptotic_variance(2.0, hurst, lag_cutoff=cutoff)
        print(f"  sigma^2(2, 0.25): series {got:.10f}, oracle {oracle:.10f}")
        assert got == pytest.approx(oracle, rel=1e-10)

    # E|X|^p |Y|^p = m_p^2 2F1(-p/2, -p/2; 1/2; rho^2) for a standard
    # Gaussian pair with correlation rho, so the series equals
    # Var|N|^p + 2 sum_k m_p^2 (2F1(rho(k)^2) - 1) over the same lags, with
    # no Hermite coefficients involved. The bound was set before the first
    # run; the largest gap seen is 1.4e-7, at (2.5, 0.1). Each pair is one
    # the series does not warn about at the default truncation.
    @pytest.mark.parametrize("p, hurst", [(2.5, 0.1), (3.0, 0.3), (4.0, 0.2), (5.0, 0.4)])
    def test_series_vs_hypergeometric_oracle(self, p, hurst):
        rho = fgn_autocovariance(np.arange(1, LAG_CUTOFF + 1), hurst)
        m_p = gaussian_abs_moment(p)
        excess = scipy.special.hyp2f1(-p / 2.0, -p / 2.0, 0.5, rho * rho) - 1.0
        oracle = gaussian_abs_moment(2.0 * p) - m_p**2 + 2.0 * m_p**2 * float(excess.sum())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = asymptotic_variance.__wrapped__(p, hurst)
        print(f"  sigma^2({p}, {hurst}): series {got!r}, oracle {oracle!r}")
        assert got == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize(
        "p, hurst, bits",
        [
            (2.0, 0.1, "0x1.5d39256ef98a2p+1"),
            (2.0, 0.25, "0x1.2dc226119e48fp+1"),
            (4.0, 0.2, "0x1.c6dbc0859b4acp+6"),
            (4.0, 0.35, "0x1.96ab0318e9054p+6"),
            (2.5, 0.1, "0x1.a65ea90e10bd0p+2"),
            (2.5, 0.3, "0x1.5d4d95a24506cp+2"),
            (3.0, 0.2, "0x1.e64714e8a0c75p+3"),
            (3.0, 0.4, "0x1.9cc23d7f80b89p+3"),
            (5.0, 0.15, "0x1.0c5990f517bbfp+10"),
        ],
    )
    def test_frozen_bits(self, p, hurst, bits):
        # σ² at the default truncation, bit for bit: splitting, reordering
        # or shortening the lag pass must not move a single bit
        assert asymptotic_variance(p, hurst).hex() == bits

    # σ² at orders other than the defaults, passed as keywords; both values
    # were read while the orders still travelled in one config object
    @pytest.mark.parametrize(
        "p, hurst, orders, bits",
        [
            (3.0, 0.5, {"hermite_terms": 120, "lag_cutoff": 1000}, "0x1.8e833e423aa39p+3"),
            (2.0, 0.25, {"lag_cutoff": 8193}, "0x1.2dc226109e656p+1"),
        ],
    )
    def test_frozen_bits_through_keywords(self, p, hurst, orders, bits):
        assert asymptotic_variance(p, hurst, **orders).hex() == bits

    # σ² away from the default cutoff, where the lag sums' pairwise trees
    # have odd splits and single leaves; the digest was read before the lag
    # sums were split into leaves, so a change of summation order fails here
    def test_frozen_bits_across_cutoffs(self):
        cutoffs = (1, 7, 8, 9, 128, 129, 8192, 8193, 32769, 65537, 100003, 999999)
        pairs = ((2.0, 0.25), (3.0, 0.3), (2.5, 0.1), (4.0, 0.2), (1.5, 0.45))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            bits = [
                asymptotic_variance.__wrapped__(p, hurst, lag_cutoff=cutoff).hex()
                for p, hurst in pairs
                for cutoff in cutoffs
            ]
        digest = hashlib.sha256(" ".join(bits).encode()).hexdigest()
        assert digest == "6ce639c4162b7acf86f2903718131c92c56be68a8b85b732dcd7ebae730fef92"

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_lag_pass_holds_no_cutoff_length_array(self, p):
        # uncached, so the lag pass runs; it holds one leaf of 2**13 lags at
        # a time (ρ², its power and their block temporaries), not 8 MB a lag
        # array, whether the series ends at q = 1 (p = 2) or not
        cutoff = 10**6
        tracemalloc.start()
        try:
            asymptotic_variance.__wrapped__(p, 0.3, lag_cutoff=cutoff)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        print(f"  peak {peak / 2**20:.2f} MiB at p = {p}")
        assert peak <= 2**20

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_one_evaluation_holds_two_lag_arrays(self, p):
        # uncached, so the lag pass runs; the older ceiling of two
        # cutoff-length arrays plus 4 MiB for the blocks still holds
        cutoff = 10**6
        tracemalloc.start()
        try:
            asymptotic_variance.__wrapped__(p, 0.3, lag_cutoff=cutoff)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        print(f"  peak {peak / 2**20:.1f} MiB at p = {p}")
        assert peak <= 2 * 8 * cutoff + 4 * 2**20

    def test_series_that_ends_at_q1_holds_one_lag_array(self):
        # uncached at p = 2, where the series has one term: at most one
        # cutoff-length array's worth, plus 4 MiB for the blocks
        cutoff = 10**6
        tracemalloc.start()
        try:
            asymptotic_variance.__wrapped__(2.0, 0.25, lag_cutoff=cutoff)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        print(f"  peak {peak / 2**20:.1f} MiB")
        assert peak <= 8 * cutoff + 4 * 2**20

    def test_positive_and_cached(self):
        first = asymptotic_variance(2.0, 0.35)
        second = asymptotic_variance(2.0, 0.35)
        assert first > 0.0
        assert first == second

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            asymptotic_variance(0.5, 0.3)
        with pytest.raises(ValueError):
            asymptotic_variance(2.0, 0.75)
        with pytest.raises(ValueError):
            asymptotic_variance(2.0, 0.9)

    def test_truncation_tail_warning(self):
        # near hurst = 3/4 the lag sums decay like k^{-0.4}; a cutoff of 17
        # lags leaves visible mass behind and must be reported
        with pytest.warns(RuntimeWarning, match="truncation tail"):
            asymptotic_variance(2.0, 0.7, lag_cutoff=17)

    # The weights (2q)! c_q^2 sum to Var|N|^p (Parseval) and every lag sum
    # is at least 1, so a series cut after `terms` terms drops at least what
    # the kept weights leave of Var|N|^p; the reported tail must cover it.
    @pytest.mark.parametrize(
        "p, hurst, terms", [(1.5, 0.35, 40), (2.5, 0.2, 4), (3.0, 0.1, 2), (5.5, 0.3, 3)]
    )
    def test_tail_estimate_covers_the_lag0_remainder(self, p, hurst, terms):
        kept = sum(variance_weights(p, terms))
        remainder = gaussian_abs_moment(2.0 * p) - gaussian_abs_moment(p) ** 2 - kept
        with pytest.warns(RuntimeWarning, match="truncation tail") as record:
            asymptotic_variance.__wrapped__(p, hurst, hermite_terms=terms)
        reported = re.search(r"tail ~(\S+) exceeds", str(record[0].message)).group(1)
        print(f"  ({p}, {hurst}, {terms}): reported {reported}, remainder {remainder:.3g}")
        # the message rounds to 3 digits, so compare after the same rounding
        assert float(reported) >= float(f"{remainder:.3g}")

    def test_truncation_order_refusals(self):
        # the orders are checked before (p, hurst), so an order below 1 is
        # named even where p is refused too
        with pytest.raises(ValueError, match="hermite_terms must be >= 1"):
            asymptotic_variance(2.0, 0.3, hermite_terms=0)
        with pytest.raises(ValueError, match="lag_cutoff must be >= 1"):
            asymptotic_variance(2.0, 0.3, lag_cutoff=0)
        with pytest.raises(ValueError, match="lag_cutoff must be >= 1"):
            asymptotic_variance(0.5, 0.3, lag_cutoff=0)
        # an order that is not an integer is refused before it reaches
        # range(), np.empty or the pairwise lag-sum recursion; numpy
        # integers are integers
        for name, order in (("hermite_terms", 2.5), ("hermite_terms", math.nan),
                            ("lag_cutoff", 1000.5), ("lag_cutoff", math.nan),
                            ("hermite_terms", True), ("lag_cutoff", True)):
            with pytest.raises(ValueError, match=f"{name} must be an integer, got {order!r}"):
                asymptotic_variance(2.0, 0.3, **{name: order})
        validate_variance_domain(2.0, 0.3, np.int64(2), np.int64(1000))
        # a p or hurst that is not a number raised TypeError from its range
        # check, and a bool p ran as p = 1
        for args, match in (
            (("2", 0.3, 10, 10), "p must be a number, got '2'"),
            ((True, 0.3, 10, 10), "p must be a number, got True"),
            ((2.0, None, 10, 10), "hurst must be a number, got None"),
        ):
            with pytest.raises(ValueError, match=match):
                validate_variance_domain(*args)


# numpy's pairwise tree has a leaf below 8 items, an 8-accumulator loop up
# to 128, and halves rounded to multiples of 8 above; the lengths straddle
# each of these and the helper's own leaf
_TREE_LENGTHS = st.one_of(
    st.integers(1, 7),
    st.integers(8, 128),
    st.sampled_from(
        [_SUM_LEAF - 1, _SUM_LEAF, _SUM_LEAF + 1, 2 * _SUM_LEAF - 1, 2 * _SUM_LEAF, 2 * _SUM_LEAF + 1]
    ),
    st.integers(1, 300_000 // 8).map(lambda k: 8 * k),
    st.integers(0, 150_000).map(lambda k: 2 * k + 1),
)
_SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan)


@settings(max_examples=60, deadline=None)
@given(
    n=_TREE_LENGTHS,
    seed=st.integers(0, 2**32 - 1),
    center=st.integers(-300, 300),
    spread=st.integers(0, 6),
    specials=st.lists(st.sampled_from(_SPECIALS), max_size=4),
    zeros=st.booleans(),
)
def test_pairwise_sum_is_np_sum_bit_for_bit(n, seed, center, spread, specials, zeros):
    # magnitudes around 10**center, from 1e-300 to 1e300, within a few
    # decades of each other so that every rounding counts, of both signs
    # (or signed zeros only, whose total is a zero of either sign), with
    # signed zeros, infinities and NaN at random places; the tree, summed
    # leaf by leaf, must give the bits of one np.sum over the whole array.
    # float.hex() tells every finite value, zero sign and infinity apart;
    # a NaN's sign is whichever operand the compiled add keeps, so NaN
    # compares as NaN
    rng = np.random.default_rng(seed)
    exponents = center + spread * rng.uniform(-0.5, 0.5, n)
    values = rng.choice([-1.0, 1.0], n) * 10.0**exponents
    if zeros:
        values = np.copysign(0.0, values)
    values[rng.integers(0, n, len(specials))] = specials
    with np.errstate(invalid="ignore"):  # inf - inf is NaN here, as in np.sum
        got = _pairwise_sum(lambda start, m: np.sum(values[start : start + m]), 0, n)
        want = np.sum(values)
    assert float(got).hex() == float(want).hex()


# ---------------------------------------------------------------------------
# the derivatives of |x|^p that the drift reads
# ---------------------------------------------------------------------------


class TestAbsPowerFamily:
    """phi' and phi'' of phi = |x|^p, from ``stats._abs_power_derivatives``."""

    def test_even_integer_cases(self):
        dphi, d2phi = _abs_power_derivatives(2.0, np.array([-3.0, 0.0, 5.0]))
        assert dphi.tolist() == [-6.0, 0.0, 10.0]
        assert d2phi.tolist() == [2.0, 2.0, 2.0]
        dphi, d2phi = _abs_power_derivatives(4.0, np.array([-2.0, 0.0]))
        assert dphi.tolist() == [-32.0, 0.0]
        assert d2phi.tolist() == [48.0, 0.0]

    def test_odd_integer_sign_convention(self):
        dphi, d2phi = _abs_power_derivatives(3.0, np.array([-2.0, 0.0, 2.0]))
        assert dphi.tolist() == [-12.0, 0.0, 12.0]  # 3x|x|
        assert d2phi.tolist() == [12.0, 0.0, 12.0]  # 6|x|, 0 at the kink

    def test_fractional_order_limit(self):
        dphi, d2phi = _abs_power_derivatives(2.5, np.array([-4.0, 0.0, 4.0]))
        assert dphi == pytest.approx([-2.5 * 8.0, 0.0, 2.5 * 8.0], rel=1e-13)
        assert d2phi[0] == pytest.approx(2.5 * 1.5 * 2.0, rel=1e-13)
        assert d2phi[1] == 0.0
        assert d2phi[2] == pytest.approx(2.5 * 1.5 * 2.0, rel=1e-13)

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
    def test_first_derivative_by_finite_differences(self, p):
        h = 1e-6
        x = np.array([-1.7, -0.4, 0.9, 2.3])
        dphi, d2phi = _abs_power_derivatives(p, x)
        fd = (np.abs(x + h) ** p - np.abs(x - h) ** p) / (2.0 * h)
        assert dphi == pytest.approx(fd, rel=1e-7), p
        fd2 = (_abs_power_derivatives(p, x + h)[0] - _abs_power_derivatives(p, x - h)[0]) / (
            2.0 * h
        )
        assert d2phi == pytest.approx(fd2, rel=1e-7), p

    def test_domain(self):
        # phi'' is unbounded at 0 below p = 2
        for p in (1.0, 1.5, 1.99, math.nan, math.inf):
            with pytest.raises(ValueError):
                _abs_power_derivatives(p, np.zeros(3))
