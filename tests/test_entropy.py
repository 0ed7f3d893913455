import decimal
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qcorr import families, linalg, measurement
from qcorr.entropy import (
    UNDERFLOW_LOG,
    BadIndices,
    EntropicIndices,
    Regime,
    entropy_change,
    log_power_sum,
    max_entropy,
    renyi_change_and_slope,
    spectral_sum,
    unified_entropy,
    unified_entropy_spectrum,
    unified_from_renyi,
)
from util import (
    IDX_GRID,
    PreconditionUnmet,
    bell_density,
    check_schur_concavity,
    dephase,
    majorizes,
    plus_density,
    relative_entropy,
)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.mark.parametrize("call, error, message", [
    (lambda: max_entropy(0, EntropicIndices(2.0, 1.0)), ValueError, "dimension must be >= 1"),
    (lambda: max_entropy(2.5, EntropicIndices(2.0, 1.0)), linalg.DimMismatch, re.escape("dims (2.5,) are not integers")),
    (lambda: max_entropy(True, EntropicIndices(2.0, 1.0)), linalg.DimMismatch, re.escape("dims (True,) are not integers")),
    (lambda: max_entropy((2, 2), EntropicIndices(2.0, 1.0)), linalg.DimMismatch,
     re.escape("dims ((2, 2),) are not integers")),
    (lambda: relative_entropy(plus_density(), bell_density()), linalg.DimMismatch, "states must share a Hilbert space"),
], ids=["max entropy dim 0", "max entropy float dim", "max entropy bool dim", "max entropy dims tuple",
        "relative entropy dims"])
def test_named_errors(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


class TestIndices:
    def test_q_one_is_von_neumann_for_any_s(self):
        assert EntropicIndices(1.0, 0.7).regime is Regime.VON_NEUMANN
        assert EntropicIndices(1.0 + 5e-9, 0.0).regime is Regime.VON_NEUMANN

    def test_s_zero_is_renyi(self):
        assert EntropicIndices(2.0, 0.0).regime is Regime.RENYI
        assert EntropicIndices(0.5, 5e-9).regime is Regime.RENYI

    def test_general(self):
        assert EntropicIndices(2.0, 1.0).regime is Regime.UNIFIED
        assert EntropicIndices(3.0, -0.5).regime is Regime.UNIFIED

    def test_bad_q(self):
        with pytest.raises(BadIndices):
            EntropicIndices(0.0, 1.0)
        with pytest.raises(BadIndices):
            EntropicIndices(-2.0, 1.0)

    @pytest.mark.parametrize(
        "q,s", [(2.0, math.nan), (math.nan, 1.0), (math.inf, 1.0), (2.0, math.inf), (2.0, -math.inf)]
    )
    def test_non_finite_rejected(self, q, s):
        with pytest.raises(BadIndices):
            EntropicIndices(q, s)


class TestSpectrumEntropy:
    @pytest.mark.parametrize("idx", IDX_GRID)
    def test_pure_spectrum_vanishes(self, idx):
        assert abs(unified_entropy_spectrum([1.0, 0.0], idx)) < 1e-14

    def test_uniform_qubit_tsallis2(self):
        assert_allclose(unified_entropy_spectrum([0.5, 0.5], EntropicIndices(2, 1)), 0.5)

    def test_uniform_qubit_von_neumann(self):
        assert_allclose(
            unified_entropy_spectrum([0.5, 0.5], EntropicIndices(1, 1)), math.log(2)
        )

    def test_renyi_two_point(self):
        # S_(2,0)(3/4, 1/4) = -ln(10/16) = ln 1.6
        got = unified_entropy_spectrum([0.75, 0.25], EntropicIndices(2, 0))
        assert_allclose(got, math.log(1.6), atol=1e-12)

    @pytest.mark.parametrize("idx", [EntropicIndices(1.0, 1.0), EntropicIndices(2.0, 0.0), EntropicIndices(2.0, 1.0),
                                     EntropicIndices(0.5, 1.0)], ids=lambda i: i.regime.value + f"-q{i.q:g}")
    def test_nan_entries_propagate(self, idx):
        # p > 0 is False for NaN, so a NaN entry was once dropped like a zero
        assert math.isnan(spectral_sum([0.5, math.nan, 0.5], idx))
        assert math.isnan(unified_entropy_spectrum([math.nan, 1.0], idx))
        stack = np.array([[0.5, math.nan, 0.5], [0.5, 0.5, 0.0], [math.nan, math.nan, math.nan], [1.0, 0.0, 0.0]])
        sums = spectral_sum(stack, idx)
        assert np.isnan(sums).tolist() == [True, False, True, False]
        assert sums[1] == spectral_sum([0.5, 0.5], idx) and sums[3] == spectral_sum([1.0], idx)
        nested = spectral_sum(stack.reshape(2, 2, 3), idx)
        assert np.isnan(nested).tolist() == [[True, False], [True, False]]

    def test_zero_entries_ignored(self):
        idx = EntropicIndices(0.5, 1.0)
        a = unified_entropy_spectrum([0.6, 0.4, 0.0, 0.0], idx)
        b = unified_entropy_spectrum([0.6, 0.4], idx)
        assert_allclose(a, b, atol=1e-14)


class TestSpectralSlope:
    @pytest.mark.parametrize("idx", [EntropicIndices(1.0, 1.0), EntropicIndices(2.0, 0.0), EntropicIndices(0.5, 0.0),
                                     EntropicIndices(2.0, 1.0), EntropicIndices(0.5, 1.0), EntropicIndices(3.0, 0.5)],
                             ids=lambda i: i.regime.value + f"-q{i.q:g}-s{i.s:g}")
    def test_matches_central_differences(self, idx):
        # the slope of the Renyi entropy at idx.q, whatever s; the spectrum
        # fills the last two axes, and the first is a stack axis
        rng = np.random.default_rng(67)
        p = rng.dirichlet(np.ones(6), 3).reshape(3, 2, 3)
        slope = renyi_change_and_slope(p, 0.0, idx)[1]
        assert slope.shape == p.shape

        def value(row):
            return unified_entropy_spectrum(row.ravel(), EntropicIndices(idx.q, 0.0))

        for r, i, j in np.ndindex(p.shape):
            h = 1e-6 * p[r, i, j]
            up, down = p[r].copy(), p[r].copy()
            up[i, j] += h
            down[i, j] -= h
            numeric = (value(up) - value(down)) / (2.0 * h)
            assert abs(slope[r, i, j] - numeric) <= 1e-7 * max(1.0, abs(numeric))


def chained_change_and_slope(p, before, idx):
    """The measured value and slope as a chain: the cut spectrum through spectral_sum and
    entropy_change, and the slope from its own pass, whose Tr p^q is that of the same cut spectrum."""
    n = p.shape[-2] * p.shape[-1]
    cut = measurement._flat_spectrum(p)
    value = entropy_change(spectral_sum(cut, idx), before, idx)
    pz = np.maximum(p, linalg.rank_cutoff(n, 1.0))
    if idx.regime is Regime.VON_NEUMANN:
        return value, -(np.log(pz) + 1.0)
    powers, scale = np.maximum(cut, 0.0), idx.q / (1.0 - idx.q)
    if idx.q * math.log(n) > UNDERFLOW_LOG:
        top = p.max(axis=(-2, -1), keepdims=True)
        powers, pz, scale = powers / top[..., 0], pz / top, scale / top[..., 0, 0]
    total = (powers**idx.q).sum(axis=-1)
    return value, (scale / total)[..., None, None] * pz ** (idx.q - 1.0)


def outcome(fn, *args):
    """fn's result, or the ValueError it raised, as comparable bytes."""
    try:
        with np.errstate(all="ignore"):
            return [np.asarray(x).tobytes() for x in fn(*args)]
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([(1, 2, 2), (5, 2, 3), (3, 3, 3), (2, 2, 4), (256, 2, 2), (300, 2, 3), (256, 3, 3)]),
    st.one_of(st.just(1.0), st.floats(0.05, 5.0), st.floats(0.1, 2.0).map(lambda x: x * UNDERFLOW_LOG / math.log(4.0))),
    st.floats(-2.0, 2.0),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 0.3),
    st.booleans(),
)
def test_change_and_slope_is_the_chain_bit_for_bit(shape, q, before, seed, odd, dead):
    """One pass gives the chain's value and slope to the last bit, or raises where it raises.

    Each draw replaces a share ``odd`` of a stack of trace-one rows with zeros, entries below the
    cut-off, small negative entries and NaN, and a ``dead`` stack has a first row with nothing left
    above the cut; q ln N falls on both sides of UNDERFLOW_LOG, and 256 or more rows of under 8
    entries take ``_row_sums``' column path.
    """
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(shape[1] * shape[2]), shape[0])
    cut = linalg.rank_cutoff(p.shape[-1], 1.0)
    kinds = rng.choice(5, size=p.shape, p=[1.0 - odd] + [odd / 4] * 4)
    odd_values = [p, np.zeros_like(p), rng.uniform(0.0, cut, p.shape), -rng.uniform(0.0, cut, p.shape),
                  np.full_like(p, math.nan)]
    p = np.choose(kinds, odd_values)
    if dead:
        p[0] = odd_values[rng.integers(1, 4)][0]
    p = p.reshape(shape)
    idx = EntropicIndices(q, 0.0)
    assert outcome(renyi_change_and_slope, p, before, idx) == outcome(chained_change_and_slope, p, before, idx)


def test_slope_is_that_of_the_cut_value():
    """An entry below the cut-off counts as zero in the slope's Tr p^q, as in the value.

    p = (0.6, 0.4 - 3e-16, 3e-16, 0) at q = 0.3: the first slope is
    q 0.6^(q-1) / ((1-q) (0.6^q + (0.4 - 3e-16)^q)), which a Tr p^q that kept
    the 3e-16 entry would move by -1.4e-5 of itself.
    """
    p = np.array([[[0.6, 0.4 - 3e-16], [3e-16, 0.0]]])
    assert 3e-16 < linalg.rank_cutoff(4, 1.0)
    slope = renyi_change_and_slope(p, 0.0, EntropicIndices(0.3, 1.0))[1]
    assert_allclose(slope[0, 0, 0], 0.37883745905225563, rtol=1e-15, atol=0.0)


SRC = Path(__file__).resolve().parent.parent / "src" / "qcorr"


def test_only_entropy_refers_to_regime_members():
    # one regime switch: every other module calls entropy's kernels, and
    # re-exporting the enum or printing idx.regime.value is not a branch;
    # nor may another module test an index against the switch's tolerance
    files = sorted(SRC.glob("*.py"))
    assert SRC / "entropy.py" in files
    offenders = [
        f"{path.name}:{number}"
        for path in files
        if path.name != "entropy.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "Regime." in line or "REGIME_TOL" in line
    ]
    assert offenders == []


class TestStateEntropy:
    @pytest.mark.parametrize("idx", IDX_GRID)
    def test_unitary_invariance(self, rng, idx):
        rho = linalg.random_density(4, rng)
        u = linalg.haar_unitary(4, rng)
        rotated = linalg.DensityOperator(u @ rho.matrix @ u.conj().T, rho.dims)
        assert abs(unified_entropy(rotated, idx) - unified_entropy(rho, idx)) < 1e-10

    @pytest.mark.parametrize("idx", IDX_GRID)
    def test_maximally_mixed_hits_upper_bound(self, idx):
        rho = linalg.make_density(np.eye(4) / 4, [4])
        assert_allclose(unified_entropy(rho, idx), max_entropy(4, idx), atol=1e-12)

    @pytest.mark.parametrize(
        "idx",
        [EntropicIndices(0.5, 1), EntropicIndices(2, 1), EntropicIndices(3, 0.5),
         EntropicIndices(2, -1)],
    )
    def test_sum_rule_for_product_states(self, rng, idx):
        # S(a x b) = S(a) + S(b) + (1-q) s S(a) S(b)
        for _ in range(100):
            a = linalg.random_density(2, rng)
            b = linalg.random_density(3, rng)
            sa, sb = unified_entropy(a, idx), unified_entropy(b, idx)
            expected = sa + sb + (1.0 - idx.q) * idx.s * sa * sb
            assert abs(unified_entropy(linalg.tensor(a, b), idx) - expected) < 1e-10

    @pytest.mark.parametrize("idx", [EntropicIndices(1, 1), EntropicIndices(2, 0)])
    def test_limit_regimes_additive(self, rng, idx):
        a = linalg.random_density(2, rng)
        b = linalg.random_density(2, rng)
        total = unified_entropy(linalg.tensor(a, b), idx)
        assert abs(total - unified_entropy(a, idx) - unified_entropy(b, idx)) < 1e-10


class TestMaxEntropy:
    def test_qubit_tsallis2(self):
        assert_allclose(max_entropy(2, EntropicIndices(2, 1)), 0.5)

    @pytest.mark.parametrize("idx", IDX_GRID)
    def test_trivial_space(self, idx):
        assert max_entropy(1, idx) == 0.0

    def test_von_neumann(self):
        assert_allclose(max_entropy(4, EntropicIndices(1, 1)), math.log(4))


def scaled_log_power_sum(p, q):
    """log(sum_i p_i^q) of positive entries, in Python floats, with the largest entry factored out."""
    top = max(p)
    return q * math.log(top) + math.log(sum((x / top) ** q for x in p))


class TestLargeQ:
    """Past q ln N of about 700 every p_i^q of a trace-one spectrum of N entries can underflow to 0."""

    def test_max_entropy(self):
        idx = EntropicIndices(700.0, 0.0)
        assert abs(max_entropy(4, idx) - math.log(4)) < 1e-12
        assert abs(max_entropy(4, idx) - scaled_log_power_sum([0.25] * 4, 700.0) / (1 - 700.0)) < 1e-12

    def test_werner_state_entropy(self):
        rho = families.build(families.FamilySpec("werner", 2, 2, 0.0))
        exact = scaled_log_power_sum([0.5, 1 / 6, 1 / 6, 1 / 6], 2000.0) / (1 - 2000.0)
        assert abs(unified_entropy(rho, EntropicIndices(2000.0, 0.0)) - exact) < 1e-12
        assert abs(exact - 0.693494) < 1e-6

    def test_werner_closed_form(self):
        # before: 0.2 x 3 and 0.4; after the standard-basis measurement: 0.2 x 2 and 0.3 x 2
        q = 5000.0
        exact = (scaled_log_power_sum([0.2, 0.2, 0.3, 0.3], q) - scaled_log_power_sum([0.2, 0.2, 0.2, 0.4], q)) / (1 - q)
        assert abs(families.werner_spectrum_form(2, 0.2, EntropicIndices(q, 0.0)) - exact) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 9])
    def test_continuous_at_the_switch(self, n):
        p = np.random.default_rng(n).dirichlet(np.ones(n))
        switch = UNDERFLOW_LOG / math.log(n)
        for q in (switch * (1 - 1e-12), switch * (1 + 1e-12)):
            assert abs(log_power_sum(p, q) - scaled_log_power_sum(p.tolist(), q)) <= 1e-12 * abs(log_power_sum(p, q))

    def test_no_positive_weight_still_raises(self):
        with pytest.raises(ValueError, match="no positive weight"):
            log_power_sum(np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]), 2000.0)

    def test_slope(self):
        # q p^(q-1) / ((1-q) Tr p^q), with Tr p^q = 2 0.6^q (1 + (0.4/0.6)^q / 2) far below the smallest double
        q, p = 2000.0, np.array([[[0.6, 0.0], [0.4, 0.0]]])
        slope = renyi_change_and_slope(p, 0.0, EntropicIndices(q, 0.0))[1]
        log_total = scaled_log_power_sum([0.6, 0.4], q)
        assert abs(slope[0, 0, 0] - q / (1 - q) * math.exp((q - 1) * math.log(0.6) - log_total)) < 1e-12
        assert abs(slope[0, 1, 0] - q / (1 - q) * math.exp((q - 1) * math.log(0.4) - log_total)) < 1e-12
        assert np.isfinite(slope).all()


class TestRegimeContinuity:
    def test_near_q_one_matches_von_neumann(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            vn = unified_entropy_spectrum(p, EntropicIndices(1.0, 1.0))
            for q in (1.0 - 1e-6, 1.0 + 1e-6):
                got = unified_entropy_spectrum(p, EntropicIndices(q, 1.0))
                assert abs(got - vn) < 1e-4

    def test_near_s_zero_matches_renyi(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            ren = unified_entropy_spectrum(p, EntropicIndices(2.0, 0.0))
            for s in (-1e-6, 1e-6):
                got = unified_entropy_spectrum(p, EntropicIndices(2.0, s))
                assert abs(got - ren) < 1e-4


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(0.0, 1.0), st.floats(0.05, 5.0), st.floats(0.0, 16.0)
)
def test_unified_triangle_follows_the_renyi_one_where_c_is_not_positive(r_a, r_b, share, q, size):
    """R_ab <= R_a + R_b gives M_ab <= M_a + M_b wherever c = s (1 - q) <= 0.

    Every unified value is h(R_q) = expm1(c R_q) / c; for c <= 0, h is increasing, concave and
    h(0) = 0, hence subadditive on R >= 0.  s takes the sign of q - 1, so c <= 0 on every draw.
    """
    idx = EntropicIndices(q, math.copysign(size, q - 1.0))
    m_a, m_b, m_ab = (unified_from_renyi(r, idx) for r in (r_a, r_b, share * (r_a + r_b)))
    assert m_ab <= m_a + m_b + 1e-14 * max(1.0, m_a + m_b)


DIGITS = decimal.Context(prec=60)
# c of the bound below, from the largest error on these inputs when it was set:
# 0.54 eps / |q - 1| at q = 0.99, 0.50 eps at q = 0.5 and 3, 0.31 eps at q = 1
REFERENCE_C = 1.0


def reference_entropy(p, q: float, s: float) -> decimal.Decimal:
    """S_(q,s) of the positive entries of p to 60 digits, from each double exactly as given."""
    ctx, exact = DIGITS, DIGITS.create_decimal
    p, q, s = [exact(float(x)) for x in p if x > 0], exact(q), exact(s)
    if q == 1:
        return -sum((ctx.multiply(x, ctx.ln(x)) for x in p), exact(0))
    log_sum = ctx.ln(sum((ctx.exp(ctx.multiply(q, ctx.ln(x))) for x in p), exact(0)))
    if s == 0:
        return ctx.divide(log_sum, 1 - q)
    return ctx.divide(ctx.exp(ctx.multiply(s, log_sum)) - 1, ctx.multiply(1 - q, s))


@pytest.mark.parametrize("n", [4, 9, 16])
@pytest.mark.parametrize("q", [1.0, 1 - 1e-4, 1 + 1e-4, 1 - 1e-2, 1 + 1e-2, 0.5, 3.0])
@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, -1.0])
def test_unified_entropy_against_a_60_digit_reference(n, q, s):
    """The error, relative to max(1, |S|), is at most c eps max(1, 1 / |q - 1|).

    Near q = 1, outside REGIME_TOL, ln sum p^q / (1 - q) divides a small
    difference by a small number, so the error grows as eps / |q - 1|.
    """
    p = np.random.default_rng(3).dirichlet(np.ones(n))
    exact = reference_entropy(p, q, s)
    error = abs(DIGITS.create_decimal(unified_entropy_spectrum(p, EntropicIndices(q, s))) - exact)
    amplification = 1.0 if q == 1.0 else max(1.0, 1.0 / abs(q - 1.0))
    assert float(error) / max(1.0, abs(float(exact))) <= REFERENCE_C * np.finfo(float).eps * amplification


def reference_change(d: float, q: float, s: float) -> decimal.Decimal:
    """expm1(s d) / ((1 - q) s) to 60 digits, from the doubles d, q and s exactly as given."""
    ctx, exact = DIGITS, DIGITS.create_decimal
    x, scale = ctx.multiply(exact(s), exact(d)), ctx.multiply(ctx.subtract(1, exact(q)), exact(s))
    return ctx.divide(ctx.subtract(ctx.exp(x), 1), scale)


@pytest.mark.parametrize("expm1", [math.expm1, np.expm1], ids=["math", "numpy"])
@pytest.mark.parametrize("q, s", [(2.0, 1.0), (3.0, -0.75), (0.5, -1.0), (0.25, 3e-7)])
def test_unified_change_near_zero_against_a_60_digit_reference(q, s, expm1):
    """expm1(s d) / ((1 - q) s) is within 2 eps, relative, of its 60-digit value for |s d| from 1e-20 to 1e-6.

    The range straddles 1e-12, below which the kernel once took a truncated series.  Each scalar call and
    the stack's row is compared at the float d = after - before that the kernel forms.
    """
    rng = np.random.default_rng(43)
    size = np.logspace(-20, -6, 57) / abs(s)
    d = np.where(rng.uniform(size=size.size) < 0.5, -size, size)
    before = d * rng.uniform(-4.0, 4.0, d.size)
    after = before + d
    idx = EntropicIndices(q, s)
    stack = entropy_change(after, before, idx, expm1=expm1)
    for a, b, row in zip(after.tolist(), before.tolist(), stack.tolist()):
        exact = reference_change(a - b, q, s)
        for got in (entropy_change(a, b, idx, expm1=expm1), row):
            assert float(abs(DIGITS.create_decimal(float(got)) - exact) / abs(exact)) <= 2 * linalg.EPS, (a - b, got)


spectra = st.integers(2, 6).flatmap(
    lambda n: st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n
    ).filter(lambda xs: sum(xs) > 1e-6)
).map(lambda xs: np.array(xs) / np.sum(xs))


class TestBounds:
    @settings(max_examples=80, deadline=None)
    @given(spectra, st.sampled_from(IDX_GRID))
    def test_entropy_within_bounds(self, p, idx):
        value = unified_entropy_spectrum(p, idx)
        assert value >= -1e-10
        assert value <= max_entropy(p.size, idx) + 1e-10


class TestRelativeEntropy:
    def test_self_is_zero(self, rng):
        rho = linalg.random_density(3, rng)
        assert abs(relative_entropy(rho, rho)) < 1e-10

    def test_plus_state_vs_maximally_mixed(self):
        sigma = linalg.make_density(np.eye(2) / 2, [2])
        assert_allclose(relative_entropy(plus_density(), sigma), math.log(2), atol=1e-12)

    def test_support_violation_is_infinite(self):
        zero = linalg.make_density(np.diag([1.0, 0.0]), [2])
        assert relative_entropy(plus_density(), zero) == math.inf

    def test_tiny_eigenvalue_is_in_the_support(self):
        # 1e-13 is far above sigma's rank cut-off 2 eps, so S is finite:
        # -(ln(1 - 1e-13) + ln 1e-13) / 2
        sigma = linalg.make_density(np.diag([1.0 - 1e-13, 1e-13]), [2])
        exact = -0.5 * math.log1p(-1e-13) - 0.5 * math.log(1e-13)
        assert abs(relative_entropy(plus_density(), sigma) - exact) <= 1e-12 * exact

    def test_nonnegative_with_equality_iff_equal(self, rng):
        for _ in range(25):
            rho = linalg.random_density(3, rng)
            sigma = linalg.random_density(3, rng)
            val = relative_entropy(rho, sigma)
            assert val >= 0.0
            if np.max(np.abs(rho.matrix - sigma.matrix)) > 1e-3:
                assert val > 1e-9

    def test_matches_von_neumann_disturbance(self, rng):
        # S(rho || dephased(rho)) equals the q -> 1 disturbance
        idx = EntropicIndices(1.0, 1.0)
        for _ in range(100):
            rho = linalg.random_density(3, rng)
            basis = measurement.ProjectiveBasis(linalg.haar_unitary(3, rng))
            dephased = dephase(rho, basis)
            dist = measurement.disturbance_spectra(
                linalg.spectrum(rho), linalg.spectrum(dephased), idx
            )
            assert abs(relative_entropy(rho, dephased) - dist) < 1e-8


class TestSchurConcavity:
    def test_uniform_vs_pure(self):
        idx = EntropicIndices(2.0, 1.0)
        assert check_schur_concavity([0.5, 0.5], [1.0, 0.0], idx)

    @pytest.mark.parametrize("idx", IDX_GRID)
    def test_first_spectrum_majorizing_the_second(self, idx):
        """Only the reverse relation holds, so the mirrored check compares the second entropy against the first."""
        p, q_vec = [0.7, 0.2, 0.1], [0.4, 0.35, 0.25]
        assert majorizes(q_vec, p) and not majorizes(p, q_vec)
        assert check_schur_concavity(p, q_vec, idx)
        assert unified_entropy_spectrum(q_vec, idx) > unified_entropy_spectrum(p, idx)

    @pytest.mark.parametrize("idx", IDX_GRID)
    def test_equal_spectra_give_equality(self, idx):
        p = np.array([0.6, 0.3, 0.1])
        a = unified_entropy_spectrum(p, idx)
        b = unified_entropy_spectrum(p.copy(), idx)
        assert abs(a - b) < 1e-12
        assert check_schur_concavity(p, p, idx)

    def test_incomparable_raises(self):
        with pytest.raises(PreconditionUnmet):
            check_schur_concavity([0.6, 0.2, 0.2], [0.5, 0.45, 0.05], EntropicIndices(2, 1))

    def test_dephasing_pairs_pass(self, rng):
        # diagonal of a state is majorized by its spectrum
        count = 0
        for _ in range(250):
            rho = linalg.random_density(4, rng)
            basis = measurement.ProjectiveBasis(linalg.haar_unitary(4, rng))
            diag = linalg.spectrum(dephase(rho, basis))
            spec = linalg.spectrum(rho)
            assert majorizes(diag, spec)
            for idx in IDX_GRID:
                assert check_schur_concavity(diag, spec, idx)
                count += 1
        assert count == 250 * len(IDX_GRID)
