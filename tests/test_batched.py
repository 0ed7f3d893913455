"""Bitwise equality of the batched paths with their per-row definitions.

``measurement_pair_spectra`` draws every trial's Ginibre entries at once,
and the regime kernel (``spectral_sum``, ``entropy_change``) evaluates
stacks of spectra in one call; both must reproduce, bit for bit, the
per-trial and per-row calls they replace, so that ``qcorr fig1`` output does
not move in the last digit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import entropy, linalg, measurement
from qcorr.correlations import contractivity_min_from_spectra, measurement_pair_spectra
from qcorr.entropy import EntropicIndices, entropy_change, spectral_sum
from qcorr.measurement import disturbance_spectra

INDICES = [
    EntropicIndices(1.0, 1.0),  # von Neumann
    EntropicIndices(2.0, 0.0),  # Renyi
    EntropicIndices(0.5, 0.0),
    EntropicIndices(2.0, 1.0),  # Tsallis
    EntropicIndices(0.5, 1.0),
    EntropicIndices(3.0, 0.5),  # unified
    EntropicIndices(1.5, -1.0),
]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def reference_haar(n, rng):
    """The Haar draw as first written: real parts, imaginary parts, QR, phase fix."""
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def reference_pair_spectra(rho, trials, seed):
    """Per-trial loop alternating haar_unitary(na) and haar_unitary(nb)."""
    na, nb = rho.dims
    rng = np.random.default_rng(seed)
    t = rho.matrix.reshape(na, nb, na, nb)
    rows = {"after_a": [], "after_b": [], "after_ab": []}
    for _ in range(trials):
        ua = linalg.haar_unitary(na, rng)
        ub = linalg.haar_unitary(nb, rng)
        rows["after_a"].append(measurement._spectrum_side_a(t, ua))
        rows["after_b"].append(measurement._spectrum_side_b(t, ub))
        rows["after_ab"].append(measurement._spectrum_side_ab(t, ua, ub))
    return {key: np.array(value) for key, value in rows.items()}


def purity_ratio_row(before, after, idx):
    """((Tr after^q) / (Tr before^q))^s of one pair of spectra, as a float."""
    return float(entropy.purity_ratio_sums(spectral_sum(after, idx), spectral_sum(before, idx), idx))


def reference_contractivity_min(spectra, idx):
    """The per-trial expression the batched kernel replaced.

    D_A(rho) is evaluated one trial at a time with numpy's expm1, as fig1
    has always evaluated it; the other terms are per-row public calls.
    """
    before = spectra["before"]
    d_a = np.array(
        [
            entropy_change(spectral_sum(a_spec, idx), spectral_sum(before, idx), idx,
                           expm1=np.expm1)
            for a_spec in spectra["after_a"]
        ]
    )
    d_a_post_b = np.array(
        [
            disturbance_spectra(b_spec, ab_spec, idx)
            for b_spec, ab_spec in zip(spectra["after_b"], spectra["after_ab"])
        ]
    )
    p_b = np.array([purity_ratio_row(before, b_spec, idx) for b_spec in spectra["after_b"]])
    return float(np.min(d_a - p_b * d_a_post_b))


def rank_deficient(dims, rank, rng):
    n = dims[0] * dims[1]
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return linalg.make_density(g @ g.conj().T, dims)


class TestHaarStream:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_haar_unitary_keeps_its_draws(self, n):
        r1, r2 = np.random.default_rng([n, 1]), np.random.default_rng([n, 1])
        for _ in range(50):
            assert same_bits(linalg.haar_unitary(n, r1), reference_haar(n, r2))

    def test_haar_unitary_is_the_one_draw_batch(self):
        """``haar_unitary(n)`` is ``haar_batch(rng, 1, (n,))[0][0]`` and takes one ``standard_normal(2 n^2)``; n must be an integer."""
        for n, shown in (((2,), r"\(2,\)"), ((2, 3), r"\(2, 3\)")):
            with pytest.raises(linalg.DimMismatch, match=rf"^dims \({shown},\) are not integers$"):
                linalg.haar_unitary(n, np.random.default_rng(0))
        for n in range(2, 7):
            r1, r2, r3 = (np.random.default_rng([n, 3]) for _ in range(3))
            assert same_bits(linalg.haar_unitary(n, r1), linalg.haar_batch(r2, 1, (n,))[0][0])
            r3.standard_normal(2 * n * n)
            assert r1.bit_generator.state == r2.bit_generator.state == r3.bit_generator.state

    @pytest.mark.parametrize("n", [2, 3])
    def test_stacked_draw_equals_sequential_calls(self, n):
        """``haar_batch`` equals rounds of ``haar_unitary`` calls over its dims, one stack per dim."""
        for dims in ((n,), (n, 5 - n)):
            r1, r2 = np.random.default_rng([n, 2]), np.random.default_rng([n, 2])
            rounds = [[linalg.haar_unitary(m, r1) for m in dims] for _ in range(100)]
            stacks = linalg.haar_batch(r2, 100, dims)
            assert len(stacks) == len(dims)
            for stack, sequential in zip(stacks, zip(*rounds)):
                assert same_bits(stack, np.array(sequential))


def leading_stack_blocks(t, ua):
    """``_blocks_side_a`` as it was written with the stack axes first."""
    return np.einsum("...ai,abcd,...ci->...ibd", ua.conj(), t, ua)


def leading_stack_joint(t, ua, ub):
    """``_joint_probabilities`` as it was written with the stack axes first."""
    return np.real(np.einsum("...ai,...bj,abcd,...ci,...dj->...ij", ua.conj(), ub.conj(), t, ua, ub))


class TestStackedSpectra:
    @pytest.mark.parametrize("stack", [(1000,), (8,), (3,), (1,), (5, 7), ()])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
    def test_kernels_keep_the_leading_stack_bits(self, dims, stack):
        """The stack-last einsums equal the stack-first ones bit for bit, and return C-contiguous arrays."""
        na, nb = dims
        rng = np.random.default_rng([19, na, nb, len(stack)])
        t = linalg.random_density(dims, rng).matrix.reshape(na, nb, na, nb)
        ua, ub = (u.reshape(stack + u.shape[1:]) for u in linalg.haar_batch(rng, math.prod(stack), dims))
        swapped = measurement._swap_sides(t)
        for side_b in (swapped, np.ascontiguousarray(swapped)):  # the value kernel's view, the search's copy
            for new, old in (
                (measurement._blocks_side_a(t, ua), leading_stack_blocks(t, ua)),
                (measurement._blocks_side_a(side_b, ub), leading_stack_blocks(side_b, ub)),
                (measurement._joint_probabilities(t, ua, ub), leading_stack_joint(t, ua, ub)),
            ):
                assert same_bits(new, old)
                assert new.flags.c_contiguous
        for spectrum in (
            measurement._spectrum_side_a(t, ua),
            measurement._spectrum_side_b(t, ub),
            measurement._spectrum_side_ab(t, ua, ub),
        ):
            assert spectrum.shape == stack + (na * nb,) and spectrum.flags.c_contiguous

    def test_side_ab_takes_the_broadcast_stack(self):
        """One row on a side against five on the other gives five spectra, as with the row repeated.

        An (n, 1) stack against a (1, m) stack gives the (n, m) outer product
        of spectra, as with every pair gathered into one flat stack.
        """
        rng = np.random.default_rng(37)
        t = linalg.random_density((2, 3), rng).matrix.reshape(2, 3, 2, 3)
        ua, ub = linalg.haar_batch(rng, 5, (2, 3))
        for a, b in ((ua[:1], ub), (ua, ub[:1])):
            full_a, full_b = (np.broadcast_to(u, (5,) + u.shape[1:]) for u in (a, b))
            got = measurement._spectrum_side_ab(t, a, b)
            assert got.shape == (5, 6)
            assert same_bits(got, measurement._spectrum_side_ab(t, full_a, full_b))
        outer = measurement._spectrum_side_ab(t, ua[:, None], ub[None, :4])
        assert outer.shape == (5, 4, 6)
        i, j = (k.ravel() for k in np.indices((5, 4)))
        assert same_bits(outer, measurement._spectrum_side_ab(t, ua[i], ub[j]).reshape(5, 4, 6))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_stack_equals_single_calls(self, dims):
        na, nb = dims
        rng = np.random.default_rng([7, na, nb])
        t = linalg.random_density(dims, rng).matrix.reshape(na, nb, na, nb)
        ua = np.array([linalg.haar_unitary(na, rng) for _ in range(40)])
        ub = np.array([linalg.haar_unitary(nb, rng) for _ in range(40)])
        for kernel, args in (
            (measurement._spectrum_side_a, (ua,)),
            (measurement._spectrum_side_b, (ub,)),
            (measurement._spectrum_side_ab, (ua, ub)),
        ):
            single = np.array([kernel(t, *(a[k] for a in args)) for k in range(40)])
            assert same_bits(kernel(t, *args), single)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_pair_spectra_equal_per_trial_loop(self, dims):
        rng = np.random.default_rng([11, *dims])
        for seed in range(3):
            rho = linalg.random_density(dims, rng)
            batched = measurement_pair_spectra(rho, 120, [5, seed])
            looped = reference_pair_spectra(rho, 120, [5, seed])
            assert same_bits(batched["before"], linalg.spectrum(rho))
            for key in ("after_a", "after_b", "after_ab"):
                assert same_bits(batched[key], looped[key]), key

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_side_kernels_equal_a_per_block_lapack_loop(self, dims, monkeypatch):
        """Sides A and B give, row by row, the cut spectra of one ``np.linalg.eigvalsh`` call per block,
        at 1, 8 and 1,000 pairs, and every stack of 2 x 2 blocks takes ``linalg.eigvalsh_2x2``."""
        na, nb = dims
        rng = np.random.default_rng([47, na, nb])
        t = linalg.random_density(dims, rng).matrix.reshape(na, nb, na, nb)
        closed_form = []
        monkeypatch.setattr(linalg, "eigvalsh_2x2", lambda h, kernel=linalg.eigvalsh_2x2: (
            closed_form.append(len(h)) or kernel(h)))
        for pairs in (1, 8, 1000):
            ua, ub = linalg.haar_batch(rng, pairs, dims)
            for kernel, u, side_t in ((measurement._spectrum_side_a, ua, t),
                                      (measurement._spectrum_side_b, ub, measurement._swap_sides(t))):
                blocks = measurement._blocks_side_a(side_t, u)
                looped = np.array([[np.linalg.eigvalsh(block) for block in row] for row in blocks])
                assert same_bits(kernel(t, u), measurement._flat_spectrum(looped)), (kernel.__name__, pairs)
        assert closed_form == ([1, 8, 1000] if nb == 3 else [1, 1, 8, 8, 1000, 1000])  # 2 x 3: only side B's are 2 x 2

    def test_side_b_is_not_a_side_a_call(self, monkeypatch):
        """Side B runs its own blocks, so a benchmark span on ``_spectrum_side_a`` never counts a side-B call."""
        rng = np.random.default_rng(53)
        t = linalg.random_density((2, 2), rng).matrix.reshape(2, 2, 2, 2)
        ub = linalg.haar_batch(rng, 300, (2,))[0]
        expected = measurement._spectrum_side_b(t, ub)
        monkeypatch.setattr(measurement, "_spectrum_side_a", None)
        assert same_bits(measurement._spectrum_side_b(t, ub), expected)

    def test_single_trial(self):
        rho = linalg.random_density((2, 2), np.random.default_rng(3))
        batched = measurement_pair_spectra(rho, 1, 17)
        looped = reference_pair_spectra(rho, 1, 17)
        for key in ("after_a", "after_b", "after_ab"):
            assert same_bits(batched[key], looped[key])


def zeros_in_every_position():
    """300 spectra of 9 entries, each entry zero with probability 0.35, no row without weight."""
    rng = np.random.default_rng(29)
    p = rng.uniform(0.0, 1.0, (300, 9))
    p[rng.uniform(size=p.shape) < 0.35] = 0.0
    p[:, 4] += 0.05
    p /= p.sum(axis=-1, keepdims=True)
    return p


@pytest.mark.parametrize("q", [0.5, 2.0, 1.0])
def test_zero_entries_add_nothing_in_place(q):
    """Each row's sum is the 1-D sum of its terms with a zero left where each zero entry stands (0^q := 0)."""
    p = zeros_in_every_position()
    terms, x = np.zeros_like(p), p[p > 0]
    terms[p > 0] = x * np.log(x) if q == 1.0 else x**q
    expected = [-row.sum() if q == 1.0 else np.log(row.sum()) for row in terms]
    assert same_bits(spectral_sum(p, EntropicIndices(q, 1.0)), np.array(expected))


class TestDisturbanceRows:
    """Stacked disturbance_spectra against one call per row."""

    @staticmethod
    def check(before, after, idx):
        rows = disturbance_spectra(before, after, idx)
        scalar = np.array([disturbance_spectra(b, a, idx) for b, a in zip(before, after)])
        assert same_bits(rows, scalar)

    @pytest.mark.parametrize("idx", INDICES)
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
    def test_random_states(self, idx, dims):
        rho = linalg.random_density(dims, np.random.default_rng([13, *dims]))
        spectra = measurement_pair_spectra(rho, 200, 21)
        self.check(spectra["after_b"], spectra["after_ab"], idx)

    @pytest.mark.parametrize("idx", INDICES)
    @pytest.mark.parametrize("dims,rank", [((2, 2), 1), ((3, 3), 1), ((3, 3), 2), ((3, 4), 2)])
    def test_spectra_with_zero_entries(self, idx, dims, rank):
        rho = rank_deficient(dims, rank, np.random.default_rng([17, rank, *dims]))
        spectra = measurement_pair_spectra(rho, 200, 23)
        assert np.any(spectra["after_b"] == 0.0)
        self.check(spectra["after_b"], spectra["after_ab"], idx)

    @pytest.mark.parametrize("idx", INDICES)
    def test_zeros_in_every_position(self, idx):
        p = zeros_in_every_position()
        self.check(p[:150], p[150:], idx)

    def test_tiny_exponents(self):
        # |s * dlog| runs from about 1e-17 to 1e-9 over the rows, on both sides
        # of 1e-12, below which entropy_change once took a truncated series
        idx = EntropicIndices(2.0, 2e-8)
        rng = np.random.default_rng(31)
        before = rng.dirichlet(np.ones(4), 60)
        scale = np.logspace(-9, -1, 60)[:, None]
        after = before * (1.0 + scale * rng.uniform(-1.0, 1.0, before.shape))
        after[0] = before[0]
        x = idx.s * np.array(
            [np.log(np.sum(a**2)) - np.log(np.sum(b**2)) for b, a in zip(before, after)]
        )
        assert np.any(np.abs(x) < 1e-12) and np.any(np.abs(x) >= 1e-12)
        self.check(before, after, idx)

    def test_no_positive_weight(self):
        with pytest.raises(ValueError):
            disturbance_spectra(np.zeros((2, 4)), np.full((2, 4), 0.25), EntropicIndices(2.0, 1.0))


class TestContractivityMin:
    @pytest.mark.parametrize("idx", INDICES)
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_equals_per_trial_expression(self, idx, dims):
        rng = np.random.default_rng([37, *dims])
        for k in range(2):
            rho = linalg.random_density(dims, rng)
            spectra = measurement_pair_spectra(rho, 300, [41, k])
            value = contractivity_min_from_spectra(spectra, [idx])[0]
            assert same_bits(value, reference_contractivity_min(spectra, idx))

    @pytest.mark.parametrize("idx", INDICES)
    def test_rank_deficient_states(self, idx):
        rng = np.random.default_rng(43)
        for dims, rank in (((2, 2), 1), ((3, 3), 2)):
            spectra = measurement_pair_spectra(rank_deficient(dims, rank, rng), 200, 47)
            value = contractivity_min_from_spectra(spectra, [idx])[0]
            assert same_bits(value, reference_contractivity_min(spectra, idx))


class TestRowSums:
    """The row sum under every spectral sum against numpy's ``sum(axis=-1)``.

    Below 8 entries numpy adds a row left to right from +0.0, and a stack of
    256 rows or more is summed one column at a time in that order; if a
    numpy release changes its reduction order, these fail before any result
    moves.
    """

    @staticmethod
    def rows(rng, shape):
        """Entries over 16 decades, with exact zeros and negative zeros."""
        x = rng.uniform(0.0, 1.0, shape) * 10.0 ** rng.integers(-8, 8, shape)
        x[rng.uniform(size=shape) < 0.2] = 0.0
        x[rng.uniform(size=shape) < 0.1] = -0.0
        return x

    @pytest.mark.parametrize("n", range(1, 17))
    @pytest.mark.parametrize("stack", [(), (40,), (300,), (2, 3, 5), (2, 4, 40)])
    def test_equals_numpy_sum(self, n, stack):
        x = self.rows(np.random.default_rng([67, n, *stack]), stack + (n,))
        for view in (x, np.asfortranarray(x), x[..., ::-1]):
            assert same_bits(entropy._row_sums(view), view.sum(axis=-1))

    @pytest.mark.parametrize("n", [2, 4, 6, 9])
    @pytest.mark.parametrize("rows", [40, 300])
    def test_zeros_through_the_masked_path(self, n, rows):
        p = self.rows(np.random.default_rng([71, n, rows]), (rows, n))
        p[:, 0] += 0.5  # every row keeps some weight
        positive = p > 0.0
        terms = np.where(positive, np.where(positive, p, 1.0) ** 2.5, 0.0)
        assert not positive.all()
        assert same_bits(entropy._positive_sums(p, lambda pz: pz**2.5), terms.sum(axis=-1))


class TestMinDifference:
    """entropy.min_difference against the expression it filters, base - weight * entropy_change."""

    IDX = EntropicIndices(2.0, 1.0)  # (1 - q) s = -1, so each row is base + weight * expm1(after - before)

    @staticmethod
    def unfiltered(base, weight, after, before, idx):
        return float(np.min(base - weight * entropy_change(after, before, idx)))

    def test_rows_the_two_expm1_order_apart(self):
        """Two rows whose order under numpy's expm1 is the reverse of their order under math.expm1.

        Row 0 has an x where the two expm1 differ by an ulp u, and a base
        that cancels the larger, so its value is 0 under one and -u under
        the other; row 1 sits at -u/2 under both (x = 0).  Only a slack of
        at least u/2 keeps both rows, and the other rows lie far above.
        """
        rng = np.random.default_rng(73)
        x = rng.uniform(0.1, 1.0, 10_000)
        differs = np.expm1(x) != np.array([math.expm1(v) for v in x.tolist()])
        x0 = x[differs][0] if differs.any() else x[0]  # a platform whose two expm1 agree cannot miss
        e_np, e_math = float(np.expm1(x0)), math.expm1(x0)
        gap = abs(e_np - e_math)
        after = np.concatenate([[x0, 0.0], rng.uniform(0.1, 1.0, 50)])
        base = np.concatenate([[-max(e_np, e_math), -gap / 2], rng.uniform(0.5, 1.0, 50)])
        weight = np.concatenate([[1.0, 0.75], rng.uniform(0.5, 1.0, 50)])
        before = np.zeros_like(after)
        expected = self.unfiltered(base, weight, after, before, self.IDX)
        assert expected == min(e_math - max(e_np, e_math), -gap / 2)
        assert same_bits(entropy.min_difference(base, weight, after, before, self.IDX), expected)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["base", "weight", "after", "before"])
    def test_non_finite_rows(self, bad, where):
        rng = np.random.default_rng(79)
        args = dict(base=rng.uniform(-1.0, 1.0, 20), weight=rng.uniform(0.5, 1.0, 20),
                    after=rng.uniform(-2.0, 0.0, 20), before=rng.uniform(-2.0, 0.0, 20))
        args[where][7] = bad
        expected = self.unfiltered(*args.values(), self.IDX)
        assert same_bits(entropy.min_difference(*args.values(), self.IDX), expected)

    def test_math_overflow_stands(self):
        """A row past math.expm1's range raises its OverflowError, as the unfiltered expression does."""
        after = np.array([0.5, 800.0, 0.25])
        args = (np.zeros(3), np.ones(3), after, np.zeros(3), self.IDX)
        for kernel in (self.unfiltered, entropy.min_difference):
            with pytest.raises(OverflowError):
                kernel(*args)


# rows of 1 to 10 probabilities with zeros anywhere; a row is rescaled to
# unit sum unless it has no weight, and such rows are replaced below
ROW_STACKS = st.integers(1, 10).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from([0.0, 1e-300, 1e-9, 0.25, 0.5, 1.0, 3.0]) | st.floats(0.0, 1.0),
                 min_size=n, max_size=n),
        min_size=1, max_size=12,
    )
)
KERNEL_INDICES = st.sampled_from(
    [
        (1.0, 1.0), (1.0 + 5e-9, -2.0),                     # von Neumann
        (2.0, 0.0), (0.3, 5e-9), (4.0, -5e-9),              # Renyi
        (2.0, 1.0), (0.5, 1.0), (3.0, 0.5), (1.5, -1.0),    # unified
        (2.0, 2e-8), (0.7, 1.1e-8), (1.0 + 2e-8, 1e-3),     # unified near both switches
    ]
)


def as_spectra(rows):
    p = np.array(rows, dtype=float)
    p[p.sum(axis=-1) == 0.0, 0] = 1.0
    return p / p.sum(axis=-1, keepdims=True)


class TestKernelRows:
    """spectral_sum and entropy_change on stacks against one call per row."""

    @settings(max_examples=150, deadline=None)
    @given(rows=ROW_STACKS, shift=st.floats(-1e-11, 1e-11), qs=KERNEL_INDICES,
           ufunc=st.booleans())
    def test_stack_equals_rows(self, rows, shift, qs, ufunc):
        idx = EntropicIndices(*qs)
        p = as_spectra(rows)
        sums = spectral_sum(p, idx)
        assert same_bits(sums, np.array([spectral_sum(row, idx) for row in p]))
        # before sums a hair away from the after sums put |s d| on both sides
        # of 1e-12, below which entropy_change once took a truncated series
        before = sums[::-1] + shift * np.arange(sums.size)
        expm1 = np.expm1 if ufunc else math.expm1
        change = entropy_change(sums, before, idx, expm1=expm1)
        per_row = [entropy_change(a, b, idx, expm1=expm1) for a, b in zip(sums.tolist(), before)]
        assert same_bits(change, np.array(per_row, dtype=float))

    @pytest.mark.parametrize("idx", INDICES)
    def test_stack_of_stacks(self, idx):
        rng = np.random.default_rng(53)
        p = rng.dirichlet(np.ones(9), (4, 5))
        p[rng.uniform(size=p.shape) < 0.3] = 0.0
        p[..., 0] += 0.1
        p /= p.sum(axis=-1, keepdims=True)
        flat = disturbance_spectra(p[0, 0], p.reshape(20, 9), idx)
        assert same_bits(disturbance_spectra(p[0, 0], p, idx), flat.reshape(4, 5))


class TestPurityRatio:
    @pytest.mark.parametrize("idx", INDICES)
    @pytest.mark.parametrize("dims,rank", [((2, 2), 4), ((3, 3), 2)])
    def test_contractivity_p_b_equals_per_row_ratio(self, idx, dims, rank):
        rho = rank_deficient(dims, rank, np.random.default_rng([59, rank, *dims]))
        spectra = measurement_pair_spectra(rho, 200, 61)
        p_b = entropy.purity_ratio_sums(
            spectral_sum(spectra["after_b"], idx), spectral_sum(spectra["before"], idx), idx
        )
        per_row = [purity_ratio_row(spectra["before"], b, idx) for b in spectra["after_b"]]
        assert same_bits(np.broadcast_to(p_b, len(per_row)), np.array(per_row))
