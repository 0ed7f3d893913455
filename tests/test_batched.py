"""Bitwise equality of the batched fig1 path with its per-trial definition.

``measurement_pair_spectra`` draws every trial's Ginibre entries at once and
``contractivity_min_from_spectra`` evaluates the post-measurement term row by
row; both must reproduce, bit for bit, the per-trial loops they replace, so
that ``qcorr fig1`` output does not move in the last digit.
"""

import math

import numpy as np
import pytest

from qcorr import correlations, linalg, measurement
from qcorr.correlations import contractivity_min_from_spectra, measurement_pair_spectra
from qcorr.entropy import EntropicIndices, Regime
from qcorr.measurement import disturbance_rows, disturbance_spectra

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


def reference_contractivity_min(spectra, idx):
    """The per-trial disturbance_spectra expression the batched kernel replaced."""
    before = spectra["before"]
    d_a = correlations._disturbance_batch(before, spectra["after_a"], idx)
    d_a_post_b = np.array(
        [
            disturbance_spectra(b_spec, ab_spec, idx)
            for b_spec, ab_spec in zip(spectra["after_b"], spectra["after_ab"])
        ]
    )
    if idx.regime is Regime.UNIFIED:
        q, s = idx.q, idx.s
        log_tb = np.log(np.sum(np.where(before > 0.0, before, 0.0) ** q))
        log_t_post = np.log(np.sum(spectra["after_b"] ** q, axis=-1))
        p_b = np.exp(s * (log_t_post - log_tb))
    else:
        p_b = 1.0
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

    @pytest.mark.parametrize("n", [2, 3])
    def test_stacked_draw_equals_sequential_calls(self, n):
        r1, r2 = np.random.default_rng([n, 2]), np.random.default_rng([n, 2])
        sequential = np.array([linalg.haar_unitary(n, r1) for _ in range(100)])
        stacked = linalg.haar_from_normals(r2.standard_normal((100, 2 * n * n)), n)
        assert same_bits(stacked, sequential)


class TestStackedSpectra:
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

    def test_single_trial(self):
        rho = linalg.random_density((2, 2), np.random.default_rng(3))
        batched = measurement_pair_spectra(rho, 1, 17)
        looped = reference_pair_spectra(rho, 1, 17)
        for key in ("after_a", "after_b", "after_ab"):
            assert same_bits(batched[key], looped[key])


class TestDisturbanceRows:
    @staticmethod
    def check(before, after, idx):
        rows = disturbance_rows(before, after, idx)
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
        rng = np.random.default_rng(29)
        p = rng.uniform(0.0, 1.0, (300, 9))
        p[rng.uniform(size=p.shape) < 0.35] = 0.0
        p[:, 4] += 0.05  # no row without weight
        p /= p.sum(axis=-1, keepdims=True)
        self.check(p[:150], p[150:], idx)

    def test_series_branch(self):
        # |s * dlog| runs from about 1e-17 to 1e-9 over the rows, so the batch
        # holds rows on both sides of the 1e-12 switch to the series
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
            disturbance_rows(np.zeros((2, 4)), np.full((2, 4), 0.25), EntropicIndices(2.0, 1.0))


class TestContractivityMin:
    @pytest.mark.parametrize("idx", INDICES)
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_equals_per_trial_expression(self, idx, dims):
        rng = np.random.default_rng([37, *dims])
        for k in range(2):
            rho = linalg.random_density(dims, rng)
            spectra = measurement_pair_spectra(rho, 300, [41, k])
            value = contractivity_min_from_spectra(spectra, idx)
            assert same_bits(value, reference_contractivity_min(spectra, idx))

    @pytest.mark.parametrize("idx", INDICES)
    def test_rank_deficient_states(self, idx):
        rng = np.random.default_rng(43)
        for dims, rank in (((2, 2), 1), ((3, 3), 2)):
            spectra = measurement_pair_spectra(rank_deficient(dims, rank, rng), 200, 47)
            value = contractivity_min_from_spectra(spectra, idx)
            assert same_bits(value, reference_contractivity_min(spectra, idx))
