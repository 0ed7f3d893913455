import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcorr import correlations, families, linalg, measurement
from qcorr.correlations import (
    BadLength,
    OptimizerOptions,
    bilocal_decomposition_check,
    contractivity_min_from_spectra,
    contractivity_probe,
    decode_basis,
    entanglement_lower_bound,
    grid_oracle_qubit,
    measure_correlations,
    measurement_pair_spectra,
    su_generators,
    triangle_analysis,
)
from qcorr.entropy import EntropicIndices
from qcorr.linalg import DimMismatch
from util import IDX_GRID, bell_density, cc_state, cq_state, random_basis

VN = EntropicIndices(1.0, 1.0)
TS2 = EntropicIndices(2.0, 1.0)
FAST = OptimizerOptions(restarts=4, seed=11)


@pytest.fixture
def rng():
    return np.random.default_rng(31337)


class TestGenerators:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_basis_properties(self, n):
        gens = su_generators(n)
        assert gens.shape == (n * n - 1, n, n)
        for g in gens:
            assert_allclose(g, g.conj().T, atol=1e-14)
            assert abs(np.trace(g)) < 1e-14
        gram = np.einsum("aij,bji->ab", gens, gens).real
        assert_allclose(gram, 2.0 * np.eye(n * n - 1), atol=1e-13)


class TestDecodeBasis:
    def test_zero_gives_computational(self):
        basis = decode_basis(np.zeros(3), 2)
        assert_allclose(basis.unitary, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_always_orthonormal(self, n, rng):
        for _ in range(20):
            angles = rng.uniform(-3, 3, n * n - 1)
            u = decode_basis(angles, n).unitary
            assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-12

    def test_bad_length(self):
        with pytest.raises(BadLength):
            decode_basis(np.zeros(4), 2)

    def test_bloch_rotation_projectors(self):
        # angles (theta/2 sin phi, -theta/2 cos phi, 0) reproduce the basis
        # (cos(theta/2), e^{i phi} sin(theta/2)) up to phases
        theta, phi = 1.1, 2.4
        angles = np.array([theta / 2 * np.sin(phi), -theta / 2 * np.cos(phi), 0.0])
        u = decode_basis(angles, 2).unitary
        v0 = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
        assert_allclose(
            np.outer(u[:, 0], u[:, 0].conj()), np.outer(v0, v0.conj()), atol=1e-10
        )

    def test_roundtrip_through_angles(self, rng):
        for n in (2, 3):
            u = linalg.haar_unitary(n, rng)
            angles = correlations._angles_from_unitary(u)
            u2 = decode_basis(angles, n).unitary
            # same projectors: u2 = u up to a global phase
            phase = u2[:, 0] @ u[:, 0].conj()
            assert_allclose(u2, u * (phase / abs(phase)), atol=1e-10)


class TestMeasureCorrelations:
    @pytest.mark.parametrize("side", ["A", "B", "AB"])
    def test_product_state_has_no_correlations(self, rng, side):
        prod = linalg.tensor(linalg.random_density(2, rng), linalg.random_density(2, rng))
        for idx in (VN, TS2, EntropicIndices(0.5, 1.0)):
            res = measure_correlations(prod, side, idx, FAST)
            assert abs(res.value) < 1e-8

    @pytest.mark.parametrize("side", ["A", "B", "AB"])
    def test_bell_von_neumann(self, side):
        res = measure_correlations(bell_density(), side, VN, FAST)
        assert abs(res.value - math.log(2)) < 1e-6
        assert res.converged

    def test_pseudopure_known_value(self):
        rho = families.build(families.FamilySpec("pseudopure", 2, 2, 0.5))
        res = measure_correlations(rho, "AB", TS2, FAST)
        assert abs(res.value - 2.0 / 7.0) < 1e-6

    def test_dimension_one_side_rejected(self, rng):
        rho = linalg.random_density((1, 3), rng)
        for side in ("A", "AB"):
            with pytest.raises(DimMismatch, match="side A"):
                measure_correlations(rho, side, TS2, FAST)
        assert abs(measure_correlations(rho, "B", TS2, FAST).value) < 1e-8
        flipped = linalg.random_density((3, 1), rng)
        with pytest.raises(DimMismatch, match="side B"):
            measure_correlations(flipped, "B", TS2, FAST)

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_restarts_below_one_rejected(self, restarts):
        with pytest.raises(ValueError):
            OptimizerOptions(restarts=restarts)

    def test_deterministic_given_seed(self, rng):
        rho = linalg.random_density((2, 2), rng)
        r1 = measure_correlations(rho, "A", TS2, OptimizerOptions(restarts=3, seed=5))
        r2 = measure_correlations(rho, "A", TS2, OptimizerOptions(restarts=3, seed=5))
        assert r1.value == r2.value
        assert np.array_equal(r1.argmin.angles_a, r2.argmin.angles_a)

    def test_result_reports_diagnostics(self, rng):
        rho = linalg.random_density((2, 2), rng)
        res = measure_correlations(rho, "B", TS2, FAST)
        assert res.restarts_used == FAST.restarts
        assert res.iterations > 0
        assert res.spread >= 0.0
        assert res.value >= -1e-9

    @pytest.mark.parametrize("side", ["A", "B", "AB"])
    def test_local_unitary_invariance(self, rng, side):
        opts = OptimizerOptions(restarts=6, seed=9)
        for _ in range(3):
            rho = linalg.random_density((2, 2), rng)
            w = np.kron(linalg.haar_unitary(2, rng), linalg.haar_unitary(2, rng))
            rotated = linalg.DensityOperator(w @ rho.matrix @ w.conj().T, (2, 2))
            a = measure_correlations(rho, side, TS2, opts).value
            b = measure_correlations(rotated, side, TS2, opts).value
            assert abs(a - b) <= 1e-6


class TestGridOracle:
    def test_product_state(self, rng):
        prod = linalg.tensor(linalg.random_density(2, rng), linalg.random_density(2, rng))
        assert grid_oracle_qubit(prod, "A", TS2) < 1e-4

    def test_bell_von_neumann(self):
        got = grid_oracle_qubit(bell_density(), "A", VN)
        assert abs(got - math.log(2)) < 1e-4

    def test_bell_bilocal(self):
        got = grid_oracle_qubit(bell_density(), "AB", VN, resolution=(32, 64))
        assert abs(got - math.log(2)) < 1e-4

    def test_rejects_non_two_qubit(self, rng):
        with pytest.raises(DimMismatch):
            grid_oracle_qubit(linalg.random_density((2, 3), rng), "A", TS2)

    def test_agrees_with_optimizer_on_random_states(self, rng):
        for _ in range(50):
            rho = linalg.random_density((2, 2), rng)
            found = measure_correlations(rho, "A", TS2, FAST).value
            oracle = grid_oracle_qubit(rho, "A", TS2)
            assert abs(found - oracle) <= 1e-4


class TestEntanglementLowerBound:
    def test_bell_saturates(self):
        assert_allclose(entanglement_lower_bound(bell_density(), VN), math.log(2), atol=1e-10)

    def test_maximally_mixed_is_negative(self):
        rho = linalg.make_density(np.eye(4) / 4, (2, 2))
        assert_allclose(entanglement_lower_bound(rho, VN), -math.log(2), atol=1e-12)

    def test_bounds_measure_on_random_states(self, rng):
        for _ in range(50):
            rho = linalg.random_density((2, 2), rng)
            bound = entanglement_lower_bound(rho, TS2)
            found = measure_correlations(rho, "A", TS2, FAST).value
            assert bound <= found + 1e-6


class TestBilocalDecomposition:
    def test_product_state_all_zero(self, rng):
        a = linalg.random_density(2, rng)
        b = linalg.random_density(2, rng)
        prod = linalg.tensor(a, b)
        _, va = linalg.eig_hermitian(a)
        _, vb = linalg.eig_hermitian(b)
        res = bilocal_decomposition_check(
            prod, measurement.ProjectiveBasis(va), measurement.ProjectiveBasis(vb), TS2
        )
        assert max(res) < 1e-12

    @pytest.mark.parametrize("idx", IDX_GRID)
    def test_exact_identity_random(self, rng, idx):
        for _ in range(25):
            rho = linalg.random_density((2, 2), rng)
            res = bilocal_decomposition_check(
                rho, random_basis(2, rng), random_basis(2, rng), idx
            )
            assert max(res) <= 1e-10

    def test_renyi_reduces_to_additivity(self, rng):
        idx = EntropicIndices(2.0, 0.0)
        rho = linalg.random_density((2, 3), rng)
        res = bilocal_decomposition_check(
            rho, random_basis(2, rng), random_basis(3, rng), idx
        )
        assert max(res) <= 1e-10


class TestTriangleAnalysis:
    def test_cc_state_all_vanish(self, rng):
        rho = cc_state(rng)
        report = triangle_analysis(rho, TS2, FAST)
        for value in (report.m_a, report.m_b, report.m_ab, report.delta0, report.delta1):
            assert abs(value) < 1e-7
        assert report.triangle_holds and report.dadb_holds

    def test_cq_state_collapses_to_b_measure(self, rng):
        rho = cq_state(rng)
        report = triangle_analysis(rho, TS2, OptimizerOptions(restarts=6, seed=2))
        assert abs(report.delta1) < 1e-8
        assert abs(report.m_a) < 1e-7
        assert abs(report.m_ab - report.m_b) < 1e-6

    def test_von_neumann_random_states(self, rng):
        for _ in range(10):
            rho = linalg.random_density((2, 2), rng)
            report = triangle_analysis(rho, VN, FAST)
            assert report.triangle_holds
            assert report.m_ab >= max(report.m_a, report.m_b) - 1e-8


def _rescaled_second_steps(rho, basis_a, basis_b, idx):
    """P_A * D_B(post_A) and P_B * D_A(post_B) for one measurement pair."""
    m_a = measurement.LocalMeasurement("A", basis_a=basis_a)
    m_b = measurement.LocalMeasurement("B", basis_b=basis_b)
    post_a = measurement.apply_local(rho, m_a)
    post_b = measurement.apply_local(rho, m_b)
    after_a = (
        measurement.purity_ratio(rho, m_a, idx)
        * measurement.disturbance(post_a, m_b, idx).disturbance
    )
    after_b = (
        measurement.purity_ratio(rho, m_b, idx)
        * measurement.disturbance(post_b, m_a, idx).disturbance
    )
    return after_a, after_b


class TestSandwichBounds:
    @pytest.mark.parametrize("idx", [VN, TS2])
    def test_bilocal_minimum_is_sandwiched(self, rng, idx):
        # lower bound from the bilocal argmin pair, upper bound from the
        # pair of unilocal argmins
        opts = OptimizerOptions(restarts=6, seed=9)
        for _ in range(5):
            rho = linalg.random_density((2, 2), rng)
            res_a = measure_correlations(rho, "A", idx, opts)
            res_b = measure_correlations(rho, "B", idx, opts)
            warm = np.concatenate([res_a.argmin.angles_a, res_b.argmin.angles_b])
            res_ab = measure_correlations(rho, "AB", idx, opts, warm_starts=(warm,))

            pair0 = res_ab.argmin.to_measurement()
            step_b0, step_a0 = _rescaled_second_steps(rho, pair0.basis_a, pair0.basis_b, idx)
            lower = max(res_a.value + step_b0, res_b.value + step_a0)

            basis_a1 = res_a.argmin.to_measurement().basis_a
            basis_b1 = res_b.argmin.to_measurement().basis_b
            step_b1, step_a1 = _rescaled_second_steps(rho, basis_a1, basis_b1, idx)
            upper = min(res_a.value + step_b1, res_b.value + step_a1)

            assert res_ab.value >= lower - 1e-8
            assert res_ab.value <= upper + 1e-8


class TestContractivity:
    def test_von_neumann_no_violation(self, rng):
        for _ in range(5):
            rho = linalg.random_density((2, 2), rng)
            assert contractivity_probe(rho, VN, 200, rng.integers(2**32)) >= -1e-8

    def test_tsallis_two_no_violation(self, rng):
        for _ in range(5):
            rho = linalg.random_density((2, 2), rng)
            assert contractivity_probe(rho, TS2, 200, rng.integers(2**32)) >= -1e-8

    @pytest.mark.parametrize("q", [0.5, 4.0])
    def test_tsallis_violations_found(self, q):
        idx = EntropicIndices(q, 1.0)
        found = False
        for state_seed in range(20):
            rho = linalg.random_density((2, 2), np.random.default_rng([99, state_seed]))
            value = contractivity_probe(rho, idx, 400, [99, state_seed, 1])
            if value < -1e-6:
                found = True
                break
        assert found, f"no contractivity violation found at q={q}"

    def test_probe_matches_split_api(self, rng):
        rho = linalg.random_density((2, 2), rng)
        spectra = measurement_pair_spectra(rho, 50, 123)
        for idx in IDX_GRID:
            direct = contractivity_probe(rho, idx, 50, 123)
            cached = contractivity_min_from_spectra(spectra, idx)
            assert_allclose(direct, cached, atol=1e-14)
