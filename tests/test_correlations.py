import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from qcorr import correlations, families, linalg, measurement
from qcorr.correlations import (
    OptimizerOptions,
    contractivity_min_from_spectra,
    entanglement_lower_bound,
    measure_correlations,
    measurement_pair_spectra,
    qubit_oracle,
    su_generators,
    triangle_analysis,
)
from qcorr.entropy import EntropicIndices, spectral_sum, unified_entropy, unified_from_renyi
from qcorr.linalg import DimMismatch, NotUnitary
from qcorr.measurement import LocalMeasurement, ProjectiveBasis
from util import IDX_GRID, bell_density, bilocal_decomposition_check, cc_state, cq_state, pure_density, random_basis

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

    def test_negative_max_iter_rejected(self):
        # accepted, it reported iterations = -restarts
        with pytest.raises(ValueError, match="max_iter"):
            OptimizerOptions(restarts=2, max_iter=-1)
        assert OptimizerOptions(max_iter=0).max_iter == 0

    @pytest.mark.parametrize("n", [2, 4])
    def test_warm_start_of_wrong_dimension_rejected(self, rng, n):
        # a 2x3 AB search takes a qubit basis on A and a qutrit basis on B
        rho = linalg.random_density((2, 3), rng)
        warm = LocalMeasurement("AB", ProjectiveBasis(np.eye(2)), ProjectiveBasis(np.eye(n)))
        with pytest.raises(DimMismatch, match="basis_b has dim"):
            measure_correlations(rho, "AB", TS2, FAST, warm_starts=(warm,))
        warm = LocalMeasurement("A", ProjectiveBasis(np.eye(3)))
        with pytest.raises(DimMismatch, match="basis_a has dim"):
            measure_correlations(rho, "A", TS2, FAST, warm_starts=(warm,))

    def test_warm_start_of_another_side_rejected(self, rng):
        rho = linalg.random_density((2, 3), rng)
        qubit, qutrit = ProjectiveBasis(np.eye(2)), ProjectiveBasis(np.eye(3))
        wrong = {
            "A": LocalMeasurement("AB", qubit, qutrit),
            "B": LocalMeasurement("A", qubit),
            "AB": LocalMeasurement("B", basis_b=qutrit),
        }
        for side, warm in wrong.items():
            with pytest.raises(ValueError, match=f"side-{side} warm starts"):
                measure_correlations(rho, side, TS2, FAST, warm_starts=(warm,))

    def test_non_unitary_warm_start_rejected(self, rng):
        rho = linalg.random_density((2, 2), rng)
        u = linalg.haar_unitary(2, rng)
        warm = LocalMeasurement("A", ProjectiveBasis(u))
        assert measure_correlations(rho, "A", TS2, FAST, warm_starts=(warm,)).restarts_used == FAST.restarts
        with pytest.raises(NotUnitary):
            measure_correlations(rho, "A", TS2, FAST, warm_starts=(LocalMeasurement("A", ProjectiveBasis(1.001 * u)),))

    def test_non_finite_warm_start_rejected(self, rng):
        # once a NaN basis reached the search as "spectrum has no positive weight"
        rho = linalg.random_density((2, 2), rng)
        u = linalg.haar_unitary(2, rng)
        u[1, 0] = np.nan
        with pytest.raises(NotUnitary, match=r"entry \(1, 0\) is not finite"):
            measure_correlations(rho, "A", TS2, FAST, warm_starts=(LocalMeasurement("A", ProjectiveBasis(u)),))

    @pytest.mark.parametrize("restarts, warm, used", [(1, 0, 1), (1, 3, 4), (4, 3, 4), (6, 3, 6)])
    def test_restart_budget_with_warm_starts(self, rng, restarts, warm, used):
        """The eigenbasis start and every warm start run, and Haar starts fill up to ``restarts``."""
        rho = linalg.random_density((2, 2), rng)
        starts = tuple(LocalMeasurement("A", ProjectiveBasis(linalg.haar_unitary(2, rng))) for _ in range(warm))
        res = measure_correlations(rho, "A", TS2, OptimizerOptions(restarts=restarts, seed=3), warm_starts=starts)
        assert res.restarts_used == used == max(restarts, 1 + warm)

    def test_deterministic_given_seed(self, rng):
        rho = linalg.random_density((2, 2), rng)
        r1 = measure_correlations(rho, "A", TS2, OptimizerOptions(restarts=3, seed=5))
        r2 = measure_correlations(rho, "A", TS2, OptimizerOptions(restarts=3, seed=5))
        assert r1.value == r2.value
        assert np.array_equal(r1.argmin.basis_a.unitary, r2.argmin.basis_a.unitary)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
    def test_argmin_reproduces_value(self, dims):
        # the reported measurement, evaluated on its own, gives the value
        rho = linalg.random_density(dims, np.random.default_rng(list(dims)))
        for side in ("A", "B", "AB"):
            for q, s in ((0.5, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 0.5)):
                idx = EntropicIndices(q, s)
                res = measure_correlations(rho, side, idx, FAST)
                assert res.argmin.side == side
                again = measurement.disturbance(rho, res.argmin, idx).disturbance
                assert abs(again - res.value) <= 1e-14 * abs(res.value)

    @pytest.mark.parametrize("q", [0.1, 0.2, 0.3])
    def test_pure_states_at_small_q(self, q):
        # roundoff eigenvalues of order 1e-17, counted as p^q, once put the
        # value up to 0.2 below S(rho_A) at q = 0.1
        rng = np.random.default_rng(11)
        idx = EntropicIndices(q, 1.0)
        for dims in ((2, 2), (2, 3), (3, 3)):
            for _ in range(4):
                psi = linalg.random_pure(dims, rng)
                rho = linalg.make_density(np.outer(psi, psi.conj()), dims)
                exact = unified_entropy(linalg.partial_trace(rho, [0]), idx)
                assert abs(measure_correlations(rho, "A", idx, FAST).value - exact) <= 1e-12

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


class TestRiemannianSearch:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_gradient_matches_finite_differences(self, rng, dims):
        # the search's objective: the Renyi measure at idx.q, whatever idx.s
        rho = linalg.random_density(dims, rng)
        t = rho.matrix.reshape(dims + dims)
        for idx in IDX_GRID:
            before = spectral_sum(linalg.spectrum(rho), idx)
            for side in ("A", "B", "AB"):
                us = [linalg.haar_unitary(n, rng)[None] for n, name in zip(dims, "AB") if name in side]
                evaluate = correlations._objective_factory(t, side, idx.q, before)
                coords, lo = evaluate(*us)[1][0], 0
                for k, u in enumerate(us):
                    # the coordinate gradient as a matrix, against a full
                    # Hermitian direction: its diagonal only rephases the basis
                    n = u.shape[-1]
                    grad = (coords[lo:lo + n * (n - 1)] @ correlations._tangent_basis(n)[0]).reshape(n, n)
                    lo += n * (n - 1)
                    h = rng.standard_normal(u.shape[1:]) + 1j * rng.standard_normal(u.shape[1:])
                    h = h + h.conj().T

                    def moved(eps):
                        vs = list(us)
                        vs[k] = u @ expm(1j * eps * h)
                        return evaluate(*vs)[0][0]

                    numeric = (moved(1e-6) - moved(-1e-6)) / 2e-6
                    exact = np.real(np.trace(h @ grad))
                    assert abs(numeric - exact) <= 1e-7 * max(1.0, abs(exact))

    def test_gradient_finite_at_zero_probabilities(self, rng):
        # a pure state in its local eigenbases: most measured probabilities
        # vanish, where ln p and p^(q-1) diverge (warnings are errors here)
        psi = linalg.random_pure((2, 3), rng)
        rho = pure_density(psi, (2, 3))
        t = rho.matrix.reshape(2, 3, 2, 3)
        us = [correlations._eigenbasis(rho, k)[None] for k in (0, 1)]
        for idx in (VN, EntropicIndices(0.3, 1.0), EntropicIndices(0.5, 0.0)):
            before = spectral_sum(linalg.spectrum(rho), idx)
            for side, sel in (("A", us[:1]), ("B", us[1:]), ("AB", us)):
                grads = correlations._objective_factory(t, side, idx.q, before)(*sel)[1]
                assert grads.shape == (1, sum(u.shape[-1] * (u.shape[-1] - 1) for u in sel))
                assert np.all(np.isfinite(grads))

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_qudit_values_match_long_search(self, q):
        """3x3 states on every side: 8 restarts reach a 32-restart long run."""
        idx = EntropicIndices(q, 1.0)
        long_run = OptimizerOptions(restarts=32, seed=1, max_iter=20000)
        for k in range(4):
            rho = linalg.random_density((3, 3), np.random.default_rng([5, k]))
            for side in ("A", "B", "AB"):
                found = measure_correlations(rho, side, idx, OptimizerOptions(restarts=8)).value
                reference = measure_correlations(rho, side, idx, long_run).value
                assert abs(found - reference) <= 1e-8, (k, side)

    def test_result_carries_evidence(self):
        rho = linalg.random_density((3, 3), np.random.default_rng([5, 2]))
        opts = OptimizerOptions(restarts=8)
        res = measure_correlations(rho, "AB", VN, opts)
        assert math.isfinite(res.spread) and res.spread >= 0.0
        assert res.converged
        assert res.grad_norm <= 1e-6
        assert 1 <= res.basin_hits <= opts.restarts
        assert res.nfev >= opts.restarts
        assert res.iterations > 0

    def test_grad_norm_is_on_the_value_scale(self):
        """At (q, s) the search is the Renyi one, and grad_norm is its gradient norm times dM/dR = exp(s (1-q) R)."""
        rho = linalg.random_density((2, 3), np.random.default_rng([5, 3]))
        opts = OptimizerOptions(restarts=4, seed=2)
        for idx in (TS2, EntropicIndices(0.5, -1.0), EntropicIndices(3.0, 0.5)):
            renyi = measure_correlations(rho, "AB", EntropicIndices(idx.q, 0.0), opts)
            res = measure_correlations(rho, "AB", idx, opts)
            slope = math.exp(idx.s * (1.0 - idx.q) * renyi.value)
            assert res.value == unified_from_renyi(renyi.value, idx)
            assert res.grad_norm == pytest.approx(renyi.grad_norm * slope, rel=1e-15, abs=0.0)
            assert (res.nfev, res.converged) == (renyi.nfev, renyi.converged)

    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
    def test_decrease_test_stops_at_the_minimum(self, dims, k, monkeypatch):
        """The DECREASE_TOL decrease test ends a descent where a zero threshold ends it.

        A descent stops once a full step lowers the value by at most
        DECREASE_TOL times the value; that must not happen before the
        minimum is reached.
        """
        rho = linalg.random_density(dims, np.random.default_rng([dims[0], dims[1], k]))
        opts = OptimizerOptions(restarts=8, seed=k)
        res = measure_correlations(rho, "AB", TS2, opts)
        monkeypatch.setattr(correlations, "DECREASE_TOL", 0.0)
        exact = measure_correlations(rho, "AB", TS2, opts)
        assert abs(res.value - exact.value) <= 1e-11
        assert res.grad_norm <= 1e-6

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    def test_exact_zero_minimum_is_converged(self, q):
        """A state without measurement-induced correlations on a side reports ``converged`` at its minimum 0.

        Roundoff near that minimum scales with R_q(rho), not with the value:
        under the rule |g|^2 <= DECREASE_TOL |value| alone, 6 of the 9
        product-state calls and 1 of the 3 side-A calls on the
        classical-quantum state report False, at gradient norms up to 2.3e-8.
        """
        rng = np.random.default_rng(5)
        a, b = linalg.random_density(2, rng), linalg.random_density(2, rng)
        product = linalg.make_density(np.kron(a.matrix, b.matrix), (2, 2))
        classical_a = cq_state(np.random.default_rng(1), 3, 2, probs=np.array([0.5, 0.3, 0.2]))
        opts = OptimizerOptions(restarts=8, seed=1)
        for rho, sides in ((product, ("A", "B", "AB")), (classical_a, ("A",))):
            for side in sides:
                res = measure_correlations(rho, side, EntropicIndices(q, 1.0), opts)
                assert abs(res.value) <= 1e-13 and res.converged, (side, res.value, res.grad_norm)

    def test_cusp_stall_is_not_converged(self):
        # a rank-2 3x3 state at q = 0.3: restarts stall where a measured
        # probability reaches 0 and p^q has an infinite slope
        rng = np.random.default_rng(7)
        v = rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))
        rho = linalg.make_density(v @ v.conj().T, (3, 3))
        opts = OptimizerOptions(restarts=4, seed=3)
        runs, lockstep = [], correlations._lockstep

        def spy(*args):
            rows = lockstep(*args)
            runs.extend(rows)
            return rows

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(correlations, "_lockstep", spy)
            res = measure_correlations(rho, "A", EntropicIndices(0.3, 1.0), opts)
        assert len(runs) == opts.restarts
        assert not res.converged and res.grad_norm > 1.0
        assert not any(run.success for run in runs)
        # the restarts descend the Renyi measure, which maps to the (q, s) value
        assert unified_from_renyi(min(run.fun for run in runs), EntropicIndices(0.3, 1.0)) == res.value
        # at q = 2 the objective is smooth there and the same search converges
        assert measure_correlations(rho, "A", TS2, opts).converged


class TestQubitOracle:
    @staticmethod
    def dakic_vedral_brukner(rho, side):
        """Two-qubit geometric discord over the purity, from Bloch data."""
        paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        eye = np.eye(2)
        m = rho.matrix
        x = np.real([np.trace(m @ np.kron(p, eye)) for p in paulis])
        y = np.real([np.trace(m @ np.kron(eye, p)) for p in paulis])
        corr = np.real([[np.trace(m @ np.kron(a, b)) for b in paulis] for a in paulis])
        if side == "B":
            x, corr = y, corr.T
        k_max = np.linalg.eigvalsh(np.outer(x, x) + corr @ corr.T)[-1]
        return 0.25 * (x @ x + np.sum(corr**2) - k_max) / np.real(np.trace(m @ m))

    def test_matches_dakic_vedral_brukner(self, rng):
        for _ in range(20):
            rho = linalg.random_density((2, 2), rng)
            for side in ("A", "B"):
                assert_allclose(qubit_oracle(rho, side), self.dakic_vedral_brukner(rho, side), atol=1e-14)

    @pytest.mark.parametrize(
        "dims, side", [((2, 2), "A"), ((2, 3), "A"), ((2, 4), "A"), ((3, 2), "B"), ((2, 2), "B"), ((2, 2), "AB")]
    )
    def test_search_matches_oracle(self, rng, dims, side):
        """At (2, 1), and at (2, 0) and (2, -1) through the oracle's Renyi value R_2 = -log1p(-M_(2,1))."""
        opts = OptimizerOptions(restarts=8, seed=3)
        for _ in range(5):
            rho = linalg.random_density(dims, rng)
            renyi = -math.log1p(-qubit_oracle(rho, side))
            for s, exact in ((1.0, qubit_oracle(rho, side)), (0.0, renyi), (-1.0, math.expm1(renyi))):
                found = measure_correlations(rho, side, EntropicIndices(2.0, s), opts).value
                assert abs(found - exact) <= 1e-9, s

    def test_rejects_measured_qutrit(self, rng):
        for dims, side in (((3, 2), "A"), ((2, 3), "B"), ((2, 3), "AB"), ((3, 3), "AB")):
            with pytest.raises(DimMismatch, match=f"^side {side} must measure qubits only"):
                qubit_oracle(linalg.random_density(dims, rng), side)

    def test_rejects_other_sides(self, rng):
        for side in ("C", "BA", "a"):
            with pytest.raises(ValueError, match="^side must be A, B or AB"):
                qubit_oracle(linalg.random_density((2, 2), rng), side)

    def test_agrees_with_optimizer_on_random_states(self, rng):
        for _ in range(50):
            rho = linalg.random_density((2, 2), rng)
            found = measure_correlations(rho, "A", TS2, FAST).value
            assert abs(found - qubit_oracle(rho, "A")) <= 1e-10

    def test_product_state(self, rng):
        # with a maximally mixed factor (x = 0, T = 0), one side's block matrix of the ascent is 0
        mixed = linalg.make_density(np.eye(2) / 2, (2,))
        for a in (linalg.random_density(2, rng), mixed):
            prod = linalg.tensor(a, linalg.random_density(2, rng))
            for side in ("A", "B", "AB"):
                assert abs(qubit_oracle(prod, side)) <= 1e-15, side

    def test_bell_state(self):
        # Tr rho^2 = 1 and the best measurement keeps half of it on every side; side AB ends within roundoff
        for side in ("A", "B", "AB"):
            assert abs(qubit_oracle(bell_density(), side) - 0.5) <= 1e-15, side

    def test_side_ab_matches_search_on_random_states(self):
        """The 8-restart search (seed 1) meets the side-AB oracle at q = 2, s = 1 and 0, so never falls below it."""
        opts = OptimizerOptions(restarts=8, seed=1)
        for k in range(20):
            rho = linalg.random_density((2, 2), np.random.default_rng([12, k]))
            renyi = -math.log1p(-qubit_oracle(rho, "AB"))
            for idx in (TS2, EntropicIndices(2.0, 0.0)):
                found = measure_correlations(rho, "AB", idx, opts).value
                assert abs(found - unified_from_renyi(renyi, idx)) <= 1e-12, (k, idx)

    def test_side_ab_narrow_peak_matches_search(self):
        # state 48 of this stream has a narrow peak that polishing only the best cells of a grid misses
        rng = np.random.default_rng(31337)
        rho = [linalg.random_density((2, 2), rng) for _ in range(49)][48]
        found = measure_correlations(rho, "AB", TS2, OptimizerOptions(restarts=8, seed=1)).value
        assert abs(qubit_oracle(rho, "AB") - found) <= 1e-12

    def test_side_ab_finds_the_global_peak_off_the_best_cells(self):
        """rho = (I + a Z (x) I + a I (x) Z + t X (x) X)/4 has two local maxima of sum p^2 over the Bloch pair.

        With t^2 just above 2 a^2, n = m = z gives 2 a^2, a broad peak on the grid's best cells, and
        n = m = x gives t^2, a narrow one between them.  f = a^2 n_z^2 + a^2 m_z^2 + t^2 n_x^2 m_x^2 is
        largest with no y components, where it is bilinear in (n_z^2, m_z^2), so max f = t^2 and
        M_(2,1) = 1 - (1 + t^2) / (1 + 2 a^2 + t^2).
        """
        a, t = 0.3, 0.43
        x, z, eye = np.array([[0, 1], [1, 0]]), np.diag([1, -1]), np.eye(2)
        matrix = np.eye(4) + a * np.kron(z, eye) + a * np.kron(eye, z) + t * np.kron(x, x)
        rho = linalg.make_density(matrix / 4, (2, 2))
        exact = 2 * a * a / (1 + 2 * a * a + t * t)
        assert abs(qubit_oracle(rho, "AB") - exact) <= 1e-14
        assert abs(measure_correlations(rho, "AB", TS2, OptimizerOptions(restarts=8, seed=1)).value - exact) <= 1e-12

    def test_side_ab_beats_every_haar_pair(self, rng):
        """No Haar pair scored by the side-AB value kernel lies below the oracle: it maximizes sum p^2 over all pairs."""
        for _ in range(3):
            rho = linalg.random_density((2, 2), rng)
            spectra = measurement._spectrum_side_ab(measurement._tensor(rho), *linalg.haar_batch(rng, 2000, (2, 2)))
            values = measurement.disturbance_spectra(linalg.spectrum(rho), spectra, TS2)
            assert values.min() >= qubit_oracle(rho, "AB") - 1e-13

    def test_side_ab_is_at_least_either_side(self, rng):
        # measuring both sides majorizes measuring one, so M_AB >= max(M_A, M_B)
        for _ in range(10):
            rho = linalg.random_density((2, 2), rng)
            assert qubit_oracle(rho, "AB") >= max(qubit_oracle(rho, "A"), qubit_oracle(rho, "B")) - 1e-15


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
        (report,) = triangle_analysis(rho, [TS2], FAST)
        for value in (report.m_a, report.m_b, report.m_ab, report.delta0, report.delta1):
            assert abs(value) < 1e-7
        assert report.triangle_holds and report.sandwich_holds

    def test_cq_state_collapses_to_b_measure(self, rng):
        rho = cq_state(rng)
        (report,) = triangle_analysis(rho, [TS2], OptimizerOptions(restarts=6, seed=2))
        assert abs(report.delta1) < 1e-8
        assert abs(report.m_a) < 1e-7
        assert abs(report.m_ab - report.m_b) < 1e-6

    def test_von_neumann_random_states(self, rng):
        for _ in range(10):
            rho = linalg.random_density((2, 2), rng)
            (report,) = triangle_analysis(rho, [VN], FAST)
            assert report.triangle_holds and report.ordering_holds
            assert report.m_ab >= max(report.m_a, report.m_b) - 1e-8

    @pytest.mark.parametrize("k, violated", [(22, True), (51, True), (95, True), (0, False), (1, False)])
    def test_exact_at_q_two(self, k, violated):
        """At q = 2 each measure is qubit_oracle's Renyi value mapped to s; at s = -8 three states violate the triangle.

        c = s (1 - q) = 8 > 0 there, where the unified relation need not follow the Renyi one.  The
        exact gaps m_ab - m_a - m_b of the violators are 1.4e-2, 1.6e-4 and 0.21.
        """
        rho = linalg.random_density((2, 2), np.random.default_rng([31, k]))
        indices = [EntropicIndices(2.0, s) for s in (1.0, 0.0, -8.0)]
        reports = triangle_analysis(rho, indices, OptimizerOptions(restarts=8, seed=1))
        renyi = [-math.log1p(-qubit_oracle(rho, side)) for side in ("A", "B", "AB")]
        for idx, report in zip(indices, reports):
            for found, r in zip((report.m_a, report.m_b, report.m_ab), renyi):
                exact = unified_from_renyi(r, idx)
                assert abs(found - exact) <= 1e-10 * max(1.0, abs(exact)), (idx, found, exact)
        assert [report.triangle_holds for report in reports] == [True, True, not violated]


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


@pytest.mark.parametrize("field, value, message", [
    ("restarts", 0, "restarts must be >= 1, got 0"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("max_iter", -1, "max_iter must be >= 0, got -1"),
    # a float would otherwise fail deep in the search with an unnamed TypeError
    ("restarts", 2.5, "restarts must be an integer, got 2.5"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("max_iter", 3.5, "max_iter must be an integer, got 3.5"),
    # bool is an int subclass, so True would run one restart without a word
    ("restarts", True, "restarts must be an integer, got True"),
    ("seed", False, "seed must be an integer, got False"),
])
def test_optimizer_options_name_each_out_of_range_field(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        OptimizerOptions(**{field: value})


def test_optimizer_options_take_numpy_integers():
    rho = linalg.random_density((2, 2), np.random.default_rng(1))
    as_numpy = OptimizerOptions(restarts=np.int64(2), seed=np.int64(1), max_iter=np.int64(50))
    found = measure_correlations(rho, "A", TS2, as_numpy)
    assert found.value == measure_correlations(rho, "A", TS2, OptimizerOptions(restarts=2, seed=1, max_iter=50)).value


@pytest.mark.parametrize("call, message", [
    (lambda: measurement_pair_spectra(bell_density(), 0, 1), "trials must be >= 1"),
    (lambda: measurement_pair_spectra(bell_density(), 2.5, 1), "trials must be an integer, got 2.5"),
    (lambda: measurement_pair_spectra(bell_density(), True, 1), "trials must be an integer, got True"),
], ids=["no trials", "float trials", "bool trials"])
def test_named_errors(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestDelta:
    """The triangle scan's Delta: fig1's contractivity kernel on one basis pair, against state-level expressions.

    By the bilocal identity D_AB = D_A + P_A * D_B(post_A) = D_B + P_B * D_A(post_B),
    the five-term D_AB - P_B * D_A(post_B) - P_A * D_B(post_A), the kernel's
    D_A - P_B * D_A(post_B) and D_A + D_B - D_AB are one value.
    """

    @staticmethod
    def kernel(rho, basis_a, basis_b, idx):
        spectra = correlations._pair_spectra(rho, basis_a.unitary, basis_b.unitary)
        return contractivity_min_from_spectra(spectra, [idx])[0]

    @staticmethod
    def state_level(rho, basis_a, basis_b, idx):
        pair = LocalMeasurement("AB", basis_a, basis_b)
        step_a, step_b = _rescaled_second_steps(rho, basis_a, basis_b, idx)
        return measurement.disturbance(rho, pair, idx).disturbance - step_b - step_a

    @staticmethod
    def sum_of_sides(rho, basis_a, basis_b, idx):
        """D_A + D_B - D_AB, each from ``measurement.disturbance``."""
        ms = [LocalMeasurement("A", basis_a), LocalMeasurement("B", basis_b=basis_b),
              LocalMeasurement("AB", basis_a, basis_b)]
        d_a, d_b, d_ab = (measurement.disturbance(rho, m, idx).disturbance for m in ms)
        return d_a + d_b - d_ab

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("idx", [VN, EntropicIndices(2.0, 0.0), TS2, EntropicIndices(3.0, 0.5)])
    def test_matches_state_level_expression(self, rng, dims, idx):
        for _ in range(5):
            rho = linalg.random_density(dims, rng)
            ba, bb = random_basis(dims[0], rng), random_basis(dims[1], rng)
            got = self.kernel(rho, ba, bb, idx)
            assert abs(got - self.state_level(rho, ba, bb, idx)) <= 1e-13

    def test_pure_state_small_q(self, rng):
        idx = EntropicIndices(0.3, 1.0)
        for dims in ((2, 2), (2, 3)):
            rho = pure_density(linalg.random_pure(dims[0] * dims[1], rng), dims)
            ba, bb = random_basis(dims[0], rng), random_basis(dims[1], rng)
            got = self.kernel(rho, ba, bb, idx)
            assert abs(got - self.state_level(rho, ba, bb, idx)) <= 1e-13

    @pytest.mark.parametrize("pure", [False, True], ids=["mixed", "pure"])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_kernel_is_d_a_plus_d_b_minus_d_ab(self, rng, dims, pure):
        """The identity that lets the triangle scan take its Delta from fig1's kernel."""
        for _ in range(3):
            if pure:
                rho = pure_density(linalg.random_pure(dims[0] * dims[1], rng), dims)
            else:
                rho = linalg.random_density(dims, rng)
            ba, bb = random_basis(dims[0], rng), random_basis(dims[1], rng)
            for idx in IDX_GRID:
                got = self.kernel(rho, ba, bb, idx)
                assert abs(got - self.state_level(rho, ba, bb, idx)) <= 1e-13, idx
                assert abs(got - self.sum_of_sides(rho, ba, bb, idx)) <= 1e-13, idx

    def test_triangle_report_takes_each_delta_at_its_pair(self, rng):
        rho = linalg.random_density((2, 2), rng)
        (report,) = triangle_analysis(rho, [TS2], FAST)
        renyi = EntropicIndices(TS2.q, 0.0)
        res_a, res_b = (measure_correlations(rho, side, renyi, FAST) for side in "AB")
        warm = LocalMeasurement("AB", res_a.argmin.basis_a, res_b.argmin.basis_b)
        res_ab = measure_correlations(rho, "AB", renyi, FAST, warm_starts=(warm,))
        assert report.delta0 == self.kernel(rho, res_ab.argmin.basis_a, res_ab.argmin.basis_b, TS2)
        assert report.delta1 == self.kernel(rho, warm.basis_a, warm.basis_b, TS2)


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
            basis_a1, basis_b1 = res_a.argmin.basis_a, res_b.argmin.basis_b
            warm = LocalMeasurement("AB", basis_a1, basis_b1)
            res_ab = measure_correlations(rho, "AB", idx, opts, warm_starts=(warm,))

            pair0 = res_ab.argmin
            step_b0, step_a0 = _rescaled_second_steps(rho, pair0.basis_a, pair0.basis_b, idx)
            lower = max(res_a.value + step_b0, res_b.value + step_a0)

            step_b1, step_a1 = _rescaled_second_steps(rho, basis_a1, basis_b1, idx)
            upper = min(res_a.value + step_b1, res_b.value + step_a1)

            assert res_ab.value >= lower - 1e-8
            assert res_ab.value <= upper + 1e-8


class TestContractivity:
    def test_von_neumann_no_violation(self, rng):
        for _ in range(5):
            rho = linalg.random_density((2, 2), rng)
            spectra = measurement_pair_spectra(rho, 200, rng.integers(2**32))
            assert contractivity_min_from_spectra(spectra, [VN])[0] >= -1e-8

    def test_tsallis_two_no_violation(self, rng):
        for _ in range(5):
            rho = linalg.random_density((2, 2), rng)
            spectra = measurement_pair_spectra(rho, 200, rng.integers(2**32))
            assert contractivity_min_from_spectra(spectra, [TS2])[0] >= -1e-8

    @pytest.mark.parametrize("q", [0.5, 4.0])
    def test_tsallis_violations_found(self, q):
        idx = EntropicIndices(q, 1.0)
        found = False
        for state_seed in range(20):
            rho = linalg.random_density((2, 2), np.random.default_rng([99, state_seed]))
            value = contractivity_min_from_spectra(measurement_pair_spectra(rho, 400, [99, state_seed, 1]), [idx])[0]
            if value < -1e-6:
                found = True
                break
        assert found, f"no contractivity violation found at q={q}"

    def test_shared_sums_give_identical_rows(self, rng):
        # the fig1 driver makes one call for its Renyi and Tsallis rows, which share the sums of each q
        rho = linalg.random_density((2, 2), rng)
        spectra = measurement_pair_spectra(rho, 60, 5)
        indices = [EntropicIndices(q, s) for s in (0.0, 1.0) for q in (0.5, 1.0, 2.0, 4.0)]
        shared = contractivity_min_from_spectra(spectra, indices)
        assert shared == [contractivity_min_from_spectra(spectra, [idx])[0] for idx in indices]
