import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcorr import correlations, families, linalg, measurement
from qcorr.entropy import EntropicIndices, Regime, entropy_change, purity_ratio_sums, spectral_sum
from qcorr.linalg import DensityOperator, DimMismatch
from qcorr.measurement import (
    LocalMeasurement,
    ProjectiveBasis,
    apply_local,
    disturbance,
    disturbance_spectra,
    measured_spectrum,
    purity_ratio,
)
from util import (
    IDX_GRID,
    bell_density,
    bilocal_decomposition_check,
    conditional_decomposition,
    dephase,
    hs_norm_sq,
    majorizes,
    plus_density,
    pure_density,
    random_basis,
    relative_entropy,
)


@pytest.fixture
def rng():
    return np.random.default_rng(777)


def computational(n):
    return ProjectiveBasis(np.eye(n, dtype=complex))


class TestBasisTypes:
    def test_rejects_non_unitary(self):
        with pytest.raises(linalg.NotUnitary):
            ProjectiveBasis(np.array([[1.0, 0.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("entry, bad", [((0, 0), math.nan), ((1, 1), math.nan), ((0, 1), math.inf)])
    def test_rejects_non_finite_entries(self, entry, bad):
        # NaN > tol is False, so the unitarity deviation alone let NaN through
        u = np.eye(2, dtype=complex)
        u[entry] = bad
        with pytest.raises(linalg.NotUnitary, match=rf"entry \({entry[0]}, {entry[1]}\) is not finite"):
            ProjectiveBasis(u)
        with pytest.raises(linalg.NotUnitary, match="not finite"):
            LocalMeasurement("A", basis_a=ProjectiveBasis(u))
        with pytest.raises(linalg.NotUnitary, match=r"entry \(0, 0\) is not finite"):
            ProjectiveBasis(np.full((2, 2), math.nan))

    def test_projector_completeness(self, rng):
        basis = random_basis(3, rng)
        total = sum(
            np.outer(basis.unitary[:, i], basis.unitary[:, i].conj()) for i in range(3)
        )
        assert_allclose(total, np.eye(3), atol=1e-12)

    def test_side_requires_basis(self, rng):
        with pytest.raises(ValueError):
            LocalMeasurement("A")
        with pytest.raises(ValueError):
            LocalMeasurement("AB", basis_a=random_basis(2, rng))
        with pytest.raises(ValueError):
            LocalMeasurement("C", basis_a=random_basis(2, rng))

    def test_basis_must_be_a_projective_basis(self, rng):
        # a bare unitary once constructed, then failed in measured_spectrum with an AttributeError
        with pytest.raises(ValueError, match="^basis_a must be a ProjectiveBasis or None, got ndarray$"):
            LocalMeasurement("A", basis_a=np.eye(2))
        with pytest.raises(ValueError, match="^basis_a must be a ProjectiveBasis or None, got ndarray$"):
            LocalMeasurement("B", np.eye(2), random_basis(2, rng))


class TestDephase:
    def test_eigenbasis_leaves_state_alone(self, rng):
        rho = linalg.random_density(4, rng)
        _, v = linalg.eig_hermitian(rho)
        out = dephase(rho, ProjectiveBasis(v))
        assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_plus_state_to_maximally_mixed(self):
        out = dephase(plus_density(), computational(2))
        assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-14)

    def test_idempotent(self, rng):
        rho = linalg.random_density(4, rng)
        basis = random_basis(4, rng)
        once = dephase(rho, basis)
        twice = dephase(once, basis)
        assert_allclose(twice.matrix, once.matrix, atol=1e-13)

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimMismatch):
            dephase(linalg.random_density(4, rng), computational(3))

    def test_majorization_monotone(self, rng):
        for _ in range(1000):
            rho = linalg.random_density(4, rng)
            out = dephase(rho, random_basis(4, rng))
            assert majorizes(linalg.spectrum(out), linalg.spectrum(rho))


class TestApplyLocal:
    def test_cq_state_undisturbed(self, rng):
        ua = linalg.haar_unitary(2, rng)
        probs = np.array([0.7, 0.3])
        mat = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            proj = np.outer(ua[:, i], ua[:, i].conj())
            mat += probs[i] * np.kron(proj, linalg.random_density(2, rng).matrix)
        rho = linalg.make_density(mat, (2, 2))
        out = apply_local(rho, LocalMeasurement("A", basis_a=ProjectiveBasis(ua)))
        assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_bell_bilocal_computational(self):
        m = LocalMeasurement("AB", computational(2), computational(2))
        out = apply_local(bell_density(), m)
        assert_allclose(out.matrix, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-14)

    def test_reduced_state_relations(self, rng):
        # Tr_A of the A-measured state is the B marginal; Tr_B is the dephased A marginal
        for _ in range(20):
            rho = linalg.random_density((2, 3), rng)
            basis = random_basis(2, rng)
            out = apply_local(rho, LocalMeasurement("A", basis_a=basis))
            rho_b = linalg.partial_trace(rho, [1])
            assert_allclose(
                linalg.partial_trace(out, [1]).matrix, rho_b.matrix, atol=1e-12
            )
            a_dephased = dephase(linalg.partial_trace(rho, [0]), basis)
            assert_allclose(
                linalg.partial_trace(out, [0]).matrix, a_dephased.matrix, atol=1e-12
            )

    def test_idempotent(self, rng):
        rho = linalg.random_density((2, 2), rng)
        m = LocalMeasurement("AB", random_basis(2, rng), random_basis(2, rng))
        once = apply_local(rho, m)
        assert_allclose(apply_local(once, m).matrix, once.matrix, atol=1e-12)

    def test_sides_commute(self, rng):
        rho = linalg.random_density((2, 3), rng)
        ma = LocalMeasurement("A", basis_a=random_basis(2, rng))
        mb = LocalMeasurement("B", basis_b=random_basis(3, rng))
        ab = apply_local(apply_local(rho, ma), mb)
        ba = apply_local(apply_local(rho, mb), ma)
        assert np.max(np.abs(ab.matrix - ba.matrix)) < 1e-12
        joint = apply_local(
            rho, LocalMeasurement("AB", ma.basis_a, mb.basis_b)
        )
        assert np.max(np.abs(joint.matrix - ab.matrix)) < 1e-12

    def test_dim_mismatch(self, rng):
        rho = linalg.random_density((2, 3), rng)
        with pytest.raises(DimMismatch):
            apply_local(rho, LocalMeasurement("A", basis_a=random_basis(3, rng)))

    def test_needs_two_blocks(self, rng):
        rho = linalg.random_density((2, 2, 2), rng)
        with pytest.raises(DimMismatch):
            apply_local(rho, LocalMeasurement("A", basis_a=random_basis(2, rng)))

    def test_measured_spectrum_matches_apply_local(self, rng):
        rho = linalg.random_density((2, 3), rng)
        for side in ("A", "B", "AB"):
            m = LocalMeasurement(
                side,
                basis_a=random_basis(2, rng) if side in ("A", "AB") else None,
                basis_b=random_basis(3, rng) if side in ("B", "AB") else None,
            )
            fast = measured_spectrum(rho, m)
            full = linalg.spectrum(apply_local(rho, m))
            assert_allclose(fast, full, atol=1e-12)

    def test_measured_spectrum_zeroes_roundoff(self, rng):
        # measuring one side of a pure state leaves rank-one conditional
        # blocks: N_A or N_B outcomes, and exact zeros in place of roundoff
        psi = linalg.random_pure((2, 3), rng)
        rho = linalg.make_density(np.outer(psi, psi.conj()), (2, 3))
        for m, rank in (
            (LocalMeasurement("A", basis_a=random_basis(2, rng)), 2),
            (LocalMeasurement("B", basis_b=random_basis(3, rng)), 3),
        ):
            spec = measured_spectrum(rho, m)
            assert np.all(spec[:rank] > 1e-6)
            assert np.all(spec[rank:] == 0.0)


class TestConditionalDecomposition:
    def test_product_state(self, rng):
        a = linalg.random_density(2, rng)
        b = linalg.random_density(3, rng)
        rho = linalg.tensor(a, b)
        spec_a, v = linalg.eig_hermitian(a)
        dec = conditional_decomposition(
            rho, LocalMeasurement("A", basis_a=ProjectiveBasis(v))
        )
        assert_allclose(np.sort(dec.probabilities)[::-1], spec_a, atol=1e-12)
        for cond in dec.conditionals:
            assert_allclose(cond.matrix, b.matrix, atol=1e-10)

    def test_bell_computational(self):
        dec = conditional_decomposition(
            bell_density(), LocalMeasurement("A", basis_a=computational(2))
        )
        assert_allclose(dec.probabilities, [0.5, 0.5], atol=1e-12)
        assert_allclose(dec.conditionals[0].matrix, np.diag([1.0, 0.0]), atol=1e-12)
        assert_allclose(dec.conditionals[1].matrix, np.diag([0.0, 1.0]), atol=1e-12)

    def test_total_probability_law(self, rng):
        for _ in range(25):
            rho = linalg.random_density((2, 2), rng)
            dec = conditional_decomposition(
                rho, LocalMeasurement("A", basis_a=random_basis(2, rng))
            )
            mix = sum(
                p * c.matrix for p, c in zip(dec.probabilities, dec.conditionals)
            )
            assert_allclose(mix, linalg.partial_trace(rho, [1]).matrix, atol=1e-10)

    def test_reconstructs_post_measurement_state(self, rng):
        rho = linalg.random_density((2, 3), rng)
        basis = random_basis(2, rng)
        m = LocalMeasurement("A", basis_a=basis)
        dec = conditional_decomposition(rho, m)
        rebuilt = np.zeros((6, 6), dtype=complex)
        for i, (p, cond) in enumerate(zip(dec.probabilities, dec.conditionals)):
            proj = np.outer(basis.unitary[:, i], basis.unitary[:, i].conj())
            rebuilt += p * np.kron(proj, cond.matrix)
        assert np.max(np.abs(rebuilt - apply_local(rho, m).matrix)) < 1e-10

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
    def test_side_b_reconstructs_post_measurement_state(self, dims, rng):
        rho = linalg.random_density(dims, rng)
        basis = random_basis(dims[1], rng)
        m = LocalMeasurement("B", basis_b=basis)
        dec = conditional_decomposition(rho, m)
        assert [c.dims for c in dec.conditionals] == [(dims[0],)] * dims[1]
        rebuilt = sum(
            p * np.kron(cond.matrix, np.outer(basis.unitary[:, i], basis.unitary[:, i].conj()))
            for i, (p, cond) in enumerate(zip(dec.probabilities, dec.conditionals))
        )
        assert np.max(np.abs(rebuilt - apply_local(rho, m).matrix)) < 1e-12

    def test_zero_probability_outcome_has_no_conditional(self):
        # |0><0| (x) I/2 measured in the computational basis of A never gives outcome 1
        rho = linalg.make_density(np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2), (2, 2))
        dec = conditional_decomposition(rho, LocalMeasurement("A", basis_a=computational(2)))
        assert_allclose(dec.probabilities, [1.0, 0.0], atol=1e-15)
        assert dec.conditionals[1] is None
        assert_allclose(dec.conditionals[0].matrix, np.eye(2) / 2, atol=1e-15)

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_outcomes_cut_at_the_rank_cutoff(self, side):
        # outcome probabilities 1e-14 and 1e-16 on three outcomes: the first is
        # above the cut 3 eps, though below 1e-12, and the second is below it
        weights = np.array([1.0 - 1e-14 - 1e-16, 1e-14, 1e-16])
        half = np.diag([0.25, 0.75])
        pair = (np.diag(weights), half) if side == "A" else (half, np.diag(weights))
        rho = DensityOperator(np.kron(*pair), (3, 2) if side == "A" else (2, 3))
        m = LocalMeasurement(side, **{f"basis_{side.lower()}": computational(3)})
        dec = conditional_decomposition(rho, m)
        assert 1e-16 < linalg.rank_cutoff(3, 1.0) < 1e-14
        assert_allclose(dec.probabilities, weights, rtol=1e-12, atol=0.0)
        assert dec.conditionals[2] is None
        for cond in dec.conditionals[:2]:
            assert_allclose(cond.matrix, half, rtol=1e-12, atol=0.0)

    def test_joint_probabilities_for_ab(self, rng):
        rho = linalg.random_density((2, 2), rng)
        dec = conditional_decomposition(
            rho, LocalMeasurement("AB", random_basis(2, rng), random_basis(2, rng))
        )
        assert dec.probabilities.shape == (2, 2)
        assert abs(dec.probabilities.sum() - 1.0) < 1e-10
        assert dec.conditionals == ()

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_side_ab_spectrum_is_the_sorted_table(self, dims, rng):
        """The side-AB kernel's spectrum is the reference's joint table, sorted, to 1e-15."""
        for _ in range(20):
            rho = linalg.random_density(dims, rng)
            m = LocalMeasurement("AB", random_basis(dims[0], rng), random_basis(dims[1], rng))
            table = conditional_decomposition(rho, m).probabilities
            assert_allclose(measured_spectrum(rho, m), np.sort(table, axis=None)[::-1], rtol=0.0, atol=1e-15)


class TestPurityRatio:
    def test_renyi_is_exactly_one(self, rng):
        rho = linalg.random_density((2, 2), rng)
        m = LocalMeasurement("A", basis_a=random_basis(2, rng))
        assert purity_ratio(rho, m, EntropicIndices(3.0, 0.0)) == 1.0

    def test_diagonal_state_gives_one(self, rng):
        probs = rng.dirichlet(np.ones(4))
        rho = linalg.make_density(np.diag(probs), (2, 2))
        m = LocalMeasurement("AB", computational(2), computational(2))
        assert abs(purity_ratio(rho, m, EntropicIndices(2.0, 1.0)) - 1.0) < 1e-12

    def test_bell_computational_value(self):
        m = LocalMeasurement("AB", computational(2), computational(2))
        assert_allclose(
            purity_ratio(bell_density(), m, EntropicIndices(2.0, 1.0)), 0.5, atol=1e-12
        )

    def test_band_membership(self, rng):
        # (Tr P(rho)^q / Tr rho^q)^s <= 1 for q >= 1, >= 1 for q < 1 (s >= 0)
        for _ in range(1000):
            rho = linalg.random_density((2, 2), rng)
            side = ("A", "B", "AB")[rng.integers(3)]
            m = LocalMeasurement(
                side,
                basis_a=random_basis(2, rng) if side in ("A", "AB") else None,
                basis_b=random_basis(2, rng) if side in ("B", "AB") else None,
            )
            q = float(rng.uniform(1.0 + 1e-6, 4.0) if rng.integers(2) else rng.uniform(0.05, 1.0 - 1e-6))
            s = float(rng.uniform(0.1, 2.0))
            ratio = purity_ratio(rho, m, EntropicIndices(q, s))
            assert ratio > 0.0
            if q >= 1.0:
                assert ratio <= 1.0 + 1e-10
            else:
                assert ratio >= 1.0 - 1e-10


class TestDisturbance:
    def test_eigenbasis_measurement_is_free(self, rng):
        rho = linalg.random_density((2, 2), rng)
        _, v = linalg.eig_hermitian(linalg.partial_trace(rho, [0]))
        # product state measured along its A eigenbasis is undisturbed
        prod = linalg.tensor(
            linalg.partial_trace(rho, [0]), linalg.partial_trace(rho, [1])
        )
        m = LocalMeasurement("A", basis_a=ProjectiveBasis(v))
        for idx in IDX_GRID:
            assert abs(disturbance(prod, m, idx).disturbance) < 1e-12

    def test_plus_state_tsallis2_equals_hs_distance(self):
        rho = plus_density()
        before = linalg.spectrum(rho)
        after = linalg.spectrum(dephase(rho, computational(2)))
        val = disturbance_spectra(before, after, EntropicIndices(2, 1))
        assert_allclose(val, 0.5, atol=1e-14)
        diff = rho.matrix - np.eye(2) / 2
        hs = hs_norm_sq(diff) / np.trace(rho.matrix @ rho.matrix).real
        assert_allclose(val, hs, atol=1e-14)

    def test_plus_state_von_neumann_equals_relative_entropy(self):
        rho = plus_density()
        dephased = dephase(rho, computational(2))
        val = disturbance_spectra(
            linalg.spectrum(rho), linalg.spectrum(dephased), EntropicIndices(1, 1)
        )
        assert_allclose(val, math.log(2), atol=1e-12)
        assert_allclose(val, relative_entropy(rho, dephased), atol=1e-12)

    def test_nonnegative_and_majorized_on_random_draws(self, rng):
        for _ in range(200):
            rho = linalg.random_density((2, 2), rng)
            m = LocalMeasurement(
                "AB", random_basis(2, rng), random_basis(2, rng)
            )
            after = measured_spectrum(rho, m)
            assert majorizes(after, linalg.spectrum(rho))
            for idx in IDX_GRID:
                assert disturbance(rho, m, idx).disturbance >= -1e-10

    def test_von_neumann_equals_relative_entropy_on_random_draws(self, rng):
        idx = EntropicIndices(1, 1)
        for _ in range(100):
            rho = linalg.random_density((2, 2), rng)
            m = LocalMeasurement("B", basis_b=random_basis(2, rng))
            post = apply_local(rho, m)
            rep = disturbance(rho, m, idx)
            assert abs(rep.disturbance - relative_entropy(rho, post)) < 1e-8

    def test_tsallis2_equals_hs_over_purity_on_random_draws(self, rng):
        idx = EntropicIndices(2, 1)
        for _ in range(100):
            rho = linalg.random_density((2, 2), rng)
            m = LocalMeasurement("A", basis_a=random_basis(2, rng))
            post = apply_local(rho, m)
            hs = hs_norm_sq(rho.matrix - post.matrix)
            purity = np.trace(rho.matrix @ rho.matrix).real
            rep = disturbance(rho, m, idx)
            assert abs(rep.disturbance - hs / purity) < 1e-10

    def test_report_consistency(self, rng):
        rho = linalg.random_density((2, 2), rng)
        m = LocalMeasurement("A", basis_a=random_basis(2, rng))
        for idx in IDX_GRID:
            rep = disturbance(rho, m, idx)
            assert abs(
                rep.disturbance - (rep.entropy_after - rep.entropy_before) / rep.rescale
            ) < 1e-10
            if idx.regime is not Regime.UNIFIED:
                assert rep.rescale == 1.0
                assert rep.purity_ratio == 1.0

    # von Neumann, Renyi, Tsallis below q = 1, and q ln N past entropy.UNDERFLOW_LOG at N = 4
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_record_is_the_kernels_on_one_sum_per_spectrum(self, dims, rng):
        """Each field is its kernel on the spectral_sum of the spectra before and after, bit for bit.

        On side A or B the sum after is the log of ``_block_power_trace``'s sum where it has one (here q = 2), as the
        search takes it.
        """
        pure = pure_density(linalg.random_pure(dims, rng), dims)
        assert (linalg.spectrum(pure) == 0.0).any()  # a rank-1 state, so the spectra hold zeros
        indices = [EntropicIndices(*qs) for qs in ((1.0, 1.0), (2.0, 0.0), (0.5, 1.0), (600.0, 1.0))]
        for rho, side, idx in itertools.product((linalg.random_density(dims, rng), pure), ("A", "B", "AB"), indices):
            m = LocalMeasurement(side, *(random_basis(n, rng) if name in side else None for name, n in zip("AB", dims)))
            before, after = spectral_sum(linalg.spectrum(rho), idx), spectral_sum(measured_spectrum(rho, m), idx)
            if side != "AB":
                t = measurement._tensor(rho)
                blocks = measurement._blocks_side_a(t if side == "A" else measurement._swap_sides(t), *m.unitaries)
                if (traced := measurement._block_power_trace(blocks, idx.q)) is not None:
                    after = float(np.log(traced[0]))
            expected = (entropy_change(before, 0.0, idx), entropy_change(after, 0.0, idx),
                        purity_ratio_sums(after, before, idx), purity_ratio_sums(before, 0.0, idx),
                        entropy_change(after, before, idx))
            rep = disturbance(rho, m, idx)
            assert [float(v).hex() for v in rep] == [float(v).hex() for v in expected]
            assert float(purity_ratio(rho, m, idx)).hex() == rep.purity_ratio.hex()


# every check of a side name and of a state's two-block split is measurement.py's
TS2 = EntropicIndices(2.0, 1.0)


@pytest.mark.parametrize("side", ["C", ""])
def test_every_entry_point_rejects_an_unknown_side_alike(side, rng):
    rho = linalg.random_density((2, 2), rng)
    spec = families.FamilySpec("pseudopure", 2, 2, 0.5)
    calls = [
        lambda: LocalMeasurement(side, random_basis(2, rng), random_basis(2, rng)),
        lambda: correlations.measure_correlations(rho, side, TS2),
        lambda: correlations.qubit_oracle(rho, side),
        lambda: families.closed_form(spec, side, TS2),
        lambda: families.pseudopure_closed_form(spec, side, TS2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^side must be A, B or AB, got {side!r}$"):
            call()


def test_every_state_entry_point_needs_two_blocks(rng):
    rho = linalg.random_density((2, 2, 2), rng)
    basis_a, basis_b = random_basis(2, rng), random_basis(2, rng)
    m = LocalMeasurement("A", basis_a)
    calls = [
        lambda: correlations.measure_correlations(rho, "A", TS2),
        lambda: correlations.triangle_analysis(rho, [TS2]),
        lambda: correlations.qubit_oracle(rho, "A"),
        lambda: correlations.entanglement_lower_bound(rho, TS2),
        lambda: correlations.measurement_pair_spectra(rho, 2, 0),
        lambda: measured_spectrum(rho, m),
        lambda: conditional_decomposition(rho, m),
        lambda: apply_local(rho, m),
        lambda: disturbance(rho, m, TS2),
        lambda: bilocal_decomposition_check(rho, basis_a, basis_b, TS2),
    ]
    for call in calls:
        with pytest.raises(DimMismatch, match="expected a two-block dims split"):
            call()


def exact_power_trace(blocks, q):
    """sum_k Tr B_k^q over the float entries of the blocks B_k, in exact rational arithmetic: (real, imaginary)."""
    def times(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    total = [Fraction(0), Fraction(0)]
    for block in blocks:
        b = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in block]
        for path in itertools.product(range(len(b)), repeat=q):  # B[i0, i1] B[i1, i2] ... B[i_(q-1), i0]
            term = (Fraction(1), Fraction(0))
            for i, j in zip(path, path[1:] + path[:1]):
                term = times(term, b[i][j])
            total = [total[0] + term[0], total[1] + term[1]]
    return total


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("rank", [None, 1, 2], ids=lambda r: f"rank{r}" if r else "full")
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 4)])
def test_block_power_trace_is_the_exact_sum(dims, rank, q):
    """sum_k Tr B_k^q of 2 x 2 to 4 x 4 conditional blocks is within 4 eps of its exact value from the float entries.

    The states are full rank, pure or of rank 2, so some blocks are rank-deficient.  The slope is
    q / (1 - q) B^(q-1) / T, B^(q-1) the blocks or their square, and one row alone gives its stacked row's bits.
    """
    rng = np.random.default_rng([dims[0], dims[1], rank or 0, q])
    if rank is None:
        rho = linalg.random_density(dims, rng)
    else:
        vectors = [linalg.random_pure(dims, rng) for _ in range(rank)]
        rho = linalg.make_density(sum(w * np.outer(v, v.conj()) for w, v in zip(rng.dirichlet(np.ones(rank)), vectors)), dims)
    u = linalg.haar_batch(rng, 3, (dims[0],))[0]
    blocks = measurement._blocks_side_a(measurement._tensor(rho), u)
    trace, slope = measurement._block_power_trace(blocks, q)
    assert trace.shape == (3,) and trace.dtype == float
    power = blocks if q == 2 else blocks @ blocks
    assert slope.tobytes() == ((q / (1.0 - q) / trace)[:, None, None, None] * power).tobytes()
    for k, row in enumerate(blocks):
        real, imag = exact_power_trace(row, q)
        assert abs(Fraction(float(trace[k])) - real) <= 4 * Fraction(linalg.EPS) * real, (k, float(trace[k]), float(real))
        assert abs(imag) <= linalg.EPS * real  # the blocks are Hermitian up to roundoff
        alone, alone_slope = measurement._block_power_trace(row, q)
        assert alone.shape == () and float(alone).hex() == float(trace[k]).hex()
        assert alone_slope.tobytes() == slope[k].tobytes()


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.5, 4.0, 600.0])
def test_block_power_trace_is_none_off_q_2_and_3(q, rng):
    """Off q = 2 and 3 the block power trace has no value, so the search and ``disturbance`` take the eigenvalues."""
    rho = linalg.random_density((2, 2), rng)
    assert measurement._block_power_trace(measurement._blocks_side_a(measurement._tensor(rho), np.eye(2)), q) is None


def test_flat_spectrum_is_the_where_form_bit_for_bit():
    """``_flat_spectrum`` is np.where(p < cut-off, 0, p) over the flattened last two axes, bit for bit.

    -0.0 counts as below the cut-off and NaN passes through, with or without entries below it, so a
    shortcut for spectra with none below must give the same bits.  The input is never written: each one is
    read-only.
    """
    cut, nan = linalg.rank_cutoff(4, 1.0), np.nan
    cases = [
        [[0.4, 0.3], [0.2, 0.1]],  # nothing below the cut-off
        [[0.5, 0.5 - 0.5 * cut], [0.5 * cut, 0.0]],  # below it, and exact zeros
        [[1.0, -0.0], [2.0 * cut, cut]],  # -0.0, and entries at and above the cut-off
        [[-1e-17, 0.5], [0.25, 0.25]],  # a negative roundoff entry
        [[0.5, nan], [0.25, 0.25]],  # NaN, nothing below
        [[0.5, nan], [0.5, 0.0]],  # NaN beside a zero
        [[[0.4, 0.3], [0.2, 0.1]], [[0.7, 0.3], [0.0, 0.0]], [[0.6, 0.4], [0.5 * cut, -0.0]]],  # a stack
    ]
    for case in cases:
        vals = np.array(case, dtype=float)
        vals = vals if vals.ndim == 3 else vals[None]
        before = vals.copy()
        vals.setflags(write=False)
        flat = vals.reshape(len(vals), -1)
        expected = np.where(flat < cut, 0.0, flat)
        got = measurement._flat_spectrum(vals)
        assert (got.shape, got.dtype, got.tobytes()) == (expected.shape, expected.dtype, expected.tobytes()), case
        assert vals.tobytes() == before.tobytes()
