import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qcorr import linalg, measurement
from util import bell_density, hs_norm_sq, majorizes, plus_density, pure_density


@pytest.mark.parametrize("call, error, message", [
    (lambda: linalg.check_unitary(np.eye(2, 3)), linalg.NotUnitary, "expected a square matrix, got shape (2, 3)"),
    (lambda: linalg.permute_subsystems(bell_density(), [0, 0]), linalg.BadSubsystemIndex,
     "order [0, 0] is not a permutation of 2 subsystems"),
    (lambda: linalg.schmidt(np.ones(3) / np.sqrt(3), (2, 2)), linalg.DimMismatch,
     "vector of size 3 does not split as (2, 2)"),
    (lambda: linalg.haar_unitary(0, np.random.default_rng(0)), linalg.DimMismatch, "dimension must be >= 1"),
    (lambda: linalg.random_density(0, np.random.default_rng(0)), linalg.DimMismatch, "dimension must be >= 1"),
    (lambda: linalg.random_pure(0, np.random.default_rng(0)), linalg.DimMismatch, "dimension must be >= 1"),
    # one integer rule for every dimension and subsystem index: a Python or numpy integer, never a bool or a float
    (lambda: linalg.make_density(np.eye(4) / 4, (2.5, 2)), linalg.DimMismatch, "dims (2.5, 2) are not integers"),
    (lambda: linalg.random_pure((2.9, 2), np.random.default_rng(0)), linalg.DimMismatch,
     "dims (2.9, 2) are not integers"),
    (lambda: linalg.random_density((2, True), np.random.default_rng(0)), linalg.DimMismatch,
     "dims (2, True) are not integers"),
    (lambda: linalg.schmidt(np.ones(4) / 2, (2.0, 2)), linalg.DimMismatch, "dims (2.0, 2) are not integers"),
    (lambda: linalg.haar_unitary(2.0, np.random.default_rng(0)), linalg.DimMismatch, "dims (2.0,) are not integers"),
    (lambda: linalg.partial_trace(bell_density(), [0.7]), linalg.BadSubsystemIndex,
     "subsystem indices [0.7] invalid for dims (2, 2)"),
    (lambda: linalg.partial_trace(bell_density(), [False]), linalg.BadSubsystemIndex,
     "subsystem indices [False] invalid for dims (2, 2)"),
    (lambda: linalg.permute_subsystems(bell_density(), [1.2, 0.1]), linalg.BadSubsystemIndex,
     "subsystem indices [1.2, 0.1] invalid for dims (2, 2)"),
    (lambda: linalg.regroup(bell_density(), [0.9]), linalg.BadSubsystemIndex,
     "subsystem indices [0.9] invalid for dims (2, 2)"),
], ids=["non-square unitary", "non-permutation", "schmidt size", "haar dim 0", "random density dim 0",
        "random pure dim 0", "make_density float dim", "random_pure float dim", "random_density bool dim",
        "schmidt float dim", "haar_unitary float dim", "partial_trace float index", "partial_trace bool index",
        "permute_subsystems float index", "regroup float index"])
def test_named_errors(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_integer_dims_and_indices_accepted():
    rho = linalg.make_density(np.eye(4) / 4, (np.int64(2), np.int32(2)))
    assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)
    assert linalg.partial_trace(rho, [np.int64(1)]).dims == (2,)
    assert linalg.permute_subsystems(rho, np.array([1, 0])).dims == (2, 2)
    assert linalg.random_density(np.int64(3), np.random.default_rng(0)).dims == (3,)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestMakeDensity:
    def test_maximally_mixed_qubit(self):
        rho = linalg.make_density(np.eye(2) / 2, [2])
        assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-14)
        assert rho.dims == (2,)

    def test_tolerance_boundary_renormalized(self):
        rho = linalg.make_density(np.diag([0.7, 0.3 + 1e-12]), [2])
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-14

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(linalg.NotPositive):
            linalg.make_density(np.diag([1.2, -0.2]), [2])

    def test_not_square(self):
        with pytest.raises(linalg.NotSquare):
            linalg.make_density(np.ones((2, 3)), [2])

    def test_dims_mismatch(self):
        with pytest.raises(linalg.DimMismatch):
            linalg.make_density(np.eye(4) / 4, [2, 3])

    def test_trace_zero(self):
        with pytest.raises(linalg.TraceZero):
            linalg.make_density(np.zeros((2, 2)), [2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.1, np.nan)])
    def test_non_finite_entry_rejected(self, bad):
        m = np.eye(2, dtype=complex) / 2
        m[1, 1] = bad
        with pytest.raises(linalg.NotFinite):
            linalg.make_density(m, [2])

    @pytest.mark.parametrize("m, dims", [
        (np.diag([1e308, 1e308]), (2,)),
        (np.diag([8e307] * 4), (2, 2)),
        (np.full((3, 3), 8e307), (3,)),
        (np.full((3, 3), -8e307), (3,)),
    ], ids=["hermitized entry", "eigenvalue sum", "eigenvalue", "negative eigenvalue"])
    def test_overflow_near_the_float_limit_rejected(self, m, dims):
        """Finite entries whose hermitized matrix, eigenvalues or eigenvalue sum overflow: NotFinite, no warning."""
        with pytest.raises(linalg.NotFinite, match="overflow"):
            linalg.make_density(m, dims)

    def test_hermitizes_input(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        rho = linalg.make_density(m, [2])
        assert_allclose(rho.matrix, rho.matrix.conj().T, atol=1e-14)


class TestTensor:
    def test_mixed_product(self):
        a = linalg.make_density(np.eye(2) / 2, [2])
        out = linalg.tensor(a, a)
        assert out.dims == (2, 2)
        assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-14)

    def test_pure_product(self):
        zero = pure_density([1, 0], (2,))
        one = pure_density([0, 1], (2,))
        out = linalg.tensor(zero, one)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert_allclose(out.matrix, expected, atol=1e-14)

    def test_spectrum_is_pairwise_products(self, rng):
        for _ in range(10):
            a = linalg.random_density(2, rng)
            b = linalg.random_density(3, rng)
            products = np.sort(np.outer(linalg.spectrum(a), linalg.spectrum(b)).ravel())[::-1]
            assert_allclose(linalg.spectrum(linalg.tensor(a, b)), products, atol=1e-12)


class TestPartialTrace:
    def test_product_state(self, rng):
        a = linalg.random_density(2, rng)
        b = linalg.random_density(3, rng)
        reduced = linalg.partial_trace(linalg.tensor(a, b), [0])
        assert_allclose(reduced.matrix, a.matrix, atol=1e-12)
        assert reduced.dims == (2,)

    def test_bell_reduces_to_maximally_mixed(self):
        reduced = linalg.partial_trace(bell_density(), [1])
        assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved_on_random_states(self, rng):
        for _ in range(100):
            rho = linalg.random_density((2, 2), rng)
            reduced = linalg.partial_trace(rho, [1])
            assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12

    def test_bad_subsystem(self):
        rho = linalg.make_density(np.eye(4) / 4, [2, 2])
        with pytest.raises(linalg.BadSubsystemIndex):
            linalg.partial_trace(rho, [2])
        with pytest.raises(linalg.BadSubsystemIndex):
            linalg.partial_trace(rho, [])

    def test_three_party_keep_two(self, rng):
        a = linalg.random_density(2, rng)
        b = linalg.random_density(2, rng)
        c = linalg.random_density(3, rng)
        full = linalg.tensor(linalg.tensor(a, b), c)
        reduced = linalg.partial_trace(full, [0, 2])
        assert reduced.dims == (2, 3)
        assert_allclose(reduced.matrix, np.kron(a.matrix, c.matrix), atol=1e-12)


class TestPermuteRegroup:
    def test_permute_swaps_factors(self, rng):
        a = linalg.random_density(2, rng)
        b = linalg.random_density(3, rng)
        swapped = linalg.permute_subsystems(linalg.tensor(a, b), [1, 0])
        assert swapped.dims == (3, 2)
        assert_allclose(swapped.matrix, np.kron(b.matrix, a.matrix), atol=1e-13)

    def test_regroup_merges_rest(self, rng):
        a = linalg.random_density(2, rng)
        b = linalg.random_density(2, rng)
        c = linalg.random_density(2, rng)
        full = linalg.tensor(linalg.tensor(a, b), c)
        grouped = linalg.regroup(full, [1])
        assert grouped.dims == (2, 4)
        assert_allclose(grouped.matrix, np.kron(b.matrix, np.kron(a.matrix, c.matrix)), atol=1e-13)

    def test_regroup_rejects_trivial_split(self, rng):
        rho = linalg.random_density((2, 2), rng)
        with pytest.raises(linalg.BadSubsystemIndex):
            linalg.regroup(rho, [0, 1])


class TestEig:
    def test_maximally_mixed(self):
        rho = linalg.make_density(np.eye(4) / 4, [4])
        spec, _ = linalg.eig_hermitian(rho)
        assert_allclose(spec, np.full(4, 0.25), atol=1e-14)

    def test_pure(self):
        spec, _ = linalg.eig_hermitian(plus_density())
        assert_allclose(spec, [1.0, 0.0], atol=1e-12)

    def test_unitary_conjugation_preserves_spectrum(self, rng):
        u = linalg.haar_unitary(3, rng)
        rho = linalg.make_density(u @ np.diag([0.5, 0.3, 0.2]) @ u.conj().T, [3])
        spec, _ = linalg.eig_hermitian(rho)
        assert_allclose(spec, [0.5, 0.3, 0.2], atol=1e-12)

    def test_spectrum_zeroes_roundoff(self, rng):
        # eigvalsh leaves roundoff of order 1e-17 where a rotated state has zeros
        for n in (2, 4, 9):
            u = linalg.haar_unitary(n, rng)
            pure = linalg.make_density(np.outer(u[:, 0], u[:, 0].conj()), [n])
            spec = linalg.spectrum(pure)
            assert abs(spec[0] - 1.0) < 1e-14
            assert np.all(spec[1:] == 0.0)
            # an eigenvalue far above n eps is kept
            weights = np.zeros(n)
            weights[:2] = 1.0 - 1e-13, 1e-13
            spec = linalg.spectrum(linalg.make_density((u * weights) @ u.conj().T, [n]))
            assert_allclose(spec[1], 1e-13, rtol=1e-2)
            assert np.all(spec[2:] == 0.0)

    def test_reconstruction_roundtrip(self, rng):
        for _ in range(20):
            rho = linalg.random_density(5, rng)
            spec, v = linalg.eig_hermitian(rho)
            assert_allclose((v * spec) @ v.conj().T, rho.matrix, atol=1e-9)
            assert_allclose(v.conj().T @ v, np.eye(5), atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 2**32 - 1))
def test_one_rank_rule_everywhere(big, low, high, seed):
    # trace-one spectra with entries planted at half and at twice rank_cutoff: every rank cut
    # zeros exactly the low ones and keeps every other entry bit for bit
    big = np.array(big) / sum(big)
    n = big.size + low + high
    order = np.random.default_rng(seed).permutation(n)
    planted_low = (order >= big.size) & (order < big.size + low)

    def planted(scale):
        cut = linalg.rank_cutoff(n, scale)
        p = np.concatenate([big, np.full(low, 0.5 * cut), np.full(high, 2.0 * cut)])[order]
        return p, np.where(planted_low, 0.0, p)

    def same_bits(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    p, kept = planted(big.max())  # a diagonal's eigenvalues are its entries, exactly
    rho = linalg.DensityOperator(np.diag(p).astype(complex), (n,))
    assert same_bits(linalg.spectrum(rho), np.sort(kept)[::-1])
    assert same_bits(linalg.eig_hermitian(rho)[0], np.sort(kept)[::-1])
    root = np.diag(np.sqrt(p)).astype(complex)
    lam = np.linalg.svd(root)[1] ** 2  # the squared Schmidt coefficients before the cut
    dec = linalg.schmidt(root.ravel(), (n, n))
    assert dec.schmidt_number == n - low and same_bits(dec.coefficients, lam[: n - low])
    p, kept = planted(1.0)  # a measured spectrum's scale
    assert same_bits(measurement._flat_spectrum(p.reshape(1, n)), kept)


class TestHSNorm:
    def test_zero(self):
        assert hs_norm_sq(np.zeros((3, 3))) == 0.0

    def test_identity(self):
        assert_allclose(hs_norm_sq(np.eye(5)), 5.0)

    def test_dephased_plus_state(self):
        rho = plus_density()
        diff = rho.matrix - np.eye(2) / 2
        assert_allclose(hs_norm_sq(diff), 0.5, atol=1e-14)


class TestSchmidt:
    def test_product_ket(self):
        psi = np.zeros(4)
        psi[0] = 1.0
        dec = linalg.schmidt(psi, (2, 2))
        assert dec.schmidt_number == 1
        assert_allclose(dec.coefficients, [1.0])

    def test_bell(self):
        psi = np.zeros(4)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        dec = linalg.schmidt(psi, (2, 2))
        assert dec.schmidt_number == 2
        assert_allclose(dec.coefficients, [0.5, 0.5], atol=1e-12)

    def test_random_state_matches_reduced_spectra(self, rng):
        psi = linalg.random_pure((2, 3), rng)
        dec = linalg.schmidt(psi, (2, 3))
        rho = pure_density(psi, (2, 3))
        spec_a = linalg.spectrum(linalg.partial_trace(rho, [0]))
        spec_b = linalg.spectrum(linalg.partial_trace(rho, [1]))
        padded = np.zeros(2)
        padded[: dec.schmidt_number] = dec.coefficients
        assert_allclose(padded, spec_a, atol=1e-9)
        assert_allclose(np.pad(padded, (0, 1)), spec_b, atol=1e-9)

    def test_reconstruction(self, rng):
        psi = linalg.random_pure((3, 4), rng)
        dec = linalg.schmidt(psi, (3, 4))
        rebuilt = sum(
            np.sqrt(lam) * np.kron(dec.basis_a[:, k], dec.basis_b[:, k])
            for k, lam in enumerate(dec.coefficients)
        )
        # global phase already matched by construction
        assert_allclose(rebuilt, psi, atol=1e-9)

    def test_bases_orthonormal(self, rng):
        psi = linalg.random_pure((2, 3), rng)
        dec = linalg.schmidt(psi, (2, 3))
        assert_allclose(dec.basis_a.conj().T @ dec.basis_a, np.eye(2), atol=1e-12)
        assert_allclose(dec.basis_b.conj().T @ dec.basis_b, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_rejected(self, bad):
        # |norm - 1| > tol is False for a NaN norm, so the norm test alone
        # lets a NaN vector through to the SVD
        with pytest.raises(linalg.NotFinite):
            linalg.schmidt([bad, 0.0, 0.0, 1.0], (2, 2))

    def test_not_normalized(self):
        with pytest.raises(linalg.NotNormalized):
            linalg.schmidt(np.array([1.0, 1.0, 0.0, 0.0]), (2, 2))


class TestHaarUnitary:
    def test_dim_one_is_a_phase(self, rng):
        u = linalg.haar_unitary(1, rng)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitarity(self, rng):
        for n in (2, 3, 5):
            u = linalg.haar_unitary(n, rng)
            assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-12

    def test_first_entry_marginal(self, rng):
        # E |U_11|^2 = 1/N for Haar; Monte-Carlo check within 3 standard errors
        n, samples = 2, 10_000
        vals = np.array(
            [abs(linalg.haar_unitary(n, rng)[0, 0]) ** 2 for _ in range(samples)]
        )
        stderr = vals.std(ddof=1) / np.sqrt(samples)
        assert abs(vals.mean() - 1.0 / n) < 3 * stderr

    def test_deterministic_given_seed(self):
        u1 = linalg.haar_unitary(3, np.random.default_rng(99))
        u2 = linalg.haar_unitary(3, np.random.default_rng(99))
        assert np.array_equal(u1, u2)


class TestRandomStates:
    def test_valid_density(self, rng):
        for _ in range(25):
            rho = linalg.random_density((2, 2), rng)
            again = linalg.make_density(rho.matrix, rho.dims)
            assert_allclose(again.matrix, rho.matrix, atol=1e-12)

    def test_scalar_state(self, rng):
        rho = linalg.random_density(1, rng)
        assert_allclose(rho.matrix, [[1.0]], atol=1e-14)

    def test_mean_purity_two_qubits(self, rng):
        # Hilbert-Schmidt measure at N=4 has mean purity 2N/(N^2+1) = 8/17
        samples = 10_000
        purities = np.empty(samples)
        for k in range(samples):
            m = linalg.random_density(4, rng).matrix
            purities[k] = np.trace(m @ m).real
        stderr = purities.std(ddof=1) / np.sqrt(samples)
        assert abs(purities.mean() - 8.0 / 17.0) < 3 * stderr

    def test_random_pure_normalized(self, rng):
        psi = linalg.random_pure((2, 3), rng)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_reproducible(self):
        a = linalg.random_density((2, 2), np.random.default_rng(5))
        b = linalg.random_density((2, 2), np.random.default_rng(5))
        assert np.array_equal(a.matrix, b.matrix)


spectra = st.integers(2, 6).flatmap(
    lambda n: st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n
    ).filter(lambda xs: sum(xs) > 1e-6)
).map(lambda xs: np.sort(np.array(xs) / np.sum(xs))[::-1])


class TestMajorizes:
    def test_uniform_majorized_by_pure(self):
        assert majorizes([0.5, 0.5], [1.0, 0.0])
        assert not majorizes([1.0, 0.0], [0.5, 0.5])

    def test_partial_sum_example(self):
        assert majorizes([0.5, 0.3, 0.2], [0.6, 0.3, 0.1])

    def test_zero_padding(self):
        assert majorizes([0.5, 0.5], [1.0])
        assert majorizes([1.0], [0.7, 0.3]) is False

    @settings(max_examples=50, deadline=None)
    @given(spectra)
    def test_reflexive(self, p):
        assert majorizes(p, p)

    @settings(max_examples=50, deadline=None)
    @given(spectra)
    def test_uniform_is_bottom(self, p):
        uniform = np.full(p.size, 1.0 / p.size)
        assert majorizes(uniform, p)

    @settings(max_examples=50, deadline=None)
    @given(spectra, st.integers(0, 2**32 - 1))
    def test_transitive_along_mixing_chains(self, p, seed):
        # doubly stochastic mixing only ever moves down the majorization order
        rng = np.random.default_rng(seed)
        q = _random_mix(p, rng)
        r = _random_mix(q, rng)
        assert majorizes(q, p)
        assert majorizes(r, q)
        assert majorizes(r, p)


def _random_mix(p, rng):
    weights = rng.dirichlet(np.ones(4))
    out = np.zeros_like(p)
    for w in weights:
        out = out + w * p[rng.permutation(p.size)]
    return out


def _lapack_bits_match(h) -> np.ndarray:
    """Per block of h, whether ``eigvalsh_2x2`` gives ``np.linalg.eigvalsh``'s bytes, sign of zero and NaN included."""
    got, ref = linalg.eigvalsh_2x2(h), np.linalg.eigvalsh(h)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    return (got.view(np.int64) == ref.view(np.int64)).all(axis=-1)


def _two_by_two_families(n, rng) -> dict:
    """n blocks of each kind the closed form must get bit for bit."""
    g = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    hs = g @ linalg.dag(g)
    rank1 = g[..., :1] @ linalg.dag(g[..., :1])
    real_off = hs.copy()
    real_off[:, 1, 0] = real_off[:, 0, 1] = hs[:, 1, 0].real
    diag = np.zeros((n, 2, 2), dtype=complex)
    diag[:, 0, 0], diag[:, 1, 1] = rng.choice([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0], (2, n))
    diag[::2, 1, 1] = diag[::2, 0, 0]  # repeated entries in half the rows
    equal = hs.copy()
    equal[:, 1, 1] = hs[:, 0, 0]
    traceless = hs.copy()  # a + c = 0, where dlae2 takes its own branch
    traceless[:, 1, 1] = -hs[:, 0, 0]
    tiny_off = hs.copy()
    tiny_off[:, 1, 0] *= 10.0 ** rng.uniform(-20, -5, n)
    tiny_off[:, 0, 1] = tiny_off[:, 1, 0].conj()
    scaled = hs * 10.0 ** rng.uniform(-100, 100, (n, 1, 1))
    upper = g.copy()  # LAPACK reads the lower triangle and the diagonal's real parts only
    return dict(hilbert_schmidt=hs, rank1=rank1, real_off_diagonal=real_off, diagonal_repeated=diag,
                a_equals_c=equal, traceless=traceless, tiny_off_diagonal=tiny_off, indefinite=g + linalg.dag(g),
                scales=scaled, non_hermitian_upper=upper)


def test_eigvalsh_2x2_has_lapacks_bits_on_every_family():
    for name, h in _two_by_two_families(100_000, np.random.default_rng(41)).items():
        match = _lapack_bits_match(h)
        assert match.all(), f"{name}: {np.count_nonzero(~match)} of {len(h)} blocks differ"


def test_eigvalsh_2x2_routes_what_lapack_rescales():
    """Blocks LAPACK rescales or cannot take (and -0.0 entries, kept in place) equal its bits, in any stack shape."""
    rng = np.random.default_rng(43)
    g = rng.standard_normal((8, 2, 2)) + 1j * rng.standard_normal((8, 2, 2))
    h = g @ linalg.dag(g)
    h[0] *= 1e-150
    h[1] *= 1e150
    h[2, 0, 0] = np.inf
    h[3] = [[np.nan, 0.0], [0.0, 1.0]]  # LAPACK returns [0, -0] for this one
    h[4, 1, 0] = 1e-310 + 3e-311j  # a subnormal b, which zlarfg rescales
    h[5] = 0.0
    h[6] = [[-0.0, 0.0], [0.0, -0.0]]
    h[7] = [[-0.0, 0.0], [1e-300j, -0.0]]
    assert _lapack_bits_match(h).all()
    assert _lapack_bits_match(h.reshape(2, 4, 2, 2)).all()
    assert _lapack_bits_match(h[:0]).shape == (0,)
