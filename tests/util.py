"""Shared builders for the test suite, and the reference functions and identity checks tests hold the package to."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from qcorr import linalg, measurement
from qcorr.entropy import EntropicIndices, spectral_sum, unified_entropy_spectrum
from qcorr.families import FamilySpec, _printed_spectrum, closed_form
from qcorr.linalg import DensityOperator, DimMismatch, dag
from qcorr.measurement import (
    LocalMeasurement,
    ProjectiveBasis,
    _blocks_side_a,
    _measured_tensor,
    _swap_sides,
    disturbance,
    disturbance_spectra,
)

TOL_MAJORIZATION = 1e-10  # slack of each partial-sum comparison in majorizes

# index pairs exercised by most sweeps: von Neumann, Tsallis-like, Renyi,
# general, and a negative-s member
IDX_GRID = [
    EntropicIndices(1.0, 1.0),
    EntropicIndices(2.0, 1.0),
    EntropicIndices(0.5, 1.0),
    EntropicIndices(2.0, 0.0),
    EntropicIndices(3.0, 0.5),
    EntropicIndices(2.0, -1.0),
]


def bell_density() -> linalg.DensityOperator:
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    return linalg.make_density(np.outer(psi, psi.conj()), (2, 2))


def plus_density() -> linalg.DensityOperator:
    psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return linalg.make_density(np.outer(psi, psi.conj()), (2,))


def pure_density(psi, dims) -> linalg.DensityOperator:
    psi = np.asarray(psi, dtype=complex)
    return linalg.make_density(np.outer(psi, psi.conj()), dims)


def random_basis(n, rng) -> measurement.ProjectiveBasis:
    return measurement.ProjectiveBasis(linalg.haar_unitary(n, rng))


def cc_state(rng, na=2, nb=2, probs=None) -> linalg.DensityOperator:
    """Classical-classical state: a product-basis diagonal, random unless ``probs`` (na * nb entries) is given."""
    ua, ub = linalg.haar_unitary(na, rng), linalg.haar_unitary(nb, rng)
    if probs is None:
        probs = rng.dirichlet(np.ones(na * nb))
    u = np.kron(ua, ub)
    return linalg.make_density((u * probs) @ u.conj().T, (na, nb))


def cq_state(rng, na=2, nb=2, probs=None) -> linalg.DensityOperator:
    """Classical-quantum state sum_i p_i P_i x rho_i with a random A basis."""
    ua = linalg.haar_unitary(na, rng)
    if probs is None:
        probs = np.linspace(1.0, 2.0, na)
        probs /= probs.sum()
    mat = np.zeros((na * nb, na * nb), dtype=complex)
    for i in range(na):
        proj = np.outer(ua[:, i], ua[:, i].conj())
        mat += probs[i] * np.kron(proj, linalg.random_density(nb, rng).matrix)
    return linalg.make_density(mat, (na, nb))


# ---------------------------------------------------------------------------
# reference functions and identity checks: no command, search or benchmark uses them
# ---------------------------------------------------------------------------

def hs_norm_sq(a) -> float:
    """Squared Hilbert-Schmidt norm Tr(A^dag A)."""
    a = np.asarray(a)
    return float(np.vdot(a, a).real)


def majorizes(p, q_vec) -> bool:
    """True iff p is majorized by q_vec (p < q_vec in the majorization order).

    Vectors are sorted decreasing and the shorter one is zero-padded; the
    check is that every partial sum of q_vec dominates the matching partial
    sum of p within TOL_MAJORIZATION.
    """
    p = np.sort(np.asarray(p, dtype=float))[::-1]
    q = np.sort(np.asarray(q_vec, dtype=float))[::-1]
    n = max(p.size, q.size)
    p = np.pad(p, (0, n - p.size))
    q = np.pad(q, (0, n - q.size))
    return bool(np.all(np.cumsum(p) <= np.cumsum(q) + TOL_MAJORIZATION))


def relative_entropy(rho: linalg.DensityOperator, sigma: linalg.DensityOperator) -> float:
    """Quantum relative entropy S(rho||sigma) = Tr(rho (ln rho - ln sigma)).

    Computed in sigma's eigenbasis.  Returns math.inf when rho has weight above
    1e-9 in sigma's kernel, the eigenvalues ``linalg.eig_hermitian`` cut to zero.
    """
    if rho.dim != sigma.dim:
        raise linalg.DimMismatch("states must share a Hilbert space")
    w, v = linalg.eig_hermitian(sigma)
    # weights of rho along sigma's eigenvectors
    d = np.real(np.einsum("ij,jk,ki->i", linalg.dag(v), rho.matrix, v))
    d = np.clip(d, 0.0, None)
    kernel = w == 0.0
    if np.any(d[kernel] > 1e-9):
        return math.inf
    cross = float(np.sum(d[~kernel] * np.log(w[~kernel])))
    val = -spectral_sum(linalg.spectrum(rho), EntropicIndices(1.0, 1.0)) - cross
    # Klein inequality guarantees nonnegativity; clamp roundoff only
    return max(val, 0.0)


class PreconditionUnmet(ValueError):
    pass


def check_schur_concavity(p, q_vec, idx: EntropicIndices) -> bool:
    """Entropy comparison along the majorization order.

    For p majorized by q_vec, checks entropy(p) >= entropy(q_vec) - 1e-10
    (and the mirrored check if only the reverse relation holds).  Raises
    PreconditionUnmet when the spectra are incomparable.
    """
    if majorizes(p, q_vec):
        disordered, ordered = p, q_vec
    elif majorizes(q_vec, p):
        disordered, ordered = q_vec, p
    else:
        raise PreconditionUnmet("spectra are not comparable under majorization")
    return (
        unified_entropy_spectrum(disordered, idx)
        >= unified_entropy_spectrum(ordered, idx) - 1e-10
    )


class ConditionalDecomposition(NamedTuple):
    """Outcome probabilities and conditional states of a local measurement.

    For side A (B), ``conditionals`` holds the post-outcome states of the
    unmeasured side, with None where the outcome probability is below
    ``linalg.rank_cutoff`` of the N outcomes at scale 1 (they sum to one).
    For side AB, ``probabilities`` is the joint (N_A, N_B) table and
    ``conditionals`` is empty.
    """

    side: str
    probabilities: np.ndarray
    conditionals: tuple[DensityOperator | None, ...]


def dephase(rho: DensityOperator, basis: ProjectiveBasis) -> DensityOperator:
    """Full-space measurement: keep only the diagonal in the given basis."""
    if basis.dim != rho.dim:
        raise DimMismatch(f"basis dim {basis.dim} != state dim {rho.dim}")
    u = basis.unitary
    p = np.real(np.einsum("ij,jk,ki->i", dag(u), rho.matrix, u))
    mat = (u * np.clip(p, 0.0, None)) @ dag(u)
    return DensityOperator(0.5 * (mat + dag(mat)), rho.dims)


def conditional_decomposition(rho: DensityOperator, m: LocalMeasurement) -> ConditionalDecomposition:
    """Outcome probabilities and conditional states of the unmeasured side."""
    t = _measured_tensor(rho, m)
    if m.side == "AB":  # the diagonal of (ua x ub)^dag rho (ua x ub), as an (N_A, N_B) table
        u = np.kron(*m.unitaries)
        probs = np.real(np.einsum("ij,jk,ki->i", dag(u), rho.matrix, u)).reshape(t.shape[:2])
        return ConditionalDecomposition("AB", np.clip(probs, 0.0, None), ())
    if m.side == "B":  # side A of the swapped tensor
        t = _swap_sides(t)
    blocks = _blocks_side_a(t, *m.unitaries)
    probs = np.clip(np.real(np.trace(blocks, axis1=1, axis2=2)), 0.0, None)
    conditionals, cut = [], linalg.rank_cutoff(len(probs), 1.0)
    for blk, p in zip(blocks, probs):
        if p < cut:
            conditionals.append(None)
            continue
        c = blk / p
        conditionals.append(DensityOperator(0.5 * (c + dag(c)), (t.shape[1],)))
    return ConditionalDecomposition(m.side, probs, tuple(conditionals))


def bilocal_decomposition_check(
    rho: DensityOperator,
    basis_a: ProjectiveBasis,
    basis_b: ProjectiveBasis,
    idx: EntropicIndices,
) -> tuple[float, float]:
    """Residuals of the two exact bilocal-to-sequential identities.

    Both |D_AB - (D_A + P_A * D_B(post_A))| and the B-first analogue should
    vanish to roundoff for every state, basis pair and index choice.
    """
    m_a = LocalMeasurement("A", basis_a=basis_a)
    m_b = LocalMeasurement("B", basis_b=basis_b)
    d_ab = disturbance(rho, LocalMeasurement("AB", basis_a, basis_b), idx).disturbance

    def residual(first, then):
        post = measurement.apply_local(rho, first)
        d_first = disturbance(rho, first, idx)
        return abs(d_ab - (d_first.disturbance + d_first.purity_ratio * disturbance(post, then, idx).disturbance))

    return residual(m_a, m_b), residual(m_b, m_a)


def isotropic_specializations(n: int, p: float, q: float) -> tuple[float, float]:
    """Tsallis (s=1) and Renyi (s->0) values for the isotropic family at p.

    The Renyi value follows the published specialization, which matches the
    s -> 0 limit of the general expression.  The published Tsallis line drops
    the purity rescaling and a sign, so the Tsallis value here is derived
    from the general expression at s = 1 instead.
    """
    tsallis = closed_form(FamilySpec("pseudopure", n, n, p), "AB", EntropicIndices(q, 1.0))
    num_terms = [(n, 1.0 - p + n * p), (n * n - n, 1.0 - p)]
    den_terms = [(1, 1.0 - p + n * n * p), (n * n - 1, 1.0 - p)]
    renyi = disturbance_spectra(
        _printed_spectrum(den_terms), _printed_spectrum(num_terms), EntropicIndices(q, 0.0)
    )
    return tsallis, renyi


def write_state_file(path, rho: DensityOperator):
    """Write the nonzero entries of a state in the plain-text format."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("dims: " + " ".join(str(d) for d in rho.dims) + "\n")
        n = rho.dim
        for r in range(n):
            for c in range(n):
                z = rho.matrix[r, c]
                if z != 0:
                    fh.write(f"{r} {c} {z.real:.17g} {z.imag:.17g}\n")
