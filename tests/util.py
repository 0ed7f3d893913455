"""Shared builders for the test suite."""

import numpy as np

from qcorr import linalg, measurement
from qcorr.entropy import EntropicIndices

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
