"""Rank-one local projective measurements and entropic disturbance.

A complete rank-one measurement is represented by the unitary whose columns
are the measured basis; applying it without postselection dephases the state
in that basis.  Local measurements act on one block of a bipartite split
(sides "A", "B") or on both ("AB"); side B is measured as side A of the
state with its sides exchanged.  This module decides what a side means,
for every caller: the side check ``check_side``, the (N_A, N_B, N_A, N_B)
state-tensor view ``_tensor``, ``LocalMeasurement.unitaries`` and the
side -> kernel table ``KERNELS``.  The disturbance of a measurement is the
entropy increase it causes, rescaled by the generalized purity (Tr rho^q)^s.
It is ``entropy.entropy_change`` applied to the ``entropy.spectral_sum`` of
the spectra after and before, for one pair of spectra or for stacks of them,
and the rescale factor and the purity ratio come from
``entropy.purity_ratio_sums``; this module does not branch on the regime.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg
from .entropy import (
    EntropicIndices,
    entropy_change,
    purity_ratio_sums,
    spectral_sum,
    unified_entropy_spectrum,  # unused here; the benchmark's tracer wraps it under this module
)
from .linalg import DensityOperator, DimMismatch, dag

SIDES = ("A", "B", "AB")


def check_side(side: str) -> None:
    """ValueError unless ``side`` names a side: A, B or AB."""
    if side not in SIDES:
        raise ValueError(f"side must be A, B or AB, got {side!r}")


@linalg.validated
class ProjectiveBasis(NamedTuple):
    """Orthonormal basis given as unitary columns; P_i = |col_i><col_i|."""

    unitary: np.ndarray

    def _check(self):
        linalg.check_unitary(self.unitary)

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]


@linalg.validated
class LocalMeasurement(NamedTuple):
    """A projective measurement on side A, B, or both, of a bipartite split."""

    side: str
    basis_a: ProjectiveBasis | None = None
    basis_b: ProjectiveBasis | None = None

    def _check(self):
        check_side(self.side)
        for name, basis in zip("AB", (self.basis_a, self.basis_b)):
            if name in self.side and basis is None:
                raise ValueError(f"side {self.side} requires basis_{name.lower()}")
            if not isinstance(basis, (ProjectiveBasis, type(None))):
                raise ValueError(f"basis_{name.lower()} must be a ProjectiveBasis or None, got {type(basis).__name__}")

    @property
    def unitaries(self) -> tuple[np.ndarray, ...]:
        """The measured sides' unitaries, side A's first."""
        return tuple(b.unitary for name, b in zip("AB", (self.basis_a, self.basis_b)) if name in self.side)


class DisturbanceReport(NamedTuple):
    entropy_before: float
    entropy_after: float
    purity_ratio: float
    rescale: float
    disturbance: float


def _tensor(rho: DensityOperator) -> np.ndarray:
    """rho as its (N_A, N_B, N_A, N_B) tensor; DimMismatch unless its dims are two blocks."""
    if len(rho.dims) != 2:
        raise DimMismatch(f"expected a two-block dims split, got {rho.dims}; regroup() first")
    return rho.matrix.reshape(rho.dims * 2)


def _measured_tensor(rho: DensityOperator, m: LocalMeasurement) -> np.ndarray:
    """``_tensor(rho)``, after checking each of m's bases against its side's dimension."""
    t = _tensor(rho)
    for name, u in zip(m.side, m.unitaries):
        n = t.shape["AB".index(name)]
        if len(u) != n:
            raise DimMismatch(f"basis_{name.lower()} has dim {len(u)}, side {name} has dim {n}")
    return t


def _dephase_side_a(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The state tensor t with side A dephased in basis u: sum_k |u_k><u_k| (x) block k of ``_blocks_side_a``."""
    return np.einsum("ak,kbd,ck->abcd", u, _blocks_side_a(t, u), u.conj())


def apply_local(rho: DensityOperator, m: LocalMeasurement) -> DensityOperator:
    """Post-measurement state without postselection; side B is side A of the swapped tensor."""
    t = _measured_tensor(rho, m)
    for name, u in zip(m.side, m.unitaries):
        t = _dephase_side_a(t, u) if name == "A" else _swap_sides(_dephase_side_a(_swap_sides(t), u))
    mat = t.reshape(rho.matrix.shape)
    return DensityOperator(0.5 * (mat + dag(mat)), rho.dims)


def _roll_axes(x: np.ndarray, k: int) -> np.ndarray:
    """x with its first k axes moved after the others, C-contiguous."""
    return np.ascontiguousarray(x.transpose(*range(k, x.ndim), *range(k)))


def _blocks_side_a(t: np.ndarray, ua: np.ndarray) -> np.ndarray:
    """Unnormalized conditional states of B, one block per outcome on A.

    ``ua`` may be a stack of unitaries; its leading axes lead the result.
    The einsum runs with the stack axes last, so its inner loop is the stack,
    not a matrix axis of length 2 or 3.  No bit moves: without ``optimize``
    each entry is the same running sum, in the same order, in any layout.
    The result is C-contiguous, since ``eigh`` of a strided stack gives
    strided outputs, and reductions over those add in another order.
    """
    ua = _roll_axes(ua, ua.ndim - 2)
    return _roll_axes(np.einsum("ai...,abcd,ci...->ibd...", ua.conj(), t, ua), 3)


def _swap_sides(t: np.ndarray) -> np.ndarray:
    """The state tensor with its sides exchanged: side B of t is side A of the result."""
    return t.transpose(1, 0, 3, 2)


def _joint_probabilities(t: np.ndarray, ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Outcome table (..., N_A, N_B) of a bilocal measurement, unclipped.

    The stacks of ``ua`` and ``ub`` broadcast; the layout is ``_blocks_side_a``'s.
    """
    ua, ub = _roll_axes(ua, ua.ndim - 2), _roll_axes(ub, ub.ndim - 2)
    p = np.einsum("ai...,bj...,abcd,ci...,dj...->ij...", ua.conj(), ub.conj(), t, ua, ub)
    return _roll_axes(p.real, 2)


def _flat_spectrum(vals: np.ndarray) -> np.ndarray:
    # the last two axes hold one spectrum of trace 1, so its rank cut-off takes scale 1
    vals = vals.reshape(vals.shape[:-2] + (-1,))
    return np.where(vals < linalg.rank_cutoff(vals.shape[-1], 1.0), 0.0, vals)


def _block_spectrum(blocks: np.ndarray) -> np.ndarray:
    """``_flat_spectrum`` of the blocks' eigenvalues, 2 x 2 blocks by ``linalg.eigvalsh_2x2``."""
    return _flat_spectrum((linalg.eigvalsh_2x2 if blocks.shape[-1] == 2 else np.linalg.eigvalsh)(blocks))


def _spectrum_side_a(t: np.ndarray, ua: np.ndarray) -> np.ndarray:
    """Spectrum after measuring side A: union of conditional-block spectra.

    The three ``_spectrum_side_*`` kernels take one unitary per side or
    stacks of them (shape (..., n, n)) and return spectra of shape (..., N).
    Sides A and B take their blocks' eigenvalues from ``_block_spectrum``.
    """
    return _block_spectrum(_blocks_side_a(t, ua))


def _spectrum_side_b(t: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Spectrum after measuring side B: side A of the swapped tensor, by ``_block_spectrum``, not side A's kernel."""
    return _block_spectrum(_blocks_side_a(_swap_sides(t), ub))


def _spectrum_side_ab(t: np.ndarray, ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Spectrum after a bilocal measurement: the rotated joint diagonal."""
    return _flat_spectrum(_joint_probabilities(t, ua, ub))


# side -> kernel taking the state tensor and the side's ``LocalMeasurement.unitaries``
KERNELS = {"A": _spectrum_side_a, "B": _spectrum_side_b, "AB": _spectrum_side_ab}


def measured_spectrum(rho: DensityOperator, m: LocalMeasurement) -> np.ndarray:
    """Eigenvalues of apply_local(rho, m), sorted decreasing.

    After measuring side A the state is block-diagonal over the measured
    basis, so its spectrum is the union of the spectra of the conditional
    blocks; after a bilocal measurement it is the rotated diagonal.
    """
    return np.sort(KERNELS[m.side](_measured_tensor(rho, m), *m.unitaries))[::-1]


def disturbance_spectra(before, after, idx: EntropicIndices):
    """Purity-rescaled entropy increase between two spectra.

    Algebraically equal to (S(after) - S(before)) / (Tr before^q)^s, but
    evaluated by ``entropy_change`` through the log of the power-sum ratio,
    which is exact in the limit regimes and stable near them.  Either
    argument may be a stack of spectra; the result is then an array over
    the leading axes, equal row for row to the 1-D calls, bit for bit.
    """
    return entropy_change(spectral_sum(after, idx), spectral_sum(before, idx), idx)


def purity_ratio(rho: DensityOperator, m: LocalMeasurement, idx: EntropicIndices) -> float:
    """Purity ratio of the measurement on this state: ``disturbance``'s field."""
    return disturbance(rho, m, idx).purity_ratio


def disturbance(rho: DensityOperator, m: LocalMeasurement, idx: EntropicIndices) -> DisturbanceReport:
    """Entropies before/after, purity ratio, rescale and disturbance value, from one spectral_sum per spectrum."""
    before, after = spectral_sum(linalg.spectrum(rho), idx), spectral_sum(measured_spectrum(rho, m), idx)
    return DisturbanceReport(
        entropy_before=entropy_change(before, 0.0, idx),
        entropy_after=entropy_change(after, 0.0, idx),
        purity_ratio=float(purity_ratio_sums(after, before, idx)),
        rescale=float(purity_ratio_sums(before, 0.0, idx)),
        disturbance=entropy_change(after, before, idx),
    )
