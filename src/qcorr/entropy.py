"""Two-parameter unified entropies with exact limiting regimes.

The family is S_(q,s)(rho) = ((Tr rho^q)^s - 1) / ((1-q) s) for q > 0,
q != 1, s != 0.  The s -> 0 limit gives Renyi entropies, q -> 1 gives the
von Neumann entropy (for any s), and s = 1 gives Tsallis entropies.  All
logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg

REGIME_TOL = 1e-8


class BadIndices(ValueError):
    pass


class PreconditionUnmet(ValueError):
    pass


class Regime(Enum):
    VON_NEUMANN = "von_neumann"
    RENYI = "renyi"
    UNIFIED = "unified"


@dataclass(frozen=True)
class EntropicIndices:
    """Index pair (q, s); both finite, q positive.

    q within REGIME_TOL of 1 selects the von Neumann limit regardless of s;
    otherwise s within REGIME_TOL of 0 selects the Renyi limit.
    """

    q: float
    s: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and math.isfinite(self.s)):
            raise BadIndices(f"q and s must be finite, got q={self.q}, s={self.s}")
        if not self.q > 0:
            raise BadIndices(f"q must be positive, got {self.q}")

    @property
    def regime(self) -> Regime:
        if abs(self.q - 1.0) <= REGIME_TOL:
            return Regime.VON_NEUMANN
        if abs(self.s) <= REGIME_TOL:
            return Regime.RENYI
        return Regime.UNIFIED


def log_power_sum(p, q: float) -> float:
    """log(sum_i p_i^q) over the positive entries, with 0^q := 0."""
    p = np.asarray(p, dtype=float)
    pz = p[p > 0.0]
    if pz.size == 0:
        raise ValueError("spectrum has no positive weight")
    return float(np.log(np.sum(pz**q)))


def _von_neumann(p: np.ndarray) -> float:
    pz = p[p > 0.0]
    return float(-np.sum(pz * np.log(pz)))


def unified_entropy_spectrum(p, idx: EntropicIndices) -> float:
    """Unified (q,s)-entropy of a probability vector.

    The general branch evaluates expm1(s * log t) / ((1-q) s) with
    t = sum p_i^q, switching to the leading series when |s log t| < 1e-12.
    """
    p = np.clip(np.asarray(p, dtype=float), 0.0, None)
    regime = idx.regime
    if regime is Regime.VON_NEUMANN:
        return _von_neumann(p)
    log_t = log_power_sum(p, idx.q)
    if regime is Regime.RENYI:
        return log_t / (1.0 - idx.q)
    x = idx.s * log_t
    if abs(x) < 1e-12:
        return log_t / (1.0 - idx.q) * (1.0 + 0.5 * x)
    return math.expm1(x) / ((1.0 - idx.q) * idx.s)


def unified_entropy(rho: linalg.DensityOperator, idx: EntropicIndices) -> float:
    """Unified (q,s)-entropy of a state (eigendecompose, then delegate)."""
    return unified_entropy_spectrum(linalg.spectrum(rho), idx)


def max_entropy(n: int, idx: EntropicIndices) -> float:
    """Upper entropy bound (N^((1-q)s) - 1)/((1-q)s), attained by I/N."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if idx.regime is not Regime.UNIFIED:
        return math.log(n)
    x = (1.0 - idx.q) * idx.s * math.log(n)
    if abs(x) < 1e-12:
        return math.log(n) * (1.0 + 0.5 * x)
    return math.expm1(x) / ((1.0 - idx.q) * idx.s)


def relative_entropy(rho: linalg.DensityOperator, sigma: linalg.DensityOperator) -> float:
    """Quantum relative entropy S(rho||sigma) = Tr(rho (ln rho - ln sigma)).

    Computed in sigma's eigenbasis.  Returns math.inf when rho has weight
    above 1e-9 on a direction where sigma's eigenvalue is below 1e-12.
    """
    if rho.dim != sigma.dim:
        raise linalg.DimMismatch("states must share a Hilbert space")
    w, v = linalg.eig_hermitian(sigma)
    # weights of rho along sigma's eigenvectors
    d = np.real(np.einsum("ij,jk,ki->i", linalg.dag(v), rho.matrix, v))
    d = np.clip(d, 0.0, None)
    tiny = w < 1e-12
    if np.any(d[tiny] > 1e-9):
        return math.inf
    cross = float(np.sum(d[~tiny] * np.log(w[~tiny])))
    val = -_von_neumann(linalg.spectrum(rho)) - cross
    # Klein inequality guarantees nonnegativity; clamp roundoff only
    return max(val, 0.0)


def check_schur_concavity(p, q_vec, idx: EntropicIndices) -> bool:
    """Entropy comparison along the majorization order.

    For p majorized by q_vec, checks entropy(p) >= entropy(q_vec) - 1e-10
    (and the mirrored check if only the reverse relation holds).  Raises
    PreconditionUnmet when the spectra are incomparable.
    """
    if linalg.majorizes(p, q_vec):
        disordered, ordered = p, q_vec
    elif linalg.majorizes(q_vec, p):
        disordered, ordered = q_vec, p
    else:
        raise PreconditionUnmet("spectra are not comparable under majorization")
    return (
        unified_entropy_spectrum(disordered, idx)
        >= unified_entropy_spectrum(ordered, idx) - 1e-10
    )
