"""Symmetric state families with analytic correlation values.

Pseudopure states (pure state mixed with white noise), isotropic states and
Werner states all admit closed-form correlation measures: the optimal local
measurement is known (Schmidt basis, respectively any local basis), so the
minimized measure reduces to the disturbance between two analytic spectra.
These serve as oracles for the numerical optimizer.  A kind is one row of
``KINDS`` plus one branch each in ``build`` and ``closed_form``.

The printed closed form for Werner states circulating in the literature
disagrees with the direct spectral computation (see werner_printed_form);
the spectrum-derived value is the one used as an oracle.  Every value here,
printed forms included, is ``measurement.disturbance_spectra`` of two
spectra, so this module does not branch on the regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .entropy import EntropicIndices
from .linalg import DensityOperator
from .measurement import disturbance_spectra

KINDS = {  # kind -> (parameter, its range [low, high] at side dimension N)
    "pseudopure": ("p", lambda n: (0.0, 1.0)),
    "isotropic": ("y", lambda n: (1.0 / n**2, 1.0)),
    "werner": ("x", lambda n: (-1.0, 1.0)),
}


class BadKind(ValueError):
    pass


class BadParameter(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class FamilySpec:
    """One-parameter family member: kind, side dimensions and mix parameter.

    The parameter is p in [0, 1] for pseudopure, y in [1/N^2, 1] for
    isotropic, x in [-1, 1] for Werner (``KINDS``), each 1e-12 below its low
    end included.  ``psi`` optionally fixes the pure state of a pseudopure
    member; the default is the maximally entangled vector on min(n_a, n_b) levels.
    """

    kind: str
    n_a: int
    n_b: int
    parameter: float
    psi: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise BadKind(f"kind must be one of {tuple(KINDS)}, got {self.kind!r}")
        if self.n_a < 1 or self.n_b < 1:
            raise BadParameter("side dimensions must be >= 1")
        if self.kind in ("isotropic", "werner") and self.n_a != self.n_b:
            raise BadParameter(f"{self.kind} states need n_a == n_b")
        if self.kind in ("isotropic", "werner") and self.n_a < 2:
            raise BadParameter(f"{self.kind} states need N >= 2, got N = {self.n_a}")
        name, bounds = KINDS[self.kind]
        low, high = bounds(self.n_a)
        if not low - 1e-12 <= self.parameter <= high:
            raise BadParameter(f"{self.kind} {name} must be in [{low:.6g}, {high:.6g}], got {self.parameter}")
        if self.psi is not None and self.kind != "pseudopure":
            raise BadParameter("psi only applies to pseudopure states")
        if self.psi is not None and not np.isfinite(np.asarray(self.psi, dtype=complex)).all():
            raise BadParameter("psi has a NaN or infinite entry")


def maximally_entangled(n_a: int, n_b: int | None = None) -> np.ndarray:
    """Uniform superposition over paired levels, as a unit vector."""
    n_b = n_a if n_b is None else n_b
    k = min(n_a, n_b)
    psi = np.zeros(n_a * n_b, dtype=complex)
    for i in range(k):
        psi[i * n_b + i] = 1.0
    return psi / math.sqrt(k)


def swap_operator(n: int) -> np.ndarray:
    """The flip F = sum_ij |ij><ji| on two n-dimensional systems."""
    return (
        np.eye(n * n).reshape(n, n, n, n).transpose(0, 1, 3, 2).reshape(n * n, n * n)
    ).astype(complex)


def _pseudopure_psi(spec: FamilySpec) -> np.ndarray:
    if spec.psi is not None:
        psi = np.asarray(spec.psi, dtype=complex).ravel()
        if psi.size != spec.n_a * spec.n_b:
            raise BadParameter(f"psi has size {psi.size}, expected {spec.n_a * spec.n_b}")
        if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
            raise BadParameter("psi must be a unit vector")
        return psi
    return maximally_entangled(spec.n_a, spec.n_b)


def build(spec: FamilySpec) -> DensityOperator:
    """Construct the density operator of a family member."""
    dims = (spec.n_a, spec.n_b)
    n = spec.n_a * spec.n_b
    if spec.kind == "pseudopure":
        psi = _pseudopure_psi(spec)
        p = spec.parameter
        mat = (1.0 - p) * np.eye(n) / n + p * np.outer(psi, psi.conj())
    elif spec.kind == "isotropic":
        y, nn = spec.parameter, spec.n_a
        psi = maximally_entangled(nn)
        mat = (1.0 - y) / (nn**2 - 1) * np.eye(n) + (nn**2 * y - 1.0) / (
            nn**2 - 1
        ) * np.outer(psi, psi.conj())
    else:
        x, nn = spec.parameter, spec.n_a
        mat = (nn - x) / (nn**3 - nn) * np.eye(n) + (nn * x - 1.0) / (
            nn**3 - nn
        ) * swap_operator(nn)
    return linalg.make_density(mat, dims)


def _pseudopure_spectra(n_total: int, p: float, lam: np.ndarray):
    """Spectra before/after measuring a pseudopure state in its Schmidt basis."""
    base = (1.0 - p) / n_total
    before = np.full(n_total, base)
    before[0] += p
    after = np.full(n_total, base)
    after[: lam.size] += p * lam
    return before, after


def pseudopure_closed_form(spec: FamilySpec, side: str, idx: EntropicIndices) -> float:
    """Correlation measure of a pseudopure state, exact for every side.

    The optimal measurement is the local Schmidt basis independently of the
    entropic indices, and the semiquantum and total quantifiers coincide, so
    the value does not depend on ``side``.
    """
    if spec.kind != "pseudopure":
        raise BadKind(f"expected a pseudopure spec, got {spec.kind!r}")
    if side not in ("A", "B", "AB"):
        raise ValueError(f"side must be A, B or AB, got {side!r}")
    psi = _pseudopure_psi(spec)
    lam = linalg.schmidt(psi, (spec.n_a, spec.n_b)).coefficients
    before, after = _pseudopure_spectra(spec.n_a * spec.n_b, spec.parameter, lam)
    return disturbance_spectra(before, after, idx)


def isotropic_closed_form(n: int, y: float, idx: EntropicIndices) -> float:
    """Correlation measure of the isotropic state, via its exact spectra.

    Before the measurement the spectrum is {y} + {(1-y)/(N^2-1)} x (N^2-1);
    after a standard-basis local measurement it is
    {(1-y+Ny-1/N)/(N^2-1)} x N + {(1-y)/(N^2-1)} x (N^2-N).  By symmetry any
    local measurement gives the same disturbance, so this is the minimized
    measure for every side.
    """
    FamilySpec("isotropic", n, n, y)  # parameter validation
    fill = (1.0 - y) / (n**2 - 1)
    before = np.full(n**2, fill)
    before[0] = y
    after = np.full(n**2, fill)
    after[:n] = (1.0 - y + n * y - 1.0 / n) / (n**2 - 1)
    return disturbance_spectra(before, after, idx)


def werner_spectrum_form(n: int, x: float, idx: EntropicIndices) -> float:
    """Correlation measure of the Werner state, via its exact spectra.

    Before: eigenvalue (1+x)/(N^2+N) on the symmetric subspace (multiplicity
    N(N+1)/2) and (1-x)/(N^2-N) on the antisymmetric one (N(N-1)/2).  After a
    standard-basis local measurement the diagonal carries (1+x)/(N^2+N) on the
    N matched levels and (N-x)/(N^3-N) elsewhere.  Measurement-independent by
    symmetry, hence equal to the minimized measure for every side.
    """
    FamilySpec("werner", n, n, x)
    before = np.concatenate(
        [
            np.full(n * (n + 1) // 2, (1.0 + x) / (n**2 + n)),
            np.full(n * (n - 1) // 2, (1.0 - x) / (n**2 - n)),
        ]
    )
    after = np.concatenate(
        [
            np.full(n, (1.0 + x) / (n**2 + n)),
            np.full(n**2 - n, (n - x) / (n**3 - n)),
        ]
    )
    return disturbance_spectra(before, after, idx)


def closed_form(spec: FamilySpec, side: str, idx: EntropicIndices) -> float:
    """Exact correlation measure of a family member on ``side``, by its kind's closed form."""
    if spec.kind == "pseudopure":
        return pseudopure_closed_form(spec, side, idx)
    if spec.kind == "isotropic":
        return isotropic_closed_form(spec.n_a, spec.parameter, idx)
    return werner_spectrum_form(spec.n_a, spec.parameter, idx)


def _printed_spectrum(terms) -> np.ndarray:
    """Trace-one spectrum from (count, base) pairs: ``count`` entries in proportion to ``base``.

    A printed ratio num(q) / den(q) of sums of count * base^q has
    num(1) = den(1), so normalizing both by that sum leaves it unchanged.
    """
    counts, bases = (np.array(column) for column in zip(*terms))
    return np.repeat(bases / np.sum(counts * bases), counts)


def werner_printed_form(n: int, x: float, idx: EntropicIndices) -> float:
    """Literal evaluation of the published Werner closed form.

    Kept for documentation and comparison only: at (N=2, x=-1, von Neumann)
    it evaluates to about 0.1308 while the direct spectral computation of the
    same quantity gives ln 2, so it is never used as an oracle.
    """
    FamilySpec("werner", n, n, x)
    # num = 2 [ (N-1)^q (x+1)^q + (N-1)(N-x)^q ]
    num_terms = [(2, (n - 1) * (x + 1.0)), (2 * (n - 1), float(n - x))]
    # den = 2 (N-1)^q (x+1)^q
    #       + (N-1) [ (N-x+Nx/2-1/2)^q + (N-x-Nx/2+1/2)^q ]
    den_terms = [
        (2, (n - 1) * (x + 1.0)), (n - 1, n - x + n * x / 2.0 - 0.5), (n - 1, n - x - n * x / 2.0 + 0.5)
    ]
    return disturbance_spectra(_printed_spectrum(den_terms), _printed_spectrum(num_terms), idx)


def isotropic_specializations(n: int, p: float, q: float) -> tuple[float, float]:
    """Tsallis (s=1) and Renyi (s->0) values for the isotropic family at p.

    The Renyi value follows the published specialization, which matches the
    s -> 0 limit of the general expression.  The published Tsallis line drops
    the purity rescaling and a sign, so the Tsallis value here is derived
    from the general expression at s = 1 instead.
    """
    FamilySpec("pseudopure", n, n, p)
    lam = np.full(n, 1.0 / n)
    before, after = _pseudopure_spectra(n * n, p, lam)
    tsallis = disturbance_spectra(before, after, EntropicIndices(q, 1.0))
    num_terms = [(n, 1.0 - p + n * p), (n * n - n, 1.0 - p)]
    den_terms = [(1, 1.0 - p + n * n * p), (n * n - 1, 1.0 - p)]
    renyi = disturbance_spectra(
        _printed_spectrum(den_terms), _printed_spectrum(num_terms), EntropicIndices(q, 0.0)
    )
    return tsallis, renyi
