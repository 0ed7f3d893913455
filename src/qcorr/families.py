"""Symmetric state families with analytic correlation values.

Pseudopure states (pure state mixed with white noise), isotropic states and
Werner states all admit closed-form correlation measures: the optimal local
measurement is known (the Schmidt basis; any local basis of the symmetric
isotropic and Werner states, on every side), so the minimized measure
reduces to the disturbance between two analytic spectra.
These serve as oracles for the numerical optimizer.  A kind is one ``Kind``
row of ``KINDS``, which ``FamilySpec``, ``build`` and ``closed_form`` read.

The printed closed form for Werner states circulating in the literature
disagrees with the direct spectral computation (see werner_printed_form);
the spectrum-derived value is the one used as an oracle.  Every value here,
printed forms included, is ``measurement.disturbance_spectra`` of two
spectra, so this module does not branch on the regime.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import linalg
from .entropy import EntropicIndices
from .linalg import DensityOperator
from .measurement import check_side, disturbance_spectra


class BadKind(ValueError):
    pass


class BadParameter(ValueError):
    pass


@linalg.validated
class FamilySpec(NamedTuple):
    """One-parameter family member: kind, side dimensions and mix parameter.

    The parameter is p in [0, 1] for pseudopure, y in [1/N^2, 1] for
    isotropic, x in [-1, 1] for Werner (``KINDS``), each 1e-12 below its low
    end included.  ``psi`` optionally fixes the pure state of a pseudopure
    member, a unit vector on n_a n_b levels; the default is the maximally
    entangled vector on min(n_a, n_b) levels.
    """

    kind: str
    n_a: int
    n_b: int
    parameter: float
    psi: np.ndarray | None = None

    def _check(self):
        if self.kind not in KINDS:
            raise BadKind(f"kind must be one of {tuple(KINDS)}, got {self.kind!r}")
        if not (linalg.is_integer(self.n_a) and linalg.is_integer(self.n_b)):
            raise BadParameter(f"side dimensions must be integers, got {self.n_a!r} and {self.n_b!r}")
        if self.n_a < 1 or self.n_b < 1:
            raise BadParameter("side dimensions must be >= 1")
        row = KINDS[self.kind]
        if need := row.dims(self.n_a, self.n_b):
            raise BadParameter(f"{self.kind} states need {need}")
        low, high = row.bounds(self.n_a)
        if not linalg.is_real(self.parameter):
            raise BadParameter(f"{self.kind} {row.parameter} must be a real number, got {self.parameter!r}")
        if not low - 1e-12 <= self.parameter <= high:
            raise BadParameter(f"{self.kind} {row.parameter} must be in [{low:.6g}, {high:.6g}], got {self.parameter}")
        if self.psi is not None:
            if self.kind != "pseudopure":
                raise BadParameter("psi only applies to pseudopure states")
            psi = np.asarray(self.psi, dtype=complex).ravel()
            if not np.isfinite(psi).all():
                raise BadParameter("psi has a NaN or infinite entry")
            if psi.size != self.n_a * self.n_b:
                raise BadParameter(f"psi has size {psi.size}, expected {self.n_a * self.n_b}")
            if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
                raise BadParameter("psi must be a unit vector")


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


def _square(n_a: int, n_b: int) -> str | None:
    if n_a != n_b:
        return "n_a == n_b"
    return None if n_a >= 2 else f"N >= 2, got N = {n_a}"  # the weights divide by N^2 - 1


def _pseudopure_psi(spec: FamilySpec) -> np.ndarray:
    return maximally_entangled(spec.n_a, spec.n_b) if spec.psi is None else np.asarray(spec.psi, complex).ravel()


def _pseudopure_state(spec: FamilySpec):
    psi, p = _pseudopure_psi(spec), spec.parameter
    return (1.0 - p) / (spec.n_a * spec.n_b), p, np.outer(psi, psi.conj())


def _pseudopure_spectra(spec: FamilySpec):
    """Spectra before/after measuring a pseudopure state in its Schmidt basis, optimal at every index and side."""
    n_total, p = spec.n_a * spec.n_b, spec.parameter
    lam = linalg.schmidt(_pseudopure_psi(spec), (spec.n_a, spec.n_b)).coefficients
    base = (1.0 - p) / n_total
    before = np.full(n_total, base)
    before[0] += p
    after = np.full(n_total, base)
    after[: lam.size] += p * lam
    return before, after


def _isotropic_state(spec: FamilySpec):
    y, n, psi = spec.parameter, spec.n_a, maximally_entangled(spec.n_a)
    return (1.0 - y) / (n**2 - 1), (n**2 * y - 1.0) / (n**2 - 1), np.outer(psi, psi.conj())


def _isotropic_spectra(spec: FamilySpec):
    """{y} + {(1-y)/(N^2-1)} x (N^2-1) before; {(1-y+Ny-1/N)/(N^2-1)} x N + {(1-y)/(N^2-1)} x (N^2-N) after."""
    y, n = spec.parameter, spec.n_a
    fill = (1.0 - y) / (n**2 - 1)
    before = np.full(n**2, fill)
    before[0] = y
    after = np.full(n**2, fill)
    after[:n] = (1.0 - y + n * y - 1.0 / n) / (n**2 - 1)
    return before, after


def _werner_state(spec: FamilySpec):
    x, n = spec.parameter, spec.n_a
    return (n - x) / (n**3 - n), (n * x - 1.0) / (n**3 - n), swap_operator(n)


def _werner_spectra(spec: FamilySpec):
    """(1+x)/(N^2+N) on the symmetric subspace (N(N+1)/2 levels) and (1-x)/(N^2-N) on the antisymmetric
    one before; (1+x)/(N^2+N) on the N matched levels and (N-x)/(N^3-N) elsewhere after."""
    x, n = spec.parameter, spec.n_a
    before = np.repeat([(1.0 + x) / (n**2 + n), (1.0 - x) / (n**2 - n)], [n * (n + 1) // 2, n * (n - 1) // 2])
    after = np.repeat([(1.0 + x) / (n**2 + n), (n - x) / (n**3 - n)], [n, n**2 - n])
    return before, after


class Kind(NamedTuple):
    """A family kind, whole: ``FamilySpec``, ``build`` and ``closed_form`` read nothing else of it."""

    parameter: str  # the parameter's name: the paper's symbol and the CLI flag
    bounds: Callable[[int], tuple[float, float]]  # side dimension N -> the parameter's range [low, high]
    dims: Callable[[int, int], str | None]  # (n_a, n_b) -> what the side dimensions lack, or None
    state: Callable[[FamilySpec], tuple[float, float, np.ndarray]]  # (a, b, P) of the state a I + b P
    spectra: Callable[[FamilySpec], tuple[np.ndarray, np.ndarray]]  # before and after the optimal measurement


KINDS = {
    "pseudopure": Kind("p", lambda n: (0.0, 1.0), lambda n_a, n_b: None, _pseudopure_state, _pseudopure_spectra),
    "isotropic": Kind("y", lambda n: (1.0 / n**2, 1.0), _square, _isotropic_state, _isotropic_spectra),
    "werner": Kind("x", lambda n: (-1.0, 1.0), _square, _werner_state, _werner_spectra),
}


def build(spec: FamilySpec) -> DensityOperator:
    """Construct the density operator a I + b P of a family member."""
    a, b, op = KINDS[spec.kind].state(spec)
    return linalg.make_density(a * np.eye(op.shape[0]) + b * op, (spec.n_a, spec.n_b))


def closed_form(spec: FamilySpec, side: str, idx: EntropicIndices) -> float:
    """Exact correlation measure of a family member on ``side``: the disturbance between its kind's spectra."""
    check_side(side)
    return disturbance_spectra(*KINDS[spec.kind].spectra(spec), idx)


def pseudopure_closed_form(spec: FamilySpec, side: str, idx: EntropicIndices) -> float:
    """Correlation measure of a pseudopure state, exact for every side."""
    if spec.kind != "pseudopure":
        raise BadKind(f"expected a pseudopure spec, got {spec.kind!r}")
    return closed_form(spec, side, idx)


def isotropic_closed_form(n: int, y: float, idx: EntropicIndices) -> float:
    """Correlation measure of the isotropic state, the same on every side."""
    return closed_form(FamilySpec("isotropic", n, n, y), "AB", idx)


def werner_spectrum_form(n: int, x: float, idx: EntropicIndices) -> float:
    """Correlation measure of the Werner state via its exact spectra, the same on every side."""
    return closed_form(FamilySpec("werner", n, n, x), "AB", idx)


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
