"""Two-parameter unified entropies with exact limiting regimes.

The family is S_(q,s)(rho) = ((Tr rho^q)^s - 1) / ((1-q) s) for q > 0,
q != 1, s != 0.  The s -> 0 limit gives Renyi entropies, q -> 1 gives the
von Neumann entropy (for any s), and s = 1 gives Tsallis entropies.  All
logarithms are natural.

Every entropy, entropy difference and disturbance in the package goes
through two array functions over the last axis: ``spectral_sum`` reduces a
spectrum (or a stack of them) to the sum its entropy is built from, and
``entropy_change`` maps two such sums to the purity-rescaled entropy
change.  Beside them, ``purity_ratio_sums`` maps two sums to the purity ratio,
``unified_from_renyi`` maps the Renyi measure to the (q, s) one, ``renyi_change_and_slope``
gives its change and its slope by each entry of a spectrum in one pass, and ``min_difference``
minimizes a weighted ``entropy_change`` over a stack.  These six kernels are the package's one
switch between the von Neumann, Renyi and unified regimes: no other module branches on ``Regime``.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import linalg

REGIME_TOL = 1e-8
UNDERFLOW_LOG = 700.0  # past q ln N = this, every term of a trace-one power sum of N entries may underflow


class BadIndices(ValueError):
    pass


class Regime(Enum):
    VON_NEUMANN = "von_neumann"
    RENYI = "renyi"
    UNIFIED = "unified"


@linalg.validated
class EntropicIndices(NamedTuple):
    """Index pair (q, s); both finite real numbers (``linalg.is_real``), q positive.

    q within REGIME_TOL of 1 selects the von Neumann limit regardless of s;
    otherwise s within REGIME_TOL of 0 selects the Renyi limit.
    """

    q: float
    s: float

    def _check(self):
        if not (linalg.is_real(self.q) and linalg.is_real(self.s)):
            raise BadIndices(f"q and s must be real numbers, got q={self.q!r}, s={self.s!r}")
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


def _positive_sums(p: np.ndarray, term):
    """sum(term(entry)) over the positive entries of the last axis of p; NaN counts as positive.

    A non-positive entry adds an exact zero where it stands (0^q := 0, 0 ln 0 := 0).
    """
    positive = ~(p <= 0.0)
    if p.size and positive.all():
        return _row_sums(term(p))
    if not positive.any(axis=-1).all():
        raise ValueError("spectrum has no positive weight")
    return _row_sums(np.where(positive, term(np.where(positive, p, 1.0)), 0.0))


def _row_sums(x: np.ndarray):
    """x.sum(axis=-1), bit for bit: numpy adds a row of under 8 entries left to right from +0.0."""
    if 0 < x.shape[-1] < 8 and x.size >= 256 * x.shape[-1]:  # adding columns skips its ~25 ns a row
        return sum(np.moveaxis(x, -1, 0), 0.0)
    return x.sum(axis=-1)


def log_power_sum(p, q: float):
    """log(sum_i p_i^q) over the positive entries of the last axis (0^q := 0); past q ln N =
    UNDERFLOW_LOG the largest entry m is factored out, as q ln m + log(sum_i (p_i / m)^q)."""
    p = np.asarray(p, dtype=float)
    if q * math.log(p.shape[-1] or 1) <= UNDERFLOW_LOG:  # an empty spectrum raises below
        return np.log(_positive_sums(p, lambda pz: pz**q))
    top = np.maximum(p.max(axis=-1, keepdims=True), np.finfo(float).tiny)  # a row with no positive entry still raises
    return np.log(_positive_sums(p / top, lambda pz: pz**q)) + q * np.log(top[..., 0])


def spectral_sum(p, idx: EntropicIndices):
    """The sum an entropy is built from, over the last axis of p.

    The von Neumann entropy -sum p ln p in that regime, log_power_sum(p, q)
    otherwise; only positive entries count.  A 1-D spectrum gives a float,
    a stack of spectra an array over its leading axes.
    """
    p = np.asarray(p, dtype=float)
    if idx.regime is Regime.VON_NEUMANN:
        total = -_positive_sums(p, lambda pz: pz * np.log(pz))
    else:
        total = log_power_sum(p, idx.q)
    return float(total) if p.ndim == 1 else total


def entropy_change(after_sum, before_sum, idx: EntropicIndices, expm1=math.expm1):
    """Purity-rescaled entropy change (S(after) - S(before)) / (Tr before^q)^s.

    Takes two spectral_sum values (floats or arrays) with d their
    difference, and returns d (von Neumann), d / (1-q) (Renyi) or
    expm1(s d) / ((1-q) s).  With before_sum = 0 this is the entropy of
    ``after``.  ``expm1`` is math.expm1, mapped over arrays, unless a numpy
    ufunc is given; numpy's expm1 differs from it in the last bit on about
    one input in ten.
    """
    d = after_sum - before_sum
    regime = idx.regime
    if regime is Regime.VON_NEUMANN:
        return d
    if regime is Regime.RENYI:
        return d / (1.0 - idx.q)
    x, scale = idx.s * d, (1.0 - idx.q) * idx.s
    if np.ndim(x) and not isinstance(expm1, np.ufunc):  # math.expm1 takes one float at a time
        return np.fromiter(map(expm1, x.ravel().tolist()), float, x.size).reshape(x.shape) / scale
    return expm1(x) / scale


def min_difference(base, weight, after_sum, before_sum, idx: EntropicIndices) -> float:
    """min over a stack of base - weight * entropy_change(after_sum, before_sum, idx), bit for bit.

    math.expm1 (~30x numpy's cost, within 1 ulp of it on 10^6 inputs) runs only on the rows within 64 eps (|m| +
    max |base|) of the minimum m under numpy's expm1.  At 2 eps between the two, the rounded quotient, u = weight *
    quotient and v = base - u move by delta <= 5 eps (|u| + |v|) <= 5 eps (|base| + 2 |v|).  The true argmin k and
    numpy's j have |v| <= |m| + delta, so v~_k <= v_j + delta_k <= m + delta_j + delta_k <= m + 20 eps (max |base|
    + |m|).  Every stack takes this filter, a one-row stack keeping its row.  A NaN or infinite row takes every row,
    so np.min's value, or math.expm1's OverflowError, stands.
    """
    if idx.regime is Regime.UNIFIED:
        with np.errstate(all="ignore"):
            approx = base - weight * entropy_change(after_sum, before_sum, idx, expm1=np.expm1)
        if np.isfinite(approx).all():
            keep = approx <= (m := approx.min()) + 64.0 * linalg.EPS * (abs(m) + np.abs(base).max())
            base, weight, after_sum, before_sum = base[keep], weight[keep], after_sum[keep], before_sum[keep]
    return float(np.min(base - weight * entropy_change(after_sum, before_sum, idx)))


def unified_from_renyi(r, idx: EntropicIndices):
    """M_(q,s) = expm1(s (1-q) r) / ((1-q) s) of the Renyi measure r = R_q, strictly increasing; r outside the unified regime."""
    return entropy_change((1.0 - idx.q) * r, 0.0, idx) if idx.regime is Regime.UNIFIED else r


def purity_ratio_sums(after_sum, before_sum, idx: EntropicIndices):
    """exp(s (after_sum - before_sum)) from two spectral_sum values.

    In the unified regime the sums are log power sums and this is
    ((Tr after^q) / (Tr before^q))^s; the factor is identically 1 in the
    limit regimes, where the measures carry no purity rescaling.
    """
    if idx.regime is not Regime.UNIFIED:
        return 1.0
    return np.exp(idx.s * (after_sum - before_sum))


def renyi_change_and_slope(p: np.ndarray, before_sum: float, idx: EntropicIndices):
    """R(p) - R(before) and dR/dp, for the Renyi measure R (von Neumann at q = 1) of p, whatever s.

    The spectrum fills the last two axes of p (outcomes by conditional eigenvalues, or the joint
    outcome table); any axes before them are stack axes, and ``before_sum`` is the spectral_sum before.
    The value counts entries below ``linalg.rank_cutoff`` of a trace-one spectrum of N entries (scale 1)
    as zero: it is entropy_change(spectral_sum(cut p), before_sum) bit for bit, and raises where that does.
    The slope is -(ln p + 1) for von Neumann, else q p^(q-1) / ((1-q) Tr p^q), with the value's Tr p^q of
    the cut spectrum; ln p and, for q < 1, p^(q-1) diverge, so it takes cut entries at the cut-off.
    """
    n = p.shape[-2] * p.shape[-1]
    cut = linalg.rank_cutoff(n, 1.0)
    below = p < cut  # NaN is kept, and counts as positive
    cuts = below.any()
    if cuts and below.all(axis=(-2, -1)).any():
        raise ValueError("spectrum has no positive weight")
    flat = p.shape[:-2] + (n,)
    if idx.regime is Regime.VON_NEUMANN:
        log = np.log(np.maximum(p, cut))
        terms = np.where(below, 0.0, p * log) if cuts else p * log
        return -_row_sums(terms.reshape(flat)) - before_sum, -(log + 1.0)
    q, top = idx.q, None
    powers, pz, scale = np.maximum(p, 0.0), np.maximum(p, cut), q / (1.0 - q)
    if q * math.log(n) > UNDERFLOW_LOG:  # as in log_power_sum: factor out the largest entry
        top = p.max(axis=(-2, -1), keepdims=True)
        powers, pz, scale = powers / top, pz / top, scale / top[..., 0, 0]
    powers = powers**q  # p^q, over top^q when factored
    # Tr p^q of the cut spectrum; numpy adds the last two axes as _row_sums adds a flat row
    trace = _row_sums(np.where(below, 0.0, powers).reshape(flat)) if cuts else powers.sum(axis=(-2, -1))
    total = np.log(trace)
    if top is not None:
        total = total + q * np.log(top[..., 0, 0])
    slope = (scale / trace)[..., None, None] * pz ** (q - 1.0)
    return (total - before_sum) / (1.0 - q), slope


def unified_entropy_spectrum(p, idx: EntropicIndices):
    """Unified (q,s)-entropy of a probability vector, or of each row of a stack."""
    return entropy_change(spectral_sum(p, idx), 0.0, idx)


def unified_entropy(rho: linalg.DensityOperator, idx: EntropicIndices) -> float:
    """Unified (q,s)-entropy of a state (eigendecompose, then delegate)."""
    return unified_entropy_spectrum(linalg.spectrum(rho), idx)


def max_entropy(n: int, idx: EntropicIndices) -> float:
    """Upper entropy bound (N^((1-q)s) - 1)/((1-q)s): the entropy of I/N."""
    linalg.check_dims((n,))  # one dimension: a sequence is refused too
    return unified_entropy_spectrum(np.full(n, 1.0 / n), idx)
