"""Quantum-correlation measures: disturbance minimized over local bases.

The search space is parametrized by real coefficient vectors on a traceless
Hermitian generator basis; a basis on an N-dimensional side has N^2 - 1
coefficients and decodes through the matrix exponential.  Minimization is a
multistart Nelder-Mead simplex over those coefficients, with the local
eigenbases of the reduced states as deterministic warm starts (they are the
exact optimum for pure and pseudopure states).  The result is not a certified
global minimum; the restart spread and the two-qubit grid oracle are the
honest evidence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur
from scipy.optimize import minimize

from . import linalg, measurement
from .entropy import EntropicIndices, entropy_change, spectral_sum, unified_entropy_spectrum
from .linalg import DensityOperator, DimMismatch
from .measurement import (
    LocalMeasurement,
    ProjectiveBasis,
    _purity_ratio_sums,
    _require_bipartite,
    _spectrum_side_a,
    _spectrum_side_ab,
    _spectrum_side_b,
    disturbance,
    disturbance_spectra,
    purity_ratio,
    rescale_factor,
)


class BadLength(ValueError):
    pass


@functools.lru_cache(maxsize=None)
def su_generators(n: int) -> np.ndarray:
    """Generalized Gell-Mann basis of traceless Hermitian n x n matrices.

    Normalized so Tr(G_j G_k) = 2 delta_jk; there are n^2 - 1 of them.
    """
    gens = []
    for j in range(n):
        for k in range(j + 1, n):
            g = np.zeros((n, n), dtype=complex)
            g[j, k] = g[k, j] = 1.0
            gens.append(g)
            g = np.zeros((n, n), dtype=complex)
            g[j, k] = -1.0j
            g[k, j] = 1.0j
            gens.append(g)
    for level in range(1, n):
        d = np.zeros(n)
        d[:level] = 1.0
        d[level] = -level
        gens.append(np.diag(d * math.sqrt(2.0 / (level * (level + 1)))).astype(complex))
    out = np.array(gens)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _generators_flat(n: int) -> np.ndarray:
    out = su_generators(n).reshape(n * n - 1, n * n)
    out.setflags(write=False)
    return out


def _unitary_from_angles(angles: np.ndarray, n: int) -> np.ndarray:
    if n == 2:
        # exp(i (a sx + b sy + c sz)) in closed form; the three generators
        # returned for n = 2 are exactly the Pauli matrices in that order
        a, b, c = angles
        r = math.sqrt(a * a + b * b + c * c)
        if r == 0.0:
            return np.eye(2, dtype=complex)
        f = 1j * math.sin(r) / r
        cr = math.cos(r)
        return np.array(
            [[cr + f * c, f * (a - 1j * b)], [f * (a + 1j * b), cr - f * c]]
        )
    h = (np.asarray(angles, dtype=float) @ _generators_flat(n)).reshape(n, n)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1.0j * w)) @ v.conj().T


def decode_basis(angles, n: int) -> ProjectiveBasis:
    """Exponential map from generator coefficients to a measurement basis."""
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (n * n - 1,):
        raise BadLength(f"need {n * n - 1} coefficients for dimension {n}, got {angles.shape}")
    return ProjectiveBasis(_unitary_from_angles(angles, n))


def _angles_from_unitary(u: np.ndarray) -> np.ndarray:
    """Generator coefficients reproducing u up to an irrelevant global phase."""
    n = u.shape[0]
    t, z = schur(u, output="complex")
    phases = np.angle(np.diagonal(t))
    h = (z * phases) @ z.conj().T
    return np.real(np.einsum("kij,ji->k", su_generators(n), h)) / 2.0


@dataclass(frozen=True, eq=False)
class MeasurementParams:
    """Generator coefficients for the measured side(s)."""

    side: str
    angles_a: np.ndarray | None = None
    angles_b: np.ndarray | None = None

    def to_measurement(self) -> LocalMeasurement:
        basis_a = basis_b = None
        if self.angles_a is not None:
            basis_a = decode_basis(self.angles_a, _side_dim(self.angles_a))
        if self.angles_b is not None:
            basis_b = decode_basis(self.angles_b, _side_dim(self.angles_b))
        return LocalMeasurement(self.side, basis_a, basis_b)


def _side_dim(angles: np.ndarray) -> int:
    n = int(round(math.sqrt(angles.size + 1)))
    if n * n - 1 != angles.size:
        raise BadLength(f"{angles.size} is not of the form n^2 - 1")
    return n


@dataclass(frozen=True)
class OptimizerOptions:
    restarts: int = 32
    seed: int = 0
    tol: float = 1e-10
    max_iter: int = 2000

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")


@dataclass(frozen=True, eq=False)
class CorrelationResult:
    value: float
    argmin: MeasurementParams
    restarts_used: int
    iterations: int
    spread: float
    converged: bool


@dataclass(frozen=True)
class TriangleReport:
    m_a: float
    m_b: float
    m_ab: float
    delta0: float
    delta1: float
    triangle_holds: bool
    dadb_holds: bool


def _objective_factory(rho: DensityOperator, side: str, idx: EntropicIndices):
    na, nb = _require_bipartite(rho)
    before = spectral_sum(linalg.spectrum(rho), idx)
    t = rho.matrix.reshape(na, nb, na, nb)
    la = na * na - 1

    if side == "A":
        def objective(x):
            after = _spectrum_side_a(t, _unitary_from_angles(x, na))
            return entropy_change(spectral_sum(after, idx), before, idx)
    elif side == "B":
        def objective(x):
            after = _spectrum_side_b(t, _unitary_from_angles(x, nb))
            return entropy_change(spectral_sum(after, idx), before, idx)
    else:
        def objective(x):
            ua = _unitary_from_angles(x[:la], na)
            ub = _unitary_from_angles(x[la:], nb)
            after = _spectrum_side_ab(t, ua, ub)
            return entropy_change(spectral_sum(after, idx), before, idx)

    return objective


def _eigenbasis_angles(rho: DensityOperator, subsystem: int) -> np.ndarray:
    reduced = linalg.partial_trace(rho, [subsystem])
    _, vectors = linalg.eig_hermitian(reduced)
    return _angles_from_unitary(vectors)


def measure_correlations(
    rho: DensityOperator,
    side: str,
    idx: EntropicIndices,
    opts: OptimizerOptions | None = None,
    warm_starts=(),
) -> CorrelationResult:
    """Minimize the local-measurement disturbance over bases on ``side``.

    Multistart Nelder-Mead over generator coefficients; deterministic given
    ``opts.seed``.  ``warm_starts`` may carry extra start vectors (already
    concatenated for side AB).  Raises DimMismatch when a measured side has
    dimension 1.
    """
    if side not in measurement.SIDES:
        raise ValueError(f"side must be one of {measurement.SIDES}")
    opts = opts or OptimizerOptions()
    na, nb = _require_bipartite(rho)
    for name, n in (("A", na), ("B", nb)):
        if name in side and n == 1:
            raise DimMismatch(f"side {name} has dimension 1; there is no basis to measure")
    la, lb = na * na - 1, nb * nb - 1
    objective = _objective_factory(rho, side, idx)

    starts = []
    angles_a = _eigenbasis_angles(rho, 0) if side in ("A", "AB") else None
    angles_b = _eigenbasis_angles(rho, 1) if side in ("B", "AB") else None
    if side == "A":
        starts.append(angles_a)
    elif side == "B":
        starts.append(angles_b)
    else:
        starts.append(np.concatenate([angles_a, angles_b]))
    for extra in warm_starts:
        starts.append(np.asarray(extra, dtype=float))

    rng = np.random.default_rng(opts.seed)
    while len(starts) < opts.restarts:
        parts = []
        if side in ("A", "AB"):
            parts.append(_angles_from_unitary(linalg.haar_unitary(na, rng)))
        if side in ("B", "AB"):
            parts.append(_angles_from_unitary(linalg.haar_unitary(nb, rng)))
        starts.append(np.concatenate(parts))

    nm_options = {
        "maxiter": opts.max_iter,
        "maxfev": opts.max_iter,
        "xatol": 1e-9,
        "fatol": opts.tol,
    }
    results = [
        minimize(objective, x0, method="Nelder-Mead", options=nm_options)
        for x0 in starts
    ]
    iterations = sum(r.nit for r in results)
    best = min(results, key=lambda r: r.fun)
    best_x, best_fun = np.asarray(best.x, dtype=float), float(best.fun)

    if side == "AB":
        # one alternating-refinement pass: polish each side with the other fixed
        xa, xb = best_x[:la], best_x[la:]
        res_a = minimize(
            lambda y: objective(np.concatenate([y, xb])),
            xa, method="Nelder-Mead", options=nm_options,
        )
        if res_a.fun < best_fun:
            xa, best_fun = np.asarray(res_a.x, dtype=float), float(res_a.fun)
        res_b = minimize(
            lambda y: objective(np.concatenate([xa, y])),
            xb, method="Nelder-Mead", options=nm_options,
        )
        if res_b.fun < best_fun:
            xb, best_fun = np.asarray(res_b.x, dtype=float), float(res_b.fun)
        iterations += res_a.nit + res_b.nit
        best_x = np.concatenate([xa, xb])

    converged = [r for r in results if r.success]
    spread = (
        max(r.fun for r in converged) - min(r.fun for r in converged)
        if converged
        else math.nan
    )
    if side == "A":
        argmin = MeasurementParams("A", angles_a=best_x)
    elif side == "B":
        argmin = MeasurementParams("B", angles_b=best_x)
    else:
        argmin = MeasurementParams("AB", angles_a=best_x[:la], angles_b=best_x[la:])
    return CorrelationResult(
        value=best_fun,
        argmin=argmin,
        restarts_used=len(starts),
        iterations=int(iterations),
        spread=float(spread),
        converged=bool(converged),
    )


# ---------------------------------------------------------------------------
# brute-force oracle for two-qubit states
# ---------------------------------------------------------------------------

def _bloch_basis_batch(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """All (theta, phi) basis pairs as an array V[g, outcome, component]."""
    th, ph = np.meshgrid(thetas, phis, indexing="ij")
    th, ph = th.ravel(), ph.ravel()
    c, s, e = np.cos(th / 2), np.sin(th / 2), np.exp(1j * ph)
    v = np.empty((th.size, 2, 2), dtype=complex)
    v[:, 0, 0] = c
    v[:, 0, 1] = s * e
    v[:, 1, 0] = -s * e.conj()
    v[:, 1, 1] = c
    return v


def _eig2x2_batch(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a batch (..., 2, 2) of Hermitian matrices."""
    tr = np.real(m[..., 0, 0] + m[..., 1, 1])
    det = np.real(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0])
    disc = np.sqrt(np.clip(tr * tr / 4.0 - det, 0.0, None))
    return np.stack([tr / 2.0 + disc, tr / 2.0 - disc], axis=-1)


def _grid_axes(n_theta: int, n_phi: int, window=None):
    """Cell-centered grid over the sphere, or over a refinement window."""
    if window is None:
        t_lo, t_hi, p_lo, p_hi = 0.0, math.pi, 0.0, 2.0 * math.pi
    else:
        t_lo, t_hi, p_lo, p_hi = window
    thetas = t_lo + (np.arange(n_theta) + 0.5) * (t_hi - t_lo) / n_theta
    phis = p_lo + (np.arange(n_phi) + 0.5) * (p_hi - p_lo) / n_phi
    return thetas, phis


def _window_around(thetas, phis, flat_index):
    it, ip = divmod(int(flat_index), phis.size)
    dt = thetas[1] - thetas[0] if thetas.size > 1 else math.pi
    dp = phis[1] - phis[0] if phis.size > 1 else 2.0 * math.pi
    return (
        max(thetas[it] - dt, 0.0),
        min(thetas[it] + dt, math.pi),
        phis[ip] - dp,
        phis[ip] + dp,
    )


def _unilocal_grid_values(t, before, idx, axis, thetas, phis):
    v = _bloch_basis_batch(thetas, phis)
    if axis == 0:
        blocks = np.einsum("gia,abcd,gic->gibd", v.conj(), t, v)
    else:
        blocks = np.einsum("gjb,abcd,gjd->gjac", v.conj(), t, v)
    eigs = _eig2x2_batch(blocks).reshape(v.shape[0], 4)
    return disturbance_spectra(before, eigs, idx)


def _bilocal_grid_values(t, before, idx, ta, pa, tb, pb, chunk=2048):
    va = _bloch_basis_batch(ta, pa)
    vb = _bloch_basis_batch(tb, pb)
    cond_b = np.einsum("hjb,abcd,hjd->hjac", vb.conj(), t, vb)
    out = np.empty((va.shape[0], vb.shape[0]))
    for lo in range(0, va.shape[0], chunk):
        hi = min(lo + chunk, va.shape[0])
        probs = np.real(
            np.einsum("gia,hjac,gic->ghij", va[lo:hi].conj(), cond_b, va[lo:hi])
        ).reshape(hi - lo, vb.shape[0], 4)
        out[lo:hi] = disturbance_spectra(before, probs, idx)
    return out


def grid_oracle_qubit(
    rho: DensityOperator,
    side: str,
    idx: EntropicIndices,
    resolution: tuple[int, int] = (64, 128),
) -> float:
    """Brute-force disturbance minimum over Bloch-angle grids (two qubits).

    Upper-bounds the true minimum; the grid is refined once around the best
    cell.  For side AB the per-sphere resolution is reduced by 4x to keep the
    product grid tractable.
    """
    if rho.dims != (2, 2):
        raise DimMismatch(f"grid oracle needs dims (2, 2), got {rho.dims}")
    if side not in measurement.SIDES:
        raise ValueError(f"side must be one of {measurement.SIDES}")
    n_theta, n_phi = resolution
    before = linalg.spectrum(rho)
    t = rho.matrix.reshape(2, 2, 2, 2)

    if side in ("A", "B"):
        axis = 0 if side == "A" else 1
        thetas, phis = _grid_axes(n_theta, n_phi)
        values = _unilocal_grid_values(t, before, idx, axis, thetas, phis)
        best = float(values.min())
        window = _window_around(thetas, phis, values.argmin())
        thetas, phis = _grid_axes(n_theta, n_phi, window)
        refined = _unilocal_grid_values(t, before, idx, axis, thetas, phis)
        return min(best, float(refined.min()))

    nt = max(n_theta // 4, 8)
    nph = max(n_phi // 4, 16)
    ta, pa = _grid_axes(nt, nph)
    tb, pb = _grid_axes(nt, nph)
    values = _bilocal_grid_values(t, before, idx, ta, pa, tb, pb)
    best = float(values.min())
    ia, ib = np.unravel_index(values.argmin(), values.shape)
    win_a = _window_around(ta, pa, ia)
    win_b = _window_around(tb, pb, ib)
    ta, pa = _grid_axes(nt, nph, win_a)
    tb, pb = _grid_axes(nt, nph, win_b)
    refined = _bilocal_grid_values(t, before, idx, ta, pa, tb, pb)
    return min(best, float(refined.min()))


# ---------------------------------------------------------------------------
# bounds, identities and contractivity diagnostics
# ---------------------------------------------------------------------------

def entanglement_lower_bound(rho: DensityOperator, idx: EntropicIndices) -> float:
    """max over the two sides of (S(reduced) - S(joint)) / (Tr rho^q)^s.

    A lower bound on every correlation measure; negative for separable
    states, saturated by pure states.
    """
    _require_bipartite(rho)
    s_joint = linalg.spectrum(rho)
    s_a = linalg.spectrum(linalg.partial_trace(rho, [0]))
    s_b = linalg.spectrum(linalg.partial_trace(rho, [1]))
    joint = unified_entropy_spectrum(s_joint, idx)
    gap = max(
        unified_entropy_spectrum(s_a, idx) - joint,
        unified_entropy_spectrum(s_b, idx) - joint,
    )
    return gap / rescale_factor(s_joint, idx)


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
    m_ab = LocalMeasurement("AB", basis_a=basis_a, basis_b=basis_b)
    d_ab = disturbance(rho, m_ab, idx).disturbance
    post_a = measurement.apply_local(rho, m_a)
    post_b = measurement.apply_local(rho, m_b)
    lhs_a = (
        disturbance(rho, m_a, idx).disturbance
        + purity_ratio(rho, m_a, idx) * disturbance(post_a, m_b, idx).disturbance
    )
    lhs_b = (
        disturbance(rho, m_b, idx).disturbance
        + purity_ratio(rho, m_b, idx) * disturbance(post_b, m_a, idx).disturbance
    )
    return abs(d_ab - lhs_a), abs(d_ab - lhs_b)


def _delta(rho, basis_a, basis_b, idx) -> float:
    """D_AB(pair) - P_B * D_A(post_B) - P_A * D_B(post_A) for one basis pair."""
    m_a = LocalMeasurement("A", basis_a=basis_a)
    m_b = LocalMeasurement("B", basis_b=basis_b)
    m_ab = LocalMeasurement("AB", basis_a=basis_a, basis_b=basis_b)
    post_a = measurement.apply_local(rho, m_a)
    post_b = measurement.apply_local(rho, m_b)
    return (
        disturbance(rho, m_ab, idx).disturbance
        - purity_ratio(rho, m_b, idx) * disturbance(post_b, m_a, idx).disturbance
        - purity_ratio(rho, m_a, idx) * disturbance(post_a, m_b, idx).disturbance
    )


def triangle_analysis(
    rho: DensityOperator,
    idx: EntropicIndices,
    opts: OptimizerOptions | None = None,
) -> TriangleReport:
    """Minimized measures on all sides plus the Delta_0/Delta_1 diagnostics.

    The bilocal optimization is warm-started with the pair of unilocal
    argmins, which makes the sandwich inequalities numerically meaningful.
    """
    opts = opts or OptimizerOptions()
    res_a = measure_correlations(rho, "A", idx, opts)
    res_b = measure_correlations(rho, "B", idx, opts)
    warm = np.concatenate([res_a.argmin.angles_a, res_b.argmin.angles_b])
    res_ab = measure_correlations(rho, "AB", idx, opts, warm_starts=(warm,))

    basis_a1 = res_a.argmin.to_measurement().basis_a
    basis_b1 = res_b.argmin.to_measurement().basis_b
    pair0 = res_ab.argmin.to_measurement()
    delta1 = _delta(rho, basis_a1, basis_b1, idx)
    delta0 = _delta(rho, pair0.basis_a, pair0.basis_b, idx)

    m_a, m_b, m_ab = res_a.value, res_b.value, res_ab.value
    triangle_holds = m_a + m_b >= m_ab - 1e-8
    dadb_holds = (m_ab + delta0 >= m_a + m_b - 1e-8) and (
        m_a + m_b >= m_ab + delta1 - 1e-8
    )
    return TriangleReport(m_a, m_b, m_ab, delta0, delta1, triangle_holds, dadb_holds)


def measurement_pair_spectra(rho: DensityOperator, trials: int, seed) -> dict:
    """Post-measurement spectra for Haar-random local measurement pairs.

    Returns the shared input spectrum and, per trial, the spectra after the
    A measurement, the B measurement, and both.  These depend only on the
    state and the drawn bases, so one batch serves every entropic index.

    Stream contract: all Ginibre entries come from one standard-normal draw
    whose row k holds the numbers that ``linalg.haar_unitary(na, rng)`` and
    then ``haar_unitary(nb, rng)`` would take for trial k.  The bases, and so
    the spectra, equal those of a per-trial loop alternating the two calls,
    bit for bit; one batched QR per side and one stacked spectrum call per
    side replace that loop.
    """
    na, nb = _require_bipartite(rho)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    z = np.random.default_rng(seed).standard_normal((trials, 2 * (na * na + nb * nb)))
    ua = linalg.haar_from_normals(z[:, : 2 * na * na], na)
    ub = linalg.haar_from_normals(z[:, 2 * na * na :], nb)
    t = rho.matrix.reshape(na, nb, na, nb)
    return {
        "before": linalg.spectrum(rho),
        "after_a": _spectrum_side_a(t, ua),
        "after_b": _spectrum_side_b(t, ub),
        "after_ab": _spectrum_side_ab(t, ua, ub),
    }


def contractivity_min_from_spectra(spectra: dict, idx: EntropicIndices) -> float:
    """min over trials of D_A(rho) - P_B * D_A(post_B), from cached spectra.

    The spectral sums of ``before`` and ``after_b`` are taken once and serve
    both disturbances and P_B.  D_A(rho) hands numpy's ufunc to
    ``entropy_change``, while D_A(post_B) keeps the math-module default of
    the scalar ``disturbance_spectra``; the two differ in the last bit on
    about one input in ten, and each term keeps the one it has always used,
    so the ``qcorr fig1`` rows do not move in the last digit.
    """
    before = spectral_sum(spectra["before"], idx)
    after_b = spectral_sum(spectra["after_b"], idx)
    d_a = entropy_change(spectral_sum(spectra["after_a"], idx), before, idx, expm1=np.expm1)
    d_a_post_b = entropy_change(spectral_sum(spectra["after_ab"], idx), after_b, idx)
    p_b = _purity_ratio_sums(after_b, before, idx)
    return float(np.min(d_a - p_b * d_a_post_b))


def contractivity_probe(
    rho: DensityOperator, idx: EntropicIndices, trials: int, seed
) -> float:
    """Search for violations of local contractivity of unilocal disturbances.

    Returns the minimal difference D_A(rho) - P_B * D_A(post_B) over
    ``trials`` random local measurement pairs; a negative value certifies a
    contractivity violation.
    """
    return contractivity_min_from_spectra(
        measurement_pair_spectra(rho, trials, seed), idx
    )
