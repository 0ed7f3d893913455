"""Quantum-correlation measures: disturbance minimized over local bases.

A measurement basis on an N-dimensional side is the column set of a unitary
in U(N).  ``measure_correlations`` searches U(N_A), U(N_B) or their product
by multistart Riemannian conjugate gradient (Polak-Ribiere+, Armijo line
search): the disturbance has a closed-form gradient under U -> U exp(iK),
and each step moves along that exponential.  The starts are the local
eigenbases of the reduced states (the exact optimum for pure and pseudopure
states), any caller's warm starts, then Haar-random unitaries.  Bases are
reported as real coefficient vectors on a traceless Hermitian generator
basis (N^2 - 1 per side), which decode through the matrix exponential.

The result is an upper bound, not a certified global minimum.  Each result
carries its evidence: the spread and basin count over restarts, the
gradient norm at the argmin, and the evaluation count; the two-qubit grid
oracle and the measured-qubit closed form at (q, s) = (2, 1) are exact
checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

from . import linalg, measurement
from .entropy import (
    EntropicIndices,
    Regime,
    entropy_change,
    spectral_sum,
    unified_entropy_spectrum,
)
from .linalg import DensityOperator, DimMismatch
from .measurement import (
    LocalMeasurement,
    ProjectiveBasis,
    _blocks_side_a,
    _blocks_side_b,
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
    """Search budget: ``restarts`` descents, each stopped by ``tol`` or ``max_iter``.

    A descent stops when its Riemannian gradient norm falls below GRAD_TOL,
    when an iteration that took its first trial step lowers the value by no
    more than ``tol`` times the value, when no step rotating the bases by
    more than MIN_ANGLE lowers it, or after ``max_iter`` iterations.
    """

    restarts: int = 32
    seed: int = 0
    tol: float = 1e-10
    max_iter: int = 2000

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")


@dataclass(frozen=True, eq=False)
class CorrelationResult:
    """The minimized measure and the evidence behind it.

    ``spread`` is the range of the final values over all restarts and
    ``basin_hits`` the number of restarts ending within BASIN_TOL of the
    best.  ``converged`` and ``grad_norm`` describe the restart that gave
    ``value``: it ended by a stopping test rather than at ``max_iter``, at
    a point with that Riemannian gradient norm.  ``iterations`` and
    ``nfev`` (objective values) are totals over the restarts.
    """

    value: float
    argmin: MeasurementParams
    restarts_used: int
    iterations: int
    spread: float
    converged: bool
    grad_norm: float
    basin_hits: int
    nfev: int


@dataclass(frozen=True)
class TriangleReport:
    m_a: float
    m_b: float
    m_ab: float
    delta0: float
    delta1: float
    triangle_holds: bool
    dadb_holds: bool


GRAD_TOL = 1e-9  # a descent stops once its Riemannian gradient norm is below this
BASIN_TOL = 1e-9  # restarts ending this close to the best value count as basin hits
SLOPE_FLOOR = 1e-16  # probabilities below this are roundoff; the slope is taken here
ARMIJO = 1e-4  # sufficient-decrease constant of the line search
MIN_ANGLE = 1e-12  # a trial step rotating the bases by less than this ends the search


def _objective_factory(t: np.ndarray, side: str, idx: EntropicIndices, before: float):
    """Disturbance of the measurement in local bases given as unitaries.

    ``t`` is the state as an (N_A, N_B, N_A, N_B) tensor and ``before`` the
    spectral sum of its spectrum.  The objective takes one unitary for
    side A or B and two for side AB.
    """
    spectrum_after = {"A": _spectrum_side_a, "B": _spectrum_side_b, "AB": _spectrum_side_ab}[side]

    def objective(*us):
        return entropy_change(spectral_sum(spectrum_after(t, *us), idx), before, idx)

    return objective


def _slope(p: np.ndarray, idx: EntropicIndices, before: float) -> np.ndarray:
    """dD/dp, the disturbance's derivative by each probability of the spectrum p.

    -(ln p + 1) for von Neumann, else P q p^(q-1) / ((1-q) Tr p^q) with P the
    purity ratio (1 in the Renyi limit).  Entries below SLOPE_FLOOR, where
    ln p and, for q < 1, p^(q-1) diverge, are taken at the floor.
    """
    pz = np.maximum(p, SLOPE_FLOOR)
    if idx.regime is Regime.VON_NEUMANN:
        return -(np.log(pz) + 1.0)
    after = spectral_sum(p.ravel(), idx)
    scale = idx.q * _purity_ratio_sums(after, before, idx) / ((1.0 - idx.q) * math.exp(after))
    return scale * pz ** (idx.q - 1.0)


def _hermitian_gradient(u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """-i (x - x^dag) for x = u^dag y: Tr_B(-i[W, F]) from x = Tr_B(W F)."""
    x = u.conj().T @ y
    return -1j * (x - x.conj().T)


def _gradient_factory(t: np.ndarray, side: str, idx: EntropicIndices, before: float):
    """Riemannian gradient of the objective, one Hermitian matrix per side.

    With W the state in the rotated product basis and F the matrix of the
    slopes in the measured eigenbasis (diagonal for side AB, block-diagonal
    over the outcomes for sides A and B), the disturbance changes by
    Tr(K C), C = -i[W, F], under U -> U exp(iK) on side A; the gradient is
    the partial trace of C over B, and symmetrically for side B.  Every
    side starts from the value kernel's conditional blocks
    (``measurement._blocks_side_a/b``).
    """

    def conditional(blocks):
        lam, vec = np.linalg.eigh(blocks)
        g = _slope(lam, idx, before)
        return (vec * g[:, None, :]) @ vec.conj().transpose(0, 2, 1)

    if side == "A":
        def gradient(ua):
            f = conditional(_blocks_side_a(t, ua))
            return (_hermitian_gradient(ua, np.einsum("abce,ck,keb->ak", t, ua, f)),)
    elif side == "B":
        def gradient(ub):
            f = conditional(_blocks_side_b(t, ub))
            return (_hermitian_gradient(ub, np.einsum("abed,dl,lea->bl", t, ub, f)),)
    else:
        def gradient(ua, ub):
            # with C_j the conditional blocks of B, W[ij, kj] = (ua^dag C_j ua)[i, k]:
            # its diagonal is the outcome table and x_A[i, k] = sum_j W[ij, kj] g[k, j];
            # x_B is the same sum over the conditional blocks of A
            cb = _blocks_side_b(t, ub) @ ua
            g = _slope(np.real(np.einsum("ai,jai->ij", ua.conj(), cb)), idx, before)
            x_a = np.einsum("jak,kj->ak", cb, g)
            x_b = np.einsum("ibl,il->bl", _blocks_side_a(t, ua) @ ub, g)
            return _hermitian_gradient(ua, x_a), _hermitian_gradient(ub, x_b)

    return gradient


def _exp_path(k: np.ndarray):
    """step -> exp(i step k) for a Hermitian direction k, up to a global phase.

    k is diagonalized once and every step reuses its eigenbasis.  For n = 2
    the closed form of ``_unitary_from_angles`` on the Pauli coefficients of
    k's traceless part is used instead, which is cheaper than a 2x2 ``eigh``:
    the qubit items of the ``measure`` benchmark take about 10% less time.
    """
    if k.shape[0] == 2:
        a, b, c = float(k[1, 0].real), float(k[1, 0].imag), float(0.5 * (k[0, 0] - k[1, 1]).real)
        return lambda step: _unitary_from_angles((step * a, step * b, step * c), 2)
    w, v = np.linalg.eigh(k)
    vh = v.conj().T
    return lambda step: (v * np.exp(1j * step * w)) @ vh


def _inner(xs, ys) -> float:
    return sum(float(np.real(np.vdot(x, y))) for x, y in zip(xs, ys))


@dataclass(frozen=True, eq=False)
class LocalSearch:
    """Outcome of one restart: the value ``fun`` at ``unitaries``.

    ``success`` is true when a stopping test ended the restart: a gradient
    norm below GRAD_TOL, a relative decrease below ``tol``, or a line search
    that stalls where the squared gradient norm is at most ``tol`` times the
    value.  It is false at ``max_iter`` and at stalls with a larger gradient.
    """

    fun: float
    unitaries: tuple
    grad_norm: float
    nfev: int
    nit: int
    success: bool


def minimize(objective, gradient, us, opts: OptimizerOptions) -> LocalSearch:
    """One restart: Riemannian Polak-Ribiere+ conjugate gradient on U(n) (x U(m)).

    Steps move along U -> U exp(i t D) with the direction D carried over
    unchanged in the Lie algebra.  The line search is Armijo backtracking.
    Its first trial step is the minimizer of the quadratic through the last
    two values and the current slope, capped at a rotation by 0.5 rad;
    each retry is the minimizer of the quadratic through the current value,
    slope and failed trial, kept within [0.1, 0.5] of the failed step.
    ``measure_correlations`` calls it through the module attribute, so a
    tracer bound there (``perfbench/spans.py``) sees every restart.
    """
    us = tuple(us)
    f = objective(*us)
    nfev, change = 1, None
    g = gradient(*us)
    gg = _inner(g, g)
    d = [-x for x in g]
    for it in range(opts.max_iter):
        if gg < GRAD_TOL * GRAD_TOL:
            return LocalSearch(f, us, math.sqrt(gg), nfev, it, True)
        slope = _inner(g, d)
        if slope >= 0.0:
            d, slope = [-x for x in g], -gg
        dnorm = math.sqrt(_inner(d, d))
        step = 0.5 / dnorm if change is None else min(0.5 / dnorm, 2.0 * change / slope)
        paths = [_exp_path(x) for x in d]
        backtracked = False
        while True:
            trial = tuple(u @ path(step) for u, path in zip(us, paths))
            f_trial = objective(*trial)
            nfev += 1
            if f_trial <= f + ARMIJO * step * slope:
                break
            backtracked = True
            curvature = f_trial - f - slope * step
            step = min(max(-0.5 * slope * step * step / curvature, 0.1 * step), 0.5 * step)
            if not step * dnorm >= MIN_ANGLE:
                # a stall: converged where the gradient promises less than the
                # decrease test's tol (roundoff near a smooth minimum), not at a
                # cusp, where a probability reaches 0 and p^q has an infinite slope
                flat = gg < GRAD_TOL * GRAD_TOL or gg <= opts.tol * abs(f)
                return LocalSearch(f, us, math.sqrt(gg), nfev, it + 1, flat)
        change, f, us = f_trial - f, f_trial, trial
        g_new = gradient(*us)
        gg_new = _inner(g_new, g_new)
        # a small decrease after backtracking reflects a poor trial step,
        # not a flat objective, so only a full first step can end the descent
        if not backtracked and -change <= opts.tol * abs(f):
            return LocalSearch(f, us, math.sqrt(gg_new), nfev, it + 1, True)
        beta = max(0.0, (gg_new - _inner(g_new, g)) / gg)
        d = [-x + beta * y for x, y in zip(g_new, d)]
        g, gg = g_new, gg_new
    return LocalSearch(f, us, math.sqrt(gg), nfev, opts.max_iter, gg < GRAD_TOL * GRAD_TOL)


def _eigenbasis(rho: DensityOperator, subsystem: int) -> np.ndarray:
    reduced = linalg.partial_trace(rho, [subsystem])
    return linalg.eig_hermitian(reduced)[1]


def measure_correlations(
    rho: DensityOperator,
    side: str,
    idx: EntropicIndices,
    opts: OptimizerOptions | None = None,
    warm_starts=(),
) -> CorrelationResult:
    """Minimize the local-measurement disturbance over bases on ``side``.

    Multistart Riemannian conjugate gradient over the local unitaries;
    deterministic given ``opts.seed``.  The starts are the eigenbases of the
    reduced states, then ``warm_starts`` (generator coefficients, already
    concatenated for side AB), then Haar-random unitaries.  Raises
    DimMismatch when a measured side has dimension 1.
    """
    if side not in measurement.SIDES:
        raise ValueError(f"side must be one of {measurement.SIDES}")
    opts = opts or OptimizerOptions()
    na, nb = _require_bipartite(rho)
    measured = [k for k, name in enumerate("AB") if name in side]
    dims = [(na, nb)[k] for k in measured]
    for k, n in zip(measured, dims):
        if n == 1:
            raise DimMismatch(f"side {'AB'[k]} has dimension 1; there is no basis to measure")
    t = rho.matrix.reshape(na, nb, na, nb)
    before = spectral_sum(linalg.spectrum(rho), idx)
    objective = _objective_factory(t, side, idx, before)
    gradient = _gradient_factory(t, side, idx, before)

    starts = [[_eigenbasis(rho, k) for k in measured]]
    cuts = np.cumsum([n * n - 1 for n in dims])[:-1]
    for extra in warm_starts:
        parts = np.split(np.asarray(extra, dtype=float), cuts)
        starts.append([_unitary_from_angles(x, n) for x, n in zip(parts, dims)])
    rng = np.random.default_rng(opts.seed)
    while len(starts) < opts.restarts:
        starts.append([linalg.haar_unitary(n, rng) for n in dims])

    runs = [minimize(objective, gradient, us, opts) for us in starts]
    best = min(runs, key=lambda r: r.fun)
    values = [r.fun for r in runs]
    angles = {f"angles_{name.lower()}": _angles_from_unitary(u) for name, u in zip(side, best.unitaries)}
    argmin = MeasurementParams(side, **angles)
    return CorrelationResult(
        value=float(best.fun),
        argmin=argmin,
        restarts_used=len(starts),
        iterations=sum(r.nit for r in runs),
        spread=float(max(values) - min(values)),
        converged=best.success,
        grad_norm=best.grad_norm,
        basin_hits=sum(v <= best.fun + BASIN_TOL for v in values),
        nfev=sum(r.nfev for r in runs),
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


def qubit_oracle(rho: DensityOperator, side: str) -> float:
    """Exact measure at (q, s) = (2, 1) when the measured side is a qubit.

    Writing rho = 1/2 sum_mu sigma_mu (x) R_mu (Pauli matrices on the
    measured qubit, sigma_0 = I) and M_ij = Re Tr(R_i R_j), the geometric
    discord is (Tr M - lambda_max(M)) / 2 for a partner of any dimension
    (Luo & Fu, PRA 82, 034302, 2010; Dakic, Vedral & Brukner, PRL 105,
    190502, 2010 for two qubits), and the measure is that over Tr rho^2.
    An oracle for checking the search, not a fast path.
    """
    if side not in ("A", "B"):
        raise ValueError("the qubit oracle covers sides A and B")
    na, nb = _require_bipartite(rho)
    if (na if side == "A" else nb) != 2:
        raise DimMismatch(f"side {side} must be a qubit, got dims {rho.dims}")
    t = rho.matrix.reshape(na, nb, na, nb)
    # R_i = Tr_A[(sigma_i (x) I) rho] for side A, the mirror image for side B
    spec = "xca,abcd->xbd" if side == "A" else "xdb,abcd->xac"
    r = np.einsum(spec, su_generators(2), t)
    m = np.real(np.einsum("xij,yji->xy", r, r))
    geometric = 0.5 * (np.trace(m) - np.linalg.eigvalsh(m)[-1])
    return float(geometric / np.real(np.vdot(rho.matrix, rho.matrix)))


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


def spectral_sums(spectra: dict, idx: EntropicIndices) -> dict:
    """The ``spectral_sum`` of each spectrum from ``measurement_pair_spectra``.

    The sums depend on the indices only through q, so one set serves every
    s at the same q.
    """
    return {key: spectral_sum(p, idx) for key, p in spectra.items()}


def contractivity_min_from_spectra(spectra: dict, idx: EntropicIndices, sums=None) -> float:
    """min over trials of D_A(rho) - P_B * D_A(post_B), from cached spectra.

    ``sums`` may carry the ``spectral_sums`` of the spectra at the same q;
    they are taken here otherwise.  The sums of ``before`` and ``after_b``
    serve both disturbances and P_B.  D_A(rho) hands numpy's ufunc to
    ``entropy_change``, while D_A(post_B) keeps the math-module default of
    the scalar ``disturbance_spectra``; the two differ in the last bit on
    about one input in ten, and each term keeps the one it has always used,
    so the ``qcorr fig1`` rows do not move in the last digit.
    """
    if sums is None:
        sums = spectral_sums(spectra, idx)
    before, after_b = sums["before"], sums["after_b"]
    d_a = entropy_change(sums["after_a"], before, idx, expm1=np.expm1)
    d_a_post_b = entropy_change(sums["after_ab"], after_b, idx)
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
