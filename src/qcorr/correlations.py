"""Quantum-correlation measures: disturbance minimized over local bases.

A measurement basis on an N-dimensional side is the column set of a unitary
in U(N).  ``measure_correlations`` searches U(N_A), U(N_B) or their product
by multistart Riemannian BFGS (a dense inverse-Hessian estimate per start,
Armijo line search): the disturbance has a closed-form gradient under
U -> U exp(iK), and each step moves along that exponential.  The starts are
the local eigenbases of the reduced states (the exact optimum for pure and
pseudopure states), any caller's warm starts, then Haar-random unitaries.
All starts descend in lockstep as one stack (``_lockstep``): one kernel
call per line-search round gives the pending rows' values and gradients
from one measured spectrum, and each exponential call covers all rows that
need it; a row's descent is its lone descent up to last bits.  A basis is
carried as its unitary throughout: the starts, the argmin and the warm
starts are ``LocalMeasurement``s, and ``qcorr measure`` prints the argmin's
unitary entries.

A basis is a unitary up to column phases: U -> U exp(iD), D diagonal,
leaves every projector and so the disturbance unchanged.  The search thus
runs on U(N)/U(1)^N, whose tangent directions are the zero-diagonal
Hermitian K = sum_j c_j B_j on the orthonormal basis B_j = G_j / sqrt 2 of
the N(N - 1) off-diagonal generators (``_tangent_basis``), with |c| = |K|_F.
Gradients, directions and BFGS pairs are real rows c, the sides side by side.

The result is an upper bound, not a certified global minimum.  Each result
carries its evidence: the spread and basin count over restarts, the
gradient norm at the argmin, and the evaluation count.  Two oracles check
it where the measured sides are qubits and the partner has any dimension:
a Bloch-grid search at any (q, s), and the closed form at (q, s) = (2, 1).
Outside the search, the grid oracle and the Delta diagnostics take every
measured spectrum from ``measurement._spectrum_side_a/b/ab``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, measurement
from .entropy import (
    EntropicIndices,
    entropy_change,
    purity_ratio_sums,
    spectral_slope,
    spectral_sum,
    unified_entropy_spectrum,
)
from .linalg import DensityOperator, DimMismatch, dag
from .measurement import (
    LocalMeasurement,
    ProjectiveBasis,
    _blocks_side_a,
    _flat_spectrum,
    _require_bipartite,
    _spectrum_side_a,
    _spectrum_side_ab,
    _spectrum_side_b,
    _swap_sides,
    disturbance,
    disturbance_spectra,
    purity_ratio,
    rescale_factor,
)


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
def _tangent_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """B_j = G_j / sqrt 2 over the off-diagonal ``su_generators(n)``, flattened (K = c @ B), and 2 B^* transposed."""
    basis = su_generators(n)[: n * (n - 1)].reshape(n * (n - 1), n * n) / math.sqrt(2.0)
    readout = np.ascontiguousarray(2.0 * basis.conj().T)
    for a in (basis, readout):
        a.setflags(write=False)
    return basis, readout


def _coordinates(x: np.ndarray) -> np.ndarray:
    """c_j = 2 Im Tr(B_j x), the coordinates of -i(x - x^dag), as one contiguous row per matrix of x."""
    n = x.shape[-1]
    return np.ascontiguousarray((x.reshape(len(x), n * n) @ _tangent_basis(n)[1]).imag)


# kept only for perfbench/spans.py, which binds it as correlations.decode
def _unitary_from_angles(angles: np.ndarray, n: int) -> np.ndarray:
    w, v = np.linalg.eigh(np.tensordot(np.asarray(angles, dtype=float), su_generators(n), 1))
    return (v * np.exp(1.0j * w)) @ v.conj().T


@dataclass(frozen=True)
class OptimizerOptions:
    """Search budget: ``restarts`` descents, each stopped by a test or at ``max_iter``.

    A descent stops when its Riemannian gradient norm falls below GRAD_TOL,
    when an iteration that took its first trial step lowers the value by no
    more than DECREASE_TOL times the value, when no step rotating the bases
    by more than MIN_ANGLE lowers it, or after ``max_iter`` iterations.
    Whichever stops it, it succeeds only at a stationary point
    (``LocalSearch.success``).  Raises ValueError for restarts < 1 or
    max_iter < 0.
    """

    restarts: int = 32
    seed: int = 0
    max_iter: int = 2000

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")


@dataclass(frozen=True, eq=False)
class CorrelationResult:
    """The minimized measure and the evidence behind it.

    ``spread`` is the range of the final values over all restarts and
    ``basin_hits`` the number of restarts ending within BASIN_TOL of the
    best.  ``converged`` and ``grad_norm`` describe the restart that gave
    ``value``: it ended at a stationary point (``LocalSearch.success``),
    with that Riemannian gradient norm.  ``iterations`` and ``nfev``
    (objective values) are totals over the restarts.  ``argmin`` is the
    measurement that gave ``value``.
    """

    value: float
    argmin: LocalMeasurement
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
DECREASE_TOL = 1e-10  # a full first step lowering the value by at most this fraction ends a descent
ARMIJO = 1e-4  # sufficient-decrease constant of the line search
MIN_ANGLE = 1e-12  # a trial step rotating the bases by less than this ends the search


def _objective_factory(t: np.ndarray, side: str, idx: EntropicIndices, before: float):
    """Disturbance and its Riemannian gradient at local bases given as unitaries.

    ``t`` is the state as an (N_A, N_B, N_A, N_B) tensor and ``before`` the
    spectral sum of its spectrum.  The returned ``evaluate`` takes one stack
    of unitaries (shape (R, n, n)) for side A or B and two for side AB, and
    returns one value per row and one real (R, sum n(n - 1)) gradient stack,
    both from one measured spectrum.  With W the state in the rotated
    product basis and F the matrix of the slopes in the measured eigenbasis
    (diagonal for side AB, block-diagonal over the outcomes for side A),
    the disturbance changes by Tr(K C), C = -i[W, F], under U -> U exp(iK)
    on side A; the gradient is the partial trace of C over B, which has no
    diagonal, read off as ``_coordinates`` of x = Tr_B(W F).  Side A takes
    one ``eigh`` of the conditional blocks (``measurement._blocks_side_a``),
    and side B is side A of the swapped tensor, built once here.  Side AB
    forms W and reads the outcome table from its diagonal, with side A's
    coordinates before side B's.
    """

    def measured(lam):
        value = entropy_change(spectral_sum(_flat_spectrum(lam, lam.shape[:-2]), idx), before, idx)
        return value, spectral_slope(lam, idx, before)

    def conditional(blocks):
        lam, vec = np.linalg.eigh(blocks)
        value, g = measured(lam)
        return value, (vec * g[..., None, :]) @ dag(vec)

    if side != "AB":
        if side == "B":
            t = np.ascontiguousarray(_swap_sides(t))

        def evaluate(u):
            value, f = conditional(_blocks_side_a(t, u))
            return value, _coordinates(dag(u) @ np.einsum("abce,...ck,...keb->...ak", t, u, f))
    else:
        na, nb = t.shape[:2]
        rho = t.reshape(na * nb, na * nb)

        def evaluate(ua, ub):
            # W = U^dag rho U for U = ua (x) ub, by two matmuls per row: its
            # diagonal is the outcome table, x_A[i, k] = sum_j W[ij, kj] g[k, j]
            # and x_B[j, l] = sum_i W[ij, il] g[i, l]
            u = np.einsum("...ai,...bj->...abij", ua, ub).reshape(ua.shape[:-2] + rho.shape)
            w = (dag(u) @ rho @ u).reshape(ua.shape[:-2] + (na, nb, na, nb))
            value, g = measured(np.einsum("...ijij->...ij", w).real)
            x_a = np.einsum("...ijkj,...kj->...ik", w, g)
            x_b = np.einsum("...ijil,...il->...jl", w, g)
            return value, np.concatenate([_coordinates(x_a), _coordinates(x_b)], axis=1)

    return evaluate


def _exp_path(u: np.ndarray, c: np.ndarray):
    """steps -> u exp(i step K), row by row, with K = c @ B on ``_tangent_basis``.

    ``u`` holds unitaries, ``c`` one direction per row and ``steps`` one
    step length per row.  Each K is diagonalized once, by one stacked
    ``eigh``, and every step reuses u times its eigenbasis: one matmul.
    """
    w, v = np.linalg.eigh((c @ _tangent_basis(u.shape[-1])[0]).reshape(u.shape))
    uv, vh, iw = u @ v, dag(v), 1j * w
    return lambda steps: (uv * np.exp(steps[:, None] * iw)[:, None, :]) @ vh


def _inner(x: np.ndarray, y: np.ndarray) -> list:
    """Tr(K_x K_y) over the sides, per row of two coordinate stacks, each from that row alone."""
    return np.einsum("ri,ri->r", x, y).tolist()


@dataclass(frozen=True, eq=False)
class LocalSearch:
    """Outcome of one restart: the value ``fun`` at ``unitaries``.

    ``success`` is stationarity at the end point, by one rule whichever test
    stopped the restart (gradient, decrease, stall or ``max_iter``): the
    gradient norm is below GRAD_TOL, or its square is at most DECREASE_TOL
    times |fun| (roundoff near a smooth minimum).  A decrease test or a stall
    at a cusp, where a measured probability reaches 0 and p^q has an
    infinite slope at q < 1, is not a success.
    """

    fun: float
    unitaries: tuple
    grad_norm: float
    nfev: int
    nit: int
    success: bool


def _bfgs_update(h: np.ndarray, scaled: np.ndarray, s: np.ndarray, y: np.ndarray):
    """BFGS update of the inverse-Hessian stack ``h`` by the steps s and gradient changes y.

    ``h`` is (R, m, m) on the coordinate rows s and y, m = sum n(n - 1), so
    it holds no phase direction, where the objective is flat.  ``scaled``
    marks the rows that have an inverse Hessian; the others hold the
    identity.  A row is updated when s.y > 1e-12 |s| |y| (a curvature pair
    the Armijo step alone does not guarantee) and keeps its h otherwise.
    At a row's first update h is scaled to (s.y / y.y) I before the update
    (Nocedal & Wright, eq. 6.20).
    The update H - rho (s Hy' + Hy s') + (rho^2 y'Hy + rho) s s', rho = 1 / s.y,
    is taken as H + s w' + w s' with w = rho ((1 + rho y'Hy) s / 2 - Hy), so
    H stays exactly symmetric.  Each row is computed from that row alone.
    Returns the new stack and mask; ``h`` is updated in place.
    """
    sy, yy, ss = (np.einsum("ri,ri->r", a, b) for a, b in ((s, y), (y, y), (s, s)))
    ok = sy > 1e-12 * np.sqrt(ss * yy)
    first = ok & ~scaled
    if first.any():  # once per row, so mostly skipped
        h[first] *= (sy[first] / yy[first])[:, None, None]
    hs, s, y, rho = h[ok], s[ok], y[ok], 1.0 / sy[ok]
    hy = (hs @ y[:, :, None])[:, :, 0]
    c = 0.5 * (1.0 + rho * np.einsum("ri,ri->r", y, hy))
    sw = s[:, :, None] * (rho[:, None] * (c[:, None] * s - hy))[:, None, :]
    h[ok] = hs + (sw + sw.transpose(0, 2, 1))
    return h, scaled | ok


def _bfgs_direction(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """-H g row by row: the quasi-Newton direction for the coordinate gradient stack g."""
    return -(h @ g[:, :, None])[:, :, 0]


def _lockstep(evaluate, us, opts: OptimizerOptions) -> list[LocalSearch]:
    """Riemannian BFGS on U(n) (x U(m)), one descent per row.

    ``evaluate`` is an ``_objective_factory`` function.  ``us`` holds one
    stack of unitaries per side; row r of the stacks is start r, and the
    r-th LocalSearch returned is its descent.  Steps move along
    U -> U exp(i t D), with D = -H g for the gradient g and an
    inverse-Hessian estimate H (``_bfgs_update``), all on the coordinates of
    ``_tangent_basis``, one row over all sides.  The gradient has no phase
    part, and BFGS from a multiple of I never gains one, so leaving the
    phases out moves no iterate in exact arithmetic.  Steps s = t D and
    gradient changes y are carried over unchanged in the Lie algebra
    (Huang, Gallivan & Absil, SIAM J. Optim. 25, 1660, 2015).  Until a row
    has its first curvature pair, H is the identity and its first trial step
    rotates the bases by 0.5 rad (|D| = |K|_F); after that the first trial
    is the unit step, capped at that rotation.  The line search is Armijo backtracking;
    each retry is the minimizer of the quadratic through the current value,
    slope and failed trial, kept within [0.1, 0.5] of the failed step.

    The rows descend in lockstep.  Each line-search round makes one stacked
    ``evaluate`` call on the rows whose trial is pending, which gives their
    values and their gradients together, so an accepted trial already has
    its gradient; a rejected trial pays for one it does not use.  Every row
    keeps its own step, slope, inverse Hessian and stopping state under the
    rules of a lone descent.  Each iteration first settles, in this order,
    the rows whose gradient norm is below GRAD_TOL, whose last full first
    step lowered the value by at most DECREASE_TOL of it, or that ran
    ``max_iter`` iterations, and trims them off the stack together with the
    rows whose line search stalled; the last pass only settles.  numpy's 2-D
    matmuls take another path for a one-row stack, so a row can differ from
    its lone descent in the last bits, and then also in ``nit``.
    """
    f, g = evaluate(*us)
    f = f.tolist()
    gg = _inner(g, g)
    d = -g
    h = np.tile(np.eye(g.shape[1]), (len(f), 1, 1))
    ends = np.cumsum([u.shape[-1] * (u.shape[-1] - 1) for u in us]).tolist()
    parts = [slice(lo, hi) for lo, hi in zip([0] + ends, ends)]
    scaled = np.zeros(len(f), dtype=bool)  # the rows whose h is an inverse Hessian
    rows = list(range(len(f)))  # the start each live row descends from
    nfev = [1] * len(f)
    decreased = [False] * len(f)  # the row's last full first step met the decrease test
    out = [None] * len(f)
    ended = set()  # live rows settled since the stack was last trimmed

    def settle(k, nit):  # success is stationarity, by one rule at every stop
        success = gg[k] < GRAD_TOL * GRAD_TOL or gg[k] <= DECREASE_TOL * abs(f[k])
        out[rows[k]] = LocalSearch(f[k], tuple(u[k] for u in us), math.sqrt(gg[k]), nfev[k], nit, success)
        ended.add(k)

    for it in range(opts.max_iter + 1):
        for k in range(len(rows)):  # the rows in ended stalled in the last line search
            if k not in ended and (gg[k] < GRAD_TOL * GRAD_TOL or decreased[k] or it == opts.max_iter):
                settle(k, it)
        if ended:  # the stack loses the rows that ended
            keep = [k for k in range(len(rows)) if k not in ended]
            ended.clear()
            us, g, d, h, scaled = tuple(u[keep] for u in us), g[keep], d[keep], h[keep], scaled[keep]
            f, gg, nfev, rows, decreased = ([c[k] for k in keep] for c in (f, gg, nfev, rows, decreased))
        if not rows:
            break
        slope, dd = _inner(d, g), _inner(d, d)
        step = []
        for k, (s, unit) in enumerate(zip(slope, scaled.tolist())):
            if s >= 0.0:  # not a descent direction: restart along -g
                d[k] = -g[k]
                slope[k] = s = -gg[k]
                dd[k] = gg[k]
            cap = 0.5 / math.sqrt(dd[k])
            step.append(min(1.0, cap) if unit else cap)
        paths = [_exp_path(u, d[:, part]) for u, part in zip(us, parts)]
        backtracked = [False] * len(rows)
        f_trial = [0.0] * len(rows)
        g_new = np.empty_like(g)
        pending = list(range(len(rows)))
        while pending:
            # every row moves by its current step and the pending rows are
            # evaluated; the others repeat the point they already accepted
            steps = np.array(step)
            trial = tuple(path(steps) for path in paths)
            values, grads = evaluate(*(x.take(pending, axis=0) for x in trial))
            g_new[pending] = grads
            retry = []
            for k, value in zip(pending, values.tolist()):
                nfev[k] += 1
                f_trial[k] = value
                if value <= f[k] + ARMIJO * step[k] * slope[k]:
                    continue
                backtracked[k] = True
                curvature = value - f[k] - slope[k] * step[k]
                retry_step = -0.5 * slope[k] * step[k] * step[k] / curvature
                step[k] = min(max(retry_step, 0.1 * step[k]), 0.5 * step[k])
                if step[k] * math.sqrt(dd[k]) >= MIN_ANGLE:
                    retry.append(k)
                else:  # a stall
                    settle(k, it + 1)
            pending = retry

        # a small decrease after backtracking reflects a poor trial step, not
        # a flat objective, so only a full first step can end the descent
        decreased = [not back and f0 - f1 <= DECREASE_TOL * abs(f1) for f0, f1, back in zip(f, f_trial, backtracked)]
        us, f = trial, f_trial
        h, scaled = _bfgs_update(h, scaled, np.array(step)[:, None] * d, g_new - g)
        g, gg = g_new, _inner(g_new, g_new)
        d = _bfgs_direction(h, g)
    return out


def minimize(evaluate, us, opts: OptimizerOptions) -> LocalSearch:
    """One descent from the start ``us`` (one unitary per side).

    ``_lockstep`` on a stack of one row, so the same loop as every search.
    ``measure_correlations`` passes all its starts to ``_lockstep`` at once
    and does not call this.
    """
    return _lockstep(evaluate, tuple(np.asarray(u)[None] for u in us), opts)[0]


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

    Multistart Riemannian BFGS over the local unitaries, all restarts in one
    lockstep descent; deterministic given ``opts.seed``.  The starts are the
    eigenbases of the reduced states, then ``warm_starts``
    (``LocalMeasurement``s on ``side``), then Haar-random unitaries, all
    drawn from one ``default_rng(opts.seed)`` batch.  The result's
    ``argmin`` is the ``LocalMeasurement`` that gave its value.  Raises
    DimMismatch when a measured side has dimension 1 or a warm start's basis
    has the wrong dimension, and ValueError for a warm start on another side.
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
    evaluate = _objective_factory(t, side, idx, before)

    starts = [[_eigenbasis(rho, k) for k in measured]]
    for m in warm_starts:
        if m.side != side:
            raise ValueError(f"a side-{side} search needs side-{side} warm starts, got side {m.side}")
        measurement._check_measurement_dims(rho, m)
        starts.append([getattr(m, f"basis_{name.lower()}").unitary for name in side])
    stacks = [np.array(side_us) for side_us in zip(*starts)]
    haar = opts.restarts - len(starts)
    if haar > 0:
        drawn = linalg.haar_batch(np.random.default_rng(opts.seed), haar, dims)
        stacks = [np.concatenate([s, u]) for s, u in zip(stacks, drawn)]

    runs = _lockstep(evaluate, tuple(stacks), opts)
    best = min(runs, key=lambda r: r.fun)
    values = [r.fun for r in runs]
    bases = {f"basis_{name.lower()}": ProjectiveBasis(u) for name, u in zip(side, best.unitaries)}
    return CorrelationResult(
        value=float(best.fun),
        argmin=LocalMeasurement(side, **bases),
        restarts_used=len(runs),
        iterations=sum(r.nit for r in runs),
        spread=float(max(values) - min(values)),
        converged=best.success,
        grad_norm=best.grad_norm,
        basin_hits=sum(v <= best.fun + BASIN_TOL for v in values),
        nfev=sum(r.nfev for r in runs),
    )


# ---------------------------------------------------------------------------
# brute-force oracle for measured qubits
# ---------------------------------------------------------------------------

GRID_CHUNK = 1 << 14  # grid points (side AB: basis pairs) per value-kernel call


def _bloch_unitaries(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Qubit bases at all (theta, phi) grid points, as a stack of unitaries.

    Column 0 is the Bloch vector (theta, phi), column 1 its antipode.
    """
    th, ph = (x.ravel() for x in np.meshgrid(thetas, phis, indexing="ij"))
    c, s, e = np.cos(th / 2), np.sin(th / 2), np.exp(1j * ph)
    return np.stack([np.stack([c, -s * e.conj()], -1), np.stack([s * e, c], -1)], -2)


def _grid_axes(n_theta: int, n_phi: int, window=(0.0, math.pi, 0.0, 2.0 * math.pi)):
    """Cell-centered grid over the sphere, or over a refinement window."""
    t_lo, t_hi, p_lo, p_hi = window
    thetas = t_lo + (np.arange(n_theta) + 0.5) * (t_hi - t_lo) / n_theta
    phis = p_lo + (np.arange(n_phi) + 0.5) * (p_hi - p_lo) / n_phi
    return thetas, phis


def _window_around(thetas, phis, flat_index):
    it, ip = divmod(int(flat_index), phis.size)
    dt = thetas[1] - thetas[0] if thetas.size > 1 else math.pi
    dp = phis[1] - phis[0] if phis.size > 1 else 2.0 * math.pi
    return max(thetas[it] - dt, 0.0), min(thetas[it] + dt, math.pi), phis[ip] - dp, phis[ip] + dp


def grid_oracle_qubit(
    rho: DensityOperator,
    side: str,
    idx: EntropicIndices,
    resolution: tuple[int, int] = (64, 128),
) -> float:
    """Brute-force disturbance minimum over Bloch-angle grids of the measured qubits.

    Every measured side must be a qubit (DimMismatch otherwise); the partner
    may have any dimension.  Values come from ``measurement._spectrum_side_*``
    on stacks of grid bases (side AB: every pair), and the grid is refined
    once around the best cell, so the result upper-bounds the minimum.  Side
    AB takes a quarter of the per-sphere resolution to keep the product grid
    tractable.  Raises ValueError for a resolution entry below 1.
    """
    if side not in measurement.SIDES:
        raise ValueError(f"side must be one of {measurement.SIDES}")
    if min(resolution) < 1:
        raise ValueError(f"resolution entries must be >= 1, got {resolution}")
    na, nb = _require_bipartite(rho)
    if any((na, nb)["AB".index(name)] != 2 for name in side):
        raise DimMismatch(f"side {side} must measure qubits only, got dims {rho.dims}")
    n_theta, n_phi = resolution
    if side == "AB":
        n_theta, n_phi = max(n_theta // 4, 8), max(n_phi // 4, 16)
    kernel = {"A": _spectrum_side_a, "B": _spectrum_side_b, "AB": _spectrum_side_ab}[side]
    before = linalg.spectrum(rho)
    t = rho.matrix.reshape(na, nb, na, nb)

    def values(axes):
        # every combination of the measured sides' grid bases, GRID_CHUNK at a time
        us = [_bloch_unitaries(*a) for a in axes]
        shape = tuple(len(u) for u in us)
        points = np.indices(shape).reshape(len(us), -1)
        return np.concatenate([
            disturbance_spectra(before, kernel(t, *(u[k[lo:lo + GRID_CHUNK]] for u, k in zip(us, points))), idx)
            for lo in range(0, points.shape[1], GRID_CHUNK)
        ]).reshape(shape)

    axes = [_grid_axes(n_theta, n_phi)] * len(side)
    coarse = values(axes)
    cells = np.unravel_index(coarse.argmin(), coarse.shape)
    axes = [_grid_axes(n_theta, n_phi, _window_around(*a, c)) for a, c in zip(axes, cells)]
    return min(float(coarse.min()), float(values(axes).min()))


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
    # R_i = Tr_A[(sigma_i (x) I) rho]; side B is side A of the swapped tensor
    r = np.einsum("xca,abcd->xbd", su_generators(2), t if side == "A" else _swap_sides(t))
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
    """D_AB(pair) - P_B * D_A(post_B) - P_A * D_B(post_A) for one basis pair.

    Measuring A after B, or B after A, leaves the bilocal spectrum, so each
    term is an ``entropy_change`` between two of the pair's spectral sums.
    """
    sums = spectral_sums(_pair_spectra(rho, basis_a.unitary, basis_b.unitary), idx)
    value = entropy_change(sums["after_ab"], sums["before"], idx)
    for first in ("after_b", "after_a"):
        ratio = purity_ratio_sums(sums[first], sums["before"], idx)
        value -= ratio * entropy_change(sums["after_ab"], sums[first], idx)
    return float(value)


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
    basis_a1, basis_b1 = res_a.argmin.basis_a, res_b.argmin.basis_b
    warm = LocalMeasurement("AB", basis_a1, basis_b1)
    res_ab = measure_correlations(rho, "AB", idx, opts, warm_starts=(warm,))
    delta1 = _delta(rho, basis_a1, basis_b1, idx)
    delta0 = _delta(rho, res_ab.argmin.basis_a, res_ab.argmin.basis_b, idx)

    m_a, m_b, m_ab = res_a.value, res_b.value, res_ab.value
    triangle_holds = m_a + m_b >= m_ab - 1e-8
    dadb_holds = (m_ab + delta0 >= m_a + m_b - 1e-8) and (
        m_a + m_b >= m_ab + delta1 - 1e-8
    )
    return TriangleReport(m_a, m_b, m_ab, delta0, delta1, triangle_holds, dadb_holds)


def _pair_spectra(rho: DensityOperator, ua: np.ndarray, ub: np.ndarray) -> dict:
    """Spectra of rho and after measuring A in ua, B in ub, and both.

    ``ua`` and ``ub`` are one unitary per side or stacks of them with the
    same leading axes; the input spectrum is shared.
    """
    na, nb = _require_bipartite(rho)
    t = rho.matrix.reshape(na, nb, na, nb)
    return {
        "before": linalg.spectrum(rho),
        "after_a": _spectrum_side_a(t, ua),
        "after_b": _spectrum_side_b(t, ub),
        "after_ab": _spectrum_side_ab(t, ua, ub),
    }


def measurement_pair_spectra(rho: DensityOperator, trials: int, seed) -> dict:
    """Post-measurement spectra for Haar-random local measurement pairs.

    Returns the shared input spectrum and, per trial, the spectra after the
    A measurement, the B measurement, and both (``_pair_spectra``).  These
    depend only on the state and the drawn bases, so one batch serves every
    entropic index.  The bases come from one ``linalg.haar_batch`` over
    (N_A, N_B), so they equal a per-trial loop alternating
    ``haar_unitary(na)`` and ``haar_unitary(nb)`` bit for bit, and one
    stacked spectrum call per side replaces that loop.
    """
    na, nb = _require_bipartite(rho)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return _pair_spectra(rho, *linalg.haar_batch(np.random.default_rng(seed), trials, (na, nb)))


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
    p_b = purity_ratio_sums(after_b, before, idx)
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
