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
from one cut measured spectrum (``entropy.renyi_change_and_slope``), or at
q = 2 and 3 on side A or B from a polynomial in the conditional blocks, and
each exponential call covers all rows that need it, in closed form on a
measured qubit; every row is its start's lone descent, bit for bit.  A basis
is carried as its unitary throughout: the starts, the argmin and the warm
starts are ``LocalMeasurement``s, and ``qcorr measure`` prints the argmin's entries.

A basis is a unitary up to column phases: U -> U exp(iD), D diagonal,
leaves every projector and so the disturbance unchanged.  The search thus
runs on U(N)/U(1)^N, whose tangent directions are the zero-diagonal
Hermitian K = sum_j c_j B_j on the orthonormal basis B_j = G_j / sqrt 2 of
the N(N - 1) off-diagonal generators (``_tangent_basis``), with |c| = |K|_F.
Gradients, directions and BFGS pairs are real rows c, the sides side by side.

The result is an upper bound, not a certified global minimum.  Each result
carries its evidence: the spread and basin count over restarts, the
gradient norm at the argmin, and the evaluation count.  ``qubit_oracle``
checks it exactly at q = 2 on measured qubits (side A or B with a partner of
any dimension, side AB of two qubits).  The Delta diagnostics take every
measured spectrum from ``measurement._spectrum_side_a/b/ab``; both are
D_A + D_B - D_AB from ``contractivity_min_from_spectra`` on one pair, whose
least value over Haar pairs is ``qcorr fig1``'s ``min_difference``.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import linalg, measurement
from .entropy import (
    EntropicIndices,
    entropy_change,
    min_difference,
    purity_ratio_sums,
    renyi_change_and_slope,
    spectral_sum,
    unified_entropy_spectrum,  # unused here; the benchmark's tracer wraps it under this module
    unified_from_renyi,
)
from .linalg import DensityOperator, DimMismatch, dag
from .measurement import (
    LocalMeasurement,
    ProjectiveBasis,
    _blocks_side_a,
    _flat_spectrum,
    _spectrum_side_a,
    _spectrum_side_ab,
    _spectrum_side_b,
    _swap_sides,
    _tensor,
    check_side,
    disturbance_spectra,
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
    return np.ascontiguousarray((x.reshape(len(x), 1, n * n) @ _tangent_basis(n)[1])[:, 0].imag)


# kept only for perfbench/spans.py, which binds it as correlations.decode
def _unitary_from_angles(angles: np.ndarray, n: int) -> np.ndarray:
    w, v = np.linalg.eigh(np.tensordot(np.asarray(angles, dtype=float), su_generators(n), 1))
    return (v * np.exp(1.0j * w)) @ v.conj().T


@linalg.validated
class OptimizerOptions(NamedTuple):
    """Search budget: at least ``restarts`` descents, each stopped by a test or at ``max_iter``.

    The eigenbasis start and every warm start of ``measure_correlations`` always run, and Haar starts fill
    up to ``restarts``: max(restarts, 1 + warm starts) descents in all.  A descent stops when its Riemannian
    gradient norm falls below GRAD_TOL, when an iteration that took its first trial step lowers the value by
    no more than DECREASE_TOL times the value, when no step rotating the bases by more than MIN_ANGLE lowers
    it, or after ``max_iter`` iterations.  Whichever stops it, it succeeds only at a stationary point
    (``LocalSearch.success``).  Raises ValueError, naming the field, unless each field is an integer and
    restarts >= 1, seed >= 0 and max_iter >= 0.
    """

    restarts: int = 32
    seed: int = 0
    max_iter: int = 2000

    def _check(self):
        for name, low in (("restarts", 1), ("seed", 0), ("max_iter", 0)):
            value = getattr(self, name)
            if not linalg.is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")


class CorrelationResult(NamedTuple):
    """The minimized measure and the evidence behind it.

    ``spread`` is the range of the restarts' Renyi values mapped to (q, s),
    and ``basin_hits`` the number of them within BASIN_TOL of the best.
    ``converged`` and ``grad_norm`` describe the restart that gave ``value``:
    its Renyi search ended at a stationary point (``LocalSearch.success``,
    on the roundoff scale of R_q(rho), so an exact minimum 0 is one),
    where ``value`` has that Riemannian gradient norm.  ``iterations`` and ``nfev``
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


class TriangleReport(NamedTuple):
    """The three minimized measures, Delta_0 and Delta_1, and the relations ``qcorr triangle-scan`` flags.

    Delta_0 and Delta_1 are D_A + D_B - D_AB at the bilocal argmin (Pi*_A, Pi*_B) and at
    the unilocal argmins (Pi_A*, Pi_B*), each ``contractivity_min_from_spectra`` on one pair.
    ``triangle_holds``: m_a + m_b >= m_ab.  ``sandwich_holds``: m_ab + Delta_0 >= m_a + m_b
    >= m_ab + Delta_1, whose halves are, up to roundoff, the minimality checks
    D_A(Pi*_A) + D_B(Pi*_B) >= m_a + m_b and D_AB(Pi_A*, Pi_B*) >= m_ab.
    ``ordering_holds``: m_ab >= max(m_a, m_b).  Each flag allows 1e-8 of roundoff.
    """

    m_a: float
    m_b: float
    m_ab: float
    delta0: float
    delta1: float
    triangle_holds: bool
    sandwich_holds: bool
    ordering_holds: bool


GRAD_TOL = 1e-9  # a descent stops once its Riemannian gradient norm is below this
BASIN_TOL = 1e-9  # restarts ending this close to the best value count as basin hits
DECREASE_TOL = 1e-10  # a full first step lowering the value by at most this fraction ends a descent
ARMIJO = 1e-4  # sufficient-decrease constant of the line search
MIN_ANGLE = 1e-12  # a trial step rotating the bases by less than this ends the search
MAX_ANGLE = 1.0  # a first trial step rotates the bases by at most this (rad)


def _objective_factory(t: np.ndarray, side: str, q: float, before: float):
    """The Renyi measure R_q and its Riemannian gradient at local bases given as unitaries.

    R_q (von Neumann at q = 1) maps to every s by ``unified_from_renyi``.
    ``t`` is the state as an (N_A, N_B, N_A, N_B) tensor and ``before`` the
    spectral sum of its spectrum at q.  The returned ``evaluate`` takes one
    stack of unitaries (shape (R, n, n)) for side A or B and two for side AB,
    and returns one value per row and one real (R, sum n(n - 1)) gradient
    stack, both from one pass of ``renyi_change_and_slope`` over one measured
    spectrum cut by ``_flat_spectrum``, or, at q = 2 and 3 on side A or B, from
    the conditional blocks by ``measurement._block_power_trace``, with no
    ``eigh``.  With W the state in the rotated product basis and F the matrix
    of the slopes (diagonal for side AB, block-diagonal over the outcomes for
    side A), the disturbance changes by Tr(K C), C = -i[W, F], under
    U -> U exp(iK) on side A; the gradient is the partial trace of C over B, which has
    no diagonal, read off as ``_coordinates`` of x = Tr_B(W F).  Side B is side
    A of the swapped tensor, built once here.  Side AB forms W and reads the
    outcome table from its diagonal, A's coordinates first.
    """
    idx = EntropicIndices(q, 0.0)

    def conditional(blocks):
        if traced := measurement._block_power_trace(blocks, q):
            return (np.log(traced[0]) - before) / (1.0 - q), traced[1]
        lam, vec = np.linalg.eigh(blocks)
        value, g = renyi_change_and_slope(_flat_spectrum(lam), before, idx)
        return value, (vec * g.reshape(lam.shape)[..., None, :]) @ dag(vec)

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
            table = np.einsum("...ijij->...ij", w).real
            value, g = renyi_change_and_slope(_flat_spectrum(table), before, idx)
            g = g.reshape(table.shape)
            x_a = np.einsum("...ijkj,...kj->...ik", w, g)
            x_b = np.einsum("...ijil,...il->...jl", w, g)
            return value, np.concatenate([_coordinates(x_a), _coordinates(x_b)], axis=1)

    return evaluate


def _exp_path(u: np.ndarray, c: np.ndarray):
    """steps -> u exp(i step K), row by row, with K = c @ B on ``_tangent_basis``.

    ``u`` holds unitaries, ``c`` one direction per row and ``steps`` one step length per row.  A qubit's
    K^2 = r^2 I, r = |c| / sqrt 2, gives u exp(i t K) = cos(t r) u + sin(t r) i u K / r: one matmul per
    path, and a row with r = 0 stays at u.  For n >= 3 each K is diagonalized once, by one stacked
    ``eigh``, and every step reuses u times its eigenbasis: one matmul.
    """
    k = (c[:, None] @ _tangent_basis(u.shape[-1])[0])[:, 0].reshape(u.shape)
    if u.shape[-1] == 2:
        r = np.hypot(c[:, 0], c[:, 1]) / math.sqrt(2.0)
        iuk = 1j * (u @ k) / np.where(r > 0.0, r, 1.0)[:, None, None]
        return lambda steps: np.cos(angle := (steps * r)[:, None, None]) * u + np.sin(angle) * iuk
    w, v = np.linalg.eigh(k)
    uv, vh, iw = u @ v, dag(v), 1j * w
    return lambda steps: (uv * np.exp(steps[:, None] * iw)[:, None, :]) @ vh


def _inner(x, y) -> list:
    """Tr(K_x K_y) over the sides, per row of two coordinate stacks (or two sequences of them), each from that row alone."""
    return np.einsum("...ri,...ri->...r", x, y).tolist()


class LocalSearch(NamedTuple):
    """Outcome of one restart: ``fun`` at ``unitaries``, on the scale of the stopping tests (Renyi in ``measure_correlations``).

    ``success`` is stationarity at the end point, by one rule whichever test
    stopped the restart (gradient, decrease, stall or ``max_iter``): the
    gradient norm is below GRAD_TOL, or its square is at most DECREASE_TOL
    times |fun| + ``_lockstep``'s ``entropy``, the entropy ``fun`` is a change
    from (R_q(rho) in ``measure_correlations``, else 0): roundoff near a
    smooth minimum scales with the entropies, not with their difference, so
    an exact minimum 0 passes too.  A decrease test or a stall
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


def _lockstep(evaluate, us, opts: OptimizerOptions, entropy: float = 0.0) -> list[LocalSearch]:
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
    rotates the bases by MAX_ANGLE = 1 rad (|D| = |K|_F); after that the first
    trial is the unit step, capped at that rotation.  The line search is Armijo backtracking;
    each retry is the minimizer of the quadratic through the current value,
    slope and failed trial, kept within [0.1, 0.5] of the failed step.

    The rows descend in lockstep, and row r is start r from the first
    iteration to the last.  Each line-search round makes one stacked
    ``evaluate`` call on the rows whose trial is pending, which gives their
    values and their gradients together, so an accepted trial already has
    its gradient; a rejected trial pays for one it does not use.  Every row
    keeps its own step, slope, inverse Hessian and stopping state under the
    rules of a lone descent.  A row whose line search stalls gets back the
    point, value and gradient it had before its failed trials.  Every stop
    is settled at one site, the top of each iteration: the rows whose
    gradient norm is below GRAD_TOL, whose last line search stalled or whose
    last full first step lowered the value by at most DECREASE_TOL of it, or
    that ran ``max_iter`` iterations; the last pass only settles.  Success
    is judged there on the scale |f| + ``entropy`` (``LocalSearch``).  An ended
    row keeps its place with a zero gradient and direction, so it takes no
    step, is never evaluated and gets no BFGS update.  Each kernel computes
    a row from that row's data alone, so row r is the lone descent from
    start r in every field, whatever else the stack holds.
    """
    f, g = evaluate(*us)
    f = f.tolist()
    d = -g
    h = np.tile(np.eye(g.shape[1]), (len(f), 1, 1))
    ends = np.cumsum([u.shape[-1] * (u.shape[-1] - 1) for u in us]).tolist()
    parts = [slice(lo, hi) for lo, hi in zip([0] + ends, ends)]
    scaled = np.zeros(len(f), dtype=bool)  # the rows whose h is an inverse Hessian
    nfev = [1] * len(f)
    stop = [False] * len(f)  # the row's last iteration stalled, or its full first step met the decrease test
    out = [None] * len(f)
    for it in range(opts.max_iter + 1):
        gg, slope, dd = _inner((g, d, d), (g, g, d))  # |g|^2, the slope and |d|^2, in one call
        for k in range(len(f)):
            if out[k] is None and (gg[k] < GRAD_TOL * GRAD_TOL or stop[k] or it == opts.max_iter):
                success = gg[k] < GRAD_TOL * GRAD_TOL or gg[k] <= DECREASE_TOL * (abs(f[k]) + entropy)
                out[k] = LocalSearch(f[k], tuple(u[k] for u in us), math.sqrt(gg[k]), nfev[k], it, success)
                g[k] = d[k] = 0.0
        pending = [k for k, run in enumerate(out) if run is None]
        if not pending:
            break
        step, unit = [0.0] * len(f), scaled.tolist()
        for k in pending:
            if slope[k] >= 0.0:  # not a descent direction: restart along -g
                d[k] = -g[k]
                slope[k] = -gg[k]
                dd[k] = gg[k]
            cap = MAX_ANGLE / math.sqrt(dd[k])
            step[k] = min(1.0, cap) if unit[k] else cap
        paths = [_exp_path(u, d[:, part]) for u, part in zip(us, parts)]
        backtracked = [False] * len(f)
        f_trial, g_new, stalled = list(f), g.copy(), []
        while pending:
            # every row moves by its current step and the pending rows are
            # evaluated; the others repeat the point they already accepted
            steps = np.array(step)
            trial = tuple(path(steps) for path in paths)
            values, grads = evaluate(*(x if len(pending) == len(f) else x.take(pending, axis=0) for x in trial))
            g_new[pending] = grads
            retry = []
            for k, value in zip(pending, values.tolist()):
                nfev[k] += 1
                if value <= f[k] + ARMIJO * step[k] * slope[k]:
                    f_trial[k] = value
                    continue
                backtracked[k] = True
                curvature = value - f[k] - slope[k] * step[k]
                retry_step = -0.5 * slope[k] * step[k] * step[k] / curvature
                step[k] = min(max(retry_step, 0.1 * step[k]), 0.5 * step[k])
                if step[k] * math.sqrt(dd[k]) >= MIN_ANGLE:
                    retry.append(k)
                else:  # a stall
                    stalled.append(k)
            pending = retry

        # a small decrease after backtracking reflects a poor trial step, not
        # a flat objective, so only a full first step can end the descent
        stop = [not back and f0 - f1 <= DECREASE_TOL * abs(f1) for f0, f1, back in zip(f, f_trial, backtracked)]
        if stalled:  # back to the point and gradient before the failed trials, to be settled next
            for x, u in zip(trial, us):
                x[stalled] = u[stalled]
            g_new[stalled] = g[stalled]
            for k in stalled:
                stop[k] = True
        us, f = trial, f_trial
        h, scaled = _bfgs_update(h, scaled, np.array(step)[:, None] * d, g_new - g)
        g, d = g_new, _bfgs_direction(h, g_new)
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
    reduced states' eigenbases, then ``warm_starts`` (``LocalMeasurement``s on
    ``side``), then Haar-random unitaries from one ``default_rng(opts.seed)``
    batch up to ``opts.restarts`` starts: max(restarts, 1 + len(warm_starts))
    descents.  The result's ``argmin`` is the ``LocalMeasurement`` that gave its
    value.  Raises DimMismatch when a measured side has dimension 1 or a warm
    start's basis has the wrong dimension, and ValueError for one on another side.
    """
    check_side(side)
    opts = opts or OptimizerOptions()
    t = _tensor(rho)
    measured = ["AB".index(name) for name in side]
    dims = [t.shape[k] for k in measured]
    if 1 in dims:
        raise DimMismatch(f"side {side[dims.index(1)]} has dimension 1; there is no basis to measure")
    before = spectral_sum(linalg.spectrum(rho), idx)
    evaluate = _objective_factory(t, side, idx.q, before)

    starts = [[_eigenbasis(rho, k) for k in measured]]
    for m in warm_starts:
        if m.side != side:
            raise ValueError(f"a side-{side} search needs side-{side} warm starts, got side {m.side}")
        measurement._measured_tensor(rho, m)
        starts.append(m.unitaries)
    stacks = [np.array(side_us) for side_us in zip(*starts)]
    haar = opts.restarts - len(starts)
    if haar > 0:
        drawn = linalg.haar_batch(np.random.default_rng(opts.seed), haar, dims)
        stacks = [np.concatenate([s, u]) for s, u in zip(stacks, drawn)]

    entropy = entropy_change(before, 0.0, EntropicIndices(idx.q, 0.0))  # R_q(rho), the scale of LocalSearch.success
    runs = _lockstep(evaluate, tuple(stacks), opts, entropy)
    values = unified_from_renyi(np.array([r.fun for r in runs]), idx).tolist()
    best, value = min(zip(runs, values), key=lambda pair: pair[1])
    bases = {f"basis_{name.lower()}": ProjectiveBasis(u) for name, u in zip(side, best.unitaries)}
    return CorrelationResult(
        value=value,
        argmin=LocalMeasurement(side, **bases),
        restarts_used=len(runs),
        iterations=sum(r.nit for r in runs),
        spread=max(values) - value,
        converged=best.success,
        grad_norm=best.grad_norm * float(purity_ratio_sums((1.0 - idx.q) * best.fun, 0.0, idx)),
        basin_hits=sum(v <= value + BASIN_TOL for v in values),
        nfev=sum(r.nfev for r in runs),
    )


# ---------------------------------------------------------------------------
# exact oracle for measured qubits at q = 2
# ---------------------------------------------------------------------------

def _bloch_pair_max(x: np.ndarray, y: np.ndarray, t: np.ndarray) -> float:
    """max over unit n, m of f = (x.n)^2 + (y.m)^2 + (n^T t m)^2.

    Every cell centre of a 6 x 12 (theta, phi) grid of n starts, as a narrow
    peak can sit between the best cells: 20 rounds of exact block maximizations
    (linear convergence), then 4 Riemannian Newton steps on S^2 x S^2, the
    Hessian shifted by -1e-12 to keep a degenerate maximum solvable.
    """
    def top(a, w, old):  # top eigenvector of a a^T + w w^T per row of w, via the Gram of (a, w); old where it is 0
        half = 0.5 * np.arctan2(2.0 * (w @ a), a @ a - np.sum(w * w, 1))
        v = np.cos(half)[:, None] * a + np.sin(half)[:, None] * w
        norm = np.linalg.norm(v, axis=1, keepdims=True)
        return np.where(norm > 0.0, v / np.where(norm > 0.0, norm, 1.0), old)

    th, ph = np.meshgrid(np.arange(0.5, 6) * math.pi / 6, np.arange(0.5, 12) * math.pi / 6, indexing="ij")
    n = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], -1).reshape(-1, 3)
    for _ in range(20):
        m = top(y, n @ t, n)
        n = top(x, m @ t.T, n)
    cross = np.block([[np.zeros((3, 3)), t], [t.T, np.zeros((3, 3))]])  # the Hessian of n^T t m
    for _ in range(4):
        k = np.stack([n @ x, m @ y, np.sum((n @ t) * m, 1)], 1)  # x.n, y.m, n^T t m; d: their gradients in (n, m)
        d = np.stack(np.broadcast_arrays(np.r_[x, 0, 0, 0], np.r_[0, 0, 0, y], np.hstack([m @ t.T, n @ t])), 1)
        e = np.zeros((len(n), 4, 6))  # rows: an orthonormal tangent basis at (n, m)
        e[:, :2, :3], e[:, 2:, 3:] = np.split(np.linalg.svd(np.vstack([n, m])[:, None])[2][:, 1:], 2)
        radial = np.repeat(k[:, :2] ** 2 + k[:, 2:] ** 2, 2, 1)[:, :, None] + 1e-12  # n.grad_n f / 2, m.grad_m f / 2
        dt, et = d.transpose(0, 2, 1), e.transpose(0, 2, 1)
        hess = e @ (dt @ d + k[:, 2, None, None] * cross) @ et - radial * np.eye(4)  # half the Riemannian Hessian
        z = np.hstack([n, m]) - (et @ np.linalg.solve(hess, e @ dt @ k[:, :, None]))[:, :, 0]
        n, m = (v / np.linalg.norm(v, axis=1, keepdims=True) for v in (z[:, :3], z[:, 3:]))
    return float(np.max((n @ x) ** 2 + (m @ y) ** 2 + np.sum((n @ t) * m, 1) ** 2))


def qubit_oracle(rho: DensityOperator, side: str) -> float:
    """Exact measure at (q, s) = (2, 1) when every measured side is a qubit.

    Side A or B, a partner of any dimension: (Tr M - lambda_max(M)) / 2 over
    Tr rho^2, M_ij = Re Tr(R_i R_j) for rho = 1/2 sum_mu sigma_mu (x) R_mu
    (Luo & Fu, PRA 82, 034302, 2010; Dakic, Vedral & Brukner, PRL 105, 190502,
    2010).  Side AB of two qubits, x, y and T the Pauli components of rho:
    measuring along n and m keeps sum p^2 = (1 + (x.n)^2 + (y.m)^2 + (n^T T m)^2)/4,
    and the measure is 1 - max sum p^2 / Tr rho^2.  An independent method for
    checking the search, not a certificate.
    """
    check_side(side)
    t = _swap_sides(_tensor(rho)) if side == "B" else _tensor(rho)  # side B is side A of the swapped tensor
    if t.shape[0] != 2 or side == "AB" and t.shape[1] != 2:
        raise DimMismatch(f"side {side} must measure qubits only, got dims {rho.dims}")
    paulis = np.concatenate([np.eye(2)[None], su_generators(2)])  # sigma_0 = I, then sigma_x, sigma_y, sigma_z
    r = np.einsum("xca,abcd->xbd", paulis, t)  # R_mu = Tr_A[(sigma_mu (x) I) rho]
    g = np.real(np.einsum("xij,yji->xy", r, r))  # Re Tr(R_mu R_nu), with Tr rho^2 = Tr g / 2
    if side == "AB":
        c = np.real(np.einsum("xbd,ydb->xy", r, paulis))  # c_mu,nu = Tr[(sigma_mu (x) sigma_nu) rho]
        return float(1.0 - (1.0 + _bloch_pair_max(c[1:, 0], c[0, 1:], c[1:, 1:])) / 2.0 / np.trace(g))
    return float((np.trace(g[1:, 1:]) - np.linalg.eigvalsh(g[1:, 1:])[-1]) / np.trace(g))


# ---------------------------------------------------------------------------
# bounds and contractivity diagnostics
# ---------------------------------------------------------------------------

def entanglement_lower_bound(rho: DensityOperator, idx: EntropicIndices) -> float:
    """max over the two sides of (S(reduced) - S(joint)) / (Tr rho^q)^s.

    A lower bound on every correlation measure; negative for separable
    states, saturated by pure states.
    """
    _tensor(rho)
    joint = linalg.spectrum(rho)
    return max(disturbance_spectra(joint, linalg.spectrum(linalg.partial_trace(rho, [k])), idx) for k in (0, 1))


def triangle_analysis(
    rho: DensityOperator,
    indices,
    opts: OptimizerOptions | None = None,
) -> list[TriangleReport]:
    """Minimized measures on all sides plus the Delta_0/Delta_1 diagnostics: one report per index pair, in order.

    The three searches run once per q, on the Renyi measure, the bilocal one
    warm-started with the pair of unilocal argmins, which makes the sandwich
    inequalities numerically meaningful; each s maps their values.
    """
    opts = opts or OptimizerOptions()
    tol = 1e-8  # each flag allows this much roundoff
    searches, reports = {}, []
    for idx in indices:
        if idx.q not in searches:
            renyi = EntropicIndices(idx.q, 0.0)
            res_a, res_b = (measure_correlations(rho, side, renyi, opts) for side in "AB")
            warm = LocalMeasurement("AB", res_a.argmin.basis_a, res_b.argmin.basis_b)
            res_ab = measure_correlations(rho, "AB", renyi, opts, warm_starts=(warm,))
            pairs = [_pair_spectra(rho, *m.unitaries) for m in (res_ab.argmin, warm)]
            searches[idx.q] = (res_a, res_b, res_ab), pairs
        results, pairs = searches[idx.q]
        m_a, m_b, m_ab = (unified_from_renyi(res.value, idx) for res in results)
        delta0, delta1 = (contractivity_min_from_spectra(spectra, [idx])[0] for spectra in pairs)
        reports.append(TriangleReport(
            m_a, m_b, m_ab, delta0, delta1,
            triangle_holds=m_a + m_b >= m_ab - tol,
            sandwich_holds=m_ab + delta0 >= m_a + m_b - tol and m_a + m_b >= m_ab + delta1 - tol,
            ordering_holds=m_ab >= max(m_a, m_b) - tol,
        ))
    return reports


def _pair_spectra(rho: DensityOperator, ua: np.ndarray, ub: np.ndarray) -> dict:
    """Spectra of rho and after measuring A in ua, B in ub, and both.

    ``ua`` and ``ub`` are one unitary per side or stacks of them with the
    same leading axes; the input spectrum is shared.
    """
    t = _tensor(rho)
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
    dims = _tensor(rho).shape[:2]
    if not linalg.is_integer(trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return _pair_spectra(rho, *linalg.haar_batch(np.random.default_rng(seed), trials, dims))


def contractivity_min_from_spectra(spectra: dict, indices) -> list[float]:
    """min over trials of Delta = D_A + D_B - D_AB, as D_A(rho) - P_B * D_A(post_B), from cached spectra: one per index.

    Over Haar pairs this is fig1's ``min_difference``; on one pair, that pair's Delta (``TriangleReport``).
    Per distinct q, one ``spectral_sum`` of ``before`` and one of the stacked after-spectra (row by row, so
    each spectrum keeps its own bits) serve every s; the sums of ``before`` and ``after_b`` serve both
    disturbances and P_B.  D_A(rho) hands numpy's ufunc to ``entropy_change``, while D_A(post_B) keeps the
    math-module default of the scalar ``disturbance_spectra``, mapped by ``entropy.min_difference`` only on
    the trials that can hold the minimum; the two differ in the last bit on about one input in ten, and each
    term keeps the one it has always used, so the ``qcorr fig1`` rows do not move in the last digit.
    """
    after = np.stack([spectra["after_a"], spectra["after_b"], spectra["after_ab"]])
    by_q, mins = {}, []
    for idx in indices:
        if idx.q not in by_q:
            by_q[idx.q] = spectral_sum(spectra["before"], idx), spectral_sum(after, idx)
        before, (after_a, after_b, after_ab) = by_q[idx.q]
        d_a = entropy_change(after_a, before, idx, expm1=np.expm1)
        p_b = purity_ratio_sums(after_b, before, idx)
        mins.append(min_difference(d_a, p_b, after_ab, after_b, idx))
    return mins
