"""The two workloads: inputs made from the seed, timed passes, output checks.

* ``fig1-sweep`` runs the ``qcorr fig1`` driver at its documented
  configuration through ``qcorr.cli.main``; an item is one state with its 28
  rows.  No optimizer runs, so it isolates the batch use of the measurement
  and entropy kernels plus Haar sampling.
* ``measure`` calls ``measure_correlations`` with the restart budget the CLI
  drivers pass; an item is one call.  Its qubit group (2x2 random and family
  states) runs the n = 2 closed-form exponential map; its qudit group (2x3,
  3x3 and the 2x4 shape produced by ``ancilla-check``) runs the eigh-based
  decoding, where the search is weakest.

Measure items are replayed in whole cycles so every pass has the same mix.
``--seconds`` fixes the amount of work, not a deadline: a run makes
FIG1_STATES_PER_S fig1 states per second (never fewer than MIN_ITEMS), or one
measure cycle per MEASURE_CYCLE_S (at least one).  The item count, and so the
tail percentile, then does not depend on the machine's momentary speed, which
``calib`` corrects for.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

HERE = Path(__file__).resolve().parent
FIG1_SEED = 20260810
FIG1_REFERENCE = HERE / "data" / f"fig1-{FIG1_SEED}.csv"
FIG1_HEADER = "state_id,family,q,min_difference,violated"
FIG1_ROWS_PER_STATE = 28
FIG1_VIOLATION_TOL = 1e-6  # the CLI's VIOLATION_TOL: rows below -tol are flagged
FIG1_RECOMPUTE_TOL = 1e-9
SIDES = ("A", "B", "AB")
INDEX_PAIRS = ((1.0, 1.0), (0.5, 0.0), (2.0, 1.0), (3.0, 0.5))
RESTARTS = 8  # the budget family-curve, ancilla-check and triangle-scan pass
TOLERANCE = 1e-6  # a value this far above its reference fails
ORACLE_TOL = 1e-9  # a value this far below an exact oracle is wrong
SEARCH_STARTS = 16
REFS_COMMITTED = HERE / "refs"
FIG1_STATES_PER_S = 1.0
MEASURE_CYCLE_S = 40.0
MIN_ITEMS = 20  # so the tail percentile has ten items beyond it and ten below


def run_size(workload: str, seconds: float, trace: bool) -> int:
    """fig1 states or measure cycles for one pass; the amount of work is fixed.

    A traced run makes two passes; a fig1 pass is then half the size, with
    no minimum.
    """
    if workload == "fig1-sweep":
        states = (seconds / 2 if trace else seconds) * FIG1_STATES_PER_S
        return max(1 if trace else MIN_ITEMS, round(states))
    return max(1, round(seconds / MEASURE_CYCLE_S))


@dataclass(eq=False)
class Item:
    label: str
    rho: object  # qcorr DensityOperator
    side: str
    q: float
    s: float
    opt_seed: int
    oracle: str  # "family", "dvb" or "search"
    group: str  # "qubits" or "qudits"
    family: tuple | None = None  # (kind, parameter, psi)

    def key(self) -> str:
        h = hashlib.sha256(np.ascontiguousarray(self.rho.matrix).tobytes())
        h.update(repr((self.rho.dims, self.side, self.q, self.s, self.oracle)).encode())
        return h.hexdigest()[:20]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _random_item(qc, seed, k, dims, side, qs, suffix="") -> Item:
    rng = np.random.default_rng([seed, k])
    rho = qc.linalg.random_density(dims, rng)
    oracle = "dvb" if dims == (2, 2) and side != "AB" and qs == (2.0, 1.0) else "search"
    label = f"random {dims[0]}x{dims[1]} {side} q={qs[0]:g} s={qs[1]:g} {suffix}".rstrip()
    group = "qubits" if dims == (2, 2) else "qudits"
    return Item(label, rho, side, *qs, int(rng.integers(2**31)), oracle, group)


# How many states each kind of item gets.  Item costs fall into groups: 2x3
# and 3x3 AB (2-4 s), the other 2x3 B and 3x3 calls (about 1 s), 2x2 AB (about
# 0.5 s) and the rest (about 0.2 s).  The counts put the median item and the
# tail item (the 11th slowest) well inside a group, not at the edge between
# two, where the order of a few items would decide the metric.  Every row has
# at least two states, so no single state sets a run's time.
QUBIT_STATES = {"A": 3, "B": 3, "AB": 1}  # random 2x2 states per side and index pair
QUDIT_PLAN = (  # (dims, side, (q, s), states): every side, every regime, the 3x3 AB gap at q = 1
    ((2, 3), "A", (0.5, 0.0), 2),
    ((2, 3), "B", (3.0, 0.5), 3),
    ((2, 3), "AB", (2.0, 1.0), 2),
    ((3, 3), "A", (2.0, 1.0), 3),
    ((3, 3), "B", (0.5, 0.0), 3),
    ((3, 3), "AB", (1.0, 1.0), 2),
)
GROUPED_STATES = 2


def measure_items(qc, seed) -> list[Item]:
    """The qubit group, then the qudit group; item k draws from rng([seed, k]).

    Qubits: 28 random 2x2 states (every side x index pair, three each on A
    and B) and 12 Werner, isotropic and pseudopure (random psi) members.  Qudits:
    15 random 2x3 and 3x3 states on every side, and 2 ancilla-grouped 2x4
    states.
    """
    items = []
    for side in SIDES:
        for qs in INDEX_PAIRS:
            for rep in range(QUBIT_STATES[side]):
                items.append(_random_item(qc, seed, len(items), (2, 2), side, qs,
                                          f"#{rep}" if QUBIT_STATES[side] > 1 else ""))
    for f, kind in enumerate(("werner", "isotropic", "pseudopure")):
        for j, qs in enumerate(INDEX_PAIRS):
            rng = np.random.default_rng([seed, len(items)])
            side = SIDES[(f + j) % 3]
            psi = None
            if kind == "werner":
                param = float(rng.uniform(-1.0, 1.0))
            elif kind == "isotropic":
                param = float(rng.uniform(0.25, 1.0))
            else:
                param = float(rng.uniform(0.0, 1.0))
                psi = qc.linalg.random_pure((2, 2), rng)
            rho = qc.families.build(qc.FamilySpec(kind, 2, 2, param, psi))
            items.append(Item(f"{kind} {side} q={qs[0]:g} s={qs[1]:g}", rho, side, *qs,
                              int(rng.integers(2**31)), "family", "qubits", (kind, param, psi)))
    for dims, side, qs, states in QUDIT_PLAN:
        for rep in range(states):
            items.append(_random_item(qc, seed, len(items), dims, side, qs, f"#{rep}"))
    for rep in range(GROUPED_STATES):
        # the ancilla-check shape at its default indices: a 2x2 state times a
        # mixed qubit, grouped A|BC and measured on A
        rng = np.random.default_rng([seed, len(items)])
        linalg = qc.linalg
        extended = linalg.tensor(linalg.random_density((2, 2), rng), linalg.random_density(2, rng))
        rho = linalg.regroup(extended, [0])
        items.append(Item(f"grouped 2x4 A q=2 s=1 #{rep}", rho, "A", 2.0, 1.0,
                          int(rng.integers(2**31)), "search", "qudits"))
    return items


# ---------------------------------------------------------------------------
# references (never timed, never part of set-up)
# ---------------------------------------------------------------------------

def _family_bases(item: Item):
    """The known optimal local bases of a family member."""
    kind, _, psi = item.family
    if kind == "pseudopure":
        u, _, vh = np.linalg.svd(np.asarray(psi).reshape(2, 2))
        ua, ub = u, vh.T
    else:  # werner and isotropic: every local basis is optimal
        ua = ub = np.eye(2, dtype=complex)
    return {"A": [ua], "B": [ub], "AB": [ua, ub]}[item.side]


def _compute_reference(item: Item, seed, k) -> dict:
    rho, dims = np.asarray(item.rho.matrix), item.rho.dims
    if item.oracle == "family":
        value = reference.evaluate(rho, dims, item.side, _family_bases(item), item.q, item.s)
        return {"value": value, "oracle": "family"}
    if item.oracle == "dvb":
        return {"value": reference.dvb_oracle(rho, item.side), "oracle": "dvb"}
    found = reference.search(rho, dims, item.side, item.q, item.s, SEARCH_STARTS, [seed, k, 2])
    return {**found, "oracle": "search"}


def references(workload: str, seed: int, items: list[Item], cache_dir: Path) -> dict:
    """Reference per item key, from the committed file, the run cache or computed."""
    name = f"{workload}-{seed}.json"
    refs = {}
    for path in (REFS_COMMITTED / name, cache_dir / name):
        if path.exists():
            refs.update(json.loads(path.read_text()))
    missing = [(k, it) for k, it in enumerate(items) if it.key() not in refs]
    for k, it in missing:
        refs[it.key()] = _compute_reference(it, seed, k)
    if missing:
        cache_dir.mkdir(parents=True, exist_ok=True)
        (cache_dir / name).write_text(json.dumps(refs, indent=1, sort_keys=True))
    return refs


def family_closed_form(qc, item: Item) -> float:
    """The program's own analytic value for a family member."""
    kind, param, psi = item.family
    idx = qc.EntropicIndices(item.q, item.s)
    if kind == "werner":
        return qc.werner_spectrum_form(2, param, idx)
    if kind == "isotropic":
        return qc.isotropic_closed_form(2, param, idx)
    return qc.pseudopure_closed_form(qc.FamilySpec(kind, 2, 2, param, psi), item.side, idx)


# ---------------------------------------------------------------------------
# measure workloads
# ---------------------------------------------------------------------------

def measure_warm_up(qc, items: list[Item]) -> None:
    """One short search per distinct (dims, side), so lazy set-up is done."""
    seen = set()
    for it in items:
        if (it.rho.dims, it.side) not in seen:
            seen.add((it.rho.dims, it.side))
            opts = qc.OptimizerOptions(restarts=1, seed=0, max_iter=50)
            qc.correlations.measure_correlations(it.rho, it.side, qc.EntropicIndices(it.q, it.s), opts)


def measure_pass(qc, items: list[Item], cycles: int, tracer=None, clock=None):
    """``cycles`` whole passes over ``items``, one call at a time.

    Returns (results, elapsed); a result is (item index, value, seconds,
    restarts used, error text or None).  With a ``calib.Clock`` the machine's
    speed is sampled throughout, and elapsed is the sum of the raw item times.
    """
    results = []
    with clock or contextlib.nullcontext():
        if clock is not None:
            clock.start()
        t0 = time.perf_counter()
        for _ in range(cycles):
            for k, it in enumerate(items):
                opts = qc.OptimizerOptions(restarts=RESTARTS, seed=it.opt_seed)
                idx = qc.EntropicIndices(it.q, it.s)
                if tracer is not None:
                    tracer.item = len(results)
                error, value, used = None, math.nan, 0
                start = time.perf_counter()
                try:
                    # looked up on the module at call time, so a traced pass sees the wrapper
                    res = qc.correlations.measure_correlations(it.rho, it.side, idx, opts)
                    value, used = float(res.value), int(res.restarts_used)
                except Exception as exc:  # a raising call is a failed item, not a crash
                    error = f"{type(exc).__name__}: {exc}"
                results.append((k, value, time.perf_counter() - start, used, error))
                if clock is not None:
                    clock.lap()
        elapsed = time.perf_counter() - t0
    return results, elapsed if clock is None else sum(clock.raw)


def classify(value: float, error, ref: dict, tol: float, closed_form_gap: float | None):
    """Status of one measure item: ok, error, wrong (an output check failed) or miss."""
    if error is not None or not math.isfinite(value):
        return "error"
    if closed_form_gap is not None and closed_form_gap > 1e-10:
        return "wrong"
    exact = ref["oracle"] != "search"
    if exact and value < ref["value"] - ORACLE_TOL:
        return "wrong"
    if value - ref["value"] > tol:
        return "wrong" if exact else "miss"
    return "ok"


# ---------------------------------------------------------------------------
# fig1 workload
# ---------------------------------------------------------------------------

def fig1_argv(seed: int, n_states: int, out: Path, trials: int = 1000) -> list[str]:
    return ["fig1", "--seed", str(seed), "--n-states", str(n_states),
            "--trials", str(trials), "--out", str(out)]


def fig1_pass(qc, seed: int, n_states: int, out: Path, tracer=None, clock=None):
    """One ``qcorr fig1`` call; returns (exit code, elapsed, per-state seconds).

    State boundaries are the driver's draws of its next random state
    (``linalg.random_density``), the only per-state boundary visible from
    outside the call.  Untraced, a ``calib.Clock`` laps at each boundary;
    traced, the tracer counts items at the same boundary and the states share
    the time.
    """
    linalg = qc.linalg
    argv = fig1_argv(seed, n_states, out)
    if tracer is not None:
        tracer.item = -1
        t0 = time.perf_counter()
        code = tracer.call("cli.main", qc.cli.main, argv)
        elapsed = time.perf_counter() - t0
        return code, elapsed, [elapsed / n_states] * n_states
    draw = linalg.random_density
    draws = []

    def marked(*args, **kwargs):
        if draws:  # the state before this one ends here
            clock.lap()
        draws.append(None)
        return draw(*args, **kwargs)

    linalg.random_density = marked
    try:
        with clock:
            clock.start()
            code = qc.cli.main(argv)
            clock.lap()
    finally:
        linalg.random_density = draw
    if len(clock.bounds) != n_states:  # the driver no longer draws one state at a time
        a, b = clock.bounds[0][0], clock.bounds[-1][1]
        edges = np.linspace(a, b, n_states + 1)
        clock.bounds = list(zip(edges[:-1], edges[1:]))
    raw = clock.raw
    return code, sum(raw), raw


def _fig1_rows(path: Path) -> list[str]:
    lines = path.read_text(encoding="ascii").splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body or body[0] != FIG1_HEADER:
        raise ValueError(f"unexpected fig1 header in {path}")
    return body[1:]


def _parse_row(row: str):
    state, family, q, value, violated = row.split(",")
    return int(state), family, float(q), float(value), violated


def _recompute_row(qc, seed: int, state_id: int, family: str, q: float, trials: int = 1000) -> float:
    """min over the trials of D_A(rho) - P_B D_A(post_B), via DensityOperator-level calls."""
    rho = qc.random_density((2, 2), np.random.default_rng([seed, state_id]))
    rng = np.random.default_rng([seed, state_id, 1])
    idx = qc.EntropicIndices(q, 0.0 if family == "renyi" else 1.0)
    best = math.inf
    for _ in range(trials):
        basis_a = qc.ProjectiveBasis(qc.haar_unitary(2, rng))
        basis_b = qc.ProjectiveBasis(qc.haar_unitary(2, rng))
        m_a = qc.LocalMeasurement("A", basis_a=basis_a)
        m_b = qc.LocalMeasurement("B", basis_b=basis_b)
        post_b = qc.apply_local(rho, m_b)
        diff = (qc.disturbance(rho, m_a, idx).disturbance
                - qc.purity_ratio(rho, m_b, idx) * qc.disturbance(post_b, m_a, idx).disturbance)
        best = min(best, diff)
    return best


def fig1_check(qc, seed: int, n_states: int, out: Path, samples: int = 4) -> dict:
    """Per-state failures and the largest row difference from a reference.

    At the documented seed every row must be byte-identical to the committed
    sweep; on every seed ``samples`` rows are recomputed independently.
    """
    try:
        rows = _fig1_rows(out)
        parsed = [_parse_row(row) for row in rows]
    except ValueError as exc:
        parsed, problem = [], f"unreadable output: {exc}"
    else:
        problem = None if len(rows) == FIG1_ROWS_PER_STATE * n_states else "row count"
    if problem is not None:
        return {"failed": {k: problem for k in range(n_states)}, "excess_max": math.inf,
                "checked_rows": 0, "byte_compared_rows": 0}
    failed: dict[int, str] = {}
    for k, (state, _, _, value, violated) in enumerate(parsed):
        ok = math.isfinite(value) and violated == ("true" if value < -FIG1_VIOLATION_TOL else "false")
        if not ok or state != k // FIG1_ROWS_PER_STATE:
            failed.setdefault(k // FIG1_ROWS_PER_STATE, f"row {k} malformed")
    excess, checked, compared = 0.0, 0, 0
    if seed == FIG1_SEED:  # the committed sweep covers the first 20 states
        for k, (row, ref) in enumerate(zip(rows, _fig1_rows(FIG1_REFERENCE))):
            excess = max(excess, abs(parsed[k][3] - float(ref.split(",")[3])))
            checked += 1
            compared += 1
            if row != ref:
                failed.setdefault(k // FIG1_ROWS_PER_STATE, f"row {k} differs from the committed sweep")
    rng = np.random.default_rng([seed, 99])
    for k in rng.choice(len(rows), size=min(samples, len(rows)), replace=False):
        state, family, q, value, _ = parsed[int(k)]
        diff = abs(value - _recompute_row(qc, seed, state, family, q))
        excess = max(excess, diff)
        checked += 1
        if diff > FIG1_RECOMPUTE_TOL:
            failed.setdefault(state, f"row {int(k)} differs from its recomputation by {diff:.3e}")
    return {"failed": failed, "excess_max": excess, "checked_rows": checked,
            "byte_compared_rows": compared}
