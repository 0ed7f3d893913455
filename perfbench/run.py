#!/usr/bin/env python3
"""qcorr benchmark: one closed-loop client, one process, no worker threads.

    python3 perfbench/run.py --workload measure --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each call is made only after the previous one returned.  With
``--trace 0`` the pass is timed untraced and the end-to-end metrics are
reported; with ``--trace 1`` an untraced pass and a traced pass over the same
items give the per-layer metrics and the tracing overhead.  End-to-end times
are scaled to a reference speed by probes taken while they run (``calib``).
The last line of standard output is the result JSON; the line before it is
the full record (environment, accuracy, failures, references used).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy.special

import calib
import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "out"
WORKLOADS = ("fig1-sweep", "measure")
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def fresh_qcorr():
    """Import qcorr (and qcorr.cli) anew from ``src/``; returns the package."""
    for name in [n for n in sys.modules if n == "qcorr" or n.startswith("qcorr.")]:
        del sys.modules[name]
    qc = importlib.import_module("qcorr")
    importlib.import_module("qcorr.cli")
    return qc


def tail(values: list[float]) -> tuple[float, int]:
    """Nearest-rank value at the highest whole percentile with >= 10 samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    pct = (100 * (n - 10)) // n
    return ordered[max(math.ceil(pct * n / 100) - 1, 0)], pct


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of the order statistics.

    It weighs the order statistics near rank p * n, so one item that ran
    slow or fast moves it less than it moves the single nearest-rank value.
    """
    ordered = np.sort(values)
    n = len(ordered)
    if p >= 1.0:
        return float(ordered[-1])
    weights = np.diff(scipy.special.betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ ordered)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = ROOT / "src" / "qcorr"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "src_qcorr_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }


def git_commit():
    """HEAD of the checkout, read from .git without starting a process; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def times(item_seconds: list[float], setup: list[float]) -> dict:
    """The timed end-to-end metrics of item and set-up times, in seconds."""
    _, pct = tail(item_seconds)
    return {
        "items_per_s": metric(len(item_seconds) / sum(item_seconds), "1/s"),
        "item_p50_ms": metric(1e3 * statistics.median(item_seconds), "ms"),
        "item_tail_ms": metric(1e3 * harrell_davis(item_seconds, pct / 100), "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
    }


def end_to_end(clock: calib.Clock, setup: calib.Clock) -> tuple[dict, dict]:
    """Metrics from scaled times; the record keeps the raw ones and the probes."""
    metrics = times(clock.scaled(), setup.scaled())
    metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    extra = {
        "tail_percentile": tail(clock.raw)[1], "samples": len(clock.raw),
        "tail_nearest_rank_ms": 1e3 * tail(clock.scaled())[0],
        "raw": {k: v["value"] for k, v in times(clock.raw, setup.raw).items()},
        "probes": clock.probe_summary(),
    }
    return metrics, extra


def trace_report(tracer, workload: str, seed: int, untraced_s: float, traced_s: float,
                 n_items: int, n_inputs: int, restarts_used: list[int], record: dict) -> dict:
    """Per-layer metrics of a traced pass; its summary goes into the record, its spans to disk.

    The self times of all spans partition the traced pass, so their sum over
    the untraced pass time, minus one, should match trace.overhead_frac.
    """
    overhead = traced_s / untraced_s - 1.0
    layer, absent = tracer.layer_metrics(n_items, n_inputs, overhead, restarts_used)
    self_sum = sum(v[2] for v in tracer.totals(lambda it: it != spans.INPUTS).values())
    record["trace"] = {"untraced_s": untraced_s, "traced_s": traced_s, "self_sum_s": self_sum,
                       "self_sum_over_untraced": self_sum / untraced_s - 1.0,
                       "spans": len(tracer.start), "absent": absent}
    tracer.dump(OUT / f"trace-{workload}-{seed}.npz")
    return layer


def set_up(workload: str, seed: int):
    """SETUP_REPEATS x (import, input generation, warm-up); returns a Clock and state."""
    clock = calib.Clock()
    with clock:
        clock.start()
        for _ in range(SETUP_REPEATS):
            qc = fresh_qcorr()
            items = None
            if workload == "fig1-sweep":
                with tempfile.TemporaryDirectory(dir=OUT) as tmp:
                    code = qc.cli.main(wl.fig1_argv(seed, 1, Path(tmp) / "warm.csv", trials=100))
                if code != 0:
                    raise RuntimeError(f"fig1 warm-up exited with {code}")
            else:
                items = wl.measure_items(qc, seed)
                wl.measure_warm_up(qc, items)
            clock.lap()
    return clock, qc, items


def run_measure(workload, seed, seconds, trace, qc, items, setup, record):
    t0 = time.perf_counter()
    refs = wl.references(workload, seed, items, OUT / "refs")
    record["reference_s"] = time.perf_counter() - t0
    gaps = {k: abs(wl.family_closed_form(qc, it) - refs[it.key()]["value"])
            for k, it in enumerate(items) if it.oracle == "family"}
    cycles = wl.run_size(workload, seconds, trace)
    clock = calib.Clock() if not trace else None
    results, elapsed = wl.measure_pass(qc, items, cycles, clock=clock)
    passes = [results]
    layer = None
    if trace:
        with spans.Tracer() as tracer:
            wl.measure_items(qc, seed)
            traced, traced_elapsed = wl.measure_pass(qc, items, cycles, tracer=tracer)
        passes.append(traced)
        layer = trace_report(tracer, workload, seed, elapsed, traced_elapsed, len(traced),
                             len(items), [r[3] for r in traced], record)

    tol = wl.TOLERANCE
    groups = {g: {"ok": 0, "error": 0, "wrong": 0, "miss": 0, "excess_max": -math.inf}
              for g in ("qubits", "qudits")}
    bad = []
    for res in passes:
        for k, value, _, _, error in res:
            ref, group = refs[items[k].key()], groups[items[k].group]
            status = wl.classify(value, error, ref, tol, gaps.get(k))
            group[status] += 1
            if math.isfinite(value):
                group["excess_max"] = max(group["excess_max"], value - ref["value"])
            if status != "ok":
                bad.append({"item": items[k].label, "status": status, "value": value,
                            "reference": ref["value"], "error": error})
    for group in groups.values():
        n = group["ok"] + group["error"] + group["wrong"] + group["miss"]
        group["failed_frac"] = (n - group["ok"]) / n
    counts = {s: sum(g[s] for g in groups.values()) for s in ("ok", "error", "wrong", "miss")}
    attempted = sum(counts.values())
    item_ms: dict[str, list[float]] = {}
    scaled_ms: dict[str, list[float]] = {}
    for (k, _, seconds_k, _, _), scaled_k in zip(results, clock.scaled() if clock else results):
        item_ms.setdefault(items[k].label, []).append(1e3 * seconds_k)
        if clock is not None:
            scaled_ms.setdefault(items[k].label, []).append(1e3 * scaled_k)
    record.update({
        "cycles": cycles, "items_per_cycle": len(items), "tolerance": tol,
        "item_ms": {label: statistics.median(v) for label, v in item_ms.items()},
        "item_scaled_ms": {label: statistics.median(v) for label, v in scaled_ms.items()},
        "excess_max": max(g["excess_max"] for g in groups.values()),
        "failed_frac": (attempted - counts["ok"]) / attempted,
        "status_counts": counts, "groups": groups, "not_ok": bad[:50],
        "references": {o: sum(refs[it.key()]["oracle"] == o for it in items)
                       for o in ("family", "dvb", "search")},
        "family_closed_form_gap_max": max(gaps.values(), default=0.0),
    })
    failed = counts["error"] + counts["wrong"]
    e2e = None
    if not trace:
        e2e, extra = end_to_end(clock, setup)
        record.update(extra)
    return attempted, failed, e2e, layer


def run_fig1(seed, seconds, trace, qc, setup, record):
    n_states = wl.run_size("fig1-sweep", seconds, trace)
    layer = None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        out = Path(tmp) / "fig1.csv"
        clock = calib.Clock()
        code, elapsed, _ = wl.fig1_pass(qc, seed, n_states, out, clock=clock)
        checks = [wl.fig1_check(qc, seed, n_states, out) if code == 0 else None]
        if trace:
            def next_state():  # the driver draws each state first: a new item starts
                tracer.item += 1

            with spans.Tracer(before={"linalg.random_density": next_state}) as tracer:
                code_t, traced_elapsed, _ = wl.fig1_pass(qc, seed, n_states, out, tracer)
            checks.append(wl.fig1_check(qc, seed, n_states, out, samples=0) if code_t == 0 else None)
            layer = trace_report(tracer, "fig1-sweep", seed, elapsed, traced_elapsed, n_states, 1,
                                 [], record)
    failed, excess, checked, compared = 0, 0.0, 0, 0
    for check in checks:
        if check is None:
            failed += n_states
            excess = math.inf
        else:
            failed += len(check["failed"])
            excess = max(excess, check["excess_max"])
            checked += check["checked_rows"]
            compared += check["byte_compared_rows"]
            record.setdefault("not_ok", []).extend(check["failed"].values())
    attempted = n_states * len(checks)
    record.update({"states": n_states, "excess_max": excess, "failed_frac": failed / attempted,
                   "checked_rows": checked, "byte_compared_rows": compared})
    e2e = None
    if not trace:
        e2e, extra = end_to_end(clock, setup)
        record.update(extra)
    return attempted, failed, e2e, layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qcorr" / "__init__.py").is_file():
        print(f"error: no qcorr sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    setup, qc, items = set_up(args.workload, args.seed)
    if not Path(qc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: qcorr was imported from {qc.__file__}, not from src/", file=sys.stderr)
        return 2
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_s": setup.scaled(), "setup_raw_s": setup.raw,
              "environment": environment()}
    if args.workload == "fig1-sweep":
        attempted, failed, e2e, layer = run_fig1(args.seed, args.seconds, args.trace, qc, setup,
                                                 record)
    else:
        attempted, failed, e2e, layer = run_measure(args.workload, args.seed, args.seconds,
                                                    args.trace, qc, items, setup, record)
    print(json.dumps(record, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": layer if args.trace else e2e}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
