#!/usr/bin/env python3
"""Quick self-test of the benchmark code (not a measurement).

    python3 perfbench/selftest.py        # from the repository root, about 90 seconds

Checks that metric and workload names match BENCHMARK.json, that item times
are scaled by the calibration probes around them, that a wrong
reference or a NaN value counts as a failed item while a NaN ``spread`` does
not, that tracing restores every binding, that short runs print a well-formed
result, and that a directory without the program makes the runner fail.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in BENCH["end_to_end"]}
LAYER = {m["name"] for m in BENCH["per_layer"]}


def fake_clock(raw, probe_s):
    """Back-to-back items, each with one probe of probe_s at its start."""
    clock = calib.Clock()
    probes = [probe_s] * len(raw) if isinstance(probe_s, float) else probe_s
    edges = list(itertools.accumulate((p + r for r, p in zip(raw, probes)), initial=0.0))
    clock.probes = list(zip(edges, probes + probes[-1:]))
    clock.bounds = list(zip(edges[:-1], edges[1:]))
    return clock


def check_names():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    ref = calib.KERNEL_REF_S
    metrics, _ = run.end_to_end(fake_clock([0.1] * 12, ref), fake_clock([0.5, 0.4, 0.6], ref))
    assert set(metrics) == E2E, set(metrics) ^ E2E
    for m in BENCH["per_layer"]:
        unit, better, _, _ = spans.LAYER_METRICS[m["name"]]
        assert (m["unit"], m["better"]) == (unit, better), m
    assert LAYER == set(spans.LAYER_METRICS)
    for m in BENCH["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"], m


def check_scaling():
    """Raw times leave the probes out; scaled ones divide by the slowdown probes saw."""
    ref, half = calib.KERNEL_REF_S, 2.0 ** -calib.SLOWDOWN_EXPONENT
    clock = fake_clock([0.2, 0.4], 2 * ref)
    assert all(map(math.isclose, clock.raw, [0.2, 0.4]))
    assert all(map(math.isclose, clock.scaled(), [0.2 * half, 0.4 * half]))
    clock = fake_clock([1.0] * 9, [ref] * 5 + [4 * ref] * 4)  # a slow step at item 5
    scaled = clock.scaled()
    assert all(map(math.isclose, scaled[:4] + scaled[-3:], [1.0] * 4 + [half * half] * 3)), scaled
    metrics, extra = run.end_to_end(fake_clock([0.2] * 12, 2 * ref), fake_clock([0.8] * 3, 2 * ref))
    assert math.isclose(metrics["items_per_s"]["value"], 5.0 / half)
    assert math.isclose(metrics["setup_s"]["value"], 0.8 * half)
    assert math.isclose(extra["raw"]["items_per_s"], 5.0)
    with calib.Clock(interval=0.01) as live:
        live.start()
        calib.kernel(3000)
        live.lap()
    assert len(live.raw) == 1 and len(live.probes) >= 3, live.probes
    assert 0 < live.raw[0] < live.bounds[0][1] - live.bounds[0][0]


def check_tail():
    assert run.tail([float(v) for v in range(1, 21)]) == (10.0, 50)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100)


def fake_qc(value, spread):
    result = SimpleNamespace(value=value, spread=spread, restarts_used=1, converged=False)
    return SimpleNamespace(
        OptimizerOptions=lambda **kw: kw,
        EntropicIndices=lambda q, s: (q, s),
        correlations=SimpleNamespace(measure_correlations=lambda *a, **kw: result),
    )


def check_failure_accounting(qc):
    items = wl.measure_items(qc, 0)[:2]
    results, _ = wl.measure_pass(qc, items, 1)
    for k, value, _, _, error in results:
        true_ref = {"value": value, "oracle": "search"}
        assert wl.classify(value, error, true_ref, 1e-6, None) == "ok"
        for oracle in ("search", "dvb", "family"):
            wrong_ref = {"value": value - 1e-3, "oracle": oracle}
            assert wl.classify(value, error, wrong_ref, 1e-6, None) != "ok", oracle
        # an exact oracle above the value means the value is impossibly low
        assert wl.classify(value, error, {"value": value + 1e-3, "oracle": "dvb"}, 1e-6, None) == "wrong"
    ref = {"value": 0.25, "oracle": "search"}
    (_, value, _, _, error), = wl.measure_pass(fake_qc(math.nan, 0.0), items[:1], 1)[0]
    assert wl.classify(value, error, ref, 1e-6, None) == "error"
    (_, value, _, _, error), = wl.measure_pass(fake_qc(0.25, math.nan), items[:1], 1)[0]
    assert wl.classify(value, error, ref, 1e-6, None) == "ok"


def check_restore(qc):
    import importlib

    before = {(m, a): getattr(importlib.import_module(m), a, None) for m, a, _ in spans.WRAPS}
    items = wl.measure_items(qc, 0)[:1]
    with spans.Tracer() as tracer:
        wl.measure_pass(qc, items, 1, tracer=tracer)
    after = {(m, a): getattr(importlib.import_module(m), a, None) for m, a, _ in spans.WRAPS}
    assert before == after
    totals = tracer.totals(lambda it: it != spans.INPUTS)
    assert totals["correlations.measure_correlations"][0] == 1
    assert totals[spans.OBJECTIVE][0] > 0 and not tracer.absent


def run_bench(cwd: Path, workload: str, trace: int, seconds: str = "1"):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_runs():
    for workload, trace in (("fig1-sweep", 0), ("fig1-sweep", 1), ("measure", 0)):
        proc = run_bench(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == (LAYER if trace else E2E), workload


def check_without_program():
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(tmp, "measure", 0)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout


def check_fig1_copy():
    committed = ROOT / "results" / "fig1.csv"
    if committed.exists():
        assert committed.read_bytes() == wl.FIG1_REFERENCE.read_bytes()


def main() -> int:
    qc = run.fresh_qcorr()
    for check in (check_names, check_scaling, check_tail, check_fig1_copy, lambda: check_failure_accounting(qc),
                  lambda: check_restore(qc), check_without_program, check_runs):
        check()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
