#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload measure --seeds 1-10 --out perfbench/out/steady.json
    python3 perfbench/steady.py --workload measure --seeds 11-20 --baseline perfbench/baseline.json --set set2
    python3 perfbench/steady.py --workload measure --seeds 20260810 --trace --baseline perfbench/baseline.json

For every end-to-end metric this prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json, and for the timed metrics the
spread the same metric has when computed from unscaled times.  It also collects each run's
accuracy record (excess_max, failed_frac).  Runs are made one at a time.
With --baseline the set (or, with --trace, one traced run) is merged into a
baseline file, which also gets how much worse set2's medians are than set1's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def run_once(workload: str, seed: int, seconds: float, trace: int):
    """One benchmark run in a child process; returns (record, result, wall seconds)."""
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return record, result, wall


def accuracy(record: dict) -> dict:
    return {k: record.get(k) for k in ("excess_max", "failed_frac", "status_counts", "groups",
                                       "tail_percentile", "samples", "not_ok", "raw", "probes")}


def merge_baseline(path: Path, workload: str, key: str, entry: dict, environment: dict) -> None:
    """Put one set (or the traced run) of a workload into the baseline file."""
    base = json.loads(path.read_text()) if path.exists() else {}
    base.update({"command": BENCH["command"], "run_seconds": BENCH["run_seconds"]})
    w = base.setdefault("workloads", {}).setdefault(workload, {})
    w[key] = entry
    if "set1" in w and "set2" in w:
        better = {m["name"]: m["better"] for m in BENCH["end_to_end"]}
        w["set2_worse_than_set1"] = {
            name: (1 if better[name] == "lower" else -1) * (s2["median"] / s1["median"] - 1.0)
            for name, s1, s2 in ((n, w["set1"]["summary"][n], w["set2"]["summary"][n])
                                 for n in better)}
    base["environment"] = environment
    path.write_text(json.dumps(base, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--out", default=None, help="write the runs and summary here")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="merge the summary into this baseline file")
    parser.add_argument("--set", default="set1", help="name of this set in the baseline")
    parser.add_argument("--trace", action="store_true",
                        help="one traced run at the first seed, merged as 'trace'")
    args = parser.parse_args()

    if args.trace:
        seed = seeds(args.seeds)[0]
        record, result, wall = run_once(args.workload, seed, args.seconds, 1)
        print(json.dumps(result["metrics"], indent=1))
        if args.baseline:
            entry = {"seed": seed, "wall_s": wall, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "summary": record["trace"], "accuracy": accuracy(record),
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
            merge_baseline(args.baseline, args.workload, "trace", entry, record["environment"])
        return 0

    runs = []
    for seed in seeds(args.seeds):
        record, result, wall = run_once(args.workload, seed, args.seconds, 0)
        runs.append({"seed": seed, "wall_s": wall, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                     "accuracy": accuracy(record)})
        print(seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
              "correct" if result["correct"] else "INCORRECT", f"wall {wall:.1f} s", flush=True)

    summary = {}
    for m in BENCH["end_to_end"]:
        summary[m["name"]] = {**summarize([r["metrics"][m["name"]] for r in runs]),
                              "bound": m["bound"]}
        s = summary[m["name"]]
        raw = [r["accuracy"]["raw"].get(m["name"]) for r in runs if r["accuracy"]["raw"]]
        if raw and None not in raw:  # the same metric from unscaled times
            s["raw_spread"] = summarize(raw)["spread"]
        print(f"{m['name']:14s} median {s['median']:.6g}  spread {s['spread']:.4f}  "
              f"bound {m['bound']} (third {m['bound'] / 3:.4f})"
              + (f"  raw spread {s['raw_spread']:.4f}" if "raw_spread" in s else ""))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds, "summary": summary,
             "runs": runs}, indent=1))
    if args.baseline:
        merge_baseline(args.baseline, args.workload, args.set,
                       {"seeds": args.seeds, "summary": summary, "runs": runs},
                       record["environment"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
