#!/usr/bin/env python3
"""Alternate benchmark runs of another commit and of this checkout, and summarise them per end-to-end metric.

    python scripts/bench_pairs.py REF --workload fig1-sweep --pairs 10
    python scripts/bench_pairs.py HEAD~1 --workload measure --pairs 10 --seed 1 --seconds 30

REF is exported with ``git archive`` into a temporary directory, so no
worktree is added and this checkout is not touched.  Each pair runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in the
exported tree and once here, one run at a time, with the first side
alternating from pair to pair.  For each end-to-end metric of
BENCHMARK.json it prints ``compare``'s medians, ratio, REF's interquartile
range and pairs won, and ``verdict``'s reading of them, then every run that
did not read ``correct: true``.
"""

import argparse
import io
import json
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def export(ref: str, into: pathlib.Path) -> None:
    """Write the tree of commit ``ref`` into the directory ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """The result JSON (the last line of standard output) of one untraced run in ``tree``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"], cwd=tree, check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def compare(ref: list[float], new: list[float], higher: bool) -> tuple[float, float, float, float, int]:
    """Over paired values: REF's median, the new median, new over REF, REF's IQR (inclusive quartiles, as numpy's
    default percentile) and the pairs won, a win being a new value strictly higher, or lower if not ``higher``."""
    won = sum((b > a) if higher else (b < a) for a, b in zip(ref, new))
    q1, _, q3 = statistics.quantiles(ref, n=4, method="inclusive") if len(ref) > 1 else (ref[0],) * 3
    ref_median, new_median = statistics.median(ref), statistics.median(new)
    return ref_median, new_median, new_median / ref_median, q3 - q1, won


def verdict(ref: list[float], new: list[float], higher: bool, bound: float) -> str:
    """``better`` or ``worse`` when that side won at least 9 in 10 of the pairs (a tie counts for neither) and the
    medians differ by more than REF's IQR, else ``unresolved``; then ``, beyond bound`` when the new median is worse
    than REF's by more than ``bound`` times REF's median."""
    ref_median, new_median, _, iqr, won = compare(ref, new, higher)
    lost = sum((a > b) if higher else (a < b) for a, b in zip(ref, new))
    reading = "unresolved"
    if abs(new_median - ref_median) > iqr:
        reading = "better" if 10 * won >= 9 * len(ref) else "worse" if 10 * lost >= 9 * len(ref) else reading
    worse_by = ref_median - new_median if higher else new_median - ref_median
    return reading + (", beyond bound" if worse_by > bound * ref_median else "")


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """Per metric, ``compare`` and ``verdict`` over (ref result, this result) pairs; then each run that was not correct.

    A result is run.py's last line: ``correct``, ``attempted``, ``failed`` and ``metrics``, each metric
    a dict with its ``value``.  ``metrics`` are BENCHMARK.json's ``end_to_end`` entries, with their ``bound``.
    """
    lines = []
    for metric in metrics:
        ref, new = ([result["metrics"][metric["name"]]["value"] for result in side] for side in zip(*pairs))
        higher = metric["better"] == "higher"
        a, b, ratio, iqr, won = compare(ref, new, higher)
        lines.append(f"{metric['name']}: {a:.6g} -> {b:.6g} (x{ratio:.4g}), ref IQR {iqr:.3g}, won {won}/{len(pairs)}, "
                     + verdict(ref, new, higher, metric["bound"]))
    for k, pair in enumerate(pairs):
        for side, result in zip(("ref", "this"), pair):
            if not result["correct"]:
                lines.append(f"pair {k + 1} {side}: not correct, {result['failed']} of {result['attempted']} failed")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the commit to compare against, as git names it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="qcorr-bench-ref-") as tmp:
        ref_tree = pathlib.Path(tmp)
        export(args.ref, ref_tree)
        for k in range(args.pairs):
            order = [ref_tree, ROOT] if k % 2 == 0 else [ROOT, ref_tree]
            results = {tree: run_once(tree, args.workload, args.seed, args.seconds) for tree in order}
            pairs.append((results[ref_tree], results[ROOT]))
            first = "ref" if k % 2 == 0 else "this"
            items = (results[tree]["metrics"]["items_per_s"]["value"] for tree in (ref_tree, ROOT))
            print(f"pair {k + 1} ({first} first): items_per_s {' -> '.join(f'{v:.6g}' for v in items)}", flush=True)
    print("\n".join(summarize(pairs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
