#!/usr/bin/env python3
"""Time the benchmark's searches in another commit and in this checkout, in one process, pass by pass.

    python scripts/search_pairs.py REF
    python scripts/search_pairs.py HEAD~1 --seed 1 --passes 40

REF is a commit, exported with ``bench_pairs.export`` into a temporary
directory, or another checkout's directory.  Both trees' src/qcorr are
imported into this process under two names, which works because the package
uses relative imports only; no process start-up or host drift between two
runs then enters the comparison.  A pass runs ``measure_correlations`` on the
57 items of the benchmark's ``measure`` workload (perfbench/workloads.py's
``measure_items`` at ``--seed``, imported read-only) at its 8 restarts, once
in each tree, the first tree alternating from pass to pass.  Prints, for each
tree, the median and the minimum pass time, then the interquartile range of
REF's pass times (inclusive method, as ``bench_pairs.summarize``) and whether
the two medians differ by more than it, then the median over passes of this
checkout's time over REF's, the number of passes this checkout won, and the
largest |value difference| between the trees over all items.
"""

import argparse
import importlib.util
import pathlib
import statistics
import sys
import tempfile
import time

from bench_pairs import export

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(src: pathlib.Path, name: str):
    """The package at ``src``/qcorr, imported as the top-level module ``name``."""
    package = src / "qcorr"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def timed_pass(qc, items, restarts: int) -> tuple[float, list[float]]:
    """(wall seconds, values) of one ``measure_correlations`` call per item, with the package ``qc``."""
    start = time.perf_counter()
    values = [qc.measure_correlations(it.rho, it.side, qc.EntropicIndices(it.q, it.s),
                                      qc.OptimizerOptions(restarts=restarts, seed=it.opt_seed)).value
              for it in items]
    return time.perf_counter() - start, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the commit to compare against, as git names it, or a checkout's directory")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=20)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    sys.dont_write_bytecode = True  # leave no __pycache__ in either tree or under perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory(prefix="qcorr-search-ref-") as tmp:
        tree = pathlib.Path(args.ref)
        if not tree.is_dir():
            tree = pathlib.Path(tmp)
            export(args.ref, tree)
        trees = {"ref": load(tree.resolve() / "src", "qcorr_ref"), "this": load(ROOT / "src", "qcorr_this")}
        items = {name: workloads.measure_items(qc, args.seed) for name, qc in trees.items()}
        times, values = {name: [] for name in trees}, {}
        for k in range(args.passes):
            for name in ("ref", "this") if k % 2 == 0 else ("this", "ref"):
                seconds, values[name] = timed_pass(trees[name], items[name], workloads.RESTARTS)
                times[name].append(seconds)
    for name in trees:
        print(f"{name}: median pass {statistics.median(times[name]):.4f} s, fastest {min(times[name]):.4f} s"
              f" ({len(items[name])} items)")
    q1, _, q3 = statistics.quantiles(times["ref"], n=4, method="inclusive") if args.passes > 1 else (0.0,) * 3
    gap = statistics.median(times["this"]) - statistics.median(times["ref"])
    print(f"ref IQR {q3 - q1:.4f} s; the medians differ by {gap:+.4f} s,"
          f" {'more' if abs(gap) > q3 - q1 else 'no more'} than that")
    ratios = [b / a for a, b in zip(times["ref"], times["this"])]
    won = sum(r < 1.0 for r in ratios)
    largest = max(abs(a - b) for a, b in zip(values["ref"], values["this"]))
    print(f"this / ref: median ratio {statistics.median(ratios):.4f}, this won {won} of {args.passes} passes;"
          f" largest |value difference| {largest:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
