#!/usr/bin/env python3
"""Digest the benchmark's measure calls and the cusp-gate calls, to check that a change moves no bit of the search.

    python scripts/check_search_bits.py
    python scripts/check_search_bits.py --against HEAD~1 --passes 20 --seed 1

Runs ``measure_correlations`` on the benchmark workload's 57 items at seeds 1,
2 and 20260810 (perfbench/workloads.py's ``measure_items``, imported
read-only), and on ROADMAP item 4's 24 cusp-gate states at q in {0.3, 0.5},
every side, 8 restarts, seed = state index, where a last-bit change can send a
descent into another cusp.  Prints one SHA-256 per call over ``value``,
``nfev``, ``iterations``, ``grad_norm``, ``converged``, ``spread``,
``basin_hits`` and the argmin unitaries' bytes, with the value and the
``converged`` flag, then one digest over all 315.  Then, per group of calls,
the search's work: its lockstep rounds (per call, the longest row's
iterations + 1, the first evaluation included) and its ``nfev``, read by
wrapping the loaded package's ``correlations._lockstep`` while the calls run
(``recorded_runs``).  On a 2-vCPU shared
host it took 6.6-8.6 s, and 12.9-14.5 s with ``--against``.

``--against REF`` (a checkout's directory, or a commit, exported by
``bench_pairs.export``) imports REF's src/qcorr into this process too, under
another name (the package's imports are all relative), digests the same
calls with it and exits 1 if any differs.  It prints REF's work per group,
each differing call's two values and their difference (this checkout's minus
REF's), then per group (benchmark calls at s = 0 or q = 1, the other
benchmark calls, the cusp gate at q = 0.3 and at q = 0.5) the count that
differ, the largest move up and down, and the calls converged in each tree
and flipped.  ``--passes N`` then loads this checkout a second time, under a
third name, and times N passes over the 57 items at ``--seed`` in each of the
three trees, the order rotating from pass to pass.  It prints each tree's
median and fastest pass, then by ``bench_pairs.compare`` REF's IQR and
whether the medians differ by more, this median over REF's, the passes won
and the largest |value difference|, and beside it this median over the
second copy's and the passes won: the A/A noise floor of one process.  A gap can be read only when
``this / ref`` lies further from 1 than ``this / this again``.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import itertools
import math
import pathlib
import statistics
import sys
import tempfile
import time

import numpy as np

from bench_pairs import compare, export

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


@contextlib.contextmanager
def recorded_runs(qc):
    """A list to which each search of the package ``qc`` in the block appends its ``LocalSearch`` rows, in call
    order, by wrapping ``qc.correlations._lockstep``; on exit the package has its own ``_lockstep`` again."""
    lockstep, runs = qc.correlations._lockstep, []

    def recorded(*args, **kwargs):
        runs.append(lockstep(*args, **kwargs))
        return runs[-1]

    qc.correlations._lockstep = recorded
    try:
        yield runs
    finally:
        qc.correlations._lockstep = lockstep


def bench_calls(qc, seed: int):
    """(group, label, rho, side, indices, options) of the benchmark's ``measure`` items at ``seed``."""
    import workloads

    for k, it in enumerate(workloads.measure_items(qc, seed)):
        opts = qc.OptimizerOptions(restarts=workloads.RESTARTS, seed=it.opt_seed)
        group = "benchmark, s = 0 or q = 1" if it.s == 0.0 or it.q == 1.0 else "benchmark, other"
        yield group, f"{seed} {k} {it.label}", it.rho, it.side, qc.EntropicIndices(it.q, it.s), opts


def cusp_calls(qc):
    """The cusp gate's calls, as ``bench_calls``: per rank and dims, four mixtures of random pure states."""
    rng = np.random.default_rng(7)
    for k, (rank, dims, _) in enumerate(itertools.product((2, 3), ((2, 2), (2, 3), (3, 3)), range(4))):
        weights = rng.dirichlet(np.ones(rank))
        vectors = [qc.random_pure(dims, rng) for _ in range(rank)]
        rho = qc.make_density(sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vectors)), dims)
        for q, side in itertools.product((0.3, 0.5), ("A", "B", "AB")):
            opts = qc.OptimizerOptions(restarts=8, seed=k)
            yield f"cusp gate, q = {q}", f"cusp {k} rank {rank} {dims} q={q} {side}", rho, side, qc.EntropicIndices(q, 1.0), opts


def digest(qc, group: str, label: str, *args) -> tuple[str, str, float, bool]:
    """(group, "label: sha256 value converged=flag", value, converged) of one call, with the package ``qc``."""
    res = qc.measure_correlations(*args)
    h = hashlib.sha256(repr((float(res.value).hex(), res.nfev, res.iterations, float(res.grad_norm).hex(),
                             bool(res.converged), float(res.spread).hex(), res.basin_hits)).encode())
    for basis in (res.argmin.basis_a, res.argmin.basis_b):
        if basis is not None:
            u = np.ascontiguousarray(basis.unitary)
            h.update(repr((u.dtype.str, u.shape)).encode() + u.tobytes())
    value, converged = float(res.value), bool(res.converged)
    return group, f"{label}: {h.hexdigest()} {value!r} converged={converged}", value, converged


def digests(qc) -> tuple[list[tuple[str, str, float, bool]], list]:
    """``digest`` of every call, the benchmark's at three seeds, then the cusp gate's, and each call's
    ``LocalSearch`` rows (``recorded_runs``), in the same order."""
    calls = itertools.chain(*(bench_calls(qc, seed) for seed in (1, 2, 20260810)), cusp_calls(qc))
    with recorded_runs(qc) as runs:
        return [digest(qc, *call) for call in calls], runs


def work_lines(tree: str, rows: list, runs: list) -> list[str]:
    """Per group of ``digests`` rows, the lockstep rounds and ``nfev`` of ``runs``, each call's ``LocalSearch`` rows.

    A call's rounds are its longest row's iterations + 1: the loop's passes that evaluate, the first one included.
    """
    totals = {}
    for (group, *_), call in zip(rows, runs, strict=True):
        total = totals.setdefault(group, [0, 0])
        total[0] += max(r.nit for r in call) + 1
        total[1] += sum(r.nfev for r in call)
    return [f"{tree}, {group}: {rounds} lockstep rounds, {nfev} nfev" for group, (rounds, nfev) in totals.items()]


def differences(here: list, there: list) -> tuple[list[str], int]:
    """The lines that report where two trees' ``digests`` differ, per call and per group, and the count that differ."""
    lines, groups = [], {}
    for (group, a, value, conv), (_, b, other, other_conv) in zip(here, there, strict=True):
        moved, counts = groups.setdefault(group, ([], [0, 0, 0, 0]))  # calls, converged here, there, flipped
        counts[:] = [n + flag for n, flag in zip(counts, (1, conv, other_conv, conv != other_conv))]
        if a != b:
            moved.append(value - other)
            lines.append(f"differs: {a.rsplit(':', 1)[0]}: {value!r} against {other!r}, difference {moved[-1]:.3g}"
                         f" ({moved[-1] / abs(other) if other else math.inf:.3g} relative)")
    for group, (moved, (calls, conv, other_conv, flipped)) in groups.items():
        sizes = f"; largest move up {max(moved):.3g}, down {min(moved):.3g}" if moved else ""
        lines.append(f"{group}: {len(moved)} of {calls} calls differ{sizes};"
                     f" converged on {conv} here, {other_conv} there, {flipped} flipped")
    return lines, sum(len(moved) for moved, _ in groups.values())


def timed_passes(trees: dict, seed: int, passes: int) -> list[str]:
    """The lines that compare ``passes`` timed passes over the ``measure`` items at ``seed`` in the ``trees``: REF,
    this checkout and this checkout loaded again, whose ratio to this one is the A/A noise floor."""
    calls = {name: [call[2:] for call in bench_calls(qc, seed)] for name, qc in trees.items()}
    times, values, names = {name: [] for name in trees}, {}, list(trees)
    for k in range(passes):
        for name in names[k % len(names):] + names[:k % len(names)]:
            start = time.perf_counter()
            values[name] = [trees[name].measure_correlations(*call).value for call in calls[name]]
            times[name].append(time.perf_counter() - start)
    ref_median, this_median, ratio, iqr, won = compare(times["ref"], times["this"], higher=False)
    _, _, floor, _, floor_won = compare(times["this again"], times["this"], higher=False)
    gap, largest = this_median - ref_median, max(abs(a - b) for a, b in zip(values["ref"], values["this"]))
    return [f"{name}: median pass {statistics.median(times[name]):.4f} s, fastest {min(times[name]):.4f} s"
            f" ({len(calls[name])} items)" for name in names] + [
        f"ref IQR {iqr:.4f} s; the medians differ by {gap:+.4f} s, {'more' if abs(gap) > iqr else 'no more'} than that",
        f"this / ref: median ratio {ratio:.4f}, this won {won} of {passes} passes; largest |value difference| {largest:.3g}",
        f"this / this again: median ratio {floor:.4f}, this won {floor_won} of {passes} passes (the A/A noise floor)"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="another checkout, or a commit: print every call that differs")
    parser.add_argument("--passes", type=int, default=0, help="then time this many passes in each tree")
    parser.add_argument("--seed", type=int, default=1, help="the seed of the timed passes' items")
    args = parser.parse_args(argv)
    if args.passes < 0 or (args.passes and args.against is None):
        parser.error("--passes must be >= 0, and needs --against")
    sys.dont_write_bytecode = True  # leave no __pycache__ in either tree or under perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    trees = {"this": load(ROOT / "src", "qcorr_this")}
    here, runs = digests(trees["this"])
    text = "\n".join(line for _, line, _, _ in here)
    print(f"{text}\noverall: {hashlib.sha256(text.encode()).hexdigest()}", flush=True)
    print("\n".join(work_lines("this", here, runs)), flush=True)
    if args.against is None:
        return 0
    with tempfile.TemporaryDirectory(prefix="qcorr-bits-ref-") as tmp:
        tree = pathlib.Path(args.against)
        if not tree.is_dir():
            tree = pathlib.Path(tmp)
            export(args.against, tree)
        trees = {"ref": load(tree.resolve() / "src", "qcorr_ref"), **trees}
        there, runs = digests(trees["ref"])
        report, count = differences(here, there)
        print("\n".join(work_lines("ref", there, runs)), flush=True)
        verdict = f"{count} of {len(here)} calls differ" if count else f"all {len(here)} calls identical"
        print("\n".join(report) + f"\nagainst {args.against}: {verdict}", flush=True)
        if args.passes:
            trees["this again"] = load(ROOT / "src", "qcorr_this_again")
            print("\n".join(timed_passes(trees, args.seed, args.passes)))
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main())
