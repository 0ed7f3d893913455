#!/usr/bin/env python3
"""Digest the benchmark's measure calls and the cusp-gate calls, to check that a change moves no bit of the search.

Runs ``measure_correlations`` on the benchmark workload's 57 items at seeds
1, 2 and 20260810 (perfbench/workloads.py's ``measure_items``, imported
read-only), and on ROADMAP item 4's 24 cusp-gate states at q in {0.3, 0.5},
every side, 8 restarts, seed = state index, where a last-bit change can send
a descent into another cusp.  Prints one SHA-256 per call over ``value``,
``nfev``, ``iterations``, ``grad_norm``, ``converged``, ``spread``,
``basin_hits`` and the argmin unitaries' bytes, with the value and the
``converged`` flag, then one digest over all 315.  Takes about 20 s;
``--against`` runs this script again on another checkout's src/ in a
subprocess and exits 1 if any call's digest differs; an argument that is
not a directory is a commit, exported with ``git archive`` into a temporary
directory as ``bench_pairs.py`` does.  It prints each differing call's two
values and their difference (this checkout's minus the other's), then per
group (benchmark calls at s = 0 or q = 1, the other benchmark calls, the
cusp gate at q = 0.3 and at q = 0.5) the count that differ and the largest
move up and down, and how many calls report ``converged`` in each checkout
and how many flipped.

    python scripts/check_search_bits.py
    python scripts/check_search_bits.py --against ../other-checkout
    python scripts/check_search_bits.py --against HEAD~1
"""

import argparse
import hashlib
import itertools
import math
import pathlib
import subprocess
import sys
import tempfile

from bench_pairs import export

ROOT = pathlib.Path(__file__).resolve().parent.parent


def calls(qcorr, np):
    """(group, label, rho, side, indices, options) of every digested call."""
    import workloads

    for seed in (1, 2, 20260810):
        for k, it in enumerate(workloads.measure_items(qcorr, seed)):
            opts = qcorr.OptimizerOptions(restarts=workloads.RESTARTS, seed=it.opt_seed)
            group = "benchmark, s = 0 or q = 1" if it.s == 0.0 or it.q == 1.0 else "benchmark, other"
            yield group, f"{seed} {k} {it.label}", it.rho, it.side, qcorr.EntropicIndices(it.q, it.s), opts
    # the cusp-gate states: per rank and dims, four mixtures of random pure states, from one stream
    rng = np.random.default_rng(7)
    for k, (rank, dims, _) in enumerate(itertools.product((2, 3), ((2, 2), (2, 3), (3, 3)), range(4))):
        weights = rng.dirichlet(np.ones(rank))
        vectors = [qcorr.random_pure(dims, rng) for _ in range(rank)]
        rho = qcorr.make_density(sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vectors)), dims)
        for q, side in itertools.product((0.3, 0.5), ("A", "B", "AB")):
            opts = qcorr.OptimizerOptions(restarts=8, seed=k)
            yield f"cusp gate, q = {q}", f"cusp {k} rank {rank} {dims} q={q} {side}", rho, side, qcorr.EntropicIndices(q, 1.0), opts


def call_digests(src: pathlib.Path) -> tuple[list[str], list[str]]:
    """Each call's group, and its "label: sha256 value converged=flag" line, with qcorr imported from ``src``."""
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import numpy as np

    import qcorr

    groups, lines = [], []
    for group, label, rho, side, idx, opts in calls(qcorr, np):
        res = qcorr.measure_correlations(rho, side, idx, opts)
        h = hashlib.sha256(repr((
            float(res.value).hex(), res.nfev, res.iterations, float(res.grad_norm).hex(),
            bool(res.converged), float(res.spread).hex(), res.basin_hits,
        )).encode())
        for basis in (res.argmin.basis_a, res.argmin.basis_b):
            if basis is not None:
                u = np.ascontiguousarray(basis.unitary)
                h.update(repr((u.dtype.str, u.shape)).encode() + u.tobytes())
        groups.append(group)
        lines.append(f"{label}: {h.hexdigest()} {float(res.value)!r} converged={bool(res.converged)}")
    return groups, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=pathlib.Path, default=ROOT / "src", help="import qcorr from here")
    parser.add_argument("--against", help="another checkout, or a commit: print every call that differs")
    args = parser.parse_args()
    groups, lines = call_digests(args.src.resolve())
    overall = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print("\n".join(lines) + f"\noverall: {overall}")
    if args.against is None:
        return 0
    with tempfile.TemporaryDirectory(prefix="qcorr-bits-ref-") as tmp:
        tree = pathlib.Path(args.against)
        if not tree.is_dir():
            tree = pathlib.Path(tmp)
            export(args.against, tree)
        # the other run's errors pass through to stderr; a failed run raises here
        other = subprocess.run(
            [sys.executable, __file__, "--src", str(tree.resolve() / "src")],
            stdout=subprocess.PIPE, text=True, check=True,
        ).stdout.splitlines()[:-1]
    moved = {group: [] for group in groups}  # the value differences, this checkout's minus the other's
    converged = {group: [0, 0, 0] for group in groups}  # calls converged here, there, and flipped
    for group, a, b in itertools.zip_longest(groups, lines, other, fillvalue=""):
        here, there = (x.endswith("converged=True") for x in (a, b))
        converged[group] = [n + k for n, k in zip(converged[group], (here, there, here != there))]
        if a != b:
            value, other_value = (float(x.split()[-2]) if x else math.nan for x in (a, b))
            diff = value - other_value
            moved[group].append(diff)
            print(f"differs: {a.rsplit(':', 1)[0]}: {value!r} against {other_value!r}, difference {diff:.3g}"
                  f" ({diff / abs(other_value) if other_value else math.inf:.3g} relative)")
    for group, diffs in moved.items():
        sizes = f"; largest move up {max(diffs):.3g}, down {min(diffs):.3g}" if diffs else ""
        here, there, flipped = converged[group]
        print(f"{group}: {len(diffs)} of {groups.count(group)} calls differ{sizes};"
              f" converged on {here} here, {there} there, {flipped} flipped")
    count = sum(map(len, moved.values()))
    verdict = f"{count} of {len(lines)} calls differ" if count else f"all {len(lines)} calls identical"
    print(f"against {args.against}: {verdict}")
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main())
