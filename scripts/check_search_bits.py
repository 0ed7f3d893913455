#!/usr/bin/env python3
"""Digest the benchmark's measure calls and the cusp-gate calls, to check that a change moves no bit of the search.

Runs ``measure_correlations`` on the benchmark workload's 57 items at seeds
1, 2 and 20260810 (perfbench/workloads.py's ``measure_items``, imported
read-only), and on ROADMAP item 4's 24 cusp-gate states at q in {0.3, 0.5},
every side, 8 restarts, seed = state index, where a last-bit change can send
a descent into another cusp.  Prints one SHA-256 per call over ``value``,
``nfev``, ``iterations``, ``grad_norm``, ``converged``, ``spread``,
``basin_hits`` and the argmin unitaries' bytes, then one digest over all
315.  Takes about 20 s; ``--against`` runs this script again on another
checkout's src/ in a subprocess and exits 1 if any call's digest differs.

    python scripts/check_search_bits.py
    python scripts/check_search_bits.py --against ../other-checkout
"""

import argparse
import hashlib
import itertools
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def calls(qcorr, np):
    """(label, rho, side, indices, options) of every digested call."""
    import workloads

    for seed in (1, 2, 20260810):
        for k, it in enumerate(workloads.measure_items(qcorr, seed)):
            opts = qcorr.OptimizerOptions(restarts=workloads.RESTARTS, seed=it.opt_seed)
            yield f"{seed} {k} {it.label}", it.rho, it.side, qcorr.EntropicIndices(it.q, it.s), opts
    # the cusp-gate states: per rank and dims, four mixtures of random pure states, from one stream
    rng = np.random.default_rng(7)
    for k, (rank, dims, _) in enumerate(itertools.product((2, 3), ((2, 2), (2, 3), (3, 3)), range(4))):
        weights = rng.dirichlet(np.ones(rank))
        vectors = [qcorr.random_pure(dims, rng) for _ in range(rank)]
        rho = qcorr.make_density(sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vectors)), dims)
        for q, side in itertools.product((0.3, 0.5), ("A", "B", "AB")):
            opts = qcorr.OptimizerOptions(restarts=8, seed=k)
            yield f"cusp {k} rank {rank} {dims} q={q} {side}", rho, side, qcorr.EntropicIndices(q, 1.0), opts


def call_digests(src: pathlib.Path) -> list[str]:
    """One "label: sha256" line per call, with qcorr imported from ``src``."""
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import numpy as np

    import qcorr

    lines = []
    for label, rho, side, idx, opts in calls(qcorr, np):
        res = qcorr.measure_correlations(rho, side, idx, opts)
        h = hashlib.sha256(repr((
            float(res.value).hex(), res.nfev, res.iterations, float(res.grad_norm).hex(),
            bool(res.converged), float(res.spread).hex(), res.basin_hits,
        )).encode())
        for basis in (res.argmin.basis_a, res.argmin.basis_b):
            if basis is not None:
                u = np.ascontiguousarray(basis.unitary)
                h.update(repr((u.dtype.str, u.shape)).encode() + u.tobytes())
        lines.append(f"{label}: {h.hexdigest()}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=pathlib.Path, default=ROOT / "src", help="import qcorr from here")
    parser.add_argument("--against", type=pathlib.Path, help="another checkout: print every call that differs")
    args = parser.parse_args()
    lines = call_digests(args.src.resolve())
    overall = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print("\n".join(lines) + f"\noverall: {overall}")
    if args.against is None:
        return 0
    # the other run's errors pass through to stderr; a failed run raises here
    other = subprocess.run(
        [sys.executable, __file__, "--src", str(args.against.resolve() / "src")],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.splitlines()[:-1]
    moved = [a.rsplit(":", 1)[0] for a, b in itertools.zip_longest(lines, other, fillvalue="") if a != b]
    print("".join(f"differs: {label}\n" for label in moved), end="")
    verdict = f"{len(moved)} of {len(lines)} calls differ" if moved else f"all {len(lines)} calls identical"
    print(f"against {args.against}: {verdict}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
