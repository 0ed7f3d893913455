#!/usr/bin/env python3
"""Digest every call of the benchmark's measure workload, to check that a change moves no bit of the search.

Builds the workload's 57 items at seeds 1, 2 and 20260810 with
perfbench/workloads.py's ``measure_items`` (imported read-only: no reference
is computed and nothing is written under perfbench/), runs
``measure_correlations`` on each with the workload's options, and prints one
SHA-256 per call over ``value``, ``nfev``, ``iterations``, ``grad_norm``,
``converged``, ``spread``, ``basin_hits`` and the bytes of the argmin
unitaries, then one digest over all of them.  Takes a few seconds.

    python scripts/check_search_bits.py
    python scripts/check_search_bits.py --against ../other-checkout

``--src DIR`` imports qcorr from DIR instead of this checkout's src/.
``--against PATH`` also runs this script on PATH/src in a subprocess and
prints every call whose digest differs; it exits 1 on any difference.
"""

import argparse
import hashlib
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 20260810)


def call_digests(src: pathlib.Path) -> list[str]:
    """One "seed k label: sha256" line per measure call, with qcorr imported from ``src``."""
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import numpy as np

    import qcorr
    import workloads

    lines = []
    for seed in SEEDS:
        for k, it in enumerate(workloads.measure_items(qcorr, seed)):
            opts = qcorr.OptimizerOptions(restarts=workloads.RESTARTS, seed=it.opt_seed)
            res = qcorr.measure_correlations(it.rho, it.side, qcorr.EntropicIndices(it.q, it.s), opts)
            h = hashlib.sha256(repr((
                float(res.value).hex(), res.nfev, res.iterations, float(res.grad_norm).hex(),
                bool(res.converged), float(res.spread).hex(), res.basin_hits,
            )).encode())
            for basis in (res.argmin.basis_a, res.argmin.basis_b):
                if basis is not None:
                    u = np.ascontiguousarray(basis.unitary)
                    h.update(repr((u.dtype.str, u.shape)).encode() + u.tobytes())
            lines.append(f"{seed} {k} {it.label}: {h.hexdigest()}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=pathlib.Path, default=ROOT / "src", help="import qcorr from here")
    parser.add_argument("--against", type=pathlib.Path, help="another checkout to compare with")
    args = parser.parse_args()
    lines = call_digests(args.src.resolve())
    overall = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print("\n".join(lines) + f"\noverall: {overall}")
    if args.against is None:
        return 0
    proc = subprocess.run(
        [sys.executable, __file__, "--src", str(args.against.resolve() / "src")],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(f"{args.against}: exit {proc.returncode}\n{proc.stderr}", end="")
        return 1
    other = proc.stdout.splitlines()
    if len(other) != len(lines) + 1:
        print(f"{args.against}: {len(other) - 1} calls against {len(lines)}")
        return 1
    moved = [a for a, b in zip(lines, other) if a != b]
    for line in moved:
        print(f"differs: {line.rsplit(':', 1)[0]}")
    verdict = f"{len(moved)} of {len(lines)} calls differ" if moved else f"all {len(lines)} calls identical"
    print(f"against {args.against}: {verdict}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
