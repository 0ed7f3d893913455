#!/usr/bin/env python3
"""Write every committed results/ CSV from its documented qcorr run, in about 20 s: python scripts/reproduce.py

``RUNS`` maps each CSV name to its ``qcorr`` argv, without ``--out``; it is the one copy of each documented
configuration, read by scripts/check_results.py and tests/test_cli.py.
"""

import pathlib
import sys
import time

from qcorr.cli import main

SEED = ("--seed", "20260810")
RUNS = {
    # contractivity sweep, 20 states x 1000 pairs: per (state, entropy family, q), the smallest unilocal
    # disturbance minus its rescaled value after a measurement on the other side; negative rows are violations
    "fig1.csv": ("fig1", *SEED),
    # per sample, the measure before and after appending a mixed ancilla; the unrescaled drift needs the purity factor
    "ancilla_check.csv": ("ancilla-check", "--q", "2", "--s", "1", "--samples", "20", *SEED),
    # 200 random two-qubit states: three minimized measures, Delta_0/Delta_1, inequality flags, violation counts
    "triangle_scan.csv": ("triangle-scan", *SEED),
}
# per analytic family and index pair: the closed form against the optimizer (Werner adds the printed form)
RUNS.update(
    (f"{family}_q{q}_s{s}.csv", ("family-curve", "--family", family, "--N", "2", "--q", q, "--s", s,
                                 "--grid", "11", "--restarts", "8", *SEED))
    for family in ("pseudopure", "isotropic", "werner")
    for q, s in (("1", "1"), ("2", "1"))
)


def run_all(out_dir) -> dict[str, tuple[int, float]]:
    """Write every CSV of ``RUNS`` into the directory ``out_dir``: (exit status, wall seconds) per name."""
    done = {}
    for name, argv in RUNS.items():
        start = time.perf_counter()
        done[name] = main([*argv, "--out", str(pathlib.Path(out_dir, name))]), time.perf_counter() - start
    return done


if __name__ == "__main__":
    results = pathlib.Path(__file__).resolve().parent.parent / "results"
    sys.exit(max(status for status, _ in run_all(results).values()))
