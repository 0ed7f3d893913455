#!/usr/bin/env python3
"""Triangle/ordering inequality scan over 200 random two-qubit states.

Writes results/triangle_scan.csv with the three minimized measures, the
Delta_0/Delta_1 diagnostics and per-row inequality flags; the footer counts
violations.  Takes about 20 s with the default budget.
"""

import pathlib
import sys

from qcorr.cli import main

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"
RESULTS.mkdir(exist_ok=True)

sys.exit(main([
    "triangle-scan", "--seed", "20260810",
    "--out", str(RESULTS / "triangle_scan.csv"),
]))
