#!/usr/bin/env python3
"""Regenerate every results/ CSV in a temporary directory and compare it with the committed one.

Runs scripts/reproduce.py's ``RUNS`` in this process, with this checkout's src/ first on the import path.
For each CSV, prints "identical" when its "#" metadata lines, header and rows match the committed file
byte for byte, and otherwise the number of rows that moved, the largest absolute difference in each
numeric column that moved and the number of cells changed in each other column (a flag such as
``*_holds`` or ``violated``); then the run's wall time.  Ends with the line count of src/qcorr and the
time to import ``qcorr`` and ``qcorr.cli``: the median over 7 fresh interpreters with
PYTHONDONTWRITEBYTECODE=1, timed after numpy is imported.  With no ``__pycache__`` under src/ (that setting
writes none), each import compiles src/qcorr from source, as the benchmark's ``setup_s`` laps do.
Exits 1 on any difference or failed run.

    python scripts/check_results.py
"""

import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
IMPORT_PROBE = "import time, numpy; t = time.perf_counter(); import qcorr, qcorr.cli; print(time.perf_counter() - t)"


def split(path):
    """(metadata lines, header, rows as cell lists) of a CSV file."""
    meta, body = [], []
    for line in path.read_text(encoding="ascii").splitlines():
        (meta if line.startswith("#") else body).append(line)
    return meta, body[0].split(","), [line.split(",") for line in body[1:]]


def compare(new, old) -> list[str]:
    """Lines describing how ``new`` differs from ``old``; empty when they match."""
    meta_new, header_new, rows_new = split(new)
    meta_old, header_old, rows_old = split(old)
    notes = []
    if meta_new != meta_old:
        notes.append("metadata lines differ")
    if header_new != header_old:
        return notes + [f"header differs: {','.join(header_new)}"]
    if len(rows_new) != len(rows_old):
        notes.append(f"{len(rows_new)} rows against {len(rows_old)} committed")
    moved = [(a, b) for a, b in zip(rows_new, rows_old) if a != b]
    if moved:
        notes.append(f"{len(moved)} of {len(rows_old)} rows moved")
    for col, name in enumerate(header_old):
        cells = [(a[col], b[col]) for a, b in moved if a[col] != b[col]]
        if not cells:
            continue
        try:
            largest = max(abs(float(a) - float(b)) for a, b in cells)
        except ValueError:  # a non-numeric cell: a flag flip has no size
            notes.append(f"{name}: {len(cells)} cells changed")
        else:
            notes.append(f"{name}: {len(cells)} cells, largest difference {largest:.3g}")
    return notes


def import_seconds(runs: int = 7) -> float:
    """Median seconds to import qcorr and qcorr.cli from src/ in ``runs`` fresh interpreters, numpy already imported."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    probe = [sys.executable, "-c", IMPORT_PROBE]
    return statistics.median(
        float(subprocess.run(probe, env=env, capture_output=True, text=True, check=True).stdout) for _ in range(runs))


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))  # reproduce imports qcorr from this checkout
    from reproduce import run_all

    failed = False
    with tempfile.TemporaryDirectory(prefix="qcorr-results-") as tmp:
        runs = run_all(tmp)
        for name in sorted(set(runs) | {p.name for p in (ROOT / "results").glob("*.csv")}):
            made, committed = pathlib.Path(tmp) / name, ROOT / "results" / name
            status, seconds = runs.get(name, (0, None))
            if status or not (made.exists() and committed.exists()):
                notes = [f"exit {status}" if status else "not committed" if made.exists() else "not regenerated"]
            else:
                notes = compare(made, committed)
            took = "" if seconds is None else f" ({seconds:.2f} s)"
            print(f"{name}: {'; '.join(notes) or 'identical'}{took}")
            failed |= bool(notes)
    lines = sum(len(path.read_bytes().splitlines()) for path in (ROOT / "src" / "qcorr").glob("*.py"))
    print(f"src/qcorr: {lines} lines")
    print(f"import qcorr, qcorr.cli: {1e3 * import_seconds():.1f} ms (median of 7 fresh interpreters, from source)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
