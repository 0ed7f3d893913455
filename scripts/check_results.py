#!/usr/bin/env python3
"""Regenerate every results/ CSV in a temporary directory and compare it with the committed one.

Copies scripts/ into a temporary directory and runs each run_*.py there with
this checkout's src/ on PYTHONPATH; each script writes results/ beside its
own parent directory, so the committed files are never touched.  For each
CSV, prints "identical" when its header and rows match the committed file
byte for byte, and otherwise the number of rows that moved and the largest
absolute difference in each numeric column that moved.  "#" metadata lines
(config echo, summary footer) are compared too.  Exits 1 on any difference
or failed script.  Takes about half a minute, most of it the triangle scan.

    python scripts/check_results.py
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


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
        diffs = []
        for a, b in moved:
            if a[col] != b[col]:
                try:
                    diffs.append(abs(float(a[col]) - float(b[col])))
                except ValueError:
                    diffs.append(float("nan"))
        if diffs:
            notes.append(f"{name}: {len(diffs)} cells, largest difference {max(diffs):.3g}")
    return notes


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    failed = False
    with tempfile.TemporaryDirectory(prefix="qcorr-results-") as tmp:
        scripts = pathlib.Path(tmp) / "scripts"
        shutil.copytree(ROOT / "scripts", scripts)
        for script in sorted(scripts.glob("run_*.py")):
            proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{script.name}: exit {proc.returncode}\n{proc.stderr}", end="")
                failed = True
        made = {p.name: p for p in (pathlib.Path(tmp) / "results").glob("*.csv")}
        for name in sorted(set(made) | {p.name for p in (ROOT / "results").glob("*.csv")}):
            committed = ROOT / "results" / name
            if name not in made or not committed.exists():
                print(f"{name}: {'not regenerated' if name not in made else 'not committed'}")
                failed = True
                continue
            notes = compare(made[name], committed)
            print(f"{name}: " + ("; ".join(notes) if notes else "identical"))
            failed |= bool(notes)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
