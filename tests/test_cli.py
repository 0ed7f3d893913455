import math
import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcorr import cli, linalg
from qcorr.cli import ParseError, main, parse_state_file, write_state_file
from qcorr.correlations import OptimizerOptions, measure_correlations, qubit_oracle
from qcorr.entropy import EntropicIndices
from qcorr.measurement import LocalMeasurement, ProjectiveBasis, disturbance
from util import bell_density

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


def run(args):
    return main(list(args))


def read_rows(path):
    """Parse a CSV file: (metadata lines, header, rows as string lists)."""
    meta, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def cell(header, row, name):
    return row[header.index(name)]


def config_line(path):
    """The ``# config:`` metadata line of a CSV file."""
    return next(line for line in path.read_text().splitlines() if line.startswith("# config:"))


class TestStateFile:
    def test_round_trip(self, tmp_path, rng=np.random.default_rng(1)):
        rho = linalg.random_density((2, 2), rng)
        path = tmp_path / "state.txt"
        write_state_file(path, rho)
        again = parse_state_file(path)
        assert again.dims == (2, 2)
        assert np.max(np.abs(again.matrix - rho.matrix)) < 1e-12

    def test_bell_file(self, tmp_path):
        path = tmp_path / "bell.txt"
        path.write_text(
            "dims: 2 2\n0 0 0.5 0\n0 3 0.5 0\n3 0 0.5 0\n3 3 0.5 0\n"
        )
        rho = parse_state_file(path)
        assert np.max(np.abs(rho.matrix - bell_density().matrix)) < 1e-12

    def test_missing_dims_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 1 0\n")
        with pytest.raises(ParseError):
            parse_state_file(path)

    def test_entry_out_of_range(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dims: 2\n5 0 1 0\n")
        with pytest.raises(ParseError):
            parse_state_file(path)

    def test_malformed_entry(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dims: 2\n0 0 1\n")
        with pytest.raises(ParseError):
            parse_state_file(path)

    def test_repeated_entry_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dims: 2\n0 0 0.5 0\n1 1 0.5 0\n0 0 0.25 0\n")
        with pytest.raises(ParseError, match="0 0 0.25 0"):
            parse_state_file(path)

    def test_non_finite_entry_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dims: 2\n0 0 nan 0\n1 1 0.5 0\n")
        with pytest.raises(linalg.NotFinite):
            parse_state_file(path)

    def test_validation_through_make_density(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dims: 2\n0 0 1.2 0\n1 1 -0.2 0\n")
        with pytest.raises(linalg.NotPositive):
            parse_state_file(path)


class TestEntropyCommand:
    def test_pure_state_entropy_zero(self, tmp_path):
        out = tmp_path / "e.csv"
        assert run(["entropy", "--family", "isotropic", "--N", "2", "--y", "1",
                    "--q", "2", "--s", "1", "--out", str(out)]) == 0
        meta, header, rows = read_rows(out)
        assert abs(float(cell(header, rows[0], "entropy"))) < 1e-12
        assert_allclose(float(cell(header, rows[0], "max_entropy")), 0.75, atol=1e-12)

    def test_state_file_source(self, tmp_path):
        state = tmp_path / "s.txt"
        write_state_file(state, bell_density())
        out = tmp_path / "e.csv"
        assert run(["entropy", "--state-file", str(state), "--q", "1,2", "--s", "1,1",
                    "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert len(rows) == 2
        assert abs(float(cell(header, rows[0], "entropy"))) < 1e-10


class TestMeasureCommand:
    def test_isotropic_pure_von_neumann(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["measure", "--family", "isotropic", "--N", "2", "--y", "1",
                    "--q", "1", "--s", "1", "--side", "A", "--restarts", "4",
                    "--seed", "1", "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert abs(float(cell(header, rows[0], "value")) - math.log(2)) < 1e-6
        assert cell(header, rows[0], "converged") == "true"

    def test_pseudopure_noise_only(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["measure", "--family", "pseudopure", "--N", "2", "--p", "0",
                    "--q", "2", "--s", "1", "--restarts", "4", "--seed", "1",
                    "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert abs(float(cell(header, rows[0], "value"))) < 1e-8

    def test_werner_desk_value(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["measure", "--family", "werner", "--N", "2", "--x", "1",
                    "--q", "2", "--s", "1", "--side", "B", "--restarts", "4",
                    "--seed", "1", "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert abs(float(cell(header, rows[0], "value")) - 1.0 / 6.0) < 1e-6

    @pytest.mark.parametrize("side", ["A", "B", "AB"])
    def test_printed_basis_round_trips(self, side, tmp_path):
        """The basis columns read back into bases that give the printed value; the evidence columns are the result's.

        Each basis column holds the unitary's entries, row-major, each as its
        real then its imaginary part; ``ProjectiveBasis`` checks that the
        parsed matrix is unitary.
        """
        state, out = tmp_path / "state.txt", tmp_path / "m.csv"
        write_state_file(state, linalg.random_density((2, 3), np.random.default_rng(5)))
        assert run(["measure", "--state-file", str(state), "--side", side, "--q", "2", "--s", "1",
                    "--restarts", "4", "--seed", "1", "--out", str(out)]) == 0
        _, header, (row,) = read_rows(out)
        bases = {}
        for name, n in zip("ab", (2, 3)):
            text = cell(header, row, f"basis_{name}")
            if name.upper() not in side:
                assert text == ""
                continue
            parts = np.array([float(x) for x in text.split(";")])
            assert parts.shape == (2 * n * n,)
            bases[f"basis_{name}"] = ProjectiveBasis(parts.view(complex).reshape(n, n))
        rho, idx = parse_state_file(state), EntropicIndices(2.0, 1.0)
        value = float(cell(header, row, "value"))
        assert value > 0.01
        assert abs(disturbance(rho, LocalMeasurement(side, **bases), idx).disturbance - value) <= 1e-14 * value
        res = measure_correlations(rho, side, idx, OptimizerOptions(restarts=4, seed=1))
        printed = {name: cell(header, row, name) for name in ("grad_norm", "basin_hits", "nfev", "converged")}
        assert printed == {name: cli._fmt(getattr(res, name)) for name in printed}


class TestFamilyCurveCommand:
    def test_pseudopure_endpoints_von_neumann(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["family-curve", "--family", "pseudopure", "--N", "2",
                    "--q", "1", "--s", "1", "--grid", "5", "--restarts", "2",
                    "--seed", "2", "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        closed = [float(cell(header, r, "closed_form")) for r in rows]
        assert abs(closed[0]) < 1e-12
        assert abs(closed[-1] - math.log(2)) < 1e-12
        for r in rows:
            assert float(cell(header, r, "abs_diff")) <= 1e-6

    def test_werner_reports_printed_discrepancy(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["family-curve", "--family", "werner", "--N", "2",
                    "--q", "1", "--s", "1", "--grid", "3", "--restarts", "2",
                    "--seed", "2", "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert "printed_form" in header
        x_minus_one = rows[0]
        assert float(cell(header, x_minus_one, "parameter")) == -1.0
        assert abs(float(cell(header, x_minus_one, "printed_minus_closed"))) > 0.1


class TestFig1Command:
    def test_structure_and_flags(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run(["fig1", "--q", "1,2", "--n-states", "2", "--trials", "50",
                    "--seed", "9", "--out", str(out)]) == 0
        meta, header, rows = read_rows(out)
        assert header == ["state_id", "family", "q", "min_difference", "violated"]
        assert len(rows) == 2 * 2 * 2
        for r in rows:
            violated = cell(header, r, "violated") == "true"
            assert violated == (float(cell(header, r, "min_difference")) < -1e-6)
        assert any("summary:" in m for m in meta)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["fig1", "--q", "0.5,2", "--n-states", "2", "--trials", "40", "--seed", "3"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_documented_run_matches_committed_results(self, tmp_path):
        """The default sweep (20 states x 1000 pairs) reproduces results/fig1.csv."""
        out = tmp_path / "fig1.csv"
        assert run(["fig1", "--seed", "20260810", "--out", str(out)]) == 0

        def body(path):
            return [line for line in path.read_bytes().splitlines() if not line.startswith(b"#")]

        committed = body(RESULTS / "fig1.csv")
        assert len(committed) == 1 + 20 * 2 * 14
        assert body(out) == committed
        assert config_line(out) == config_line(RESULTS / "fig1.csv")

    def test_seed_changes_draws(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["fig1", "--q", "2", "--n-states", "1", "--trials", "30",
                    "--seed", "3", "--out", str(a)]) == 0
        assert run(["fig1", "--q", "2", "--n-states", "1", "--trials", "30",
                    "--seed", "4", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()


class TestAncillaCheckCommand:
    def test_mixed_ancilla_shows_unrescaled_drift(self, tmp_path):
        out = tmp_path / "a.csv"
        assert run(["ancilla-check", "--samples", "3", "--q", "2", "--s", "1",
                    "--restarts", "3", "--seed", "4", "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        rescaled = [float(cell(header, r, "rescaled_diff")) for r in rows]
        unrescaled = [float(cell(header, r, "unrescaled_diff")) for r in rows]
        assert max(rescaled) <= 1e-6
        assert max(unrescaled) > 1e-3

    def test_pure_ancilla_keeps_both_small(self, tmp_path):
        out = tmp_path / "a.csv"
        assert run(["ancilla-check", "--samples", "2", "--ancilla", "pure",
                    "--q", "2", "--s", "1", "--restarts", "3", "--seed", "4",
                    "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert max(float(cell(header, r, "unrescaled_diff")) for r in rows) <= 1e-6

    def test_renyi_regime_additive(self, tmp_path):
        out = tmp_path / "a.csv"
        assert run(["ancilla-check", "--samples", "2", "--q", "2", "--s", "0",
                    "--restarts", "3", "--seed", "4", "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        for r in rows:
            assert float(cell(header, r, "rescaled_diff")) <= 1e-6
            assert float(cell(header, r, "unrescaled_diff")) <= 1e-6

    def test_other_grouping(self, tmp_path):
        out = tmp_path / "a.csv"
        assert run(["ancilla-check", "--samples", "2", "--grouping", "b-ac",
                    "--q", "3", "--s", "1", "--restarts", "3", "--seed", "6",
                    "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert max(float(cell(header, r, "rescaled_diff")) for r in rows) <= 1e-6

    def test_documented_run_matches_qubit_oracle(self, tmp_path):
        """scripts/run_ancilla_check.py's configuration: every value is exact.

        Every row measures a qubit at (q, s) = (2, 1), before and after the
        ancilla is grouped with B, so each value has a closed form.
        """
        out = tmp_path / "a.csv"
        assert run(["ancilla-check", "--q", "2", "--s", "1", "--samples", "20",
                    "--seed", "20260810", "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert len(rows) == 20
        worst = 0.0
        for r in rows:
            rng = np.random.default_rng([20260810, int(cell(header, r, "sample_id"))])
            rho = linalg.random_density((2, 2), rng)
            grouped = linalg.regroup(linalg.tensor(rho, cli._build_ancilla("mixed", 2, rng)), [0])
            worst = max(
                worst,
                abs(float(cell(header, r, "d_before")) - qubit_oracle(rho, "A")),
                abs(float(cell(header, r, "d_after_ancilla")) - qubit_oracle(grouped, "A")),
            )
        assert worst <= 1e-9


class TestTriangleScanCommand:
    def test_footer_matches_rows(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["triangle-scan", "--n-states", "2", "--q", "1,2", "--s", "1,1",
                    "--restarts", "3", "--seed", "8", "--out", str(out)]) == 0
        meta, header, rows = read_rows(out)
        assert len(rows) == 4
        footer = next(m for m in meta if "summary:" in m)
        n_triangle = sum(1 for r in rows if cell(header, r, "triangle_holds") == "false")
        assert f"triangle_violations={n_triangle}" in footer
        for r in rows:
            m_ab = float(cell(header, r, "m_ab"))
            m_a = float(cell(header, r, "m_a"))
            m_b = float(cell(header, r, "m_b"))
            assert (cell(header, r, "ordering_holds") == "true") == (
                m_ab >= max(m_a, m_b) - 1e-8
            )

    def test_documented_run_matches_committed_results(self, tmp_path):
        """The first states of the default scan reproduce results/triangle_scan.csv."""
        # each state's five rows depend only on its own state id
        out = tmp_path / "t.csv"
        assert run(["triangle-scan", "--seed", "20260810", "--n-states", "3", "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        _, committed_header, committed = read_rows(RESULTS / "triangle_scan.csv")
        assert len(committed) == 200 * 5
        assert header == committed_header
        assert rows == committed[:15]
        committed_config = config_line(RESULTS / "triangle_scan.csv")
        assert config_line(out) == committed_config.replace(" n_states=200 ", " n_states=3 ")


# the configurations of scripts/run_ancilla_check.py and scripts/run_family_curves.py
DOCUMENTED_RUNS = [
    ("ancilla_check.csv", ["ancilla-check", "--q", "2", "--s", "1", "--samples", "20", "--seed", "20260810"]),
] + [
    (f"{family}_q{q}_s{s}.csv", ["family-curve", "--family", family, "--N", "2", "--q", q, "--s", s,
                                 "--grid", "11", "--restarts", "8", "--seed", "20260810"])
    for family in ("pseudopure", "isotropic", "werner")
    for q, s in (("1", "1"), ("2", "1"))
]


@pytest.mark.parametrize("name,args", DOCUMENTED_RUNS, ids=[name for name, _ in DOCUMENTED_RUNS])
def test_documented_run_reproduces_committed_csv(name, args, tmp_path):
    out = tmp_path / name
    assert run(args + ["--out", str(out)]) == 0

    def body(path):
        return [line for line in path.read_bytes().splitlines() if not line.startswith(b"#")]

    assert body(out) == body(RESULTS / name)
    assert config_line(out) == config_line(RESULTS / name)


def test_committed_results_carry_the_current_schema():
    paths = sorted(RESULTS.glob("*.csv"))
    assert paths
    stale = [p.name for p in paths if p.read_text().splitlines()[0] != f"# schema_version={cli.SCHEMA_VERSION}"]
    assert stale == []


class TestErrorsAndDeterminism:
    def test_missing_family_parameter_fails(self, capsys):
        assert run(["measure", "--family", "pseudopure", "--N", "2",
                    "--seed", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_state_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a state\n")
        assert run(["entropy", "--state-file", str(bad)]) == 1

    def test_nan_state_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "nan.txt"
        bad.write_text("dims: 2 2\n0 0 0.5 0\n3 3 nan 0\n")
        assert run(["measure", "--state-file", str(bad), "--seed", "1"]) == 1
        assert "NaN" in capsys.readouterr().err

    def test_no_source_fails(self):
        assert run(["entropy"]) == 1

    @pytest.mark.parametrize("q,s", [("2", "nan"), ("inf", "1")])
    def test_non_finite_indices_fail(self, q, s, capsys):
        assert run(["measure", "--family", "werner", "--N", "2", "--x", "1",
                    "--q", q, "--s", s, "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert "value=" not in captured.out

    @pytest.mark.parametrize("line", [
        "fig1 --n-states -3",
        "fig1 --n-states 0",
        "triangle-scan --n-states -2",
        "ancilla-check --samples -1",
        "family-curve --family werner --N 2 --grid -1",
        "family-curve --family werner --N 2 --grid 0",
        "fig1 --trials 0",
        "fig1 --q ,",
        "triangle-scan --q 1 --s ''",
        "triangle-scan --s 1 --q ''",
        "entropy --family werner --N 2 --x 0 --q ,",
        "measure --family werner --N 2 --x 1 --restarts 0",
        "triangle-scan --restarts 0",
        "ancilla-check --samples 1 --restarts 0",
        "family-curve --family werner --N 2 --grid 2 --restarts 0",
        "family-curve --family werner --grid 2 --N 0",
        "measure --family werner --x 1 --N 0",
    ], ids=lambda line: "_".join(line.split()))
    def test_counts_below_one_fail(self, line, tmp_path, capsys):
        """A count below 1, or an empty --q or --s list, is a named error and writes no file."""
        args, out = shlex.split(line), tmp_path / "out.csv"
        seed = [] if args[0] == "entropy" else ["--seed", "1"]
        assert run(args + seed + ["--out", str(out)]) == 1
        flag, value = args[-2:]
        rule = "must be >= 1" if value.lstrip("-").isdigit() else "lists no numbers"
        assert f"error: {flag} {rule}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, flag", [
        ("ancilla-check --ancilla-dim 0 --samples 1 --seed 1", "--ancilla-dim"),
        ("ancilla-check --dims 0,2 --samples 1 --seed 1", "--dims"),
    ], ids=["ancilla-dim", "dims"])
    def test_ancilla_check_dimensions_below_one_fail(self, line, flag, capsys):
        """Each dimension error names its flag."""
        assert run(line.split()) == 1
        err = capsys.readouterr().err
        assert f"error: {flag} " in err and "must be >= 1" in err

    @pytest.mark.parametrize("line", [
        "family-curve --family werner --N 1 --grid 2 --seed 1",
        "measure --family isotropic --N 1 --y 1 --seed 1",
    ], ids=lambda line: "_".join(line.split()[:3]))
    def test_single_level_symmetric_family_fails(self, line, capsys):
        assert run(line.split()) == 1
        assert "states need N >= 2, got N = 1" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "entropy --q 400 --s -5",
        "measure --side A --q 400 --s -5 --seed 1",
    ], ids=["entropy", "measure"])
    def test_float_overflow_is_a_named_error(self, line, tmp_path):
        """exp(s d) beyond the float range ends in one error line naming the overflow, not a traceback.

        Run in a child, so stderr is what a user sees under Python's default warning filters.
        """
        path = tmp_path / "state.txt"
        write_state_file(path, linalg.random_density((2, 2), np.random.default_rng(3)))
        command, *flags = line.split()
        proc = run_child(["-m", "qcorr", command, "--state-file", str(path), *flags])
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: float overflow: "), proc.stderr
        assert proc.stdout == ""

    def test_zero_restarts_fail(self, capsys):
        assert run(["measure", "--family", "werner", "--N", "2", "--x", "1",
                    "--q", "2", "--s", "1", "--restarts", "0", "--seed", "1"]) == 1
        assert "restarts" in capsys.readouterr().err

    def test_stdout_mode(self, capsys):
        assert run(["entropy", "--family", "werner", "--N", "2", "--x", "0",
                    "--q", "2", "--s", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"# schema_version={cli.SCHEMA_VERSION}\n")
        assert "entropy" in out

    def test_console_entry_point(self):
        proc = run_child(["-m", "qcorr", "entropy", "--family", "isotropic",
                          "--N", "2", "--y", "0.25", "--q", "2", "--s", "1"])
        assert proc.returncode == 0
        assert proc.stdout.startswith(f"# schema_version={cli.SCHEMA_VERSION}\n")

    def test_runtime_needs_numpy_only(self):
        proc = run_child(["-c", "import sys, qcorr, qcorr.cli; "
                          "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"])
        assert proc.returncode == 0
        assert proc.stdout.strip() == "[]"


def run_child(args):
    """Run python with ``args`` in a child that imports this checkout's package, installed or not."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
