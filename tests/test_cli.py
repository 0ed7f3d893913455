import argparse
import importlib.util
import math
import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcorr import cli, families, linalg
from qcorr.cli import ParseError, main, parse_state_file
from qcorr.correlations import OptimizerOptions, measure_correlations, qubit_oracle
from qcorr.entropy import EntropicIndices
from qcorr.measurement import LocalMeasurement, ProjectiveBasis, disturbance
from util import bell_density, write_state_file

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"


def load_script(name):
    """scripts/<name>.py as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUNS = load_script("reproduce").RUNS  # each committed CSV's name and its qcorr argv


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
        assert header == ["q", "s", "regime", "entropy", "max_entropy"]
        assert abs(float(cell(header, rows[0], "entropy"))) < 1e-12
        assert_allclose(float(cell(header, rows[0], "max_entropy")), 0.75, atol=1e-12)

    def test_exact_zero_prints_unsigned(self, tmp_path):
        """-sum p ln p of a pure spectrum is -0.0, and a CSV cell writes it as 0."""
        state, out = tmp_path / "s.txt", tmp_path / "e.csv"
        state.write_text("dims: 2 2 2\n0 0 1 0\n")
        assert run(["entropy", "--state-file", str(state), "--q", "1", "--s", "1", "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert cell(header, rows[0], "entropy") == "0"

    def test_state_file_source(self, tmp_path):
        state = tmp_path / "s.txt"
        write_state_file(state, bell_density())
        out = tmp_path / "e.csv"
        assert run(["entropy", "--state-file", str(state), "--q", "1,2", "--s", "1,1",
                    "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert len(rows) == 2
        assert abs(float(cell(header, rows[0], "entropy"))) < 1e-10

    @pytest.mark.parametrize("q, s, pairs", [
        ("0.5,1,2", "1", [("0.5", "1"), ("1", "1"), ("2", "1")]),
        ("2", "0,1", [("2", "0"), ("2", "1")]),
    ], ids=["one s", "one q"])
    def test_single_index_is_broadcast(self, q, s, pairs, tmp_path):
        """A one-entry --q or --s list pairs with every entry of the other; the config echoes the pairs."""
        out = tmp_path / "e.csv"
        assert run(["entropy", "--family", "werner", "--N", "2", "--x", "0.3",
                    "--q", q, "--s", s, "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert [(cell(header, r, "q"), cell(header, r, "s")) for r in rows] == pairs
        qs, ss = (",".join(column) for column in zip(*pairs))
        assert config_line(out).endswith(f" q={qs} s={ss}")

    def test_q_repeats_with_another_s(self, tmp_path):
        """Only a repeated (q, s) pair is refused; one q may pair with several s."""
        out = tmp_path / "e.csv"
        assert run(["entropy", "--family", "werner", "--N", "2", "--x", "0.3",
                    "--q", "2,2", "--s", "0,1", "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert [(cell(header, r, "q"), cell(header, r, "s")) for r in rows] == [("2", "0"), ("2", "1")]

    def test_large_q_entropy_is_finite(self, tmp_path):
        # Tr rho^q of the spectrum (1/2, 1/6, 1/6, 1/6) underflows at q = 2000 unless 1/2 is factored out
        out = tmp_path / "e.csv"
        assert run(["entropy", "--family", "werner", "--N", "2", "--x", "0", "--q", "2000", "--s", "0",
                    "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        q = 2000.0
        exact = (q * math.log(0.5) + math.log1p(3 * (1 / 3) ** q)) / (1 - q)
        assert abs(float(cell(header, rows[0], "entropy")) - exact) < 1e-12
        assert abs(float(cell(header, rows[0], "max_entropy")) - math.log(4)) < 1e-12


class TestMeasureCommand:
    def test_isotropic_pure_von_neumann(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["measure", "--family", "isotropic", "--N", "2", "--y", "1",
                    "--q", "1", "--s", "1", "--side", "A", "--restarts", "4",
                    "--seed", "1", "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert header == ["side", "q", "s", "value", "spread", "converged", "grad_norm", "basin_hits",
                          "restarts", "iterations", "nfev", "basis_a", "basis_b"]
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

    def test_large_q_werner_equals_closed_form(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["measure", "--family", "werner", "--N", "2", "--x", "0.2", "--q", "5000", "--s", "0",
                    "--side", "A", "--seed", "1", "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        closed = families.werner_spectrum_form(2, 0.2, EntropicIndices(5000.0, 0.0))
        assert abs(float(cell(header, rows[0], "value")) - closed) < 1e-12

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

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", list(families.KINDS))
    def test_two_point_grid_is_the_range(self, kind, n, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["family-curve", "--family", kind, "--N", str(n), "--grid", "2", "--restarts", "1",
                    "--seed", "1", "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert [float(cell(header, r, "parameter")) for r in rows] == list(families.KINDS[kind][1](n))


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

    def test_rows_ordered_by_family_then_ascending_q(self, tmp_path):
        """Rows run by state, then family, then ascending q, whatever the order of --q; the config keeps that order."""
        out = tmp_path / "f.csv"
        assert run(["fig1", "--q", "2,1", "--n-states", "1", "--trials", "10",
                    "--seed", "1", "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert [(cell(header, r, "family"), cell(header, r, "q")) for r in rows] == [
            ("renyi", "1"), ("renyi", "2"), ("tsallis", "1"), ("tsallis", "2")
        ]
        assert " q=2,1 " in config_line(out)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["fig1", "--q", "0.5,2", "--n-states", "2", "--trials", "40", "--seed", "3"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_documented_run_matches_committed_results(self, tmp_path):
        """The default sweep (20 states x 1000 pairs) reproduces results/fig1.csv."""
        out = tmp_path / "fig1.csv"
        assert run([*RUNS["fig1.csv"], "--out", str(out)]) == 0

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

    def test_maximally_mixed_ancilla_scales_the_purity(self, tmp_path):
        """I/d appended: Tr (rho (x) I/d)^2 = Tr rho^2 / d, so at (2, 1) the unrescaled value loses 1 - 1/d of itself."""
        out = tmp_path / "a.csv"
        assert run(["ancilla-check", "--samples", "2", "--ancilla", "mmix", "--ancilla-dim", "3",
                    "--q", "2", "--s", "1", "--restarts", "3", "--seed", "4", "--out", str(out)]) == 0
        assert " ancilla=mmix ancilla_dim=3 " in config_line(out)
        _, header, rows = read_rows(out)
        for r in rows:
            rho = linalg.random_density((2, 2), np.random.default_rng([4, int(cell(header, r, "sample_id"))]))
            purity = np.trace(rho.matrix @ rho.matrix).real
            assert float(cell(header, r, "rescaled_diff")) <= 1e-12
            expected = float(cell(header, r, "d_before")) * purity * (1 - 1 / 3)
            assert_allclose(float(cell(header, r, "unrescaled_diff")), expected, rtol=1e-10)

    def test_documented_run_matches_qubit_oracle(self, tmp_path):
        """The documented configuration: every value is exact.

        Every row measures a qubit at (q, s) = (2, 1), before and after the
        ancilla is grouped with B, so each value has a closed form.
        """
        out = tmp_path / "a.csv"
        assert run([*RUNS["ancilla_check.csv"], "--out", str(out)]) == 0
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
        assert run([*RUNS["triangle_scan.csv"], "--n-states", "3", "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        _, committed_header, committed = read_rows(RESULTS / "triangle_scan.csv")
        assert len(committed) == 200 * 5
        assert header == committed_header
        assert rows == committed[:15]
        committed_config = config_line(RESULTS / "triangle_scan.csv")
        assert config_line(out) == committed_config.replace(" n_states=200 ", " n_states=3 ")


# fig1 and the triangle scan have their own tests above
@pytest.mark.parametrize("name", sorted(set(RUNS) - {"fig1.csv", "triangle_scan.csv"}))
def test_documented_run_reproduces_committed_csv(name, tmp_path):
    out = tmp_path / name
    assert run([*RUNS[name], "--out", str(out)]) == 0

    def body(path):
        return [line for line in path.read_bytes().splitlines() if not line.startswith(b"#")]

    assert body(out) == body(RESULTS / name)
    assert config_line(out) == config_line(RESULTS / name)


def test_check_results_counts_changed_flags(tmp_path):
    """A moved flag is reported as a count of changed cells, a moved number by its largest difference."""
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("# config: x\nstate_id,delta0,sandwich_holds\n0,0.5,true\n1,0.25,true\n2,1,true\n")
    new.write_text("# config: x\nstate_id,delta0,sandwich_holds\n0,0.5,false\n1,0.5,false\n2,1,true\n")
    assert load_script("check_results").compare(new, old) == [
        "2 of 3 rows moved", "delta0: 1 cells, largest difference 0.25", "sandwich_holds: 2 cells changed"]


def test_bench_pairs_summary():
    """Medians, their ratio, the reference's quartile distance, the pairs won and the verdict, on canned result lines."""
    names = ["items_per_s", "item_p50_ms", "item_tail_ms", "setup_s", "peak_rss_mb"]

    def result(values, correct=True):
        return {"correct": correct, "attempted": 40, "failed": 0 if correct else 2,
                "metrics": {name: {"value": value} for name, value in zip(names, values)}}

    ref = [result((100.0, 10.0, 20.0, 1.0, 60.0)), result((104.0, 9.0, 21.0, 1.1, 61.0)),
           result((96.0, 11.0, 19.0, 0.9, 59.0)), result((110.0, 8.0, 22.0, 1.2, 62.0)),
           result((90.0, 12.0, 18.0, 0.8, 58.0))]
    new = [result((120.0, 8.0, 26.0, 0.5, 62.5)), result((118.0, 9.0, 27.0, 0.6, 63.0)),
           result((101.0, 11.0, 25.0, 0.4, 62.0)), result((108.0, 8.5, 30.0, 0.7, 64.0)),
           result((125.0, 7.0, 24.0, 0.75, 61.0), False)]
    metrics = [{"name": "items_per_s", "better": "higher", "bound": 0.25},
               *({"name": name, "better": "lower", "bound": 0.25} for name in names[1:4]),
               {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}]
    assert load_script("bench_pairs").summarize(list(zip(ref, new)), metrics) == [
        # ref 90/96/100/104/110: quartiles 96 and 104; every pair but the fourth is higher, 4/5 short of 9 in 10
        "items_per_s: 100 -> 118 (x1.18), ref IQR 8, won 4/5, unresolved",
        # ref 8/9/10/11/12: quartiles 9 and 11; pairs 1 and 5 are lower, 2 and 3 tie
        "item_p50_ms: 10 -> 8.5 (x0.85), ref IQR 2, won 2/5, unresolved",
        # every pair higher, by 6 against an IQR of 2, and above 1.25 times ref's median
        "item_tail_ms: 20 -> 26 (x1.3), ref IQR 2, won 0/5, worse, beyond bound",
        "setup_s: 1 -> 0.6 (x0.6), ref IQR 0.2, won 5/5, better",
        # every pair higher, by 2.5 against an IQR of 2, but below 1.05 times ref's median
        "peak_rss_mb: 60 -> 62.5 (x1.042), ref IQR 2, won 0/5, worse",
        "pair 5 this: not correct, 2 of 40 failed",
    ]


def test_check_search_bits_summary(monkeypatch):
    """Per call and per group, where two trees' digests differ, on canned digest rows."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    here = [("bench", "1 0 a: 11 0.5 converged=True", 0.5, True),
            ("bench", "1 1 b: 22 0.25 converged=True", 0.25, True),
            ("cusp", "cusp 0 c: 33 1.0 converged=False", 1.0, False)]
    there = [here[0], ("bench", "1 1 b: 44 0.125 converged=True", 0.125, True),
             ("cusp", "cusp 0 c: 55 1.0 converged=True", 1.0, True)]
    assert load_script("check_search_bits").differences(here, there) == ([
        "differs: 1 1 b: 0.25 against 0.125, difference 0.125 (1 relative)",
        "differs: cusp 0 c: 1.0 against 1.0, difference 0 (0 relative)",
        "bench: 1 of 2 calls differ; largest move up 0.125, down 0.125; converged on 2 here, 2 there, 0 flipped",
        "cusp: 1 of 1 calls differ; largest move up 0, down 0; converged on 0 here, 1 there, 1 flipped",
    ], 2)
    # per group, rounds sum each call's longest row's iterations + 1, and nfev every row's evaluations
    runs = [[argparse.Namespace(nit=n, nfev=f) for n, f in call] for call in ([(3, 4), (5, 7)], [(0, 1)], [(2, 3)])]
    assert load_script("check_search_bits").work_lines("ref", here, runs) == [
        "ref, bench: 7 lockstep rounds, 12 nfev",
        "ref, cusp: 3 lockstep rounds, 3 nfev",
    ]


def test_check_search_bits_loads_two_trees_in_one_process(monkeypatch):
    """This checkout's src/ imported twice under two names gives two packages with equal digests."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    script = load_script("check_search_bits")
    trees = [script.load(ROOT / "src", f"qcorr_test_tree_{k}") for k in range(2)]
    assert trees[0].linalg is not trees[1].linalg
    rows, recorded, lockstep = [], [], [qc.correlations._lockstep for qc in trees]
    for qc in trees:
        with script.recorded_runs(qc) as runs:
            rows.append(script.digest(qc, "bell", "bell A", qc.make_density(bell_density().matrix, (2, 2)), "A",
                                      qc.EntropicIndices(2.0, 1.0), qc.OptimizerOptions(restarts=2, seed=1)))
        recorded.append(runs)
    assert rows[0] == rows[1]
    assert script.differences(rows[:1], rows[1:]) == (
        ["bell: 0 of 1 calls differ; converged on 1 here, 1 there, 0 flipped"], 0)
    # each tree's own _lockstep is wrapped within the block only: one search each, its rows as measure_correlations
    # ran them, and afterwards each package has its own _lockstep back
    assert [qc.correlations._lockstep for qc in trees] == lockstep
    (runs,), (other,) = recorded
    assert [(r.nit, r.nfev) for r in runs] == [(r.nit, r.nfev) for r in other] and len(runs) == 2
    rounds, nfev = max(r.nit for r in runs) + 1, sum(r.nfev for r in runs)
    assert script.work_lines("this", rows[:1], [runs]) == [f"this, bell: {rounds} lockstep rounds, {nfev} nfev"]


def test_check_search_bits_times_three_trees_in_rotation(monkeypatch):
    """Timed passes run REF, this checkout and its second copy, the first tree rotating, then the A/A line."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    script = load_script("check_search_bits")
    order, clock = [], [0.0]
    seconds = {"ref": 2.0, "this": 1.0, "this again": 1.25}  # each tree's pass time on a fake clock

    class Tree:  # stands in for a loaded package, recording which tree each call ran in
        def __init__(self, name):
            self.name = name

        def measure_correlations(self, *args):
            order.append(self.name)
            clock[0] += seconds[self.name]
            return argparse.Namespace(value=0.5)

    monkeypatch.setattr(script, "bench_calls", lambda qc, seed: [("group", "label", "rho")])
    monkeypatch.setattr(script, "time", argparse.Namespace(perf_counter=lambda: clock[0]))
    lines = script.timed_passes({name: Tree(name) for name in seconds}, 1, 3)
    assert order == ["ref", "this", "this again", "this", "this again", "ref", "this again", "ref", "this"]
    assert lines == [
        "ref: median pass 2.0000 s, fastest 2.0000 s (1 items)",
        "this: median pass 1.0000 s, fastest 1.0000 s (1 items)",
        "this again: median pass 1.2500 s, fastest 1.2500 s (1 items)",
        "ref IQR 0.0000 s; the medians differ by -1.0000 s, more than that",
        "this / ref: median ratio 0.5000, this won 3 of 3 passes; largest |value difference| 0",
        "this / this again: median ratio 0.8000, this won 3 of 3 passes (the A/A noise floor)",
    ]


def test_every_committed_csv_has_a_documented_run():
    assert set(RUNS) == {p.name for p in RESULTS.glob("*.csv")}


def test_no_committed_cell_reads_minus_zero():
    signed = [(p.name, i) for p in sorted(RESULTS.glob("*.csv"))
              for i, line in enumerate(p.read_text().splitlines()) if "-0" in line.split(",")]
    assert signed == []


def test_committed_results_carry_the_current_schema():
    paths = sorted(RESULTS.glob("*.csv"))
    assert paths
    stale = [p.name for p in paths if p.read_text().splitlines()[0] != f"# schema_version={cli.SCHEMA_VERSION}"]
    assert stale == []


def subcommands(parser):
    """The parser's subcommand parsers by name."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


# per command, runs that between them give every argument a value; {state} is a state file
ECHO_RUNS = {
    "entropy": ["--family werner --N 2 --x 0.2", "--state-file {state}"],
    "measure": ["--family werner --N 2 --x 0.2 --restarts 1 --seed 1", "--state-file {state} --restarts 1 --seed 1"],
    "family-curve": ["--family werner --N 2 --grid 1 --restarts 1 --seed 1"],
    "fig1": ["--n-states 1 --trials 2 --seed 1"],
    "ancilla-check": ["--samples 1 --restarts 1 --seed 1"],
    "triangle-scan": ["--n-states 1 --restarts 1 --q 2 --s 1 --seed 1"],
}
# the fields a command echoes beyond its own arguments
DERIVED = {"entropy": {"family_parameter", "dims"}, "measure": {"family_parameter", "dims"},
           "fig1": {"dims"}, "triangle-scan": {"dims"}}


class TestConfigEcho:
    """The ``# config:`` line echoes every parsed argument but --out, so no per-command list can miss one."""

    @staticmethod
    def echoed(command, flags, tmp_path):
        """The config fields of each of ``command``'s ``ECHO_RUNS`` with ``flags`` appended, as dicts."""
        state = tmp_path / "state.txt"
        write_state_file(state, linalg.random_density((2, 2), np.random.default_rng(5)))
        fields = []
        for k, line in enumerate(ECHO_RUNS[command]):
            out = tmp_path / f"{k}.csv"
            assert run([command, *line.format(state=state).split(), *flags, "--out", str(out)]) == 0
            fields.append(dict(part.split("=", 1) for part in config_line(out).split()[2:]))
        return fields

    def test_every_command_has_echo_runs(self):
        assert set(ECHO_RUNS) == set(subcommands(cli.build_parser()))

    @pytest.mark.parametrize("command", list(ECHO_RUNS))
    def test_keys_are_the_parsed_arguments(self, command, tmp_path):
        sub = subcommands(cli.build_parser())[command]
        kind_flags = {row.parameter for row in families.KINDS.values()}
        dests = {a.dest for a in sub._actions} - {"help", "out"} - kind_flags
        assert set().union(*self.echoed(command, [], tmp_path)) == dests | {"command"} | DERIVED.get(command, set())

    @pytest.mark.parametrize("command", list(ECHO_RUNS))
    def test_a_flag_added_to_a_command_is_echoed(self, command, tmp_path, monkeypatch):
        build = cli.build_parser

        def with_extra_flag():
            parser = build()
            subcommands(parser)[command].add_argument("--extra-knob", dest="extra_knob", default="off")
            return parser

        monkeypatch.setattr(cli, "build_parser", with_extra_flag)
        assert all(fields["extra_knob"] == "on" for fields in self.echoed(command, ["--extra-knob", "on"], tmp_path))


class TestErrorsAndDeterminism:
    def test_missing_family_parameter_fails(self, capsys):
        assert run(["measure", "--family", "pseudopure", "--N", "2",
                    "--seed", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", ["--family werner --N 3 --x 0.2", "--family werner", "--N 2", "--p 0.5"])
    @pytest.mark.parametrize("command", ["entropy", "measure --seed 1"])
    def test_state_file_takes_no_family_flags(self, command, flags, tmp_path, capsys):
        path, out = tmp_path / "bell.txt", tmp_path / "out.csv"
        write_state_file(path, bell_density())
        assert run([*command.split(), "--state-file", str(path), *flags.split(), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --state-file takes no --family, --N or parameter flag\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        ("--family werner --N 2 --x 0.2 --p 0.9 --y 7", "werner takes --x alone, got --p --y --x"),
        ("--family pseudopure --N 2 --x 0.2", "pseudopure takes --p alone, got --x"),
        ("--family isotropic --N 2 --y 1 --x 0", "isotropic takes --y alone, got --y --x"),
        ("--family isotropic --N 2", "isotropic takes --y alone, got no parameter flag"),
    ], ids=["werner with p and y", "pseudopure with x", "isotropic with x", "isotropic without y"])
    @pytest.mark.parametrize("command", ["entropy", "measure --seed 1"])
    def test_family_takes_its_own_parameter_flag_alone(self, command, flags, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run([*command.split(), *flags.split(), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_bad_state_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a state\n")
        assert run(["entropy", "--state-file", str(bad)]) == 1

    def test_nan_state_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "nan.txt"
        bad.write_text("dims: 2 2\n0 0 0.5 0\n3 3 nan 0\n")
        assert run(["measure", "--state-file", str(bad), "--seed", "1"]) == 1
        assert "NaN" in capsys.readouterr().err

    def test_eigensolver_failure_is_a_named_error(self, monkeypatch, capsys):
        """LAPACK's non-convergence reaches the user as numpy's LinAlgError, a ValueError: one error line, exit 1."""
        def eigh(h):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert run(["entropy", "--family", "werner", "--N", "2", "--x", "0.3"]) == 1
        assert capsys.readouterr().err == "error: Eigenvalues did not converge\n"

    def test_no_source_fails(self):
        assert run(["entropy"]) == 1

    @pytest.mark.parametrize("text, message", [
        ("dims: 2 two\n0 0 1 0\n", "bad dims line: 'dims: 2 two'"),
        ("dims:\n0 0 1 0\n", "dims line lists no dimensions"),
        ("dims: 2\n0 0 one 0\n1 1 0 0\n", "bad entry line '0 0 one 0'"),
        ("dims: 2 -2\n", "dimensions must be >= 1, got 'dims: 2 -2'"),
        ("dims: 0 2\n", "dimensions must be >= 1, got 'dims: 0 2'"),
        ("dims: 0 2\n0 0 1 0\n", "dimensions must be >= 1, got 'dims: 0 2'"),
    ], ids=["non-integer dims", "empty dims", "non-numeric entry", "negative dim", "zero dim",
            "zero dim with entries"])
    def test_state_file_errors_are_named(self, text, message, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert run(["entropy", "--state-file", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_measure_takes_two_subsystems(self, tmp_path, capsys):
        """A state file of three subsystems is refused with how to write it, before the seed check."""
        state, out = tmp_path / "s.txt", tmp_path / "out.csv"
        state.write_text("dims: 2 2 2\n0 0 1 0\n")
        assert run(["measure", "--state-file", str(state), "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: measure takes two subsystems: write the dims line as 'dims: N_A N_B', got dims (2, 2, 2)\n")
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("entropy --family werner --N 2 --x 0 --q 1,2 --s 1,2,3", "--q and --s lists must have matching lengths"),
        ("entropy --family werner --N 2 --x 0 --q 1,two", "bad number list '1,two'"),
        ("ancilla-check --dims 2,2,2 --seed 1", "--dims must list exactly two dimensions"),
        ("family-curve --family werner --seed 1", "family-curve requires --N"),
        ("ancilla-check --dims 2,x --seed 1", "bad integer list '2,x'"),
        ("entropy --family werner --x 0.2", "--family requires --N"),
        ("fig1 --q 2,0.5,2 --n-states 1 --trials 3 --seed 1", "--q lists 2 twice"),
        ("triangle-scan --q 2,2 --s 1,1 --n-states 1 --seed 1", "--q and --s list the pair q=2, s=1 twice"),
        ("entropy --family werner --N 2 --x 0 --q 0.5,0.5 --s 0", "--q and --s list the pair q=0.5, s=0 twice"),
    ], ids=["q s lengths", "non-numeric q", "three dims", "family-curve without N", "non-integer dims",
            "family without N", "fig1 repeated q", "triangle-scan repeated pair", "entropy repeated pair"])
    def test_argument_errors_are_named(self, line, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run(line.split() + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--state-file /nonexistent", "--p 7", "--x 0.5", "--y 0.5"])
    def test_family_curve_takes_no_state_source_flags(self, flag, capsys):
        """family-curve builds its states from --family and --N; argparse rejects the other source flags."""
        with pytest.raises(SystemExit) as exc:
            run(["family-curve", "--family", "werner", "--N", "2", "--grid", "2", "--seed", "1", *flag.split()])
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {flag}\n" in capsys.readouterr().err

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

    @pytest.mark.parametrize("line", [
        "measure --family werner --N 2 --x 0.3 --restarts 1",
        "measure --family werner --N 2 --x 0.3 --restarts 2",
        "family-curve --family werner --N 2 --grid 2 --restarts 1",
        "fig1 --n-states 1 --trials 2",
        "ancilla-check --samples 1 --restarts 1",
        "triangle-scan --n-states 1 --restarts 1",
    ], ids=["measure-no-draw", "measure", "family-curve", "fig1", "ancilla-check", "triangle-scan"])
    def test_negative_seed_is_a_named_error(self, line, tmp_path, capsys):
        """Every seeded command refuses a negative --seed alike, whether or not it makes a random draw."""
        out = tmp_path / "out.csv"
        assert run([*line.split(), "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("measure --family werner --N 2 --x 1 --restarts 0", "--restarts must be >= 1, got 0"),
        ("measure --family werner --N 2", "werner takes --x alone, got no parameter flag"),
        ("measure --family werner --N 2 --x 1 --q nan", "q and s must be finite, got q=nan, s=1.0"),
        ("family-curve --family werner --N 2 --grid 0", "--grid must be >= 1, got 0"),
        ("fig1 --trials 0", "--trials must be >= 1, got 0"),
        ("ancilla-check --dims 2,2,2", "--dims must list exactly two dimensions"),
        ("triangle-scan --q 1,2 --s 1,2,3", "--q and --s lists must have matching lengths"),
        ("fig1 --q 2,2", "--q lists 2 twice"),
        ("triangle-scan --q 2,2 --s 1", "--q and --s list the pair q=2, s=1 twice"),
    ], ids=["measure-restarts", "measure-parameter", "measure-indices", "family-curve-grid", "fig1-trials",
            "ancilla-check-dims", "triangle-scan-lists", "fig1-repeated-q", "triangle-scan-repeated-pair"])
    def test_negative_seed_is_checked_last(self, line, message, capsys):
        """The seed check comes after every other check, so each of their messages stands."""
        assert run([*line.split(), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

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
        "measure --side A --q 400 --s -10 --seed 1",
    ], ids=["entropy", "measure"])
    def test_float_overflow_is_a_named_error(self, line, tmp_path):
        """A value exp(s d) beyond the float range ends in one error line naming the overflow, not a traceback.

        The measure is the map of a finite Renyi minimum (about 0.2185 here),
        so only the value can overflow: at s = -5 it is about 1e186.

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

    def test_state_file_near_the_float_limit_is_a_named_error(self, tmp_path):
        """Finite entries of 1e308 overflow once hermitized: one error line, with no warning or traceback.

        Run in a child, so stderr is what a user sees under Python's default warning filters.
        """
        path = tmp_path / "huge.txt"
        path.write_text("dims: 2 2\n0 0 1e308 0\n3 3 1e308 0\n0 3 1e308 0\n3 0 1e308 0\n")
        proc = run_child(["-m", "qcorr", "entropy", "--state-file", str(path)])
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "overflows" in lines[0], proc.stderr
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
