"""The benchmark (``perfbench/``) reaches the library by name.

Its tracer (``spans.py``) wraps functions by name, and records a name it no
longer finds as absent rather than failing a run, so a renamed or deleted
function would silently drop its metrics.  Its workloads call the package
object ``qc`` by attribute, so a renamed name would break a run.  These
tests check every binding the tracer wraps and every ``qc`` attribute chain
the benchmark's files spell out, reading the files without running them.
Its fig1 workload byte-compares rows against a copy of ``results/fig1.csv``,
which must stay in step with the committed file.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

import qcorr
import qcorr.cli  # the benchmark imports it beside the package
from qcorr import correlations

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SPANS = PERFBENCH / "spans.py"

# listed by the tracer, but no caller looks it up there: every log_power_sum
# call goes through qcorr.entropy, where the same span is wrapped
STALE = {("qcorr.measurement", "log_power_sum")}


def test_every_wrapped_binding_resolves():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPS
    resolved = {
        (module, attr): callable(getattr(importlib.import_module(module), attr, None))
        for module, attr, _ in spans.WRAPS
    }
    assert {binding for binding, ok in resolved.items() if not ok} <= STALE
    # as the tracer counts it: each span is wrapped through some binding
    absent = {span for _, _, span in spans.WRAPS} - {
        span for module, attr, span in spans.WRAPS if resolved[module, attr]
    }
    assert absent == set()


def _dotted(node):
    """("qc", "families", "build") for the expression ``qc.families.build``; None for any other expression."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return (node.id, *reversed(names)) if isinstance(node, ast.Name) else None


def package_chains(path):
    """The attribute chains on ``qc`` in one file, in source order, following aliases such as ``linalg = qc.linalg``."""
    nodes = [node for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, (ast.Assign, ast.Attribute))]
    aliases, chains = {"qc": ()}, set()
    for node in sorted(nodes, key=lambda node: (node.lineno, node.col_offset)):
        if isinstance(node, ast.Attribute):
            names = _dotted(node)
            if names and names[0] in aliases:
                chains.add(aliases[names[0]] + names[1:])
        elif len(node.targets) == 1 and isinstance(node.targets[0], ast.Name) and node.targets[0].id != "qc":
            names = _dotted(node.value)
            if names and names[0] in aliases:
                aliases[node.targets[0].id] = aliases[names[0]] + names[1:]
            else:
                aliases.pop(node.targets[0].id, None)
    return chains


def _resolves(chain):
    obj = qcorr
    for name in chain:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_every_package_chain_resolves():
    chains = {chain: path.name for path in sorted(PERFBENCH.glob("*.py")) for chain in package_chains(path)}
    # the family set-up and oracles, and an aliased chain, are among those read
    assert {("FamilySpec",), ("families", "build"), ("werner_spectrum_form",), ("linalg", "tensor")} <= chains.keys()
    assert {f"{file}: qc.{'.'.join(chain)}" for chain, file in chains.items() if not _resolves(chain)} == set()


def test_pair_spectra_call_each_kernel_through_correlations(monkeypatch):
    # fig1's measurement.spectrum_side_* spans wrap these correlations bindings;
    # a kernel looked up elsewhere, say in measurement.KERNELS, would not be counted
    calls = {}
    for side in ("a", "b", "ab"):
        name = f"_spectrum_side_{side}"

        def counted(*args, _name=name, _kernel=getattr(correlations, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _kernel(*args)

        monkeypatch.setattr(correlations, name, counted)
    rho = qcorr.random_density((2, 2), np.random.default_rng(0))
    correlations.measurement_pair_spectra(rho, 3, 1)
    assert calls == {"_spectrum_side_a": 1, "_spectrum_side_b": 1, "_spectrum_side_ab": 1}


def test_benchmark_fig1_copy_matches_results():
    """Every line of the benchmark's fig1 data but the schema line equals results/fig1.csv.

    A change that moves fig1's rows must re-record the benchmark's copy in
    the same step, or every fig1-sweep run fails its byte compare.  The
    schema line differs until that copy is next re-recorded.
    """
    def body(path):
        return [line for line in path.read_text(encoding="ascii").splitlines()
                if not line.startswith("# schema_version=")]

    assert body(PERFBENCH / "data" / "fig1-20260810.csv") == body(ROOT / "results" / "fig1.csv")
