"""In-memory span tracer that wraps qcorr functions where their callers bind them.

A function is wrapped in every module namespace its callers look it up in
(for example ``disturbance_spectra`` in ``qcorr.correlations``,
``qcorr.measurement`` and ``qcorr.families``), so no file under ``src/`` is
edited.  Each span records its name, start, end, parent span and item id in
flat arrays; every binding is restored by ``Tracer.restore``.  A name that no
longer exists is recorded as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

INPUTS = -2  # item id of spans recorded while the workload inputs are generated

# (module, attribute, span name): one row per binding a caller looks up
WRAPS = [
    ("qcorr.linalg", "haar_unitary", "linalg.haar_unitary"),
    ("qcorr.linalg", "spectrum", "linalg.spectrum"),
    ("qcorr.linalg", "random_density", "linalg.random_density"),
    ("qcorr.entropy", "log_power_sum", "entropy.log_power_sum"),
    ("qcorr.entropy", "unified_entropy_spectrum", "entropy.unified_entropy_spectrum"),
    ("qcorr.measurement", "log_power_sum", "entropy.log_power_sum"),
    ("qcorr.measurement", "unified_entropy_spectrum", "entropy.unified_entropy_spectrum"),
    ("qcorr.measurement", "disturbance_spectra", "measurement.disturbance_spectra"),
    ("qcorr.measurement", "_spectrum_side_a", "measurement.spectrum_side_a"),
    ("qcorr.measurement", "_spectrum_side_b", "measurement.spectrum_side_b"),
    ("qcorr.measurement", "_spectrum_side_ab", "measurement.spectrum_side_ab"),
    ("qcorr.correlations", "unified_entropy_spectrum", "entropy.unified_entropy_spectrum"),
    ("qcorr.correlations", "disturbance_spectra", "measurement.disturbance_spectra"),
    ("qcorr.correlations", "_spectrum_side_a", "measurement.spectrum_side_a"),
    ("qcorr.correlations", "_spectrum_side_b", "measurement.spectrum_side_b"),
    ("qcorr.correlations", "_spectrum_side_ab", "measurement.spectrum_side_ab"),
    ("qcorr.correlations", "_unitary_from_angles", "correlations.decode"),
    ("qcorr.correlations", "_objective_factory", "correlations.objective_factory"),
    ("qcorr.correlations", "minimize", "correlations.minimize"),
    ("qcorr.correlations", "measure_correlations", "correlations.measure_correlations"),
    ("qcorr.correlations", "measurement_pair_spectra", "correlations.measurement_pair_spectra"),
    ("qcorr.correlations", "contractivity_min_from_spectra",
     "correlations.contractivity_min_from_spectra"),
    ("qcorr.families", "disturbance_spectra", "measurement.disturbance_spectra"),
    ("qcorr.families", "build", "families.build"),
    ("qcorr.cli", "write_csv", "cli.write_csv"),
    ("qcorr.cli", "cmd_fig1", "cli.cmd_fig1"),
]
OBJECTIVE = "correlations.objective"

# per-layer metric -> (unit, better, statistic, span); statistics are per item
# of the traced pass, except us_per_call (mean busy time of one call)
LAYER_METRICS = {
    "measurement.disturbance_spectra.calls": ("count/item", "lower", "calls", "measurement.disturbance_spectra"),
    "measurement.disturbance_spectra.self_s": ("s/item", "lower", "self", "measurement.disturbance_spectra"),
    "measurement.disturbance_spectra.us_per_call": ("us", "lower", "us_per_call", "measurement.disturbance_spectra"),
    "entropy.log_power_sum.calls": ("count/item", "lower", "calls", "entropy.log_power_sum"),
    "entropy.log_power_sum.self_s": ("s/item", "lower", "self", "entropy.log_power_sum"),
    "entropy.unified_entropy_spectrum.calls": ("count/item", "lower", "calls", "entropy.unified_entropy_spectrum"),
    "entropy.unified_entropy_spectrum.self_s": ("s/item", "lower", "self", "entropy.unified_entropy_spectrum"),
    "measurement.spectrum_side_a.calls": ("count/item", "lower", "calls", "measurement.spectrum_side_a"),
    "measurement.spectrum_side_a.busy_s": ("s/item", "lower", "busy", "measurement.spectrum_side_a"),
    "measurement.spectrum_side_b.calls": ("count/item", "lower", "calls", "measurement.spectrum_side_b"),
    "measurement.spectrum_side_b.busy_s": ("s/item", "lower", "busy", "measurement.spectrum_side_b"),
    "measurement.spectrum_side_ab.calls": ("count/item", "lower", "calls", "measurement.spectrum_side_ab"),
    "measurement.spectrum_side_ab.busy_s": ("s/item", "lower", "busy", "measurement.spectrum_side_ab"),
    "linalg.haar_unitary.calls": ("count/item", "lower", "calls", "linalg.haar_unitary"),
    "linalg.haar_unitary.busy_s": ("s/item", "lower", "busy", "linalg.haar_unitary"),
    "linalg.spectrum.calls": ("count/item", "lower", "calls", "linalg.spectrum"),
    "linalg.spectrum.busy_s": ("s/item", "lower", "busy", "linalg.spectrum"),
    "correlations.decode.calls": ("count/item", "lower", "calls", "correlations.decode"),
    "correlations.decode.busy_s": ("s/item", "lower", "busy", "correlations.decode"),
    "correlations.objective_evals": ("count/item", "lower", "calls", OBJECTIVE),
    "correlations.us_per_eval": ("us", "lower", "us_per_call", OBJECTIVE),
    "correlations.restarts": ("count/item", "lower", "restarts", "correlations.minimize"),
    "correlations.restart_success_ratio": ("ratio", "higher", "success", "correlations.minimize"),
    "correlations.basin_hit_ratio": ("ratio", "higher", "basin", "correlations.minimize"),
    "correlations.nm_self_s": ("s/item", "lower", "self", "correlations.minimize"),
    "correlations.measurement_pair_spectra.busy_s": ("s/item", "lower", "busy", "correlations.measurement_pair_spectra"),
    "correlations.contractivity_min_from_spectra.busy_s": ("s/item", "lower", "busy", "correlations.contractivity_min_from_spectra"),
    "families.build.busy_s": ("s/item", "lower", "busy", "families.build"),
    "linalg.random_density.busy_s": ("s/item", "lower", "busy", "linalg.random_density"),
    "cli.write_csv.busy_s": ("s/item", "lower", "busy", "cli.write_csv"),
    "cli.cmd_fig1.self_s": ("s/item", "lower", "self", "cli.cmd_fig1"),
    "trace.overhead_frac": ("ratio", "lower", "overhead", None),
}


class Tracer:
    """Records nested spans; ``item`` is the id stamped on new spans.

    Used as a context manager, it wraps every WRAPS binding on entry and
    restores them on exit; ``before`` maps a span name to a pre-call hook.
    """

    def __init__(self, before=None):
        self.before = before or {}
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name, self.parent, self.items = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self._stack = [-1]
        self.item = INPUTS
        self.restarts: list[tuple[int, float, bool]] = []  # (item, fun, success)
        self.wrapped: set[str] = set()
        self.absent: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.items.append(self.item)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span opened by the benchmark itself."""
        i = self._open(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    def _after(self, name: str):
        """What a wrapper does with a result: note a restart, or trace an objective."""
        if name == "correlations.minimize":
            return lambda out: self.restarts.append((self.item, float(out.fun), bool(out.success))) or out
        if name == "correlations.objective_factory":
            return lambda out: self._wrapper(out, OBJECTIVE)
        return None

    def _wrapper(self, fn, name: str, before=None):
        nid, tracer, after = self._id(name), self, self._after(name)

        def wrapped(*args, **kwargs):
            if before is not None:
                before()
            i = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            return out if after is None else after(out)

        return wrapped

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def install(self) -> None:
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.add(name)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, name, self.before.get(name)))
            self.wrapped.add(name)
        self.absent -= self.wrapped
        if "correlations.objective_factory" in self.wrapped:
            self.wrapped.add(OBJECTIVE)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def dump(self, path) -> None:
        """Write every span to an .npz file (names indexed by ``name``)."""
        np.savez(
            path,
            names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.items, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
        )

    def totals(self, mask_fn):
        """Per span name: (calls, busy seconds, self seconds) over spans in the mask."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - covered
        mask = mask_fn(np.frombuffer(self.items, dtype=np.int32))
        k = len(self.names)
        calls = np.bincount(name[mask], minlength=k)
        busy = np.bincount(name[mask], weights=dur[mask], minlength=k)
        own = np.bincount(name[mask], weights=self_time[mask], minlength=k)
        return {n: (int(calls[i]), float(busy[i]), float(own[i])) for i, n in enumerate(self.names)}

    def layer_metrics(self, n_items: int, n_inputs: int, overhead: float, restarts_used: list[int]):
        """Per-layer metrics: pass totals per pass item plus input totals per input."""
        passed = self.totals(lambda it: it != INPUTS)
        inputs = self.totals(lambda it: it == INPUTS)

        def per_item(span, k):
            a = passed.get(span, (0, 0.0, 0.0))[k] / max(n_items, 1)
            b = inputs.get(span, (0, 0.0, 0.0))[k] / max(n_inputs, 1)
            return a + b

        used = sum(restarts_used)
        by_item: dict[int, list[tuple[float, bool]]] = {}
        for item, fun, ok in self.restarts:
            by_item.setdefault(item, []).append((fun, ok))
        success = basin = 0
        for item, runs in by_item.items():
            runs = runs[: restarts_used[item]] if item < len(restarts_used) else []
            if runs:
                best = min(f for f, _ in runs)
                success += sum(ok for _, ok in runs)
                basin += sum(f <= best + 1e-9 for f, _ in runs)

        metrics, absent = {}, []
        for metric, (unit, _, stat, span) in LAYER_METRICS.items():
            if span is not None and span not in self.wrapped:
                absent.append(metric)
                continue
            if stat == "calls":
                value = per_item(span, 0)
            elif stat == "busy":
                value = per_item(span, 1)
            elif stat == "self":
                value = per_item(span, 2)
            elif stat == "us_per_call":
                calls = per_item(span, 0)
                value = 1e6 * per_item(span, 1) / calls if calls else 0.0
            elif stat == "restarts":
                value = used / max(n_items, 1)
            elif stat == "success":
                value = success / used if used else 0.0
            elif stat == "basin":
                value = basin / used if used else 0.0
            else:
                value = overhead
            metrics[metric] = {"value": value, "unit": unit}
        return metrics, absent
