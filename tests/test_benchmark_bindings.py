"""The benchmark's tracer (``perfbench/spans.py``) wraps library functions by name.

A name it no longer finds is recorded as absent rather than failing a run,
so a renamed or deleted function would silently drop its metrics.  This
checks every binding the tracer wraps.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

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
