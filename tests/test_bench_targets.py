"""The traced benchmark wraps library functions by name; each must exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_span_targets_resolve():
    # load spans.py without installing its wrappers
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, path, *_ in (*spans.TARGETS, *spans.COUNTED):
        obj = importlib.import_module(module_name)
        for part in path.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{module_name}.{path}"
