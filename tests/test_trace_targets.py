"""The benchmark tracer's names (``bench/spans.py`` TARGETS) exist in the library.

The tracer patches ``module.attr`` for each target; a refactor that drops
one of those bindings breaks every traced benchmark run.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_traced_name_resolves():
    path = os.path.join(ROOT, "bench", "spans.py")
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"tricomilab.{mod}"), attr, None))
    ]
    assert spans.TARGETS and not missing
