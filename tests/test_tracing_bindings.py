"""Every name the benchmark tracer wraps must exist where it binds it.

``perfbench/tracing.py`` looks each layer function up by attribute on the
module that calls it, so a dropped import only shows as a KeyError in a
traced benchmark run; this catches it in the unit tests instead.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_binding_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing._bindings() if attr not in vars(owner)]
    assert missing == []
