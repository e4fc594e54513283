"""The benchmark's tracer (bench/tracing.py) wraps library functions that it
looks up by module attribute; a rename in the package must fail here, not in
a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.FUNCTIONS
    for name, (module, attr) in tracing.FUNCTIONS.items():
        target = getattr(importlib.import_module(f"danielewski.{module}"), attr, None)
        assert callable(target), f"{name}: danielewski.{module}.{attr} is missing"
