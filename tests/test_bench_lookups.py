"""Checks that read the benchmark's files under bench/ without changing them.

The benchmark's tracer (bench/tracing.py) wraps library functions that it
looks up by module attribute; a rename in the package must fail here, not in
a traced benchmark run.  One iso-fp round, run in process, must give no
failed verdict and refuse only honestly at the benchmark's cap."""

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.FUNCTIONS
    for name, (module, attr) in tracing.FUNCTIONS.items():
        target = getattr(importlib.import_module(f"danielewski.{module}"), attr, None)
        assert callable(target), f"{name}: danielewski.{module}.{attr} is missing"


def test_iso_fp_round_has_no_failures(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    worker = importlib.import_module("worker")
    workloads = importlib.import_module("workloads")
    records, rounds = worker.run_pass(workloads.WORKLOADS["iso-fp"](), 3, rounds=1)
    assert rounds == 1 and records
    # a refusal that is not honest at the cap is recorded as FAILED
    assert [r.reason for r in records if r.outcome == workloads.FAILED] == []
    assert sum(r.outcome == workloads.REFUSED for r in records) < len(records)
