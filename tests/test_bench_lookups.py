"""Checks that read the benchmark's files under bench/ without changing them.

The benchmark's tracer (bench/tracing.py) wraps library functions that it
looks up by module attribute; a rename in the package must fail here, not in
a traced benchmark run.  One iso-fp round, run in process, must give no
failed verdict and no refusal at the benchmark's cap.  Traced, the
same round must give the same verdicts, leave no wrapper behind, and read
term counts and coefficients without unpacking a single exponent key.  The
documents a round's operations read are printed by ``poly_str``: every
polynomial in them is read by the literal-monomial reader, never by the
parser's descent."""

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
    assert [r.tags for r in records if r.outcome == workloads.REFUSED] == []


def test_traced_round_matches_untraced_and_unpacks_nothing(monkeypatch):
    from danielewski import poly

    monkeypatch.syspath_prepend(str(BENCH))
    worker = importlib.import_module("worker")
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    unpacked = []
    unpack = poly.unpack
    monkeypatch.setattr(poly, "unpack", lambda key, n: unpacked.append(n) or unpack(key, n))
    workload = workloads.WORKLOADS["iso-fp"]()
    plain, _ = worker.run_pass(workload, 5, rounds=1)
    untraced_unpacks = len(unpacked)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _ = worker.run_pass(workload, 5, rounds=1, tracer=tracer)
    finally:
        left = tracer.uninstall()
    assert left == []
    assert [r.digest for r in traced] == [r.digest for r in plain]
    assert tracer.counters["poly.mul.term_products"] > 0 and tracer.calls["poly.exact_div"] > 0
    # the library unpacks the same keys in both runs; the tracer's reads add none
    assert len(unpacked) == 2 * untraced_unpacks


def test_operation_documents_parse_without_the_descent(monkeypatch):
    from danielewski import parsing
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    calls = []
    factor = parsing._Parser.factor
    monkeypatch.setattr(parsing._Parser, "factor",
                        lambda self: calls.append(self.text) or factor(self))
    parsed = []
    parse_poly = parsing._Parser.parse
    monkeypatch.setattr(parsing._Parser, "parse",
                        lambda self: parsed.append(self.text) or parse_poly(self))
    for name, workload in workloads.WORKLOADS.items():
        w = workload()
        ops = w.round(7, 0)          # the round's own inputs are built with parentheses
        calls.clear()
        parsed.clear()
        state = {}
        for op in ops:
            w.execute(op, state)
        assert len(parsed) > len(ops), name
        assert calls == [], name
