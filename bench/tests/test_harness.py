"""Tests of the benchmark itself (not part of the tier-1 suite):

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import danielewski  # noqa: E402
from danielewski.fields import FieldSpec  # noqa: E402
from danielewski.poly import Poly  # noqa: E402
from danielewski.surface import SurfaceElement  # noqa: E402

from tracing import Tracer  # noqa: E402
from worker import attempt, run_pass  # noqa: E402
from workloads import FAILED, OK, REFUSED, WORKLOADS, CancelQ  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _env():
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(ROOT / "src")}


# -- known answers ------------------------------------------------------------


@pytest.mark.parametrize("element", ["theta", "w"])
def test_altered_certificate_counts_as_failed(element):
    w = CancelQ()
    build, verify = w.round(1, 0)[:2]
    state = {}
    assert attempt(w, build, state).outcome == OK
    assert attempt(w, verify, state).outcome == OK
    doc = json.loads(state[build.key])
    coeffs = doc[element]["coeffs"]
    first = sorted(coeffs)[0]
    coeffs[first] += " + X*Z"            # one coefficient of the element changes
    state[build.key] = json.dumps(doc)
    record = attempt(w, verify, state)
    assert record.outcome == FAILED
    assert record.reason == "certificate refuted"


def test_cap_refusals_are_counted_apart_from_failures():
    w = WORKLOADS["iso-fp"]()
    baseline = [op for op in w.round(1, 0) if op.kind == "automorphisms"]
    outcomes = {op.tags["p"]: attempt(w, op, {}).outcome for op in baseline}
    assert outcomes == {2: OK, 3: OK, 5: REFUSED, 7: REFUSED}


# -- seeds ------------------------------------------------------------------------

_DIGEST = """
import hashlib, json, sys
from worker import run_pass
from workloads import WORKLOADS
w = WORKLOADS[sys.argv[1]]()
ops = [op for op in w.round(int(sys.argv[2]), 0) if op.tags.get("p") != 3]
records, _ = run_pass(w, int(sys.argv[2]), rounds=1, first=ops)
print(json.dumps({
    "inputs": hashlib.sha256("".join(op.text for op in ops).encode()).hexdigest(),
    "verdicts": [r.digest for r in records],
    "outcomes": [r.outcome for r in records],
    "mix": [[op.kind, sorted(op.tags.items())] for op in ops]}))
"""


def _digest(workload: str, seed: int, hashseed: str) -> dict:
    env = dict(_env(), PYTHONHASHSEED=hashseed)
    out = subprocess.run([sys.executable, "-c", _DIGEST, workload, str(seed)], cwd=BENCH,
                         env=env, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_fixes_inputs_and_verdicts(workload):
    a = _digest(workload, 7, "1")
    b = _digest(workload, 7, "2")
    assert a == b                        # byte-identical inputs and verdict documents
    assert set(a["outcomes"]) <= {OK, REFUSED}
    c = _digest(workload, 8, "1")
    assert c["inputs"] != a["inputs"]
    assert c["mix"] == a["mix"]          # same kinds, sizes and sweep points


# -- tracing ---------------------------------------------------------------------


def _bindings():
    owners = [m for n, m in sys.modules.items()
              if n == "danielewski" or n.startswith("danielewski.")]
    return {(id(o), k): v for o in owners + [Poly, FieldSpec, SurfaceElement]
            for k, v in vars(o).items() if callable(v)}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_matches_untraced_and_restores(workload):
    w = WORKLOADS[workload]()
    ops = [op for op in w.round(3, 0) if op.tags.get("d") in (2, 3)]
    before = _bindings()
    plain, _ = run_pass(w, 3, rounds=1, first=ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = run_pass(w, 3, rounds=1, first=ops, tracer=tracer)
    finally:
        left = tracer.uninstall()
    assert left == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert [r.digest for r in traced] == [r.digest for r in plain]
    assert all(r.outcome != FAILED for r in plain + traced)

    m = tracer.metrics()
    resultant = sum(m[f"resultant.{fn}.calls"][0]
                    for fn in ("resultant_in", "det_bareiss", "bezout_cofactors"))
    if workload == "cancel-q":
        assert resultant > 0
        assert m["isomorph.decide_isomorphism.calls"][0] == 0
    else:
        assert resultant == 0
        assert m["isomorph.decide_isomorphism.calls"][0] > 0
    if workload == "iso-fp":
        assert m["fields.q.coeff_mults"][0] == 0
        assert m["fields.fp.coeff_mults"][0] > 0
        assert m["isomorph.congruence_checks"][0] >= m["isomorph.certificates"][0] > 0


# -- the command -------------------------------------------------------------------


def _run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", "cancel-q",
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, env=_env(), capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_declared_metric(trace, section):
    out = _run(ROOT, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_command_fails_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    out = _run(tmp_path, 0)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
