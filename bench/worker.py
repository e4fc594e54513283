"""One workload in one process: ``run.py`` starts this file once per run (and
a few more times with ``--setup-only`` to time set-up), one child at a time.

The child imports the library, makes round 0 of the inputs, notes the
monotonic time (its set-up ends there), then runs whole rounds of
operations as a closed loop (one client, one thread) until ``--seconds``
have passed.  It prints one JSON line with the records of every operation
summarised.  With ``--trace 1`` it runs the same operations a second time
under ``tracing.Tracer`` and reports the per-layer metrics instead.

Operation times are this process's CPU time (``time.process_time``).  The
library is single-threaded and does no I/O, so on an idle CPU that equals
the wall-clock time; it leaves out the time the CPU was held by another
process or, through steal-time accounting, by another guest of the host.
The wall-clock times are kept beside them and printed for comparison.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import danielewski as dw
from danielewski import jsonio
from danielewski.errors import SearchCapExceededError

from workloads import CAP, FAILED, OK, REFUSED, WORKLOADS

OUT_DIR = Path(__file__).resolve().parent / "out"
CLOCK = time.process_time
SWEEPS = (("d", (2, 3, 5, 7)), ("r", (3, 5, 8)), ("p", (2, 3, 5, 7)))


@dataclass
class Record:
    kind: str
    tags: dict
    ms: float            # CPU time
    outcome: str
    digest: str          # SHA-256 of the verdict document ("" when it raised)
    surfaces: tuple
    reason: str = ""     # why the operation failed
    wall_ms: float = 0.0


def attempt(workload, op, state: dict, tracer=None) -> Record:
    """Run one operation (timed) and check its verdict (untimed, untraced)."""
    if tracer is not None:
        tracer.active = True
    w0, t0 = time.perf_counter(), CLOCK()
    try:
        verdict = workload.execute(op, state)
    except Exception as exc:     # any error is a failed verdict, never a crash
        verdict, reason = None, f"{type(exc).__name__}: {exc}"
    ms = (CLOCK() - t0) * 1e3
    wall_ms = (time.perf_counter() - w0) * 1e3
    if tracer is not None:
        tracer.active = False
    if verdict is not None:
        try:
            reason = workload.check(op, verdict, state)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
    if reason is not None:
        outcome = FAILED
        print(f"FAILED {workload.name} {op.kind} {op.tags}: {reason}", file=sys.stderr)
    else:
        outcome = REFUSED if verdict.refused is not None else OK
    digest = hashlib.sha256(verdict.text.encode()).hexdigest() if verdict else ""
    return Record(op.kind, op.tags, ms, outcome, digest, op.surfaces, reason or "", wall_ms)


def run_pass(workload, seed: int, *, seconds: Optional[float] = None,
             rounds: Optional[int] = None, first=None, tracer=None) -> tuple:
    """Run whole rounds until ``seconds`` have passed or ``rounds`` are done;
    ``first`` replaces the operations of round 0.  Returns (records, rounds)."""
    records: List[Record] = []
    start = time.monotonic()
    k = 0
    while True:
        ops = first if k == 0 and first is not None else workload.round(seed, k)
        state: dict = {}
        for op in ops:
            if tracer is not None:
                tracer.op = len(records)
            records.append(attempt(workload, op, state, tracer))
        k += 1
        if rounds is not None and k >= rounds:
            break
        if seconds is not None and time.monotonic() - start >= seconds:
            break
    return records, k


def percentile(sorted_values: List[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def summary(records: List[Record], tail_pct: float) -> Dict[str, float]:
    """End-to-end figures of one pass.  Refusals are not verdicts: they count
    in ``refused_ratio`` and in busy time, not in the latency samples.  A
    failed operation counts as missing every latency limit."""
    answered = [r for r in records if r.outcome != REFUSED]
    latencies = sorted(r.ms if r.outcome == OK else math.inf for r in answered)
    busy_s = sum(r.ms for r in records) / 1e3
    n = len(records)
    return {
        "ops_per_s": sum(r.outcome == OK for r in records) / busy_s,
        "wall_ops_per_s": sum(r.outcome == OK for r in records) * 1e3
                          / sum(r.wall_ms for r in records),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": percentile(latencies, tail_pct),
        "tail_pct": tail_pct,
        "samples": len(latencies),
        "beyond_tail": len(latencies) - math.ceil(tail_pct / 100 * len(latencies)),
        "failed_ratio": sum(r.outcome == FAILED for r in records) / n,
        "refused_ratio": sum(r.outcome == REFUSED for r in records) / n,
        "answered_ratio": len(answered) / n,
        "attempted": n,
        "failed": sum(r.outcome == FAILED for r in records),
    }


def _median_ms(records: List[Record], match) -> float:
    """Median op time of the answered operations that ``match``; 0 when none."""
    times = [r.ms for r in records if r.outcome == OK and match(r)]
    return statistics.median(times) if times else 0.0


def input_metrics(records: List[Record]) -> Dict[str, tuple]:
    """Sweep points, solver branches and input repetition of one pass."""
    out = {}
    for key, points in SWEEPS:
        for v in points:
            out[f"sweep.{key}{v}.op_ms"] = (
                _median_ms(records, lambda r: r.tags.get(key) == v), "ms")
    for branch in ("exhaustive", "elimination"):
        out[f"isomorph.{branch}.op_ms"] = (
            _median_ms(records, lambda r: r.tags.get("branch") == branch), "ms")
    seen, repeats, total = set(), 0, 0
    for r in records:
        for s in r.surfaces:
            total += 1
            repeats += s in seen
            seen.add(s)
    out["inputs.surface_repeat_share"] = (repeats / total if total else 0.0, "ratio")
    return out


def _time_ms(fn) -> float:
    t0 = CLOCK()
    fn()
    return (CLOCK() - t0) * 1e3


def baseline_rows(name: str) -> Dict[str, tuple]:
    """The ROADMAP Baseline cases, median of three untraced repetitions; the
    rows of the other workload read 0."""
    out = {}
    for d in (2, 3, 5, 7):
        build = verify = 0.0
        if name == "cancel-q":
            spec = dw.make_surface(dw.QQ, dw.parse_poly("X^3*(X-1)*(X+2)", dw.QQ, ("X",)),
                                   dw.parse_poly(f"(Z+X)^{d} - 1", dw.QQ, ("X", "Z")))
            cert = dw.build_stable_iso(spec)
            decoded = jsonio.stable_from_doc(json.loads(jsonio.dumps(jsonio.stable_to_doc(cert))))
            build = statistics.median(_time_ms(lambda: dw.build_stable_iso(spec))
                                      for _ in range(3))
            verify = statistics.median(_time_ms(lambda: dw.verify_stable_iso(decoded))
                                       for _ in range(3))
        out[f"baseline.cancel.d{d}.build_ms"] = (build, "ms")
        out[f"baseline.cancel.d{d}.verify_ms"] = (verify, "ms")
    for p in (2, 3, 5, 7):
        fld = dw.GF(p)
        ms, refused = 0.0, 0
        if name == "iso-fp":
            spec = dw.make_surface(fld, dw.parse_poly(f"X^{p}*(X+1)", fld, ("X",)),
                                   dw.parse_poly(f"Z^{p}+Z+X", fld, ("X", "Z")))
            try:
                ms = statistics.median(_time_ms(lambda: dw.automorphisms(spec, cap=CAP))
                                       for _ in range(3))
            except SearchCapExceededError:
                refused = 1
        if p in (2, 3):
            out[f"baseline.aut.F{p}.ms"] = (ms, "ms")
        else:
            out[f"baseline.aut.F{p}.refused"] = (refused, "count")
    return out


def traced_run(workload, seed: int, seconds: float, first) -> dict:
    from tracing import Tracer

    rows = baseline_rows(workload.name)
    plain, rounds = run_pass(workload, seed, seconds=seconds, first=first)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = run_pass(workload, seed, rounds=rounds, tracer=tracer)
    finally:
        left = tracer.uninstall()
    mismatched = [i for i, (a, b) in enumerate(zip(plain, traced)) if a.digest != b.digest]
    for i in mismatched:
        print(f"FAILED {workload.name} op {i}: traced verdict differs", file=sys.stderr)
    if left:
        print(f"FAILED bindings still wrapped: {left}", file=sys.stderr)
    fig = summary(plain, workload.tail_pct)
    metrics = tracer.metrics()
    lines = [f"bypass {name} = {metrics[name][0]:g}, predicted 0: "
             + ("confirmed" if metrics[name][0] == 0 else "NOT confirmed")
             for name in workload.bypassed]
    metrics.update(input_metrics(plain))
    metrics.update(rows)
    metrics["trace.overhead_ratio"] = (sum(r.ms for r in traced) / sum(r.ms for r in plain),
                                       "ratio")
    metrics["latency.samples"] = (fig["samples"], "count")
    metrics["latency.tail_pct"] = (fig["tail_pct"], "%")
    metrics["failed_ratio"] = (fig["failed_ratio"], "ratio")
    metrics["refused_ratio"] = (fig["refused_ratio"], "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"trace-{workload.name}-{seed}.jsonl",
                       {"workload": workload.name, "seed": seed, "rounds": rounds})
    failed = fig["failed"] + sum(r.outcome == FAILED for r in traced) + len(mismatched)
    return {"attempted": len(plain) + len(traced), "failed": failed,
            "correct": failed == 0 and not left, "metrics": metrics, "lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    first = workload.round(args.seed, 0)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    if args.trace:
        result = traced_run(workload, args.seed, args.seconds, first)
    else:
        records, rounds = run_pass(workload, args.seed, seconds=args.seconds, first=first)
        fig = summary(records, workload.tail_pct)
        result = {"attempted": fig["attempted"], "failed": fig["failed"],
                  "correct": fig["failed"] == 0, "summary": fig, "rounds": rounds}
    result["ready"] = ready
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
