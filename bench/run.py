"""Benchmark of the danielewski workbench: one command, one workload per run.

    python3 bench/run.py --workload {cancel-q,iso-fp,expmap-mixed} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
Each run starts ``bench/worker.py`` as fresh child processes, one at a
time: with ``--trace 0`` six set-up probes and then the measured run,
with ``--trace 1`` one traced run (see worker.py).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
figure with its unit.  Exit status 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("cancel-q", "iso-fp", "expmap-mixed")
SETUP_PROBES = 6
IMPORT_PROBES = 7
DEADLINE_S = 175            # the whole run, children included


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # fixed string hashing, so set iteration order and timings do not vary by run
    env["PYTHONHASHSEED"] = "0"
    # the first child writes bytecode and later ones load it, as from an
    # installed package; set-up and memory then do not depend on the caller
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


STARTED = time.monotonic()


def _child(argv) -> str:
    """Run one child to completion, killed and reaped if it would outlast
    the run's deadline; return its standard output."""
    timeout = DEADLINE_S - (time.monotonic() - STARTED)
    try:
        done = subprocess.run([sys.executable] + argv, cwd=ROOT, env=_env(),
                              timeout=max(timeout, 1), stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {argv[:3]} did not end before the deadline") from exc
    if done.returncode != 0:
        raise BenchError(f"child {argv[:3]} exited with {done.returncode}")
    return done.stdout


def _worker(args, *extra) -> tuple:
    """Start the worker; return (seconds from spawn to its first timed
    operation, its result)."""
    argv = [str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    spawned = time.monotonic()
    lines = _child(argv).strip().splitlines()
    if not lines:
        raise BenchError("the worker printed no result")
    result = json.loads(lines[-1])
    return result["ready"] - spawned, result


def _import_s() -> float:
    """Median time of ``import danielewski`` in a fresh interpreter, timed
    inside it: the fresh interpreter's cost minus a bare one's, without the
    noise of two wall-clock start-ups."""
    code = ("import time; t = time.perf_counter(); import danielewski; "
            "print(time.perf_counter() - t)")
    return statistics.median(float(_child(["-c", code])) for _ in range(IMPORT_PROBES))


def measure(args) -> dict:
    if not (ROOT / "src" / "danielewski" / "__init__.py").is_file():
        raise BenchError(f"no library source under {ROOT / 'src'}")
    if args.trace:
        import_s = _import_s()
        _, result = _worker(args)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()}
        metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
        lines = [f"{args.workload}: seed {args.seed}, traced run"] + [
            f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        return {"correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "metrics": metrics,
                "lines": lines + ["  " + line for line in result["lines"]]}
    setups = [_worker(args, "--setup-only")[0] for _ in range(SETUP_PROBES)]
    setup, result = _worker(args)
    setups.append(setup)
    fig = result["summary"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (fig["ops_per_s"], "1/s"),
        "latency_p50_ms": (fig["latency_p50_ms"], "ms"),
        "latency_tail_ms": (fig["latency_tail_ms"], "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "answered_ratio": (fig["answered_ratio"], "ratio"),
    }
    notes = {"latency_p50_ms": f" (p50 of {fig['samples']} samples)",
             "latency_tail_ms": f" (p{fig['tail_pct']:g} of {fig['samples']} samples, "
                                f"{fig['beyond_tail']} beyond it)"}
    lines = [f"{args.workload}: seed {args.seed}, {result['rounds']} rounds, "
             f"{fig['attempted']} operations, one client, closed loop"]
    lines += [f"  {name} = {v:.6g} {u}{notes.get(name, '')}"
              for name, (v, u) in metrics.items()]
    lines += [f"  ops_per_s by wall-clock time = {fig['wall_ops_per_s']:.6g} 1/s",
              f"  failed_ratio = {fig['failed_ratio']:.6g} ratio",
              f"  refused_ratio = {fig['refused_ratio']:.6g} ratio"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            "lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        out = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in out.pop("lines"):
        print(line)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
