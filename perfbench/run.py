"""syzlab benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0|1

Run from the root of a source checkout; syzlab is imported from its
``src/`` directory.  With ``--trace 0`` it prints the end-to-end metrics
(median wall seconds per iteration, set-up seconds, peak RSS), with
``--trace 1`` the per-layer metrics of a separate traced run.  Every
iteration's output goes through the correctness gate in bench.py.  The
last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads, metrics and their rationale: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "grid-4gonal", "grid-delpezzo-bigp")

# Whole-run limit, kept below the 180 s a run may take.
RUN_LIMIT_S = 170.0

# Single-threaded BLAS/OpenMP, pinned so that every run uses the same caps.
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

class BenchError(Exception):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    """Run bench.py in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ, **THREAD_CAPS)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "bench.py"), "--src", str(SRC), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    # own process group, so that a timeout also ends the set-up processes
    # the worker starts
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker exceeded the run time limit: {' '.join(cmd)}") from exc
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    timed = _worker([*common, "--seconds", str(seconds), "--mode", "timed"], deadline)
    walls, setups = timed["walls"], timed["setups"]
    return {
        "metrics": {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": timed["peak_rss_mb"],
        },
        "samples": {"wall_s": len(walls), "setup_s": len(setups)},
        "walls": walls,
        "setups": setups,
        "checks": timed["checks"],
        "environment": timed["environment"],
    }


def per_layer(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    return _worker([*common, "--seconds", str(seconds), "--mode", "traced"], deadline)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="syzlab benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "syzlab" / "__init__.py").is_file():
        print(f"run.py: no syzlab sources at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    measure = per_layer if args.trace else end_to_end
    try:
        result = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    checks = result.pop("checks")
    attempted, failed = checks["attempted"], checks["failed"]
    for message in checks["messages"]:
        print(f"check failed: {message}", file=sys.stderr)
    measured = result.pop("metrics")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in measured]
    if absent:
        print(f"run.py: metrics not measured: {absent}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {failed / max(attempted, 1):.6g} ({failed} failed of {attempted} checks)")
    print("details " + json.dumps(result, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
