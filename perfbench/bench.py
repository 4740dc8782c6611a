"""Worker process of the syzlab benchmark: one workload, one mode.

    python3 perfbench/bench.py --src SRC --workload W --seed S --seconds N --mode M

Modes:
  setup   import syzlab and build the workload's fixed models, then exit
  timed   set up, then run untraced iterations for about N seconds, each
          followed by fresh set-up processes (set-up samples)
  traced  set up, build the models again under the tracer, then run traced
          iterations for about N seconds (per-layer numbers)

Prints one JSON object as its last stdout line.  perfbench/run.py starts
this script in fresh interpreters so that set-up includes the import and
peak RSS belongs to one workload.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Optional  # noqa: E402

SWEEP_GENUS = (5, 13)
SWEEP_TRIALS = 2
# Primes are fixed here, not taken from syzlab, so the workloads stay put.
PRIME = 1000003
# Largest prime below syzlab's PRIME_BOUND = 2**25.
BIG_PRIME = 33554393
GRID_GENUS = 7
GRID_P_MAX = 5
MIN_ITERATIONS = 3
# Fresh set-up processes started after each timed iteration; setup_s is the
# median of these and the timed worker's own set-up.
SETUPS_PER_ITERATION = 3
MIN_TRACED_ITERATIONS = 2


# -- correctness gate ----------------------------------------------------------


@dataclass
class Checks:
    """Counts checks attempted and failed; keeps the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def kappa21_formula(genus: int) -> int:
    """(g-1)(g-3)(g-5)/3: linear syzygies of a canonical curve whose ideal
    is generated by quadrics (every family syzlab builds)."""
    return (genus - 1) * (genus - 3) * (genus - 5) // 3


def hilbert(genus: int, degree: int) -> int:
    """dim B_d of the canonical ring: 1, g, then (2d-1)(g-1)."""
    if degree == 0:
        return 1
    if degree == 1:
        return genus
    return (2 * degree - 1) * (genus - 1)


def gate_sweep(records: list[dict], checks: Checks) -> None:
    """Every record passes, and kappa_2,1 matches the closed formula."""
    lo, hi = SWEEP_GENUS
    checks.check(bool(records), "sweep returned no records")
    for r in records:
        tag = f"g={r['genus']} {r['family']} trial={r['trial']}"
        checks.check(lo <= r["genus"] <= hi, f"{tag}: genus out of range")
        checks.check(r["passed"] is True, f"{tag}: record failed")
        checks.check(
            r["kappa21"] == kappa21_formula(r["genus"]),
            f"{tag}: kappa21={r['kappa21']} != {kappa21_formula(r['genus'])}",
        )


def gate_grid(report: dict, genus: int, checks: Checks) -> None:
    """No skipped cells, Green duality, Euler characteristic per diagonal,
    and kappa_1,1 / kappa_2,1 agreeing between the span and the grid."""
    checks.check(report["passed"] is True, "report did not pass")
    checks.check(report["genus"] == genus, f"report genus {report['genus']} != {genus}")
    checks.check(
        report["kappa21"] == kappa21_formula(genus),
        f"kappa21={report['kappa21']} != {kappa21_formula(genus)}",
    )
    betti = report["betti"]
    entries = betti["entries"]
    p_max = len(entries[0]) - 1
    complete = not betti["truncated"] and all(v >= 0 for row in entries for v in row)
    if not checks.check(complete, "grid has skipped cells"):
        return
    checks.check(len(entries) == 4, "grid must have rows q = 0..3")
    checks.check(entries[1][1] == report["kappa11"], "kappa_1,1 != dim I2")
    checks.check(entries[1][2] == report["kappa21"], "kappa_2,1 != syzygy count")

    def kappa(p: int, q: int) -> Optional[int]:
        if 0 <= p <= p_max:
            return entries[q][p]
        # beyond the grid, duality maps (p, q) to a negative p, so zero
        return 0 if p >= genus - 1 else None

    for q in range(4):
        for p in range(p_max + 1):
            dual = kappa(genus - 2 - p, 3 - q)
            if dual is not None and (p, q) < (genus - 2 - p, 3 - q):
                checks.check(
                    entries[q][p] == dual,
                    f"duality: kappa({p},{q})={entries[q][p]} != "
                    f"kappa({genus - 2 - p},{3 - q})={dual}",
                )
    for k in range(genus + 4):
        cells = [kappa(p, k - p) for p in range(max(0, k - 3), min(k, genus) + 1)]
        if any(c is None for c in cells):
            continue
        lhs = sum((-1) ** p * c for p, c in zip(range(max(0, k - 3), k + 1), cells))
        rhs = sum(
            (-1) ** p * math.comb(genus, p) * hilbert(genus, k - p)
            for p in range(min(k, genus) + 1)
        )
        checks.check(lhs == rhs, f"Euler characteristic on diagonal {k}: {lhs} != {rhs}")


# -- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[Any, int], Any]
    run: Callable[[Any, Any, int], Any]
    gate: Callable[[Any, Checks], None]
    stripped: Callable[[Any, Any], Any]


def _sweep_run(syz, models, seed: int):
    lo, hi = SWEEP_GENUS
    records, _ = syz.harness.theorem_sweep(
        lo, hi, trials=SWEEP_TRIALS, prime=PRIME, seed=seed
    )
    return records


def _grid_build(family: str, prime: int):
    def build(syz, seed: int):
        return syz.harness.construct_model(family, genus=GRID_GENUS, prime=prime, seed=seed)

    return build


def _grid_run(syz, model, seed: int):
    return syz.harness.analyze_model(model, betti_max_p=GRID_P_MAX)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            build=lambda syz, seed: None,
            run=_sweep_run,
            gate=gate_sweep,
            stripped=lambda syz, recs: [syz.io.strip_timings(r) for r in recs],
        ),
        Workload(
            "grid-4gonal",
            build=_grid_build("fourgonal", PRIME),
            run=_grid_run,
            gate=lambda rep, checks: gate_grid(rep, GRID_GENUS, checks),
            stripped=lambda syz, rep: syz.io.strip_timings(rep),
        ),
        Workload(
            "grid-delpezzo-bigp",
            build=_grid_build("delpezzo", BIG_PRIME),
            run=_grid_run,
            gate=lambda rep, checks: gate_grid(rep, GRID_GENUS, checks),
            stripped=lambda syz, rep: syz.io.strip_timings(rep),
        ),
    )
}


# -- modes ---------------------------------------------------------------------


class _Syzlab:
    """The syzlab modules the workloads call, looked up at call time so
    that the tracer's wrappers are the ones used while it is installed."""

    def __init__(self, src: Path):
        sys.path.insert(0, str(src))
        import syzlab
        import syzlab.harness
        import syzlab.io

        found = Path(syzlab.__file__).resolve()
        if src.resolve() not in found.parents:
            raise SystemExit(f"syzlab imported from {found}, not from {src}")
        self.package = syzlab
        self.harness = syzlab.harness
        self.io = syzlab.io


def _set_up(src: Path, workload: Workload, seed: int):
    syz = _Syzlab(src)
    models = workload.build(syz, seed)
    return syz, models, time.perf_counter() - T_START


class _Iterations:
    """Gated iterations of one workload; every iteration's stripped output
    must equal the first one's."""

    def __init__(self, syz, workload: Workload, models, seed: int):
        self.syz, self.workload, self.models, self.seed = syz, workload, models, seed
        self.checks = Checks()
        self.reference = None

    def run(self, region=None) -> float:
        """One iteration, the call alone inside ``region`` (a tracer);
        returns its wall seconds."""
        t0 = time.perf_counter()
        try:
            with region or contextlib.nullcontext():
                t0 = time.perf_counter()
                out = self.workload.run(self.syz, self.models, self.seed)
                wall = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            self.checks.check(False, "iteration raised")
            return time.perf_counter() - t0
        self.workload.gate(out, self.checks)
        stripped = self.workload.stripped(self.syz, out)
        if self.reference is None:
            self.reference = stripped
        else:
            self.checks.check(
                stripped == self.reference, "stripped output differs between iterations"
            )
        return wall


def _budget_left(seconds: float, steps: list[float], minimum: int) -> bool:
    """Start another step while at least ``minimum`` are not done, or while
    one more step of median length keeps the steps within the budget."""
    if len(steps) < minimum:
        return True
    return sum(steps) + statistics.median(steps) <= seconds


def _setup_sample(src: Path, workload: Workload, seed: int) -> float:
    """setup_s of a fresh interpreter running this script in setup mode."""
    proc = subprocess.run(
        [sys.executable, __file__, "--src", str(src), "--workload", workload.name,
         "--seed", str(seed), "--mode", "setup"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_mode(src: Path, workload: Workload, seed: int, seconds: float) -> dict:
    syz, models, setup_s = _set_up(src, workload, seed)
    iterations = _Iterations(syz, workload, models, seed)
    walls: list[float] = []
    setups = [setup_s]
    while _budget_left(seconds, walls, MIN_ITERATIONS):
        walls.append(iterations.run())
        # set-up samples spread over the run see the same machine as the walls
        setups += [_setup_sample(src, workload, seed) for _ in range(SETUPS_PER_ITERATION)]
    return {
        "setups": setups,
        "walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": vars(iterations.checks),
        "environment": _environment(syz),
    }


def traced_mode(src: Path, workload: Workload, seed: int, seconds: float) -> dict:
    syz, models, _ = _set_up(src, workload, seed)
    import tracer as tr

    iterations = _Iterations(syz, workload, models, seed)
    checks = iterations.checks
    before = tr.snapshot()
    setup_tracer = tr.Tracer()
    with setup_tracer as setup_trace:
        t0 = time.perf_counter()
        traced_models = workload.build(syz, seed)
        traced_build_s = time.perf_counter() - t0
    if models is not None:
        checks.check(
            syz.io.model_digest(traced_models) == syz.io.model_digest(models),
            "traced set-up built a different model",
        )
    checks.check(tr.snapshot() == before, "tracer left a syzlab binding patched")

    traced: list[tuple[float, Any]] = []
    while _budget_left(seconds, [w for w, _ in traced], MIN_TRACED_ITERATIONS):
        tracer = tr.Tracer()
        wall = iterations.run(tracer)
        trace = tracer.trace
        checks.check(tr.snapshot() == before, "tracer left a syzlab binding patched")
        self_sum = sum(span.self_s for span in trace.spans.values())
        residual = wall - self_sum - trace.bookkeeping_s
        checks.check(
            0 <= residual <= 1e-3 + 0.01 * wall,
            f"span self times do not partition the traced wall ({residual:+.6f} s)",
        )
        traced.append((wall, trace))

    mid_wall, mid_trace = sorted(traced, key=lambda item: item[0])[(len(traced) - 1) // 2]
    trace = setup_trace.merged(mid_trace)
    cost = tr.call_cost()
    return {
        "metrics": layer_metrics(
            tr, trace, traced_wall=traced_build_s + mid_wall,
            overhead=tr.overhead_s(trace, cost),
        ),
        "traced_walls": [w for w, _ in traced],
        "call_cost_s": cost,
        "missing_spans": setup_tracer.missing,
        "checks": vars(checks),
        "environment": _environment(syz),
    }


def layer_metrics(tr, trace, traced_wall: float, overhead: float) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one combined trace."""
    s = trace.stats
    rref = s("linalg.rref")
    interp = s("surfaces.interpolation_kernel")
    layer_self = {layer: trace.layer_self_s(layer) for layer in tr.LAYERS}
    out = {
        "linalg.rref.self_s": rref.self_s,
        "linalg.rref.calls": rref.calls,
        "linalg.rref.entries": rref.counters.get("entries", 0),
        "linalg.rref.max_entries": rref.counters.get("max_entries", 0),
        "linalg.rref.density": (
            rref.counters["nnz"] / rref.counters["entries"]
            if rref.counters.get("entries") else 0.0
        ),
        "linalg.kernel_basis.s": s("linalg.kernel_basis").total_s,
        "linalg.kernel_basis.calls": s("linalg.kernel_basis").calls,
        "linalg.rank.calls": s("linalg.rank").calls,
        "ring.ideal_piece.calls": s("ring.ideal_piece").calls,
        "ring.ideal_piece.s": s("ring.ideal_piece").total_s,
        "ring.multiplication_matrix.s": s("ring.multiplication_matrix").total_s,
        "ring.product_table.s": s("ring.product_table").total_s,
        "koszul.syz2_span.s": s("koszul.syz2_span").total_s,
        "koszul.koszul_dimension.s": s("koszul.koszul_dimension").total_s,
        "koszul.koszul_dimension.calls": s("koszul.koszul_dimension").calls,
        "koszul.cells_skipped": s("koszul.koszul_dimension").errors.get("SizeLimitError", 0),
        "scroll.fourgonal_curve.self_s": s("scroll.fourgonal_curve").self_s,
        "surfaces.bielliptic_curve.self_s": s("surfaces.bielliptic_curve").self_s,
        "surfaces.delpezzo_curve.self_s": s("surfaces.delpezzo_curve").self_s,
        "surfaces.genus5_intersection.self_s": s("surfaces.genus5_intersection").self_s,
        "surfaces.interpolation_kernel.calls": interp.calls,
        "surfaces.interpolation_kernel.rows_per_ambient": (
            interp.counters["rows"] / interp.counters["ambient"]
            if interp.counters.get("ambient") else 0.0
        ),
        "harness.classify_theorem.s": s("harness.classify_theorem").total_s,
        "harness.recovered_bidegrees.s": s("harness.recovered_bidegrees").total_s,
        "io.model_digest.s": s("io.model_digest").total_s,
    }
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = value
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = overhead
    out["trace.unattributed_s"] = traced_wall - sum(layer_self.values())
    return out


def _environment(syz) -> dict:
    import os
    import platform

    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "syzlab": getattr(syz.package, "__version__", "unknown"),
        "machine": platform.machine(),
        "thread_caps": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        _, _, setup_s = _set_up(args.src, workload, args.seed)
        result: dict = {"setup_s": setup_s}
    elif args.mode == "timed":
        result = timed_mode(args.src, workload, args.seed, args.seconds)
    else:
        result = traced_mode(args.src, workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
