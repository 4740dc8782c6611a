"""Self-tests of the benchmark: the correctness gate and the tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import tracer as tr  # noqa: E402

# kappa grids (rows q = 0..3, columns p = 0..5) of the two g = 7 grid models
GRID_4GONAL = [
    [1, 0, 0, 0, 0, 0],
    [0, 10, 16, 3, 0, 0],
    [0, 0, 3, 16, 10, 0],
    [0, 0, 0, 0, 0, 1],
]
GRID_DELPEZZO = [
    [1, 0, 0, 0, 0, 0],
    [0, 10, 16, 9, 0, 0],
    [0, 0, 9, 16, 10, 0],
    [0, 0, 0, 0, 0, 1],
]


def _report(entries, truncated=False) -> dict:
    return {
        "genus": 7,
        "kappa11": 10,
        "kappa21": 16,
        "passed": True,
        "betti": {"entries": copy.deepcopy(entries), "truncated": truncated},
    }


def _gate_grid(report) -> bench.Checks:
    checks = bench.Checks()
    bench.gate_grid(report, 7, checks)
    return checks


@pytest.mark.parametrize("grid", [GRID_4GONAL, GRID_DELPEZZO])
def test_gate_accepts_the_g7_grids(grid):
    checks = _gate_grid(_report(grid))
    assert checks.failed == 0, checks.messages
    # passed, genus, kappa21, complete, shape, two kappa routes,
    # 12 duality pairs, 11 Euler diagonals
    assert checks.attempted == 3 + 1 + 3 + 12 + 11


@pytest.mark.parametrize("q", range(4))
@pytest.mark.parametrize("p", range(6))
def test_gate_rejects_one_perturbed_cell(p, q):
    report = _report(GRID_4GONAL)
    report["betti"]["entries"][q][p] += 1
    assert _gate_grid(report).failed > 0


def test_gate_rejects_a_skipped_cell():
    report = _report(GRID_4GONAL)
    report["betti"]["entries"][3][4] = -1
    assert _gate_grid(report).failed == 1
    assert _gate_grid(_report(GRID_4GONAL, truncated=True)).failed == 1


def _sweep_records() -> list[dict]:
    return [
        {"genus": g, "family": "f", "trial": 0, "kappa21": bench.kappa21_formula(g),
         "passed": True}
        for g in range(5, 14)
    ]


def test_gate_accepts_a_good_sweep():
    checks = bench.Checks()
    bench.gate_sweep(_sweep_records(), checks)
    assert checks.failed == 0 and checks.attempted == 1 + 3 * 9


def test_gate_rejects_a_sweep_with_one_failing_record():
    for field, value in (("passed", False), ("kappa21", 17)):
        records = _sweep_records()
        records[4][field] = value
        checks = bench.Checks()
        bench.gate_sweep(records, checks)
        assert checks.failed == 1, field


def test_gate_rejects_an_empty_sweep():
    checks = bench.Checks()
    bench.gate_sweep([], checks)
    assert checks.failed == 1


@pytest.fixture(scope="module")
def syz():
    return bench._Syzlab(ROOT / "src")


def test_tracer_wraps_every_binding_and_restores_them(syz):
    import syzlab.koszul
    import syzlab.linalg

    model = syz.harness.construct_model("genus5", seed=1)
    rank = syzlab.linalg.rank
    before = tr.snapshot()
    tracer = tr.Tracer()
    with tracer as trace:
        # imported by name into koszul and the package: every binding wraps
        for module in (syzlab.linalg, syzlab.koszul, syz.package):
            assert module.rank is not rank and module.rank.__wrapped__ is rank
        syz.harness.analyze_model(model)
    assert tr.snapshot() == before
    assert syzlab.koszul.rank is rank
    assert tracer.missing == []
    assert trace.stats("harness.analyze_model").calls == 1
    assert trace.stats("linalg.kernel_basis").calls >= 1
    assert trace.stats("linalg.rref").counters["entries"] > 0


def test_tracer_restores_after_an_exception(syz):
    before = tr.snapshot()
    with pytest.raises(ValueError):
        with tr.Tracer() as trace:
            syz.harness.construct_model("no-such-family", genus=7)
    assert tr.snapshot() == before
    assert trace.stats("harness.construct_model").errors == {"ValueError": 1}


def test_self_times_partition_the_root_span(syz):
    model = syz.harness.construct_model("fourgonal", genus=6, seed=2)
    with tr.Tracer() as trace:
        syz.harness.analyze_model(model, betti_max_p=2)
    root = trace.stats("harness.analyze_model")
    self_sum = sum(s.self_s for s in trace.spans.values())
    assert self_sum + trace.bookkeeping_s >= root.total_s
    assert self_sum + trace.bookkeeping_s - root.total_s < 1e-3
    assert sum(trace.layer_self_s(layer) for layer in tr.LAYERS) == pytest.approx(self_sum)


def test_overhead_covers_the_unattributed_time(syz):
    model = syz.harness.construct_model("fourgonal", genus=6, seed=2)
    with tr.Tracer() as trace:
        syz.harness.analyze_model(model, betti_max_p=2)
    root = trace.stats("harness.analyze_model")
    unattributed = root.total_s - sum(s.self_s for s in trace.spans.values())
    cost = tr.call_cost(calls=2000)
    assert cost > 0
    assert tr.overhead_s(trace, cost) >= max(unattributed, trace.bookkeeping_s)


def test_tracer_skips_functions_the_program_lacks():
    target = tr.Target("linalg.gone", "syzlab.linalg", "no_such_function", "L0")
    tracer = tr.Tracer(targets=(target,))
    with tracer:
        pass
    assert tracer.missing == ["linalg.gone"]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
