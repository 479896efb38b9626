"""The benchmark's own tests, at tiny input sizes.

Run from the repository root::

    python3 -m pytest perfledger/selftest.py -q

They check that every metric declared in BENCHMARK.json is emitted with
its declared unit, on the default seed (1) and a held-out one, traced
and untraced; that a corrupted coloring fails the check path; and that
the benchmark refuses to report from a directory without the program.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfledger/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=175,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_declared_metrics_are_emitted_with_their_units(workload, seed, trace):
    out = bench(
        common.ROOT, "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
    )
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_check_coloring_rejects_corruption():
    edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
    assert common.check_coloring(4, edges, [1, 2, 3, 1], 3) is None
    assert "monochromatic" in common.check_coloring(4, edges, [1, 1, 3, 1], 3)
    assert "outside" in common.check_coloring(4, edges, [1, 2, 4, 1], 3)
    assert "entries" in common.check_coloring(4, edges, [1, 2, 3], 3)


def test_tail_refuses_too_few_samples_beyond_it():
    values = [float(x) for x in range(1000)]
    assert common.tail(values, 99) == 989.0
    assert common.tail(values, 50) == 499.5
    with pytest.raises(ValueError):
        common.tail(values[:999], 99)


def test_carve_matching_is_disjoint_and_keeps_the_rest():
    edges = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    base, matching = common.carve_matching(edges, 4, random.Random(3))
    assert len(matching) == 4
    assert len({x for edge in matching for x in edge}) == 8
    assert sorted(base + matching) == edges


def test_host_scale_per_block_and_whole_run():
    assert common.host_scale() > 0
    ops = [common.Op("update", 0.002, True, block=b) for b in (0, 0, 1)]
    common.apply_host_scale(ops, [1.0, 2.0, 0.5])
    assert [op.scale for op in ops] == [1.5, 1.5, 1.25]
    assert ops[0].scaled == pytest.approx(0.003)
    common.apply_host_scale(ops, [1.0, 2.0, 0.5], whole_run=True)
    assert all(op.scale == pytest.approx(3 / 3.5) for op in ops)
    metrics, _ = common.latency_metrics(ops, {"update": 1.0}, tail_q=50)
    assert metrics["latency_p50_ms"] == pytest.approx(2.0 * 3 / 3.5)
    assert metrics["slo_ok_ratio"] == 0.0  # raw 2 ms against a 1 ms limit


def test_corrupted_solve_fails_the_workload_check(tmp_path):
    sys.path.insert(0, str(common.SRC))
    import solve_rotation

    ctx = common.Context(seed=1, scale="tiny", trace=False, state=tmp_path)
    ctx.inputs = json.loads(json.dumps(solve_rotation.generate(ctx)))
    workload = solve_rotation.Workload(ctx)
    workload.setup()
    results = []
    for slot in workload.slots:
        graph = workload.Graph(slot["n"], slot["pairs"])
        results.append((workload.solve(graph, seed=slot["solver_seed"]), 0.0))
    assert workload.check(results) is True
    good, outer = results[0]
    u, v = workload.slots[0]["pairs"][0]
    colors = list(good.colors)
    colors[v] = colors[u]
    results[0] = (dataclasses.replace(good, colors=tuple(colors)), outer)
    assert workload.check(results) is False
    assert workload.failed == 1
    assert any("monochromatic" in error for error in workload.errors)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfledger", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
