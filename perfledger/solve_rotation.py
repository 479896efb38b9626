"""``solve-rotation``: one in-process caller solving three nice instances.

One op is a fixed rotation through ``repro.api.solve(graph, seed=s)``
with the default ``algorithm="auto"``:

* ``rrg-32768-d8`` — Theorem 3, where DCC detection dominates;
* ``torus-128x128`` — Δ = 4 and dense in degree-choosable components,
  so the ruling set and B0 carry weight;
* ``rrg-16384-d3`` — Theorem 1, several hundred LOCAL rounds.

Every op solves freshly built ``Graph`` objects (a re-used graph keeps
its cached adjacency and Δ, which real callers do not get); they are
built from the stored edge lists outside the timed call.  The solver
phases do almost all the work; the service and incremental layers none.
"""

from __future__ import annotations

import time

import common
from common import Context, Op, flat, latency_metrics, pairs

#: Slot name -> (family, a, b) at full scale and at the test scale.  The
#: slot names stay the same at both scales so metric names do too.
SLOTS = {
    "full": [
        ("rrg-32768-d8", "rrg", 32768, 8),
        ("torus-128x128", "torus", 128, 128),
        ("rrg-16384-d3", "rrg", 16384, 3),
    ],
    "tiny": [
        ("rrg-32768-d8", "rrg", 512, 8),
        ("torus-128x128", "torus", 12, 12),
        ("rrg-16384-d3", "rrg", 256, 3),
    ],
}

WARMUP = [("rrg", 64, 8), ("torus", 6, 6), ("rrg", 64, 3)]

PHASES = (
    "linial", "dcc-detect", "dcc-ruling-set", "b-layers", "marking",
    "happiness-layers", "small-components", "c-layers", "b0",
)

SLO_MS = {"miss": 20_000.0}


def build(family: str, a: int, b: int, seed: int):
    from repro.graphs.generators import random_regular_graph, torus_grid

    if family == "torus":
        return torus_grid(a, b)
    return random_regular_graph(a, b, seed=seed)


def generate(ctx: Context) -> dict:
    slots = []
    for k, (name, family, a, b) in enumerate(SLOTS[ctx.scale]):
        graph = build(family, a, b, seed=1000 * ctx.seed + k)
        slots.append({
            "name": name,
            "n": graph.n,
            "delta": graph.max_degree(),
            "edges": flat(graph.edges()),
            "solver_seed": 100 * ctx.seed + k,
        })
    return {"slots": slots}


def phase_name(key: str) -> str:
    """``"8:b-layers"`` -> ``"b-layers"`` (both B-layer passes share it)."""
    return key.split(":", 1)[-1]


class Workload:
    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.ops: list[Op] = []
        self.slots = ctx.inputs["slots"]
        self.errors: list[str] = []
        self.failed = 0
        self.reference: list[tuple[str, int]] | None = None
        # per slot: solve outer seconds, engine wall, phase walls, re-timed checks
        self.samples = [
            {"outer": [], "engine": [], "phases": {p: [] for p in PHASES},
             "is_nice": [], "validate": []}
            for _ in self.slots
        ]
        self.phase_rounds: list[dict[str, int]] = [{} for _ in self.slots]

    def sizes(self) -> dict:
        return {
            s["name"]: {"n": s["n"], "m": len(s["edges"]) // 2, "delta": s["delta"]}
            for s in self.slots
        }

    def setup(self) -> None:
        from repro.api import solve
        from repro.graphs.graph import Graph

        self.solve = solve
        self.Graph = Graph
        for slot in self.slots:
            slot["pairs"] = pairs(slot["edges"])
        # Warm-up: one small solve per family pays the lazy imports and
        # first-call costs every caller pays once.
        for k, (family, a, b) in enumerate(WARMUP):
            solve(build(family, a, b, seed=k), seed=k)

    def run(self, seconds: float) -> None:
        tracer = self.ctx.tracer
        deadline = time.perf_counter() + seconds
        block = 0
        probes = [common.host_scale()]
        while True:
            graphs = [self.Graph(s["n"], s["pairs"]) for s in self.slots]
            traced = self.ctx.block_traced(block)
            results = []
            op_s = 0.0
            root = tracer.start_span("bench.rotation") if traced else None
            for k, (slot, graph) in enumerate(zip(self.slots, graphs)):
                started = time.perf_counter()
                span = (
                    tracer.start_span("bench.solve", parent=root, attrs={"instance": slot["name"]})
                    if traced else None
                )
                called = time.perf_counter()
                result = self.solve(graph, seed=slot["solver_seed"])
                outer = time.perf_counter() - called
                if traced:
                    offset = 0.0
                    for key, stats in result.phase_stats.items():
                        wall = stats.get("wall_s", 0.0)
                        tracer.emit(f"core.{phase_name(key)}", span, wall, offset_s=offset)
                        offset += wall
                    span.end()
                op_s += time.perf_counter() - started
                results.append((result, outer))
                probes.append(common.host_scale())  # untimed, between solves
            if traced:
                root.end()
            ok = self.check(results)
            self.ops.append(Op("miss", op_s, ok, traced, block))
            if self.ctx.trace:
                self.retime(results)
            block += 1
            if time.perf_counter() >= deadline:
                break
        common.apply_host_scale(self.ops, probes, whole_run=True)

    def check(self, results: list) -> bool:
        ok = True
        digests = []
        for k, (slot, (result, outer)) in enumerate(zip(self.slots, results)):
            error = common.check_coloring(slot["n"], slot["pairs"], result.colors, slot["delta"])
            digests.append((result.content_digest(), result.rounds))
            sample = self.samples[k]
            sample["outer"].append(outer)
            sample["engine"].append(result.wall_time_s)
            walls = {p: 0.0 for p in PHASES}
            for key, stats in result.phase_stats.items():
                walls[phase_name(key)] += stats.get("wall_s", 0.0)
            for p in PHASES:
                sample["phases"][p].append(walls[p])
            rounds = {p: 0 for p in PHASES}
            for key, value in result.phase_rounds.items():
                rounds[phase_name(key)] += value
            self.phase_rounds[k] = rounds
            if error:
                ok = False
                self.errors.append(f"{slot['name']}: {error}")
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            ok = False
            self.errors.append("a rotation's digests or rounds differ from the first rotation's")
        self.failed += not ok
        return ok

    def retime(self, results: list) -> None:
        """Re-time the precondition and validation passes the facade
        runs inside each solve, once per call on a fresh graph."""
        from repro.graphs.properties import is_nice
        from repro.graphs.validation import validate_coloring

        for k, (slot, (result, _)) in enumerate(zip(self.slots, results)):
            graph = self.Graph(slot["n"], slot["pairs"])
            started = time.perf_counter()
            is_nice(graph)
            self.samples[k]["is_nice"].append(time.perf_counter() - started)
            started = time.perf_counter()
            validate_coloring(graph, result.colors, max_colors=result.palette)
            self.samples[k]["validate"].append(time.perf_counter() - started)

    def finish(self) -> dict:
        ops = self.ops
        # A run holds a handful of rotations, too few for any tail, so
        # latency_p99_ms carries the median on every run of this workload.
        metrics, samples = latency_metrics(ops, SLO_MS, tail_q=50)
        local_rounds = sum(rounds for _, rounds in self.reference)
        metrics["peak_rss_mb"] = common.peak_rss_mb()
        metrics["local_rounds"] = float(local_rounds)
        per_layer: dict[str, float] = {}
        if self.ctx.trace:
            med = common.median
            for slot, sample, rounds in zip(self.slots, self.samples, self.phase_rounds):
                name = slot["name"]
                phase_total = 0.0
                for p in PHASES:
                    wall = med(sample["phases"][p])
                    phase_total += wall
                    per_layer[f"core.{p}.wall_ms.{name}"] = 1000.0 * wall
                    per_layer[f"core.{p}.rounds.{name}"] = float(rounds[p])
                engine = med(sample["engine"])
                per_layer[f"core.unattributed.wall_ms.{name}"] = 1000.0 * (engine - phase_total)
                per_layer[f"api.solve.self_ms.{name}"] = 1000.0 * med(
                    [o - e for o, e in zip(sample["outer"], sample["engine"])]
                )
                per_layer[f"graphs.is_nice_ms.{name}"] = 1000.0 * med(sample["is_nice"])
                per_layer[f"graphs.validate_coloring_ms.{name}"] = 1000.0 * med(
                    sample["validate"]
                )
        return {
            "attempted": len(ops),
            "failed": self.failed,
            "errors": self.errors[:5],
            "end_to_end": metrics,
            "samples": samples,
            "per_layer": per_layer,
            "record": {
                "local_rounds": local_rounds,
                "digests": [digest for digest, _ in self.reference],
            },
        }

    def close(self) -> None:
        pass
