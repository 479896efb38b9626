"""``update-stream``: single-edge updates on one long-lived engine.

One in-process caller sends each op through ``repro.api.apply_incremental
(engine, ..., materialize_graph=False)`` with validation on, against one
``IncrementalColoring(backend="dynamic")`` seeded from a solve of
``rrg-32768-d8`` minus a random matching (the matching gives its
endpoints one unit of degree slack, so no op changes Δ).

The schedule is seeded and periodic.  Each period of 44 ops is

* a token-walk cycle: delete an edge ``(t, w)`` so that ``t``'s seven
  remaining neighbours carry seven distinct colors, insert ``(t, y)``
  with ``y`` a slack node of ``t``'s color — greedy repair has no free
  color at ``t``, so the Theorem 5 token walk runs — then delete
  ``(t, y)`` and restore ``(t, w)``;
* ten inserts that conflict but leave a free color (greedy repair),
  alternating with ten that do not conflict;

with every insert but the restore followed by its delete, so the graph
is the base graph again at each period boundary.  A free random
schedule let conflicts die out as the coloring settled; this one fixes
their share.  The solver runs only in set-up; a full re-solve during
the stream means local repair stalled, and is counted.
"""

from __future__ import annotations

import random
import time

import common
from common import Context, Op, flat, latency_metrics, pairs

SIZES = {"full": (32768, 8, 4096), "tiny": (1024, 8, 128)}

#: Conflicting and conflict-free inserts per period, each.  A token walk
#: costs about 1500 ops of the other kinds, so one per period keeps it
#: above the 99th percentile without owning the whole run.
INSERT_PAIRS = 10

PERIOD_OPS = 4 + 4 * INSERT_PAIRS

#: Ops whose exact repair statistics form the run's repeatable record.
PREFIX_OPS = {"full": 20 * PERIOD_OPS, "tiny": 4 * PERIOD_OPS}

#: Every run does at least this many ops, so ``latency_p99_ms`` is
#: always a true p99.
MIN_OPS = max(max(PREFIX_OPS.values()), common.TAIL_OPS)

#: ``slo_ok_ratio`` limit.  A token walk (~0.5 s at full size) misses it,
#: so the ratio rises when the walk gets local.
SLO_MS = {"update": 10.0}

RUNGS = ("greedy", "token-walk", "resolve")

#: Candidates tried for the second endpoint before moving on.
PICK_TRIES = 64


def generate(ctx: Context) -> dict:
    from repro.graphs.generators import random_regular_graph

    n, d, m = SIZES[ctx.scale]
    full = random_regular_graph(n, d, seed=1000 * ctx.seed + 7)
    base, matching = common.carve_matching(list(full.edges()), m, random.Random(ctx.seed))
    return {
        "n": n, "delta": d, "base": flat(base), "matching": flat(matching),
        "solver_seed": 100 * ctx.seed + 7,
    }


class Workload:
    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.inputs = ctx.inputs
        self.n = ctx.inputs["n"]
        self.delta = ctx.inputs["delta"]
        self.prefix = PREFIX_OPS[ctx.scale]
        self.ops: list[Op] = []
        self.errors: list[str] = []
        self.failed = 0
        self.outer: list[float] = []
        self.engine_s: list[float] = []
        self.rung_s: dict[str, list[float]] = {rung: [] for rung in RUNGS}
        self.totals = {
            "rounds": 0, "inserts": 0, "conflicts": 0, "recolored": 0,
            "radius_max": 0, **{f"rung.{rung}": 0 for rung in RUNGS},
        }
        self.record: dict = {}
        self.resolves = 0
        # Edges inserted / deleted relative to the base graph right now.
        self.extra: dict[int, set[int]] = {}
        self.missing: dict[int, set[int]] = {}

    def sizes(self) -> dict:
        return {
            "rrg-32768-d8": {
                "n": self.n, "m": len(self.inputs["base"]) // 2,
                "delta": self.delta, "slack_nodes": len(self.inputs["matching"]),
            }
        }

    def setup(self) -> None:
        from repro.api import SolverConfig, apply_incremental, solve
        from repro.core.incremental import IncrementalColoring
        from repro.graphs.graph import Graph

        self.apply_incremental = apply_incremental
        self.base = Graph(self.n, pairs(self.inputs["base"]))
        self.config = SolverConfig(seed=self.inputs["solver_seed"])
        parent = solve(self.base, self.config)
        self.engine = IncrementalColoring.from_result(
            self.base, parent, config=self.config, backend="dynamic"
        )
        rng = random.Random(self.ctx.seed)
        slack = set(self.inputs["matching"])
        self.slack = sorted(slack)
        self.core = [v for v in range(self.n) if v not in slack]
        rng.shuffle(self.slack)
        rng.shuffle(self.core)
        self.slack_at = 0
        self.core_at = 0
        # Warm-up: one untimed period pays first-call costs of every rung.
        for _, added, removed in self.period():
            self.apply(added, removed)
            self.track(added, removed)

    # -- schedule ---------------------------------------------------------

    def neighbors(self, v: int) -> list[int]:
        return self.base.neighbors(v)

    def next_slack(self) -> int:
        v = self.slack[self.slack_at]
        self.slack_at = (self.slack_at + 1) % len(self.slack)
        return v

    def pick_partner(self, x: int, want) -> int | None:
        adjacent = self.neighbors(x)
        for _ in range(PICK_TRIES):
            y = self.next_slack()
            if y != x and y not in adjacent and want(y):
                return y
        return None

    def pick_token_walk(self, col) -> tuple[int, int, int]:
        while True:
            t = self.core[self.core_at]
            self.core_at = (self.core_at + 1) % len(self.core)
            seen: dict[int, int] = {}
            w = None
            for z in self.neighbors(t):
                if col[z] in seen:
                    w = z
                seen[col[z]] = z
            if len(seen) != self.delta - 1:
                continue  # needs 7 distinct neighbour colors, one repeated
            y = self.pick_partner(t, lambda y: y > t and col[y] == col[t])
            if y is not None:
                return t, w, y

    def pick_pair(self, conflict: bool, col) -> tuple[int, int]:
        while True:
            x = self.next_slack()
            if conflict:
                y = self.pick_partner(
                    x,
                    lambda y: col[y] == col[x]
                    and len({col[z] for z in self.neighbors(min(x, y))}) < self.delta - 1,
                )
            else:
                y = self.pick_partner(x, lambda y: col[y] != col[x])
            if y is not None:
                return x, y

    def period(self):
        """One period's ops as ``(kind, added, removed)``; each pick runs
        untimed, just before its op, against the current coloring."""
        t, w, y = self.pick_token_walk(self.engine.colors_view())
        yield "delete", [], [(t, w)]
        yield "insert", [(t, y)], []
        yield "delete", [], [(t, y)]
        yield "insert", [(t, w)], []
        for conflict in (True, False) * INSERT_PAIRS:
            x, y = self.pick_pair(conflict, self.engine.colors_view())
            yield "insert", [(x, y)], []
            yield "delete", [], [(x, y)]

    # -- ops --------------------------------------------------------------

    def apply(self, added, removed):
        return self.apply_incremental(
            self.engine, added, removed, self.config, materialize_graph=False
        )

    def track(self, added, removed) -> None:
        for u, v in added:
            self.edit(u, v, insert=True)
        for u, v in removed:
            self.edit(u, v, insert=False)

    def edit(self, u: int, v: int, insert: bool) -> None:
        for a, b in ((u, v), (v, u)):
            undo, do = (self.missing, self.extra) if insert else (self.extra, self.missing)
            if b in undo.get(a, ()):
                undo[a].discard(b)
            else:
                do.setdefault(a, set()).add(b)

    def current_neighbors(self, v: int) -> set[int]:
        return (set(self.neighbors(v)) - self.missing.get(v, set())) | self.extra.get(v, set())

    def run(self, seconds: float) -> None:
        tracer = self.ctx.tracer
        deadline = time.perf_counter() + seconds
        block = 0
        probes = [common.host_scale()]  # one block per period
        while time.perf_counter() < deadline or len(self.ops) < MIN_OPS:
            traced = self.ctx.block_traced(block)
            for kind, added, removed in self.period():
                started = time.perf_counter()
                span = (
                    tracer.start_span("bench.apply_incremental", attrs={"kind": kind})
                    if traced else None
                )
                called = time.perf_counter()
                out = self.apply(added, removed)
                outer = time.perf_counter() - called
                update = out.update
                if traced:
                    engine = tracer.emit("incremental.engine", span, update["wall_time_s"])
                    offset = 0.0
                    for rung, wall in update["rung_wall_s"].items():
                        tracer.emit(f"incremental.{rung}", engine, wall, offset_s=offset)
                        offset += wall
                    span.end()
                op_s = time.perf_counter() - started
                self.track(added, removed)
                ok = self.check(kind, added, out)
                self.ops.append(Op("update", op_s, ok, traced, block))
                self.outer.append(outer)
                self.engine_s.append(update["wall_time_s"])
                for rung, wall in update["rung_wall_s"].items():
                    self.rung_s[rung].append(wall)
                if len(self.ops) <= self.prefix:
                    self.count(kind, update)
                    if len(self.ops) == self.prefix:
                        self.record = {
                            **self.totals,
                            "colors_digest": common.digest(self.engine.colors),
                        }
            probes.append(common.host_scale())
            block += 1
        common.apply_host_scale(self.ops, probes)

    def count(self, kind: str, update: dict) -> None:
        totals = self.totals
        totals["rounds"] += update["rounds"]
        totals["inserts"] += kind == "insert"
        totals["conflicts"] += update["conflicts"]
        totals["recolored"] += update["recolored_count"]
        totals["radius_max"] = max(totals["radius_max"], update["max_repair_radius"])
        for rung in update["rung_wall_s"]:
            totals[f"rung.{rung}"] += 1

    def check(self, kind: str, added, out) -> bool:
        """Validity of the reply's coloring around everything the op
        could have touched (a full re-solve: everywhere)."""
        colors = out.result.colors
        update = out.update
        error = None
        if out.result.palette != self.delta or update["edges_added"] != len(added):
            error = f"reply palette {out.result.palette} / edges_added {update['edges_added']}"
        elif update["full_resolve"]:
            self.resolves += 1
            error = self.check_all(colors)
        else:
            dirty = self.engine.last_dirty_region or []
            for v in dirty:
                c = colors[v]
                if not 1 <= c <= self.delta:
                    error = f"node {v} has color {c} outside 1..{self.delta}"
                    break
                clash = next((w for w in self.current_neighbors(v) if colors[w] == c), None)
                if clash is not None:
                    error = f"edge ({v}, {clash}) is monochromatic after a {kind}"
                    break
        if error:
            self.failed += 1
            self.errors.append(error)
        return error is None

    def check_all(self, colors) -> str | None:
        edges = [
            (u, v) for u in range(self.n) for v in self.current_neighbors(u) if u < v
        ]
        return common.check_coloring(self.n, edges, colors, self.delta)

    def finish(self) -> dict:
        final = self.engine.colors
        error = common.check_coloring(self.n, pairs(self.inputs["base"]), final, self.delta)
        if error:
            self.failed += 1
            self.errors.append(f"final coloring: {error}")
        ops = self.ops
        metrics, samples = latency_metrics(ops, SLO_MS, tail_q=99)
        metrics["peak_rss_mb"] = common.peak_rss_mb()
        metrics["local_rounds"] = self.totals["rounds"] / self.prefix
        samples["full_resolves"] = self.resolves
        per_layer: dict[str, float] = {}
        if self.ctx.trace:
            med = common.median
            per_layer["api.apply_incremental.self_us"] = 1e6 * med(
                [o - e for o, e in zip(self.outer, self.engine_s)]
            )
            per_layer["incremental.engine_us"] = 1e6 * med(self.engine_s)
            for rung in RUNGS:
                per_layer[f"incremental.rung.{rung}.count"] = float(self.totals[f"rung.{rung}"])
                per_layer[f"incremental.rung.{rung}.wall_us"] = 1e6 * med(self.rung_s[rung])
            per_layer["incremental.conflict_ratio"] = (
                self.totals["conflicts"] / max(1, self.totals["inserts"])
            )
            per_layer["incremental.recolored_per_op"] = self.totals["recolored"] / self.prefix
            per_layer["incremental.repair_radius_max"] = float(self.totals["radius_max"])
        return {
            "attempted": len(ops),
            "failed": self.failed,
            "errors": self.errors[:5],
            "end_to_end": metrics,
            "samples": samples,
            "per_layer": per_layer,
            "record": self.record,
        }

    def close(self) -> None:
        pass
