"""``serve-mix``: the TCP service under a fixed hit/miss/update mix.

``python -m repro serve`` runs as a subprocess with default flags (one
solver worker, in-memory store).  This process is the client: one
``AsyncColoringClient`` connection and one caller that waits for each
reply before sending the next request (a closed loop, one request
outstanding), so a hit's latency does not depend on which misses it
queues behind.  Where there are two CPUs or more, client and server are
pinned to different ones.

The seeded request sequence repeats every 20 requests:

* 14 hot solves over four graphs of 256-4096 nodes, warmed before
  timing, so every one is a cache hit;
* 4 misses: the same graphs with solver seeds never sent before, which
  pay graph build, solve and encode;
* 2 chained single-edge updates, one per lineage.

The weights put each class's median inside one graph size.
``local_rounds`` is the mean LOCAL rounds of the misses and updates in
the first 400 requests (a hit runs none).  A gain for reads that costs
writes shows here as ``hit_p50_ms`` against ``miss_p50_ms`` and
``update_p50_ms``.  Timings are host-scaled per period
(``common.host_scale``), probed on the client's and the server's CPU
while the server idles between requests.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import os
import random
import subprocess
import sys
import time
from typing import Any

import common
from common import Context, Op, flat, latency_metrics, pairs
from repro.errors import ReproError
from repro.graphs.generators import random_regular_graph

#: name, n, d; full scale and the test scale.
HOT = {
    "full": [("rrg-256-d4", 256, 4), ("rrg-1024-d4", 1024, 4),
             ("rrg-2048-d5", 2048, 5), ("rrg-4096-d3", 4096, 3)],
    "tiny": [("rrg-256-d4", 32, 4), ("rrg-1024-d4", 64, 4),
             ("rrg-2048-d5", 96, 5), ("rrg-4096-d3", 128, 3)],
}
#: name, n, d, carved matching size.
LINEAGES = {
    "full": [("rrg-2048-d4", 2048, 4, 64), ("rrg-1024-d6", 1024, 6, 64)],
    "tiny": [("rrg-2048-d4", 64, 4, 8), ("rrg-1024-d6", 48, 6, 8)],
}

PERIOD = 20
UPDATE_AT = {0: 0, 10: 1}  # position in the period -> lineage
MISS_AT = (3, 8, 13, 18)
HIT_ORDER = (0, 1, 1, 2, 1, 3, 1, 0, 1, 2, 1, 3, 0, 2)  # weights 3:6:3:2
MISS_ORDER = (0, 1, 2, 1)
#: Misses use solver seeds from here on, never sent before.
MISS_SEEDS = 10**6

#: Requests whose exact rounds and digests form the repeatable record.
PREFIX = {"full": 400, "tiny": 60}
#: Every run sends at least this many, so ``latency_p99_ms`` is always a
#: true p99.
MIN_REQUESTS = max(max(PREFIX.values()), common.TAIL_OPS)
#: Requests per class re-timed layer by layer in traced runs.
RETIME = 20

#: Per-class ``slo_ok_ratio`` limits; a failed request misses them too.
SLO_MS = {"hit": 50.0, "miss": 500.0, "update": 100.0}

WIRE = contextvars.ContextVar("perfledger_wire", default=None)


def generate(ctx: Context) -> dict:
    hot = []
    for i, (name, n, d) in enumerate(HOT[ctx.scale]):
        graph = random_regular_graph(n, d, seed=1000 * ctx.seed + 11 + i)
        hot.append({"name": name, "n": n, "delta": d, "edges": flat(graph.edges()),
                    "seed": 100 * ctx.seed + i})
    lineages = []
    rng = random.Random(ctx.seed)
    for i, (name, n, d, m) in enumerate(LINEAGES[ctx.scale]):
        graph = random_regular_graph(n, d, seed=1000 * ctx.seed + 21 + i)
        base, matching = common.carve_matching(list(graph.edges()), m, rng)
        lineages.append({
            "name": name, "n": n, "delta": d, "edges": flat(base),
            "matching": flat(matching), "seed": 100 * ctx.seed + 50 + i,
        })
    return {"hot": hot, "lineages": lineages}


def plan(i: int) -> tuple[str, int, int]:
    """Request ``i`` of the sequence as ``(class, graph or lineage, n-th
    of its class in the sequence)``."""
    period, pos = divmod(i, PERIOD)
    if pos in UPDATE_AT:
        return "update", UPDATE_AT[pos], period
    if pos in MISS_AT:
        k = period * len(MISS_AT) + MISS_AT.index(pos)
        return "miss", MISS_ORDER[k % len(MISS_ORDER)], k
    k = period * len(HIT_ORDER) + sum(1 for p in range(pos) if p not in UPDATE_AT and p not in MISS_AT)
    return "hit", HIT_ORDER[k % len(HIT_ORDER)], k


class Workload:
    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.hot = ctx.inputs["hot"]
        self.lineages = ctx.inputs["lineages"]
        self.prefix = PREFIX[ctx.scale]
        self.ops: list[Op] = []
        self.op_at: dict[int, Op] = {}  # by request index
        self.errors: list[str] = []
        self.failed = 0
        self.server: subprocess.Popen | None = None
        self.loop = asyncio.new_event_loop()
        self.client = None
        self.replies: dict[int, tuple[str, int, int, Any, Any]] = {}  # checked after timing
        self.wire: list[tuple[float, str]] = []  # (client seconds, bench span id)
        self.server_rss_mb = 0.0
        self.stats: dict = {}
        self.pinning: dict = {}

    def sizes(self) -> dict:
        out = {g["name"]: {"n": g["n"], "m": len(g["edges"]) // 2} for g in self.hot}
        for lineage in self.lineages:
            out[lineage["name"]] = {"n": lineage["n"], "m": len(lineage["edges"]) // 2,
                                    "lineage": True}
        return out

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        from repro.graphs.graph import Graph

        self.graphs = [Graph(g["n"], pairs(g["edges"])) for g in self.hot]
        self.lineage_graphs = [Graph(x["n"], pairs(x["edges"])) for x in self.lineages]
        port_file = self.ctx.state / "port"
        port_file.unlink(missing_ok=True)  # left by an earlier set-up
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0", "--port-file", str(port_file)]
        if self.ctx.trace:
            # sample 0: the server traces exactly the requests that carry
            # a bench span's wire context, so untraced ones stay a baseline
            cmd += ["--trace-dir", str(self.ctx.state / "trace"), "--trace-sample", "0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(common.SRC), env.get("PYTHONPATH")]))
        self.server = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL)
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2:
            os.sched_setaffinity(self.server.pid, {cpus[1]})
            os.sched_setaffinity(0, {cpus[0]})
            self.pinning = {"client_cpu": cpus[0], "server_cpu": cpus[1]}
        deadline = time.monotonic() + 60.0
        while not port_file.exists():
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("server did not start")
            time.sleep(0.005)
        host, port = port_file.read_text().split()
        self.loop.run_until_complete(self.connect(host, int(port)))

    async def connect(self, host: str, port: int) -> None:
        from repro.service.client import AsyncColoringClient

        class Client(AsyncColoringClient):
            async def _roundtrip(self, request: dict[str, Any]) -> dict[str, Any]:
                # The protocol's optional ``trace`` field; the public
                # methods have no parameter for it.
                context = WIRE.get()
                if context is not None:
                    request["trace"] = context
                return await super()._roundtrip(request)

        self.client = await Client(host, port).connect()
        if not await self.client.ping():
            raise RuntimeError("server did not answer ping")
        self.hot_ref = []
        for graph, g in zip(self.graphs, self.hot):
            self.hot_ref.append((await self.client.solve(graph, seed=g["seed"])).result)
        self.heads = []
        for graph, lineage in zip(self.lineage_graphs, self.lineages):
            self.heads.append((await self.client.solve(graph, seed=lineage["seed"])).fingerprint)
        # Step 0 of each lineage creates its chain engine on the server.
        for lineage in range(len(self.lineages)):
            await self.update(lineage, 0)

    # -- requests ---------------------------------------------------------

    def edge(self, lineage: int, step: int) -> tuple[tuple[int, int], bool]:
        """Update ``step`` of a lineage: insert matching edge ``step // 2``
        on even steps, delete it again on odd ones."""
        matching = pairs(self.lineages[lineage]["matching"])
        return matching[(step // 2) % len(matching)], step % 2 == 0

    async def update(self, lineage: int, step: int):
        edge, insert = self.edge(lineage, step)
        parent = self.heads[lineage]
        reply = await self.client.update(
            parent, edges_added=[edge] if insert else [],
            edges_removed=[] if insert else [edge], backend="dynamic",
            seed=self.lineages[lineage]["seed"],
        )
        self.heads[lineage] = reply.fingerprint
        return parent, reply

    def solver_seed(self, klass: str, target: int, k: int) -> int:
        return self.hot[target]["seed"] if klass == "hit" else MISS_SEEDS + k

    async def one(self, i: int) -> None:
        klass, target, k = plan(i)
        traced = self.ctx.block_traced(i // PERIOD)
        parent = reply = None
        started = time.perf_counter()
        span = (
            self.ctx.tracer.start_span("bench.request", attrs={"class": klass, "i": i})
            if traced else None
        )
        token = WIRE.set(span.wire_context() if traced else None)
        try:
            if klass == "update":
                parent, reply = await self.update(target, k + 1)
            else:
                reply = await self.client.solve(
                    self.graphs[target], seed=self.solver_seed(klass, target, k)
                )
        except ReproError as exc:  # a typed error reply: the request failed
            self.errors.append(f"{klass} {i}: {exc}")
        finally:
            WIRE.reset(token)
            if traced:
                span.end()
        seconds = time.perf_counter() - started
        if traced:
            self.wire.append((seconds, span.span_id))
        ok = reply is not None
        if ok and klass == "hit":
            result = reply.result
            ok = result == self.hot_ref[target] or (
                result.content_digest() == self.hot_ref[target].content_digest()
            )
            if not ok:
                self.errors.append(f"hit {i} differs from the fresh solve")
        if reply is not None and (klass != "hit" or i < self.prefix):
            self.replies[i] = (klass, target, k, parent, reply)
        op = Op(klass, seconds, ok, traced, i // PERIOD)
        self.ops.append(op)
        self.op_at[i] = op

    def run(self, seconds: float) -> None:
        self.loop.run_until_complete(self.drive(seconds))

    async def drive(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        i = 0
        probes = []  # one block per period
        # whole periods only, so every block has the same request mix
        while i < MIN_REQUESTS or time.perf_counter() < deadline or i % PERIOD:
            if i % PERIOD == 0:
                probes.append(self.host_scale())
            await self.one(i)
            i += 1
        probes.append(self.host_scale())
        common.apply_host_scale(self.ops, probes)
        self.stats = await self.client.stats()
        self.server_rss_mb = common.peak_rss_mb(self.server.pid)

    def host_scale(self) -> float:
        """``common.host_scale`` averaged over the client's CPU and the
        server's, probed from this process while the server idles."""
        if not self.pinning:
            return common.host_scale()
        own = os.sched_getaffinity(0)
        scales = [common.host_scale()]
        os.sched_setaffinity(0, {self.pinning["server_cpu"]})
        try:
            scales.append(common.host_scale())
        finally:
            os.sched_setaffinity(0, own)
        return sum(scales) / len(scales)

    # -- checks and metrics -------------------------------------------------

    def check(self) -> dict:
        """Validity of every coloring served, lineage of every update,
        hot references against an in-process fresh solve, and the
        prefix record that must repeat between runs.  A request whose
        reply fails a check counts as failed, and as an SLO miss."""
        from repro.api import solve

        bad_refs = set()
        for target, (g, graph, ref) in enumerate(zip(self.hot, self.graphs, self.hot_ref)):
            error = common.check_coloring(g["n"], pairs(g["edges"]), ref.colors, g["delta"])
            if error is None and (
                solve(graph, seed=g["seed"]).content_digest() != ref.content_digest()
            ):
                error = "differs from a fresh solve"
            if error:
                bad_refs.add(target)
                self.errors.append(f"served {g['name']}: {error}")
        for i, op in self.op_at.items():
            klass, target, _ = plan(i)
            if klass == "hit" and target in bad_refs:
                op.ok = False  # every hit of it equals the bad reference
        rounds = worked = 0
        digests = []
        for i in sorted(self.replies):
            klass, target, k, parent, reply = self.replies[i]
            result = reply.result
            error = None
            if klass == "miss":
                g = self.hot[target]
                error = common.check_coloring(g["n"], pairs(g["edges"]), result.colors, g["delta"])
                if result.seed != MISS_SEEDS + k:
                    error = f"miss {i} answered for seed {result.seed}"
            elif klass == "update":
                lineage = self.lineages[target]
                edge, insert = self.edge(target, k + 1)
                edges = pairs(lineage["edges"]) + ([edge] if insert else [])
                error = common.check_coloring(lineage["n"], edges, result.colors, lineage["delta"])
                if reply.parent_digest != parent:
                    error = f"update {i} names parent {reply.parent_digest}, sent {parent}"
            if error:
                self.op_at[i].ok = False
                self.errors.append(error)
            if i < self.prefix:
                if klass != "hit":  # a hit runs no rounds
                    rounds += result.rounds
                    worked += 1
                digests.append(result.content_digest())
        self.failed = sum(not op.ok for op in self.ops)
        return {
            "local_rounds": rounds / max(1, worked),
            "digest": common.digest(digests),
        }

    def retime(self) -> dict[str, float]:
        """Re-time the codec and fingerprint layers on the exact payloads
        of the first requests of each class."""
        from repro.api import ColoringResult
        from repro.service.client import config_payload, graph_payload
        from repro.service.fingerprint import (
            combine_fingerprints, config_fingerprint, edge_keys_fingerprint,
        )
        from repro.service.server import config_from_payload, parse_graph_payload

        taken = {"hit": 0, "miss": 0, "update": 0}
        times: dict[str, list[float]] = {k: [] for k in (
            "client.encode_ms", "service.decode_ms", "service.fingerprint_us",
            "graphs.build_ms", "service.encode_ms", "client.decode_ms")}
        clock = time.perf_counter
        for i in sorted(self.replies):
            klass, target, k, _, reply = self.replies[i]
            if taken[klass] >= RETIME:
                continue
            taken[klass] += 1
            if klass != "update":
                seed = self.solver_seed(klass, target, k)
                t0 = clock()
                line = json.dumps({"op": "solve", "graph": graph_payload(self.graphs[target]),
                                   "config": config_payload(None, {"seed": seed}), "id": i},
                                  separators=(",", ":"))
                t1 = clock()
                request = json.loads(line)
                parsed = parse_graph_payload(request["graph"])
                config = config_from_payload(request["config"])
                t2 = clock()
                combine_fingerprints(edge_keys_fingerprint(parsed.n, parsed.edge_keys),
                                     config_fingerprint(config))
                t3 = clock()
                times["client.encode_ms"].append(1e3 * (t1 - t0))
                times["service.decode_ms"].append(1e3 * (t2 - t1))
                times["service.fingerprint_us"].append(1e6 * (t3 - t2))
                if klass == "miss":
                    t0 = clock()
                    parsed.build()
                    times["graphs.build_ms"].append(1e3 * (clock() - t0))
            t0 = clock()
            body = {"id": i, "ok": True, "cached": reply.cached,
                    "fingerprint": reply.fingerprint, "result": reply.result.as_dict()}
            line = json.dumps(body, separators=(",", ":")) + "\n"
            t1 = clock()
            ColoringResult.from_dict(json.loads(line)["result"])
            t2 = clock()
            times["service.encode_ms"].append(1e3 * (t1 - t0))
            times["client.decode_ms"].append(1e3 * (t2 - t1))
        return {name: common.median(values) for name, values in times.items()}

    def span_metrics(self) -> dict[str, float]:
        from repro.obs.trace import load_spans

        spans = [s for s in load_spans([str(self.ctx.state / "trace")]) if s["name"] != "bench.request"]
        durations: dict[str, list[float]] = {}
        for span in spans:
            durations.setdefault(span["name"], []).append(span["duration_s"])
        self_ms = {
            row["name"]: row["self_ms"] / row["count"] for row in common.self_times(spans)
        }
        requests = {s["parent_id"]: s for s in spans if s["name"] == "server.request"}
        residual = [
            seconds - requests[span_id]["duration_s"]
            for seconds, span_id in self.wire if span_id in requests
        ]
        med = common.median
        out = {
            "gateway.cache_probe_us": 1e6 * med(durations.get("gateway.cache_probe", [])),
            "gateway.admission_us": 1e6 * med(durations.get("gateway.admission", [])),
            "gateway.coalesce_wait_ms": 1e3 * med(durations.get("gateway.coalesce_wait", [])),
            "gateway.batch_execute_ms": 1e3 * med(durations.get("gateway.batch_execute", [])),
            "server.request.self_ms": self_ms.get("server.request", 0.0),
            "wire.residual_ms": 1e3 * med(residual),
        }
        return out

    def finish(self) -> dict:
        record = self.check()
        metrics, samples = latency_metrics(self.ops, SLO_MS, tail_q=99)
        metrics["peak_rss_mb"] = self.server_rss_mb
        metrics["local_rounds"] = record["local_rounds"]
        samples.update(self.pinning)
        per_layer: dict[str, float] = {}
        if self.ctx.trace:
            stats = self.stats
            cache = stats["cache"]
            gateway = stats["metrics"]
            per_layer.update(self.retime())
            per_layer.update(self.span_metrics())
            per_layer.update({
                "cache.hit_ratio": cache["hit_rate"],
                "cache.evictions": float(cache["evictions_lru"] + cache["evictions_ttl"]),
                "gateway.mean_batch_size": gateway["mean_batch_size"],
                "gateway.queue_depth_peak": float(gateway["queue_depth_peak"]),
                "gateway.rejected": float(gateway["rejected"]),
                "gateway.coalesced": float(stats["coalesced"]),
                "graphstore.stale_parent": float(gateway["errors"].get("stale_parent", 0)),
            })
        return {
            "attempted": len(self.ops),
            "failed": self.failed,
            "errors": self.errors[:5],
            "end_to_end": metrics,
            "samples": samples,
            "per_layer": per_layer,
            "record": record,
        }

    def close(self) -> None:
        try:
            if self.client is not None:
                self.loop.run_until_complete(self.client.close())
        finally:
            self.loop.close()
            if self.server is not None and self.server.poll() is None:
                self.server.terminate()
                try:
                    self.server.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    self.server.kill()
                    self.server.wait()
