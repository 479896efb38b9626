"""Shared pieces of the perfledger benchmark.

Statistics, the independent output checks, host probes (peak RSS, CPU
steal), provenance, the span self-time table and the small framing
protocol between ``run.py`` and ``worker.py``.  Standard library only:
``run.py`` imports this module without importing the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfledger"

#: A percentile is reported only when at least this many samples lie
#: beyond it; a run that would report a p99 with fewer fails.
TAIL_BEYOND = 10

#: The fewest ops a run reporting a p99 does, whatever ``--seconds`` says.
TAIL_OPS = 100 * TAIL_BEYOND

#: :func:`host_scale`: the reference work's nominal CPU time (about its
#: median on a 2-vCPU cloud VM, so scaled times read close to wall
#: times there), and the repetitions one probe takes the median of.
REF_MS = 1.0
REF_REPS = 5

READY = "PERFLEDGER-READY"
RESULT = "PERFLEDGER-RESULT "


@dataclass
class Op:
    """One timed operation as the caller saw it."""

    klass: str
    seconds: float
    ok: bool
    traced: bool = False
    block: int = 0
    #: host-speed factor, from :func:`apply_host_scale`
    scale: float = 1.0

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


@dataclass
class Context:
    seed: int
    scale: str
    trace: bool
    state: Path
    inputs: dict[str, Any] = field(default_factory=dict)
    tracer: Any = None

    def block_traced(self, block: int) -> bool:
        """Traced runs trace even blocks only; the odd ones are the
        untraced baseline for ``obs.tracing_overhead_pct``."""
        return self.trace and block % 2 == 0


def pairs(flat: list[int]) -> list[tuple[int, int]]:
    return list(zip(flat[0::2], flat[1::2]))


def flat(edges: Any) -> list[int]:
    return [x for edge in edges for x in edge]


def reference_work() -> int:
    """A fixed piece of pure-Python work shaped like the program's inner
    loops: dict inserts, a sort, nested list walks over small ints."""
    table = {}
    for i in range(3000):
        table[i * 7 % 3001] = i
    total = 0
    for key in sorted(table):
        total += table[key]
    rows = [[(i * 31 + j) % 3000 for j in range(8)] for i in range(300)]
    for row in rows:
        for x in row:
            total += x & 7
    return total


def host_scale() -> float:
    """``REF_MS`` over this thread's CPU time for :func:`reference_work`
    right now (median of ``REF_REPS``).

    Shared hosts drift: on a 2-vCPU cloud VM the same fixed loop read
    1.3-1.7x slower for milliseconds to minutes at a time, in CPU time as
    in wall time, and whole runs of identical code differed by 30%.  Each
    workload probes between its blocks of ops; an op's timing is
    multiplied by the mean of the probes before and after its block, so
    reported times are what they would read on a host where
    :func:`reference_work` takes ``REF_MS``.  Thread CPU time keeps the
    probe blind to other threads of the program holding the GIL."""
    times = []
    for _ in range(REF_REPS):
        started = time.thread_time()
        reference_work()
        times.append(time.thread_time() - started)
    return REF_MS / (1000.0 * median(times))


def apply_host_scale(ops: list[Op], probes: list[float], whole_run: bool = False) -> None:
    """Set each op's ``scale`` from the probes around its block:
    ``probes[b]`` was taken just before block ``b``.

    One probe reads the host's speed over a few milliseconds, and that
    swings by up to 1.7x from one probe to the next.  An op of a second
    or more averages those swings out itself, so with ``whole_run``
    every op gets the run's mean speed instead (the harmonic mean of
    the probes: time is work over speed)."""
    if whole_run:
        run = statistics.harmonic_mean(probes)
    for op in ops:
        op.scale = run if whole_run else 0.5 * (probes[op.block] + probes[op.block + 1])


def latency_metrics(
    ops: list[Op], slo_ms: dict[str, float], tail_q: int
) -> tuple[dict[str, float], dict[str, Any]]:
    """The end-to-end latency family shared by every workload.

    ``ops_per_s`` and every percentile use host-scaled timings (see
    :func:`host_scale`); ``slo_ok_ratio`` compares the raw wall time
    with its limit.  ``ops_per_s`` is ok ops over the summed latency:
    every workload is one caller in a closed loop, so that sum is its
    busy time.  ``latency_p99_ms`` holds the
    ``tail_q``-th percentile; each workload fixes ``tail_q`` once (99,
    or 50 where its runs hold too few ops for any tail), so the metric
    means the same on every run of it."""
    all_ms = [1000.0 * op.scaled for op in ops]
    busy_s = sum(op.scaled for op in ops)
    p50 = median(all_ms)
    metrics = {
        "ops_per_s": sum(op.ok for op in ops) / busy_s if busy_s > 0 else 0.0,
        "latency_p50_ms": p50,
        "latency_p99_ms": tail(all_ms, tail_q),
        "slo_ok_ratio": sum(
            op.ok and 1000.0 * op.seconds <= slo_ms[op.klass] for op in ops
        ) / max(1, len(ops)),
    }
    samples: dict[str, Any] = {"ops": len(ops), "latency_p99_ms": f"p{tail_q}"}
    for klass in ("hit", "miss", "update"):
        values = [1000.0 * op.scaled for op in ops if op.klass == klass]
        # A workload without this request class reports its overall
        # median, so every declared metric exists on every workload.
        metrics[f"{klass}_p50_ms"] = median(values) if values else p50
        samples[f"{klass}_p50_ms"] = len(values)
    return metrics, samples


def overhead_metrics(ops: list[Op]) -> dict[str, float]:
    """Traced-vs-untraced p50 within one traced run, with the spread of
    the per-block-pair ratios."""
    traced = [op.seconds for op in ops if op.traced]
    plain = [op.seconds for op in ops if not op.traced]
    if not traced or not plain:
        return {"obs.tracing_overhead_pct": 0.0, "obs.tracing_overhead_iqr_pct": 0.0}
    by_block: dict[int, list[float]] = {}
    for op in ops:
        by_block.setdefault(op.block, []).append(op.seconds)
    ratios = [
        100.0 * (median(by_block[b]) / median(by_block[b + 1]) - 1.0)
        for b in sorted(by_block)
        if b % 2 == 0 and b + 1 in by_block
    ]
    return {
        "obs.tracing_overhead_pct": 100.0
        * (median(traced) / median(plain) - 1.0),
        "obs.tracing_overhead_iqr_pct": quartile_spread(ratios),
    }


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q <= 100) by the nearest-rank rule."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1])


def tail(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile of ``values``.  Raises ``ValueError`` when
    fewer than :data:`TAIL_BEYOND` samples lie beyond it: such a
    percentile is the maximum in disguise."""
    if q == 50:
        return median(values)
    if len(values) * (100 - q) / 100.0 < TAIL_BEYOND:
        raise ValueError(
            f"p{q} over {len(values)} samples has fewer than {TAIL_BEYOND} beyond it"
        )
    return nearest_rank(sorted(values), q)


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance (``statistics.quantiles(n=4)``), or 0."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def check_coloring(
    n: int,
    edges: Iterable[tuple[int, int]],
    colors: Sequence[int],
    delta: int,
) -> str | None:
    """Independent validity check: ``None`` if ``colors`` is a proper
    coloring of the graph on ``n`` nodes with colors in ``1..delta``,
    else a message naming the first defect."""
    if len(colors) != n:
        return f"coloring has {len(colors)} entries for {n} nodes"
    for v, c in enumerate(colors):
        if not 1 <= c <= delta:
            return f"node {v} has color {c} outside 1..{delta}"
    for u, v in edges:
        if colors[u] == colors[v]:
            return f"edge ({u}, {v}) is monochromatic (color {colors[u]})"
    return None


def carve_matching(
    edges: list[tuple[int, int]], m: int, rng: random.Random
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """``(base, matching)``: a random matching of up to ``m`` edges,
    picked greedily from ``edges`` in ``rng``'s order, and the other
    edges in their given order."""
    shuffled = list(edges)
    rng.shuffle(shuffled)
    used: set[int] = set()
    matching = []
    for u, v in shuffled:
        if u not in used and v not in used:
            matching.append((u, v))
            used.update((u, v))
            if len(matching) == m:
                break
    carved = set(matching)
    return [e for e in edges if e not in carved], matching


def digest(items: Iterable[Any]) -> str:
    """SHA-256 over a sequence of ints or strings (a coloring, a list of
    result digests)."""
    return hashlib.sha256(",".join(str(x) for x in items).encode("utf-8")).hexdigest()


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process in MB (0.0 where /proc is unavailable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_times() -> tuple[int, int]:
    """``(steal, total)`` jiffies over all CPUs from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except OSError:
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    # guest time is already counted in user time
    return steal, sum(fields[:8])


def steal_pct(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total > 0 else 0.0


def tree_digest(top: Path) -> str:
    """SHA-256 over every Python file under ``top``.  The checkout is not
    a git repository, so the digest of ``src/`` stands in for the commit."""
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        digest.update(str(path.relative_to(top)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def module_version(name: str) -> str:
    try:
        module = __import__(name)
    except ImportError:
        return "off"
    return str(getattr(module, "__version__", "unknown"))


def provenance(seed: int, sizes: dict[str, Any]) -> dict[str, Any]:
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = []
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": module_version("numpy"),
        "scipy": module_version("scipy"),
        "src_sha256": tree_digest(SRC),
        "bench_sha256": tree_digest(Path(__file__).resolve().parent),
        "seed": seed,
        "inputs": sizes,
    }


def self_times(spans: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Per span name: count, total and self milliseconds.

    A span's self time is its duration minus the part of its interval
    covered by its children (clipped to the parent, overlaps merged).
    Spans from several processes join on ``parent_id``.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent:
            start = span["start_s"]
            children.setdefault(parent, []).append(
                (start, start + span["duration_s"])
            )
    rows: dict[str, dict[str, float]] = {}
    for span in spans:
        start = span["start_s"]
        end = start + span["duration_s"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span["span_id"], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        row = rows.setdefault(span["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += 1000.0 * span["duration_s"]
        row["self_ms"] += 1000.0 * max(0.0, span["duration_s"] - covered)
    return sorted(
        ({"name": name, **row} for name, row in rows.items()),
        key=lambda row: -row["self_ms"],
    )


def render_self_times(rows: list[dict[str, Any]]) -> str:
    total = sum(row["self_ms"] for row in rows) or 1.0
    lines = [f"{'span':<34} {'count':>8} {'total ms':>12} {'self ms':>12} {'self %':>7}"]
    for row in rows:
        lines.append(
            f"{row['name']:<34} {row['count']:>8} {row['total_ms']:>12.1f} "
            f"{row['self_ms']:>12.1f} {100.0 * row['self_ms'] / total:>6.1f}%"
        )
    return "\n".join(lines)


def emit_result(payload: dict[str, Any]) -> None:
    sys.stdout.write(RESULT + json.dumps(payload, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def signal_ready() -> None:
    sys.stdout.write(READY + "\n")
    sys.stdout.flush()
