"""E10 — hot-primitive microbenchmarks: generation and trial rounds.

The two rng-stream-bound primitives the large-Δ pipeline leans on —
configuration-model generation (:func:`repro.graphs.generators.
random_regular_graph`) and the randomized (deg+1)-list trial rounds
(:func:`repro.primitives.list_coloring.list_coloring_random`) — got
vectorized fast paths with bit-identical pure-Python fallbacks.  This
bench pins their wall clock so the ``bench --smoke`` perf-regression
gate (``scripts/check_bench_regression.py``) catches either path rotting
back toward per-stub / per-node Python.

* **E10a** — ``random_regular_graph`` wall clock per (n, Δ), plus a
  regularity check (the repair loop must not silently degrade).
* **E10b** — one whole-graph (deg+1)-list instance per (n, Δ): trial
  rounds to completion with a Δ+1 palette, validity-asserted.

Unlike the E-series experiment tables this is not a paper-claim probe —
it deliberately isolates two hot primitives so their cost can be tracked
on its own.
"""

from __future__ import annotations

import random
import time

from common import emit, sizes
from repro.analysis.experiments import Row, Table
from repro.graphs.generators import random_regular_graph
from repro.graphs.validation import UNCOLORED, validate_coloring
from repro.local.rounds import RoundLedger
from repro.primitives.list_coloring import list_coloring_random


def build_generator_table():
    table = Table(title="E10a: random_regular_graph wall clock")
    for n in sizes([4096], [4096, 32768, 131072]):
        for delta in (3, 8):
            best = float("inf")
            for _ in range(2):
                started = time.perf_counter()
                graph = random_regular_graph(n, delta, seed=1)
                best = min(best, time.perf_counter() - started)
            assert all(graph.degree(v) == delta for v in range(n))
            table.rows.append(Row(
                params={"n": n, "delta": delta},
                values={"gen_ms": round(1000 * best, 1),
                        "edges": graph.num_edges},
            ))
    table.notes.append(
        "numpy pairing + vectorized conflict repair; bit-identical to the "
        "pure-Python fallback for every seed"
    )
    return emit(table, "e10a_generator")


def build_trial_rounds_table():
    table = Table(title="E10b: randomized (deg+1)-list trial rounds to completion")
    for n in sizes([4096], [4096, 32768, 131072]):
        for delta in (4, 8):
            graph = random_regular_graph(n, delta, seed=2)
            best = float("inf")
            iterations = 0
            for _ in range(2):
                colors = [UNCOLORED] * n
                started = time.perf_counter()
                stats = list_coloring_random(
                    graph, colors, set(range(n)), delta + 1,
                    RoundLedger(), random.Random(3),
                )
                best = min(best, time.perf_counter() - started)
                iterations = stats.iterations
            validate_coloring(graph, colors, max_colors=delta + 1)
            table.rows.append(Row(
                params={"n": n, "delta": delta},
                values={"trials_ms": round(1000 * best, 1),
                        "rounds": iterations},
            ))
    table.notes.append(
        "one rng draw per round; proposals + conflict resolution run "
        "vectorized over the CSR buffers"
    )
    return emit(table, "e10b_trial_rounds")


if __name__ == "__main__":
    build_generator_table()
    build_trial_rounds_table()
