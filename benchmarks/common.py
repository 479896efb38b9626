"""Shared infrastructure for the experiment benchmarks.

Every bench builds a :class:`repro.analysis.Table`, prints it, and writes
it to ``benchmarks/results/<name>.txt`` so the tables survive pytest's
output capture.  Set ``REPRO_BENCH_FULL=1`` for the larger sweeps; the
default quick mode keeps the whole suite within a
few minutes.  Set ``REPRO_BENCH_SMOKE=1`` (what ``make bench-smoke`` /
``python -m repro bench --smoke`` do) to shrink every sweep to its single
smallest point — a CI-speed pass whose only job is to catch benches
rotting against the library API.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.analysis.experiments import Table

RESULTS_DIR = Path(__file__).parent / "results"

FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"


def emit(table: Table, name: str) -> Table:
    """Print the table and persist it under benchmarks/results/."""
    rendered = table.render()
    print()
    print(rendered)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(rendered + "\n")
    return table


def sizes(quick: list[int], full: list[int]) -> list[int]:
    """Pick the sweep sizes for the current mode (smoke = one tiny point)."""
    if SMOKE:
        return quick[:1]
    return full if FULL else quick


_GRAPH_CACHE: dict[tuple, object] = {}


def cached_high_girth(n: int, d: int, girth: int, seed: int):
    """High-girth regular graphs are the most expensive workload to
    generate; benches sweeping other parameters share them via this cache."""
    from repro.graphs.generators import high_girth_regular_graph

    key = ("hg", n, d, girth, seed)
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE[key] = high_girth_regular_graph(n, d, girth, seed=seed)
    return _GRAPH_CACHE[key]
