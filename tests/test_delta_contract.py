"""The edge-delta contract, table-driven across every entry point.

One rule decides whether an edge delta is legal
(:func:`repro.graphs.check_edge_delta`); every layer that applies deltas
goes through it.  This table runs each rejection case against all five
entry points — :meth:`Graph.apply_updates`,
:meth:`DynamicGraph.apply_delta`, the incremental engine on both
backends, and :meth:`ColoringClient.update` falling back locally against
a stale parent — and asserts the same exception class and message at
each, and that a rejection leaves the state it was applied to untouched.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass

import pytest

from repro.analysis.harness import carve_matching
from repro.api import solve
from repro.core.incremental import IncrementalColoring
from repro.errors import (
    ConflictingUpdateError,
    EdgeAlreadyPresentError,
    EdgeNotPresentError,
    GraphError,
)
from repro.graphs import DynamicGraph, Graph
from repro.graphs.generators import random_regular_graph
from repro.service import ColoringClient, ColoringServer

N = 48
BASE_FULL = random_regular_graph(N, 4, seed=0)
MATCHING = carve_matching(BASE_FULL, 6)
BASE = BASE_FULL.apply_updates(removed=MATCHING)
PRESENT = next(BASE.edges())
ABSENT = MATCHING[0]  # carved out, so absent; both endpoints have slack
STALE_DIGEST = "d" * 64


def flip(edge):
    return (edge[1], edge[0])


@dataclass(frozen=True)
class Case:
    name: str
    added: list
    removed: list
    error: type
    match: str


CASES = [
    # the seven rejections, one fault each (reversed orientations name
    # the same undirected key)
    Case("removed-twice", [], [PRESENT, flip(PRESENT)], EdgeNotPresentError,
         "removed twice"),
    Case("added-and-removed", [flip(PRESENT)], [PRESENT], ConflictingUpdateError,
         "both added and removed"),
    Case("added-twice", [ABSENT, flip(ABSENT)], [], EdgeAlreadyPresentError,
         "duplicate edge"),
    Case("remove-absent", [], [ABSENT], EdgeNotPresentError, "not present"),
    Case("add-present", [flip(PRESENT)], [], EdgeAlreadyPresentError,
         "already present"),
    Case("add-out-of-range", [(0, N + 5)], [], GraphError, "out of range"),
    Case("add-self-loop", [(2, 2)], [], GraphError, "self-loop"),
    # an out-of-range or self-loop removal is simply "not present"
    Case("remove-out-of-range", [], [(0, N + 5)], EdgeNotPresentError,
         "not present"),
    Case("remove-self-loop", [], [(3, 3)], EdgeNotPresentError, "not present"),
    # two faults in one batch pin the check order
    Case("consistency-beats-presence", [ABSENT], [ABSENT], ConflictingUpdateError,
         "both added and removed"),
    Case("removal-beats-addition", [PRESENT, (1, 1)], [MATCHING[1]],
         EdgeNotPresentError, "not present"),
    Case("presence-beats-range", [(0, N + 5), flip(PRESENT)], [],
         EdgeAlreadyPresentError, "already present"),
]


@pytest.fixture(scope="module")
def parent_result():
    return solve(BASE, seed=0)


@pytest.fixture(scope="module")
def server_port():
    """One server on its own loop thread; every digest it is asked about
    here is unknown, so each update takes the client's local fallback."""
    started = threading.Event()
    box = {}

    def main():
        async def run():
            server = ColoringServer(port=0, workers=1)
            _, port = await server.start()
            box["port"] = port
            started.set()
            await box["stop"].wait()
            await server.shutdown(drain_s=2.0)

        loop = asyncio.new_event_loop()
        box["loop"] = loop
        box["stop"] = asyncio.Event()
        loop.run_until_complete(run())
        loop.close()

    thread = threading.Thread(target=main, daemon=True)
    thread.start()
    assert started.wait(30.0)
    yield box["port"]
    box["loop"].call_soon_threadsafe(box["stop"].set)
    thread.join(timeout=30.0)


def csr_copy(graph):
    offsets, indices = graph.csr()
    return list(offsets), list(indices)


def reject_graph(case, request):
    graph = Graph(BASE.n, list(BASE.edges()))
    before = csr_copy(graph)
    with pytest.raises(case.error, match=case.match) as info:
        graph.apply_updates(added=case.added, removed=case.removed)
    assert csr_copy(graph) == before
    return info


def reject_dynamic_graph(case, request):
    dyn = DynamicGraph.from_graph(BASE)
    before = csr_copy(dyn)
    with pytest.raises(case.error, match=case.match) as info:
        dyn.apply_delta(case.added, case.removed)
    assert csr_copy(dyn) == before
    assert dyn.num_edges == BASE.num_edges and dyn.max_degree() == BASE.max_degree()
    return info


def _reject_engine(case, request, backend):
    result = request.getfixturevalue("parent_result")
    engine = IncrementalColoring.from_result(BASE, result, backend=backend)
    graph_before = engine.graph
    edges_before = set(graph_before.edges())
    colors_before = engine.colors
    with pytest.raises(case.error, match=case.match) as info:
        engine.batch_update(added=case.added, removed=case.removed)
    if backend == "immutable":
        assert engine.graph is graph_before
    assert set(engine.graph.edges()) == edges_before
    assert engine.colors == colors_before
    assert engine.delta == BASE.max_degree()
    assert engine.totals["ops"] == 0
    return info


def reject_engine_immutable(case, request):
    return _reject_engine(case, request, "immutable")


def reject_engine_dynamic(case, request):
    return _reject_engine(case, request, "dynamic")


def reject_client_fallback(case, request):
    port = request.getfixturevalue("server_port")
    edges_before = set(BASE.edges())
    with ColoringClient(port=port, timeout=60.0) as client:
        entries_before = client.stats()["graph_store"]["entries"]
        with pytest.raises(case.error, match=case.match) as info:
            client.update(
                STALE_DIGEST,
                edges_added=case.added,
                edges_removed=case.removed,
                fallback_graph=BASE,
            )
        assert client.stats()["graph_store"]["entries"] == entries_before
    assert set(BASE.edges()) == edges_before
    return info


ENTRY_POINTS = {
    "graph": reject_graph,
    "dynamic-graph": reject_dynamic_graph,
    "engine-immutable": reject_engine_immutable,
    "engine-dynamic": reject_engine_dynamic,
    "client-fallback": reject_client_fallback,
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_rejection_is_identical_at_every_entry_point(case, entry, request):
    info = ENTRY_POINTS[entry](case, request)
    # the exact class, not merely a subclass: every layer is typed alike
    assert type(info.value) is case.error


def test_typed_delta_errors_are_graph_errors():
    for error in (EdgeNotPresentError, EdgeAlreadyPresentError, ConflictingUpdateError):
        assert issubclass(error, GraphError)
