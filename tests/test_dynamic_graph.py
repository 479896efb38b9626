"""Tests for the updatable CSR (:class:`repro.graphs.dynamic.DynamicGraph`).

The load-bearing contract: after any sequence of deltas, a dynamic
graph's compacted ``csr()`` is **bit-identical** to the immutable graph
produced by folding the same deltas through
:meth:`repro.graphs.Graph.apply_updates` — same offsets, same indices,
same neighbour order.  The immutable path is the correctness reference;
the dynamic path is the O(Δ)-per-op reimplementation.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.dynamic import DynamicGraph
from repro.graphs.generators import random_regular_graph
from repro.graphs.graph import Graph


def assert_csr_identical(dyn: DynamicGraph, ref: Graph) -> None:
    ro, ri = ref.csr()
    do, di = dyn.csr()
    assert do == ro, "offsets diverged from the immutable reference"
    assert di == ri, "indices diverged from the immutable reference"
    assert dyn.num_edges == ref.num_edges
    assert dyn.max_degree() == ref.max_degree()


def random_stream(rng, reference: set, n, ops, batch_max=3):
    """A valid update stream: per step, disjoint added/removed lists."""
    steps = []
    current = set(reference)
    for _ in range(ops):
        added, removed = [], []
        for _ in range(rng.randrange(1, batch_max + 1)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            if key in current and key not in removed and key not in added:
                removed.append(key)
                current.discard(key)
            elif key not in current and key not in added and key not in removed:
                added.append(key)
                current.add(key)
        steps.append((added, removed))
    return steps


class TestConstruction:
    def test_from_graph_is_bit_identical(self):
        graph = random_regular_graph(64, 6, seed=3)
        dyn = DynamicGraph.from_graph(graph)
        assert_csr_identical(dyn, graph)
        assert dyn.degrees() == graph.degrees()
        assert dyn.adj == graph.adj
        assert dyn.min_degree() == graph.min_degree()

    def test_constructor_matches_graph_constructor(self):
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
        dyn = DynamicGraph(5, edges)
        ref = Graph(5, edges)
        assert_csr_identical(dyn, ref)
        # node 4 is isolated
        assert dyn.degree(4) == 0 and list(dyn.neighbors_csr(4)) == []

    def test_row_capacities_are_padded_powers_of_two(self):
        dyn = DynamicGraph.from_graph(random_regular_graph(32, 4, seed=0))
        stats = dyn.storage_stats()
        assert stats["data_slots"] > stats["live_slots"]
        assert stats["holes"] == 0 and stats["relocations"] == 0


class TestInPlaceUpdates:
    def test_insert_and_delete_roundtrip(self):
        graph = random_regular_graph(48, 4, seed=1)
        dyn = DynamicGraph.from_graph(graph)
        pair = next(
            (u, v)
            for u in range(graph.n)
            for v in range(u + 1, graph.n)
            if not graph.has_edge(u, v)
        )
        dyn.insert_edge(*pair)
        assert dyn.has_edge(*pair) and dyn.num_edges == graph.num_edges + 1
        dyn.delete_edge(*pair)
        assert_csr_identical(dyn, graph)

    def test_deletion_preserves_row_order(self):
        # Deleting 1 from 0's row [1, 2, 3] must leave [2, 3], not [3, 2]:
        # downstream seeded algorithms iterate rows in insertion order.
        dyn = DynamicGraph(4, [(0, 1), (0, 2), (0, 3)])
        dyn.delete_edge(0, 1)
        assert list(dyn.neighbors_csr(0)) == [2, 3]

    def test_relocation_grows_overfull_rows(self):
        dyn = DynamicGraph(64, [(0, 1)])
        for v in range(2, 40):
            dyn.insert_edge(0, v)
        assert dyn.degree(0) == 39
        assert dyn.relocations > 0
        assert sorted(dyn.neighbors_csr(0)) == list(range(1, 40))

    def test_compaction_triggers_and_preserves_content(self):
        rng = random.Random(7)
        n = 32
        dyn = DynamicGraph(n, [])
        ref = Graph(n, [])
        # Hammer a few rows so relocations pile up holes past the
        # half-buffer trigger.
        for step in random_stream(rng, set(), n, ops=400, batch_max=2):
            added, removed = step
            dyn.apply_delta(added=added, removed=removed)
            ref = ref.apply_updates(added=added, removed=removed)
        assert dyn.compactions > 0, "stream never triggered a compaction"
        assert_csr_identical(dyn, ref)
        stats = dyn.storage_stats()
        assert stats["holes"] * 3 <= stats["data_slots"]

    def test_max_degree_histogram_tracks_deletions(self):
        dyn = DynamicGraph(6, [(0, 1), (0, 2), (0, 3), (4, 5)])
        assert dyn.max_degree() == 3
        dyn.delete_edge(0, 1)
        assert dyn.max_degree() == 2
        dyn.delete_edge(0, 2)
        dyn.delete_edge(0, 3)
        assert dyn.max_degree() == 1
        dyn.delete_edge(4, 5)
        assert dyn.max_degree() == 0


class TestUndo:
    def test_undo_restores_bit_identical_state(self):
        graph = random_regular_graph(40, 4, seed=2)
        dyn = DynamicGraph.from_graph(graph)
        pair = next(
            (u, v)
            for u in range(graph.n)
            for v in range(u + 1, graph.n)
            if not graph.has_edge(u, v)
        )
        edge = next(graph.edges())
        undo = dyn.apply_delta(added=[pair], removed=[edge], record_undo=True)
        dyn.undo_delta(undo)
        assert_csr_identical(dyn, graph)

    def test_undo_survives_interleaved_compaction(self):
        rng = random.Random(11)
        n = 24
        dyn = DynamicGraph(n, [(i, (i + 1) % n) for i in range(n)])
        for _ in range(200):
            ref = dyn.snapshot()
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            if dyn.has_edge(u, v):
                undo = dyn.apply_delta(removed=[(u, v)], record_undo=True)
            else:
                undo = dyn.apply_delta(added=[(u, v)], record_undo=True)
            dyn.undo_delta(undo)
            assert_csr_identical(dyn, ref)
            # re-apply so the stream (and its relocations) still happen
            if ref.has_edge(u, v):
                dyn.apply_delta(removed=[(u, v)])
            else:
                dyn.apply_delta(added=[(u, v)])


class TestSnapshot:
    def test_snapshot_is_immutable_and_detached(self):
        dyn = DynamicGraph(5, [(0, 1), (1, 2)])
        snap = dyn.snapshot()
        assert isinstance(snap, Graph) and not isinstance(snap, DynamicGraph)
        dyn.insert_edge(3, 4)
        # the earlier snapshot must not see the mutation
        assert not snap.has_edge(3, 4)
        assert dyn.snapshot().has_edge(3, 4)

    def test_snapshot_cached_until_mutation(self):
        dyn = DynamicGraph(5, [(0, 1)])
        assert dyn.snapshot() is dyn.snapshot()
        dyn.insert_edge(2, 3)
        first = dyn.snapshot()
        assert first is dyn.snapshot()

    def test_apply_updates_returns_plain_graph(self):
        dyn = DynamicGraph(5, [(0, 1)])
        child = dyn.apply_updates(added=[(1, 2)])
        assert child.has_edge(1, 2)
        assert not dyn.has_edge(1, 2), "immutable-style delta mutated the dynamic graph"


class TestCompactionTwins:
    def test_numpy_and_python_compaction_agree(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(5)
        dyn = DynamicGraph.from_graph(random_regular_graph(600, 6, seed=5))
        for step in random_stream(rng, set(dyn.snapshot().edges()), 600, ops=40):
            dyn.apply_delta(added=step[0], removed=step[1])
        off_np, idx_np = dyn._compact_numpy(np)
        off_py, idx_py = dyn._compact_python()
        assert off_np == off_py and idx_np == idx_py


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_streams_pin_dynamic_to_immutable(data):
    """Property: folding any valid update stream through DynamicGraph
    in place equals folding it through immutable apply_updates, CSR
    bit for bit — including after undo/redo of every step."""
    n = data.draw(st.integers(min_value=2, max_value=12), label="n")
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(
        st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs)),
        label="edges",
    )
    ref = Graph(n, edges)
    dyn = DynamicGraph.from_graph(ref)
    current = set(edges)
    ops = data.draw(st.integers(min_value=1, max_value=10), label="ops")
    for _ in range(ops):
        present = sorted(current)
        absent = sorted(set(all_pairs) - current)
        added, removed = [], []
        if absent and data.draw(st.booleans(), label="insert?"):
            added = [data.draw(st.sampled_from(absent), label="edge")]
        elif present:
            removed = [data.draw(st.sampled_from(present), label="edge")]
        else:
            continue
        new_ref = ref.apply_updates(added=added, removed=removed)
        undo = dyn.apply_delta(added=added, removed=removed, record_undo=True)
        assert_csr_identical(dyn, new_ref)
        dyn.undo_delta(undo)
        assert_csr_identical(dyn, ref)
        dyn.apply_delta(added=added, removed=removed)
        ref = new_ref
        current.difference_update(removed)
        current.update(added)
