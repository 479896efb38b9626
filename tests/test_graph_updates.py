"""Tests for the graph layer's delta application.

``Graph.apply_updates`` (touched-rows-only CSR rewrite) and
``GraphBuilder.from_graph`` (the node-set-growing escape hatch) must be
exactly equivalent to building the child graph from scratch — the
incremental-coloring engine trusts the former for every update op.
Rejected deltas are covered for every entry point at once in
``test_delta_contract.py``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import random_regular_graph
from repro.graphs.graph import Graph, GraphBuilder


def edge_set(graph: Graph) -> set[tuple[int, int]]:
    return set(graph.edges())


def assert_same_graph(actual: Graph, expected: Graph) -> None:
    assert actual.n == expected.n
    assert actual.num_edges == expected.num_edges
    assert edge_set(actual) == edge_set(expected)
    for v in range(actual.n):
        assert sorted(actual.neighbors(v)) == sorted(expected.neighbors(v))


class TestApplyUpdates:
    def test_insert_and_delete_roundtrip(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        g2 = g.apply_updates(added=[(0, 3), (1, 4)], removed=[(2, 3)])
        assert edge_set(g2) == {(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4)}
        g3 = g2.apply_updates(added=[(2, 3)], removed=[(0, 3), (1, 4)])
        assert_same_graph(g3, g)

    def test_original_graph_untouched(self):
        g = Graph(4, [(0, 1), (1, 2)])
        before = edge_set(g)
        g.apply_updates(added=[(2, 3)], removed=[(0, 1)])
        assert edge_set(g) == before
        assert g.num_edges == 2

    def test_untouched_rows_preserve_neighbor_order(self):
        g = Graph(5, [(0, 3), (0, 1), (0, 2), (1, 2), (3, 4)])
        g2 = g.apply_updates(added=[(2, 4)], removed=[(3, 4)])
        # node 0 is untouched: its insertion-order row must be copied verbatim
        assert g2.neighbors(0) == g.neighbors(0) == [3, 1, 2]

    def test_degrees_and_max_degree_recomputed(self):
        g = random_regular_graph(32, 4, seed=1)
        u, v = next(g.edges())
        g2 = g.apply_updates(removed=[(u, v)])
        assert g2.degree(u) == 3 and g2.degree(v) == 3
        assert g2.max_degree() == 4

    def test_bulk_path_matches_scratch_build(self):
        # A delta touching most of the graph: the span-copy rewrite
        # moves almost every row, and the result must still be exact.
        g = random_regular_graph(24, 4, seed=3)
        removed = list(g.edges())[::2]
        child = g.apply_updates(removed=removed)
        expected = Graph(24, sorted(edge_set(g) - set(removed)))
        assert_same_graph(child, expected)

    def test_empty_delta_is_identity(self):
        g = random_regular_graph(16, 3, seed=2)
        assert_same_graph(g.apply_updates(), g)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_scratch_build(self, data):
        n = data.draw(st.integers(min_value=2, max_value=12), label="n")
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(
            st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs)),
            label="edges",
        )
        g = Graph(n, edges)
        removable = list(edges)
        addable = [p for p in all_pairs if p not in set(edges)]
        removed = data.draw(
            st.lists(st.sampled_from(removable), unique=True) if removable
            else st.just([]),
            label="removed",
        )
        added = data.draw(
            st.lists(st.sampled_from(addable), unique=True) if addable
            else st.just([]),
            label="added",
        )
        child = g.apply_updates(added=added, removed=removed)
        expected = Graph(n, sorted((set(edges) - set(removed)) | set(added)))
        assert_same_graph(child, expected)


class TestGraphBuilderFromGraph:
    def test_roundtrip(self):
        g = random_regular_graph(20, 4, seed=5)
        assert_same_graph(GraphBuilder.from_graph(g).build(), g)

    def test_skip_keys(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3)])
        builder = GraphBuilder.from_graph(g, skip_keys={(1, 2)})
        assert edge_set(builder.build()) == {(0, 1), (2, 3)}

    def test_dedup_builder_knows_copied_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        builder = GraphBuilder.from_graph(g, dedup=True)
        assert builder.has_edge(1, 0)
        assert not builder.add_edge(0, 1)  # duplicate refused, not raised
        assert builder.add_edge(1, 2)
        assert edge_set(builder.build()) == {(0, 1), (1, 2), (2, 3)}

    def test_grow_node_set(self):
        g = Graph(3, [(0, 1)])
        builder = GraphBuilder.from_graph(g)
        builder.add_edge(2, 5)
        child = builder.build()
        assert child.n == 6
        assert edge_set(child) == {(0, 1), (2, 5)}
