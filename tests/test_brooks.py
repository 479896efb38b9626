"""Tests for the distributed Brooks' theorem repair (Theorem 5)."""

import hashlib
import random

import pytest

from repro.analysis.harness import carve_matching
from repro.core import brooks
from repro.core.brooks import default_fix_radius, fix_uncolored_node
from repro.core.degree_choosable import degree_list_color
from repro.errors import AlgorithmContractError, InfeasibleListColoringError
from repro.graphs.generators import (
    hypercube,
    random_graph_with_max_degree,
    random_nice_graph,
    random_regular_graph,
    torus_grid,
)
from repro.graphs.validation import UNCOLORED, validate_coloring
from repro.local.rounds import RoundLedger


def _color_minus_v(graph, v, delta, rng, glauber_steps=None):
    """Δ-color G−v from scratch (the true Theorem 5 precondition), then
    randomize with Glauber dynamics to diversify the neighbourhood."""
    colors = [UNCOLORED] * graph.n
    rest = [u for u in range(graph.n) if u != v]
    sub, originals = graph.subgraph(rest)
    for component in sub.connected_components():
        comp_orig = sorted(originals[i] for i in component)
        sub2, orig2 = graph.subgraph(comp_orig)
        lists = [set(range(1, delta + 1)) for _ in range(sub2.n)]
        try:
            assignment = degree_list_color(sub2, lists)
        except InfeasibleListColoringError:
            return None
        for i, u in enumerate(orig2):
            colors[u] = assignment[i]
    steps = glauber_steps if glauber_steps is not None else 6 * graph.n
    for _ in range(steps):
        u = rng.randrange(graph.n)
        if u == v:
            continue
        used = {colors[w] for w in graph.adj[u] if w != v and colors[w] != UNCOLORED}
        options = [c for c in range(1, delta + 1) if c not in used and c != colors[u]]
        if options:
            colors[u] = rng.choice(options)
    return colors


class TestBasicRepair:
    def test_rejects_colored_node(self):
        g = torus_grid(5, 5)
        colors = [1] * g.n
        with pytest.raises(AlgorithmContractError):
            fix_uncolored_node(g, colors, 0, 4)

    def test_free_color_case(self):
        g = torus_grid(5, 5)
        colors = degree_list_color(g, [set(range(1, 5)) for _ in range(g.n)])
        colors[7] = UNCOLORED
        result = fix_uncolored_node(g, colors, 7, 4, ledger=RoundLedger())
        validate_coloring(g, colors, max_colors=4)
        assert result.mode == "free"
        assert result.recolored == []


class TestScratchRepair:
    @pytest.mark.parametrize("d,n", [(3, 200), (4, 300), (5, 200)])
    def test_random_regular_many_seeds(self, d, n):
        for seed in range(8):
            g = random_regular_graph(n, d, seed=seed)
            rng = random.Random(seed * 13 + 1)
            v = rng.randrange(g.n)
            colors = _color_minus_v(g, v, d, rng)
            if colors is None:
                continue
            ledger = RoundLedger()
            result = fix_uncolored_node(g, colors, v, d, ledger=ledger)
            validate_coloring(g, colors, max_colors=d)
            assert result.rounds == ledger.total_rounds
            assert result.radius <= default_fix_radius(g.n, d)

    def test_torus(self):
        g = torus_grid(9, 9)
        rng = random.Random(5)
        for trial in range(6):
            v = rng.randrange(g.n)
            colors = _color_minus_v(g, v, 4, rng)
            fix_uncolored_node(g, colors, v, 4, ledger=RoundLedger())
            validate_coloring(g, colors, max_colors=4)

    def test_hypercube(self):
        g = hypercube(4)
        rng = random.Random(6)
        for trial in range(6):
            v = rng.randrange(g.n)
            colors = _color_minus_v(g, v, 4, rng)
            if colors is None:
                continue
            fix_uncolored_node(g, colors, v, 4, ledger=RoundLedger())
            validate_coloring(g, colors, max_colors=4)

    @pytest.mark.parametrize("seed", range(5))
    def test_irregular(self, seed):
        g = random_nice_graph(150, 5, seed=seed)
        rng = random.Random(seed)
        v = rng.randrange(g.n)
        colors = _color_minus_v(g, v, 5, rng)
        if colors is None:
            pytest.skip("component infeasible without v")
        result = fix_uncolored_node(g, colors, v, 5, ledger=RoundLedger())
        validate_coloring(g, colors, max_colors=5)
        # irregular graphs have deficient nodes: repairs stay very local
        assert result.radius <= default_fix_radius(g.n, 5)


class TestRadiusBound:
    """Theorem 5's quantitative claim: repairs fit in 2·log_{Δ-1} n."""

    def test_radius_bound_over_many_repairs(self):
        bound = default_fix_radius(400, 3)
        worst = 0
        for seed in range(10):
            g = random_regular_graph(400, 3, seed=seed + 50)
            rng = random.Random(seed)
            v = rng.randrange(g.n)
            colors = _color_minus_v(g, v, 3, rng)
            if colors is None:
                continue
            result = fix_uncolored_node(g, colors, v, 3, ledger=RoundLedger())
            validate_coloring(g, colors, max_colors=3)
            worst = max(worst, result.radius)
        assert worst <= bound

    def test_default_radius_formula(self):
        # 2*ceil(log_3(1000)) + 2 = 2*7+2
        assert default_fix_radius(1000, 4) == 16
        assert default_fix_radius(2, 4) >= 2


class TestMultipleUncoloredNodes:
    """The deterministic algorithm repairs many far-apart nodes; each fix
    must tolerate other uncolored nodes outside its ball."""

    def test_two_far_apart_nodes(self):
        g = random_regular_graph(500, 4, seed=77)
        base = degree_list_color(g, [set(range(1, 5)) for _ in range(g.n)])
        from repro.graphs.bfs import bfs_distances

        v = 0
        dist = bfs_distances(g, [v])
        far = max(range(g.n), key=lambda u: dist[u])
        colors = list(base)
        colors[v] = UNCOLORED
        colors[far] = UNCOLORED
        fix_uncolored_node(g, colors, v, 4, ledger=RoundLedger())
        fix_uncolored_node(g, colors, far, 4, ledger=RoundLedger())
        validate_coloring(g, colors, max_colors=4)


def _blocked_instance(graph, delta, seed):
    """``(v, colors)`` for the first degree-Δ node drawn under ``seed``
    whose neighbours wear all Δ colors once G−v is Δ-colored: no free
    color, so the repair has to walk the token."""
    rng = random.Random(seed)
    for _ in range(200):
        v = rng.randrange(graph.n)
        if graph.degree(v) != delta:
            continue
        colors = _color_minus_v(graph, v, delta, rng)
        if colors is not None and len({colors[w] for w in graph.adj[v]}) == delta:
            return v, colors
    raise AssertionError("no blocked node drawn")


def _walk_graph(family, n, delta, graph_seed, matching):
    if family == "gnm":
        return random_graph_with_max_degree(n, delta, delta - 0.4, seed=graph_seed)
    graph = random_regular_graph(n, delta, seed=graph_seed)
    if matching:
        graph = graph.apply_updates(removed=carve_matching(graph, matching))
    return graph


#: (family, n, Δ, graph seed, matching carved out, instance seed,
#: max_radius) -> (v, colors digest, mode, radius, recolored, shifts,
#: rounds, target searches), recorded with the full-ball target search
#: (every search ran to max_radius before ranking its candidates).
#: The "rrg" rows with max_radius 2-4 are burnt-target retries: a
#: duplicate target destroyed on the way, so the walk searches again.
FROZEN_WALKS = {
    ("gnm", 120, 3, 30, 0, 0, None): (68, "8862b38c5cf631d5", "deficient", 2, [33, 49], 2, 26, 1),
    ("gnm", 120, 3, 31, 0, 1, None): (17, "cd6f3ecad5db8ebf", "shift-early-free", 2, [14, 97], 2, 23, 1),
    ("gnm", 120, 3, 32, 0, 2, None): (110, "6a5b77e961e41b3d", "deficient", 1, [86], 1, 23, 1),
    ("gnm", 120, 3, 33, 0, 3, None): (55, "696eaf061498e15a", "deficient", 2, [21, 73], 2, 22, 1),
    ("gnm", 120, 4, 40, 0, 0, None): (55, "8e1cccca6dfe976d", "deficient", 1, [62], 1, 17, 1),
    ("gnm", 120, 4, 41, 0, 1, None): (11, "78b973cdd687a4a7", "deficient", 2, [82, 98], 2, 18, 1),
    ("gnm", 120, 4, 42, 0, 2, None): (93, "4b1421d3d7945a35", "deficient", 1, [88], 1, 15, 1),
    ("gnm", 120, 4, 43, 0, 3, None): (117, "255fa502a5993f63", "deficient", 1, [5], 1, 17, 1),
    ("gnm", 120, 5, 50, 0, 0, None): (32, "c734baa6f66338e3", "deficient", 1, [111], 1, 13, 1),
    ("gnm", 120, 5, 51, 0, 1, None): (108, "e5cdea72ddde1655", "deficient", 1, [11], 1, 13, 1),
    ("gnm", 120, 5, 52, 0, 2, None): (104, "08e3e74c7dc9dff1", "deficient", 1, [2], 1, 13, 1),
    ("gnm", 120, 5, 53, 0, 3, None): (99, "53661cf721638295", "shift-early-free", 1, [48], 1, 14, 1),
    ("rrg", 200, 3, 5, 4, 100, None): (37, "8e347c477d815a69", "deficient", 2, [114, 150], 2, 22, 1),
    ("rrg", 200, 3, 6, 4, 101, None): (38, "97f288d59de86f56", "deficient", 3, [53, 126, 174], 3, 25, 1),
    ("rrg", 200, 4, 5, 6, 100, None): (37, "d63a90ccdb9dba33", "shift-early-free", 1, [46], 1, 20, 1),
    ("rrg", 200, 4, 6, 6, 101, None): (15, "fa10f05d201214cb", "shift-early-free", 1, [42], 1, 17, 1),
    ("rrg", 240, 5, 5, 10, 100, None): (95, "b765b6459844f8ad", "deficient", 1, [4], 1, 15, 1),
    ("rrg", 240, 5, 6, 10, 101, None): (12, "eb7175f723a1089a", "shift-early-free", 1, [22], 1, 14, 1),
    ("rrg", 240, 6, 5, 3, 100, None): (101, "05014e11fae07f79", "shift-early-free", 1, [163], 1, 14, 1),
    ("rrg", 240, 6, 6, 3, 101, None): (203, "4b226b8966940f0e", "shift-early-free", 1, [197], 1, 15, 1),
    ("rrg", 400, 8, 6, 20, 101, None): (191, "31bee20ff74d4ce9", "shift-early-free", 1, [265], 1, 14, 1),
    ("rrg", 300, 3, 8, 0, 8, 2): (53, "41b330304446523f", "duplicate", 2, [147, 229, 256], 6, 24, 3),
    ("rrg", 300, 3, 8, 0, 8, 3): (53, "41b330304446523f", "duplicate", 2, [147, 229, 256], 6, 30, 3),
    ("rrg", 300, 3, 8, 0, 8, 4): (53, "18e62768c6dfd1b0", "dcc", 5, [6, 45, 147, 205, 229, 246, 247, 256, 282, 289], 2, 25, 2),
    ("rrg", 300, 3, 12, 0, 12, 2): (285, "5249c673b7612786", "duplicate", 3, [23, 29, 239], 3, 15, 2),
    ("rrg", 300, 3, 12, 0, 12, 3): (285, "5249c673b7612786", "duplicate", 3, [23, 29, 239], 3, 19, 2),
    ("rrg", 300, 3, 1, 3, 1, 2): (42, "d397d95eb89847da", "duplicate", 2, [246, 256, 269], 6, 24, 3),
    ("rrg", 300, 3, 38, 4, 38, 3): (150, "39e595003a8182a9", "duplicate", 3, [53, 83, 291], 3, 19, 2),
    ("rrg", 300, 3, 72, 2, 72, 3): (37, "89a6ffbd539212f3", "duplicate", 5, [85, 132, 138, 200, 209], 5, 29, 3),
}


class TestFrozenTargetChoice:
    """Stopping the search at the nearest deficient node must pick the
    same target along the same path as ranking the whole ball: colors,
    mode, radius, recolored set and shifts are frozen exactly.  Only the
    charged rounds may fall (the search radius is now the distance to
    that target), and they stay equal whenever no search met a deficient
    node, because those searches still cover the whole ball."""

    @pytest.mark.parametrize("spec", sorted(FROZEN_WALKS, key=repr), ids=repr)
    def test_walk_matches_full_ball_search(self, spec, monkeypatch):
        family, n, delta, graph_seed, matching, instance_seed, max_radius = spec
        v0, digest, mode, radius, recolored, shifts, rounds, searches = FROZEN_WALKS[spec]
        graph = _walk_graph(family, n, delta, graph_seed, matching)
        v, colors = _blocked_instance(graph, delta, instance_seed)
        assert v == v0
        kinds = []
        find_target = brooks._find_target

        def spy(*args):
            found = find_target(*args)
            kinds.append(found[1])
            return found

        monkeypatch.setattr(brooks, "_find_target", spy)
        result = fix_uncolored_node(
            graph, colors, v, delta, max_radius=max_radius, ledger=RoundLedger()
        )
        validate_coloring(graph, colors, max_colors=delta)
        got_digest = hashlib.sha256(",".join(map(str, colors)).encode()).hexdigest()[:16]
        assert (got_digest, result.mode, result.radius, result.recolored, result.shifts) == (
            digest, mode, radius, recolored, shifts
        )
        assert len(kinds) == searches
        if "deficient" in kinds:
            assert result.rounds <= rounds
        else:
            assert result.rounds == rounds


class TestWalkLocality:
    """A token walk whose nearest target is a neighbour reads a few rows
    of a dynamic graph, never its whole adjacency (``graph.adj``)."""

    def test_walk_reads_only_its_ball(self, monkeypatch):
        from repro.api import SolverConfig, solve
        from repro.core import incremental
        from repro.core.incremental import IncrementalColoring
        from repro.graphs.dynamic import DynamicGraph

        delta = 8
        full = random_regular_graph(4096, delta, seed=3)
        base = full.apply_updates(removed=carve_matching(full, 512))
        engine = IncrementalColoring.from_result(
            base, solve(base, SolverConfig(seed=3)), backend="dynamic"
        )
        col = engine.colors_view()
        slack = [v for v in range(base.n) if base.degree(v) < delta]
        # The update-stream recipe: delete (t, w) so t's seven remaining
        # neighbours wear seven distinct colors, one of them a deficient
        # node z; then insert (t, y), y a slack node of t's color.
        for t in range(base.n):
            row = base.neighbors(t)
            if len(row) < delta or len({col[z] for z in row}) != delta - 1:
                continue
            w = next(z for z in row if sum(col[x] == col[z] for x in row) > 1)
            if not any(base.degree(z) < delta for z in row if z != w):
                continue
            y = next(
                (y for y in slack if y > t and y not in row and col[y] == col[t]), None
            )
            if y is not None:
                break
        else:
            pytest.fail("no update-stream instance with a deficient neighbour")
        engine.batch_update(removed=[(t, w)])

        reads = {"neighbors_csr": 0, "adj": 0}
        walking = [False]
        neighbors_csr, adj = DynamicGraph.neighbors_csr, DynamicGraph.adj

        def counted_row(self, v):
            reads["neighbors_csr"] += walking[0]
            return neighbors_csr(self, v)

        def counted_adj(self):
            reads["adj"] += walking[0]
            return adj.fget(self)

        walk = incremental.fix_uncolored_node

        def counted_walk(*args, **kwargs):
            walking[0] = True
            try:
                return walk(*args, **kwargs)
            finally:
                walking[0] = False

        monkeypatch.setattr(DynamicGraph, "neighbors_csr", counted_row)
        monkeypatch.setattr(DynamicGraph, "adj", property(counted_adj))
        monkeypatch.setattr(incremental, "fix_uncolored_node", counted_walk)
        outcome = engine.batch_update(added=[(t, y)])
        assert outcome.repair_modes == {"deficient": 1}
        assert outcome.max_repair_radius == 1
        assert reads["adj"] == 0
        assert 0 < reads["neighbors_csr"] <= delta * delta + delta + 1
