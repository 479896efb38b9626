"""Small-component solvers: gathering and low-diameter clustering.

Lemma 24 (the shattering lemma) finishes the small leftover components of
the randomized algorithms using network decompositions ((P3)/(P4)).  We
substitute two simpler tools with the same LOCAL-model contract:

* **Leader gathering** — in LOCAL, a component of radius ρ can be solved
  exactly in 2ρ+1 rounds: flood the topology and the boundary colors to
  the min-id leader (ρ rounds), solve centrally, flood the answer back.
  For the poly(Δ)·log n-size components the shattering lemma produces this
  is already far below the main cost terms.
* **MPX low-diameter clustering** (Miller–Peng–Xu exponential delays) — a
  genuinely distributed (O(β)-round) partition into clusters of radius
  O(log n / β) w.h.p. with few inter-cluster edges; provided both as an
  alternative finisher (cluster-by-cluster solving ordered by a greedy
  cluster-graph coloring) and as a measurable artifact for experiment E8's
  decomposition table.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from heapq import heappop, heappush

from repro.graphs.bfs import bfs_distances
from repro.graphs.graph import Graph
from repro.local.rounds import RoundLedger
from repro.primitives.list_coloring import greedy_color_sequential

__all__ = [
    "Clustering",
    "gather_component_cost",
    "solve_components_by_gathering",
    "mpx_clustering",
    "solve_component_by_clustering",
]


@dataclass
class Clustering:
    """A partition of a node subset into low-diameter clusters.

    ``cluster_of[v]`` is the center id of v's cluster (or -1 outside the
    clustered set); ``centers`` lists cluster centers; ``max_radius`` is
    the largest observed center-to-member distance (the round-cost driver).
    """

    cluster_of: dict[int, int]
    centers: list[int]
    max_radius: int


def gather_component_cost(graph: Graph, component: list[int], member_set: set[int]) -> int:
    """LOCAL cost of solving ``component`` by gathering: 2·radius+1 rounds,
    where radius is the min-id leader's eccentricity inside the component."""
    leader = min(component)
    dist = bfs_distances(graph, [leader], allowed=member_set)
    radius = max(dist[v] for v in component)
    return 2 * radius + 1


def solve_components_by_gathering(
    graph: Graph,
    colors: list[int],
    components: list[list[int]],
    max_colors: int,
    ledger: RoundLedger | None = None,
) -> int:
    """Solve each (deg+1-feasible) component by gathering; charge the max.

    Components are node-disjoint and non-adjacent by construction (they
    are maximal connected uncolored sets), so they are solved concurrently
    and the charged LOCAL cost is the maximum over components.
    Returns that maximum.
    """
    ledger = ledger if ledger is not None else RoundLedger()
    costs = []
    for component in components:
        member_set = set(component)
        costs.append(gather_component_cost(graph, component, member_set))
        greedy_color_sequential(graph, colors, component, max_colors)
    ledger.charge_max(costs)
    return max(costs, default=0)


def mpx_clustering(
    graph: Graph,
    members: set[int],
    beta: float,
    rng: random.Random | None = None,
) -> Clustering:
    """Miller–Peng–Xu clustering of ``members`` with parameter β.

    Every member draws a delay δ_v ~ Exponential(β) (capped at
    2·ln(n+1)/β); node u joins the cluster of the center v minimising
    ``dist(v, u) - δ_v`` (ties by smaller center id).  Implemented as a
    multi-source Dijkstra with shifted start keys; distances are measured
    inside the member set.  Cluster radii are O(log n / β) w.h.p.
    """
    rng = rng if rng is not None else random.Random(0)
    cap = 2.0 * math.log(len(members) + 2) / beta
    delay = {v: min(rng.expovariate(beta), cap) for v in members}
    # Multi-source Dijkstra on keys (dist - delay, center, node).
    best_key: dict[int, tuple[float, int]] = {}
    origin: dict[int, int] = {}
    heap: list[tuple[float, int, int]] = []
    for v in members:
        key = (-delay[v], v)
        best_key[v] = key
        origin[v] = v
        heappush(heap, (key[0], key[1], v))
    while heap:
        key_value, center, u = heappop(heap)
        if best_key[u] != (key_value, center):
            continue
        origin[u] = center
        for w in graph.adj[u]:
            if w not in members:
                continue
            candidate = (key_value + 1.0, center)
            if candidate < best_key[w]:
                best_key[w] = candidate
                heappush(heap, (candidate[0], candidate[1], w))
    centers = sorted(set(origin.values()))
    # Radius = hop distance from center to farthest member of its cluster.
    max_radius = 0
    for center in centers:
        cluster_nodes = {v for v, c in origin.items() if c == center}
        dist = bfs_distances(graph, [center], allowed=cluster_nodes)
        radius = max((dist[v] for v in cluster_nodes if dist[v] != -1), default=0)
        max_radius = max(max_radius, radius)
    return Clustering(cluster_of=origin, centers=centers, max_radius=max_radius)


def solve_component_by_clustering(
    graph: Graph,
    colors: list[int],
    component: list[int],
    max_colors: int,
    beta: float = 0.4,
    rng: random.Random | None = None,
    ledger: RoundLedger | None = None,
) -> int:
    """Finish one uncolored component via MPX clusters.

    Clusters are solved greedily in cluster-graph coloring order: clusters
    whose cluster-color differs are non-adjacent and solve concurrently.
    Rounds charged: β-clustering cost (max radius) + (#cluster colors) ×
    (gather cost of the largest cluster).  Returns the charged rounds.
    """
    ledger = ledger if ledger is not None else RoundLedger()
    rng = rng if rng is not None else random.Random(0)
    member_set = set(component)
    clustering = mpx_clustering(graph, member_set, beta, rng)
    # Build the cluster graph and greedily color it (centralized is fine:
    # this models each cluster leader learning its neighbours' choices).
    cluster_neighbors: dict[int, set[int]] = {c: set() for c in clustering.centers}
    for u in component:
        cu = clustering.cluster_of[u]
        for w in graph.adj[u]:
            if w in member_set:
                cw = clustering.cluster_of[w]
                if cw != cu:
                    cluster_neighbors[cu].add(cw)
                    cluster_neighbors[cw].add(cu)
    cluster_color: dict[int, int] = {}
    for center in sorted(clustering.centers):
        used = {cluster_color.get(c) for c in cluster_neighbors[center]}
        color = 0
        while color in used:
            color += 1
        cluster_color[center] = color
    num_cluster_colors = max(cluster_color.values(), default=0) + 1
    # Solve clusters in color-class order.
    for color_class in range(num_cluster_colors):
        for center in clustering.centers:
            if cluster_color[center] != color_class:
                continue
            cluster_nodes = [v for v in component if clustering.cluster_of[v] == center]
            greedy_color_sequential(graph, colors, cluster_nodes, max_colors)
    rounds = clustering.max_radius + num_cluster_colors * (2 * clustering.max_radius + 1)
    ledger.charge(rounds)
    return rounds
