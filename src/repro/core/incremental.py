"""Incremental Δ-coloring under edge updates (graph streams).

The paper's Theorem 5 machinery (:func:`repro.core.brooks.
fix_uncolored_node`) completes a coloring with one uncolored node by
recoloring only an O(log n) neighbourhood — exactly the primitive needed
to keep a coloring valid under edge insertions and deletions instead of
re-solving from scratch.  :class:`IncrementalColoring` packages it as a
stateful engine:

* it holds the current graph plus a valid coloring (typically seeded
  from a :class:`repro.api.ColoringResult`), the coloring in a
  journaling :class:`repro.core.colorstore.ColorStore` (numpy-backed,
  O(touched) diffing — no per-op O(n) list copies);
* ``insert_edge`` / ``delete_edge`` / ``batch_update`` apply a delta,
  detect the conflicts the delta created, uncolor a *minimal* hitting
  set of conflict endpoints, and repair each through the ladder

      1. **greedy** — take a free color at the uncolored node (O(Δ));
      2. **brooks** — the Theorem 5 token walk
         (:func:`fix_uncolored_node`), O(log n) locality;
      3. **resolve** — a full :func:`repro.api.solve` of the new graph,
         reached only when Δ changed (the Δ-coloring contract itself
         moved) or the local repair stalled (e.g. the update carved out
         a clique component, which no Δ-palette repair can fix).

Deletions never create conflicts (removing constraints preserves
properness), so they are O(delta-application) unless they lower Δ —
a *smaller* palette contract — which forces a resolve.

**One delta path.**  Every op goes through one ``_apply``: apply the
delta (the graph layer checks it), read the new Δ, run the ladder once.
Two graph backends apply it, selected by the ``backend`` parameter:

* ``"immutable"`` — every op builds a fresh :class:`repro.graphs.Graph`
  via :meth:`Graph.apply_updates` (touched-rows CSR rewrite, O(n + m)
  buffer copies), committed only on success.  The engine never mutates
  a caller's graph, and ``engine.graph`` keeps its identity semantics —
  a rejected op leaves the *same object* in place.
* ``"dynamic"`` — the engine owns a
  :class:`repro.graphs.dynamic.DynamicGraph` (slack-padded updatable
  CSR) and applies deltas **in place**, O(Δ) per touched row, with an
  undo token.  This is the streaming mode: ~μs delta application
  independent of n.
* ``"auto"`` (default) — start immutable, convert to an owned dynamic
  copy once the stream proves itself (two accepted ops).  One-shot
  facade calls (:func:`repro.api.solve_incremental`) stay on the
  immutable path and hand out ordinary graphs; sustained streams pay
  one O(n + m) conversion and then update in place.

In dynamic mode the engine still never mutates caller state: the
conversion copies, and ``engine.graph`` returns an immutable
:meth:`~repro.graphs.dynamic.DynamicGraph.snapshot` (cached until the
next mutation — cheap at stream end, O(n + m) if read every op; use
``colors_view()`` / ``last_dirty_region`` for per-op monitoring).
A ladder failure after the delta was applied (a Δ change or a stalled
repair under ``allow_resolve=False``) rolls back both structures
exactly: the graph via the undo token, the colors via the store
journal.

Every op returns an :class:`UpdateOutcome` with repair-locality stats
(`recolored_count`, `max_repair_radius`, charged LOCAL `rounds`, the
per-mode counts), and the engine accumulates lifetime totals in
:attr:`IncrementalColoring.totals` — the numbers
``benchmarks/bench_s2_incremental.py`` reports against fresh-solve
latency.

Rejected operations (typed, state unchanged): an illegal edge delta —
an edge removed twice, added twice, both added and removed, removed
but absent, added but present, out of range, a self-loop — raises the
error :func:`repro.graphs.graph.check_edge_delta` picks before any
mutation (``docs/INCREMENTAL.md`` tabulates the rule in check order);
an update needing a re-solve when the engine was built with
``allow_resolve=False`` raises :class:`repro.errors.DeltaChangeError`
after the delta is undone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import DeltaChangeError, ReproError
from repro.core.brooks import fix_uncolored_node
from repro.core.colorstore import ColorStore
from repro.graphs.dynamic import DynamicGraph
from repro.graphs.graph import Graph
from repro.graphs.validation import (
    UNCOLORED,
    validate_coloring,
    validate_coloring_region,
)

__all__ = ["IncrementalColoring", "UpdateOutcome"]

#: Accepted ops after which ``backend="auto"`` converts to dynamic.
AUTO_CONVERT_AFTER = 2


@dataclass
class UpdateOutcome:
    """What one ``insert_edge`` / ``delete_edge`` / ``batch_update`` did.

    ``repair_modes`` counts repaired nodes per ladder rung (``greedy``,
    plus the :class:`repro.core.brooks.BrooksFixResult` modes for token
    walks); ``max_repair_radius`` is the farthest distance from a repair
    site at which a color changed — the locality Theorem 5 bounds by
    2·log_{Δ-1} n; ``rounds`` is the charged LOCAL cost of the repairs.
    ``full_resolve`` marks the ladder's last rung: the whole coloring was
    recomputed and per-node repair stats do not apply.
    """

    op: str
    edges_added: int = 0
    edges_removed: int = 0
    conflicts: int = 0
    recolored_count: int = 0
    repair_modes: dict[str, int] = field(default_factory=dict)
    max_repair_radius: int = 0
    rounds: int = 0
    full_resolve: bool = False
    resolve_reason: str | None = None
    delta: int = 0
    palette: int = 0
    wall_time_s: float = 0.0
    rung_wall_s: dict[str, float] = field(default_factory=dict)

    def charge_rung_wall(self, rung: str, seconds: float) -> None:
        """Accumulate wall-clock seconds against a ladder rung
        (``greedy`` / ``token-walk`` / ``resolve``)."""
        self.rung_wall_s[rung] = self.rung_wall_s.get(rung, 0.0) + seconds

    def as_dict(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "edges_added": self.edges_added,
            "edges_removed": self.edges_removed,
            "conflicts": self.conflicts,
            "recolored_count": self.recolored_count,
            "repair_modes": dict(self.repair_modes),
            "max_repair_radius": self.max_repair_radius,
            "rounds": self.rounds,
            "full_resolve": self.full_resolve,
            "resolve_reason": self.resolve_reason,
            "delta": self.delta,
            "palette": self.palette,
            "wall_time_s": round(self.wall_time_s, 6),
            "rung_wall_s": {
                rung: round(seconds, 6)
                for rung, seconds in self.rung_wall_s.items()
            },
        }


class IncrementalColoring:
    """A valid coloring maintained under a stream of edge updates.

    Parameters
    ----------
    graph:
        The current instance (never mutated; updates either swap in new
        graphs or mutate an engine-owned dynamic copy).
    colors:
        A valid coloring of ``graph`` with colors in ``1..palette``
        (validated at construction unless ``validate_seed=False``).
    palette:
        The palette bound the engine maintains (Δ for the paper's
        algorithms).
    algorithm:
        The registry name that produced the seed coloring; consulted for
        the ``supports_incremental`` capability flag — algorithms without
        it (per-component χ palettes) skip the repair ladder and resolve
        on every conflicting update.
    config:
        The :class:`repro.api.SolverConfig` used for full re-solves
        (default: ``algorithm="auto"`` with ``seed``).
    backend:
        Delta-application mode: ``"auto"`` (immutable until the stream
        proves itself, then dynamic), ``"dynamic"`` (convert at
        construction), ``"immutable"`` (never convert).
    allow_resolve:
        When False, updates that would need a full re-solve (Δ changes)
        raise :class:`repro.errors.DeltaChangeError` instead, leaving the
        engine unchanged.
    validate:
        Re-validate the coloring after every applied update.  Repaired
        updates check only the **dirty region** — the recolored nodes
        plus the endpoints of inserted edges — via
        :func:`repro.graphs.validation.validate_coloring_region`
        (O(vol(region)); sound because the pre-update coloring was valid
        and nothing outside the region changed); full re-solves still
        pay the full O(n + m) :func:`validate_coloring` pass.
    """

    def __init__(
        self,
        graph: Graph,
        colors: Iterable[int],
        palette: int | None = None,
        *,
        algorithm: str = "auto",
        config: "Any | None" = None,
        seed: int = 0,
        backend: str = "auto",
        allow_resolve: bool = True,
        validate: bool = False,
        validate_seed: bool = True,
    ):
        if backend not in ("auto", "dynamic", "immutable"):
            raise ValueError(f"unknown IncrementalColoring backend: {backend!r}")
        self._graph = graph
        self._colors = ColorStore(colors)
        self._delta = graph.max_degree()
        self.palette = palette if palette is not None else self._delta
        self.algorithm = algorithm
        self.seed = seed
        # The seed recorded on results *derived from* this engine's state
        # (may legitimately be None when the seeding result's was); the
        # engine's own ``seed`` stays an int for the re-solve config.
        self.result_seed: int | None = seed
        self.backend = backend
        self.allow_resolve = allow_resolve
        self.validate = validate
        self._config = config
        self._last_dirty: list[int] | None = []
        self._is_dynamic = isinstance(graph, DynamicGraph)
        self._supports_inc: tuple[str, bool] | None = None
        if backend == "dynamic" and not self._is_dynamic:
            self._graph = DynamicGraph.from_graph(graph)
            self._is_dynamic = True
        if validate_seed:
            validate_coloring(graph, self._colors, max_colors=self.palette or None)
        self.totals: dict[str, Any] = {
            "ops": 0,
            "edges_added": 0,
            "edges_removed": 0,
            "conflicts": 0,
            "recolored": 0,
            "full_resolves": 0,
            "repair_modes": {},
            "max_repair_radius": 0,
            "rounds": 0,
        }

    @classmethod
    def from_result(
        cls, graph: Graph, result: "Any", **kwargs: Any
    ) -> "IncrementalColoring":
        """Seed the engine from a :class:`repro.api.ColoringResult` of
        ``graph`` (the solve is trusted: no seed re-validation)."""
        kwargs.setdefault("validate_seed", False)
        kwargs.setdefault("seed", result.seed if result.seed is not None else 0)
        kwargs.setdefault("algorithm", result.algorithm)
        engine = cls(graph, result.colors, result.palette, **kwargs)
        engine.result_seed = result.seed
        return engine

    # -- views -------------------------------------------------------------

    @property
    def graph(self) -> Graph:
        """The current graph.  On the immutable path this is the exact
        object last committed (identity-stable across rejected ops); on
        the dynamic path, an immutable snapshot of the owned dynamic
        graph, cached until the next mutation."""
        if self._is_dynamic:
            return self._graph.snapshot()
        return self._graph

    @property
    def colors(self) -> list[int]:
        """The current coloring (a plain-list copy; the engine owns its
        state).  Prefer :meth:`colors_view` on hot paths."""
        return self._colors.to_list()

    def colors_view(self):
        """A read-only, copy-free view of the current coloring (numpy
        array or tuple; see :meth:`repro.core.colorstore.ColorStore.view`)."""
        return self._colors.view()

    @property
    def delta(self) -> int:
        return self._delta

    @property
    def n(self) -> int:
        """Node count of the current graph, without snapshotting it
        (``engine.graph`` on the dynamic path is an O(n + m) copy; the
        service's admission control only needs the size)."""
        return self._graph.n

    @property
    def num_edges(self) -> int:
        """Edge count of the current graph, snapshot-free (see :attr:`n`)."""
        return self._graph.num_edges

    def set_resolve_config(self, config: "Any | None") -> None:
        """Replace the :class:`repro.api.SolverConfig` used by the full
        re-solve rung.  Long-lived engines (the service's chain heads)
        serve many requests, each carrying its own config; the engine is
        keyed by a digest that covers the config, so updating it here
        keeps rung 3 consistent with what the caller asked for."""
        self._config = config

    @property
    def last_dirty_region(self) -> list[int] | None:
        """Nodes the last applied op may have affected (recolored nodes
        plus inserted-edge endpoints), or ``None`` after a full re-solve
        (every node is then suspect and only a full validation applies).
        """
        dirty = self._last_dirty
        return list(dirty) if dirty is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        mode = "dynamic" if self._is_dynamic else "immutable"
        return (
            f"IncrementalColoring(n={self._graph.n}, m={self._graph.num_edges}, "
            f"Δ={self._delta}, palette={self.palette}, ops={self.totals['ops']}, "
            f"backend={mode})"
        )

    # -- operations --------------------------------------------------------

    def insert_edge(self, u: int, v: int) -> UpdateOutcome:
        """Insert ``{u, v}``, repairing any conflict it creates."""
        return self._apply("insert", [(u, v)], [])

    def delete_edge(self, u: int, v: int) -> UpdateOutcome:
        """Delete ``{u, v}`` (never creates conflicts; may lower Δ)."""
        return self._apply("delete", [], [(u, v)])

    def batch_update(
        self,
        added: Iterable[tuple[int, int]] = (),
        removed: Iterable[tuple[int, int]] = (),
    ) -> UpdateOutcome:
        """Apply a whole delta atomically: one graph transition, all
        conflicts detected against it, one repair pass."""
        return self._apply("batch", list(added), list(removed))

    # -- internals ---------------------------------------------------------

    def _apply(
        self,
        op: str,
        added: list[tuple[int, int]],
        removed: list[tuple[int, int]],
    ) -> UpdateOutcome:
        """Apply the delta, then run the repair ladder once.  Any
        :class:`ReproError` from the ladder (including
        :class:`DeltaChangeError` under ``allow_resolve=False``) undoes
        the delta and rolls back the color journal before re-raising."""
        started = time.perf_counter()
        if (
            self.backend == "auto"
            and not self._is_dynamic
            and self.totals["ops"] >= AUTO_CONVERT_AFTER
        ):
            # The stream proved itself: own a dynamic copy from here on.
            self._graph = DynamicGraph.from_graph(self._graph)
            self._is_dynamic = True
        graph = self._graph
        undo = None
        if self._is_dynamic:
            undo = graph.apply_delta(added, removed, record_undo=True)
            new_graph = graph
        else:
            new_graph = graph.apply_updates(added, removed)
        outcome = UpdateOutcome(
            op=op, edges_added=len(added), edges_removed=len(removed)
        )
        try:
            dirty = self._run_ladder(new_graph, added, outcome)
        except ReproError:
            if self._colors.in_transaction:
                self._colors.rollback()
            if undo is not None:
                graph.undo_delta(undo)
            raise
        self._last_dirty = sorted(dirty) if dirty is not None else None
        outcome.delta = self._delta
        outcome.palette = self.palette
        if self.validate:
            if dirty is None:
                validate_coloring(
                    self._graph, self._colors, max_colors=self.palette or None
                )
            else:
                validate_coloring_region(
                    self._graph, self._colors, dirty,
                    max_colors=self.palette or None,
                )
        outcome.wall_time_s = time.perf_counter() - started
        self._accumulate(outcome)
        return outcome

    def _run_ladder(
        self,
        new_graph: Graph,
        added: list[tuple[int, int]],
        outcome: UpdateOutcome,
    ) -> set[int] | None:
        """Greedy → token walk → re-solve against the post-delta graph;
        commits ``new_graph`` and returns the dirty region, or ``None``
        after a full re-solve."""
        new_delta = new_graph.max_degree()
        if self._delta_moved(new_delta):
            self._resolve(new_graph, outcome, reason=f"delta {self._delta}->{new_delta}")
            return None
        store = self._colors
        conflicts = [
            (u, v)
            for u, v in added
            if store[u] == store[v] and store[u] != UNCOLORED
        ]
        outcome.conflicts = len(conflicts)
        if conflicts and not self._spec_supports_incremental():
            self._resolve(new_graph, outcome, reason="algorithm-unsupported")
            return None
        dirty = {v for edge in added for v in edge}
        if conflicts:
            uncolor = self._minimal_uncolor_set(conflicts, new_graph)
            store.begin()
            try:
                self._repair(new_graph, store, uncolor, outcome)
            except ReproError:
                # Repair stalled (e.g. the delta carved out a clique
                # component): last rung of the ladder.
                store.rollback()
                self._resolve(new_graph, outcome, reason="repair-stalled")
                return None
            changed = store.commit()
            outcome.recolored_count = len(changed)
            dirty.update(changed)
        self._graph = new_graph
        self._delta = new_delta
        return dirty

    def _delta_moved(self, new_delta: int) -> bool:
        """Did the delta move the Δ-coloring contract itself?  A rise
        leaves the old colors proper but under-uses the new palette's
        guarantees, a fall makes the old palette illegal; and any palette
        below the new Δ voids the repair ladder's guarantees outright.
        Only a fresh solve restores the contract."""
        return (
            new_delta != self._delta and self.palette == self._delta
        ) or new_delta > self.palette

    def _spec_supports_incremental(self) -> bool:
        cached = self._supports_inc
        if cached is not None and cached[0] == self.algorithm:
            return cached[1]
        from repro.api.registry import get_algorithm

        try:
            flag = get_algorithm(self.algorithm).supports_incremental
        except ReproError:
            # Unknown (e.g. third-party unregistered) seed algorithm:
            # assume repairable — the resolve rung still backstops it.
            flag = True
        self._supports_inc = (self.algorithm, flag)
        return flag

    def _minimal_uncolor_set(
        self,
        conflicts: list[tuple[int, int]],
        graph: Graph,
    ) -> list[int]:
        """A small vertex set hitting every conflict edge.

        Greedy max-multiplicity vertex cover over the conflict edges: for
        single-edge updates this is one endpoint (preferring one with
        degree < palette, where a free color is guaranteed); for batches
        a shared endpoint of k conflicts is uncolored once instead of k
        times.
        """
        remaining = list(conflicts)
        uncolor: list[int] = []
        while remaining:
            multiplicity: dict[int, int] = {}
            for u, v in remaining:
                multiplicity[u] = multiplicity.get(u, 0) + 1
                multiplicity[v] = multiplicity.get(v, 0) + 1
            best = max(
                multiplicity,
                key=lambda x: (
                    multiplicity[x],
                    graph.degree(x) < self.palette,  # free color guaranteed
                    -x,
                ),
            )
            uncolor.append(best)
            remaining = [e for e in remaining if best not in e]
        return uncolor

    def _repair(
        self,
        graph: Graph,
        colors: "ColorStore",
        uncolor: list[int],
        outcome: UpdateOutcome,
    ) -> None:
        """Rungs 1–2 of the ladder for every uncolored node (mutates
        ``colors`` through item assignment only, so list-likes and
        :class:`ColorStore` both work; raises on stall, caller falls to
        rung 3).  Neighbour rows are read straight off the CSR buffers —
        touching ``graph.adj`` here would lazily materialise all O(n + m)
        adjacency lists on every fresh post-update graph."""
        for v in uncolor:
            colors[v] = UNCOLORED
        palette = self.palette
        for v in uncolor:
            rung_started = time.perf_counter()
            used = set()
            for w in graph.neighbors_csr(v):
                c = colors[w]
                if c != UNCOLORED:
                    used.add(c)
            free = next(
                (c for c in range(1, palette + 1) if c not in used), None
            )
            if free is not None:
                colors[v] = free
                outcome.repair_modes["greedy"] = (
                    outcome.repair_modes.get("greedy", 0) + 1
                )
                outcome.rounds += 1
                outcome.charge_rung_wall(
                    "greedy", time.perf_counter() - rung_started
                )
                continue
            fix = fix_uncolored_node(graph, colors, v, max_colors=palette)
            outcome.repair_modes[fix.mode] = (
                outcome.repair_modes.get(fix.mode, 0) + 1
            )
            outcome.max_repair_radius = max(outcome.max_repair_radius, fix.radius)
            outcome.rounds += fix.rounds
            outcome.charge_rung_wall(
                "token-walk", time.perf_counter() - rung_started
            )

    def _resolve(
        self, graph: Graph, outcome: UpdateOutcome, reason: str
    ) -> None:
        """Rung 3: full re-solve of the new graph through the facade.

        ``graph`` is either the fresh immutable graph (committed here) or
        the engine's own already-mutated :class:`DynamicGraph` (solved
        via its snapshot).  The color store must hold the *pre-op*
        coloring (callers roll back partial repairs first) so the
        recolored count is a true pre/post diff.
        """
        if not self.allow_resolve:
            raise DeltaChangeError(
                f"update needs a full re-solve ({reason}) but the engine "
                "was built with allow_resolve=False"
            )
        from repro.api import SolverConfig, solve

        config = self._config
        if config is None:
            config = SolverConfig(algorithm="auto", seed=self.seed)
        solvable = graph.snapshot() if isinstance(graph, DynamicGraph) else graph
        rung_started = time.perf_counter()
        result = solve(solvable, config)
        outcome.charge_rung_wall("resolve", time.perf_counter() - rung_started)
        outcome.full_resolve = True
        outcome.resolve_reason = reason
        outcome.rounds += result.rounds
        store = self._colors
        outcome.recolored_count = store.diff_count(result.colors)
        self.algorithm = result.algorithm
        self.palette = result.palette
        store.replace(result.colors)
        self._graph = graph
        self._delta = graph.max_degree()

    def _accumulate(self, outcome: UpdateOutcome) -> None:
        totals = self.totals
        totals["ops"] += 1
        totals["edges_added"] += outcome.edges_added
        totals["edges_removed"] += outcome.edges_removed
        totals["conflicts"] += outcome.conflicts
        totals["recolored"] += outcome.recolored_count
        totals["full_resolves"] += outcome.full_resolve
        totals["rounds"] += outcome.rounds
        totals["max_repair_radius"] = max(
            totals["max_repair_radius"], outcome.max_repair_radius
        )
        for mode, count in outcome.repair_modes.items():
            totals["repair_modes"][mode] = (
                totals["repair_modes"].get(mode, 0) + count
            )
