"""Updatable CSR: slack-padded neighbour rows with in-place edge updates.

:class:`repro.graphs.graph.Graph` treats instances as immutable — every
edge delta builds a *new* graph, and even the touched-rows-only rewrite
of :meth:`Graph.apply_updates` pays O(n + m) buffer copies per update.
That is the right trade for snapshot workloads (the service caches and
fingerprints immutable instances), but it is the latency floor of the
*streaming* workload: a single-edge update against a long-lived
:class:`repro.core.incremental.IncrementalColoring` engine should cost
O(Δ), not O(n + m).

:class:`DynamicGraph` is the streaming-native representation.  It keeps
the CSR discipline — one flat native-int data buffer, one start offset
per row — but pads every row to a power-of-two capacity so edges insert
and delete **in place**:

* ``apply_delta(added, removed)`` mutates only the touched rows: an
  insert appends into the row's slack (amortized O(1)); a delete shifts
  the row left (O(deg), preserving neighbour order so downstream seeded
  algorithms behave identically to the immutable path);
* a row out of slack is **relocated** to the tail of the data buffer
  with doubled capacity, leaving a hole; when holes exceed a third of
  the buffer an amortized **compaction** rebuilds the storage with
  fresh power-of-two capacities (a relocation leaves ``old_cap`` holes
  but appends ``≥ 2·old_cap`` fresh slots, so holes can approach but
  never reach half the buffer — one third is the reachable trigger);
* every delta is checked first by
  :func:`repro.graphs.graph.check_edge_delta`, the one edge-delta
  contract :meth:`Graph.apply_updates` also runs, so both
  representations reject the same deltas with the same typed errors;
* a degree histogram is maintained per op, so ``max_degree()`` — which
  the incremental engine reads after *every* applied delta to police
  the Δ-coloring contract — is O(1) instead of O(n);
* ``apply_delta(..., record_undo=True)`` returns an undo token that
  restores the exact pre-delta rows (content, not layout), which is how
  the engine keeps its "rejections leave state untouched" promise for
  failures discovered after mutation (a Δ change under
  ``allow_resolve=False``, a stalled repair).

``DynamicGraph`` subclasses :class:`Graph`, so everything written
against the immutable interface keeps working: ``csr()`` compacts the
padded rows into a classic ``(offsets, indices)`` pair on demand (cached
until the next mutation; the compaction itself runs vectorized on numpy
with a bit-identical pure-Python fallback), ``adj`` / ``has_edge`` /
``subgraph`` read through the live rows, and :meth:`snapshot` emits an
immutable :class:`Graph` sharing the compacted buffers — safe to hand to
caches and solvers because mutation never writes into a compacted
buffer, it only abandons it.

Equivalence contract (pinned by ``tests/test_dynamic_graph.py``): after
any sequence of deltas, ``csr()`` is **bit-identical** to the immutable
graph produced by folding the same deltas through
:meth:`Graph.apply_updates` — same offsets, same indices, same neighbour
order.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable

from repro.errors import GraphError
from repro.graphs.graph import Graph, check_edge_delta

__all__ = ["DynamicGraph", "DeltaUndo"]

#: Smallest per-row capacity (slots); rows never shrink below this.
MIN_ROW_SLOTS = 4


def _row_capacity(deg: int, min_slots: int = MIN_ROW_SLOTS) -> int:
    """Power-of-two capacity with at least one free slot for ``deg`` edges."""
    need = deg + 1
    return max(min_slots, 1 << (need - 1).bit_length())


class DeltaUndo:
    """Opaque token restoring a :class:`DynamicGraph` to its pre-delta rows.

    Captures row *contents* (not storage positions): relocation or
    compaction between capture and restore is irrelevant, the logical
    graph comes back bit-identical.
    """

    __slots__ = ("rows", "num_edges", "deg_hist", "max_deg")

    def __init__(
        self,
        rows: list[tuple[int, array]],
        num_edges: int,
        deg_hist: dict[int, int],
        max_deg: int,
    ):
        self.rows = rows
        self.num_edges = num_edges
        self.deg_hist = deg_hist
        self.max_deg = max_deg


class DynamicGraph(Graph):
    """A simple undirected graph with in-place edge updates.

    Build one with :meth:`from_graph` (the usual route: adopt a solved
    immutable instance into streaming mode) or ``DynamicGraph(n, edges)``.
    The mutating API is :meth:`apply_delta` / :meth:`insert_edge` /
    :meth:`delete_edge`; everything else is the read-only :class:`Graph`
    interface, answered from the live padded rows.
    """

    __slots__ = (
        "_starts",
        "_lens",
        "_caps",
        "_data",
        "_holes",
        "_deg_hist",
        "_dyn_max",
        "_snapshot",
        "relocations",
        "compactions",
        "_min_slots",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (), *,
                 min_slots: int = MIN_ROW_SLOTS):
        base = Graph(n, edges)
        offsets, indices = base.csr()
        self._adopt_csr(n, offsets, indices, base.num_edges, min_slots)

    @classmethod
    def from_graph(cls, graph: Graph, *, min_slots: int = MIN_ROW_SLOTS) -> "DynamicGraph":
        """A dynamic copy of ``graph`` (row order preserved exactly)."""
        dyn = cls.__new__(cls)
        offsets, indices = graph.csr()
        dyn._adopt_csr(graph.n, offsets, indices, graph.num_edges, min_slots)
        return dyn

    def _adopt_csr(
        self, n: int, offsets: array, indices: array, num_edges: int,
        min_slots: int,
    ) -> None:
        self.n = n
        self._num_edges = num_edges
        self._min_slots = min_slots
        lens = array("i", bytes(4 * n))
        caps = array("i", bytes(4 * n))
        starts = array("q", bytes(8 * n))
        total = 0
        for v in range(n):
            deg = offsets[v + 1] - offsets[v]
            lens[v] = deg
            cap = _row_capacity(deg, min_slots)
            caps[v] = cap
            starts[v] = total
            total += cap
        data = array("i", bytes(4 * total))
        for v in range(n):
            deg = lens[v]
            if deg:
                s = starts[v]
                data[s : s + deg] = indices[offsets[v] : offsets[v] + deg]
        self._starts = starts
        self._lens = lens
        self._caps = caps
        self._data = data
        self._holes = 0
        self.relocations = 0
        self.compactions = 0
        hist: dict[int, int] = {}
        for v in range(n):
            d = lens[v]
            hist[d] = hist.get(d, 0) + 1
        self._deg_hist = hist
        self._dyn_max = max(hist) if hist else 0
        # Graph base slots double as invalidatable caches here.
        self._offsets = None
        self._indices = None
        self._adj = None
        self._adj_sets = None
        self._max_degree = None
        self._min_degree = None
        self._connected = None
        self._snapshot = None

    # -- cache discipline --------------------------------------------------

    def _touch(self) -> None:
        """Invalidate every derived view after a mutation."""
        self._offsets = None
        self._indices = None
        self._adj = None
        self._adj_sets = None
        self._min_degree = None
        self._connected = None
        self._snapshot = None

    # -- read interface (overrides answering from live rows) --------------

    @property
    def adj(self) -> list[list[int]]:
        cached = self._adj
        if cached is None:
            data, starts, lens = self._data, self._starts, self._lens
            cached = [
                data[starts[v] : starts[v] + lens[v]].tolist()
                for v in range(self.n)
            ]
            self._adj = cached
        return cached

    def degree(self, v: int) -> int:
        return self._lens[v]

    def degrees(self) -> list[int]:
        return self._lens.tolist()

    def max_degree(self) -> int:
        """O(1): maintained through the degree histogram."""
        return self._dyn_max

    def min_degree(self) -> int:
        if self._min_degree is None:
            self._min_degree = min(self._lens) if self.n else 0
        return self._min_degree

    def neighbors(self, v: int) -> list[int]:
        s = self._starts[v]
        return self._data[s : s + self._lens[v]].tolist()

    def neighbors_csr(self, v: int) -> memoryview:
        s = self._starts[v]
        return memoryview(self._data)[s : s + self._lens[v]]

    def has_edge(self, u: int, v: int) -> bool:
        # Probe the smaller row; never build the adjacency-set cache.
        if self._lens[v] < self._lens[u]:
            u, v = v, u
        s = self._starts[u]
        data = self._data
        for i in range(s, s + self._lens[u]):
            if data[i] == v:
                return True
        return False

    def adjacency_sets(self) -> list[set[int]]:
        if self._adj_sets is None:
            self._adj_sets = [set(row) for row in self.adj]
        return self._adj_sets

    def csr(self) -> tuple[array, array]:
        """Compact the padded rows into classic CSR buffers (cached until
        the next mutation; never aliased by future mutations)."""
        if self._offsets is None:
            np = _numpy()
            if np is not None and self.n >= 512:
                self._offsets, self._indices = self._compact_numpy(np)
            else:
                self._offsets, self._indices = self._compact_python()
        return self._offsets, self._indices

    def _compact_python(self) -> tuple[array, array]:
        n = self.n
        lens, starts, data = self._lens, self._starts, self._data
        offsets = array("i", bytes(4 * (n + 1)))
        total = 0
        for v in range(n):
            total += lens[v]
            offsets[v + 1] = total
        indices = array("i", bytes(4 * total))
        for v in range(n):
            deg = lens[v]
            if deg:
                s = starts[v]
                indices[offsets[v] : offsets[v] + deg] = data[s : s + deg]
        return offsets, indices

    def _compact_numpy(self, np) -> tuple[array, array]:
        lens = np.frombuffer(self._lens, dtype=np.int32).astype(np.int64)
        starts = np.frombuffer(self._starts, dtype=np.int64)
        data = np.frombuffer(self._data, dtype=np.int32)
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        total = int(offsets[-1])
        # Source index of every compacted slot: its row's padded start
        # plus its offset within the row.
        rows = np.repeat(np.arange(self.n, dtype=np.int64), lens)
        within = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], lens)
        gathered = data[starts[rows] + within]
        return (
            array("i", offsets.astype(np.int32).tobytes()),
            array("i", gathered.astype(np.int32, copy=False).tobytes()),
        )

    def snapshot(self) -> Graph:
        """An immutable :class:`Graph` of the current state (cached until
        the next mutation; shares the compacted CSR buffers, which later
        mutations abandon rather than overwrite)."""
        if self._snapshot is None:
            offsets, indices = self.csr()
            graph = Graph._from_csr(self.n, offsets, indices, self._num_edges)
            graph._max_degree = self._dyn_max
            self._snapshot = graph
        return self._snapshot

    def apply_updates(
        self,
        added: Iterable[tuple[int, int]] = (),
        removed: Iterable[tuple[int, int]] = (),
    ) -> Graph:
        """Immutable-style delta: a *new* graph, this one untouched."""
        return self.snapshot().apply_updates(added, removed)

    # -- mutation ----------------------------------------------------------

    def insert_edge(self, u: int, v: int) -> None:
        """Insert ``{u, v}`` in place (validated)."""
        self.apply_delta(added=[(u, v)])

    def delete_edge(self, u: int, v: int) -> None:
        """Delete ``{u, v}`` in place (validated)."""
        self.apply_delta(removed=[(u, v)])

    def apply_delta(
        self,
        added: Iterable[tuple[int, int]] = (),
        removed: Iterable[tuple[int, int]] = (),
        *,
        record_undo: bool = False,
    ) -> DeltaUndo | None:
        """Apply a whole delta **in place**: O(vol of touched rows).

        The delta is checked first by
        :func:`repro.graphs.graph.check_edge_delta`, the same contract
        :meth:`Graph.apply_updates` runs (same typed errors, same
        messages), before the first mutation — a raising call never
        leaves a partial delta behind.

        With ``record_undo=True`` returns a :class:`DeltaUndo` token for
        :meth:`undo_delta`.
        """
        added = list(added)
        removed = list(removed)
        check_edge_delta(self, added, removed)
        undo = None
        if record_undo:
            touched = {w for edge in added for w in edge}
            touched.update(w for edge in removed for w in edge)
            data, starts, lens = self._data, self._starts, self._lens
            undo = DeltaUndo(
                rows=[
                    (v, data[starts[v] : starts[v] + lens[v]])
                    for v in touched
                ],
                num_edges=self._num_edges,
                deg_hist=dict(self._deg_hist),
                max_deg=self._dyn_max,
            )
        # Removals first, then insertions, mirroring the per-row
        # "drop then extend" order of Graph.apply_updates.
        for u, v in removed:
            self._row_remove(u, v)
            self._row_remove(v, u)
        for u, v in added:
            self._row_append(u, v)
            self._row_append(v, u)
        self._num_edges += len(added) - len(removed)
        self._touch()
        return undo

    def undo_delta(self, undo: DeltaUndo) -> None:
        """Restore the rows captured by ``apply_delta(record_undo=True)``."""
        for v, row in undo.rows:
            ln = len(row)
            # No stale locals here: _grow_row can trigger a compaction that
            # replaces the storage buffers wholesale.
            if self._caps[v] < ln:
                self._grow_row(v, ln)
            if ln:
                start = self._starts[v]
                self._data[start : start + ln] = row
            self._lens[v] = ln
        self._deg_hist = dict(undo.deg_hist)
        self._dyn_max = undo.max_deg
        self._num_edges = undo.num_edges
        self._touch()

    def storage_stats(self) -> dict[str, int]:
        """Internal layout accounting (for tests and capacity planning)."""
        return {
            "data_slots": len(self._data),
            "live_slots": sum(self._lens),
            "holes": self._holes,
            "relocations": self.relocations,
            "compactions": self.compactions,
        }

    # -- internals ---------------------------------------------------------

    def _bump_degree(self, v: int, new: int) -> None:
        hist = self._deg_hist
        old = self._lens[v]
        count = hist.get(old, 0) - 1
        if count:
            hist[old] = count
        else:
            hist.pop(old, None)
        hist[new] = hist.get(new, 0) + 1
        self._lens[v] = new
        if new > self._dyn_max:
            self._dyn_max = new
        elif old == self._dyn_max and old not in hist:
            d = old
            while d > 0 and hist.get(d, 0) <= 0:
                d -= 1
            self._dyn_max = d

    def _row_append(self, v: int, w: int) -> None:
        ln = self._lens[v]
        if ln == self._caps[v]:
            self._grow_row(v, ln + 1)
        self._data[self._starts[v] + ln] = w
        self._bump_degree(v, ln + 1)

    def _row_remove(self, v: int, w: int) -> None:
        start = self._starts[v]
        ln = self._lens[v]
        data = self._data
        end = start + ln
        for i in range(start, end):
            if data[i] == w:
                break
        else:  # pragma: no cover - presence validated before mutation
            raise GraphError(f"cannot remove edge ({v}, {w}): not present")
        if i < end - 1:
            data[i : end - 1] = data[i + 1 : end]  # shift left, order kept
        self._bump_degree(v, ln - 1)

    def _grow_row(self, v: int, needed: int) -> None:
        """Relocate row ``v`` to the tail of the data buffer with at least
        ``needed`` slots (power-of-two), leaving a hole behind."""
        new_cap = max(_row_capacity(needed - 1, self._min_slots), self._caps[v] * 2)
        data = self._data
        start, ln = self._starts[v], self._lens[v]
        new_start = len(data)
        data.extend(data[start : start + ln])
        if new_cap > ln:
            data.extend(array("i", bytes(4 * (new_cap - ln))))
        self._holes += self._caps[v]
        self._starts[v] = new_start
        self._caps[v] = new_cap
        self.relocations += 1
        if self._holes * 3 > len(data):
            self._compact_storage()

    def _compact_storage(self) -> None:
        """Rebuild the padded storage: fresh power-of-two capacities, no
        holes.  Amortized against the relocations that triggered it."""
        n = self.n
        old_data, old_starts, lens = self._data, self._starts, self._lens
        caps = array("i", bytes(4 * n))
        starts = array("q", bytes(8 * n))
        total = 0
        for v in range(n):
            cap = _row_capacity(lens[v], self._min_slots)
            caps[v] = cap
            starts[v] = total
            total += cap
        data = array("i", bytes(4 * total))
        for v in range(n):
            deg = lens[v]
            if deg:
                s_old, s_new = old_starts[v], starts[v]
                data[s_new : s_new + deg] = old_data[s_old : s_old + deg]
        self._starts = starts
        self._caps = caps
        self._data = data
        self._holes = 0
        self.compactions += 1

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"DynamicGraph(n={self.n}, m={self.num_edges}, Δ={self.max_degree()}, "
            f"slots={len(self._data)}, holes={self._holes})"
        )


def _numpy():
    try:
        import numpy as np
    except Exception:  # pragma: no cover - numpy-free environments
        return None
    return np
