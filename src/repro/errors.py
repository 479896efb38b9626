"""Exception hierarchy for the repro package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything coming out of the reproduction with a single handler.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphError(ReproError):
    """Raised for malformed graph inputs (self-loops, bad edges, ...)."""


class GraphConstructionError(GraphError):
    """Raised when an external graph description (e.g. an edge-list file)
    is malformed: unparsable lines, self-loops, duplicate edges.

    Carries enough position information (``path:line``) for the caller to
    fix the input without reading library internals.
    """


class ColoringError(ReproError):
    """Raised when a produced or supplied coloring violates a contract.

    Attributes
    ----------
    violations:
        A list of human-readable violation descriptions (possibly truncated);
        useful in test failure output.
    """

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = violations or []


class NotNiceGraphError(ReproError):
    """Raised when an algorithm requiring a *nice* graph receives a clique,
    cycle, or path (these graphs are not Δ-colorable by Brooks' theorem or
    need special handling)."""


class InfeasibleListColoringError(ReproError):
    """Raised when a degree-list coloring instance admits no solution.

    By Theorem 8 (Erdős–Rubin–Taylor / Vizing) this can only happen when the
    underlying graph is a Gallai tree with tight lists; the algorithms in
    this package only create instances where a solution is guaranteed, so
    seeing this error indicates a caller bug.
    """


class IncrementalUpdateError(ReproError):
    """Base class for rejected edge-stream updates.

    Raised by :class:`repro.core.incremental.IncrementalColoring` (and the
    service's ``update`` verb) when an operation cannot be applied to the
    maintained instance; the engine's state is unchanged after a
    rejection, so callers may correct the op and retry.
    """


class EdgeAlreadyPresentError(IncrementalUpdateError, GraphError):
    """Raised when an ``insert_edge`` names an edge the graph already has
    (or one duplicated within a batch update).

    Also a :class:`GraphError`: the graph layer raises it directly (see
    :func:`repro.graphs.check_edge_delta`), so ``except GraphError``
    callers keep working."""


class EdgeNotPresentError(IncrementalUpdateError, GraphError):
    """Raised when a ``delete_edge`` names an edge the graph does not have
    (or one removed twice within a batch update).  Also a
    :class:`GraphError`, like :class:`EdgeAlreadyPresentError`."""


class ConflictingUpdateError(IncrementalUpdateError, GraphError):
    """Raised when one edge key appears in both the ``added`` and the
    ``removed`` list of a single batch update.

    Such a batch has no coherent meaning under atomic (set-at-once)
    delta semantics — it is neither an insert nor a delete — so it is
    rejected outright rather than resolved by list order.  Also a
    :class:`GraphError`, like :class:`EdgeAlreadyPresentError`.
    """


class DeltaChangeError(IncrementalUpdateError):
    """Raised when an update would change the maximum degree Δ while the
    engine was configured with ``allow_resolve=False``.

    A Δ change invalidates the Δ-coloring *contract* (not necessarily the
    coloring itself), so it cannot be repaired locally — it needs a full
    re-solve, which the caller explicitly opted out of.
    """


class StaleParentError(IncrementalUpdateError):
    """Raised by the service when an ``update`` request names a
    ``parent_digest`` the server no longer holds (evicted or never seen);
    the client should fall back to a full ``solve`` of the child graph."""


class ServiceOverloadedError(ReproError):
    """Raised by the serving gateway when the request queue is full.

    Load shedding is explicit: a request that cannot be admitted fails
    immediately with this error instead of queueing unboundedly (clients
    see a structured ``overloaded`` reply and may retry with backoff).
    """


class ShardUnavailableError(ServiceOverloadedError):
    """Raised by the shard router when the shard owning a request's
    digest arc is down (crashed, restarting, or unreachable).

    Subclasses :class:`ServiceOverloadedError` deliberately: on the wire
    it is an ``overloaded`` reply — the retriable kind — because a
    supervised shard is expected back within its restart backoff, so
    retry-with-backoff is exactly the right client behavior.
    """


class ShardFailedError(ReproError):
    """Raised by the shard supervisor when a worker process cannot be
    (re)started: it died before publishing its port, or exhausted its
    restart budget within the backoff window."""


class ServiceProtocolError(ReproError):
    """Raised for malformed service requests/replies (bad JSON, missing
    fields, out-of-range graph payloads)."""


class AlgorithmContractError(ReproError):
    """Raised in strict mode when an internal per-phase invariant fails.

    The randomized/deterministic Δ-coloring pipelines check their phase
    contracts (layer structure, T-node validity, independence of base-layer
    components, ...) when ``strict=True``; a failure means the implementation
    deviated from the paper's invariants, never that the input was unlucky.
    """
