"""CSR-native dynamic topologies: edge arrays first, objects at the edges.

A dynamic topology here is a function ``round -> (u, v)`` *edge index
arrays*, and every view is derived from those arrays: the fast backend
stacks all lanes' arrays into one CSR adjacency per round
(:class:`repro.networks.csr.StackCache`), :meth:`CSRDynamicGraph.to_csr`
is the one-lane case, and the ``networkx`` view
(:func:`repro.networks.csr.graph_from_edges`) feeds the object engine
and the oracles.  The views share inputs but not code paths, so
``object == fast`` differential testing keeps its teeth.

:class:`CSRDynamicGraph` returns the same validated tuple for a round
while it stays cached -- which lets the stack cache serve held and
cycled rounds -- in LRU-bounded caches; :func:`precompile_schedule`
validates a finite schedule prefix once into one stacked pair of
per-round index arrays.

Edge providers must be *pure per round* (the same round always yields
the same edges), the convention every built-in family already follows;
purity is what makes bounded caching safe -- an evicted round can
simply be recomputed.
"""

from __future__ import annotations

from typing import Callable

import networkx as nx
import numpy as np

from repro.networks.csr import (
    CSRAdjacency,
    EdgeArrays,
    LRUCache,
    csr_from_edges,
    graph_from_edges,
    index_dtype_for,
    validate_edge_arrays,
)
from repro.networks.dynamic_graph import DynamicGraph
from repro.obs.metrics import counter
from repro.simulation.errors import TopologyError

__all__ = [
    "CSRDynamicGraph",
    "EdgeArrays",
    "EdgeProvider",
    "precompile_schedule",
]

EdgeProvider = Callable[[int], EdgeArrays]
"""An edge-array provider: ``round_no -> (u, v)`` index arrays."""

#: Default LRU capacity of the per-round edge/CSR caches.  Must cover
#: at least the working set of one batched execution (all lanes touch
#: the same round number before moving on), which one entry already
#: does; the slack keeps short hold/cycle prefixes fully resident.
DEFAULT_ROUND_CACHE_SIZE = 64


class CSRDynamicGraph(DynamicGraph):
    """A dynamic graph whose source of truth is per-round edge arrays.

    Drop-in :class:`~repro.networks.DynamicGraph`: the object engine
    uses the ``graph``/``at`` view (networkx graphs built lazily from
    the arrays), the fast backend stacks the ``edges`` arrays directly
    (no ``nx.Graph`` on the hot path).

    Args:
        n: Number of nodes; every edge endpoint must lie in ``{0..n-1}``.
        edge_provider: Pure function ``round -> (u, v)`` edge arrays.
            Isolated nodes need no mention -- the node set is always
            exactly ``{0..n-1}``.
        name: Human-readable description (used in reports).
        round_key: Optional canonicalisation of round numbers before the
            provider and the caches see them -- ``hold``/``cycle``
            extension rules compress an infinite round axis onto a
            finite prefix, so repeated rounds share one cache entry
            (and, for the object view, one graph object, which keeps the
            engines' per-object validation memos effective).
        cache_rounds: LRU capacity of the per-round edge and CSR caches
            (evictions are counted in ``adjacency.cache_evictions``).
    """

    def __init__(
        self,
        n: int,
        edge_provider: EdgeProvider,
        *,
        name: str = "csr-dynamic-graph",
        round_key: Callable[[int], int] | None = None,
        cache_rounds: int = DEFAULT_ROUND_CACHE_SIZE,
    ) -> None:
        def nx_provider(round_no: int) -> nx.Graph:
            # No reference to ``self``: a bound method here would make a
            # reference cycle holding every cached round until cyclic GC.
            key = round_no if round_key is None else round_key(round_no)
            return graph_from_edges(n, *edge_provider(key))

        super().__init__(n, nx_provider, name=name, copy_on_cache=False)
        self._edge_provider = edge_provider
        self._round_key = round_key
        self._edge_lru = LRUCache(cache_rounds, "adjacency.cache_evictions")
        self._csr_lru = LRUCache(cache_rounds, "adjacency.cache_evictions")
        self._nx_lru = LRUCache(cache_rounds, "adjacency.cache_evictions")

    def cache_sizes(self) -> dict[str, int]:
        """Resident entries per internal cache (diagnostics, leak tests)."""
        return {
            "edges": len(self._edge_lru),
            "csr": len(self._csr_lru),
            "graphs": len(self._nx_lru),
        }

    # -- round canonicalisation ---------------------------------------

    def _key(self, round_no: int) -> int:
        if round_no < 0:
            raise ValueError("round numbers start at 0")
        if self._round_key is None:
            return round_no
        return self._round_key(round_no)

    # -- the edge-array view ------------------------------------------

    def edges(self, round_no: int) -> EdgeArrays:
        """The round's validated ``(u, v)`` edge arrays (cached, LRU).

        Rounds that canonicalise to one key return the same tuple
        object while it stays cached.
        """
        key = self._key(round_no)
        cached = self._edge_lru.get(key)
        if cached is None:
            u, v = self._edge_provider(key)
            cached = validate_edge_arrays(self.n, u, v)
            self._edge_lru.put(key, cached)
        return cached

    # -- the CSR view (fast backend) ----------------------------------

    def to_csr(self, round_no: int) -> CSRAdjacency:
        """The round's one-lane CSR adjacency, built from edge arrays.

        Never constructs an ``nx.Graph``; validation (index range,
        self-loops) runs on the arrays and connectivity is recorded.
        Memoized per canonical round in a bounded LRU.  The fast engine
        does not call this: it stacks :meth:`edges` of all its lanes.
        """
        key = self._key(round_no)
        cached = self._csr_lru.get(key)
        if cached is None:
            u, v = self.edges(round_no)
            cached = csr_from_edges(self.n, u, v)
            self._csr_lru.put(key, cached)
        else:
            counter("adjacency.cache_hits")
        return cached

    # -- the networkx view (object engine, oracles) -------------------

    def at(self, round_no: int) -> nx.Graph:
        """The round's graph as ``networkx`` (cached per canonical round).

        Rounds that canonicalise to the same key (``hold``/``cycle``
        extensions) share one graph *object* while resident, so the
        engines' identity-keyed validation memos fire exactly as they do
        for :meth:`DynamicGraph.from_graphs` prefixes.  Unlike the base
        class, the cache is LRU-bounded: the edge provider is pure per
        round, so an evicted round rebuilds bit-identically and long
        fresh-graph-per-round runs hold O(1) graph memory on the object
        path too.
        """
        key = self._key(round_no)
        cached = self._nx_lru.get(key)
        if cached is None:
            cached = graph_from_edges(self.n, *self.edges(round_no))
            self._nx_lru.put(key, cached)
        return cached


def precompile_schedule(
    source: DynamicGraph,
    rounds: int,
    *,
    extend: str = "hold",
    name: str | None = None,
) -> CSRDynamicGraph:
    """Precompile a schedule prefix into stacked per-round index arrays.

    For schedule-driven instances -- above all the worst-case adversary,
    whose entire point is a fixed finite schedule realising the
    ``Omega(log n)`` bound -- the prefix is read and validated *once*,
    eagerly, into one pair of stacked ``(u, v)`` arrays plus per-round
    offsets; every later round is an O(1) slice whose tuple stays cached
    (the compiled graph's caches cover the whole prefix), so the fast
    engine's stack cache serves every repeated round.

    Args:
        source: The dynamic graph to compile: anything with ``n``,
            ``name`` and ``edges(round_no)`` (every
            :class:`~repro.networks.DynamicGraph` has them).
        rounds: Prefix length to compile (must be >= 1).
        extend: What happens past the prefix: ``"hold"`` repeats the
            last compiled round, ``"cycle"`` wraps to round 0,
            ``"strict"`` raises :class:`TopologyError`.
        name: Optional description; defaults to the source's name with
            a ``:precompiled`` suffix.

    Returns:
        A :class:`CSRDynamicGraph` over the same node set, serving the
        compiled prefix under the chosen extension rule.

    Raises:
        TopologyError: A prefix round has an out-of-range endpoint or a
            self-loop (or, for networkx sources, a wrong node set).
    """
    if rounds < 1:
        raise ValueError("need at least one round to precompile")
    if extend not in ("hold", "cycle", "strict"):
        raise ValueError("extend must be one of ('hold', 'cycle', 'strict')")
    n = source.n
    per_round = [
        validate_edge_arrays(n, *source.edges(round_no))
        for round_no in range(rounds)
    ]

    # One stacked edge store: contiguous (u, v) arrays sliced per round,
    # held in the policy index dtype (int32 until n reaches 2**31, with
    # offsets sized to the *total* stacked edge count).
    offsets = np.concatenate(
        ([0], np.cumsum([u.size for u, _ in per_round]))
    )
    offsets = offsets.astype(index_dtype_for(int(offsets[-1])))
    edge_dtype = index_dtype_for(n)
    u_all = np.concatenate([u for u, _ in per_round]).astype(
        edge_dtype, copy=False
    )
    v_all = np.concatenate([v for _, v in per_round]).astype(
        edge_dtype, copy=False
    )

    def round_key(round_no: int) -> int:
        if round_no < rounds:
            return round_no
        if extend == "hold":
            return rounds - 1
        if extend == "cycle":
            return round_no % rounds
        raise TopologyError(
            f"round {round_no} requested but only rounds 0..{rounds - 1} "
            "are precompiled (extend='strict')"
        )

    def provider(key: int) -> EdgeArrays:
        lo, hi = int(offsets[key]), int(offsets[key + 1])
        return u_all[lo:hi], v_all[lo:hi]

    counter("adjacency.precompiled_schedules")
    return CSRDynamicGraph(
        n,
        provider,
        name=name if name is not None else f"{source.name}:precompiled",
        round_key=round_key,
        cache_rounds=max(rounds, DEFAULT_ROUND_CACHE_SIZE),
    )
