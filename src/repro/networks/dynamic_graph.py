"""The :class:`DynamicGraph` abstraction (Definition 1 of the paper).

A dynamic graph is an infinite sequence ``G = {G_0, G_1, ...}`` of graphs
over a fixed node set ``V = {0, ..., n-1}``.  This module wraps that idea
in a small class that

* is directly usable as a topology provider for
  :class:`repro.simulation.engine.SynchronousEngine` (it exposes the
  ``graph(round_no, processes)`` method),
* can be built either from a generator function (possibly infinite) or
  from an explicit finite list of graphs with a chosen extension rule,
* validates that every produced graph spans exactly the declared node
  set, per the model's "stable set of processes" assumption.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import networkx as nx

from repro.networks.csr import CSRAdjacency, EdgeArrays, EdgeCache, StackCache
from repro.simulation.errors import ModelError, TopologyError

__all__ = ["DynamicGraph"]

_EXTEND_RULES = ("hold", "cycle", "strict")


class DynamicGraph:
    """An infinite sequence of graphs over the node set ``{0..n-1}``.

    Args:
        n: Number of nodes; every round's graph must span ``{0..n-1}``.
        provider: Function mapping a round number to that round's graph.
        name: Optional human-readable description (used in reports).
        copy_on_cache: Snapshot (``graph.copy()``) each provider-built
            graph before caching it.  On by default: a provider that
            keeps a live reference to the graph it returned (and later
            mutates it) must not silently corrupt the cached round.
            :meth:`from_graphs` disables it -- the prefix is already a
            private snapshot, and reusing the *same* object across
            rounds is what lets ``edges``/``to_csr`` memoize lowering
            for ``extend="hold"``/``"cycle"`` by object identity.

    The per-round graphs are cached, so a stochastic ``provider`` is
    sampled once per round and every later inspection (property checks,
    re-runs at a different trace level) sees the same execution.
    """

    def __init__(
        self,
        n: int,
        provider: Callable[[int], nx.Graph],
        *,
        name: str = "dynamic-graph",
        copy_on_cache: bool = True,
    ) -> None:
        if n < 1:
            raise ValueError("a dynamic graph needs at least one node")
        self.n = n
        self.name = name
        self._provider = provider
        self._copy_on_cache = copy_on_cache
        self._cache: dict[int, nx.Graph] = {}
        self._edges = EdgeCache()
        self._csr = StackCache()

    @classmethod
    def from_graphs(
        cls,
        graphs: Sequence[nx.Graph],
        *,
        extend: str = "hold",
        name: str = "explicit-dynamic-graph",
    ) -> "DynamicGraph":
        """Build a dynamic graph from an explicit finite prefix.

        Args:
            graphs: The graphs of rounds ``0..len(graphs)-1``.  Every
                graph must span exactly ``{0..n-1}`` for one shared
                ``n``; anything else raises :class:`ModelError` here,
                eagerly, rather than :class:`TopologyError` at the
                first ``at()`` call.
            extend: What happens after the prefix -- ``"hold"`` repeats
                the last graph forever, ``"cycle"`` loops back to round
                0, ``"strict"`` raises :class:`TopologyError` if a round
                past the prefix is requested.
        """
        if not graphs:
            raise ModelError("need at least one graph")
        if extend not in _EXTEND_RULES:
            raise ValueError(f"extend must be one of {_EXTEND_RULES}")
        node_sets = {frozenset(graph.nodes) for graph in graphs}
        if len(node_sets) != 1:
            raise ModelError(
                "all graphs of a dynamic graph must share one node set "
                "(the process set V is static); got "
                f"{len(node_sets)} distinct node sets"
            )
        nodes = node_sets.pop()
        expected = frozenset(range(len(nodes)))
        if nodes != expected:
            raise ModelError(
                f"graph nodes must be exactly {{0..{len(nodes) - 1}}}; "
                f"unexpected labels {sorted(nodes - expected)}"
            )
        snapshot = [graph.copy() for graph in graphs]
        prefix_len = len(snapshot)

        def provider(round_no: int) -> nx.Graph:
            if round_no < prefix_len:
                return snapshot[round_no]
            if extend == "hold":
                return snapshot[-1]
            if extend == "cycle":
                return snapshot[round_no % prefix_len]
            raise TopologyError(
                f"round {round_no} requested but only rounds "
                f"0..{prefix_len - 1} are defined (extend='strict')"
            )

        return cls(len(nodes), provider, name=name, copy_on_cache=False)

    def at(self, round_no: int) -> nx.Graph:
        """Return the graph of round ``round_no`` (cached, validated)."""
        if round_no < 0:
            raise ValueError("round numbers start at 0")
        if round_no not in self._cache:
            graph = self._provider(round_no)
            nodes = set(graph.nodes)
            expected = set(range(self.n))
            if nodes != expected:
                raise TopologyError(
                    f"round {round_no}: provider produced node set of "
                    f"size {graph.number_of_nodes()}, expected "
                    f"{{0..{self.n - 1}}} (unexpected labels "
                    f"{sorted(nodes - expected)}, missing "
                    f"{sorted(expected - nodes)})"
                )
            if self._copy_on_cache:
                graph = graph.copy()
            self._cache[round_no] = graph
        return self._cache[round_no]

    def graph(self, round_no: int, processes: object = None) -> nx.Graph:
        """Topology-provider interface for the simulation engine."""
        return self.at(round_no)

    def edges(self, round_no: int) -> EdgeArrays:
        """The round's validated ``(u, v)`` edge arrays (fast backend).

        Runs the model checks (node set, self-loops) and is memoized per
        cached graph object: a provider that serves the same graph for
        many rounds (static topologies, ``extend="hold"``/``"cycle"``)
        is validated once and yields the same tuple every round.
        """
        return self._edges.edges(self.at(round_no), n=self.n)

    def to_csr(self, round_no: int) -> CSRAdjacency:
        """The round's one-lane CSR adjacency, connectivity recorded.

        Built from :meth:`edges` and memoized per edge-array tuple, so a
        held or cycled graph is lowered once, not once per round.
        """
        return self._csr.stack((self.n,), (self.edges(round_no),))

    def window(self, rounds: int) -> list[nx.Graph]:
        """Return the graphs of rounds ``0..rounds-1``."""
        return [self.at(round_no) for round_no in range(rounds)]

    def __repr__(self) -> str:
        return f"DynamicGraph(n={self.n}, name={self.name!r})"
