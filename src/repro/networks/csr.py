"""CSR adjacency lowering for the vectorized simulation backend.

The object engine (:class:`repro.simulation.engine.SynchronousEngine`)
walks ``networkx`` neighbour lists per process per round -- fine for
protocol fidelity, but the Python-level loop dominates wall-clock time
on large sweeps.  The fast backend (:mod:`repro.simulation.fast`)
instead lowers each round's topology into a compressed-sparse-row
adjacency matrix so the whole receive phase becomes a single sparse
matvec (or a dense matmul for set-valued states).

There is one lowering path: validated ``(u, v)`` edge index arrays in,
CSR out.  :func:`stack_edges` builds one block-diagonal adjacency for
all lanes of a round -- a sort-based dedup, one ``bincount`` CSR build,
one connectivity traversal (:func:`lanes_connected`) -- and
:class:`StackCache` memoizes it per tuple of lane edge-array
identities.  :func:`csr_from_edges` is its
validated one-lane case; networkx graphs enter through
:func:`graph_edges` (memoized per graph object by :class:`EdgeCache`).
:func:`lower_graph` keeps networkx's own sparse export as the verify
oracle's independent path.  Both caches are LRU-bounded
(``adjacency.cache_evictions`` / ``adjacency.stack_evictions``).

Index dtype policy: every CSR index array is ``index_dtype_for`` its
largest value -- ``int32`` while node count and entry count fit,
``int64`` otherwise.  Dedup keys ``u * n + v`` live in the narrowest
dtype of their key space (:func:`edge_keys`): ``int32`` up to 46340
nodes, ``int64`` above, and a stack too large for ``int32`` keys is
keyed lane by lane, so no key ever spans the whole stack.

A compiled receive-phase kernel may be installed process-wide with
:func:`set_matvec_kernel` (see :mod:`repro.simulation.jit`);
:meth:`CSRAdjacency.matvec` consults it for the 1-D float64 hot path
and otherwise falls back to the scipy matvec.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from itertools import accumulate
from typing import Hashable, Sequence

import networkx as nx
import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components

from repro.obs.metrics import counter
from repro.simulation.errors import TopologyError

__all__ = [
    "CSRAdjacency",
    "EdgeArrays",
    "EdgeCache",
    "LRUCache",
    "StackCache",
    "csr_from_edges",
    "edge_keys",
    "first_disconnected_lane",
    "graph_edges",
    "graph_from_edges",
    "index_dtype_for",
    "lanes_connected",
    "lower_graph",
    "matvec_kernel",
    "set_matvec_kernel",
    "stack_edges",
    "validate_edge_arrays",
]

EdgeArrays = tuple[np.ndarray, np.ndarray]
"""Type alias: a ``(u, v)`` pair of edge index arrays."""

#: Default LRU capacity of :class:`EdgeCache`.  Large enough that
#: every realistic batch of held/cycled topologies stays fully cached,
#: small enough that a fresh-graph-per-round run holds O(1) memory.
DEFAULT_EDGE_CACHE_SIZE = 128

#: Default LRU capacity of :class:`StackCache`.  Lane combinations
#: change at most once per round, so a handful of entries suffice.
DEFAULT_STACK_CACHE_SIZE = 32

#: First value that no longer fits an ``int32`` index.
INT32_LIMIT = 2**31


def index_dtype_for(n: int) -> np.dtype:
    """The narrowest index dtype able to hold values in ``[-1, n]``.

    The single dtype-policy chokepoint for every CSR index array,
    lane-offset array, and engine accumulator: ``int32`` while ``n``
    fits (halving index memory on mega-scale lanes), ``int64`` past
    ``2**31 - 1``.  Callers must size ``n`` to the *largest value
    stored* -- for a CSR matrix that is ``max(n_nodes, nnz)`` because
    ``indptr`` ends at ``nnz``.
    """
    return np.dtype(np.int32 if n < INT32_LIMIT else np.int64)


#: Optional compiled receive-phase kernel, installed process-wide by
#: :mod:`repro.simulation.jit`.  Signature:
#: ``kernel(indptr, indices, x, out)`` summing ``x`` over each row's
#: neighbours into ``out`` (unit edge weights are a class invariant of
#: every adjacency built by this module).
_MATVEC_KERNEL = None


def set_matvec_kernel(kernel) -> None:
    """Install (or clear, with ``None``) the compiled matvec kernel."""
    global _MATVEC_KERNEL
    _MATVEC_KERNEL = kernel


def matvec_kernel():
    """The currently installed compiled matvec kernel, if any."""
    return _MATVEC_KERNEL


class CSRAdjacency:
    """One round's communication graph in CSR form.

    Wraps a symmetric ``scipy.sparse`` CSR matrix with unit weights.
    Instances are produced by :func:`stack_edges` (one or more lanes on
    the block diagonal) or :func:`lower_graph` and treated as immutable.

    Attributes:
        n: Number of nodes (the matrix is ``n x n``).
        matrix: The underlying ``scipy.sparse`` CSR array (float64).
        connected: Whether every lane is connected -- for a one-lane
            adjacency, whether its graph is; ``None`` when the build
            did not check.
    """

    __slots__ = ("n", "matrix", "connected", "_degrees")

    def __init__(
        self, matrix: sp.csr_array, *, connected: bool | None
    ) -> None:
        self.n = int(matrix.shape[0])
        self.matrix = matrix
        self.connected = connected
        self._degrees: np.ndarray | None = None

    @property
    def degrees(self) -> np.ndarray:
        """Per-node degree vector (cached)."""
        if self._degrees is None:
            self._degrees = np.diff(self.matrix.indptr).astype(np.int64)
        return self._degrees

    @property
    def edges(self) -> int:
        """Number of undirected edges."""
        return int(self.matrix.nnz) // 2

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x``: per-node sum of the neighbours' values.

        Dispatches to the compiled receive-phase kernel when one is
        installed (:func:`set_matvec_kernel`) and ``x`` is the 1-D
        float64 hot path; otherwise the scipy matvec.  Both paths sum
        neighbour values in CSR index order, so results are identical.
        """
        kernel = _MATVEC_KERNEL
        if kernel is not None and x.ndim == 1 and x.dtype == np.float64:
            out = np.empty(self.n, dtype=np.float64)
            kernel(
                self.matrix.indptr,
                self.matrix.indices,
                np.ascontiguousarray(x),
                out,
            )
            counter("adjacency.jit_matvecs")
            return out
        return self.matrix @ x

    def matmul(self, X: np.ndarray) -> np.ndarray:
        """``A @ X`` for a dense per-node state matrix ``X``."""
        return self.matrix @ X

    def __repr__(self) -> str:
        return (
            f"CSRAdjacency(n={self.n}, edges={self.edges}, "
            f"connected={self.connected})"
        )


def _check_graph(graph: nx.Graph, n: int | None) -> int:
    """The engine's model checks on an ``nx.Graph``; returns its ``n``.

    The node set must be exactly ``{0, ..., n-1}`` and no edge may be a
    self-loop (a process is never its own neighbour).
    """
    expected = graph.number_of_nodes() if n is None else n
    if graph.number_of_nodes() != expected or set(graph.nodes) != set(
        range(expected)
    ):
        raise TopologyError(
            f"graph nodes {sorted(graph.nodes)[:10]}... do not match the "
            f"process indices 0..{expected - 1}"
        )
    loops = [node for node, _ in nx.selfloop_edges(graph)]
    if loops:
        raise TopologyError(
            f"self-loop at node(s) {sorted(loops)[:10]}; a process is "
            "never its own neighbour"
        )
    return expected


def lower_graph(graph: nx.Graph, *, n: int | None = None) -> CSRAdjacency:
    """Lower one ``nx.Graph`` to a validated :class:`CSRAdjacency`.

    The independent oracle path: ``networkx``'s own sparse export, not
    the edge-array build the engines use.  Performs the engine's model
    checks once, at lowering time:

    * the node set must be exactly ``{0, ..., n-1}``,
    * self-loops are rejected (a process is never its own neighbour),
    * connectivity is computed and recorded (callers enforce the
      1-interval connectivity assumption against ``.connected``).

    Args:
        graph: The round's communication graph.
        n: Expected node count; defaults to ``graph.number_of_nodes()``.

    Raises:
        TopologyError: Node set mismatch or self-loop.
    """
    expected = _check_graph(graph, n)
    matrix = nx.to_scipy_sparse_array(
        graph, nodelist=range(expected), dtype=np.float64, format="csr"
    )
    dtype = index_dtype_for(max(expected, matrix.nnz))
    matrix.indices = matrix.indices.astype(dtype, copy=False)
    matrix.indptr = matrix.indptr.astype(dtype, copy=False)
    connected = expected <= 1 or (
        connected_components(matrix, directed=False, return_labels=False) == 1
    )
    counter("adjacency.builds")
    return CSRAdjacency(matrix, connected=bool(connected))


def graph_edges(graph: nx.Graph, *, n: int | None = None) -> EdgeArrays:
    """The validated ``(u, v)`` edge arrays of an ``nx.Graph``.

    Runs :func:`lower_graph`'s node-set and self-loop checks, then hands
    the graph's edges to the one edge-array lowering path.  Edge data
    (weights) is ignored: every adjacency has unit weights.
    """
    expected = _check_graph(graph, n)
    pairs = np.array(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
    counter("adjacency.builds")
    return validate_edge_arrays(expected, pairs[:, 0], pairs[:, 1])


def validate_edge_arrays(
    n: int, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate ``(u, v)`` edge index arrays against the engine's model.

    The array analogue of the checks :func:`lower_graph` performs on an
    ``nx.Graph``: endpoints must lie in ``{0..n-1}`` and no edge may be
    a self-loop.  Returns the arrays coerced to 1-D
    ``index_dtype_for(n)`` (``int32`` for every realistic ``n``).

    Raises:
        TopologyError: Endpoint out of range, self-loop, or shape
            mismatch between the two arrays.
    """
    # Validate in int64 (narrowing first would wrap out-of-range
    # endpoints past the range check), store in the policy dtype.
    u = np.asarray(u, dtype=np.int64).reshape(-1)
    v = np.asarray(v, dtype=np.int64).reshape(-1)
    if u.shape != v.shape:
        raise TopologyError(
            f"edge arrays disagree in length ({u.size} vs {v.size})"
        )
    if u.size:
        lo = min(int(u.min()), int(v.min()))
        hi = max(int(u.max()), int(v.max()))
        if lo < 0 or hi >= n:
            raise TopologyError(
                f"edge endpoint {lo if lo < 0 else hi} outside the "
                f"process indices 0..{n - 1}"
            )
        loops = np.flatnonzero(u == v)
        if loops.size:
            where = sorted(set(u[loops][:10].tolist()))
            raise TopologyError(
                f"self-loop at node(s) {where}; a process is never its "
                "own neighbour"
            )
    dtype = index_dtype_for(n)
    return u.astype(dtype, copy=False), v.astype(dtype, copy=False)


def edge_keys(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``rows * n + cols`` as pair keys of one ``n``-node key space.

    Sorting the keys sorts the entries by row, then column: CSR order.
    Keys are ``int32`` while every key fits (``n <= 46340``, so that
    ``n * n - 1 < 2**31``) and ``int64`` above that.

    Raises:
        ValueError: ``n**2`` does not fit ``int64``, so a key could
            wrap silently.
    """
    if n * n >= 2**63:
        raise ValueError(
            f"a lane of {n} nodes overflows the int64 pair keys "
            "(n**2 >= 2**63)"
        )
    # The largest key is n * n - 1.
    dtype = np.int32 if n * n <= INT32_LIMIT else np.int64
    return rows.astype(dtype, copy=False) * n + cols.astype(dtype, copy=False)


def _entries(
    n: int, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric, deduplicated ``(rows, cols)`` of ``n`` nodes, CSR order.

    Both orientations of every edge are keyed, sorted once, and
    duplicates dropped by an adjacent-difference mask.
    """
    keys = edge_keys(n, np.concatenate((u, v)), np.concatenate((v, u)))
    keys.sort()
    if keys.size > 1:
        fresh = keys[1:] != keys[:-1]
        if not fresh.all():
            keys = keys[np.concatenate(([True], fresh))]
    rows = keys // n
    return rows, keys - rows * n


def _stacked_pairs(
    sizes: Sequence[int], edges: Sequence[EdgeArrays]
) -> EdgeArrays:
    """Every lane's edges on the stacked node axis, as one pair.

    Only called while the stacked node ids fit ``int32``, so the
    offsets take the edges' own dtype and ``int32`` stays ``int32``.
    """
    if len(edges) == 1:
        return edges[0]
    u = np.concatenate([lane_u for lane_u, _ in edges])
    v = np.concatenate([lane_v for _, lane_v in edges])
    shift = np.repeat(
        np.fromiter(accumulate(sizes[:-1], initial=0), u.dtype, len(sizes)),
        [lane_u.size for lane_u, _ in edges],
    )
    return u + shift, v + shift


def _lane_local_entries(
    total: int, sizes: Sequence[int], edges: Sequence[EdgeArrays]
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked columns and per-row counts, deduplicated lane by lane.

    Each lane is keyed in its own ``n * n`` space and its columns are
    shifted by the lane offset straight into the stacked index array,
    allocated once in the policy dtype.
    """
    lanes = [_entries(n, u, v) for n, (u, v) in zip(sizes, edges)]
    nnz = sum(lane_cols.size for _, lane_cols in lanes)
    dtype = index_dtype_for(max(total, nnz))
    cols = np.empty(nnz, dtype=dtype)
    counts = np.empty(total, dtype=np.int64)
    end = 0
    starts = accumulate(sizes, initial=0)
    for (lane_rows, lane_cols), n, at in zip(lanes, sizes, starts):
        start, end = end, end + lane_cols.size
        np.add(lane_cols, dtype.type(at), out=cols[start:end])
        counts[at : at + n] = np.bincount(lane_rows, minlength=n)
    return cols, counts


def stack_edges(
    sizes: Sequence[int],
    edges: Sequence[EdgeArrays],
    *,
    check_connected: bool = True,
) -> CSRAdjacency:
    """One CSR adjacency for independent lanes, on the block diagonal.

    Lane ``i``'s validated ``(u, v)`` arrays are offset by the sizes of
    the lanes before it, so one matvec on the result is exactly the
    per-lane matvecs fused.  Edges are undirected; duplicates in either
    orientation collapse to one edge, matching ``nx.Graph`` semantics.

    Dedup keys live in the narrowest key space that holds them
    (:func:`edge_keys`).  A one-lane stack, or one whose ``total**2``
    fits ``int32``, is keyed and sorted as a whole, so many small lanes
    cost one sort; a larger stack keys and sorts each lane in its own
    ``n * n`` space and shifts columns by the lane offset afterwards,
    so no ``total**2`` key is ever formed.

    With ``check_connected``, ``.connected`` records whether every lane
    is connected, found by the one bridged breadth-first traversal of
    :func:`lanes_connected`.  Otherwise ``.connected`` is None.
    """
    if not sizes or len(sizes) != len(edges):
        raise ValueError(
            f"need one edge-array pair per lane, got {len(edges)} for "
            f"{len(sizes)} lane(s)"
        )
    total = int(sum(sizes))
    if len(sizes) > 1 and total * total > INT32_LIMIT:
        cols, counts = _lane_local_entries(total, sizes, edges)
    else:
        rows, cols = _entries(total, *_stacked_pairs(sizes, edges))
        counts = np.bincount(rows, minlength=total)
    dtype = index_dtype_for(max(total, cols.size))
    indptr = np.zeros(total + 1, dtype=dtype)
    np.cumsum(counts, out=indptr[1:])
    matrix = sp.csr_array(
        (np.ones(cols.size), cols.astype(dtype, copy=False), indptr),
        shape=(total, total),
    )
    connected = lanes_connected(matrix, sizes) if check_connected else None
    counter("adjacency.native_builds", len(sizes))
    return CSRAdjacency(matrix, connected=connected)


def lanes_connected(matrix: sp.csr_array, sizes: Sequence[int]) -> bool:
    """Whether every lane of a block-diagonal stack is connected.

    One breadth-first traversal from node 0 over the stacked pattern
    plus one forward *bridge* entry per lane boundary: node 0 points to
    the first node of every later non-empty lane.  Bridges only point
    forward, into first nodes, so a path enters a lane only through its
    first node; the traversal reaches all ``total`` nodes exactly when
    every lane is connected.  Node 0's own columns all lie in its lane,
    below every bridge, so the bridges extend its row in CSR
    order: one concatenation, and every later row pointer moves by the
    bridge count.  The bridges live in that copy of the pattern, never
    in ``matrix``; a one-lane stack needs none.
    """
    total = matrix.shape[0]
    if total <= 1:
        return True
    firsts, at = [], 0
    for size in sizes:
        if size and at:
            firsts.append(at)
        at += size
    if firsts:
        indptr, indices = matrix.indptr, matrix.indices
        head = indptr[1]
        # scipy's traversal needs one index dtype for both arrays.
        dtype = np.promote_types(
            indices.dtype, index_dtype_for(indices.size + len(firsts))
        )
        bridged = np.concatenate(
            (indices[:head], firsts, indices[head:]), dtype=dtype
        )
        pointers = np.add(indptr, len(firsts), dtype=dtype)
        pointers[0] = 0
        # A shallow copy with the pattern swapped: same shape, rows
        # still sorted and duplicate-free, so scipy's validating
        # constructor (~15 us, most of a tiny stack's traversal) is
        # skipped.  The traversal reads the pattern only: stride-0
        # unit weights.
        matrix = copy.copy(matrix)
        matrix.indices, matrix.indptr = bridged, pointers
        matrix.data = np.broadcast_to(1.0, bridged.shape)
    reached = breadth_first_order(
        matrix, 0, directed=True, return_predecessors=False
    )
    return bool(reached.size == total)


def first_disconnected_lane(
    adjacency: CSRAdjacency, sizes: Sequence[int]
) -> int | None:
    """The first lane whose nodes carry more than one component label.

    The failure path of :func:`stack_edges`' connectivity check, so the
    labels are computed only once a stack is known to be disconnected.
    """
    _, labels = connected_components(
        adjacency.matrix, directed=True, connection="strong"
    )
    start = 0
    for lane, size in enumerate(sizes):
        block = labels[start : start + size]
        if block.size and (block != block[0]).any():
            return lane
        start += size
    return None


def csr_from_edges(n: int, u: np.ndarray, v: np.ndarray) -> CSRAdjacency:
    """The validated one-lane case of :func:`stack_edges`.

    Duplicate edges (in either orientation) collapse, so generators may
    emit a mandatory backbone plus independently sampled extras without
    deduplicating first.

    Raises:
        TopologyError: Endpoint out of range or self-loop.
    """
    adjacency = stack_edges([n], [validate_edge_arrays(n, u, v)])
    counter("adjacency.builds")
    return adjacency


def graph_from_edges(n: int, u: np.ndarray, v: np.ndarray) -> nx.Graph:
    """The ``networkx`` oracle view of the same ``(u, v)`` edge arrays.

    Used by the object engine and the verification oracles; the fast
    backend never calls this.  Runs the same validation as
    :func:`csr_from_edges`, so the two views are built from identical
    inputs through independent code paths.
    """
    u, v = validate_edge_arrays(n, u, v)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(zip(u.tolist(), v.tolist()))
    return graph


class LRUCache:
    """A small bounded mapping with LRU eviction and an eviction counter.

    The shared bounding mechanism of :class:`EdgeCache`,
    :class:`StackCache`, and the per-round caches of
    :class:`repro.networks.csr_native.CSRDynamicGraph`.  Every eviction
    increments ``evict_metric`` so unbounded-growth regressions are
    observable in any metrics snapshot.
    """

    def __init__(self, maxsize: int, evict_metric: str) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be at least 1")
        self.maxsize = maxsize
        self._evict_metric = evict_metric
        self._data: OrderedDict[Hashable, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable) -> object | None:
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: object) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            counter(self._evict_metric)

    def clear(self) -> None:
        self._data.clear()


class EdgeCache:
    """Memoize :func:`graph_edges` per graph *object*, LRU-bounded.

    Keys are object identities; each live entry holds its graph, so an
    id cannot be reused while its entry lives, and the ``cached[0] is
    graph`` guard makes a reused id after eviction a plain miss.  A
    graph served for many rounds (``extend="hold"``/``"cycle"``, static
    topologies) is validated once and yields the same tuple every round,
    so its stacked adjacency is a :class:`StackCache` hit too.  Mutating
    a graph after it has been seen is unsupported.
    """

    def __init__(self, maxsize: int = DEFAULT_EDGE_CACHE_SIZE) -> None:
        self._lru = LRUCache(maxsize, "adjacency.cache_evictions")

    def __len__(self) -> int:
        return len(self._lru)

    def clear(self) -> None:
        """Drop every entry (per-run scoping for long-lived caches)."""
        self._lru.clear()

    def edges(self, graph: nx.Graph, *, n: int | None = None) -> EdgeArrays:
        """The memoized validated edge arrays of ``graph``."""
        cached = self._lru.get(id(graph))
        if cached is not None and cached[0] is graph:
            counter("adjacency.cache_hits")
            return cached[1]
        edges = graph_edges(graph, n=n)
        self._lru.put(id(graph), (graph, edges))
        return edges


class StackCache:
    """Memoize :func:`stack_edges` per lane sizes and edge-array tuple
    identities, LRU-bounded.

    On static, ``hold`` or ``cycle`` dynamics the lanes' edge sources
    return the same cached ``(u, v)`` tuples, so each distinct stack is
    built and connectivity-checked once; fresh-graph-per-round entries
    are evicted (``adjacency.stack_evictions``).  Entries hold their
    edge tuples, so an id in a live key is never reused by another.
    """

    def __init__(
        self,
        *,
        check_connected: bool = True,
        maxsize: int = DEFAULT_STACK_CACHE_SIZE,
    ) -> None:
        self.check_connected = check_connected
        self._lru = LRUCache(maxsize, "adjacency.stack_evictions")

    def __len__(self) -> int:
        return len(self._lru)

    def clear(self) -> None:
        """Drop every entry (per-run scoping for long-lived caches)."""
        self._lru.clear()

    def stack(
        self, sizes: tuple[int, ...], edges: Sequence[EdgeArrays]
    ) -> CSRAdjacency:
        """The stacked adjacency of ``edges`` over lanes of ``sizes``."""
        key = (sizes, tuple(map(id, edges)))
        cached = self._lru.get(key)
        if cached is not None:
            kept, stacked = cached
            if all(a is b for a, b in zip(kept, edges)):
                counter("adjacency.stack_hits")
                return stacked
        stacked = stack_edges(
            sizes, edges, check_connected=self.check_connected
        )
        counter("adjacency.stack_builds")
        self._lru.put(key, (tuple(edges), stacked))
        return stacked
