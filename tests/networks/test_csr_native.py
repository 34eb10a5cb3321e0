"""Tests for CSR-native dynamic topologies (repro.networks.csr_native).

Covers the edge-array provider protocol (:class:`CSRDynamicGraph`),
precompiled schedules, the CSR view == networkx view equivalence for
every CSR-native family, object == fast differential runs on top of
them, and the bounded-memory contract for long fresh-graph-per-round
simulations.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.adversaries.worst_case import worst_case_pd2_network
from repro.core.counting.flooding import (
    flood_time_via_protocol,
    flood_times_batch,
)
from repro.core.counting.gossip import gossip_size_estimates
from repro.networks import CSRDynamicGraph, precompile_schedule
from repro.networks.csr import (
    csr_from_edges,
    edge_keys,
    first_disconnected_lane,
    graph_from_edges,
    index_dtype_for,
    lanes_connected,
    lower_graph,
    stack_edges,
)
from repro.networks.csr_native import DEFAULT_ROUND_CACHE_SIZE
from repro.networks.generators.markov import edge_markov_network
from repro.networks.generators.pd import random_pd_network
from repro.networks.generators.random_dynamic import (
    RandomConnectedAdversary,
    random_connected_edges,
)
from repro.networks.generators.t_interval import t_interval_network
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.simulation.errors import TopologyError
from repro.verify.strategies import isolate_node


def ring_provider(n):
    def provider(round_no):
        u = np.arange(n, dtype=np.int64)
        return u, (u + 1) % n

    return provider


def family_networks(seed=5):
    """One instance per CSR-native family, labelled for test ids."""
    return {
        "arbitrary": RandomConnectedAdversary(
            11, seed=seed
        ).as_dynamic_graph(),
        "t-interval": t_interval_network(10, 3, seed=seed),
        "markov": edge_markov_network(12, seed=seed),
        "pd": random_pd_network(
            [3, 4, 2], seed=seed, extra_edge_p=0.3, intra_layer_p=0.2
        )[0],
        "worst-case-precompiled": worst_case_pd2_network(
            6, precompiled=True
        )[0],
    }


class TestCSRDynamicGraph:
    def test_csr_matches_networkx_view(self):
        network = CSRDynamicGraph(5, ring_provider(5))
        for round_no in range(3):
            dense = network.to_csr(round_no).matrix.toarray()
            reference = nx.to_numpy_array(
                network.at(round_no), nodelist=range(5)
            )
            assert np.array_equal(dense, reference)

    def test_edges_and_csr_are_memoized(self):
        network = CSRDynamicGraph(6, ring_provider(6))
        assert network.edges(2) is network.edges(2)
        assert network.to_csr(2) is network.to_csr(2)
        assert network.at(2) is network.at(2)

    def test_negative_round_rejected(self):
        network = CSRDynamicGraph(4, ring_provider(4))
        with pytest.raises(ValueError, match="start at 0"):
            network.to_csr(-1)

    def test_out_of_range_endpoint_rejected(self):
        def provider(round_no):
            return np.array([0, 9]), np.array([1, 2])

        with pytest.raises(TopologyError, match="outside"):
            CSRDynamicGraph(4, provider).to_csr(0)

    def test_self_loop_rejected(self):
        def provider(round_no):
            return np.array([0, 2]), np.array([1, 2])

        with pytest.raises(TopologyError, match="self-loop"):
            CSRDynamicGraph(4, provider).to_csr(0)

    def test_mismatched_lengths_rejected(self):
        def provider(round_no):
            return np.array([0, 1]), np.array([1])

        with pytest.raises(TopologyError, match="length"):
            CSRDynamicGraph(4, provider).edges(0)

    def test_duplicate_and_reversed_edges_collapse(self):
        def provider(round_no):
            return np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1])

        adjacency = CSRDynamicGraph(3, provider).to_csr(0)
        assert adjacency.edges == 2
        assert adjacency.connected

    def test_round_caches_are_bounded(self):
        network = RandomConnectedAdversary(8, seed=1).as_dynamic_graph()
        for round_no in range(3 * DEFAULT_ROUND_CACHE_SIZE):
            network.to_csr(round_no)
            network.at(round_no)
        assert all(
            size <= DEFAULT_ROUND_CACHE_SIZE
            for size in network.cache_sizes().values()
        )

    def test_eviction_counter_increments(self):
        registry = MetricsRegistry()
        network = CSRDynamicGraph(5, ring_provider(5), cache_rounds=2)
        with use_registry(registry):
            for round_no in range(6):
                network.to_csr(round_no)
        counters = registry.snapshot()["counters"]
        assert counters["adjacency.cache_evictions"] >= 4


class TestPrecompiledSchedules:
    def source(self, n=6, seed=3):
        def provider(round_no):
            return random_connected_edges(
                n, np.random.default_rng([seed, round_no]), extra_edge_p=0.2
            )

        return CSRDynamicGraph(n, provider, name="source")

    def test_prefix_matches_source(self):
        source = self.source()
        compiled = precompile_schedule(source, 4)
        for round_no in range(4):
            assert np.array_equal(
                compiled.to_csr(round_no).matrix.toarray(),
                source.to_csr(round_no).matrix.toarray(),
            )

    def test_hold_repeats_last_round(self):
        compiled = precompile_schedule(self.source(), 3, extend="hold")
        last = compiled.to_csr(2)
        assert compiled.to_csr(7) is last
        assert compiled.at(9) is compiled.at(2)

    def test_cycle_wraps(self):
        source = self.source()
        compiled = precompile_schedule(source, 3, extend="cycle")
        assert compiled.to_csr(4) is compiled.to_csr(1)
        assert np.array_equal(
            compiled.to_csr(5).matrix.toarray(),
            source.to_csr(2).matrix.toarray(),
        )

    def test_strict_raises_past_prefix(self):
        compiled = precompile_schedule(self.source(), 3, extend="strict")
        compiled.to_csr(2)
        with pytest.raises(TopologyError, match="precompiled"):
            compiled.to_csr(3)

    def test_non_native_source_supported(self):
        from repro.networks.dynamic_graph import DynamicGraph

        graphs = [nx.path_graph(4), nx.cycle_graph(4)]
        source = DynamicGraph.from_graphs(graphs)
        compiled = precompile_schedule(source, 2)
        for round_no in range(2):
            assert np.array_equal(
                compiled.to_csr(round_no).matrix.toarray(),
                nx.to_numpy_array(graphs[round_no], nodelist=range(4)),
            )

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one round"):
            precompile_schedule(self.source(), 0)
        with pytest.raises(ValueError, match="extend"):
            precompile_schedule(self.source(), 2, extend="loop")

    def test_schedule_counter(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            precompile_schedule(self.source(), 2)
        counters = registry.snapshot()["counters"]
        assert counters["adjacency.precompiled_schedules"] == 1
        # Validation is eager, CSR lowering is not: the fast engine
        # stacks the compiled edge arrays itself.
        assert "adjacency.native_builds" not in counters

    def test_invalid_prefix_rejected_eagerly(self):
        def provider(round_no):
            if round_no == 1:
                return np.array([0, 2]), np.array([1, 2])  # self-loop
            return np.array([0, 1]), np.array([1, 2])

        with pytest.raises(TopologyError, match="self-loop"):
            precompile_schedule(CSRDynamicGraph(3, provider), 3)


class TestFamilyEquivalence:
    @pytest.mark.parametrize("family", sorted(family_networks()))
    def test_native_csr_equals_networkx(self, family):
        network = family_networks()[family]
        for round_no in range(6):
            adjacency = network.to_csr(round_no)
            graph = network.at(round_no)
            reference = nx.to_numpy_array(graph, nodelist=range(network.n))
            assert np.array_equal(adjacency.matrix.toarray(), reference)
            assert adjacency.connected == nx.is_connected(graph)
            assert np.array_equal(adjacency.degrees, reference.sum(axis=1))

    @pytest.mark.parametrize("family", sorted(family_networks()))
    def test_object_and_fast_backends_agree(self, family):
        object_rounds = flood_time_via_protocol(family_networks()[family], 0)
        fast_rounds = flood_time_via_protocol(
            family_networks()[family], 0, backend="fast"
        )
        assert object_rounds == fast_rounds

    def test_precompiled_worst_case_equals_plain(self):
        plain, _layout = worst_case_pd2_network(7)
        compiled, _layout = worst_case_pd2_network(7, precompiled=True)
        for round_no in range(10):
            assert np.array_equal(
                compiled.to_csr(round_no).matrix.toarray(),
                nx.to_numpy_array(plain.at(round_no), nodelist=range(plain.n)),
            )


def block_diag_reference(sizes, edges):
    """The per-lane lowering the stacked build replaces, rebuilt here.

    Each lane is lowered on its own -- once through ``csr_from_edges``
    and once through the networkx export -- and the lanes are copied
    onto the block diagonal by ``scipy.sparse.block_diag``.
    """
    per_lane = [csr_from_edges(n, u, v).matrix for n, (u, v) in zip(sizes, edges)]
    via_nx = [
        lower_graph(graph_from_edges(n, u, v)).matrix
        for n, (u, v) in zip(sizes, edges)
    ]
    for mine, theirs in zip(per_lane, via_nx):
        assert np.array_equal(mine.indptr, theirs.indptr)
        assert np.array_equal(mine.indices, theirs.indices)
    return sp.block_diag(per_lane, format="csr")


def int64_key_reference(sizes, edges):
    """The stack-wide ``int64``-key build that lane-local keys replace.

    Every edge of every lane, shifted onto the stacked node axis, keyed
    as ``row * total + col`` in ``int64`` and deduplicated by
    ``np.unique``; returns ``(indptr, indices)`` as ``int64``.
    """
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    total = int(offsets[-1])
    u = np.concatenate(
        [np.asarray(u, np.int64) + at for (u, _), at in zip(edges, offsets)]
    )
    v = np.concatenate(
        [np.asarray(v, np.int64) + at for (_, v), at in zip(edges, offsets)]
    )
    keys = np.unique(np.concatenate((u * total + v, v * total + u)))
    rows = keys // total
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=total))))
    return indptr, keys - rows * total


def assert_matches_int64_reference(sizes, edges):
    adjacency = stack_edges(sizes, edges)
    stacked = adjacency.matrix
    indptr, indices = int64_key_reference(sizes, edges)
    assert np.array_equal(stacked.indptr, indptr)
    assert np.array_equal(stacked.indices, indices)
    dtype = index_dtype_for(max(sum(sizes), indices.size))
    assert stacked.indptr.dtype == stacked.indices.dtype == dtype
    assert np.all(stacked.data == 1.0)
    return adjacency


def assert_matches_reference(sizes, edges):
    stacked = assert_matches_int64_reference(sizes, edges).matrix
    reference = block_diag_reference(sizes, edges)
    assert np.array_equal(stacked.indptr, reference.indptr)
    assert np.array_equal(stacked.indices, reference.indices)


class TestStackedBuild:
    """One stacked build per round == per-lane lowering + block_diag."""

    @pytest.mark.parametrize("seed", [5, 6])
    def test_every_family_in_one_stack(self, seed):
        networks = list(family_networks(seed).values())
        sizes = [network.n for network in networks]
        for round_no in range(6):
            assert_matches_reference(
                sizes, [network.edges(round_no) for network in networks]
            )

    def test_duplicate_edges_in_both_orientations(self):
        sizes = [9, 14, 6]
        edges = []
        for n in sizes:
            u, v = RandomConnectedAdversary(
                n, seed=n, extra_edge_p=0.4
            ).edges(0)
            # Every edge once more, reversed, plus the extras again.
            edges.append(
                (np.concatenate([u, v, u]), np.concatenate([v, u, v]))
            )
        assert_matches_reference(sizes, edges)

    def test_mixed_lane_sizes_including_singletons(self):
        sizes = [1, 7, 1, 12, 2, 1]
        edges = [
            RandomConnectedAdversary(n, seed=3, extra_edge_p=0.3).edges(2)
            for n in sizes
        ]
        assert_matches_reference(sizes, edges)
        stacked = stack_edges(sizes, edges)
        assert stacked.connected is True
        assert stacked.n == sum(sizes)

    def test_disconnected_lane_recorded(self):
        ring = ring_provider(4)(0)
        split = (np.array([0, 2]), np.array([1, 3]))
        assert stack_edges([4, 4, 4], [ring, split, ring]).connected is False
        assert stack_edges([4, 4], [ring, ring]).connected is True
        unchecked = stack_edges([4, 4], [ring, split], check_connected=False)
        assert unchecked.connected is None

    def test_key_overflow_guard(self):
        # total**2 must fit int64; the guard fires before any key is
        # formed, so no node arrays of that size are ever allocated.
        rows, cols = np.array([0, 1]), np.array([1, 0])
        largest = 3_037_000_499  # largest total with total**2 < 2**63
        keys = edge_keys(largest, rows, cols)
        assert keys.dtype == np.int64
        assert keys.tolist() == [1, largest]
        assert (largest - 1) * largest + (largest - 1) < 2**63
        with pytest.raises(ValueError, match="overflows the int64"):
            edge_keys(largest + 1, rows, cols)
        with pytest.raises(ValueError, match="overflows the int64"):
            edge_keys(2**32, rows, cols)


def doubled(edges):
    """Every edge once more in each orientation."""
    u, v = edges
    return np.concatenate([u, v, u]), np.concatenate([v, u, v])


def tree_lanes(sizes, seed, extra_edge_p=0.0):
    return [
        RandomConnectedAdversary(
            n, seed=seed + lane, extra_edge_p=extra_edge_p
        ).edges(0)
        for lane, n in enumerate(sizes)
    ]


class TestLaneLocalKeys:
    """Stacks past 46340 nodes key each lane in its own ``n * n`` space."""

    @pytest.mark.parametrize("n", [46340, 46341])
    def test_key_dtype_boundary(self, n):
        rows, cols = np.array([n - 1, 0]), np.array([n - 2, n - 1])
        keys = edge_keys(n, rows, cols)
        assert keys.dtype == (np.int32 if n == 46340 else np.int64)
        assert keys.tolist() == [n * n - 2, n - 1]

    @pytest.mark.parametrize("n", [46340, 46341])
    def test_lanes_either_side_of_the_boundary(self, n):
        # A path plus its long chord, doubled: the largest key in use is
        # (n-1)*n + (n-2), one below the key space.
        u = np.concatenate((np.arange(n - 1), [0]))
        v = np.concatenate((np.arange(1, n), [n - 1]))
        edges = doubled((u, v))
        assert_matches_int64_reference([n], [edges])
        assert_matches_int64_reference(
            [3, n, 1], [ring_provider(3)(0), edges, (u[:0], v[:0])]
        )

    def test_every_family_with_a_lane_past_the_boundary(self):
        networks = list(family_networks(7).values())
        sizes = [network.n for network in networks] + [46341]
        for round_no in range(3):
            edges = [network.edges(round_no) for network in networks]
            edges.append(tree_lanes([46341], seed=round_no)[0])
            assert_matches_int64_reference(sizes, edges)

    def test_mixed_sizes_duplicates_and_singletons(self):
        sizes = [1, 23_000, 1, 7, 24_000, 2, 1]
        rng = np.random.default_rng(11)
        edges = []
        for n, (u, v) in zip(sizes, tree_lanes(sizes, 11)):
            # Random chords on top of the tree, then everything doubled.
            a, b = rng.integers(0, n, size=(2, n // 10))
            chord = a != b
            u = np.concatenate((u, a[chord])).astype(np.int32)
            v = np.concatenate((v, b[chord])).astype(np.int32)
            edges.append(doubled((u, v)))
        stacked = assert_matches_int64_reference(sizes, edges)
        assert stacked.connected is True
        assert stacked.edges == sum(
            nx.number_of_edges(graph_from_edges(n, *lane))
            for n, lane in zip(sizes, edges)
        )


class TestBridgedConnectivity:
    """One traversal over the stack plus node 0's bridges to every lane."""

    @staticmethod
    def _stack_64x5(seed):
        rng = np.random.default_rng(seed)
        sizes = [5] * 64
        edges = tree_lanes(sizes, seed, extra_edge_p=0.3)
        cut = rng.choice(64, size=rng.integers(0, 4), replace=False)
        for lane in cut.tolist():
            edges[lane] = isolate_node(*edges[lane], int(rng.integers(0, 5)))
        return sizes, edges, sorted(cut.tolist())

    @pytest.mark.parametrize("seed", range(12))
    def test_verdict_equals_component_count_on_64x5_stacks(self, seed):
        sizes, edges, cut = self._stack_64x5(seed)
        stacked = stack_edges(sizes, edges)
        components = connected_components(
            stacked.matrix, directed=False, return_labels=False
        )
        expected = components == len(sizes)
        assert expected == (not cut)
        assert stacked.connected is expected
        if cut:
            assert first_disconnected_lane(stacked, sizes) == cut[0]

    @pytest.mark.parametrize("node", ["first", "last"])
    @pytest.mark.parametrize("lane", [0, 1, 2])
    def test_cut_at_the_bridge_ends(self, lane, node):
        # The node a bridge enters a lane by (first; node 0, which
        # every bridge leaves, in lane 0) or the lane's far end (last).
        sizes = [6, 6, 6]
        edges = tree_lanes(sizes, 3)
        edges[lane] = isolate_node(*edges[lane], 0 if node == "first" else 5)
        stacked = stack_edges(sizes, edges)
        assert stacked.connected is False
        assert first_disconnected_lane(stacked, sizes) == lane

    def test_empty_and_singleton_lanes(self):
        sizes = [0, 1, 4, 0, 0, 1, 3, 0]
        edges = [
            RandomConnectedAdversary(n, seed=n).edges(0) if n else
            (np.zeros(0, np.int32), np.zeros(0, np.int32))
            for n in sizes
        ]
        stacked = stack_edges(sizes, edges)
        assert stacked.connected is True
        edges[6] = isolate_node(*edges[6], 2)
        stacked = stack_edges(sizes, edges)
        assert stacked.connected is False
        assert first_disconnected_lane(stacked, sizes) == 6

    def test_bridges_stay_out_of_the_matrix(self):
        sizes = [64] * 3
        edges = tree_lanes(sizes, 5)
        stacked = stack_edges(sizes, edges)
        before = stacked.matrix.indices.copy(), stacked.matrix.indptr.copy()
        assert lanes_connected(stacked.matrix, sizes) is True
        assert stacked.connected is True
        assert stacked.edges == sum(n - 1 for n in sizes)
        assert np.array_equal(stacked.matrix.indices, before[0])
        assert np.array_equal(stacked.matrix.indptr, before[1])

    def test_int64_pattern(self):
        # The bridged copy keeps one index dtype for scipy's traversal.
        sizes = [5, 1, 5]
        stacked = stack_edges(sizes, tree_lanes(sizes, 2))
        wide = sp.csr_array(
            (
                stacked.matrix.data,
                stacked.matrix.indices.astype(np.int64),
                stacked.matrix.indptr.astype(np.int64),
            ),
            shape=stacked.matrix.shape,
        )
        assert wide.indices.dtype == np.int64
        assert lanes_connected(wide, sizes) is True


class TestDisconnectedLaneMessage:
    """The engine's TopologyError names the disconnected lane."""

    @pytest.mark.parametrize("bad", [0, 2, 4])
    def test_first_middle_or_last_lane(self, bad):
        n = 6

        def ring(round_no):
            return ring_provider(n)(round_no)

        def broken(round_no):
            edges = ring(round_no)
            return isolate_node(*edges, n - 1) if round_no == 1 else edges

        jobs = [
            (CSRDynamicGraph(n, broken if lane == bad else ring), 0)
            for lane in range(5)
        ]
        with pytest.raises(
            TopologyError,
            match=rf"^round 1: lane {bad} graph is disconnected but "
            r"1-interval connectivity is required$",
        ):
            flood_times_batch(jobs)


class TestReferenceCycles:
    def test_adversary_freed_without_cyclic_gc(self):
        gc.collect()
        gc.disable()
        try:
            adversary = RandomConnectedAdversary(8, seed=1)
            network = adversary.as_dynamic_graph()
            network.to_csr(0)
            network.at(0)
            adversary_ref = weakref.ref(adversary)
            network_ref = weakref.ref(network)
            del adversary, network
            assert adversary_ref() is None
            assert network_ref() is None
        finally:
            gc.enable()


class TestBoundedMemory:
    def test_long_fresh_graph_run_keeps_caches_bounded(self):
        adversary = RandomConnectedAdversary(16, seed=9, extra_edge_p=0.0)
        estimates = gossip_size_estimates(adversary, 16, 150, backend="fast")
        assert len(estimates) == 150
        network = adversary.as_dynamic_graph()
        assert all(
            size <= DEFAULT_ROUND_CACHE_SIZE
            for size in network.cache_sizes().values()
        )

    def test_long_fresh_graph_run_memory_is_stable(self):
        # After the LRU warms up, hundreds more fresh rounds must not
        # accumulate lowered adjacencies (the pre-fix behaviour leaked
        # one CSR matrix + edge arrays per round).
        network = RandomConnectedAdversary(24, seed=4).as_dynamic_graph()
        tracemalloc.start()
        try:
            for round_no in range(2 * DEFAULT_ROUND_CACHE_SIZE):
                network.to_csr(round_no)
            warm = tracemalloc.get_traced_memory()[0]
            for round_no in range(
                2 * DEFAULT_ROUND_CACHE_SIZE, 8 * DEFAULT_ROUND_CACHE_SIZE
            ):
                network.to_csr(round_no)
            settled = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert settled - warm < 256 * 1024


class TestIndexDtypePolicy:
    """The int32-first CSR index policy (repro.networks.csr)."""

    def test_boundary(self):
        from repro.networks.csr import index_dtype_for

        assert index_dtype_for(0) == np.int32
        assert index_dtype_for(2**31 - 1) == np.int32
        assert index_dtype_for(2**31) == np.int64

    def test_csr_from_edges_uses_int32_when_small(self):
        from repro.networks.csr import csr_from_edges

        u = np.array([0, 1, 2], dtype=np.int64)
        v = np.array([1, 2, 3], dtype=np.int64)
        adjacency = csr_from_edges(4, u, v)
        assert adjacency.matrix.indices.dtype == np.int32
        assert adjacency.matrix.indptr.dtype == np.int32

    def test_lowered_graph_uses_int32_when_small(self):
        from repro.networks.csr import lower_graph

        adjacency = lower_graph(nx.path_graph(5))
        assert adjacency.matrix.indices.dtype == np.int32
        assert adjacency.matrix.indptr.dtype == np.int32

    def test_stacked_adjacency_keeps_policy_dtype(self):
        from repro.networks.csr import graph_edges, stack_edges

        stacked = stack_edges(
            [4, 5],
            [graph_edges(nx.path_graph(4)), graph_edges(nx.cycle_graph(5))],
        )
        assert stacked.matrix.indices.dtype == np.int32
        assert stacked.matrix.indptr.dtype == np.int32

    def test_dedup_keys_never_wrap_at_large_n(self):
        # a*n + b of the duplicate-collapse key can exceed int32 even
        # when every endpoint fits it; the key math must run in int64.
        from repro.networks.csr import csr_from_edges

        n = 2**20
        u = np.array([n - 2, n - 1, n - 2], dtype=np.int64)
        v = np.array([n - 1, n - 2, n - 1], dtype=np.int64)
        adjacency = csr_from_edges(n, u, v)
        assert adjacency.edges == 1  # all three collapse to one edge
        assert adjacency.matrix.indices.dtype == np.int32

    def test_out_of_range_endpoints_rejected_not_wrapped(self):
        # Validation must happen before any int32 narrowing: an
        # endpoint beyond the range would otherwise wrap into a valid-
        # looking index and pass the check.
        from repro.networks.csr import validate_edge_arrays

        u = np.array([0, 2**33], dtype=np.int64)
        v = np.array([1, 1], dtype=np.int64)
        with pytest.raises(TopologyError):
            validate_edge_arrays(4, u, v)

    def test_validated_arrays_come_back_in_policy_dtype(self):
        from repro.networks.csr import validate_edge_arrays

        u = np.array([0, 1], dtype=np.int64)
        v = np.array([1, 2], dtype=np.int64)
        out_u, out_v = validate_edge_arrays(3, u, v)
        assert out_u.dtype == np.int32
        assert out_v.dtype == np.int32

    def test_precompiled_store_uses_policy_dtype(self):
        network = precompile_schedule(
            CSRDynamicGraph(6, ring_provider(6)), 3
        )
        for round_no in range(3):
            u, v = network.edges(round_no)
            assert u.dtype == np.int32
            assert v.dtype == np.int32
            assert network.to_csr(round_no).matrix.indices.dtype == np.int32
