"""Counting with identifiers: the ``O(D)`` token-dissemination baseline.

"It is well known that in networks with IDs, n (all-to-all) token
dissemination solves counting" (Section 2, citing Abshoff et al.).  With
unlimited bandwidth the algorithm is plain flooding of ID sets: every
node repeatedly broadcasts the set of identifiers it has heard of; after
``D`` rounds (the dynamic diameter) every identifier has reached every
node, so the leader outputs the size of its set.

This baseline quantifies what anonymity costs: on the same dynamic
graphs where the anonymous optimal counter needs ``Ω(log |V|)`` rounds
-- or where counting is outright ambiguous -- identifiers collapse the
problem to dissemination time.  The paper's headline result is precisely
that this collapse is impossible without IDs even when ``D`` is a small
constant.

On the fast backend (:class:`VectorizedIdFlood`, ``backend="fast"``) the
known-ID sets are the rows of a boolean node-by-ID matrix and a round of
set unions is one sparse-by-dense matmul; :func:`count_with_ids_batch`
stacks several networks (different sizes and horizons) into one fused
execution.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.counting.base import CountingOutcome
from repro.networks.dynamic_graph import DynamicGraph
from repro.simulation.engine import EngineConfig, SynchronousEngine
from repro.simulation.fast import (
    FastEngine,
    FastLane,
    LaneLayout,
    VectorizedProtocol,
    resolve_backend,
)
from repro.simulation.messages import Inbox
from repro.simulation.node import Process

__all__ = [
    "IdFloodProcess",
    "VectorizedIdFlood",
    "count_with_ids",
    "count_with_ids_batch",
]


class IdFloodProcess(Process):
    """Flood the set of known identifiers; output after a fixed horizon.

    Args:
        own_id: This node's unique identifier (IDs break anonymity by
            design here -- this is the with-IDs baseline).
        horizon: Number of rounds after which the known set is complete;
            correctness requires ``horizon >= D``.
    """

    def __init__(self, own_id: int, horizon: int) -> None:
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.known: frozenset[int] = frozenset({own_id})
        self.horizon = horizon
        self._output = None

    def compose(self, round_no: int) -> frozenset:
        return self.known

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        for payload in inbox:
            self.known |= payload
        if round_no + 1 >= self.horizon and self._output is None:
            self._output = len(self.known)


class VectorizedIdFlood(VectorizedProtocol):
    """ID flooding on the fast backend.

    Known-ID sets are rows of a boolean matrix ``K`` (stacked nodes by
    lane-local IDs); a round of pairwise set unions is
    ``K |= A @ K > 0``.  Each lane commits every node's count at its own
    horizon, so lanes with different horizons batch together (run under
    ``stop_when="leader"`` with ``max_rounds = max(horizons) + 1``).

    Args:
        horizons: Per-lane output horizon (``>= 1`` each).
    """

    def __init__(self, horizons: Sequence[int]) -> None:
        self._horizons = [int(horizon) for horizon in horizons]
        if any(horizon < 1 for horizon in self._horizons):
            raise ValueError("horizon must be at least 1")

    def allocate(self, layouts: Sequence[LaneLayout]) -> None:
        if len(self._horizons) != len(layouts):
            raise ValueError("one horizon per lane required")
        self._layouts = list(layouts)
        total = layouts[-1].stop
        width = max(layout.n for layout in layouts)
        self.known = np.zeros((total, width), dtype=bool)
        for layout in layouts:
            rows = np.arange(layout.offset, layout.stop)
            self.known[rows, rows - layout.offset] = True
        self._counts = np.zeros(total, dtype=np.int64)
        self._mask = np.zeros(total, dtype=bool)

    def step(
        self, round_no: int, adjacency, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        total = self.known.shape[0]
        sending = np.ones(total, dtype=bool)
        delivered = adjacency.degrees
        self.known |= adjacency.matmul(self.known.astype(np.float64)) > 0.0
        for layout, horizon in zip(self._layouts, self._horizons):
            if round_no + 1 >= horizon and not self._mask[layout.offset]:
                rows = slice(layout.offset, layout.stop)
                self._counts[rows] = self.known[rows].sum(axis=1)
                self._mask[rows] = True
        return sending, delivered

    def output_mask(self) -> np.ndarray:
        return self._mask

    def outputs_for(self, layout: LaneLayout) -> dict[int, int]:
        if not self._mask[layout.offset]:
            return {}
        return dict(
            enumerate(self._counts[layout.offset : layout.stop].tolist())
        )

    def subset(self, indices: Sequence[int]) -> "VectorizedIdFlood":
        # The chunk-local known matrix narrows to the chunk's widest
        # lane; outputs only ever read a lane's own columns.
        return VectorizedIdFlood([self._horizons[i] for i in indices])


def count_with_ids(
    network: DynamicGraph,
    horizon: int,
    *,
    leader: int = 0,
    backend: str = "object",
    max_lane_nodes: int | None = None,
) -> CountingOutcome:
    """Count a dynamic network *with identifiers* in ``horizon`` rounds.

    Args:
        network: Any 1-interval connected dynamic graph.
        horizon: The round budget, which must be at least the network's
            dynamic diameter ``D`` for the count to be exact (measure it
            with :func:`repro.networks.dynamic_diameter`).
        leader: The node whose output is reported (with IDs every node
            terminates with the same count).
        backend: ``"object"`` or ``"fast"``; same outcome either way.
    """
    resolve_backend(backend)
    if backend == "fast":
        return count_with_ids_batch(
            [(network, horizon)],
            leader=leader,
            max_lane_nodes=max_lane_nodes,
        )[0]
    processes = [IdFloodProcess(index, horizon) for index in range(network.n)]
    engine = SynchronousEngine(
        processes,
        network,
        leader=leader,
        config=EngineConfig(max_rounds=horizon + 1, stop_when="leader"),
    )
    result = engine.run()
    return CountingOutcome(
        count=result.leader_output,
        output_round=result.rounds - 1,
        rounds=result.rounds,
        algorithm="token-dissemination-ids",
    )


def count_with_ids_batch(
    jobs: Sequence[tuple[DynamicGraph, int]],
    *,
    leader: int = 0,
    max_lane_nodes: int | None = None,
) -> list[CountingOutcome]:
    """With-IDs counts for many networks, fused into one fast batch.

    Every ``(network, horizon)`` job becomes one lane; lanes whose
    horizon passes stop advancing while longer-horizon lanes continue.
    Equivalent to :func:`count_with_ids` per job with ``backend="fast"``.
    """
    if not jobs:
        return []
    lanes = [
        FastLane(network, network.n, leader=leader) for network, _ in jobs
    ]
    engine = FastEngine(
        VectorizedIdFlood([horizon for _, horizon in jobs]),
        lanes,
        config=EngineConfig(
            max_rounds=max(horizon for _, horizon in jobs) + 1,
            stop_when="leader",
        ),
        max_lane_nodes=max_lane_nodes,
    )
    return [
        CountingOutcome(
            count=result.leader_output,
            output_round=result.rounds - 1,
            rounds=result.rounds,
            algorithm="token-dissemination-ids",
        )
        for result in engine.run()
    ]
