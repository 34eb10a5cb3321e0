"""Seeded mutants: deliberate violations the harness must catch.

A verification harness that never fires is indistinguishable from one
that checks nothing, so :mod:`repro.verify` ships a self-test
(``repro verify --self-test``) that *arms a mutant* -- a deliberate,
deterministic corruption injected at a known oracle boundary -- and
asserts that the fuzz loop detects it, shrinks the failing case to the
global minimum, and emits a replayable fixture.

Mutants are inert unless armed through the :func:`armed` context
manager; production code never arms them.  Each mutant corrupts the
*data under test* (a kernel vector, a round graph) rather than the
oracle itself, so a detection proves the oracle actually inspects that
data.

Registered mutants:

* ``kernel-sign-flip`` -- negates the last component of every kernel
  vector ``k_r`` before the Lemma 2-4 identity checks run.  Breaks
  ``Σ k_r = 1``, the ``Σ⁻`` magnitude, the closed-form/recursion
  agreement, and ``M_r k_r = 0`` for every ``r``.
* ``model-self-loop`` -- adds the self-loop ``(0, 0)`` to every round
  graph handed to the model oracles.  Violates the "a process is never
  its own neighbour" rule for every generated dynamic graph.
* ``stack-lane-disconnect`` -- isolates the first node of the last
  multi-node lane before a stack-suite round is stacked.  That lane is
  disconnected although its case cut no node of it, and the node cut
  is the one a lane is entered through by the bridged traversal.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

import networkx as nx
import numpy as np

from repro.verify.strategies import isolate_node

__all__ = [
    "MUTANTS",
    "armed",
    "is_armed",
    "mutated_graph",
    "mutated_kernel",
    "mutated_lanes",
]

MUTANTS = ("kernel-sign-flip", "model-self-loop", "stack-lane-disconnect")
"""All registered mutant names (see module docstring)."""

_armed: set[str] = set()


def is_armed(name: str) -> bool:
    """Whether mutant ``name`` is currently armed."""
    return name in _armed


@contextmanager
def armed(name: str) -> Iterator[None]:
    """Arm mutant ``name`` for the duration of the ``with`` block."""
    if name not in MUTANTS:
        raise ValueError(
            f"unknown mutant {name!r}; registered mutants: {MUTANTS}"
        )
    _armed.add(name)
    try:
        yield
    finally:
        _armed.discard(name)


def mutated_kernel(kernel: np.ndarray) -> np.ndarray:
    """The kernel vector under test (corrupted iff the mutant is armed)."""
    if not is_armed("kernel-sign-flip"):
        return kernel
    corrupted = kernel.copy()
    corrupted[-1] = -corrupted[-1]
    return corrupted


def mutated_graph(graph: nx.Graph) -> nx.Graph:
    """The round graph under test (corrupted iff the mutant is armed)."""
    if not is_armed("model-self-loop"):
        return graph
    corrupted = graph.copy()
    corrupted.add_edge(0, 0)
    return corrupted


def mutated_lanes(
    sizes: Sequence[int], edges: Sequence[tuple[np.ndarray, np.ndarray]]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The lane edge arrays under test (corrupted iff the mutant is armed)."""
    edges = list(edges)
    multi = [lane for lane, size in enumerate(sizes) if size > 1]
    if not is_armed("stack-lane-disconnect") or not multi:
        return edges
    edges[multi[-1]] = isolate_node(*edges[multi[-1]], 0)
    return edges
