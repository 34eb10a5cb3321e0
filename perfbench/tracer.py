"""Layer tracing from outside the program.

The benchmark never edits ``src/``: it times a layer by temporarily
replacing the public function (or method) that enters it with a timing
wrapper, and restores the original afterwards.  Wrapped calls nest, so
each layer gets *self time* -- its own span minus the spans of wrapped
layers it called -- and every second of a traced operation lands in
exactly one layer or in ``unattributed``.

Spans are aggregated in memory and read out when the operation ends:
per layer, self and inclusive seconds, calls, and, for layers with an
outcome predicate, how many calls returned a useful result.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``owner.attr`` timed as layer ``layer``.

    ``useful``, when set, classifies each call's return value; the
    tracer counts the calls for which it holds (e.g. a solver call that
    determined an answer rather than returning ``None``).
    """

    layer: str
    owner: Any
    attr: str
    useful: Callable[[Any], bool] | None = None


class LayerTracer:
    """Self-time accounting over a set of :class:`Target` wrappers."""

    def __init__(self, targets: list[Target]) -> None:
        self.targets = targets
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.useful: dict[str, int] = defaultdict(int)
        self._open: list[float] = []  # per open span: child seconds

    def reset(self) -> None:
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self.useful.clear()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        open_spans = self._open
        self_s, total_s = self.self_s, self.total_s
        calls, useful = self.calls, self.useful
        layer, classify = target.layer, target.useful
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - open_spans.pop()
                total_s[layer] += elapsed
                calls[layer] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if classify is not None and classify(result):
                useful[layer] += 1
            return result

        return timed

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for target in self.targets:
                original = vars(target.owner)[target.attr]
                saved.append((target, original))
                setattr(target.owner, target.attr, self._wrap(target, original))
            yield self
        finally:
            for target, original in reversed(saved):
                setattr(target.owner, target.attr, original)


def _own_methods(base: type, attr: str) -> list[type]:
    """``base`` and every loaded subclass that defines ``attr`` itself."""
    found, stack = [], [base]
    while stack:
        cls = stack.pop()
        if attr in vars(cls):
            found.append(cls)
        stack.extend(cls.__subclasses__())
    return found


def program_targets() -> list[Target]:
    """The layer map of ``repro``: every traced entry point.

    Call after the workload's modules are imported, so protocol
    subclasses are loaded and found.
    """
    from repro.analysis import runtime
    from repro.core.counting import history
    from repro.networks import csr, csr_native
    from repro.simulation import engine, fast, messages

    targets = [
        Target("networks.generators.sample", csr_native.CSRDynamicGraph, "edges"),
        Target("networks.csr.validate", csr, "validate_edge_arrays"),
        Target("networks.csr.validate", csr_native, "validate_edge_arrays"),
        Target("networks.csr.lower", csr_native, "csr_from_edges"),
        Target("networks.csr.connectivity", csr, "connected_components"),
        Target("networks.csr.stack", csr.StackCache, "stack"),
        Target("networks.csr_native.lookup", csr_native.CSRDynamicGraph, "to_csr"),
        Target("networks.csr.matvec", csr.CSRAdjacency, "matvec"),
        Target("simulation.fast.engine_self", fast.FastEngine, "run"),
        Target("networks.csr_native.graph", csr_native.CSRDynamicGraph, "at"),
        Target(
            "simulation.engine.validate",
            engine.SynchronousEngine,
            "_validated_graph",
        ),
        Target("simulation.messages.inbox", messages.Inbox, "__init__"),
        Target(
            "core.counting.history.solve",
            history,
            "solve_multiplicities",
            useful=lambda result: result is not None,
        ),
        Target("simulation.engine.self", engine.SynchronousEngine, "run"),
        Target("analysis.runtime.overhead", runtime, "run_sweep"),
    ]
    for cls in _own_methods(fast.VectorizedProtocol, "step"):
        targets.append(Target("simulation.fast.step", cls, "step"))
    for cls in _own_methods(fast.VectorizedProtocol, "output_mask"):
        targets.append(Target("simulation.fast.stop", cls, "output_mask"))
    return targets


def experiment_targets() -> list[Target]:
    """One target per registered experiment function (the report layer).

    The registry holds its functions in frozen specs, so the wrapper is
    installed by swapping the spec in the registry's mapping.
    """
    from repro.analysis import registry

    table = registry._registry()
    return [
        Target(f"analysis.experiments.{name}", _SpecSlot(table, name), "fn")
        for name in table
    ]


class _SpecSlot:
    """Adapter exposing a registry entry's ``fn`` as a settable attribute."""

    def __init__(self, table: dict, name: str) -> None:
        self.__dict__["_table"] = table
        self.__dict__["_name"] = name
        self.__dict__["fn"] = table[name].fn

    def __setattr__(self, attr: str, value: Any) -> None:
        table, name = self.__dict__["_table"], self.__dict__["_name"]
        table[name] = dataclasses.replace(table[name], fn=value)
        self.__dict__["fn"] = value


@contextmanager
def node_round_counter() -> Iterator[list[int]]:
    """Count node-rounds (nodes x rounds) executed by both engines.

    Yields a one-element list holding the running total.  Used on an
    untimed run only: the count is a property of the inputs.
    """
    from repro.simulation import engine, fast

    total = [0]
    sync_run = vars(engine.SynchronousEngine)["run"]
    fast_run = vars(fast.FastEngine)["run"]

    def counted_sync(self, *args, **kwargs):
        result = sync_run(self, *args, **kwargs)
        total[0] += len(self.processes) * result.rounds
        return result

    def counted_fast(self, *args, **kwargs):
        results = fast_run(self, *args, **kwargs)
        total[0] += sum(
            lane.n * result.rounds for lane, result in zip(self.lanes, results)
        )
        return results

    engine.SynchronousEngine.run = counted_sync
    fast.FastEngine.run = counted_fast
    try:
        yield total
    finally:
        engine.SynchronousEngine.run = sync_run
        fast.FastEngine.run = fast_run
