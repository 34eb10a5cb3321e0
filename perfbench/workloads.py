"""The benchmark's workloads: inputs, the timed call, and output checks.

Every workload is a closed loop with one caller: the next operation
starts only when the previous one returned.  An operation's inputs are
a pure function of the run's ``--seed`` and the operation's index; the
program sees only the generated inputs.  ``prepare`` builds fresh
program objects outside the timed region (the adjacency caches of a
dynamic graph would otherwise carry work from one operation into the
next), ``execute`` is the timed region, and ``check`` compares the
result with an oracle from :mod:`oracles`, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles
from bootstrap import OUT_DIR

#: The ``engine.*`` counters that describe the simulated execution; a
#: speed-only change must never move them.
ENGINE_COUNTERS = (
    "engine.rounds",
    "engine.messages_sent",
    "engine.messages_delivered",
    "engine.fast.fused_rounds",
)


@dataclass(frozen=True)
class Checked:
    """What ``check`` reports for one operation."""

    node_rounds: int
    errors: list[str]
    counters: dict[str, float]


class Workload:
    """Base class; subclasses define the four hooks below."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """In-process set-up: build the inputs operations reuse."""

    def op(self, index: int) -> Any:
        """The descriptor of operation ``index`` (pure in seed, index)."""
        raise NotImplementedError

    def op_key(self, op: Any) -> Any:
        """Operations with equal keys run identical inputs."""
        return op

    def label(self, op: Any) -> str:
        return f"{self.name}[{op}]"

    def prepare(self, op: Any) -> Any:
        return op

    def execute(self, prepared: Any) -> Any:
        raise NotImplementedError

    def check(self, op: Any, output: Any, counters: dict[str, float]) -> Checked:
        raise NotImplementedError

    def warm_up_context(self):
        return contextlib.nullcontext()

    def teardown(self) -> None:
        """Remove whatever the operations left on disk."""


# -- fresh-flood ---------------------------------------------------------


class FreshFlood(Workload):
    """Flooding over a fresh uniform random tree per round, 8 lanes.

    The lane budget splits the batch into two chunks, so the run streams
    the way mega-scale runs do.  Lowering dominates: every round every
    lane builds, validates and stacks a new CSR adjacency.
    """

    name = "fresh-flood"
    lanes = 8
    n = 32768
    max_rounds = 10_000

    def op(self, index: int) -> tuple[tuple[int, int], ...]:
        rng = np.random.default_rng([self.seed, index])
        seeds = rng.integers(0, 2**31 - 1, size=self.lanes)
        sources = rng.integers(0, self.n, size=self.lanes)
        return tuple(zip(seeds.tolist(), sources.tolist()))

    def label(self, op) -> str:
        return f"fresh-flood(n={self.n}, lanes={[seed for seed, _ in op]})"

    def _adversary(self, seed: int):
        from repro.networks.generators.random_dynamic import (
            RandomConnectedAdversary,
        )

        return RandomConnectedAdversary(self.n, seed=seed, extra_edge_p=0.0)

    def prepare(self, op):
        return [
            (self._adversary(seed).as_dynamic_graph(), source)
            for seed, source in op
        ]

    def execute(self, jobs):
        from repro.core.counting.flooding import flood_times_batch

        return flood_times_batch(
            jobs,
            max_rounds=self.max_rounds,
            max_lane_nodes=self.lanes // 2 * self.n,  # two chunks
        )

    def check(self, op, times, counters) -> Checked:
        traces = [
            oracles.flood_oracle(
                self.n, self._adversary(seed).edges, source, self.max_rounds
            )
            for seed, source in op
        ]
        errors = [
            f"lane {lane} (seed {seed}): flood time {got} != oracle {trace.rounds}"
            for lane, ((seed, _), got, trace) in enumerate(zip(op, times, traces))
            if got != trace.rounds
        ]
        errors += oracles.counter_errors(
            counters, oracles.flood_batch_counters(traces)
        )
        return Checked(self.n * sum(times), errors, counters)


# -- cycled-pushsum ------------------------------------------------------


class CycledPushSum(Workload):
    """Push-sum over precompiled 16-round schedules, cycled, one stack.

    Topology is lowered once in set-up; after the first cycle every
    round's stacked adjacency is a cache hit, so the protocol step (two
    matvecs plus the per-lane estimate loop) does the work.
    """

    name = "cycled-pushsum"
    lanes = 32
    n = 1024
    period = 16
    rounds = 1000
    extra_edge_p = 0.002

    def _lane_seeds(self) -> list[int]:
        return [self.seed * 1000 + lane for lane in range(self.lanes)]

    def _adversary(self, seed: int):
        from repro.networks.generators.random_dynamic import (
            RandomConnectedAdversary,
        )

        return RandomConnectedAdversary(
            self.n, seed=seed, extra_edge_p=self.extra_edge_p
        )

    def setup(self) -> None:
        from repro.networks.csr_native import precompile_schedule

        self.specs = [
            (
                precompile_schedule(
                    self._adversary(seed).as_dynamic_graph(),
                    self.period,
                    extend="cycle",
                ),
                self.n,
            )
            for seed in self._lane_seeds()
        ]
        self._oracle = None

    def op(self, index: int) -> int:
        return 0  # every operation re-runs the set-up's schedules

    def label(self, op) -> str:
        return (
            f"cycled-pushsum(n={self.n}, lanes={self.lanes}, "
            f"seeds={self.seed * 1000}..{self.seed * 1000 + self.lanes - 1})"
        )

    def prepare(self, op):
        return self.specs

    def execute(self, specs):
        from repro.core.counting.gossip import gossip_size_estimates_batch

        return gossip_size_estimates_batch(specs, self.rounds)

    def oracle(self) -> oracles.PushSumTrace:
        if self._oracle is None:
            prefixes = [
                [self._adversary(seed).edges(k) for k in range(self.period)]
                for seed in self._lane_seeds()
            ]
            self._oracle = oracles.pushsum_oracle(prefixes, self.n, self.rounds)
        return self._oracle

    def check(self, op, curves, counters) -> Checked:
        trace = self.oracle()
        errors = oracles.curve_errors(curves, trace.curves, self.n)
        errors += oracles.counter_errors(
            counters, oracles.pushsum_batch_counters(trace, self.n)
        )
        return Checked(self.lanes * self.n * self.rounds, errors, counters)


# -- zoo-object ----------------------------------------------------------


def _zoo_algorithms() -> dict[str, Callable]:
    from repro.core.counting.diluna_viglietta import count_diluna_viglietta
    from repro.core.counting.drain import (
        count_chakraborty_mm,
        count_milani_mosteiro,
    )
    from repro.core.counting.kowalski_mosteiro import count_kowalski_mosteiro

    return {
        "DV": count_diluna_viglietta,
        "KM(l=2)": lambda network: count_kowalski_mosteiro(network, supervisors=2),
        "MM": lambda network: count_milani_mosteiro(network, backend="object"),
        "CMM": lambda network: count_chakraborty_mm(network, backend="object"),
    }


def _zoo_families() -> dict[str, Callable]:
    from repro.networks.generators.markov import edge_markov_network
    from repro.networks.generators.random_dynamic import RandomConnectedAdversary
    from repro.networks.generators.t_interval import t_interval_network

    return {
        "memoryless-random": lambda n, seed: RandomConnectedAdversary(
            n, seed=seed
        ).as_dynamic_graph(),
        "edge-markov": lambda n, seed: edge_markov_network(n, seed=seed),
        "3-interval": lambda n, seed: t_interval_network(n, 3, seed=seed),
    }


class ZooObject(Workload):
    """One counting run of the zoo on the object engine per operation.

    The grid is the ``upper-vs-lower`` one (four algorithms, three
    families) at n in {7, 10, 13}; n = 13 is the smallest size whose
    Theorem 1 horizon is 2.  Every operation draws its own network seed,
    and each pass over the 36 cells visits them in a seeded random
    order, so a run cut short still samples the grid evenly.
    """

    name = "zoo-object"
    sizes = (7, 10, 13)

    def setup(self) -> None:
        self.algorithms = _zoo_algorithms()
        self.families = _zoo_families()
        self.cells = [
            (algorithm, family, n)
            for n in self.sizes
            for family in self.families
            for algorithm in self.algorithms
        ]

    def op(self, index: int) -> tuple[str, str, int, int]:
        sweep, position = divmod(index, len(self.cells))
        order = np.random.default_rng([self.seed, sweep]).permutation(
            len(self.cells)
        )
        algorithm, family, n = self.cells[int(order[position])]
        return algorithm, family, n, self.seed * 100_000 + index

    def label(self, op) -> str:
        algorithm, family, n, seed = op
        return f"{algorithm} on {family}(n={n}, seed={seed})"

    def prepare(self, op):
        algorithm, family, n, seed = op
        return self.algorithms[algorithm], self.families[family](n, seed)

    def execute(self, prepared):
        run, network = prepared
        return run(network)

    def check(self, op, outcome, counters) -> Checked:
        n = op[2]
        errors = oracles.counting_errors(n, outcome.count, outcome.output_round)
        return Checked(n * outcome.rounds, errors, counters)


# -- report-all ----------------------------------------------------------


class ReportAll(Workload):
    """``repro all --backend fast``: every experiment and every check.

    Serial, no cache directory, run through the CLI entry point from a
    scratch working directory.  Its inputs are the registry defaults --
    the report users regenerate -- so the seed selects nothing here.
    """

    name = "report-all"

    def setup(self) -> None:
        from repro.analysis.registry import available_experiments

        self.experiments = available_experiments()
        self.workdir = OUT_DIR / f"report-work-{os.getpid()}"
        self._node_rounds: int | None = None
        self._reference: dict[str, float] | None = None

    def op(self, index: int) -> int:
        return 0

    def label(self, op) -> str:
        return "repro all --backend fast"

    def prepare(self, op):
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        return self.workdir

    def execute(self, workdir):
        from repro.cli import main

        stdout = io.StringIO()
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(stdout):
                code = main(
                    ["all", "--backend", "fast", "--metrics-out", "metrics.json"]
                )
        finally:
            os.chdir(cwd)
        return code, stdout.getvalue()

    @contextlib.contextmanager
    def warm_up_context(self):
        from tracer import node_round_counter

        with node_round_counter() as total:
            yield
        self._node_rounds = total[0]

    def teardown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def check(self, op, output, _counters) -> Checked:
        code, text = output
        snapshot = json.loads((self.workdir / "metrics.json").read_text())
        counters = snapshot["counters"]
        errors = []
        if code != 0:
            errors.append(f"repro all exited {code}")
        failed = [
            line for line in text.splitlines()
            if line.startswith("check: ") and line.endswith(": FAIL")
        ]
        errors += [f"failed {line[7:-6]}" for line in failed[:10]]
        if not any(line.startswith("check: ") for line in text.splitlines()):
            errors.append("no checks were printed")
        for name in ("experiments.run", "experiments.passed"):
            if counters.get(name) != len(self.experiments):
                errors.append(
                    f"{name} = {counters.get(name)}, expected "
                    f"{len(self.experiments)} experiments"
                )
        engine = {name: counters.get(name, 0) for name in ENGINE_COUNTERS}
        if self._reference is None:
            self._reference = engine
        else:
            errors += oracles.counter_errors(engine, self._reference)
        return Checked(self._node_rounds or 0, errors, counters)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (FreshFlood, CycledPushSum, ZooObject, ReportAll)
}
