"""Property-based differential verification for the whole repro stack.

The paper's results are exact combinatorial identities, which makes
them unusually strong machine-checkable oracles; this package fuzzes
the implementation against them (and against itself) instead of
relying only on hand-picked examples.  Three layers:

* :mod:`repro.verify.strategies` -- seeded generators for dynamic
  graphs, kernel rounds, protocol runs, and sweep workloads, plus the
  shrinker that minimises failing cases.
* :mod:`repro.verify.oracles` -- invariant oracles: model invariants
  (static node set, no self-loops, 1-interval connectivity, CSR
  lowering ≡ networkx adjacency, ``G(PD)_h`` / ``T``-interval
  contracts), the paper's Lemma 2-4 / Theorem 1 identities, and the
  stacked connectivity verdict of multi-lane stacks.
* :mod:`repro.verify.drivers` -- differential drivers: object engine
  vs fast backend (outputs, rounds, ``engine.*`` counters) and serial
  vs pooled vs resumed sweeps.
* :mod:`repro.verify.counting` -- the algorithm-zoo oracle: every
  counting algorithm must output ``count == n`` at or above the
  Theorem 1 horizon, and the vectorized drains must match the object
  engine exactly.

:mod:`repro.verify.harness` orchestrates them (``repro verify`` on the
command line), and :mod:`repro.verify.mutation` holds the seeded
mutants behind the ``--self-test`` proof that the harness detects
injected violations.  See ``docs/VERIFICATION.md``.
"""

from repro.verify import mutation
from repro.verify.harness import (
    SuiteReport,
    VerifyReport,
    Violation,
    replay_fixture,
    run_case,
    run_self_test,
    run_verify,
    write_fixture,
)
from repro.verify.strategies import (
    COUNTING_KINDS,
    SUITES,
    Case,
    generate_cases,
    shrink,
    shrink_candidates,
)

__all__ = [
    "COUNTING_KINDS",
    "SUITES",
    "Case",
    "SuiteReport",
    "VerifyReport",
    "Violation",
    "generate_cases",
    "mutation",
    "replay_fixture",
    "run_case",
    "run_self_test",
    "run_verify",
    "shrink",
    "shrink_candidates",
    "write_fixture",
]
