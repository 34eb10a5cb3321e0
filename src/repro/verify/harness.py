"""The verification harness: fuzz, shrink, persist, self-test.

This module wires the three layers of :mod:`repro.verify` together:

1. :func:`run_verify` generates cases per suite
   (:mod:`~repro.verify.strategies`), runs the matching oracle or
   differential driver on each, and collects violations into a
   :class:`VerifyReport`.
2. Every failing case is **shrunk** to a locally minimal counterexample
   and written to the fixtures directory as a replayable JSON fixture
   (:func:`write_fixture` / :func:`replay_fixture`).
3. :func:`run_self_test` arms each registered mutant
   (:mod:`~repro.verify.mutation`), proving the harness detects an
   injected violation, shrinks it to the *global* minimum of the
   parameter lattice, and emits a fixture that reproduces the failure
   under the mutant and passes without it.

Observability: each suite runs inside a ``verify.suite`` span and the
harness maintains ``verify.cases`` / ``verify.violations`` /
``verify.shrink_steps`` counters on the current metrics registry.
"""

from __future__ import annotations

import contextlib
import json
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.obs.logger import get_logger
from repro.obs.metrics import counter
from repro.obs.spans import span
from repro.verify import mutation
from repro.verify.counting import check_counting_case
from repro.verify.drivers import check_backend_case, check_runtime_case
from repro.verify.oracles import (
    check_kernel_case,
    check_model_case,
    check_stack_case,
)
from repro.verify.strategies import (
    SUITES,
    Case,
    generate_cases,
    shrink,
    shrink_candidates,
)

__all__ = [
    "SuiteReport",
    "VerifyReport",
    "Violation",
    "replay_fixture",
    "run_case",
    "run_self_test",
    "run_verify",
    "write_fixture",
]

_log = get_logger("verify")

CHECKERS: dict[str, Callable[[Case], list[str]]] = {
    "model": check_model_case,
    "kernel": check_kernel_case,
    "backend": check_backend_case,
    "runtime": check_runtime_case,
    "counting": check_counting_case,
    "stack": check_stack_case,
}

#: The runtime suite runs every workload three full times (serial,
#: pooled, resumed), so it draws one case per this many fuzz units --
#: ``--fuzz 200`` means 200 cases for the cheap suites and 5 sweeps.
RUNTIME_CASE_DIVISOR = 40

#: Counting cases run whole algorithm executions (the drain kinds run
#: one per backend per lane), so the suite draws one case per this
#: many fuzz units -- ``--fuzz 50`` means 10 counting cases.
COUNTING_CASE_DIVISOR = 5


@dataclass
class Violation:
    """One failing case, after shrinking.

    Attributes:
        case: The original generated case that failed.
        shrunk: The locally minimal failing case (equals ``case`` when
            shrinking is disabled or no smaller case still fails).
        messages: Violation strings from the *shrunk* case.
        fixture: Path of the persisted regression fixture, if written.
    """

    case: Case
    shrunk: Case
    messages: list[str]
    fixture: Path | None = None


@dataclass
class SuiteReport:
    """Outcome of one suite's fuzz run."""

    suite: str
    cases: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass
class VerifyReport:
    """Outcome of one full ``repro verify`` invocation."""

    seed: int
    fuzz: int
    suites: dict[str, SuiteReport] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(report.passed for report in self.suites.values())

    @property
    def total_cases(self) -> int:
        return sum(report.cases for report in self.suites.values())

    @property
    def total_violations(self) -> int:
        return sum(len(report.violations) for report in self.suites.values())

    def render(self) -> str:
        """Human-readable summary for the CLI."""
        lines = []
        for suite, report in self.suites.items():
            status = "PASS" if report.passed else "FAIL"
            lines.append(
                f"suite {suite}: {report.cases} cases, "
                f"{len(report.violations)} violations -- {status}"
            )
            for violation in report.violations:
                lines.append(f"  counterexample: {violation.shrunk.describe()}")
                lines.extend(f"    {msg}" for msg in violation.messages)
                if violation.fixture is not None:
                    lines.append(f"    fixture: {violation.fixture}")
        lines.append(
            f"verify: {self.total_cases} cases, "
            f"{self.total_violations} violations -- "
            f"{'PASS' if self.passed else 'FAIL'}"
        )
        return "\n".join(lines)


def run_case(case: Case) -> list[str]:
    """Run the suite's checker on one case; crashes become violations.

    An exception escaping a checker is itself a verification failure
    (the invariant "oracles can evaluate every generated case" broke),
    so it is reported as a violation string -- which also lets the
    shrinker minimise crashing cases.
    """
    checker = CHECKERS[case.suite]
    try:
        return checker(case)
    except Exception as error:  # noqa: BLE001 -- crash = reportable violation
        frame = traceback.extract_tb(error.__traceback__)[-1]
        return [
            f"checker crashed: {type(error).__name__}: {error} "
            f"(at {frame.filename}:{frame.lineno})"
        ]


def _suite_case_count(suite: str, fuzz: int) -> int:
    if suite == "runtime":
        return max(1, fuzz // RUNTIME_CASE_DIVISOR)
    if suite == "counting":
        return max(1, fuzz // COUNTING_CASE_DIVISOR)
    return fuzz


def _handle_failure(
    case: Case,
    messages: list[str],
    *,
    fixtures_dir: Path | None,
    do_shrink: bool,
) -> Violation:
    counter("verify.violations")
    shrunk = case
    if do_shrink:

        def fails(candidate: Case) -> bool:
            counter("verify.shrink_steps")
            return bool(run_case(candidate))

        shrunk = shrink(case, fails)
        if shrunk is not case:
            messages = run_case(shrunk) or messages
    violation = Violation(case=case, shrunk=shrunk, messages=messages)
    if fixtures_dir is not None:
        violation.fixture = write_fixture(fixtures_dir, shrunk, messages)
    _log.warning(
        "invariant violation in %s (shrunk to %s)",
        case.describe(),
        shrunk.describe(),
        extra={"messages": messages},
    )
    return violation


def run_verify(
    *,
    fuzz: int = 50,
    seed: int = 0,
    suites: Sequence[str] | None = None,
    fixtures_dir: str | Path | None = None,
    do_shrink: bool = True,
) -> VerifyReport:
    """Fuzz the selected suites and report every invariant violation.

    Args:
        fuzz: Cases per suite (the runtime suite draws ``fuzz // 40``,
            each case being three full sweeps -- documented, not silent).
        seed: Master seed; the full case list is a pure function of it.
        suites: Subset of :data:`~repro.verify.strategies.SUITES` to
            run (default: all, in canonical order).
        fixtures_dir: Where shrunk counterexamples are persisted as
            replayable JSON fixtures (``None`` disables persistence).
        do_shrink: Minimise failing cases before reporting.

    Returns:
        A :class:`VerifyReport`; ``report.passed`` is the exit status.
    """
    selected = list(suites) if suites else list(SUITES)
    for suite in selected:
        if suite not in SUITES:
            raise ValueError(
                f"unknown suite {suite!r}; expected one of {SUITES}"
            )
    fixtures = Path(fixtures_dir) if fixtures_dir is not None else None
    report = VerifyReport(seed=seed, fuzz=fuzz)
    for suite in selected:
        suite_report = SuiteReport(suite=suite)
        cases = generate_cases(suite, _suite_case_count(suite, fuzz), seed)
        with span("verify.suite", suite=suite, cases=len(cases)):
            for case in cases:
                counter("verify.cases")
                messages = run_case(case)
                suite_report.cases += 1
                if messages:
                    suite_report.violations.append(
                        _handle_failure(
                            case,
                            messages,
                            fixtures_dir=fixtures,
                            do_shrink=do_shrink,
                        )
                    )
        report.suites[suite] = suite_report
        _log.info(
            "suite finished",
            extra={
                "suite": suite,
                "cases": suite_report.cases,
                "violations": len(suite_report.violations),
            },
        )
    return report


# -- fixtures ---------------------------------------------------------


def write_fixture(
    fixtures_dir: str | Path, case: Case, messages: list[str]
) -> Path:
    """Persist a shrunk counterexample as a replayable JSON fixture."""
    fixtures = Path(fixtures_dir)
    fixtures.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": "repro-verify-fixture-v1",
        "case": case.to_dict(),
        "violations": list(messages),
    }
    path = fixtures / f"{case.suite}-{case.kind}-{case.seed}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def replay_fixture(path: str | Path) -> list[str]:
    """Re-run the case stored in a fixture; returns current violations.

    An empty list means the underlying bug is fixed (or was never
    reproducible in this tree); promote the fixture to a permanent
    regression test before deleting it.
    """
    payload = json.loads(Path(path).read_text())
    return run_case(Case.from_dict(payload["case"]))


# -- the seeded-mutant self-test --------------------------------------

#: Which suite each registered mutant corrupts.
_MUTANT_SUITES: Mapping[str, str] = {
    "kernel-sign-flip": "kernel",
    "model-self-loop": "model",
    "stack-lane-disconnect": "stack",
}

_SELF_TEST_FUZZ = 4


def run_self_test(
    *, seed: int = 0, fixtures_dir: str | Path | None = None
) -> list[str]:
    """Prove the harness catches, shrinks, and replays injected bugs.

    For every registered mutant: arm it, fuzz its suite, and check that
    (1) a violation is detected, (2) the shrinker reaches the global
    minimum of the parameter lattice (no smaller candidate exists),
    (3) the emitted fixture reproduces the violation while the mutant
    is armed, and (4) the same fixture passes clean once disarmed --
    i.e. the failure was the injected bug, not harness noise.

    Returns:
        Problems found with the harness itself (empty = self-test
        passed).
    """
    with contextlib.ExitStack() as stack:
        if fixtures_dir is None:
            fixtures_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-verify-selftest-")
            )
        problems = _self_test_problems(seed, Path(fixtures_dir))
    if not problems:
        _log.info(
            "self-test passed", extra={"mutants": list(mutation.MUTANTS)}
        )
    return problems


def _self_test_problems(seed: int, fixtures_dir: Path) -> list[str]:
    problems: list[str] = []
    for mutant in mutation.MUTANTS:
        suite = _MUTANT_SUITES[mutant]
        with mutation.armed(mutant):
            sub_report = run_verify(
                fuzz=_SELF_TEST_FUZZ,
                seed=seed,
                suites=[suite],
                fixtures_dir=fixtures_dir,
                do_shrink=True,
            )
            violations = sub_report.suites[suite].violations
            if not violations:
                problems.append(
                    f"mutant {mutant}: armed but the {suite} suite "
                    f"reported no violation"
                )
                continue
            shrunk = violations[0].shrunk
            remaining = list(shrink_candidates(shrunk))
            if remaining:
                problems.append(
                    f"mutant {mutant}: shrunk case {shrunk.describe()} "
                    f"is not minimal ({len(remaining)} smaller "
                    f"candidates remain)"
                )
            fixture = violations[0].fixture
            if not replay_fixture(fixture):
                problems.append(
                    f"mutant {mutant}: fixture {fixture} does not "
                    f"reproduce the violation while armed"
                )
        clean = replay_fixture(fixture)
        if clean:
            problems.append(
                f"mutant {mutant}: fixture {fixture} still fails with "
                f"the mutant disarmed: {clean}"
            )
    return problems
