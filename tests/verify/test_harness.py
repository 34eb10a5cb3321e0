"""Tests for the verification harness: fuzz, shrink, fixtures, self-test."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.verify import (
    Case,
    mutation,
    replay_fixture,
    run_case,
    run_self_test,
    run_verify,
    shrink_candidates,
    write_fixture,
)


class TestRunVerify:
    def test_clean_tree_passes(self, tmp_path):
        report = run_verify(
            fuzz=5,
            seed=0,
            suites=["model", "kernel"],
            fixtures_dir=tmp_path,
        )
        assert report.passed
        assert report.total_cases == 10
        assert report.total_violations == 0
        assert not list(tmp_path.iterdir())

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_verify(fuzz=1, suites=["nope"])

    def test_default_runs_all_suites_in_order(self, tmp_path):
        report = run_verify(fuzz=1, fixtures_dir=tmp_path)
        assert list(report.suites) == [
            "model",
            "kernel",
            "backend",
            "runtime",
            "counting",
            "stack",
        ]

    def test_counters_maintained(self, tmp_path):
        with use_registry(MetricsRegistry()) as registry:
            run_verify(fuzz=3, suites=["kernel"], fixtures_dir=tmp_path)
        assert registry.snapshot()["counters"]["verify.cases"] == 3

    def test_violation_is_shrunk_and_persisted(self, tmp_path):
        with mutation.armed("kernel-sign-flip"):
            report = run_verify(
                fuzz=2, seed=0, suites=["kernel"], fixtures_dir=tmp_path
            )
            assert not report.passed
            violation = report.suites["kernel"].violations[0]
            # Every kernel case fails under the mutant, so the greedy
            # shrinker must land on the lattice's global minimum.
            assert violation.shrunk.params == {"r": 0, "n": 1}
            assert violation.fixture is not None
            assert violation.fixture.exists()

    def test_no_shrink_keeps_original_case(self, tmp_path):
        with mutation.armed("kernel-sign-flip"):
            report = run_verify(
                fuzz=1,
                seed=0,
                suites=["kernel"],
                fixtures_dir=tmp_path,
                do_shrink=False,
            )
        violation = report.suites["kernel"].violations[0]
        assert violation.shrunk == violation.case

    def test_render_mentions_counterexample(self, tmp_path):
        with mutation.armed("kernel-sign-flip"):
            report = run_verify(
                fuzz=1, seed=0, suites=["kernel"], fixtures_dir=tmp_path
            )
        text = report.render()
        assert "FAIL" in text and "counterexample" in text


class TestRunCase:
    def test_checker_crash_becomes_violation(self):
        # A case the builder cannot even construct must not escape as
        # an exception: the crash is itself the reportable violation.
        case = Case("model", "pd", 0, {"layers": "broken", "rounds": 1})
        violations = run_case(case)
        assert violations
        assert "checker crashed" in violations[0]


class TestFixtures:
    def test_write_and_replay_roundtrip(self, tmp_path):
        case = Case("kernel", "kernel-identities", 9, {"r": 1, "n": 3})
        path = write_fixture(tmp_path, case, ["some violation"])
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-verify-fixture-v1"
        assert Case.from_dict(payload["case"]) == case
        assert replay_fixture(path) == []  # clean tree: bug not present

    def test_replay_reports_current_violations(self, tmp_path):
        case = Case("kernel", "kernel-identities", 9, {"r": 0, "n": 1})
        path = write_fixture(tmp_path, case, ["recorded violation"])
        with mutation.armed("kernel-sign-flip"):
            assert replay_fixture(path)


class TestSelfTest:
    def test_passes_and_persists_fixtures(self, tmp_path):
        assert run_self_test(seed=0, fixtures_dir=tmp_path) == []
        fixtures = list(tmp_path.glob("*.json"))
        assert fixtures
        # Minimality is part of the contract: each persisted
        # counterexample sits at the bottom of its shrink lattice.
        for path in fixtures:
            case = Case.from_dict(json.loads(path.read_text())["case"])
            assert not list(shrink_candidates(case))

    def test_tempdir_mode_leaves_no_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_self_test(seed=1) == []
        assert not list(tmp_path.iterdir())
