"""Tests for the invariant oracles (and the mutants they must catch)."""

from __future__ import annotations

import pytest

from repro.networks.csr import first_disconnected_lane, stack_edges
from repro.verify import mutation
from repro.verify.harness import run_verify
from repro.verify.oracles import (
    check_kernel_case,
    check_model_case,
    check_stack_case,
)
from repro.verify.strategies import (
    Case,
    build_stack,
    generate_cases,
    shrink_candidates,
)


class TestModelOracle:
    def test_generated_cases_pass(self):
        for case in generate_cases("model", 20, 0):
            assert check_model_case(case) == []

    def test_self_loop_mutant_detected_everywhere(self):
        with mutation.armed("model-self-loop"):
            for case in generate_cases("model", 10, 0):
                violations = check_model_case(case)
                assert violations
                assert any("self-loop" in v for v in violations)

    def test_pd_contract_checked(self):
        case = Case(
            "model",
            "pd",
            3,
            {"layers": [2, 2], "rounds": 3, "extra_edge_p": 0.2, "intra_layer_p": 0.0},
        )
        assert check_model_case(case) == []

    def test_t_interval_contract_checked(self):
        case = Case(
            "model",
            "t-interval",
            5,
            {"n": 6, "t": 2, "rounds": 4, "extra_edge_p": 0.0},
        )
        assert check_model_case(case) == []


class TestKernelOracle:
    @pytest.mark.parametrize("r", range(6))
    def test_identities_hold(self, r):
        case = Case("kernel", "kernel-identities", 0, {"r": r, "n": 4})
        assert check_kernel_case(case) == []

    @pytest.mark.parametrize("n", [1, 4, 13, 40])
    def test_theorem1_bound_holds(self, n):
        case = Case("kernel", "kernel-identities", 0, {"r": 1, "n": n})
        assert check_kernel_case(case) == []

    def test_sign_flip_mutant_detected_for_every_r(self):
        with mutation.armed("kernel-sign-flip"):
            for r in range(4):
                case = Case("kernel", "kernel-identities", 0, {"r": r, "n": 2})
                violations = check_kernel_case(case)
                assert violations
                # The sign flip breaks Lemma 4's sum identities at least.
                assert any("Lemma 4" in v for v in violations)

    def test_mutant_breaks_matrix_identity_too(self):
        with mutation.armed("kernel-sign-flip"):
            case = Case("kernel", "kernel-identities", 0, {"r": 1, "n": 2})
            assert any("M_1" in v for v in check_kernel_case(case))


class TestStackOracle:
    def test_generated_cases_pass(self):
        cases = generate_cases("stack", 30, 0)
        assert any(case.params["cut"] for case in cases)
        for case in cases:
            assert check_stack_case(case) == []

    def test_cut_lanes_are_disconnected(self):
        case = Case(
            "stack",
            "multi-lane",
            4,
            {"family": "arbitrary", "lanes": 5, "n": 6, "singletons": 2,
             "cut": 2, "rounds": 2},
        )
        stack = build_stack(case)
        assert len(stack.sizes) == 7 and stack.sizes.count(1) >= 2
        assert len(stack.cut) == 2
        stacked = stack_edges(stack.sizes, stack.edges(0))
        assert stacked.connected is False
        assert first_disconnected_lane(stacked, stack.sizes) == min(stack.cut)
        assert check_stack_case(case) == []

    def test_lane_disconnect_mutant_names_its_lane(self):
        case = Case(
            "stack",
            "multi-lane",
            9,
            {"family": "markov", "lanes": 4, "n": 8, "singletons": 1,
             "cut": 0, "rounds": 1},
        )
        stack = build_stack(case)
        last = max(lane for lane, n in enumerate(stack.sizes) if n > 1)
        with mutation.armed("stack-lane-disconnect"):
            edges = mutation.mutated_lanes(stack.sizes, stack.edges(0))
            violations = check_stack_case(case)
        stacked = stack_edges(stack.sizes, edges)
        assert stacked.connected is False
        assert first_disconnected_lane(stacked, stack.sizes) == last
        assert violations == [
            f"round 0: lane {last} of sizes {list(stack.sizes)} is "
            f"disconnected (all disconnected: [{last}]), but the case cut "
            "lanes []"
        ]

    def test_mutant_shrinks_to_the_two_lane_minimum(self, tmp_path):
        with mutation.armed("stack-lane-disconnect"):
            report = run_verify(
                fuzz=2, seed=0, suites=["stack"], fixtures_dir=tmp_path
            )
        violation = report.suites["stack"].violations[0]
        shrunk = violation.shrunk.params
        assert {key: shrunk[key] for key in shrunk if key != "family"} == {
            "lanes": 2, "n": 2, "singletons": 0, "cut": 0, "rounds": 1,
        }
        assert not list(shrink_candidates(violation.shrunk))
        assert "lane 1 of sizes [2, 2] is disconnected" in violation.messages[0]


class TestMutationRegistry:
    def test_unknown_mutant_rejected(self):
        with pytest.raises(ValueError, match="unknown mutant"):
            with mutation.armed("nope"):
                pass

    def test_mutants_disarm_on_exit(self):
        with mutation.armed("kernel-sign-flip"):
            assert mutation.is_armed("kernel-sign-flip")
        assert not mutation.is_armed("kernel-sign-flip")

    def test_disarm_survives_exceptions(self):
        with pytest.raises(RuntimeError):
            with mutation.armed("model-self-loop"):
                raise RuntimeError("boom")
        assert not mutation.is_armed("model-self-loop")
