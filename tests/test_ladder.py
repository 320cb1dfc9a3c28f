"""The rational-mode ladder script: one rung in process, and its gates."""

import importlib.util
from pathlib import Path

import pytest

LADDER = Path(__file__).resolve().parent.parent / "bench" / "ladder.py"


@pytest.fixture(scope="module")
def ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rung_names_are_unique(ladder):
    names = [name for name, _, _ in ladder.rungs()]
    assert len(names) == len(set(names))


@pytest.mark.parametrize(
    "name",
    [
        "two-atom(m=3)",
        "complete(3,c2)",
        "torus(3,3)-infeasible-full",
        "torus(2,2,2)-feasible-full",
        "torus(2,2,2)-infeasible-orbit",
        "torus(4,3)-float-infeasible-orbit",
        "torus(4,3)-float-feasible-full",
        "torus(4,3)-float-infeasible-full",
    ],
)
def test_small_rungs_replay_without_exact_pivots(ladder, name):
    run = ladder.work(name)
    assert run["replays"]
    assert run["exact_pivots"] == 0
    assert run["peak_rss_mb"] > 0
    # Float rungs never certify; a rational rung spends part of its simplex
    # time certifying the float search's basis.
    if "-float-" in name:
        assert run["certify_s"] == 0
    else:
        assert 0 < run["certify_s"] <= run["simplex_s"]
    assert run["verdict"] == ("infeasible" if "infeasible" in name else "feasible")


def test_disagreements_are_reported(ladder):
    def side(verdict, r_star=None):
        return {"timeout": False, "verdict": verdict, "r_star": r_star, "replays": True, "runs_agree": True}

    entries = [
        {"name": "t-full", "baseline": side("feasible"), "change": side("feasible")},
        {"name": "t-orbit", "baseline": side("feasible"), "change": side("infeasible")},
        {"name": "third", "baseline": side("feasible", "2"), "change": side("feasible", "3")},
        {"name": "slow", "baseline": {"timeout": True}, "change": side("feasible")},
    ]
    problems = ladder.check(entries)
    assert len(problems) == 3
    assert any("t-orbit:" in p for p in problems)
    assert any("t-orbit (change)" in p for p in problems)
    assert any("third:" in p for p in problems)


def test_refused_rungs_are_not_compared(ladder):
    feasible = {"timeout": False, "verdict": "feasible", "r_star": None, "replays": True, "runs_agree": True}
    refused = {"timeout": False, "refused": "more than 10000000 admissible configurations"}
    entries = [
        {"name": "big-full", "baseline": refused, "change": refused},
        {"name": "big-orbit", "baseline": refused, "change": feasible},
    ]
    assert ladder.check(entries) == []


def test_environment_comes_from_the_checkout_harness(ladder):
    env = ladder._environment(LADDER.parent.parent)
    assert set(env) == {"python", "numpy", "nproc", "machine", "git_commit"}
