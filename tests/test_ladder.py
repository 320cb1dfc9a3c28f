"""The rational-mode ladder script: one rung in process, and its gates."""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
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
        "torus(2,2,2)-lp-infeasible-full",
        "torus(2,2,2)-feasible-full",
        "torus(2,2,2)-lp-infeasible-orbit",
        "torus(4,3)-float-lp-infeasible-orbit",
        "torus(4,3)-float-feasible-full",
        "torus(4,3)-float-lp-infeasible-full",
    ],
)
def test_small_rungs_replay_without_exact_pivots(ladder, name):
    run = ladder.work(name)
    assert run["replays"]
    assert run["pivots"] > 0 and run["exact_pivots"] == 0
    assert run["peak_rss_mb"] > 0
    # Float rungs never reach the exact step; a rational rung spends part
    # of its simplex time proving the float search's basis.
    if "-float-" in name:
        assert run["exact_s"] == 0
    else:
        assert 0 < run["exact_s"] <= run["simplex_s"]
    assert run["verdict"] == ("infeasible" if "infeasible" in name else "feasible")
    # An orbit rung's certificate is replayed under its group as well.
    assert run["orbit_replays"] is (True if name.endswith("infeasible-orbit") else None)


@pytest.mark.parametrize(
    "name", ["torus(3,3)-infeasible-full", "torus(2,2,2)-infeasible-orbit", "torus(4,3)-float-infeasible-full"]
)
def test_negative_count_variance_is_refuted_before_the_lp(ladder, name):
    run = ladder.work(name)
    assert run["verdict"] == "infeasible" and run["replays"]
    assert run["pivots"] == 0 and run["simplex_s"] == 0
    assert run["orbit_replays"] is (True if name.endswith("-orbit") else None)


def test_near_boundary_rungs_reach_the_lp_and_replay(ladder, monkeypatch):
    # They import the workloads and the test support; the path and the
    # bytecode flag they set are put back.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    names = [name for name, _, _ in ladder.rungs() if name.startswith("near-boundary-")]
    assert len(names) == len(ladder.DRIFT) + len(ladder.NEAR_BOUNDARY) == 5
    for name in names:
        run = ladder.work(name)
        assert run["replays"] and 0 < run["pivots"] < 1000
        assert run["verdict"] == ("feasible" if "-drift(" in name else "infeasible")
        assert (run["exact_s"] == 0) == name.endswith("-float")
    side = {"timeout": False, "verdict": "feasible", "r_star": None, "replays": True, "runs_agree": True}
    entries = [{"name": names[0], "baseline": dict(side, pivots=3), "change": dict(side, pivots=0)}]
    assert ladder.check(entries) == [f"{names[0]} (change): the LP is not reached"]


def test_battery_rung(ladder):
    run = ladder.work("battery-torus(3,3)")
    assert run["verdict"] == "pass" and run["worst_margin"] == "0.0"
    assert run["replays"] is None and run["pivots"] == 0 and run["peak_rss_mb"] > 0
    summary = ladder._summary([run, dict(run, worst_margin="-1")])
    assert summary["replays"] is None and not summary["runs_agree"]


def test_law_rung(ladder):
    run = ladder.work("law-hardcore(4,4)")
    assert run["verdict"] == "743 atoms" and len(run["tables"]) == 64
    assert run["replays"] is None and run["pivots"] == 0 and run["seconds"] > 0
    assert ladder._summary([run, run])["tables"] == run["tables"]
    assert not ladder._summary([run, dict(run, tables="0" * 64)])["runs_agree"]


def test_law_table_disagreements_are_reported(ladder):
    def side(tables):
        return {"timeout": False, "verdict": "743 atoms", "r_star": None, "tables": tables,
                "replays": None, "runs_agree": True}

    entries = [
        {"name": "same", "baseline": side("a"), "change": side("a")},
        {"name": "differ", "baseline": side("a"), "change": side("b")},
    ]
    assert ladder.check(entries) == ["differ: the checkouts' tables differ"]


def test_battery_disagreements_are_reported(ladder):
    def side(verdict, worst_margin):
        return {"timeout": False, "verdict": verdict, "r_star": None, "worst_margin": worst_margin,
                "replays": None, "runs_agree": True}

    entries = [
        {"name": "same", "baseline": side("pass", "0.0"), "change": side("pass", "0.0")},
        {"name": "margin", "baseline": side("pass", "0.0"), "change": side("pass", "1e-17")},
        {"name": "overall", "baseline": side("pass", "0.0"), "change": side("fail", "0.0")},
    ]
    assert ladder.check(entries) == [
        "margin: worst margin 0.0 at baseline, 1e-17 in change",
        "overall: baseline pass None, change fail None",
    ]


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


def test_full_and_orbit_replay_disagreement_is_reported(ladder):
    def side(orbit_replays):
        return {"timeout": False, "verdict": "infeasible", "r_star": None, "replays": True,
                "orbit_replays": orbit_replays, "runs_agree": True}

    entries = [
        {"name": "a-orbit", "baseline": side(None), "change": side(True)},
        {"name": "b-orbit", "baseline": side(None), "change": side(False)},
    ]
    assert ladder.check(entries) == ["b-orbit (change): full and orbit replay of the certificate disagree"]


def test_checkouts_alternate_run_by_run(ladder, monkeypatch):
    order = []

    def once(checkout, name):
        order.append(checkout)
        if checkout == "slow" and len([c for c in order if c == "slow"]) == 2:
            raise ladder.subprocess.TimeoutExpired("worker", ladder.TIMEOUT_S)
        return {"seconds": 1.0, "simplex_s": 0.5, "exact_s": None, "peak_rss_mb": 40.0, "pivots": 3,
                "exact_pivots": 0, "verdict": "feasible", "r_star": None, "replays": True, "orbit_replays": None}

    monkeypatch.setattr(ladder, "_run_once", once)
    result = ladder.run_rung([("baseline", "a"), ("change", "b")], "rung")
    assert order == ["a", "b", "b", "a", "a", "b"][: 2 * ladder.REPEATS]
    assert result["baseline"]["seconds"] == [1.0] * ladder.REPEATS and result["change"]["runs_agree"]
    order.clear()
    result = ladder.run_rung([("baseline", "a"), ("change", "slow")], "rung")
    assert result["change"] == {"timeout": True, "timeout_s": ladder.TIMEOUT_S, "runs": [result["change"]["runs"][0]]}
    assert order.count("slow") == 2 and order.count("a") == ladder.REPEATS


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
    assert set(env) == {"python", "numpy", "nproc", "machine", "git_commit", "source_sha256"}
    assert len(env["source_sha256"]) == 64


def test_negative_dual_cubic_does_not_replay(ladder):
    import realz as rz

    domain = rz.Domain(distance=[[0.0]], occupancy_cap=(3,))
    witness = rz.Distribution(domain, (((2,), Fraction(1)),))
    corr = rz.correlations_of(witness)

    def outcome(f1, r_star):
        # n(n-1) + f1 n + n(n-1)(n-2): with f1 = -1 it is n^2 (n - 2),
        # negative at n = 1 alone; its budget pairing 2 + 2 f1 + r_star is 0.
        quadratic = rz.QuadraticPolynomial(0, np.array([f1], dtype=object), np.array([[1]], dtype=object))
        cubic = rz.RestrictedCubic(quadratic=quadratic, f3=Fraction(1))
        return rz.ThirdMomentResult(finite=True, r_star=r_star, witness=witness, dual_cubic=cubic)

    assert ladder._replays(rz, domain, corr, "third", outcome(0, -2), 0)
    assert not ladder._replays(rz, domain, corr, "third", outcome(-1, 0), 0)


def test_pivots_per_phase(ladder):
    # The float search's pivots per phase, off the answers' counts: they
    # sum to the pivots where no exact pivot is made.
    run = ladder.work("complete(5,c1)")
    assert run["phase_1_pivots"] + run["phase_2_pivots"] + run["exact_pivots"] == run["pivots"] > 0
    assert run["phase_2_pivots"] > 0
    assert ladder._summary([run])["phase_1_pivots"] == run["phase_1_pivots"]
