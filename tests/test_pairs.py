"""The ten-pair comparison script: its copies and its per-metric verdicts."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parent.parent / "bench" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(ops_per_s: float, p50: float) -> dict:
    return {"metrics": {"ops_per_s": {"value": ops_per_s}, "op_s.p50": {"value": p50}}}


METRICS = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.24},
    {"name": "op_s.p50", "better": "lower", "bound": 0.24},
]


def test_a_gain_needs_nine_wins_in_ten_past_the_baseline_spread(pairs):
    base = [100.0, 101, 99, 102, 98, 100, 101, 99, 100, 100]
    # Ten wins by about 10: a gain on both metrics (p50 as 1 / ops).
    runs = [(k, run(b, 1 / b), run(b + 10, 1 / (b + 10))) for k, b in enumerate(base)]
    lines = pairs.report(runs, METRICS)
    assert "better in 10 of 10  gain yes  within its bound" in lines[0]
    assert "better in 10 of 10  gain yes  within its bound" in lines[1]
    # Eight wins in ten are no gain, whatever the medians.
    runs = [(k, b, c if k < 8 else b) for k, b, c in runs]
    assert "better in 8 of 10  gain no" in pairs.report(runs, METRICS)[0]
    # Ten wins by less than the baseline's interquartile range are none.
    runs = [(k, run(b, 1 / b), run(b + 0.5, 1 / (b + 0.5))) for k, b in enumerate(base)]
    assert "better in 10 of 10  gain no" in pairs.report(runs, METRICS)[0]


def test_a_median_past_its_bound_is_reported_worse(pairs):
    runs = [(k, run(100.0, 0.001), run(70.0, 0.0013)) for k in range(4)]
    lines = pairs.report(runs, METRICS)
    assert "-30.00%  better in 0 of 4  gain no  WORSE than its bound" in lines[0]
    assert "+30.00%  better in 0 of 4  gain no  WORSE than its bound" in lines[1]


def test_each_run_reads_a_fresh_copy_of_its_revision(pairs, tmp_path):
    head = subprocess.run(["git", "-C", str(PAIRS.parent.parent), "rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode:
        pytest.skip("not a git checkout")
    first, second = pairs.export("HEAD", tmp_path), pairs.export("HEAD", tmp_path)
    assert first != second
    for folder in (first, second):
        assert (folder / "perfbench" / "run.py").is_file() and (folder / "BENCHMARK.json").is_file()
        assert not (folder / "perfbench" / "out").exists()
