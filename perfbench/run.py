"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload full-float --seed 1 --seconds 20 --trace 0

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones.  Per-op records, spans and a run summary (including
the environment) go to ``perfbench/out/``.  ``realz`` is imported from
``src/`` next to this directory and nowhere else; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One client, one op at a time: no BLAS worker threads either.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report_lines(result):
        print(line)
    return 0 if result["correct"] else 1


def report_lines(result) -> list:
    """Human-readable metric lines, then the JSON result line."""
    summary = result["summary"]
    lines = [f"{name} {metric['value']:.6g} {metric['unit']}" for name, metric in result["metrics"].items()]
    lines.append(f"op_s.samples {summary['samples']} count ({summary['beyond_p90']} beyond p90)")
    if "fail_frac" in summary:
        lines.append(f"fail_frac {summary['fail_frac']:.6g} ratio")
    if "wall" in summary:
        wall = ", ".join(f"{k} {v:.6g}" for k, v in summary["wall"].items())
        lines.append(f"wall clock, before scaling to the reference speed: {wall}")
    lines.append(f"fail_counts {json.dumps(summary['fail_counts'])}")
    lines.append(f"near_boundary_share {summary['near_boundary_share']:.4g} ratio")
    if "layer_shares" in summary:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in sorted(summary["layer_shares"].items()))
        lines.append(f"self time share of op time: {shares}")
    lines.extend(f"gate disagreement: {problem}" for problem in summary["gate_problems"])
    lines.append(f"environment {json.dumps(summary['environment'], sort_keys=True)}")
    lines.append(json.dumps({k: v for k, v in result.items() if k != "summary"}))
    return lines


if __name__ == "__main__":
    sys.exit(main())
