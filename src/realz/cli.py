"""Command-line front end: load instances, run checks, emit reports.

Instance files are JSON documents with a ``schema_version`` field::

    {
      "schema_version": 1,
      "domain": {
        "distance": [[0, 1], [1, 0]],
        "occupancy_cap": [1, 1],            // or a single int, broadcast
        "site_labels": ["a", "b"],          // optional
        "exclusion_diameter": null,         // optional
        "total_cap": null,                  // optional
        "total_exact": null                 // optional
      },
      "correlations": {
        "rho1": [0.75, 0.75],
        "rho2": [[0, 0.4], [0.4, 0]]
      },
      "group": {"torus_dims": [2]},         // optional
      "test_families": ["singletons", "pairs", {"kind": "balls", "radius": 1.0}]
    }

Matrices are stored row-major as nested arrays.  Exact rationals are
written as strings ``"p/q"`` and are required throughout in rational mode.
Certificate files carry ``{"schema_version": 1, "f0": ..., "f1": [...],
"f2": [[...]]}``.

Exit codes: 0 = feasible / all conditions pass / certificate valid,
3 = infeasible / some condition fails / certificate invalid,
2 = the instance could not be checked (parse, validation, capacity or
precondition failure).  Every flag has an environment-variable equivalent
prefixed ``REALZ_`` (for example ``--tol`` and ``REALZ_TOL``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from .conditions import run_battery
from .core import CorrelationPair, Distribution, Domain, QuadraticPolynomial
from .errors import RealizabilityError, ValidationError
from .solver import (
    SolverOptions,
    check_realizability,
    minimal_third_moment,
    verify_certificate,
)
from .stationary import (
    check_realizability_stationary,
    reduce_pair_correlation,
    translation_group,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_NEGATIVE = 3


# ---------------------------------------------------------------------------
# value (de)serialization


def _parse_number(value, where: str):
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{where}: cannot parse rational {value!r}") from exc
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: expected a number, got {value!r}")
    return value


def _parse_vector(values, where: str):
    if not isinstance(values, list):
        raise ValidationError(f"{where}: expected an array")
    parsed = [_parse_number(v, where) for v in values]
    exact = all(isinstance(v, (int, Fraction)) for v in parsed)
    return np.array(parsed, dtype=object if exact else float)


def _parse_matrix(values, where: str):
    if not isinstance(values, list) or not all(isinstance(r, list) for r in values):
        raise ValidationError(f"{where}: expected an array of arrays")
    parsed = [[_parse_number(v, where) for v in row] for row in values]
    exact = all(isinstance(v, (int, Fraction)) for row in parsed for v in row)
    return np.array(parsed, dtype=object if exact else float)


def _parse_torus_dims(values, where: str) -> tuple:
    try:
        return tuple(int(d) for d in values)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: torus dims must be integers, got {values!r}") from exc


def _encode(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return value + 0.0  # folds -0.0 into 0.0
    if isinstance(value, (np.floating, np.integer)):
        return _encode(value.item())
    if isinstance(value, np.ndarray):
        return [_encode(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# instance and report files


def load_instance(path) -> dict:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read instance {path}: {exc}") from exc
    if not isinstance(raw, dict) or "schema_version" not in raw:
        raise ValidationError(f"{path}: missing schema_version field")
    if raw["schema_version"] != SCHEMA_VERSION:
        raise ValidationError(f"{path}: unsupported schema_version {raw['schema_version']}")
    for key in ("domain", "correlations"):
        if key not in raw:
            raise ValidationError(f"{path}: missing {key} section")

    dom = raw["domain"]
    if "distance" not in dom or "occupancy_cap" not in dom:
        raise ValidationError(f"{path}: domain needs distance and occupancy_cap")
    caps = dom["occupancy_cap"]
    domain = Domain(
        distance=_parse_matrix(dom["distance"], "domain.distance").astype(float),
        occupancy_cap=caps if isinstance(caps, int) else tuple(caps),
        site_labels=tuple(dom.get("site_labels") or ()),
        exclusion_diameter=dom.get("exclusion_diameter"),
        total_cap=dom.get("total_cap"),
        total_exact=dom.get("total_exact"),
    )

    corr_raw = raw["correlations"]
    corr = CorrelationPair(
        rho1=_parse_vector(corr_raw.get("rho1"), "correlations.rho1"),
        rho2=_parse_matrix(corr_raw.get("rho2"), "correlations.rho2"),
    )
    if corr.site_count != domain.site_count:
        raise ValidationError(f"{path}: correlations do not match the domain size")

    group_dims = None
    group = raw.get("group")
    if group:
        dims = group.get("torus_dims") if isinstance(group, dict) else None
        if not dims:
            raise ValidationError(f"{path}: group section needs torus_dims")
        group_dims = _parse_torus_dims(dims, f"{path}: group.torus_dims")

    families = raw.get("test_families")
    return {
        "domain": domain,
        "correlations": corr,
        "group_dims": group_dims,
        "test_families": families,
    }


def load_certificate(path) -> QuadraticPolynomial:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read certificate {path}: {exc}") from exc
    for key in ("f0", "f1", "f2"):
        if key not in raw:
            raise ValidationError(f"{path}: certificate needs f0, f1 and f2")
    return QuadraticPolynomial(
        f0=_parse_number(raw["f0"], "f0"),
        f1=_parse_vector(raw["f1"], "f1"),
        f2=_parse_matrix(raw["f2"], "f2"),
    )


def _certificate_payload(cert: QuadraticPolynomial) -> dict:
    return {
        "f0": _encode(cert.f0),
        "f1": _encode(cert.f1),
        "f2": _encode(cert.f2),
    }


def _witness_payload(dist: Distribution) -> dict:
    return {
        "atoms": [
            {"occupancy": list(config), "weight": _encode(weight)}
            for config, weight in dist.atoms
        ]
    }


def _emit(report: dict, out_path) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        Path(out_path).write_text(text + "\n")
    else:
        print(text)


def _base_report(command: str, instance_path, opts: SolverOptions) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "instance": str(instance_path),
        "options": {
            "tolerance": opts.tolerance,
            "arithmetic_mode": opts.arithmetic_mode,
            "pivot_rule": opts.pivot_rule,
        },
    }


# ---------------------------------------------------------------------------
# commands


def _options(args) -> SolverOptions:
    return SolverOptions(
        tolerance=args.tol,
        arithmetic_mode="rational" if args.rational else "float",
        pivot_rule=args.pivot_rule,
    )


def _prepared(args, path):
    instance = load_instance(path)
    if args.cap_override is not None:
        instance["domain"] = dataclasses.replace(
            instance["domain"], occupancy_cap=args.cap_override
        )
    if args.group:
        dims = [d for d in args.group.split(",") if d]
        instance["group_dims"] = _parse_torus_dims(dims, "--group")
    return instance


def _decide(report: dict, out_path, solve) -> int:
    """Time ``solve``, which returns ``(witness, certificate)``, then record
    the verdict with its proof and emit the report."""
    start = time.perf_counter()
    witness, certificate = solve()
    report["timings"] = {"seconds": time.perf_counter() - start}
    if witness is not None:
        report.update(verdict="feasible", witness=_witness_payload(witness))
    else:
        report.update(verdict="infeasible", certificate=_certificate_payload(certificate))
    _emit(report, out_path)
    return EXIT_OK if witness is not None else EXIT_NEGATIVE


def cmd_check(args, path) -> int:
    opts = _options(args)
    instance = _prepared(args, path)
    report = _base_report("check", path, opts)

    def solve():
        result = check_realizability(instance["domain"], instance["correlations"], opts)
        return result.distribution, result.certificate

    return _decide(report, args.out, solve)


def _parse_family(entry):
    if isinstance(entry, str):
        if entry.startswith("balls:"):
            return ("balls", float(entry.split(":", 1)[1]))
        return entry
    if isinstance(entry, dict):
        kind = entry.get("kind")
        if kind == "balls":
            return ("balls", float(entry.get("radius", 0.0)))
        if kind == "custom":
            return ("custom", [(w.get("id", f"custom{i}"), _parse_vector(w["f"], "family"))
                               for i, w in enumerate(entry.get("functions", []))])
        return kind
    raise ValidationError(f"unknown test-function family {entry!r}")


def cmd_conditions(args, path) -> int:
    opts = _options(args)
    instance = _prepared(args, path)
    report = _base_report("conditions", path, opts)
    if args.family:
        families = [_parse_family(f) for f in args.family]
    elif instance["test_families"]:
        families = [_parse_family(f) for f in instance["test_families"]]
    else:
        families = ["singletons", "pairs"]
    start = time.perf_counter()
    battery = run_battery(instance["domain"], instance["correlations"], families)
    report["timings"] = {"seconds": time.perf_counter() - start}
    report["verdict"] = "feasible" if battery.overall else "infeasible"
    report["conditions"] = {
        "overall": battery.overall,
        "worst": None
        if battery.worst is None
        else {
            "condition": battery.worst.condition_name,
            "test_function": battery.worst.test_function_id,
            "margin": _encode(battery.worst.margin),
        },
        "verdicts": [
            {
                "condition": v.condition_name,
                "test_function": v.test_function_id,
                "lhs": _encode(v.lhs),
                "rhs": _encode(v.rhs),
                "margin": _encode(v.margin),
                "passed": v.passed,
                "note": v.note,
            }
            for v in battery.verdicts
        ],
    }
    _emit(report, args.out)
    return EXIT_OK if battery.overall else EXIT_NEGATIVE


def cmd_third_moment(args, path) -> int:
    opts = _options(args)
    instance = _prepared(args, path)
    report = _base_report("third-moment", path, opts)

    def solve():
        result = minimal_third_moment(instance["domain"], instance["correlations"], opts)
        if result.finite:
            report["r_star"] = _encode(result.r_star)
        return result.witness, result.certificate

    return _decide(report, args.out, solve)


def cmd_stationary(args, path) -> int:
    opts = _options(args)
    instance = _prepared(args, path)
    dims = instance["group_dims"]
    if not dims:
        raise ValidationError("stationary check needs torus dims (--group or instance file)")
    group = translation_group(dims)
    domain = instance["domain"]
    corr = instance["correlations"]
    report = _base_report("stationary", path, opts)
    report["group"] = {"torus_dims": list(dims)}

    def solve():
        result = check_realizability_stationary(domain, corr, group, opts)
        report["stationary"] = True
        report["reduced"] = None
        if corr.rho1[0] != 0:
            reduced = reduce_pair_correlation(corr, dims)
            report["reduced"] = {
                "rho": _encode(reduced.rho),
                "g2": {
                    ",".join(str(c) for c in disp): _encode(value)
                    for disp, value in sorted(reduced.g2.items())
                },
            }
        return result.distribution, result.certificate

    return _decide(report, args.out, solve)


def cmd_certify(args, path) -> int:
    opts = _options(args)
    instance = _prepared(args, path)
    cert = load_certificate(args.certificate)
    report = _base_report("certify", path, opts)
    report["certificate_path"] = str(args.certificate)
    start = time.perf_counter()
    valid = verify_certificate(
        instance["domain"], cert, instance["correlations"], tol=opts.tolerance
    )
    report["timings"] = {"seconds": time.perf_counter() - start}
    report["verdict"] = "valid" if valid else "invalid"
    _emit(report, args.out)
    return EXIT_OK if valid else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# argument plumbing


def _env_default(name: str, fallback=None, cast=str):
    raw = os.environ.get(f"REALZ_{name}")
    if raw is None:
        return fallback
    if cast is bool:
        return raw.strip().lower() in ("1", "true", "yes", "on")
    return cast(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realz",
        description="Decide realizability of prescribed correlation data on finite domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_family=False, with_certificate=False):
        p.add_argument("instance", help="instance file, or a directory with --all")
        p.add_argument(
            "--tol",
            type=float,
            default=_env_default("TOL", 1e-9, float),
            help="solver tolerance (env REALZ_TOL)",
        )
        p.add_argument(
            "--rational",
            action="store_true",
            default=_env_default("RATIONAL", False, bool),
            help="exact rational arithmetic (env REALZ_RATIONAL)",
        )
        p.add_argument(
            "--pivot-rule",
            choices=("bland", "dantzig"),
            default=_env_default("PIVOT_RULE", "dantzig"),
            help="simplex pivot rule (env REALZ_PIVOT_RULE)",
        )
        p.add_argument(
            "--cap-override",
            type=int,
            default=_env_default("CAP_OVERRIDE", None, int),
            help="replace every occupancy cap (env REALZ_CAP_OVERRIDE)",
        )
        p.add_argument(
            "--group",
            default=_env_default("GROUP", None),
            help="torus dims, comma separated (env REALZ_GROUP)",
        )
        p.add_argument(
            "--out",
            default=_env_default("OUT", None),
            help="report path (directory in batch mode; env REALZ_OUT)",
        )
        p.add_argument(
            "--all",
            action="store_true",
            default=_env_default("ALL", False, bool),
            help="treat the instance argument as a directory of instances (env REALZ_ALL)",
        )
        if with_family:
            p.add_argument(
                "--family",
                action="append",
                default=None,
                help="test-function family: singletons, pairs or balls:R (repeatable; env REALZ_FAMILY)",
            )
        if with_certificate:
            p.add_argument("certificate", help="certificate file to replay")

    p = sub.add_parser("check", help="decide realizability")
    add_common(p)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("conditions", help="run the necessary-condition battery")
    add_common(p, with_family=True)
    p.set_defaults(handler=cmd_conditions)

    p = sub.add_parser("third-moment", help="minimize the third factorial moment")
    add_common(p)
    p.set_defaults(handler=cmd_third_moment)

    p = sub.add_parser("stationary", help="orbit-reduced check plus reduced pair data")
    add_common(p)
    p.set_defaults(handler=cmd_stationary)

    p = sub.add_parser("certify", help="replay a certificate against an instance")
    add_common(p, with_certificate=True)
    p.set_defaults(handler=cmd_certify)

    return parser


def _iter_paths(args):
    root = Path(args.instance)
    if not args.all:
        return [root]
    if not root.is_dir():
        raise ValidationError(f"--all expects a directory, got {root}")
    return sorted(root.glob("*.json"))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "family") and args.family is None:
        env_family = os.environ.get("REALZ_FAMILY")
        if env_family:
            args.family = env_family.split(";")

    try:
        paths = _iter_paths(args)
    except RealizabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    batch = args.all
    out_dir = Path(args.out) if (batch and args.out) else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    worst = EXIT_OK
    for path in paths:
        per_file = args
        if out_dir:
            per_file = argparse.Namespace(**vars(args))
            per_file.out = str(out_dir / (Path(path).stem + ".report.json"))
        try:
            code = args.handler(per_file, path)
        except RealizabilityError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            code = EXIT_ERROR
        if code == EXIT_ERROR or worst == EXIT_ERROR:
            worst = EXIT_ERROR
        else:
            worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
