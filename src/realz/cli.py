"""Command-line front end: load an instance, run a check, emit a report.

Every command reads one instance file, and only that file says what the
instance is.  ``--rational`` says how to check it (float mode otherwise,
at :data:`realz.simplex.TOLERANCE`), ``--family`` which conditions to run
(on ``conditions``) and ``--out`` where the report goes (standard output
without it).  To run many instances, run one process per file.

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
2 = the command could not finish (parse, validation, capacity or
precondition failure, or a report that could not be written).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from .conditions import run_battery
from .core import CorrelationPair, Distribution, Domain, QuadraticPolynomial, _is_exact_value
from .errors import RationalInputError, RealizabilityError, ValidationError
from .simplex import TOLERANCE
from .solver import (
    SolverOptions,
    _replay,
    check_realizability,
    minimal_third_moment,
)
from .stationary import (
    _reduce_stationary,
    _torus_dims,
    check_realizability_stationary,
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
    return _parse_array(values, where, matrix=False)


def _parse_matrix(values, where: str):
    if not isinstance(values, list) or not all(isinstance(r, list) and len(r) == len(values[0]) for r in values):
        raise ValidationError(f"{where}: expected an array of arrays of one length")
    return _parse_array(values, where, matrix=True)


def _parse_array(values: list, where: str, matrix: bool):
    """``values`` (a list of rows when ``matrix``) as an array of object
    dtype when every entry is exact, an int or a ``p/q`` string, else of
    float.  When every entry is a JSON int or float, numpy builds the
    array in one call; otherwise :func:`_parse_entries` parses each entry."""
    kinds = set(map(type, itertools.chain.from_iterable(values) if matrix else values))
    try:
        if kinds <= {int, float}:
            return np.array(values, dtype=float if float in kinds else object)
        return _parse_entries(values, where, matrix)
    except OverflowError:
        raise ValidationError(f"{where}: an exact entry past the float range among float entries") from None


def _parse_entries(values: list, where: str, matrix: bool):
    """:func:`_parse_array` one entry at a time, through :func:`_parse_number`."""
    rows = values if matrix else [values]
    parsed = [[_parse_number(v, where) for v in row] for row in rows]
    exact = all(_is_exact_value(v) for row in parsed for v in row)
    array = np.array(parsed, dtype=object if exact else float)
    return array if matrix else array[0]


def _encode(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return value + 0.0  # folds -0.0 into 0.0
    if isinstance(value, (np.floating, np.integer)):
        return _encode(value.item())
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            return (value + 0.0).tolist()
        if value.dtype.kind in "biu":
            return value.tolist()
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
        raise ValidationError(f"cannot read instance: {exc}") from exc
    if not isinstance(raw, dict) or "schema_version" not in raw:
        raise ValidationError("missing schema_version field")
    if raw["schema_version"] != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {raw['schema_version']}")
    for key in ("domain", "correlations"):
        if not isinstance(raw.get(key), dict):
            raise ValidationError(f"{key} section missing or not an object")

    dom = raw["domain"]
    if "distance" not in dom or "occupancy_cap" not in dom:
        raise ValidationError("domain needs distance and occupancy_cap")
    caps, labels = dom["occupancy_cap"], dom.get("site_labels") or []
    if isinstance(caps, bool) or not isinstance(caps, (int, list)) or not isinstance(labels, list):
        raise ValidationError("occupancy_cap must be an integer or an array, site_labels an array")
    exclusion = dom.get("exclusion_diameter")  # "3/2" reads as in the distances
    domain = Domain(
        distance=_parse_matrix(dom["distance"], "domain.distance"),
        occupancy_cap=caps,
        site_labels=labels,
        exclusion_diameter=None if exclusion is None else _parse_number(exclusion, "domain.exclusion_diameter"),
        total_cap=dom.get("total_cap"),
        total_exact=dom.get("total_exact"),
    )

    corr_raw = raw["correlations"]
    corr = CorrelationPair(
        rho1=_parse_vector(corr_raw.get("rho1"), "correlations.rho1"),
        rho2=_parse_matrix(corr_raw.get("rho2"), "correlations.rho2"),
    )
    if corr.site_count != domain.site_count:
        raise ValidationError("correlations do not match the domain size")

    group_dims = None
    group = raw.get("group")
    if group:
        dims = group.get("torus_dims") if isinstance(group, dict) else None
        if not dims or not isinstance(dims, list):
            raise ValidationError("group section needs torus_dims, an array of integers")
        try:
            # A bool or a float is refused, never truncated ([3.7, 3] is no
            # (3,3) torus), and every command refuses a dim below 1 here.
            group_dims = _torus_dims(dims)
        except ValidationError as exc:
            raise ValidationError(f"group.torus_dims: {exc}") from None

    families = raw.get("test_families")
    if families is not None and not isinstance(families, list):
        raise ValidationError(f"test_families must be an array, got {families!r}")
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
    if not isinstance(raw, dict) or any(key not in raw for key in ("f0", "f1", "f2")):
        raise ValidationError(f"{path}: certificate needs f0, f1 and f2")
    return QuadraticPolynomial(
        f0=_parse_number(raw["f0"], "f0"),
        f1=_parse_vector(raw["f1"], "f1"),
        f2=_parse_matrix(raw["f2"], "f2"),
    )


def _witness_payload(dist: Distribution) -> dict:
    return {
        "atoms": [
            {"occupancy": occupancy, "weight": _encode(weight)}
            for occupancy, (_, weight) in zip(dist.occupancy.tolist(), dist.atoms)
        ]
    }


def _verdict_payload(v) -> dict:
    return {
        "condition": v.condition_name,
        "test_function": v.test_function_id,
        "lhs": _encode(v.lhs),
        "rhs": _encode(v.rhs),
        "margin": _encode(v.margin),
        "passed": v.passed,
        "note": v.note,
    }


def _emit(report: dict, out_path) -> None:
    # Without an indent the standard library encodes in C.
    text = json.dumps(report, sort_keys=True)
    if not out_path:
        print(text)
        return
    try:
        Path(out_path).write_text(text + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write report: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def _proof(witness, certificate) -> tuple:
    """The verdict fields of a moment-LP result: a witness or a certificate."""
    if witness is not None:
        return True, {"verdict": "feasible", "witness": _witness_payload(witness)}
    coefficients = {k: _encode(getattr(certificate, k)) for k in ("f0", "f1", "f2")}
    return False, {"verdict": "infeasible", "certificate": coefficients}


# Each command takes the parsed flags, the loaded instance and the solver
# options, and returns ``(ok, report fields)``; ``main`` does the rest.


def cmd_check(args, instance, opts) -> tuple:
    result = check_realizability(instance["domain"], instance["correlations"], opts)
    return _proof(result.distribution, result.certificate)


def _parse_balls(value) -> tuple:
    try:
        return ("balls", float(_parse_number(value, "ball radius")))
    except OverflowError:  # an exact radius past the float range
        raise ValidationError(f"ball radius {value!r} has no float value") from None


def _parse_family(entry):
    if isinstance(entry, str):
        return _parse_balls(entry.split(":", 1)[1]) if entry.startswith("balls:") else entry
    if isinstance(entry, dict):
        # An object without its parameter is its bare kind, which the
        # battery refuses as it refuses --family balls.
        kind = entry.get("kind")
        if kind == "balls" and "radius" in entry:
            return _parse_balls(entry["radius"])
        if kind == "custom" and "functions" in entry:
            fns = entry["functions"]
            if not isinstance(fns, list) or not all(isinstance(w, dict) and "f" in w for w in fns):
                raise ValidationError("custom family needs a list of objects with an f array")
            return ("custom", [(w.get("id", f"custom{i}"), _parse_vector(w["f"], "family"))
                               for i, w in enumerate(fns)])
        return kind
    raise ValidationError(f"unknown test-function family {entry!r}")


def cmd_conditions(args, instance, opts) -> tuple:
    chosen = args.family or instance["test_families"] or ["singletons", "pairs"]
    families = [_parse_family(f) for f in chosen]
    battery = run_battery(instance["domain"], instance["correlations"], families)
    worst = None if battery.worst is None else _verdict_payload(battery.worst)
    return battery.overall, {
        "verdict": "feasible" if battery.overall else "infeasible",
        "conditions": {
            "overall": battery.overall,
            "worst": worst and {k: worst[k] for k in ("condition", "test_function", "margin")},
            "verdicts": [_verdict_payload(v) for v in battery.verdicts],
        },
    }


def cmd_third_moment(args, instance, opts) -> tuple:
    result = minimal_third_moment(instance["domain"], instance["correlations"], opts)
    ok, fields = _proof(result.witness, result.certificate)
    if result.finite:
        fields["r_star"] = _encode(result.r_star)
    return ok, fields


def cmd_stationary(args, instance, opts) -> tuple:
    dims = instance["group_dims"]
    if not dims:
        raise ValidationError("stationary check needs the group section's torus_dims")
    corr = instance["correlations"]
    result = check_realizability_stationary(instance["domain"], corr, translation_group(dims), opts)
    ok, fields = _proof(result.distribution, result.certificate)
    fields.update(group={"torus_dims": list(dims)}, stationary=True, reduced=None)
    try:  # check_realizability_stationary has checked stationarity
        reduced = _reduce_stationary(corr, dims)
    except ValidationError:  # zero density, or a g2 past the float range: reduced stays null
        return ok, fields
    fields["reduced"] = {
        "rho": _encode(reduced.rho),
        "g2": {
            ",".join(str(c) for c in disp): _encode(value)
            for disp, value in sorted(reduced.g2.items())
        },
    }
    return ok, fields


def cmd_certify(args, instance, opts) -> tuple:
    cert = load_certificate(args.certificate)
    # Exact replay: no tolerance, and so no float entry to apply one to.
    if opts.rational and not (instance["correlations"].is_exact and all(map(_is_exact_value, cert.coefficients()))):
        raise RationalInputError("rational mode requires int or Fraction certificate and correlation entries")
    tol = 0 if opts.rational else TOLERANCE
    # The instance's translation group, which the replay uses when it acts
    # on the domain and leaves the certificate invariant.
    group = translation_group(dims) if (dims := instance["group_dims"]) else None
    valid, configurations = _replay(instance["domain"], cert, instance["correlations"], tol, group=group)
    return valid, {
        "verdict": "valid" if valid else "invalid",
        "certificate_path": str(args.certificate),
        "replay_configurations": configurations,
    }


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("instance", help="instance file")
    rational = f"exact rational arithmetic (default: float, at tolerance {TOLERANCE:g})"
    common.add_argument("--rational", action="store_true", help=rational)
    common.add_argument("--out", help="report file (default: standard output)")

    parser = argparse.ArgumentParser(
        prog="realz",
        description="Decide realizability of prescribed correlation data on finite domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("check", "decide realizability", cmd_check),
        ("conditions", "run the necessary-condition battery", cmd_conditions),
        ("third-moment", "minimize the third factorial moment", cmd_third_moment),
        ("stationary", "orbit-reduced check plus reduced pair data", cmd_stationary),
        ("certify", "replay a certificate against an instance", cmd_certify),
    )
    for name, help_text, handler in commands:
        sub.add_parser(name, help=help_text, parents=[common]).set_defaults(handler=handler)
    sub.choices["conditions"].add_argument(
        "--family", action="append", help="singletons, pairs or balls:R in place of the file's test_families (repeatable)"
    )
    sub.choices["certify"].add_argument("certificate", help="certificate file to replay")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    path = Path(args.instance)
    try:
        opts = SolverOptions(arithmetic_mode="rational" if args.rational else "float")
        instance = load_instance(path)
        start = time.perf_counter()
        ok, fields = args.handler(args, instance, opts)
        # The bar the verdict compared at: an exact one compares at 0, the
        # battery at the float bar in both modes.
        tol = 0 if opts.rational and args.handler is not cmd_conditions else TOLERANCE
        options = {"tolerance": tol, "arithmetic_mode": opts.arithmetic_mode}
        report = {"schema_version": SCHEMA_VERSION, "command": args.command, "instance": str(path), "options": options}
        report.update(fields, timings={"seconds": time.perf_counter() - start})
        _emit(report, args.out)
    except RealizabilityError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK if ok else EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
