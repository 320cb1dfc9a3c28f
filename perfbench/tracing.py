"""Spans around the public layer functions of ``realz``, recorded from outside.

A :class:`Tracer` replaces each traced function with a timing wrapper in
every ``realz.*`` module namespace that holds it, so a call is traced no
matter which module it is reached through.  Spans are kept in memory and
turned into per-layer numbers when the run ends.  Functions called once
per configuration (``eval_quadratic``, ``factorial_power2``,
``is_admissible``) are deliberately not wrapped: their time is part of the
self time of the span that calls them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import Counter

#: (defining module, function name, layer) for every traced function.
TRACED = (
    ("realz.enumeration", "enumerate_configurations", "enumeration"),
    ("realz.enumeration", "range_of", "conditions"),
    ("realz.simplex", "solve", "simplex"),
    ("realz.solver", "check_realizability", "solver"),
    ("realz.solver", "minimal_third_moment", "solver"),
    ("realz.solver", "verify_certificate", "replay"),
    ("realz.stationary", "check_realizability_stationary", "stationary"),
    ("realz.conditions", "run_battery", "conditions"),
    ("realz.cli", "load_instance", "cli.load"),
    ("realz.cli", "load_certificate", "cli.load"),
    ("realz.generators", "bernoulli_product", "generators"),
    ("realz.generators", "hardcore_gibbs", "generators"),
    ("realz.generators", "truncated_poisson_product", "generators"),
    ("realz.generators", "two_atom_family", "generators"),
    ("realz.core", "correlations_of", "witness"),
)

LAYER_OF = {f"{mod.split('.')[-1]}.{name}": layer for mod, name, layer in TRACED}


def domain_key(domain) -> str:
    """Content hash of a domain, so equal domains built twice count as one."""
    digest = hashlib.sha1(domain.distance.tobytes())
    digest.update(
        repr(
            (
                domain.occupancy_cap,
                domain.exclusion_diameter,
                domain.total_cap,
                domain.total_exact,
            )
        ).encode()
    )
    return digest.hexdigest()[:16]


def _attributes(name: str, args, result) -> dict:
    if name == "simplex.solve":
        A, b = args[0], args[1]
        rows = len(b)
        cols = len(A[0]) if rows else 0
        return {"rows": rows, "cols": cols, "pivots": result.iterations}
    if name == "enumeration.enumerate_configurations":
        return {"configs": len(result), "domain": domain_key(args[0])}
    if name == "conditions.run_battery":
        return {"verdicts": len(result.verdicts)}
    return {}


class Tracer:
    """Timing wrappers plus the spans they record.

    A span is ``[name, parent, op, start, end, attrs]``; ``parent`` indexes
    another span (or is ``None``) and ``op`` is the id of the operation the
    span belongs to (``None`` during set-up).
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []
        self.op = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            return
        for home, fname, _ in TRACED:
            original = getattr(sys.modules[home], fname)
            wrapper = self._wrap(f"{home.split('.')[-1]}.{fname}", original)
            for modname, module in list(sys.modules.items()):
                if module is None or not (modname == "realz" or modname.startswith("realz.")):
                    continue
                if getattr(module, fname, None) is original:
                    setattr(module, fname, wrapper)
                    self._restore.append((module, fname, original))

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._restore):
            setattr(module, fname, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else None, self.op, clock(), None, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = clock()
                span[5] = {"error": True}
                raise
            finally:
                stack.pop()
            span[4] = clock()
            span[5] = _attributes(name, args, result)
            return result

        return traced

    # -- spans opened by the harness ---------------------------------------

    def open(self, name: str, op) -> int:
        self.op = op
        index = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else None, op, time.perf_counter(), None, {}])
        self._stack.append(index)
        return index

    def close(self, index: int, **attrs) -> None:
        self._stack.pop()
        span = self.spans[index]
        span[4] = time.perf_counter()
        span[5].update(attrs)
        self.op = None

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list:
        """Duration of each span minus the time its direct children cover."""
        own = [s[4] - s[3] for s in self.spans]
        for span in self.spans:
            if span[1] is not None:
                own[span[1]] -= span[4] - span[3]
        return own

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for index, (name, parent, op, start, end, attrs) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "parent": parent,
                            "op": op,
                            "start": start,
                            "end": end,
                            "attrs": attrs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )

    def op_counts(self) -> dict:
        """Per-op counts that repeat exactly for the same inputs."""
        counts: dict = {}
        for name, parent, op, _, _, attrs in self.spans:
            if op is None:
                continue
            entry = counts.setdefault(
                op, {"lp": [], "pivots": 0, "configs": 0, "orbits": 0}
            )
            if name == "simplex.solve" and "rows" in attrs:
                entry["lp"].append(f"{attrs['rows']}x{attrs['cols']}")
                entry["pivots"] += attrs["pivots"]
                if parent is not None and self.spans[parent][0] == "stationary.check_realizability_stationary":
                    entry["orbits"] += attrs["cols"]
            elif name == "enumeration.enumerate_configurations" and "configs" in attrs:
                entry["configs"] += attrs["configs"]
        return counts


def layer_metrics(tracer: Tracer, ops: list, setup_ops: set) -> dict:
    """Per-layer metrics over the traced operations ``ops``.

    ``ops`` holds the op records of the traced rounds (each with ``id``,
    ``seconds``, ``fail`` and, for CLI ops, ``report_bytes``).  Seconds and
    counts are averaged per op, so runs of different length compare.
    ``setup_ops`` holds the span op ids used while generating round 0.
    """
    spans = tracer.spans
    own = tracer.self_times()
    op_ids = {rec["id"] for rec in ops}
    n_ops = max(len(ops), 1)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    pivots = cells = configs = 0
    domains = set()
    orbits = stationary_configs = 0
    verdicts = 0
    solver_spans = solver_shortcuts = 0
    generators_s = 0.0
    has_simplex_child = set()
    has_enum_child = set()
    for index, (name, parent, op, start, end, attrs) in enumerate(spans):
        if name == "simplex.solve" and parent is not None:
            has_simplex_child.add(parent)
        if name == "enumeration.enumerate_configurations" and parent is not None:
            has_enum_child.add(parent)
    for index, (name, parent, op, start, end, attrs) in enumerate(spans):
        layer = LAYER_OF.get(name)
        if op in setup_ops:
            if layer in ("generators", "witness"):
                generators_s += own[index]
            continue
        if op not in op_ids:
            continue
        if name == "op.cli":
            layer = "cli.self"
        if layer is None:
            layer = "bench"
        self_s[layer] += own[index]
        calls[name] += 1
        parent_name = spans[parent][0] if parent is not None else None
        if name == "simplex.solve" and "rows" in attrs:
            m, n = attrs["rows"], attrs["cols"]
            pivots += attrs["pivots"]
            cells += m * (n + m + 1)
            if parent_name == "stationary.check_realizability_stationary":
                orbits += n
        elif name == "enumeration.enumerate_configurations" and "configs" in attrs:
            configs += attrs["configs"]
            domains.add(attrs["domain"])
            if parent_name == "stationary.check_realizability_stationary":
                stationary_configs += attrs["configs"]
        elif name == "conditions.run_battery":
            verdicts += attrs.get("verdicts", 0)
        if layer == "solver":
            solver_spans += 1
            if index not in has_simplex_child and index not in has_enum_child:
                solver_shortcuts += 1

    op_seconds = sum(rec["seconds"] for rec in ops)
    simplex_calls = calls["simplex.solve"]
    enum_calls = calls["enumeration.enumerate_configurations"]
    fails = Counter(rec["fail"] for rec in ops if rec["fail"])
    per_op = lambda value: value / n_ops  # noqa: E731
    metrics = {
        "simplex.calls": (per_op(simplex_calls), "calls/op"),
        "simplex.pivots": (per_op(pivots), "pivots/op"),
        "simplex.s": (per_op(self_s["simplex"]), "s/op"),
        "simplex.s_per_pivot": (self_s["simplex"] / pivots if pivots else 0.0, "s/pivot"),
        "simplex.cells": (per_op(cells), "cells/op"),
        "enumeration.calls": (per_op(enum_calls), "calls/op"),
        "enumeration.configs": (per_op(configs), "configs/op"),
        "enumeration.s": (per_op(self_s["enumeration"]), "s/op"),
        "enumeration.distinct_ratio": (len(domains) / enum_calls if enum_calls else 0.0, "ratio"),
        "solver.self_s": (per_op(self_s["solver"]), "s/op"),
        "solver.shortcut_ratio": (solver_shortcuts / solver_spans if solver_spans else 0.0, "ratio"),
        "stationary.self_s": (per_op(self_s["stationary"]), "s/op"),
        "stationary.orbits": (per_op(orbits), "orbits/op"),
        "stationary.orbit_ratio": (orbits / stationary_configs if stationary_configs else 0.0, "ratio"),
        "replay.calls": (per_op(calls["solver.verify_certificate"]), "calls/op"),
        "replay.s": (per_op(self_s["replay"]), "s/op"),
        "witness.s": (per_op(self_s["witness"]), "s/op"),
        "conditions.s": (per_op(self_s["conditions"]), "s/op"),
        "conditions.range_calls": (per_op(calls["enumeration.range_of"]), "calls/op"),
        "conditions.verdicts": (per_op(verdicts), "verdicts/op"),
        "cli.calls": (per_op(calls["op.cli"]), "calls/op"),
        "cli.load_s": (per_op(self_s["cli.load"]), "s/op"),
        "cli.self_s": (per_op(self_s["cli.self"]), "s/op"),
        "cli.report_bytes": (per_op(sum(rec.get("report_bytes", 0) for rec in ops)), "bytes/op"),
        "generators.s": (generators_s, "s"),
        "fail.replay": (per_op(fails["replay"]), "fails/op"),
        "fail.verdict": (per_op(fails["verdict"]), "fails/op"),
        "fail.error": (per_op(fails["error"]), "fails/op"),
    }
    shares = {
        layer: seconds / op_seconds if op_seconds else 0.0
        for layer, seconds in sorted(self_s.items())
    }
    return metrics, shares
