"""Closed-form necessary conditions from one-parameter observable families.

For a linear observable ``f`` with mean ``E`` and variance ``V`` computed
from the prescribed correlations, every quadratic in ``<f, .>`` that is
nonnegative on the observable's value range ``F`` yields a necessary
condition.  Three extremal choices dominate all others:

* gap condition: ``V >= (x_plus - E)(E - x_minus)`` for the tightest
  bracket ``x_minus <= E <= x_plus`` in ``F`` (reduces to ``V >= 0`` when
  ``E`` is itself attainable),
* upper condition: ``V <= (max F - E)(E - min F)``,
* mean bounds: ``min F <= E <= max F``.

All are necessary only; the battery can pass on instances the exact
feasibility check refutes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from numbers import Real
from typing import Sequence

import numpy as np

from . import enumeration
from .core import CorrelationPair, Domain, Scalar, _as_vector, _pyscalar
from .enumeration import DEFAULT_LIMIT, RangeSet, _range_set, range_of
from .errors import DimensionError, ValidationError

#: Margins above this (negative) threshold count as a pass.
PASS_TOL = 1e-9


@dataclass(frozen=True)
class ConditionVerdict:
    """One condition evaluated on one test function.

    ``margin`` is oriented so nonnegative means pass; ``lhs`` and ``rhs``
    are the two sides of the inequality in that orientation
    (``margin = lhs - rhs``).
    """

    condition_name: str
    test_function_id: str
    lhs: Scalar
    rhs: Scalar
    margin: Scalar
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class ConditionReport:
    verdicts: tuple
    overall: bool
    worst: ConditionVerdict | None

    @classmethod
    def from_verdicts(cls, verdicts) -> "ConditionReport":
        verdicts = tuple(verdicts)
        overall = all(v.passed for v in verdicts)
        worst = min(verdicts, key=lambda v: v.margin, default=None)
        return cls(verdicts=verdicts, overall=overall, worst=worst)


def mean_and_variance(corr: CorrelationPair, f: Sequence[Scalar]) -> tuple:
    """Mean and variance of ``<f, .>`` under any realization of ``corr``.

    ``V = f.rho2.f + sum f_i^2 rho1_i - E^2``; the factorial diagonal of
    ``rho2`` makes the middle term carry the self-pair contribution.
    """
    fv = _as_vector(f, "f")
    if fv.shape[0] != corr.site_count:
        raise DimensionError("observable length does not match correlations")
    mean = _pyscalar((fv * corr.rho1).sum())
    var = _pyscalar(fv @ corr.rho2 @ fv) + _pyscalar((fv * fv * corr.rho1).sum()) - mean * mean
    return mean, var


def _verdict(name, label, lhs, rhs, note="") -> ConditionVerdict:
    margin = lhs - rhs
    return ConditionVerdict(
        condition_name=name,
        test_function_id=label,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        passed=margin >= -PASS_TOL,
        note=note,
    )


def check_variance(
    corr: CorrelationPair, f: Sequence[Scalar], label: str = "f"
) -> ConditionVerdict:
    """Nonnegativity of the variance of ``<f, .>``."""
    _, var = mean_and_variance(corr, f)
    return _verdict("variance", label, var, 0)


def _bracket(values: Sequence[Scalar], mean: Scalar):
    """Nearest range values below and above the mean, or None outside."""
    if mean < values[0]:
        return (values[0], values[0]) if values[0] - mean <= PASS_TOL else None
    if mean > values[-1]:
        return (values[-1], values[-1]) if mean - values[-1] <= PASS_TOL else None
    return values[bisect_right(values, mean) - 1], values[bisect_left(values, mean)]


def _extremal_verdicts(corr, f, rset: RangeSet, label: str) -> tuple:
    """Gap, upper and mean-bound verdicts of one test function, all three
    from one ``(mean, variance, range)`` triple."""
    mean, var = mean_and_variance(corr, f)
    lo, hi = rset.min, rset.max
    bounds = _verdict("mean_bounds", label, min(mean - lo, hi - mean), 0)
    upper = _verdict("upper", label, (hi - mean) * (mean - lo), var)
    bracket = _bracket(rset.values, mean)
    if bracket is None:
        note = "delegated to mean bounds: mean outside attainable range"
        gap = replace(bounds, condition_name="gap", passed=False, note=note)
    else:
        below, above = bracket
        gap = _verdict("gap", label, var, (above - mean) * (mean - below))
    return gap, upper, bounds


def check_gap(
    corr: CorrelationPair,
    f: Sequence[Scalar],
    domain: Domain,
    label: str = "f",
    limit: int = DEFAULT_LIMIT,
) -> ConditionVerdict:
    """Gap condition ``V >= (x_plus - E)(E - x_minus)``.

    For integer-valued window indicators the bracket is ``floor``/``ceil``
    of the mean, the classical bound for particle counts.  When the mean
    falls outside the attainable range the bound has no defined form, so
    the verdict delegates to the mean-bound failure and is flagged.
    """
    return _extremal_verdicts(corr, f, range_of(f, domain, limit=limit), label)[0]


def check_upper(
    corr: CorrelationPair,
    f: Sequence[Scalar],
    domain: Domain,
    label: str = "f",
    limit: int = DEFAULT_LIMIT,
) -> ConditionVerdict:
    """Upper bound ``V <= (max F - E)(E - min F)``."""
    return _extremal_verdicts(corr, f, range_of(f, domain, limit=limit), label)[1]


def check_mean_bounds(
    corr: CorrelationPair,
    f: Sequence[Scalar],
    domain: Domain,
    label: str = "f",
    limit: int = DEFAULT_LIMIT,
) -> ConditionVerdict:
    """Mean confined to the attainable range of the observable."""
    return _extremal_verdicts(corr, f, range_of(f, domain, limit=limit), label)[2]


def _ball_windows(domain: Domain, radius: float) -> list:
    windows = []
    seen = set()
    for center in range(domain.site_count):
        radii = sorted({d for d in domain.distance[center].tolist() if d <= radius})
        for r in radii:
            members = frozenset(
                j for j in range(domain.site_count) if domain.distance[center, j] <= r
            )
            if members in seen:
                continue
            seen.add(members)
            windows.append((f"ball(center={center},r={r:g})", members))
    return windows


def family_functions(domain: Domain, family) -> list:
    """Expand a family descriptor into labeled test functions.

    Built-in descriptors: ``"singletons"``, ``"pairs"``,
    ``("balls", radius)`` and ``("custom", [(label, f), ...])``.
    """
    s = domain.site_count

    def indicator(sites) -> np.ndarray:
        f = np.zeros(s)
        f[list(sites)] = 1.0
        return f

    if family == "singletons":
        return [(f"site({i})", indicator([i])) for i in range(s)]
    if family == "pairs":
        return [
            (f"pair({i},{j})", indicator([i, j]))
            for i in range(s)
            for j in range(i + 1, s)
        ]
    if isinstance(family, (tuple, list)) and len(family) == 2:
        kind, arg = family
        if kind == "balls" and isinstance(arg, Real) and not isinstance(arg, bool):
            return [(label, indicator(members)) for label, members in _ball_windows(domain, float(arg))]
        if kind == "custom" and isinstance(arg, (tuple, list)) and all(
            isinstance(item, (tuple, list)) and len(item) == 2 for item in arg
        ):
            return [(str(label), _as_vector(f, "f")) for label, f in arg]
    if family == "balls":
        raise ValidationError("the balls family needs a radius: balls:R, or ('balls', R)")
    if family == "custom":
        raise ValidationError("the custom family needs its functions: ('custom', [(label, f), ...])")
    raise ValidationError(f"unknown or malformed test-function family {family!r}")


def run_battery(
    domain: Domain,
    corr: CorrelationPair,
    family=None,
    limit: int = DEFAULT_LIMIT,
) -> ConditionReport:
    """Evaluate the extremal conditions over one or more families.

    ``family`` is a single descriptor or a sequence of them; the default is
    all singletons followed by all pairs; ``["balls", "pairs"]`` is two
    descriptors, not ``("balls", radius)``.  Verdicts appear in declaration
    order, three per test function (gap, upper, mean bounds).
    """
    if family is None:
        families = ["singletons", "pairs"]
    elif isinstance(family, str) or (
        isinstance(family, (tuple, list))
        and len(family) == 2
        and isinstance(family[0], str)
        and family[0] in ("balls", "custom")
        and not isinstance(family[1], str)
    ):
        families = [family]
    else:
        families = list(family)

    functions = [item for desc in families for item in family_functions(domain, desc)]
    if not functions:
        return ConditionReport.from_verdicts(())
    X = enumeration.enumerate_configurations(domain, limit)
    return ConditionReport.from_verdicts(
        v for label, f in functions for v in _extremal_verdicts(corr, f, _range_set(f, X), label)
    )
