"""Closed-form necessary conditions from one-parameter observable families.

For a linear observable ``f`` with mean ``E`` and variance ``V`` computed
from the prescribed correlations, every quadratic in ``<f, .>`` that is
nonnegative on the observable's value range ``F`` yields a necessary
condition.  Three extremal choices dominate all others:

* gap condition: ``V >= (c - E)(E - a)`` for the bracket ``a <= E < c``
  in ``F`` (``a = c`` past an end; ``V >= 0`` when ``E`` is attainable),
* upper condition: ``V <= (max F - E)(E - min F)``,
* mean bounds: ``min F <= E <= max F``.

All are necessary only; the battery can pass on instances the exact
feasibility check refutes.  At ``f = 1`` the gap and upper conditions are
the count hull that the realizability check tries before its LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Sequence

import numpy as np

from . import enumeration
from .core import (
    TOLERANCE, CorrelationPair, Domain, Scalar, _all_finite, _as_vector, _blocks, _float_entries, _floated,
    _is_exact_array, _pyscalar, _real_entries,
)
from .errors import DimensionError, ValidationError


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


@np.errstate(over="ignore", invalid="ignore")  # a result past the float range is refused, not warned about
def _moments(F: np.ndarray, corr: CorrelationPair) -> tuple:
    """Means and variances of ``<f, .>`` for the rows ``f`` of ``F``.

    ``V = f.rho2.f + sum f_i^2 rho1_i - E^2``; the factorial diagonal of
    ``rho2`` makes the middle term carry the self-pair contribution.  One
    rule: exact when the rows and both tables are exact, else float64, each
    entry read once as its float value.  The stacked product rounds each
    row as ``f @ rho2 @ f`` does alone.  A float mean or variance that
    overflows is refused with :class:`ValidationError`."""
    if F.shape[1] != corr.site_count:
        raise DimensionError("observable length does not match correlations")
    _float_entries("correlation entries", corr.rho1, corr.rho2)
    exact = corr.is_exact and _is_exact_array(F)
    if not exact and F.dtype == object:
        _float_entries("test function entries and their squares", F, F * F)
    F, rho1, rho2 = (np.asarray(a, dtype=object if exact else float) for a in (F, corr.rho1, corr.rho2))
    mean = (F * rho1).sum(axis=1)
    var = (F[:, None] @ rho2 @ F[:, :, None])[:, 0, 0] + (F * F * rho1).sum(axis=1) - mean * mean
    if not (_all_finite(mean) and _all_finite(var)):
        raise ValidationError("test function means and variances must lie within the float range")
    return mean, var


def _test_function(f) -> np.ndarray:
    """``f`` as a vector, refused unless every entry is a real number; a
    ``Decimal`` entry is read as its float value."""
    vector = _as_vector(f, "f")
    return _floated(vector, _real_entries("test function entries", f))


def mean_and_variance(corr: CorrelationPair, f: Sequence[Scalar]) -> tuple:
    """Mean and variance of ``<f, .>`` under any realization of ``corr``."""
    mean, var = _moments(_test_function(f)[None], corr)
    return _pyscalar(mean[0]), _pyscalar(var[0])


def _verdict(name, label, lhs, rhs) -> ConditionVerdict:
    """A finite margin has finite sides, so refusing any other refuses an
    overflowing side too."""
    margin = lhs - rhs
    if isinstance(margin, float) and not math.isfinite(margin):  # an exact margin is finite
        raise ValidationError("condition sides and margins must lie within the float range")
    return ConditionVerdict(name, label, lhs, rhs, margin, margin >= -TOLERANCE)


def check_variance(
    corr: CorrelationPair, f: Sequence[Scalar], label: str = "f"
) -> ConditionVerdict:
    """Nonnegativity of the variance of ``<f, .>``."""
    _, var = mean_and_variance(corr, f)
    return _verdict("variance", label, var, 0)


def _extremes(V: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Per row of values ``V``: the least and greatest, the greatest at most
    ``mean`` (else the least) and the least above it (else the greatest).
    All are values, so the blocks' columns side by side reduce to ``V``'s.
    An integer row compares with a float mean exactly as with its floor, so
    only an exact mean is floored, and never compared as a ``Fraction``."""
    lo, hi = V.min(axis=1, keepdims=True), V.max(axis=1, keepdims=True)
    if V.dtype.kind in "iu" and mean.dtype == object:  # in int64 when every floor fits: numpy's int64 loop
        floors = list(map(math.floor, mean.tolist()))
        mean = np.array(floors, dtype=np.int64 if -(2**63) <= min(floors) and max(floors) < 2**63 else object)
    at_most = V <= mean[:, None]
    a, c = np.where(at_most, V, lo).max(axis=1, keepdims=True), np.where(at_most, hi, V).min(axis=1, keepdims=True)
    return np.concatenate([lo, hi, a, c], axis=1)


def _ranges(F: np.ndarray, X: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """:func:`_extremes` of each row's values over ``X``, the values ``F @
    X.T`` in blocks of configurations: float rows in float64, exact rows
    exactly, integer rows in int64, or in Python ints past its bound."""
    if F.dtype.kind in "iu":
        # No value exceeds a row's largest entry times the sum of the sites'
        # largest counts: int64 when that fits, else Python ints.
        largest = max(-int(F.min(initial=0)), int(F.max(initial=0)))
        F = F.astype(np.int64 if largest * sum(X.max(axis=0).tolist()) <= 2**63 - 1 else object)
    dtype = np.result_type(F, X)
    parts = [_extremes(F @ X[rows].T.astype(dtype), mean) for rows in _blocks(len(X), len(F) + X.shape[1])]
    return _extremes(np.hstack(parts), mean)


def _battery(corr: CorrelationPair, functions: list, X: np.ndarray) -> list:
    """Gap, upper and mean-bound verdicts over the configurations ``X``, three
    per ``(label, f)`` of ``functions`` in order, a stack per dtype at once."""
    vectors = [_test_function(f) for _, f in functions]
    if any(fv.shape[0] != X.shape[1] for fv in vectors):
        raise DimensionError("observable length does not match domain")
    if not len(X):
        raise ValidationError("domain admits no configurations; range is empty")
    columns = [None] * len(vectors)
    for dtype in dict.fromkeys(fv.dtype for fv in vectors):
        index = [k for k, fv in enumerate(vectors) if fv.dtype == dtype]
        F = np.stack([vectors[k] for k in index])
        if not _all_finite(F):
            raise ValidationError("test function entries must be finite")
        mean, var = _moments(F, corr)
        for k, *column in zip(index, mean.tolist(), var.tolist(), _ranges(F, X, mean).tolist()):
            columns[k] = column
    verdicts = []
    for (label, _), (mean, var, (lo, hi, a, c)) in zip(functions, columns):
        bounds = _verdict("mean_bounds", label, min(mean - lo, hi - mean), 0)
        if lo - mean > TOLERANCE or mean - hi > TOLERANCE:
            note = "delegated to mean bounds: mean outside attainable range"
            gap = ConditionVerdict("gap", label, bounds.lhs, bounds.rhs, bounds.margin, False, note)
        else:
            gap = _verdict("gap", label, var, (c - mean) * (mean - a))
        verdicts += (gap, _verdict("upper", label, (hi - mean) * (mean - lo), var), bounds)
    return verdicts


def check_gap(
    corr: CorrelationPair,
    f: Sequence[Scalar],
    domain: Domain,
    label: str = "f",
) -> ConditionVerdict:
    """Gap condition ``V >= (c - E)(E - a)``.

    For a window count attaining all counts in its range the bracket is
    ``floor(E)``, ``floor(E) + 1``, the classical bound for particle counts.
    Outside the attainable range the bound has no defined form, so the
    verdict delegates to the mean-bound failure and is flagged.
    """
    return _battery(corr, [(label, f)], enumeration.enumerate_configurations(domain))[0]


def check_upper(
    corr: CorrelationPair,
    f: Sequence[Scalar],
    domain: Domain,
    label: str = "f",
) -> ConditionVerdict:
    """Upper bound ``V <= (max F - E)(E - min F)``."""
    return _battery(corr, [(label, f)], enumeration.enumerate_configurations(domain))[1]


def check_mean_bounds(
    corr: CorrelationPair,
    f: Sequence[Scalar],
    domain: Domain,
    label: str = "f",
) -> ConditionVerdict:
    """Mean confined to the attainable range of the observable."""
    return _battery(corr, [(label, f)], enumeration.enumerate_configurations(domain))[2]


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
    ``("balls", radius)`` and ``("custom", [(label, f), ...])``.  A radius
    is nonnegative; an infinite one takes every site.
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
            if not arg >= 0:  # NaN fails this too
                raise ValidationError(f"ball radius must be nonnegative, got {arg!r}")
            try:
                radius = float(arg)
            except OverflowError:  # an exact radius past the float range
                raise ValidationError(f"ball radius {arg!r} has no float value") from None
            return [(label, indicator(members)) for label, members in _ball_windows(domain, radius)]
        if kind == "custom" and isinstance(arg, (tuple, list)) and all(
            isinstance(item, (tuple, list)) and len(item) == 2 for item in arg
        ):
            return [(str(label), _test_function(f)) for label, f in arg]
    if family == "balls":
        raise ValidationError("the balls family needs a radius: balls:R, or ('balls', R)")
    if family == "custom":
        raise ValidationError("the custom family needs its functions: ('custom', [(label, f), ...])")
    raise ValidationError(f"unknown or malformed test-function family {family!r}")


def run_battery(
    domain: Domain,
    corr: CorrelationPair,
    family=None,
) -> ConditionReport:
    """Evaluate the extremal conditions over one or more families.

    ``family`` is a single descriptor or a sequence of them; the default is
    all singletons followed by all pairs; ``["balls", "pairs"]`` is two
    descriptors, not ``("balls", radius)``.  Verdicts appear in declaration
    order, three per test function (gap, upper, mean bounds).  A NaN or
    infinite table entry, or an exact one past the float range, is refused
    whatever the family.
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
        _float_entries("correlation entries", corr.rho1, corr.rho2)
        return ConditionReport.from_verdicts(())
    X = enumeration.enumerate_configurations(domain)
    return ConditionReport.from_verdicts(_battery(corr, functions, X))
