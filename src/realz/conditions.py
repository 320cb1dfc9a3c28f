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

from dataclasses import dataclass
from numbers import Real
from typing import Sequence

import numpy as np

from . import enumeration
from .core import CorrelationPair, Domain, Scalar, _all_finite, _as_vector, _blocks, _pyscalar
from .enumeration import _range_set
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


def _moments(F: np.ndarray, corr: CorrelationPair) -> tuple:
    """Means and variances of ``<f, .>`` for the rows ``f`` of ``F``.

    ``V = f.rho2.f + sum f_i^2 rho1_i - E^2``; the factorial diagonal of
    ``rho2`` makes the middle term carry the self-pair contribution.  The
    stacked product rounds each row as ``f @ rho2 @ f`` does alone."""
    if F.shape[1] != corr.site_count:
        raise DimensionError("observable length does not match correlations")
    mean = (F * corr.rho1).sum(axis=1)
    quadratic = (F[:, None] @ corr.rho2 @ F[:, :, None])[:, 0, 0]
    return mean, quadratic + (F * F * corr.rho1).sum(axis=1) - mean * mean


def mean_and_variance(corr: CorrelationPair, f: Sequence[Scalar]) -> tuple:
    """Mean and variance of ``<f, .>`` under any realization of ``corr``."""
    mean, var = _moments(_as_vector(f, "f")[None], corr)
    return _pyscalar(mean[0]), _pyscalar(var[0])


def _verdict(name, label, lhs, rhs) -> ConditionVerdict:
    margin = lhs - rhs
    return ConditionVerdict(name, label, lhs, rhs, margin, margin >= -PASS_TOL)


def check_variance(
    corr: CorrelationPair, f: Sequence[Scalar], label: str = "f"
) -> ConditionVerdict:
    """Nonnegativity of the variance of ``<f, .>``."""
    _, var = mean_and_variance(corr, f)
    return _verdict("variance", label, var, 0)


def _extremes(V: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Per row of ``V``: the least and greatest entry, the greatest at most
    the mean (else the least) and the least at least it (else the greatest).
    All are entries, so the blocks' columns side by side reduce to ``V``'s."""
    lo, hi = V.min(axis=1), V.max(axis=1)
    below = np.where(V <= mean[:, None], V, lo[:, None]).max(axis=1)
    above = np.where(V >= mean[:, None], V, hi[:, None]).min(axis=1)
    return np.stack([lo, hi, below, above], axis=1)


def _ranges(F: np.ndarray, X: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """:func:`_extremes` of each row's values over ``X``.  Integer rows whose
    values stay below 2**53 sum exactly in any order: ``F @ X.T`` in blocks
    of configurations.  Others keep the row sums and merging of ``range_of``."""
    exact = (F % 1 == 0).all(axis=1) & (np.abs(F) @ X.max(axis=0) < 2.0**53)
    out = np.empty((len(F), 4), dtype=np.result_type(F, X))
    if exact.any():
        G, m = F[exact], mean[exact]
        parts = [_extremes(G @ X[rows].T.astype(out.dtype), m) for rows in _blocks(len(X), len(G) + X.shape[1])]
        out[exact] = _extremes(np.hstack(parts), m)
    for k in np.flatnonzero(~exact):
        out[k] = _extremes(np.array([_range_set(F[k], X).values]), mean[k : k + 1])[0]
    return out


def _battery(corr: CorrelationPair, functions: list, X: np.ndarray) -> list:
    """Gap, upper and mean-bound verdicts over the configurations ``X``, three
    per ``(label, f)`` of ``functions`` in order, a stack per dtype at once."""
    vectors = [_as_vector(f, "f") for _, f in functions]
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
    for (label, _), (mean, var, (lo, hi, below, above)) in zip(functions, columns):
        bounds = _verdict("mean_bounds", label, min(mean - lo, hi - mean), 0)
        if lo - mean > PASS_TOL or mean - hi > PASS_TOL:
            note = "delegated to mean bounds: mean outside attainable range"
            gap = ConditionVerdict("gap", label, bounds.lhs, bounds.rhs, bounds.margin, False, note)
        else:
            gap = _verdict("gap", label, var, (above - mean) * (mean - below))
        verdicts += (gap, _verdict("upper", label, (hi - mean) * (mean - lo), var), bounds)
    return verdicts


def check_gap(
    corr: CorrelationPair,
    f: Sequence[Scalar],
    domain: Domain,
    label: str = "f",
) -> ConditionVerdict:
    """Gap condition ``V >= (x_plus - E)(E - x_minus)``.

    For integer-valued window indicators the bracket is ``floor``/``ceil``
    of the mean, the classical bound for particle counts.  When the mean
    falls outside the attainable range the bound has no defined form, so
    the verdict delegates to the mean-bound failure and is flagged.
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
    X = enumeration.enumerate_configurations(domain)
    return ConditionReport.from_verdicts(_battery(corr, functions, X))
