"""Dense two-phase simplex for equality-form programs.

Solves ``minimize c.x  subject to  A x = b, x >= 0`` on one 2-D numpy
tableau whose last row holds the reduced costs.  The tableau is ``float64``
in float mode and holds exact ``fractions.Fraction`` objects in rational
mode; the same code runs both.  Dantzig pivoting with a stall guard that
falls back to Bland's rule (or pure Bland on request), duals read off the
artificial columns.

Sign convention for infeasibility, fixed here and relied on downstream: the
returned ``farkas_dual`` vector ``y`` satisfies

    y . A >= 0   componentwise (within tolerance in float mode)
    y . b <  0

so any ``x >= 0`` with ``A x = b`` would give the contradiction
``0 <= (y.A).x = y.b < 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Scalar, _pyscalar
from .errors import (
    DimensionError,
    IterationLimitError,
    RationalInputError,
    UnboundedObjectiveError,
)


@dataclass(frozen=True)
class LinearProgramResult:
    """Feasibility outcome of ``A x = b, x >= 0`` plus optional optimization."""

    feasible: bool
    solution: tuple | None = None
    dual: tuple | None = None
    farkas_dual: tuple | None = None
    objective_value: Scalar | None = None
    iterations: int = 0


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return Fraction(int(value))
    if isinstance(value, str):
        return Fraction(value)
    raise RationalInputError(f"not an exact rational: {value!r}")


def _as_array(values, rational: bool) -> np.ndarray:
    """Input entries as ``float64``, or as ``Fraction`` objects."""
    if rational:
        return np.frompyfunc(_to_fraction, 1, 1)(np.asarray(values, dtype=object))
    return np.asarray(values, dtype=float)


def solve(
    A,
    b,
    objective=None,
    *,
    rational: bool = False,
    tolerance: float = 1e-9,
    pivot_rule: str = "dantzig",
    max_iterations: int = 50_000,
) -> LinearProgramResult:
    """Decide feasibility and optionally minimize ``objective`` over it.

    Rows of ``A`` are equality constraints; variables are implicitly
    nonnegative.  In rational mode every input entry must be an ``int``,
    ``Fraction`` or fraction string, comparisons are exact, and the
    tolerance is ignored.
    """
    if pivot_rule not in ("bland", "dantzig"):
        raise ValueError(f"unknown pivot rule {pivot_rule!r}")
    dtype = object if rational else float
    zero = Fraction(0) if rational else 0.0
    one = Fraction(1) if rational else 1.0
    tol = Fraction(0) if rational else tolerance

    m = len(b)
    n = len(A[0]) if m else (len(objective) if objective is not None else 0)
    if len(A) != m or any(len(row) != n for row in A):
        raise DimensionError("constraint matrix is ragged or does not match the right-hand side")
    if objective is not None and len(objective) != n:
        raise DimensionError("objective length does not match variable count")
    cvec = None if objective is None else _as_array(objective, rational)

    if m == 0:
        value = None
        if cvec is not None:
            if (cvec < -tol).any():
                raise UnboundedObjectiveError("unconstrained negative objective direction")
            value = zero
        return LinearProgramResult(feasible=True, solution=(zero,) * n, dual=(), objective_value=value)

    # Flip rows so the right-hand side is nonnegative; remember the signs
    # to map duals back to the original orientation.  Columns: n
    # structural, m artificial, then the right-hand side; the last row
    # holds the reduced costs and minus the objective value.
    bvec = _as_array(b, rational)
    signs = np.full(m, one, dtype=dtype)
    signs[bvec < zero] = -one
    width = n + m + 1
    T = np.full((m + 1, width), zero, dtype=dtype)
    T[:m, :n] = signs[:, None] * _as_array(A, rational)
    T[np.arange(m), n + np.arange(m)] = one
    T[:m, -1] = signs * bvec
    basis = np.arange(n, n + m)

    iterations = 0
    rule = pivot_rule
    stall = 0
    stall_limit = 2 * (m + n) + 16

    def price(costs: np.ndarray, basic_costs: np.ndarray) -> None:
        """Reduced costs of ``costs`` (one per column) under the current basis."""
        nz = (basic_costs != zero).nonzero()[0]
        T[m] = costs - (basic_costs[nz, None] * T[nz]).sum(axis=0)

    def pivot(r: int, c: int) -> None:
        inv = one / T[r, c]
        if inv != one:
            T[r] *= inv
        rows = (T[:, c] != zero).nonzero()[0]
        rows = rows[rows != r]
        cols = (T[r] != zero).nonzero()[0]
        T[rows[:, None], cols] -= T[rows, c][:, None] * T[r, cols]
        basis[r] = c

    def entering(limit_col: int):
        costs = T[m, :limit_col]
        candidates = (costs < -tol).nonzero()[0]
        if not len(candidates):
            return None
        if rule == "bland":
            return candidates[0]
        return candidates[np.argmin(costs[candidates])]

    def leaving(c: int):
        column = T[:m, c]
        candidates = (column > tol).nonzero()[0]
        if not len(candidates):
            return None
        ratios = T[candidates, -1] / column[candidates]
        ties = candidates[ratios == ratios.min()]
        return ties[np.argmin(basis[ties])] if rule == "bland" else ties[0]

    def run(limit_col: int, phase: str) -> None:
        nonlocal iterations, rule, stall
        while True:
            c = entering(limit_col)
            if c is None:
                return
            r = leaving(c)
            if r is None:
                raise UnboundedObjectiveError("objective unbounded below")
            z_cell = T[m, -1]
            pivot(r, c)
            iterations += 1
            if iterations > max_iterations:
                raise IterationLimitError(
                    f"simplex exceeded {max_iterations} pivots in {phase}"
                )
            if rule == "dantzig":
                # Degeneracy guard: too many pivots without progress means
                # possible cycling, so fall back to Bland's rule.
                if T[m, -1] > z_cell:
                    stall = 0
                else:
                    stall += 1
                    if stall > stall_limit:
                        rule = "bland"
                        stall = 0

    # Phase 1: minimize the sum of the artificial variables.
    costs = np.full(width, zero, dtype=dtype)
    costs[n:-1] = one
    price(costs, np.full(m, one, dtype=dtype))
    run(n + m, "phase 1")

    if -T[m, -1] > tol:
        # y solves the phase-1 dual; 1 - reduced cost under artificial i
        # recovers its component.  Negate to match the documented
        # orientation (y.A >= 0, y.b < 0).
        farkas = -(signs * (one - T[m, n:-1]))
        return LinearProgramResult(
            feasible=False, farkas_dual=tuple(farkas.tolist()), iterations=iterations
        )

    # Drive artificial variables out of the basis where possible; a row
    # whose structural part vanished is redundant and its artificial stays
    # basic at level zero, which is harmless.
    for r in (basis >= n).nonzero()[0]:
        cols = (np.abs(T[r, :n]) > tol).nonzero()[0]
        if len(cols):
            pivot(r, cols[0])
            iterations += 1

    def solution() -> tuple:
        x = np.full(n, zero, dtype=dtype)
        basic = basis < n
        x[basis[basic]] = T[:m, -1][basic]
        x[(-tol < x) & (x < zero)] = zero  # float round-off below zero
        return tuple(x.tolist())

    if cvec is None:
        return LinearProgramResult(
            feasible=True, solution=solution(), dual=(zero,) * m, iterations=iterations
        )

    costs = np.full(width, zero, dtype=dtype)
    costs[:n] = cvec
    price(costs, costs[basis])
    run(n, "phase 2")

    return LinearProgramResult(
        feasible=True,
        solution=solution(),
        dual=tuple((signs * -T[m, n:-1]).tolist()),
        objective_value=_pyscalar(-T[m, -1]),
        iterations=iterations,
    )
