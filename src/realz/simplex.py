"""Dense two-phase simplex for equality-form programs.

Solves ``minimize c.x  subject to  A x = b, x >= 0`` on one 2-D numpy
tableau whose last row holds the reduced costs.  Dantzig pivoting with a
stall guard that falls back to Bland's rule (or pure Bland on request),
duals read off the artificial columns.

Float mode pivots a ``float64`` tableau.  Rational mode searches in float
and proves in exact arithmetic, after Applegate, Cook, Dash and Espinoza
(*Exact solutions to linear programming problems*, Oper. Res. Lett. 2007):
the float simplex finds a final basis ``B`` (the phase-1 basis when it
calls the system infeasible, else the phase-2 optimum), and ``B x_B = b``
and ``y B = c_B`` are then solved exactly by fraction-free integer
(Bareiss) elimination.  The answer is returned only when it checks
exactly: ``x_B >= 0`` with every basic artificial at zero, plus
nonnegative reduced costs under an objective, or a phase-1 ``y`` that is
a Farkas proof.  In every other case (a failed check, a singular ``B``, a
float search that overflows, is unbounded or runs out of pivots) the same
two-phase simplex runs on a tableau of ``Fraction`` objects from the
slack basis.  Either way every rational answer is exact.

Sign convention for infeasibility, fixed here and relied on downstream: the
returned ``farkas_dual`` vector ``y`` satisfies

    y . A >= 0   componentwise (within tolerance in float mode)
    y . b <  0

so any ``x >= 0`` with ``A x = b`` would give the contradiction
``0 <= (y.A).x = y.b < 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    """Feasibility outcome of ``A x = b, x >= 0`` plus optional optimization.

    ``iterations`` counts every pivot, float and exact.  ``exact_pivots``
    counts the ``Fraction`` pivots of a rational solve whose float basis
    failed its exact check; it is 0 when that basis was certified.
    """

    feasible: bool
    solution: tuple | None = None
    dual: tuple | None = None
    farkas_dual: tuple | None = None
    objective_value: Scalar | None = None
    iterations: int = 0
    exact_pivots: int = 0


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return Fraction(int(value))
    if isinstance(value, str):
        return Fraction(value)
    raise RationalInputError(f"not an exact rational: {value!r}")


_fractions = np.frompyfunc(_to_fraction, 1, 1)


def _exact_array(values) -> np.ndarray:
    """An integer array as it is, anything else entry by entry as
    ``Fraction`` objects (so a ``bool`` is rejected, not read as 0 or 1)."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        return values
    return _fractions(np.asarray(values, dtype=object))


def _float_array(values) -> np.ndarray:
    return np.asarray(values, dtype=float)


class _Tableau:
    """Two-phase simplex on ``A' x = b'`` (``b' >= 0``) from the slack basis.

    Columns: ``n`` structural, ``m`` artificial, then the right-hand side;
    the last row holds the reduced costs and minus the objective value.
    Entries are ``float64``, or ``Fraction`` objects when ``exact``, where
    comparisons are exact and the tolerance is ignored.
    """

    def __init__(
        self, Ap, bp, exact: bool, tolerance: float = 0.0, rule: str = "dantzig", max_iterations: int = 0
    ):
        m, n = Ap.shape
        dtype = object if exact else float
        self.zero = Fraction(0) if exact else 0.0
        self.one = Fraction(1) if exact else 1.0
        self.tol = Fraction(0) if exact else tolerance
        self.m, self.n = m, n
        self.T = np.full((m + 1, n + m + 1), self.zero, dtype=dtype)
        self.T[:m, :n] = Ap
        self.T[np.arange(m), n + np.arange(m)] = self.one
        self.T[:m, -1] = bp
        self.basis = np.arange(n, n + m)
        self.rule = rule
        self.max_iterations = max_iterations
        self.iterations = 0
        self.stall = 0
        self.stall_limit = 2 * (m + n) + 16

    def price(self, costs: np.ndarray) -> None:
        """Reduced costs of ``costs`` (one per column) under the current basis."""
        basic_costs = costs[self.basis]
        nz = (basic_costs != self.zero).nonzero()[0]
        self.T[self.m] = costs - (basic_costs[nz, None] * self.T[nz]).sum(axis=0)

    def pivot(self, r: int, c: int) -> None:
        T = self.T
        inv = self.one / T[r, c]
        if inv != self.one:
            T[r] *= inv
        rows = (T[:, c] != self.zero).nonzero()[0]
        rows = rows[rows != r]
        T[rows] -= T[rows, c][:, None] * T[r]
        self.basis[r] = c

    def entering(self, limit_col: int):
        costs = self.T[self.m, :limit_col]
        candidates = (costs < -self.tol).nonzero()[0]
        if not len(candidates):
            return None
        if self.rule == "bland":
            return candidates[0]
        return candidates[np.argmin(costs[candidates])]

    def leaving(self, c: int):
        column = self.T[: self.m, c]
        candidates = (column > self.tol).nonzero()[0]
        if not len(candidates):
            return None
        ratios = self.T[candidates, -1] / column[candidates]
        ties = candidates[ratios == ratios.min()]
        return ties[np.argmin(self.basis[ties])] if self.rule == "bland" else ties[0]

    def run(self, limit_col: int, phase: str) -> None:
        T, m = self.T, self.m
        while True:
            c = self.entering(limit_col)
            if c is None:
                return
            r = self.leaving(c)
            if r is None:
                raise UnboundedObjectiveError("objective unbounded below")
            z_cell = T[m, -1]
            self.pivot(r, c)
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise IterationLimitError(
                    f"simplex exceeded {self.max_iterations} pivots in {phase}"
                )
            if self.rule == "dantzig":
                # Degeneracy guard: too many pivots without progress means
                # possible cycling, so fall back to Bland's rule.
                if T[m, -1] > z_cell:
                    self.stall = 0
                else:
                    self.stall += 1
                    if self.stall > self.stall_limit:
                        self.rule = "bland"
                        self.stall = 0

    def two_phase(self, cvec) -> bool:
        """Phase 1, then (when feasible and ``cvec`` is given) phase 2.

        Returns True when phase 1 ends above the tolerance, which proves
        the system infeasible.
        """
        T, m, n = self.T, self.m, self.n
        # Phase 1: minimize the sum of the artificial variables.
        costs = np.full(n + m + 1, self.zero, dtype=T.dtype)
        costs[n:-1] = self.one
        self.price(costs)
        self.run(n + m, "phase 1")
        if -T[m, -1] > self.tol:
            return True

        # Drive artificial variables out of the basis where possible; a row
        # whose structural part vanished is redundant and its artificial
        # stays basic at level zero, which is harmless.
        for r in (self.basis >= n).nonzero()[0]:
            cols = (np.abs(T[r, :n]) > self.tol).nonzero()[0]
            if len(cols):
                self.pivot(r, cols[0])
                self.iterations += 1

        if cvec is not None:
            costs = np.full(n + m + 1, self.zero, dtype=T.dtype)
            costs[:n] = cvec
            self.price(costs)
            self.run(n, "phase 2")
        return False

    def result(self, infeasible: bool, signs: np.ndarray, cvec) -> LinearProgramResult:
        """The answer read off the final tableau."""
        T, m, n, zero = self.T, self.m, self.n, self.zero
        if infeasible:
            # y solves the phase-1 dual; 1 - reduced cost under artificial i
            # recovers its component.  Negate to match the documented
            # orientation (y.A >= 0, y.b < 0).
            farkas = -(signs * (self.one - T[m, n:-1]))
            return LinearProgramResult(
                feasible=False, farkas_dual=tuple(farkas.tolist()), iterations=self.iterations
            )
        x = np.full(n, zero, dtype=T.dtype)
        basic = self.basis < n
        x[self.basis[basic]] = T[:m, -1][basic]
        x[(-self.tol < x) & (x < zero)] = zero  # float round-off below zero
        if cvec is None:
            return LinearProgramResult(
                feasible=True, solution=tuple(x.tolist()), dual=(zero,) * m, iterations=self.iterations
            )
        return LinearProgramResult(
            feasible=True,
            solution=tuple(x.tolist()),
            dual=tuple((signs * -T[m, n:-1]).tolist()),
            objective_value=_pyscalar(-T[m, -1]),
            iterations=self.iterations,
        )


def _dual_feasible(y: np.ndarray, signs: np.ndarray, A: np.ndarray, cvec) -> bool:
    """Exactly whether ``y . A'_j <= c_j`` on every structural column.

    ``A' = signs * A`` row-wise, and ``c = 0`` without an objective.  ``y``
    is scaled by its common denominator, so on an integer ``A`` (and
    ``c``) this is one integer product, in ``int64`` when a bound rules out
    overflow.
    """
    scale = math.lcm(*(v.denominator for v in y.tolist()))
    w = [int(v * scale) * s for v, s in zip(y.tolist(), signs.tolist())]
    M = A
    if cvec is not None:
        M = np.vstack([A, cvec])
        w.append(-scale)
    largest = max(abs(M.max(initial=0)), abs(M.min(initial=0)))
    bound = len(w) * max(abs(v) for v in w) * int(largest)
    dtype = np.int64 if M.dtype.kind == "i" and bound < 2**63 else object
    return bool((np.array(w, dtype=dtype) @ M <= 0).all())


def _exact_solve(M, rhs) -> np.ndarray | None:
    """The exact solution ``z`` of ``M z = rhs`` as ``Fraction`` objects, or
    None when the square ``M`` is singular.

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 1968) on
    Python ints: each row of ``[M | rhs]`` is first cleared of its
    denominators, and after the step on column ``c`` every entry is a minor
    of that integer matrix, so the division by the previous pivot is exact.
    The last pivot ``d`` ends on the whole diagonal, and ``z = (d z) / d``.
    """
    k = len(rhs)
    rows = np.column_stack([np.asarray(M, dtype=object), rhs]).tolist()
    T = np.empty((k, k + 1), dtype=object)
    for r, row in enumerate(rows):
        scale = math.lcm(*(v.denominator for v in row))
        T[r] = [v.numerator * (scale // v.denominator) for v in row]
    prev = 1
    for c in range(k):
        nonzero = T[c:, c].nonzero()[0]
        if not len(nonzero):
            return None
        if nonzero[0]:
            T[[c, c + nonzero[0]]] = T[[c + nonzero[0], c]]
        piv = T[c, c]
        others = np.arange(k) != c
        T[others] = (T[others] * piv - T[others, c][:, None] * T[c]) // prev
        prev = piv
    return np.array([Fraction(v, prev) for v in T[:, k].tolist()], dtype=object)


def _certify(A, bp, cvec, signs, basis, infeasible: bool) -> LinearProgramResult | None:
    """Prove the float search's verdict exactly from its final basis.

    A basic artificial is a unit column, so it fixes the dual of its row
    (its cost: 1 in phase 1, else 0) and takes up that row's slack.  The
    structural basis columns restricted to the other rows form a square
    ``B_s``; ``B_s x_B = b`` and ``y B_s = c_B`` (less the fixed duals'
    share) are solved by fraction-free integer elimination.  Returns None
    when ``B_s`` is singular or the exact check fails.
    """
    m, n = A.shape
    columns = basis[basis < n]
    fixed = basis[basis >= n] - n
    free = np.ones(m, dtype=bool)
    free[fixed] = False
    Bp = signs[:, None] * A[:, columns]
    if infeasible:
        y_free = _exact_solve(Bp[free].T, -Bp[fixed].sum(axis=0))
        if y_free is None:
            return None  # B_s, and so B, is singular
        y = np.full(m, Fraction(1), dtype=object)
        y[free] = y_free
        # y.b' is the phase-1 optimum.
        if y @ bp > 0 and _dual_feasible(y, signs, A, None):
            return LinearProgramResult(feasible=False, farkas_dual=tuple((-(signs * y)).tolist()))
        return None
    x_basic = _exact_solve(Bp[free], bp[free])
    # The basic artificials must sit exactly at zero.
    if x_basic is None or (x_basic < 0).any() or (Bp[fixed] @ x_basic != bp[fixed]).any():
        return None
    x = np.full(n, Fraction(0), dtype=object)
    x[columns] = x_basic
    if cvec is None:
        return LinearProgramResult(feasible=True, solution=tuple(x.tolist()), dual=(Fraction(0),) * m)
    y = np.full(m, Fraction(0), dtype=object)
    y[free] = _exact_solve(Bp[free].T, cvec[columns])
    if not _dual_feasible(y, signs, A, cvec):
        return None
    return LinearProgramResult(
        feasible=True,
        solution=tuple(x.tolist()),
        dual=tuple((signs * y).tolist()),
        objective_value=Fraction(cvec[columns] @ x_basic),
    )


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
    ``Fraction`` or fraction string, every answer is exact, and the
    tolerance steers only the float search.
    """
    if pivot_rule not in ("bland", "dantzig"):
        raise ValueError(f"unknown pivot rule {pivot_rule!r}")
    m = len(b)
    n = len(A[0]) if m else (len(objective) if objective is not None else 0)
    if len(A) != m or any(len(row) != n for row in A):
        raise DimensionError("constraint matrix is ragged or does not match the right-hand side")
    if objective is not None and len(objective) != n:
        raise DimensionError("objective length does not match variable count")
    convert = _exact_array if rational else _float_array
    cvec = None if objective is None else convert(objective)

    if m == 0:
        zero = Fraction(0) if rational else 0.0
        value = None
        if cvec is not None:
            if (cvec < (0 if rational else -tolerance)).any():
                raise UnboundedObjectiveError("unconstrained negative objective direction")
            value = zero
        return LinearProgramResult(feasible=True, solution=(zero,) * n, dual=(), objective_value=value)

    # Flip rows so the right-hand side is nonnegative; remember the signs
    # to map duals back to the original orientation.
    A = convert(A).reshape(m, n)
    bvec = convert(b)
    signs = np.where(bvec < 0, -1, 1)
    bp = signs * bvec
    if not rational:
        tableau = _Tableau(signs[:, None] * A, bp, False, tolerance, pivot_rule, max_iterations)
        return tableau.result(tableau.two_phase(cvec), signs, cvec)

    search = None
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            Af, bf = signs[:, None] * A.astype(float), bp.astype(float)
            search = _Tableau(Af, bf, False, tolerance, pivot_rule, max_iterations)
            infeasible = search.two_phase(None if cvec is None else cvec.astype(float))
    except (OverflowError, FloatingPointError, UnboundedObjectiveError, IterationLimitError):
        pass  # exact pivoting below decides
    else:
        certified = _certify(A, _fractions(bp), cvec, signs, search.basis, infeasible)
        if certified is not None:
            return replace(certified, iterations=search.iterations)
    searched = search.iterations if search is not None else 0
    exact = _Tableau(
        _fractions(signs[:, None] * A), _fractions(bp), True, rule=pivot_rule, max_iterations=max_iterations
    )
    cvec = None if cvec is None else _fractions(cvec)
    result = exact.result(exact.two_phase(cvec), signs, cvec)
    return replace(result, iterations=searched + exact.iterations, exact_pivots=exact.iterations)
