"""Two-phase revised simplex for equality-form programs.

Solves ``minimize c.x  subject to  A x = b, x >= 0`` against an explicit
basis inverse: each pivot prices every column of ``A`` with one product
against the duals and updates the inverse by one rank-1 step.  Pivoting is
Dantzig's rule, with a stall guard that falls back to Bland's rule for good
when too many pivots pass without progress, so every solve terminates.

Float mode runs in ``float64``.  Rational mode searches in float and
proves in exact arithmetic, after Applegate, Cook, Dash and Espinoza
(*Exact solutions to linear programming problems*, Oper. Res. Lett. 2007):
the float simplex finds a final basis ``B`` (the phase-1 basis when it
calls the system infeasible, else the phase-2 optimum), and ``B x_B = b``
and ``y B = c_B`` are then solved exactly by fraction-free integer
(Bareiss) elimination, over one right-hand-side denominator per solve and
in ``int64`` while a bound proves that no step overflows, else on Python
ints.  The answer is returned only when it checks exactly, on those
integer numerators: ``x_B >= 0`` with every basic artificial at zero,
plus nonnegative reduced costs under an objective, or a phase-1 ``y``
that is a Farkas proof; ``Fraction`` objects are built for the answer
alone.  In every other case (a failed check, a singular ``B``, a
float search that overflows, is unbounded or runs out of pivots) the same
two-phase simplex runs on ``Fraction`` objects from the slack basis,
pricing in integers.  Either way every rational answer is exact.

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

from .core import Scalar, _pyscalar, _to_integers
from .errors import (
    DimensionError,
    IterationLimitError,
    RationalInputError,
    UnboundedObjectiveError,
)


@dataclass(frozen=True)
class LinearProgramResult:
    """Feasibility outcome of ``A x = b, x >= 0`` plus optional optimization.

    In rational mode every value is a ``Fraction`` (the objective value
    too), whether the float basis was certified or exact pivoting decided.
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
_lowest = np.frompyfunc(lambda v: v.numerator if v.denominator == 1 else v, 1, 1)


def _float_input(values) -> np.ndarray:
    """``values`` as a numeric array, converted to float only when it is not
    one (objects, strings): :class:`_Revised` makes the one float copy."""
    arr = np.asarray(values)
    return arr if arr.dtype.kind in "biuf" else arr.astype(float)


def _exact_array(values) -> np.ndarray:
    """An integer array as it is, anything else entry by entry as an
    ``int`` where integral, else a ``Fraction`` (so a ``bool`` is rejected,
    not read as 0 or 1): integer entries keep pricing in integers."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        return values
    return _lowest(_fractions(np.asarray(values, dtype=object)))


class _Revised:
    """Two-phase revised simplex on ``A' x = b'`` (``b' >= 0``) from the
    artificial basis, against an explicit basis inverse.

    ``At`` holds one row ``(a_j, c_j)`` per column: the ``n`` columns of
    ``A'``, then the ``m`` unit artificial ones, with the current phase's
    costs last.  ``K = [[Binv, 0, x_B], [y, -1, z]]`` borders the basis
    inverse with the basic values, the duals ``y = c_B Binv`` and the
    objective ``z = c_B x_B``.  A pivot prices every column with one
    product (``At @ K[m, :m+1]`` is ``y a_j - c_j``, minus the reduced
    cost), reads the entering column ``K[:, :m+1] @ (a_q, c_q)`` and
    updates all of ``K`` by one rank-1 step: the product form of the
    inverse (Dantzig and Orchard-Hays, MTAC 1954), kept explicit.  Entries
    are ``float64``, or ``Fraction`` objects when ``exact``, where
    comparisons are exact, the tolerance is ignored, pricing runs in
    integers (:func:`_scaled_dot`) and the column and the update skip the
    zeros, each of which would still cost a ``Fraction`` operation.  The
    views every pivot reads (``Kc = K[:, :m+1]``, ``x_B = K[:m, -1]``,
    ``duals = K[m, :m+1]``) and one ratio buffer are bound once: ``K`` is
    only ever updated in place, never rebound, so the views stay current.
    ``rule`` is the rule the search starts on: :func:`solve` leaves it at
    Dantzig's, and only the stall guard in :meth:`run` switches to Bland's.
    """

    def __init__(self, A, signs, bp, cvec, exact: bool, tolerance=0.0, max_iterations=0, rule="dantzig"):
        m, n = A.shape
        self.m, self.n, self.cvec, self.exact = m, n, cvec, exact
        dtype = np.result_type(A, A if cvec is None else cvec) if exact else float
        self.At = np.zeros((n + m, m + 1), dtype=dtype)
        np.multiply(A.T, signs, out=self.At[:n, :m])
        self.At[n + np.arange(m), np.arange(m)] = 1
        self.zero = Fraction(0) if exact else 0.0
        self.tol = 0 if exact else tolerance
        self.K = np.full((m + 1, m + 2), self.zero, dtype=object if exact else float)
        self.K[np.arange(m), np.arange(m)] = self.zero + 1
        self.K[:m, -1] = bp
        self.Kc, self.x_B, self.duals = self.K[:, : m + 1], self.K[:m, -1], self.K[m, : m + 1]
        self.ratios = np.empty(m, dtype=self.K.dtype)
        self.basis = np.arange(n, n + m)
        self.rule, self.max_iterations = rule, max_iterations
        self.iterations = self.stall = 0
        self.stall_limit = 2 * (m + n) + 16

    def start(self, structural, artificial) -> None:
        """Set the phase's costs, then ``y`` and ``z`` of the current basis."""
        m, K = self.m, self.K
        self.At[: self.n, m] = structural
        self.At[self.n :, m] = artificial
        c_B = self.At[self.basis, m]
        nz = c_B.nonzero()[0] if self.exact else slice(None)
        K[m] = self.zero + c_B[nz] @ K[:m][nz]
        K[m, m] = -1

    def products(self, v: np.ndarray, At: np.ndarray) -> np.ndarray:
        """``At @ v`` times a positive scale (1 in float mode)."""
        if self.exact:
            return _scaled_dot(v, At.T)
        return At @ v

    def entering(self, p: np.ndarray):
        """The largest (Dantzig) or first (Bland) ``p`` above the tolerance."""
        if not len(p):
            return None
        q = (p > self.tol).argmax() if self.rule == "bland" else p.argmax()
        return q if p[q] > self.tol else None

    def column(self, q: int) -> np.ndarray:
        """``(Binv a_q, y a_q - c_q)`` as a new array."""
        a = self.At[q]
        if not self.exact:
            return self.Kc @ a
        nz = a.nonzero()[0]
        return self.Kc[:, nz] @ a[nz]

    def leaving(self, u: np.ndarray):
        """The pivot row and the step length of the ratio test on ``u``."""
        ratios = self.ratios
        ratios.fill(np.inf)
        np.divide(self.x_B, u, out=ratios, where=u > self.tol)
        # No finite ratio, or no row at all (m = 0): nothing bounds the step.
        if not self.m or ratios[r := ratios.argmin()] == np.inf:
            raise UnboundedObjectiveError("objective unbounded below")
        if self.rule == "bland":
            ties = (ratios == ratios[r]).nonzero()[0]
            r = ties[np.argmin(self.basis[ties])]
        return r, ratios[r]

    def pivot(self, r: int, q: int, column: np.ndarray) -> None:
        """Column ``q`` replaces the basic variable of row ``r``."""
        K = self.K
        K[r] /= column[r]
        column[r] = 0
        if self.exact:
            rows = column.nonzero()[0]
            K[rows] -= column[rows, None] * K[r]
        else:
            K -= column[:, None] * K[r]
        self.basis[r] = q

    def run(self, limit: int, phase: str) -> None:
        m, At = self.m, self.At[:limit]
        while True:
            q = self.entering(self.products(self.duals, At))
            if q is None:
                return
            column = self.column(q)
            r, theta = self.leaving(column[:m])
            self.pivot(r, q, column)
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise IterationLimitError(f"simplex exceeded {self.max_iterations} pivots in {phase}")
            # Degeneracy guard: too many pivots without a positive step
            # means possible cycling, so Dantzig falls back to Bland's rule.
            self.stall = 0 if theta > 0 else self.stall + 1
            if self.stall > self.stall_limit:
                self.rule, self.stall = "bland", 0

    def two_phase(self) -> bool:
        """Phase 1, then (when feasible and there is an objective) phase 2.

        Returns True when phase 1 ends above the tolerance, which proves
        the system infeasible.
        """
        m, n = self.m, self.n
        # Phase 1: minimize the sum of the artificial variables.
        self.start(0, 1)
        self.run(n + m, "phase 1")
        if self.K[m, -1] > self.tol:
            return True

        # Drive artificial variables out of the basis where possible; a row
        # whose structural part (row r of Binv A', At[:n] @ K[r, :m+1]) vanished
        # is redundant and its artificial stays basic at level zero, harmlessly.
        for r in (self.basis >= n).nonzero()[0]:
            cols = (np.abs(self.products(self.Kc[r], self.At[:n])) > self.tol).nonzero()[0]
            if len(cols):
                self.pivot(r, cols[0], self.column(cols[0]))
                self.iterations += 1

        if self.cvec is not None:
            self.start(self.cvec, 0)
            self.run(n, "phase 2")
        return False

    def result(self, infeasible: bool, signs: np.ndarray) -> LinearProgramResult:
        """The answer read off ``K``: ``x_B``, the duals ``y`` and ``z``."""
        m, n, K, zero = self.m, self.n, self.K, self.zero
        y = K[m, :m]
        if infeasible:
            # y solves the phase-1 dual; negated, it has the documented
            # orientation (y.A >= 0, y.b < 0).
            farkas = tuple((-(signs * y)).tolist())
            return LinearProgramResult(False, farkas_dual=farkas, iterations=self.iterations)
        x = np.full(n, zero, dtype=K.dtype)
        basic = self.basis < n
        x[self.basis[basic]] = K[:m, -1][basic]
        x[(-self.tol < x) & (x < zero)] = zero  # float round-off below zero
        dual, value = (zero,) * m, None
        if self.cvec is not None:
            dual, value = tuple((signs * y).tolist()), _pyscalar(K[m, -1])
        return LinearProgramResult(True, tuple(x.tolist()), dual, None, value, self.iterations)


def _largest(T: np.ndarray) -> int:
    """The largest magnitude in the integer array ``T``, as a Python int."""
    return max(abs(int(T.max(initial=0))), abs(int(T.min(initial=0))))


def _scaled_dot(y: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``(s y) @ M`` in integers, ``s`` the common denominator of the exact
    ``y``: in ``int64`` when ``M`` is integer and a bound rules out
    overflow, else on Python objects."""
    w = _to_integers(y.tolist())[1]
    dtype = object
    if M.dtype.kind == "i" and len(w) * max(map(abs, w), default=0) * _largest(M) < 2**63:
        dtype = np.int64
    return np.array(w, dtype=dtype) @ M


def _cleared(M: np.ndarray) -> tuple:
    """``(s, T)``: row ``r`` of the exact ``M`` times ``s[r]``, the lcm of
    that row's denominators, so that ``T`` is integer (an integer ``M`` is
    returned as it is, with every ``s[r] = 1``).  ``T`` is ``int64`` when
    its entries fit, else an array of Python ints."""
    if M.dtype.kind == "i":
        return [1] * len(M), M
    cleared = [_to_integers(row) for row in M.tolist()]
    T = np.array([row for _, row in cleared], dtype=object).reshape(M.shape)
    if _largest(T) < 2**63:
        T = T.astype(np.int64)
    return [s for s, _ in cleared], T


def _dual_feasible(w: np.ndarray, d: int, signs: np.ndarray, A: np.ndarray, cvec) -> bool:
    """Exactly whether ``y . A'_j <= c_j`` on every structural column, for
    ``y = w / d`` with integer ``w`` and ``d > 0``.

    ``A' = signs * A`` row-wise, and ``c = 0`` without an objective.  With
    ``c`` stacked under ``A`` as one more row, the test reads
    ``(signs * w, -d) . M_j <= 0``; each row of ``M`` is cleared of its
    denominators, its factor moved into ``w``, and the test is one integer
    product.
    """
    v, M = signs * w, A
    if cvec is not None:
        v, M = np.append(v, -d), np.vstack([A, cvec])
    scales, M = _cleared(M)
    if any(s != 1 for s in scales):
        lcm = math.lcm(*scales)
        v = v * np.array([lcm // s for s in scales], dtype=object)
    return bool((_scaled_dot(v, M) <= 0).all())


def _exact_solve(M, rhs) -> tuple | None:
    """The exact solution of ``M z = rhs`` as ``(numerators, d)`` over one
    denominator ``d > 0``, or None when the square ``M`` is singular.

    Each row of ``M`` is cleared of its own denominators (only a caller
    passing ``Fraction`` entries has any; the moment LPs pass int64), and
    the whole right-hand side, that row factor included, is then scaled by
    one common denominator ``D``.  Fraction-free Gauss-Jordan elimination (Bareiss,
    Math. Comp. 1968) runs on the integer ``[M | rhs]``: after the step on
    column ``c`` every entry is a minor of that matrix, so the division by
    the previous pivot is exact.  A step runs in ``int64`` while
    ``2 max|T|**2 < 2**63`` proves that its products cannot overflow, and
    from the first step where it does not on Python ints: ``big >= max|T|``
    grows to ``2 big**2 / |prev|`` per step, and only when it trips does a
    scan of ``T`` decide.  The last pivot ``p`` ends on the whole diagonal,
    and ``z = (p D z) / (p D)``.
    """
    k = len(rhs)
    scales, M = _cleared(np.asarray(M).reshape(k, k))
    D, b = _to_integers(np.asarray(rhs, dtype=object).tolist())
    b = [s * v for s, v in zip(scales, b)]
    big = max(_largest(M), max(map(abs, b), default=0))
    T = np.empty((k, k + 1), dtype=np.int64 if big < 2**63 else object)
    T[:, :k], T[:, k] = M, b
    prev = 1
    for c in range(k):
        if T.dtype != object and 2 * big**2 >= 2**63:
            big = _largest(T)
            if 2 * big**2 >= 2**63:
                T = T.astype(object)
        nonzero = T[c:, c].nonzero()[0]
        if not len(nonzero):
            return None
        if nonzero[0]:
            T[[c, c + nonzero[0]]] = T[[c + nonzero[0], c]]
        piv, row = int(T[c, c]), T[c].copy()
        # The step would clear row c too; it keeps its entries.
        T = (T * piv - T[:, c, None] * row) // prev
        if T.dtype != object:  # on Python ints the bound is no longer read
            big = max(big, 2 * big**2 // abs(prev) + 1)
        T[c], prev = row, piv
    z = T[:, k]
    return (z, prev * D) if prev > 0 else (-z, -prev * D)


def _fractions_over(z: np.ndarray, d: int) -> tuple:
    """The numerators ``z`` over ``d`` as a tuple of ``Fraction`` objects."""
    return tuple(Fraction(v, d) for v in z.tolist())


def _certify(A, bp, cvec, signs, basis, infeasible: bool) -> LinearProgramResult | None:
    """Prove the float search's verdict exactly from its final basis.

    A basic artificial is a unit column, so it fixes the dual of its row
    (its cost: 1 in phase 1, else 0) and takes up that row's slack.  The
    structural basis columns restricted to the other rows form a square
    ``B_s``; ``B_s x_B = b`` and ``y B_s = c_B`` (less the fixed duals'
    share) are solved by :func:`_exact_solve`, and every check runs on its
    integer numerators over their positive denominator: ``x_B >= 0``, the
    basic artificials at exactly zero, the Farkas pairing ``y . b' > 0`` and
    the reduced costs.  ``Fraction`` objects are built only for the answer.
    Returns None when ``B_s`` is singular or a check fails.
    """
    m, n = A.shape
    columns = basis[basis < n]
    fixed = basis[basis >= n] - n
    free = np.ones(m, dtype=bool)
    free[fixed] = False
    Bp = signs[:, None] * A[:, columns]
    if infeasible:
        solved = _exact_solve(Bp[free].T, -Bp[fixed].sum(axis=0))
        if solved is None:
            return None  # B_s, and so B, is singular
        z, d = solved
        w = np.full(m, d, dtype=object)  # y = w / d, 1 on the fixed rows
        w[free] = z.tolist()
        # y.b' is the phase-1 optimum; (s b') . w has its sign.
        if _scaled_dot(bp, w[:, None])[0] > 0 and _dual_feasible(w, d, signs, A, None):
            return LinearProgramResult(feasible=False, farkas_dual=_fractions_over(-(signs * w), d))
        return None
    solved = _exact_solve(Bp[free], bp[free])
    if solved is None:
        return None
    z, d = solved
    # The basic artificials must sit exactly at zero: (Bp_r, -b'_r) . (z, d) = 0.
    residual = _cleared(np.column_stack([Bp[fixed], -bp[fixed]]))[1]
    if (z < 0).any() or _scaled_dot(np.array([*z.tolist(), d], dtype=object), residual.T).any():
        return None
    x = np.full(n, Fraction(0), dtype=object)
    x[columns] = _fractions_over(z, d)
    solution = tuple(x.tolist())
    if cvec is None:
        return LinearProgramResult(feasible=True, solution=solution, dual=(Fraction(0),) * m)
    c_B = cvec[columns]
    z_y, d_y = _exact_solve(Bp[free].T, c_B)
    w = np.zeros(m, dtype=object)
    w[free] = z_y.tolist()
    if not _dual_feasible(w, d_y, signs, A, cvec):
        return None
    return LinearProgramResult(
        feasible=True,
        solution=solution,
        dual=_fractions_over(signs * w, d_y),
        objective_value=Fraction(c_B.astype(object) @ z.astype(object), d),
    )


def solve(
    A,
    b,
    objective=None,
    *,
    rational: bool = False,
    tolerance: float = 1e-9,
    max_iterations: int = 50_000,
) -> LinearProgramResult:
    """Decide feasibility and optionally minimize ``objective`` over it.

    Rows of ``A`` are equality constraints; variables are implicitly
    nonnegative.  In rational mode every input entry must be an ``int``,
    ``Fraction`` or fraction string, every answer is exact, and the
    tolerance steers only the float search.
    """
    m = len(b)
    n = len(A[0]) if m else (len(objective) if objective is not None else 0)
    if len(A) != m or any(len(row) != n for row in A):
        raise DimensionError("constraint matrix is ragged or does not match the right-hand side")
    if objective is not None and len(objective) != n:
        raise DimensionError("objective length does not match variable count")
    convert = _exact_array if rational else _float_input
    cvec = None if objective is None else convert(objective)

    # Flip rows so the right-hand side is nonnegative; remember the signs
    # to map duals back to the original orientation.
    A = convert(A).reshape(m, n)
    bvec = convert(b)
    signs = np.where(bvec < 0, -1, 1)
    bp = signs * bvec
    if not rational:
        lp = _Revised(A, signs, bp, cvec, False, tolerance, max_iterations)
        return lp.result(lp.two_phase(), signs)

    search = None
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            Af, bf, cf = _float_input(A), bp.astype(float), None if cvec is None else cvec.astype(float)
            search = _Revised(Af, signs, bf, cf, False, tolerance, max_iterations)
            infeasible = search.two_phase()
    except (OverflowError, FloatingPointError, UnboundedObjectiveError, IterationLimitError):
        pass  # exact pivoting below decides
    else:
        certified = _certify(A, bp, cvec, signs, search.basis, infeasible)
        if certified is not None:
            return replace(certified, iterations=search.iterations)
    searched = search.iterations if search is not None else 0
    exact = _Revised(A, signs, _fractions(bp), cvec, True, max_iterations=max_iterations)
    result = exact.result(exact.two_phase(), signs)
    return replace(result, iterations=searched + exact.iterations, exact_pivots=exact.iterations)
