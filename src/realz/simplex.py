"""Two-phase revised simplex for equality-form programs.

Solves ``minimize c.x  subject to  A x = b, x >= 0`` for an integer ``A``
and ``c``, as a moment matrix and its costs are, by Dantzig's rule, with a
stall guard that falls back to Bland's rule for good when too many pivots
pass without progress, so every solve terminates.  Phase 1 may end
with artificials basic at zero (on redundant rows, say); phase 2 prices no
artificial, and one leaves, at a zero step, as soon as the entering column
touches its row, so that no step lifts an artificial off zero.

Float mode runs in ``float64`` against an explicit basis inverse.
Rational mode searches in float and decides exactly, after Applegate,
Cook, Dash and Espinoza (*Exact solutions to linear programming problems*,
Oper. Res. Lett. 2007): the float search's final basis starts one exact
simplex, which keeps no inverse but solves each basis afresh by
fraction-free integer (Bareiss) elimination.  It proves a basis that the
float search got right with no pivot, else pivots on from it, or from the
slack basis when it is singular or has a negative exact value or the
float search raised.  ``Fraction`` objects are built for the answer alone.

Sign convention for infeasibility, fixed here and relied on downstream: the
returned ``farkas_dual`` vector ``y`` satisfies

    y . A >= 0   componentwise (within ``TOLERANCE`` in float mode)
    y . b <  0

so any ``x >= 0`` with ``A x = b`` would give the contradiction
``0 <= (y.A).x = y.b < 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cmp_to_key

import numpy as np

from .core import TOLERANCE, Scalar, _real_entries, _to_integers
from .errors import DimensionError, IterationLimitError, RationalInputError, UnboundedObjectiveError, ValidationError


@dataclass(frozen=True)
class LinearProgramResult:
    """Feasibility outcome of ``A x = b, x >= 0`` plus optional optimization.

    In rational mode every value is a ``Fraction``.  ``iterations`` counts
    every pivot, float and exact; ``exact_pivots`` counts the exact
    engine's, 0 when the float search's final basis proves its verdict.
    """

    feasible: bool
    solution: tuple | None = None
    dual: tuple | None = None
    farkas_dual: tuple | None = None
    objective_value: Scalar | None = None
    iterations: int = 0
    exact_pivots: int = 0


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
        return Fraction(int(value))
    raise RationalInputError(f"not an exact rational: {value!r}")


def _float_input(values) -> np.ndarray:
    """``values`` as a numeric array, converted to float only when it is not
    one (objects): :class:`_Revised` makes the one float copy."""
    arr = np.asarray(values)
    return arr if arr.dtype.kind in "biuf" else arr.astype(float)


def _integers(values, name: str) -> np.ndarray:
    """``values`` as an integer array: ``int64``, or Python ints past it.
    A list is read entry by entry, so that numpy reads no ``bool`` as 0 or
    1; a float, ``Fraction``, string or ``bool`` entry is refused."""
    arr = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if arr.dtype.kind == "i":
        return arr.astype(np.int64, copy=False)
    if arr.dtype.kind not in "uO" or not all(map(_is_int, entries := arr.ravel().tolist())):
        raise ValidationError(f"{name} must hold integers")
    arr = np.array(list(map(int, entries)), dtype=object).reshape(arr.shape)
    return arr.astype(np.int64) if _largest(arr) < 2**63 else arr


#: Pivots one engine may make in a solve before it raises
#: :class:`IterationLimitError`; read at each pivot.
MAX_PIVOTS = 50_000


class _Pivots:
    """The pivot rule and stall guard of the float search and the exact
    engine: Dantzig's rule until :meth:`pivoted` switches to Bland's."""

    tol = 0

    def __init__(self, m: int, n: int):
        self.m, self.n = m, n
        self.rule, self.iterations, self.stall = "dantzig", 0, 0
        self.stall_limit = 2 * (m + n) + 16

    def entering(self, p: np.ndarray):
        """The largest (Dantzig) or first (Bland) ``p`` above the tolerance."""
        if not len(p):
            return None
        q = (p > self.tol).argmax() if self.rule == "bland" else p.argmax()
        return q if p[q] > self.tol else None

    def pivoted(self, progress: bool, phase: str) -> None:
        """Count one pivot; ``progress`` is whether its step was positive."""
        self.iterations += 1
        if self.iterations > MAX_PIVOTS:
            raise IterationLimitError(f"simplex exceeded {MAX_PIVOTS} pivots in {phase}")
        # Degeneracy guard: too many pivots without a positive step
        # means possible cycling, so Dantzig falls back to Bland's rule.
        self.stall = 0 if progress else self.stall + 1
        if self.stall > self.stall_limit:
            self.rule, self.stall = "bland", 0


class _Revised(_Pivots):
    """Two-phase revised simplex in ``float64`` on ``A' x = b'`` (``b' >=
    0``) from the artificial basis, against an explicit basis inverse.

    ``At`` holds one row ``(a_j, c_j)`` per column: the ``n`` columns of
    ``A'``, then the ``m`` unit artificial ones, with the phase's costs
    last.  ``K = [[Binv, 0, x_B], [y, -1, z]]`` borders the inverse with
    the basic values, the duals ``y = c_B Binv`` and the objective.  A
    pivot prices every column by one product (``At @ K[m, :m+1]``), reads
    the entering column ``K[:, :m+1] @ (a_q, c_q)`` and updates ``K`` by
    one rank-1 step (Dantzig and Orchard-Hays, MTAC 1954).  ``K`` is only
    updated in place, so its views ``Kc``, ``x_B`` and ``duals`` and one
    ratio buffer are bound once.
    """

    def __init__(self, A, signs, bp, cvec):
        m, n = A.shape
        super().__init__(m, n)
        self.cvec, self.tol = cvec, TOLERANCE
        self.At = np.zeros((n + m, m + 1))
        np.multiply(A.T, signs, out=self.At[:n, :m])
        self.At[n + np.arange(m), np.arange(m)] = 1
        self.K = np.zeros((m + 1, m + 2))
        self.K[np.arange(m), np.arange(m)] = 1
        self.K[:m, -1] = bp
        self.Kc, self.x_B, self.duals = self.K[:, : m + 1], self.K[:m, -1], self.K[m, : m + 1]
        self.ratios = np.empty(m)
        self.basis = np.arange(n, n + m)

    def start(self, structural, artificial) -> None:
        """Set the phase's costs, then ``y`` and ``z`` of the current basis."""
        m, K = self.m, self.K
        self.At[: self.n, m] = structural
        self.At[self.n :, m] = artificial
        K[m] = 0.0 + self.At[self.basis, m] @ K[:m]  # 0.0 + turns a -0.0 into 0.0
        K[m, m] = -1

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
        K -= column[:, None] * K[r]
        self.basis[r] = q

    def run(self, limit: int, phase: str) -> None:
        m, At = self.m, self.At[:limit]
        # Phase 2 prices no artificial, so its basic artificials only leave.
        artificial = (self.basis >= self.n).nonzero()[0].tolist() if phase == "phase 2" else []
        while (q := self.entering(At @ self.duals)) is not None:
            column = self.Kc @ At[q]
            if touched := [r for r in artificial if abs(column[r]) > self.tol]:
                r, theta = touched[0], 0
                artificial.remove(r)
            else:
                r, theta = self.leaving(column[:m])
            self.pivot(r, q, column)
            self.pivoted(theta > 0, phase)

    def two_phase(self) -> bool:
        """Phase 1, then (when feasible, under an objective) phase 2; True
        when phase 1 ends above the tolerance: the system is infeasible."""
        m, n = self.m, self.n
        # Phase 1: minimize the sum of the artificial variables.
        self.start(0, 1)
        self.run(n + m, "phase 1")
        if self.K[m, -1] > self.tol:
            return True
        if self.cvec is not None:
            self.start(self.cvec, 0)
            self.run(n, "phase 2")
        return False

    def result(self, infeasible: bool, signs: np.ndarray) -> LinearProgramResult:
        """The answer read off ``K``: ``x_B``, the duals ``y`` and ``z``."""
        m, n, K = self.m, self.n, self.K
        y = K[m, :m]
        if infeasible:  # y solves the phase-1 dual; -y has the documented orientation
            return LinearProgramResult(False, farkas_dual=tuple((-(signs * y)).tolist()), iterations=self.iterations)
        x = np.zeros(n)
        basic = self.basis < n
        x[self.basis[basic]] = K[:m, -1][basic]
        x[(-self.tol < x) & (x < 0)] = 0.0  # round-off below zero
        dual, value = (0.0,) * m, None
        if self.cvec is not None:
            dual, value = tuple((signs * y).tolist()), float(K[m, -1])
        return LinearProgramResult(True, tuple(x.tolist()), dual, None, value, self.iterations)


class _Exact(_Pivots):
    """Two-phase exact simplex on ``A' x = b'`` from ``basis`` (None: the
    slack basis) that keeps no inverse: each step solves its basis afresh
    by :func:`_exact_solve`, ``y B = c_B`` to price and ``B [x_B | u] =
    [b' | a_q]`` for the ratio test.  A basic artificial stays a unit
    column, which fixes its row's dual at its cost (1 in phase 1, else 0);
    the structural basis columns on the other rows form a square ``B_s``.
    Phase 1 ends when ``y . b'``, the sum of the basic artificials, is
    zero, or with ``-y`` as a Farkas proof when no column prices in."""

    def __init__(self, A, signs, bp, cvec, basis):
        super().__init__(*A.shape)
        self.A, self.signs, self.bp, self.cvec = A, signs, bp, cvec
        # Pricing's overflow bounds read these; A and c never change.
        self.largest = _largest(A), None if cvec is None else _largest(cvec)
        self.basis = np.arange(self.n, self.n + self.m) if basis is None else basis.copy()
        self._built = None  # (basis bytes, _matrix of that basis)

    def _matrix(self) -> tuple:
        """The structural positions of ``basis``, the rows of ``B_s`` then
        the fixed ones, and ``A'`` on those rows and ``B_s``'s columns."""
        s = self.basis < self.n
        fixed = self.basis[~s] - self.n
        rows = np.concatenate([np.flatnonzero(np.bincount(fixed, minlength=self.m) == 0), fixed])
        return s, rows, self.signs[rows, None] * self.A[:, self.basis[s]][rows]

    def _basis_matrix(self) -> tuple:
        """:meth:`_matrix`, built once per basis: ``values`` and ``duals``
        share it until ``basis`` changes."""
        key = self.basis.tobytes()
        if self._built is None or self._built[0] != key:
            self._built = key, self._matrix()
        return self._built[1]

    def values(self, *columns) -> tuple | None:
        """``(V, d)`` with ``B V = d columns``, per position of ``basis``:
        exact on a structural one, times a positive factor of its row on an
        artificial one; None when ``B`` is singular."""
        s, rows, B = self._basis_matrix()
        if (solved := _exact_solve(B, np.column_stack([c[rows] for c in columns]))) is not None:
            V, k = np.empty((self.m, len(columns)), dtype=object), s.sum()
            V[s], V[~s] = solved[0][:k], solved[0][k:]
            return V, solved[1]

    def duals(self, phase1: bool) -> tuple | None:
        """``(w, d, p)``: ``y = w / d`` solving ``y B = c_B``, and the prices
        :func:`_priced` of ``y``; None when ``B`` is singular."""
        s, rows, B = self._basis_matrix()
        k, c_B = s.sum(), 0 if phase1 else self.cvec[self.basis[s]]
        if (solved := _exact_solve(B[:k].T, c_B - phase1 * B[k:].sum(axis=0))) is not None:
            w, d = np.full(self.m, solved[1] * phase1, dtype=object), solved[1]
            w[rows[:k]] = solved[0].tolist()
            return w, d, _priced(w, d, self.signs, self.A, None if phase1 else self.cvec, self.largest)

    def step(self, q: int, phase: str) -> None:
        """Column ``q`` enters at the position that leaves: in phase 2 an
        artificial that ``u`` touches, else the least ratio ``X/U`` over
        ``U > 0``, ties to the first position or, under Bland's rule, to
        the lowest basic index."""
        V = self.values(self.bp, self.signs * self.A[:, q])[0]
        X, U = V[:, 0].tolist(), V[:, 1].tolist()
        if phase == "phase 2" and (touched := [r for r in (self.basis >= self.n).nonzero()[0] if U[r]]):
            r = touched[0]
        elif rows := [r for r in range(self.m) if U[r] > 0]:
            tie = self.basis if self.rule == "bland" else range(self.m)
            r = min(rows, key=cmp_to_key(lambda i, j: X[i] * U[j] - X[j] * U[i] or tie[i] - tie[j]))
        else:
            raise UnboundedObjectiveError("objective unbounded below")
        self.basis[r] = q
        self.pivoted(X[r] > 0, phase)

    def run(self, infeasible: bool) -> LinearProgramResult:
        """Prove or decide the program from ``basis``, where the float
        search gave the verdict ``infeasible``."""
        n, cvec, signs = self.n, self.cvec, self.signs
        if infeasible and (dual := self.duals(True)) is not None:
            # A Farkas proof needs no primal values, so it is priced first:
            # y . b' > 0 (the phase-1 objective, over a positive scale).
            if _scaled_dot(self.bp, dual[0][:, None])[0] > 0 and (dual[2] <= 0).all():
                return LinearProgramResult(False, farkas_dual=_fractions_over(-(signs * dual[0]), dual[1]))
        x = self.values(self.bp)  # None once it is no longer the basis's
        if x is None or (x[0] < 0).any():
            self.basis = np.arange(n, n + self.m)
            x = self.values(self.bp)
        while x is None or x[0][self.basis >= n].any():
            dual = self.duals(True)
            if x is None and not _scaled_dot(self.bp, dual[0][:, None])[0]:
                break  # y . b' = 0: every basic artificial is at zero
            if (q := self.entering(dual[2])) is None:
                return LinearProgramResult(False, farkas_dual=_fractions_over(-(signs * dual[0]), dual[1]))
            self.step(q, "phase 1")
            x = None
        while cvec is not None and (q := self.entering((dual := self.duals(False))[2])) is not None:
            self.step(q, "phase 2")
            x = None
        (V, d), s = x or self.values(self.bp), self.basis < n
        solution = np.full(n, Fraction(0), dtype=object)
        solution[self.basis[s]] = _fractions_over(V[s, 0], d)
        if cvec is None:
            return LinearProgramResult(True, tuple(solution.tolist()), (Fraction(0),) * self.m)
        value = Fraction(cvec[self.basis[s]].astype(object) @ V[s, 0], d)
        dual = _fractions_over(signs * dual[0], dual[1])
        return LinearProgramResult(True, tuple(solution.tolist()), dual, None, value)


def _largest(T: np.ndarray) -> int:
    """The largest magnitude in the integer array ``T``, as a Python int."""
    return max(abs(int(T.max(initial=0))), abs(int(T.min(initial=0))))


def _scaled_dot(y: np.ndarray, M: np.ndarray, largest: int | None = None) -> np.ndarray:
    """``(s y) @ M`` in integers, ``s`` the common denominator of the exact
    ``y``: in ``int64`` when ``M`` is integer and a bound rules out
    overflow, else on Python objects.  ``largest`` is ``_largest(M)``
    when the caller holds it."""
    w = _to_integers(y.tolist())[1]
    dtype = object
    if M.dtype.kind == "i":
        largest = _largest(M) if largest is None else largest
        # The bound counts |M| as at least 1, so every w entry itself fits too.
        if len(w) * max(map(abs, w), default=0) * max(largest, 1) < 2**63:
            dtype = np.int64
    return np.array(w, dtype=dtype) @ M


def _priced(w: np.ndarray, d: int, signs: np.ndarray, A: np.ndarray, cvec, largest: tuple) -> np.ndarray:
    """``y . A'_j - c_j`` on every column, times ``d``, for ``y = w / d``
    with integer ``w`` and ``d > 0`` (``c = 0`` without an objective):
    ``(signs * w) . A_j - d c_j``, in ``int64`` while a bound rules out
    overflow.  ``largest`` holds ``_largest`` of ``A`` and of ``c``."""
    p = _scaled_dot(signs * w, A, largest[0])
    if cvec is None:
        return p
    if p.dtype == object or _largest(p) + d * max(largest[1], 1) >= 2**63:
        p, cvec = p.astype(object), cvec.astype(object)
    return p - d * cvec


def _exact_solve(M, rhs) -> tuple | None:
    """``(Z, d)``, ``d > 0``: ``z = Z[:k] / d`` solves the top ``k`` rows
    of ``M z = rhs`` (``M`` is an ``h x k`` integer array, ``h >= k``;
    ``rhs`` an exact vector or one column per right-hand side), and each
    lower row holds its residual ``rhs_i - M_i z`` times ``d`` and a
    positive factor of the row; None when ``M[:k]`` is singular.

    Each row of ``M`` is divided by its content (gcd), so that a large
    common factor does not grow into every minor; the row's factor moves
    into the right-hand side, which is then cleared of its denominators by
    one ``D``.  Fraction-free Gauss-Jordan elimination (Bareiss, Math.
    Comp. 1968) on ``[M | rhs]``, pivoting in the top ``k`` rows, keeps
    every entry a minor, so each division by the previous pivot is exact.
    Steps run in ``int64`` while ``2 max|T|**2 < 2**63`` proves no
    overflow, then on Python ints: ``big >= max|T|`` grows to ``2 big**2 /
    |prev|`` per step, and only when it trips does a scan of ``T`` decide.
    The last pivot ``p`` ends on the whole diagonal, and ``z = (p D z) /
    (p D)``.
    """
    flat = np.ndim(rhs) == 1
    R = np.array(rhs, dtype=object, ndmin=2).T if flat else np.asarray(rhs, dtype=object)
    M = np.asarray(M)
    (h, r), k = R.shape, M.shape[1]
    g = np.gcd.reduce(M, axis=1) if M.dtype != object else np.array([math.gcd(*v) for v in M.tolist()], dtype=object)
    D, b = _to_integers(R.ravel().tolist())
    L = 1
    if (g > 1).any():  # a zero row has content 0 and is left as it is
        g = np.maximum(g, 1)
        M, L = M // g[:, None], math.lcm(*g.tolist())
        scales = [L // v for v in g.tolist()]
        b = [scales[i // r] * v for i, v in enumerate(b)]
    big = max(_largest(M), max(map(abs, b), default=0))
    T = np.empty((h, k + r), dtype=np.int64 if big < 2**63 else object)
    T[:, :k], T[:, k:] = M, np.reshape(np.array(b, dtype=object), (h, r))
    prev = 1
    for c in range(k):
        if T.dtype != object and 2 * big**2 >= 2**63:
            big = _largest(T)
            if 2 * big**2 >= 2**63:
                T = T.astype(object)
        nonzero = T[c:k, c].nonzero()[0]
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
    Z = T[:, k] if flat else T[:, k:]
    return (Z, prev * D * L) if prev > 0 else (-Z, -prev * D * L)


def _fractions_over(z: np.ndarray, d: int) -> tuple:
    """The numerators ``z`` over ``d`` as a tuple of ``Fraction`` objects."""
    return tuple(Fraction(v, d) for v in z.tolist())


def solve(A, b, objective=None, *, rational: bool = False) -> LinearProgramResult:
    """Decide feasibility and optionally minimize ``objective`` over it.

    Rows of ``A`` are equality constraints; variables are implicitly
    nonnegative.  ``A`` and ``objective`` hold integers in both modes
    (``int64``, or Python ints past it), as a moment matrix and its costs
    do; any other entry is refused with :class:`ValidationError`.  In
    float mode every entry of ``b`` must be a real number, never a bool or
    a string, else :class:`ValidationError`.  In rational mode it must be
    an ``int`` or ``Fraction``, else :class:`RationalInputError`; every
    answer is exact, and :data:`TOLERANCE` steers only the float search.
    The float search and the exact engine each raise
    :class:`IterationLimitError` past :data:`MAX_PIVOTS` pivots; in
    rational mode the float search's raise sends the exact engine to the
    slack basis instead.
    """
    m = len(b)
    n = len(A[0]) if m else (len(objective) if objective is not None else 0)
    if len(A) != m or any(len(row) != n for row in A):
        raise DimensionError("constraint matrix is ragged or does not match the right-hand side")
    if objective is not None and len(objective) != n:
        raise DimensionError("objective length does not match variable count")
    A = _integers(A, "constraint matrix").reshape(m, n)
    cvec = None if objective is None else _integers(objective, "objective")

    if not rational:
        _real_entries("right-hand side", b)

    # Flip rows so the right-hand side is nonnegative; remember the signs
    # to map duals back to the original orientation.
    bvec = np.array([*map(_to_fraction, b)], dtype=object) if rational else _float_input(b)
    negative = bvec < 0
    signs = np.where(negative, -1, 1)
    bp = bvec.copy()
    bp[negative] = -bvec[negative]
    if not rational:
        lp = _Revised(_float_input(A), signs, bp, None if cvec is None else _float_input(cvec))
        return lp.result(lp.two_phase(), signs)

    search, basis, infeasible = None, None, False
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            Af, bf, cf = _float_input(A), bp.astype(float), None if cvec is None else cvec.astype(float)
            search = _Revised(Af, signs, bf, cf)
            infeasible, basis = search.two_phase(), search.basis
    except (OverflowError, FloatingPointError, UnboundedObjectiveError, IterationLimitError):
        pass  # the exact engine starts from the slack basis
    engine = _Exact(A, signs, bp, cvec, basis)
    result = engine.run(infeasible)
    searched = search.iterations if search is not None else 0
    return replace(result, iterations=searched + engine.iterations, exact_pivots=engine.iterations)
