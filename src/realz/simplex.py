"""Two-phase revised simplex for equality-form programs.

Solves ``minimize c.x  subject to  A x = b, x >= 0`` for an integer ``A``
and ``c``, as a moment matrix and its costs are, by Dantzig's rule, with a
stall guard that falls back to Bland's rule for good when too many pivots
pass without progress, so every solve terminates.  Phase 1 may end
with artificials basic at zero (on redundant rows, say); phase 2 prices no
artificial, and one leaves, at a zero step, as soon as the entering column
touches its row, so that no step lifts an artificial off zero.

One simplex runs in two arithmetics.  Float mode runs it in ``float64``
against an explicit basis inverse.  Rational mode searches in float and
decides exactly, after Applegate, Cook, Dash and Espinoza (*Exact solutions
to linear programming problems*, Oper. Res. Lett. 2007), at the float
search's final basis ``B`` first.  The right-hand side is cleared once to
Python ints over one scale, the lcm of its denominators, and the float
search, the proof and the exact engine all read that one integer form.
The float search keeps ``det B`` as the product of its pivot elements, so
``d = round(|det B|)`` needs no factorization; the float inverse times
``d``, rounded to integers, is proved ``d Binv`` by one integer product,
and it proves a basis the float search got right with no exact pivot.
Only where that proof declines does the same simplex run again in
integers, from ``B`` installed on an integer inverse times the determinant
and updated by fraction-free rank-1 steps: it pivots on from ``B``, or
from the slack basis when ``B`` is singular or has a negative exact value
or the float search raised.  ``Fraction`` objects are built for the answer
alone, which also hands its integers over (:func:`_answer`).

Sign convention for infeasibility, fixed here and relied on downstream: the
returned ``farkas_dual`` vector ``y`` satisfies

    y . A >= 0   componentwise (within ``TOLERANCE`` in float mode)
    y . b <  0

so any ``x >= 0`` with ``A x = b`` would give the contradiction
``0 <= (y.A).x = y.b < 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    A rational answer also hands its values over as Python ints in
    ``_integers`` (no dataclass field; None in float mode), ``(support,
    duals)``: ``support`` is ``(columns, numerators, scale)``, the positive
    entries of ``solution`` in column order as numerators over their least
    common denominator (None when infeasible), and ``duals`` is
    ``(numerators, d)``, ``farkas_dual`` or else ``dual`` over one common
    denominator ``d`` (None with neither).  A feasible float answer hands
    ``solution`` over as the ``float64`` array it was read from, in
    ``_solution`` (likewise no field; None in rational mode).
    """

    feasible: bool
    solution: tuple | None = None
    dual: tuple | None = None
    farkas_dual: tuple | None = None
    objective_value: Scalar | None = None
    iterations: int = 0
    exact_pivots: int = 0

    _integers = None  # not annotated, so no dataclass field
    _solution = None


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
    one (objects): :class:`_Revised` makes the one float copy, as it makes
    the matrix's and the costs'."""
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
    """The two phases, pivot rule, stall guard and phase-2 artificial rule
    of the float search and the exact engine: Dantzig's rule until
    :meth:`pivoted` switches to Bland's.  Each engine sets a phase's costs
    (``start``), reads its objective (``objective``) and pivots in its own
    arithmetic (``iterate``)."""

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

    def two_phase(self) -> bool:
        """Phase 1, then (when feasible, under an objective) phase 2; True
        when phase 1 ends above the tolerance: the system is infeasible."""
        # Phase 1: minimize the sum of the artificial variables.
        self.start(0, 1)
        self.iterate(self.priced, "phase 1")
        if self.objective() > self.tol:
            return True
        if self.cvec is not None:
            self.start(self.cvec, 0)
            self.iterate(self.n, "phase 2")
        return False

    def artificials(self, phase: str) -> list:
        """The rows of the basic artificials: in phase 2, which prices no
        artificial, they only leave (:meth:`touched`)."""
        return (self.basis >= self.n).nonzero()[0].tolist() if phase == "phase 2" else []

    def touched(self, artificial: list, column: np.ndarray):
        """The first row of ``artificial`` that ``column`` touches, taken
        off the list, or None: its artificial leaves at a zero step, so no
        step lifts an artificial off zero."""
        for r in artificial:
            if abs(column[r]) > self.tol:
                artificial.remove(r)
                return r
        return None


class _Revised(_Pivots):
    """Two-phase revised simplex in ``float64`` on ``A' x = b'`` (``b' >=
    0``) from the artificial basis, against an explicit basis inverse.

    ``At`` holds one row ``(a_j, c_j)`` per column: the ``n`` columns of
    ``A'``, then the ``m`` unit artificial ones, with the phase's costs
    last.  ``K = [[Binv, 0, x_B], [y, -1, z]]`` borders the inverse with
    the basic values, the duals ``y = c_B Binv`` and the objective.  A
    pivot prices every column by one product (``At @ Kc[m]``, ``Kc = K[:,
    :m+1]``), reads the entering column ``Kc @ (a_q, c_q)`` and updates
    ``K`` by one rank-1 step (Dantzig and Orchard-Hays, MTAC 1954).  The
    whole pivot is one flat loop (:meth:`iterate`) on buffers bound here,
    once per solve: ``K`` and its views ``Kc`` and ``x_B``, the prices,
    the entering column, the ratio test's mask and ratios and the rank-1
    step's outer product, each written in place, so a pivot under
    Dantzig's rule allocates only views and scalars (Bland's tie-breaks
    allocate) and calls two methods, :meth:`entering` and :meth:`pivoted`.
    ``det`` is ``det B`` of the signed matrix, the product of the pivot
    elements (the new basis is ``B`` times the eta matrix of ``u = Binv
    a_q``, and the artificial basis starts at 1), with no factorization;
    a Python float, ``inf`` past the float range with no warning; rational
    mode's proof reads it (:func:`_prove`).  ``signs`` is None where no
    row is flipped.  :class:`_Exact` runs the same phases (:meth:`two_phase`)
    in integers, behind its own loop.
    """

    def __init__(self, A, signs, bp, cvec):
        m, n = A.shape
        super().__init__(m, n)
        self.signs, self.cvec, self.tol, self.det = signs, cvec, TOLERANCE, 1.0
        self.priced = n + m  # columns phase 1 prices: the artificials too
        self.At = np.zeros((n + m, m + 1))
        self.At[:n, :m] = A.T  # cast to float as it is copied in
        if signs is not None:
            self.At[:n, :m] *= signs
        np.fill_diagonal(self.At[n:], 1)
        self.K = np.zeros((m + 1, m + 2))
        np.fill_diagonal(self.K[:m], 1)
        self.K[:m, -1] = bp
        self.Kc, self.x_B = self.K[:, : m + 1], self.K[:m, -1]
        self.prices, self.column, self.outer = np.empty(n + m), np.empty(m + 1), np.empty((m + 1, m + 2))
        self.mask, self.ratios = np.empty(m, dtype=bool), np.empty(m)
        self.basis = np.arange(n, n + m)

    def start(self, structural, artificial) -> None:
        """Set the phase's costs, then ``y`` and ``z`` of the current basis."""
        m, K = self.m, self.K
        self.At[: self.n, m] = structural
        self.At[self.n :, m] = artificial
        K[m] = 0.0 + self.At[self.basis, m] @ K[:m]  # 0.0 + turns a -0.0 into 0.0
        K[m, m] = -1

    def objective(self):
        """``z``, the objective of the phase's costs at the basis."""
        return self.K[self.m, -1]

    def iterate(self, limit: int, phase: str) -> None:
        """Pivot on the first ``limit`` columns until none prices in: price,
        read the entering column, take the leaving row (the phase-2
        artificial rule, else the ratio test, ties to the first row or,
        under Bland's rule, to the lowest basic index) and step, all on
        the bound buffers."""
        m, tol, K, Kc, x_B, basis = self.m, self.tol, self.K, self.Kc, self.x_B, self.basis
        At, p, y, column, outer = self.At[:limit], self.prices[:limit], Kc[m], self.column, self.outer
        u, spread, mask, ratios, inf = column[:m], column[:, None], self.mask, self.ratios, np.inf
        artificial = self.artificials(phase)
        while (q := self.entering(np.dot(At, y, out=p))) is not None:
            np.matmul(Kc, At[q], out=column)
            if artificial and (r := self.touched(artificial, column)) is not None:
                theta = 0
            else:
                ratios.fill(inf)
                np.divide(x_B, u, out=ratios, where=np.greater(u, tol, out=mask))
                # No finite ratio, or no row at all (m = 0): nothing bounds the step.
                if not m or ratios[r := ratios.argmin()] == inf:
                    raise UnboundedObjectiveError("objective unbounded below")
                if self.rule == "bland":
                    ties = (ratios == ratios[r]).nonzero()[0]
                    r = ties[np.argmin(basis[ties])]
                theta = ratios[r]
            # Column q replaces the basic variable of row r.
            pivot, row = column[r], K[r]
            self.det *= float(pivot)
            row /= pivot
            column[r] = 0
            K -= np.multiply(spread, row, out=outer)
            basis[r] = q
            self.pivoted(theta > 0, phase)

    def result(self, infeasible: bool) -> LinearProgramResult:
        """The answer read off ``K``: ``x_B``, the duals ``y`` and ``z``."""
        m, n, K, signs = self.m, self.n, self.K, self.signs
        y = K[m, :m] if signs is None else signs * K[m, :m]
        if infeasible:  # y solves the phase-1 dual; -y has the documented orientation
            return LinearProgramResult(False, farkas_dual=tuple((-y).tolist()), iterations=self.iterations)
        basic = self.basis < n
        columns, x_B = self.basis[basic], self.x_B[basic]
        x_B[(-self.tol < x_B) & (x_B < 0)] = 0.0  # round-off below zero
        x, solution = np.zeros(n), [0.0] * n
        x[columns] = x_B
        for k, v in zip(columns.tolist(), x_B.tolist()):  # m entries, not n
            solution[k] = v
        dual, value = (0.0,) * m, None
        if self.cvec is not None:
            dual, value = tuple(y.tolist()), float(K[m, -1])
        result = LinearProgramResult(True, tuple(solution), dual, None, value, self.iterations)
        object.__setattr__(result, "_solution", x)
        return result


class _Exact(_Pivots):
    """:class:`_Revised` in integers, on ``A' x = b'`` from ``basis`` (None:
    the slack basis), which it installs by pivots that count as none.
    :func:`solve` builds it only where :func:`_prove` declines the float
    basis: to pivot from it, or to prove one past the proof's bounds.

    ``K`` is held times ``d = |det B|``, and ``b'`` as the nonnegative
    integers ``b`` over ``scale`` that :func:`solve` cleared it to:
    ``inverse`` is ``d [[Binv, 0], [y, -1]]`` and ``rhs`` is ``d scale
    [x_B, z]``, each a :class:`_Bounded`, so ``rhs`` may move to Python
    ints alone.  A pivot takes the
    fraction-free rank-1 step ``K <- (u_r K - u (x) K_r) / d``, keeping
    row ``r``, then ``d <- u_r``: every entry is a minor, so each division
    is exact (Bareiss, Math. Comp. 1968).  Only the arithmetic differs
    from :class:`_Revised`, behind a short loop of its own: a ratio test by
    cross-multiplication (:meth:`leaving`), the integer pivot
    (:meth:`pivot`) and ``Fraction`` answers; phase 1 prices no artificial
    and ends at ``z = 0``.  ``signs`` is None where no row is flipped, as
    in :class:`_Revised`.
    """

    def __init__(self, A, signs, b, cvec, basis, scale: int = 1):
        m, n = A.shape
        super().__init__(m, n)
        self.signs, self.cvec, self.target, self.scale = signs, cvec, basis, scale
        self.priced = n  # no artificial re-enters
        dtype = object if object in (A.dtype, getattr(cvec, "dtype", None)) else np.int64
        self.At = np.zeros((n + m, m + 1), dtype=dtype)
        self.At[:n, :m] = A.T if signs is None else A.T * signs
        np.fill_diagonal(self.At[n:], 1)
        # Every entry of At, the costs of both phases too, is at most amax.
        self.amax = max(_largest(A), 1 if cvec is None else _largest(cvec), 1)
        self.b = _Bounded.of(np.array([*b, 0], dtype=object)[:, None])  # [b', 0], the slack basis's
        self.slack()

    def slack(self) -> None:
        """Start over from the slack basis: ``K = [[I, 0, b'], [0, -1, 0]]``."""
        m = self.m
        self.basis, self.d = np.arange(self.n, self.n + m), 1
        identity = np.diag(np.array([1] * m + [-1], dtype=np.int64))
        self.inverse, self.rhs = _Bounded(identity, 1), _Bounded(self.b.T.copy(), self.b.big)

    @property
    def Kc(self) -> np.ndarray:
        """``d [[Binv, 0], [y, -1]]``, on Python ints unless its product
        with a column of ``At`` fits ``int64``."""
        return self.inverse.room((self.m + 1) * self.amax)

    def objective(self):
        return self.rhs.T[self.m, 0]

    def start(self, structural, artificial) -> None:
        m, n = self.m, self.n
        self.At[:n, m], self.At[n:, m] = structural, artificial
        c_B = self.At[self.basis, m]
        for block in self.inverse, self.rhs:
            T = block.room(m * self.amax)
            T[m] = c_B @ T[:m]
            block.big = max(block.big, int(abs(T[m]).max()))
        self.inverse.T[m, m] = -self.d

    def iterate(self, limit: int, phase: str) -> None:
        """Pivot on the first ``limit`` columns until none prices in or,
        in phase 1, ``z`` reaches 0: :meth:`_Revised.iterate`'s loop on
        :meth:`leaving` and :meth:`pivot`."""
        m, At = self.m, self.At[:limit]
        artificial = self.artificials(phase)
        while not (phase == "phase 1" and not self.objective()):
            if (q := self.entering(At @ (Kc := self.Kc)[m])) is None:
                return
            column = Kc @ At[q]
            if artificial and (r := self.touched(artificial, column)) is not None:
                theta = 0
            else:
                r, theta = self.leaving(column[:m])
            self.pivot(r, q, column)
            self.pivoted(theta > 0, phase)

    def leaving(self, u: np.ndarray):
        """The least ``x_B / u`` over ``u > 0``, compared by
        cross-multiplication, ties to the first row or, under Bland's rule,
        to the lowest basic index; the step's sign is that of ``x_r``."""
        x, u = self.rhs.T[: self.m, 0].tolist(), u.tolist()
        tie = self.basis.tolist() if self.rule == "bland" else range(self.m)
        if not (rows := [i for i, v in enumerate(u) if v > 0]):
            raise UnboundedObjectiveError("objective unbounded below")
        r = min(rows, key=cmp_to_key(lambda i, j: x[i] * u[j] - x[j] * u[i] or tie[i] - tie[j]))
        return r, x[r]

    def pivot(self, r: int, q: int, column: np.ndarray, blocks: tuple = ()) -> None:
        """Column ``q`` enters on row ``r`` by the step of ``blocks``
        (default: ``inverse`` and ``rhs``), ``T <- (p T - u' (x) T_r) / d``
        for ``p = |u_r|`` and ``u'`` the column times the sign ``s`` of
        ``u_r`` with ``u'_r = p - s d``: row ``r`` comes out as ``s T_r``."""
        p = int(column[r])
        bound = max(map(abs, column.tolist())) + self.d
        u = column if p > 0 else -column
        u[r] = abs(p) - (self.d if p > 0 else -self.d)
        for block in blocks or (self.inverse, self.rhs):
            block.update(r, u, abs(p), self.d, bound)
        self.d = abs(p)
        self.basis[r] = q

    def install(self) -> bool:
        """Pivot ``target`` in from the slack basis, each structural column
        on the first row it touches whose slack leaves; put each at its
        position and set ``rhs`` by one product.  False when the basis is
        singular."""
        if self.target is None:
            return True
        m, n, target = self.m, self.n, self.target
        free = sorted(set(range(m)) - set((target[target >= n] - n).tolist()))  # rows whose slack leaves
        for q in target[target < n].tolist():
            u = self.Kc @ self.At[q]
            touched = u.tolist()
            if (r := next((i for i in free if touched[i]), None)) is None:
                return False
            self.pivot(r, q, u, (self.inverse,))
            free.remove(r)
        where = np.empty(n + m, dtype=np.intp)
        where[self.basis] = np.arange(m)
        self.inverse.T[:m] = self.inverse.T[where[target]]
        self.basis = target.copy()
        # The slack basis's right-hand side is b'; d Binv b' is exact.
        K, b = self.inverse.room(m * max(self.b.big, 1))[:, :m], self.b.T[:m]
        self.rhs = _Bounded.of(K @ b if K.dtype == b.dtype else K.astype(object) @ b.astype(object))
        return True

    def run(self, infeasible: bool, searched: int = 0) -> LinearProgramResult:
        """Prove or decide the program from ``basis``, where the float
        search gave the verdict ``infeasible`` after ``searched`` pivots."""
        proper = self.install()
        if infeasible and proper:
            # A Farkas proof needs no primal values, so it is read first:
            # z > 0 and no column prices in at the float basis.
            self.start(0, 1)
            if self.objective() > 0 and (self.At[: self.n] @ self.Kc[self.m] <= 0).all():
                return self.result(True, searched)
        if not proper or (self.rhs.T[: self.m] < 0).any():
            self.slack()
        return self.result(self.two_phase(), searched)

    def result(self, infeasible: bool, searched: int = 0) -> LinearProgramResult:
        m, rhs = self.m, self.rhs.T[:, 0]
        y, d = self.inverse.T[m, :m], self.d
        return _answer(self, infeasible, y, rhs[:m], rhs[m], d, self.scale, searched + self.iterations, self.iterations)


class _Bounded:
    """An integer array ``T`` in ``int64`` while the running bound ``big >=
    max|T|`` proves that the next step cannot overflow, and on Python ints
    from the first step where it cannot; a tripped bound is rescanned
    before it moves ``T``."""

    def __init__(self, T: np.ndarray, big: int):
        self.T, self.big = T, big

    @classmethod
    def of(cls, T: np.ndarray) -> "_Bounded":
        """``T`` in ``int64`` when its entries fit, else on Python ints."""
        big = _largest(T)
        return cls(T.astype(np.int64 if big < 2**63 else object), big)

    def room(self, factor: int) -> np.ndarray:
        """``T``, moved to Python ints unless ``factor * max|T| < 2**63``."""
        # The bound counts max|T| as at least 1, so the factor itself fits.
        if self.T.dtype != object and factor * max(self.big, 1) >= 2**63:
            self.big = _largest(self.T)
            if factor * max(self.big, 1) >= 2**63:
                self.T = self.T.astype(object)
        return self.T

    def update(self, r: int, u: np.ndarray, p: int, d: int, bound: int) -> None:
        """``T <- (p T - u (x) T_r) / d``, exact, for ``bound`` at least
        ``p``, ``d`` and every ``|u_i|``."""
        T = self.room(2 * bound)
        u = u.astype(T.dtype, copy=False)  # on Python ints, so is u
        outer = u[:, None] * T[r]
        T *= p
        T -= outer
        if d > 1:
            T //= d
        if T.dtype != object:  # on Python ints the bound is no longer read
            self.big = max(self.big, 2 * bound * self.big // d + 1)


def _largest(T: np.ndarray) -> int:
    """The largest magnitude in the integer array ``T``, as a Python int."""
    return max(abs(int(T.max(initial=0))), abs(int(T.min(initial=0))))


def _fractions_over(z: list, d: int) -> tuple:
    """The numerators ``z`` over ``d`` as ``Fraction`` objects, one built
    per distinct value."""
    fractions = {v: Fraction(v, d) for v in set(z)}
    return tuple(map(fractions.__getitem__, z))


def _answer(lp, infeasible: bool, y, x, z, d: int, scale: int, iterations: int, exact_pivots: int = 0):
    """The exact answer at ``lp``'s basis, from integers, after
    ``iterations`` pivots: ``y`` is ``d`` times the phase's duals, ``x``
    and ``z`` are ``d scale`` times the basic values and the objective.
    ``Fraction`` reduces every value, so ``d`` may be any multiple of
    their denominator.  The integers go over as the result's
    ``_integers`` (:class:`LinearProgramResult`): the duals signed by
    ``lp.signs`` (None: no row flipped), over ``d``, and the support's
    numerators divided by their gcd with the denominator, which leaves
    them over the least one."""
    y = (y if lp.signs is None else lp.signs * y).tolist()
    if infeasible:
        y = [-v for v in y]
        result = LinearProgramResult(False, None, None, _fractions_over(y, d), None, iterations, exact_pivots)
        object.__setattr__(result, "_integers", (None, (y, d)))
        return result
    scale *= d
    basic = lp.basis < lp.n
    atoms = sorted((k, v) for k, v in zip(lp.basis[basic].tolist(), x[basic].tolist()) if v > 0)
    solution = [Fraction(0)] * lp.n
    for k, v in atoms:
        solution[k] = Fraction(v, scale)
    common = math.gcd(scale, *(v for _, v in atoms))
    support = [k for k, _ in atoms], [v // common for _, v in atoms], scale // common
    if lp.cvec is None:
        dual, value, duals = (Fraction(0),) * lp.m, None, None
    else:
        dual, value, duals = _fractions_over(y, d), Fraction(int(z), scale), (y, d)
    result = LinearProgramResult(True, tuple(solution), dual, None, value, iterations, exact_pivots)
    object.__setattr__(result, "_integers", (support, duals))
    return result


#: ``e**36``, just under ``2**52``: a larger ``|det B|`` is not read in float.
_DETERMINANT_BOUND = math.exp(36)


def _exactly(M: np.ndarray, v, bound: int) -> np.ndarray:
    """``M @ v`` for an integer-valued float ``M`` and integers ``v`` whose
    every partial sum is at most ``bound`` in magnitude: by BLAS in
    ``float64`` below ``2**53``, where each sum is exact, else on Python
    ints."""
    if bound < 2**53:
        return (M @ np.asarray(v, dtype=float)).astype(np.int64)
    return M.astype(np.int64).astype(object) @ np.asarray(v, dtype=object)


def _prove(search: _Revised, A: np.ndarray, b: list, scale: int, cvec, infeasible: bool) -> LinearProgramResult | None:
    """The exact answer at the float search's final basis ``B`` where
    :meth:`_Exact.run` gives it with no pivot, by its rules in their order,
    else None.  ``b`` is the right-hand side as :func:`solve` cleared it,
    nonnegative integers over ``scale``.  ``N``, the float inverse times
    ``d = round(|det B|)``, rounded, stands once ``B N = d I`` holds
    exactly; ``|det B|`` is read off the search's pivot elements
    (``_Revised.det``), and the check guards it as it guards ``N``.  Every
    product is exact (:func:`_exactly`).  A matrix or costs past
    ``int64``, ``|det B| >= e**36`` (just under ``2**52``) and a check
    whose partial sums can pass ``2**53`` decline.
    """
    m, n, basis = search.m, search.n, search.basis
    if A.dtype == object or getattr(cvec, "dtype", None) == object:
        return None
    At, B, Binv = search.At[:n, :m], search.At[basis, :m].T, search.K[:m, :m]
    # Python floats: an overflow here is inf, with no warning, and declines.
    d = round(det) if (det := abs(search.det)) < _DETERMINANT_BOUND else 0
    top = d * float(np.abs(Binv).max(initial=0))
    if not (d and top < 2**52):
        return None
    N = np.rint(Binv * d)
    # Rounding keeps order and sign, so the largest |N| is top rounded.
    nmax, amax = round(top), max(_largest(A), 1)
    check = B @ N
    check.flat[:: m + 1] -= d
    if m * amax * nmax >= 2**53 or check.any():  # below 2**53, B @ N is exact
        return None
    x = _exactly(N, b, m * nmax * max(b, default=0))
    artificial = basis >= n
    y, z = N[artificial].sum(axis=0).astype(np.int64), int(x[artificial].sum())
    if z > 0 or (x < 0).any():
        # Phase 1 ends above zero with no column priced in: a Farkas proof.
        # Else exact pivots follow.
        if z > 0 and (infeasible or (x >= 0).all()) and not (_exactly(At, y, m * amax * _largest(y)) > 0).any():
            return _answer(search, True, y, x, z, d, scale, search.iterations)
        return None
    if cvec is None:
        return _answer(search, False, y, x, z, d, scale, search.iterations)
    c_B = np.zeros(m, dtype=np.int64)
    c_B[~artificial] = cvec[basis[~artificial]]
    cmax = _largest(cvec)
    y = _exactly(N.T, c_B, m * cmax * nmax)
    if d * cmax >= 2**63 or (_exactly(At, y, m * amax * _largest(y)) > d * cvec).any():
        return None
    z = sum(c * v for c, v in zip(c_B.tolist(), x.tolist()))
    return _answer(search, False, y, x, z, d, scale, search.iterations)


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
    There ``b`` is cleared once to Python ints over the lcm of its
    denominators, which the float search (as each ``v / scale``, the
    entry's float), the proof and the exact engine read, and the answer
    hands its values over as integers too (``_integers``).
    The float search and the exact engine each raise
    :class:`IterationLimitError` past :data:`MAX_PIVOTS` pivots; in
    rational mode the float search's raise sends the exact engine to the
    slack basis instead.
    """
    m = len(b)
    n = len(A[0]) if m else (len(objective) if objective is not None else 0)
    # A two-dimensional array's rows all have its width.
    if len(A) != m or not (isinstance(A, np.ndarray) and A.ndim == 2) and any(len(row) != n for row in A):
        raise DimensionError("constraint matrix is ragged or does not match the right-hand side")
    if objective is not None and len(objective) != n:
        raise DimensionError("objective length does not match variable count")
    A = _integers(A, "constraint matrix").reshape(m, n)
    cvec = None if objective is None else _integers(objective, "objective")

    if not rational:
        _real_entries("right-hand side", b)
        try:
            bvec = _float_input(b)
        except OverflowError:  # an int or Fraction past the float range
            raise ValidationError("right-hand side must be finite") from None
        # Flip rows so the right-hand side is nonnegative; remember the
        # signs, if any row flips, to map duals back to the original
        # orientation.
        bp, signs, negative = bvec, None, bvec < 0
        if negative.any():
            signs, bp = np.where(negative, -1, 1), bvec.copy()
            bp[negative] = -bvec[negative]
        # Flipped, a NaN or an infinity of either sign tops every entry.
        if not bp.max(initial=0) < np.inf:
            raise ValidationError("right-hand side must be finite")
        lp = _Revised(A, signs, bp, cvec)
        return lp.result(lp.two_phase())

    # The right-hand side cleared once, to Python ints over one scale, and
    # flipped as in float mode, with no signs where no row flips: every
    # engine below reads this form.
    if not set(map(type, b)) <= {int, Fraction}:
        b = list(map(_to_fraction, b))
    scale, b = _to_integers(b)
    signs = None
    if any(v < 0 for v in b):
        signs = np.array([-1 if v < 0 else 1 for v in b], dtype=np.int64)
        b = list(map(abs, b))
    search, basis, infeasible = None, None, False
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            search = _Revised(A, signs, [v / scale for v in b], cvec)
            infeasible, basis = search.two_phase(), search.basis
    except (OverflowError, FloatingPointError, UnboundedObjectiveError, IterationLimitError):
        pass  # the exact engine starts from the slack basis
    if basis is not None and (proof := _prove(search, A, b, scale, cvec, infeasible)) is not None:
        return proof
    engine = _Exact(A, signs, b, cvec, basis, scale)
    return engine.run(infeasible, search.iterations if search is not None else 0)
