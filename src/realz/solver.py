"""Exact realizability decisions over enumerated configuration spaces.

A prescribed correlation pair is realizable on a finite domain exactly when
the linear program

    sum_eta p_eta = 1
    sum_eta n_i(eta) p_eta = rho1_i                    for every site i
    sum_eta fp2(eta)_ij p_eta = rho2_ij                for every pair i <= j
    p_eta >= 0

is feasible, where ``fp2`` is the second factorial power.  Feasibility
yields an explicit realizing distribution; infeasibility yields a Farkas
dual that maps directly onto a quadratic certificate: the dual of the
normalization row becomes ``f0``, duals of first-moment rows become ``f1``,
duals of pair rows become ``f2`` (off-diagonal duals split evenly between
the two symmetric entries).

The full check, the third-moment minimum and the orbit-reduced stationary
check all run this one program (:func:`_moment_lp`).  Under a site
permutation group, columns become configuration orbits and rows become site
and pair orbits: a row sums its moment over the orbit, and its dual becomes
the coefficient of every site or pair of the orbit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import enumeration, simplex
from .core import (
    CorrelationPair,
    Distribution,
    Domain,
    QuadraticPolynomial,
    RealizationResult,
    Scalar,
    _blocks,
    _float_entries,
    _observable,
    _observable_at,
    _pyscalar,
    pairing,
)
# enumerate_configurations is called through the enumeration module, but
# stays in this namespace, where perfbench's tracer and its tests look it up.
from .enumeration import enumerate_configurations  # noqa: F401
from .errors import DimensionError, RationalInputError, ValidationError


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the feasibility core.

    Float mode compares at one fixed bar, :data:`realz.simplex.TOLERANCE`:
    the simplex pivot and ratio tests, and the phase-1 optimum above which
    a system counts as infeasible.  No margin is enforced on the
    certificate read off an infeasible float run, so near the feasibility
    boundary its pairing can miss the bar that :func:`verify_certificate`
    applies.  Rational mode runs a float simplex search and then checks its
    final basis exactly (see :mod:`realz.simplex`), so there the bar steers
    only that search and never a verdict.

    The simplex pivots by Dantzig's rule (most negative reduced cost) with
    a stall guard that switches permanently to Bland's rule when too many
    pivots pass without progress, so termination stays guaranteed.  Its
    pivot budget is no option: past :data:`realz.simplex.MAX_PIVOTS` pivots
    a solve raises :class:`IterationLimitError`.
    """

    arithmetic_mode: str = "float"  # "float" | "rational"

    def __post_init__(self):
        if self.arithmetic_mode not in ("float", "rational"):
            raise ValidationError(f"unknown arithmetic mode {self.arithmetic_mode!r}")

    @property
    def rational(self) -> bool:
        return self.arithmetic_mode == "rational"


DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True)
class RestrictedCubic:
    """Quadratic observable plus ``f3`` times the third factorial sum.

    The cubic channel uses unit weights, so on a configuration with total
    particle number ``N`` the added term is ``f3 * N(N-1)(N-2)``.  Families
    of these observables govern how large a third moment any realization
    must carry.
    """

    quadratic: QuadraticPolynomial
    f3: Scalar

    def evaluate(self, config: Sequence[int]) -> Scalar:
        return _observable_at(config, self.quadratic, self.f3)

    def budget_pairing(self, corr: CorrelationPair, budget: Scalar) -> Scalar:
        """Pairing when the third-moment channel is priced at ``budget``."""
        return pairing(self.quadratic, corr) + self.f3 * budget


@dataclass(frozen=True)
class ThirdMomentResult:
    """Least third factorial moment among realizing distributions.

    ``finite`` with ``r_star`` attained by ``witness``, or infeasible with a
    quadratic certificate.  ``dual_cubic`` is the optimality certificate
    extracted from the dual: a restricted cubic, nonnegative on every
    admissible configuration, whose budget pairing vanishes at ``r_star``
    and goes negative for any smaller budget.
    """

    finite: bool
    r_star: Scalar | None = None
    witness: Distribution | None = None
    certificate: QuadraticPolynomial | None = None
    dual_cubic: RestrictedCubic | None = None


class _Orbits(tuple):
    """An orbit description ``(sites, i, j, site_starts, pair_starts)``
    (:func:`_orbits`), with the read-only arrays the maps derive from it,
    each built on first use and kept with it, so once per site count
    without a group."""

    @functools.cached_property
    def sizes(self) -> np.ndarray:
        """The member count of every site orbit, then of every pair orbit."""
        sites, i, _, site_starts, pair_starts = self
        offsets = np.concatenate((site_starts, pair_starts + len(sites), [len(sites) + len(i)]))
        return _frozen(offsets[1:] - offsets[:-1])  # np.diff, without its Python wrapper's cost on small LPs

    @functools.cached_property
    def offsets(self) -> np.ndarray:
        """Each orbit representative's offset in ``[1, *rho1, *rho2.flat]``
        (or ``[f0, *f1, *f2.flat]``): ``1 + i`` for site ``i``, ``1 + s + i
        * s + j`` for pair ``(i, j)``."""
        sites, i, j, site_starts, pair_starts = self
        s = len(sites)
        return _frozen(np.concatenate((1 + sites[site_starts], 1 + s + i[pair_starts] * s + j[pair_starts])))

    @functools.cached_property
    def halved(self) -> np.ndarray:
        """Whether each pair orbit is off the diagonal: an orbit's pairs are
        all diagonal or all off it."""
        _, i, j, _, pair_starts = self
        return _frozen(i[pair_starts] != j[pair_starts])

    @functools.cached_property
    def where(self) -> np.ndarray:
        """The row of each coefficient of ``[f0, *f1, *f2.flat]``: 0 for
        ``f0``, its orbit's row for every other, ``f2`` symmetric."""
        sites, i, j, site_starts, _ = self
        s, k = len(sites), 1 + len(site_starts)
        where = np.zeros(1 + s + s * s, dtype=np.intp)
        where[1 + sites] = np.repeat(np.arange(1, k), self.sizes[: k - 1])
        pair_rows = np.repeat(np.arange(k, k + len(self[4])), self.sizes[k - 1 :])
        where[1 + s + i * s + j] = where[1 + s + j * s + i] = pair_rows
        return _frozen(where)


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, marked read-only."""
    array.flags.writeable = False
    return array


def _orbits(s: int, labels=None) -> _Orbits:
    """``(sites, i, j, site_starts, pair_starts)``: the ``s`` sites and the
    pairs ``i <= j`` grouped by orbit, and each orbit's first offset.  One
    stable sort of ``labels`` (``FiniteGroup._orbit_labels``: each site and
    pair keyed by its orbit's least member, site ``a`` as ``a`` and pair
    ``(a, b)`` as ``a * s + b``) orders the orbits by least member, members
    ascending, and a member whose own key is its label starts its orbit.
    Without labels each site and pair is its own orbit, and the
    description is built once per site count (:func:`_plain_orbits`)."""
    if labels is None:
        return _plain_orbits(s)
    _, i, j, _, _ = _plain_orbits(s)
    site_labels, pair_labels = labels
    sites, pairs = np.argsort(site_labels, kind="stable"), np.argsort(pair_labels, kind="stable")
    i, j = i[pairs], j[pairs]
    starts = np.flatnonzero(site_labels[sites] == sites), np.flatnonzero(pair_labels[pairs] == i * s + j)
    return _Orbits((sites, i, j, *starts))


@functools.cache
def _plain_orbits(s: int) -> _Orbits:
    """:func:`_orbits` without labels, read-only: every site and every pair
    ``i <= j`` its own orbit, in order."""
    i, j = np.nonzero(np.arange(s)[:, None] <= np.arange(s))
    sites, pairs = np.arange(s), np.arange(len(i))
    return _Orbits(map(_frozen, (sites, i, j, sites, pairs)))


def _orbit_sums(terms: np.ndarray, starts: np.ndarray, dtype=None) -> np.ndarray:
    """The rows of ``terms`` summed over each orbit, from its offset in
    ``starts``: one-member orbits, as without a group, are their own sums."""
    return terms if len(starts) == len(terms) else np.add.reduceat(terms, starts, dtype=dtype)


def _orbit_moments(X: np.ndarray, orbits: tuple) -> tuple:
    """``(matrix, nonzero)``.  Per configuration row of ``X``, ``matrix``
    holds 1, the sum of ``n_i`` over each site orbit and of ``n_i (n_j -
    [i = j])`` over each pair orbit of ``orbits`` (:func:`_orbits`), in
    int64.

    This builds every moment LP's matrix.  The orbit sums are invariant
    under the group, so a representative's row is the moment row of every
    member of its configuration orbit, and so their average.  Rows go in
    blocks, so the pair products of one block are all that is held at
    once.  ``nonzero``, one bool per column, is whether the column has a
    nonzero entry: every term is nonnegative, so an orbit's column has one
    exactly when a member's narrow term does, which each block reads while
    it holds them.
    """
    sites, i, j, site_starts, pair_starts = orbits
    out = np.empty((len(X), 1 + len(site_starts) + len(pair_starts)), dtype=np.int64)
    out[:, 0] = 1
    nonzero = np.zeros(out.shape[1], dtype=bool)
    nonzero[0] = len(X) > 0
    if not len(sites) or not len(X):  # no sites, or no rows
        return out, nonzero
    cap = int(X.max(initial=0))
    # No entry exceeds N(N - 1), N the row's particle count: the sum of
    # n_i (n_j - [i = j]) over all ordered pairs.  N is at most cap * s, so
    # the rows' counts are read only where that bound passes int64.
    if (cap * X.shape[1]) ** 2 > 2**63 - 1:
        top = int(X.sum(axis=1).max())
        if top * (top - 1) > 2**63 - 1:
            raise ValidationError(f"pair moments up to {top} * {top - 1} are past int64")
    # Products in the narrowest unsigned dtype that holds them, sums in
    # int64.  n_j - 1 wraps only at n_j = 0, where the product is 0.
    dtype = np.min_scalar_type(cap * cap)
    diagonal = (i == j).astype(dtype)[:, None]
    site_used = pair_used = False  # per site and per pair, over the blocks so far
    for rows in _blocks(len(X), len(i)):
        Y = np.ascontiguousarray(X[rows].T, dtype=dtype)  # site rows gather fast
        S, P = Y[sites], Y[i] * (Y[j] - diagonal)
        out[rows, 1 : 1 + len(site_starts)] = _orbit_sums(S, site_starts, np.int64).T
        out[rows, 1 + len(site_starts) :] = _orbit_sums(P, pair_starts, np.int64).T
        site_used, pair_used = S.any(axis=1) | site_used, P.any(axis=1) | pair_used
    # A sum of bools is nonzero exactly when one of them is.
    nonzero[1 : 1 + len(site_starts)] = _orbit_sums(site_used, site_starts)
    nonzero[1 + len(site_starts) :] = _orbit_sums(pair_used, pair_starts)
    return out, nonzero


def _orbit_polynomial(y, orbits: tuple, normalize: bool = True, scale: int | None = None):
    """Map row duals onto a quadratic observable in one pass: an infeasible
    LP's certificate, normalized, or the third-moment dual, unscaled.

    Each row dual becomes the coefficient of every site or pair of its
    orbit in ``orbits`` (:func:`_orbits`), and an off-diagonal one splits
    evenly between the two symmetric entries of ``f2``.  The coefficients
    are then group-invariant, and on every configuration the observable
    equals ``y`` paired with its orbit sums, the LP column of its
    configuration orbit; in rational mode, exactly invariant tables pair
    with it as the LP's right-hand side does.

    With ``normalize`` the halved duals are divided by their largest
    magnitude, unless it is 0 or 1, so the largest coefficient magnitude
    is one.  The scale is positive, so nonnegativity on configurations and
    the sign of any pairing hold.  Without ``scale``, ``y`` holds floats,
    and so do the coefficients.  With ``scale`` (rational mode), ``y``
    holds Python-int numerators over it, as the exact LP hands its duals
    over (over its ``d``) and the refutations theirs (over 1): they are
    halved and divided as integers, and the polynomial keeps its integer
    form over the least scale, with ``Fraction`` coefficients.
    """
    s, k, halved = len(orbits[0]), 1 + len(orbits[3]), orbits.halved
    # Each coefficient of [f0, *f1, *f2.flat] takes its orbit's value: one gather.
    where = orbits.where
    integers = None
    if scale is not None:
        # Halve the off-diagonal duals: over twice the scale, the others double.
        numerators = [v if half else 2 * v for v, half in zip(y, [False] * k + halved.tolist())]
        scale *= 2
        largest = max(map(abs, numerators))  # every orbit has a member: the largest coefficient
        if normalize and largest != 0 and largest != scale:
            scale = largest
        common = math.gcd(scale, *numerators)  # the least scale
        numerators, scale = [v // common for v in numerators], scale // common
        values = np.array([Fraction(v, scale) for v in numerators], dtype=object)
        integers = scale, [numerators[w] for w in where.tolist()], True
    else:
        values = np.array(y, dtype=float)
        values[k:][halved] /= 2
        # Every orbit has a member, so these are the magnitudes of f0, f1 and f2.
        scale = max(map(abs, values.tolist())) if normalize else 1
        if scale != 0 and scale != 1:
            values = values / scale
    flat = values[where]
    return QuadraticPolynomial._of(flat[0], flat[1 : 1 + s], flat[1 + s :].reshape(s, s), integers)


def _refutations(counts: np.ndarray, b: list, corr: CorrelationPair, orbits: tuple, margin, moments):
    """Integer row duals ``y`` of the certificates that need no LP, in the
    order they are tried; each is nonnegative on every configuration.
    ``orbits`` is the LP's orbit description (:func:`_orbits`), ``b`` its
    right-hand side, and ``moments()`` returns the LP's moment matrix
    (:func:`_orbit_moments`) and whether each of its columns is nonzero.

    First the unit dual of each entry of ``b`` below ``-margin``, every
    moment being nonnegative on configurations.  Then the count hull, the
    battery's gap and upper conditions at ``f = 1`` over the particle
    ``counts`` of the configurations (:func:`_count_bracket`): the gap
    ``(N - a)(N - c)``, with ``a <= E[N] < c`` (``a = c`` past an end), and
    the range ``(N - lo)(hi - N)``.  No attained count lies strictly
    between the roots of either, so both are nonnegative on
    configurations.
    ``E[N]`` sums ``rho1`` and ``E[N(N - 1)]`` sums ``rho2``, and a
    quadratic's pairing with ``corr`` is the battery's margin read off
    these sums; it is yielded only when that margin is below ``-margin``.
    Last, and only then is the matrix built, minus the unit dual of each
    zero column of the matrix whose entry of ``b`` exceeds ``margin`` (the
    empty-row test of LP presolve; an empty configuration space is the
    case of the normalization row).

    Exact tables are read as their integer form: ``b``'s rows, the sums
    and the margins (times the scale squared) are Python ints over its
    scale ``T``, and a value ``v / T`` is compared with ``margin = num /
    den``, the exact ratio of its float, as ``v den`` with ``num T``.
    Float tables compare as they are, with ``T``, ``den`` and ``num /
    margin`` all 1.
    """
    if corr._integers is None:
        scale, rows, (num, den) = 1, b, (margin, 1)
        total, falling = (_pyscalar(t.sum()) for t in (corr.rho1, corr.rho2))
    else:
        # Each row's numerator over the scale: the orbit size times its
        # representative's.
        scale, entries = corr._integers[:2]
        s = len(orbits[0])
        rows = [scale, *(n * entries[k] for k, n in zip(orbits.offsets.tolist(), orbits.sizes.tolist()))]
        num, den = margin.as_integer_ratio()
        total, falling = sum(entries[1 : 1 + s]), sum(entries[1 + s :])
    # den > 0, so the least row decides whether any is below the bar.
    if min(rows) * den < -num * scale:
        for row, v in enumerate(rows):
            if v * den < -num * scale:
                yield [0] * row + [1] + [0] * (len(rows) - row - 1)
    if len(counts):
        lo, hi, a, c = _count_bracket(counts, total, scale)
        # Var N, and the gap and upper margins, times scale**2.
        var = falling * scale + total * scale - total * total
        gap, upper = var - (c * scale - total) * (total - a * scale), (hi * scale - total) * (total - lo * scale) - var
        for pairs, alpha, beta, gamma in ((gap, 1, 1 - a - c, a * c), (upper, -1, lo + hi - 1, -lo * hi)):
            # The margins pair alpha N(N - 1) + beta N + gamma with corr.
            if pairs * den < -num * scale * scale:
                # N sums the site rows, and N(N - 1) the pair rows, an
                # off-diagonal one twice: n_i n_j counts in both orders.
                yield [gamma, *[beta] * len(orbits[3]), *(alpha * (1 + t) for t in orbits.halved.tolist())]
    for row in np.flatnonzero(~moments()[1]).tolist():
        if rows[row] * den > num * scale:
            yield [0] * row + [-1] + [0] * (len(rows) - row - 1)


def _count_bracket(counts: np.ndarray, total, scale) -> tuple:
    """``(lo, hi, a, c)`` of the particle ``counts`` attained (one at
    least) about the mean ``E[N] = total / scale``, as
    ``conditions._extremes`` brackets them: the least and the greatest
    count, the greatest at most ``E[N]`` (else ``lo``) and the least above
    it (else ``hi``).  Every count from ``lo`` to ``hi`` is attained (a
    particle can always be removed, an orbit's representative has its
    members' count, and under ``total_exact`` ``lo = hi``), and an integer
    count compares with ``E[N]`` as with its floor, so ``a`` and ``c`` are
    the floor and the next integer, clamped into ``[lo, hi]``."""
    lo, hi = int(counts.min()), int(counts.max())
    floor = total // scale
    return lo, hi, min(max(floor, lo), hi), min(max(floor + 1, lo), hi)


def _lift(w: list, dropped: np.ndarray, costs, forcing: list, scale: int | None) -> list:
    """Row duals ``w`` of the LP without the ``dropped`` columns (one moment
    row each, with ``costs``, or None), lifted to duals that every column
    pairs with to at least minus its cost: ``c_j + w . a_j >= 0``.

    A kept column is zero on every ``forcing`` row, so there ``w`` is free:
    it is set to ``lambda >= 0``.  Each dropped column is covered by its
    largest entry on a forcing row, whose ``lambda`` is at least its
    shortfall over that entry; every entry is nonnegative, so the others
    only add.  The right-hand side is zero on the forcing rows, so no
    pairing with it moves.  Without ``scale``, ``w`` holds floats.  With
    it, integer numerators over ``scale``, and ``lambda`` is rounded up to
    integers over it: exact, in ``int64`` where no partial sum can pass it,
    else on Python ints.
    """
    w = list(w)
    for k in forcing:
        w[k] = 0
    on = dropped[:, forcing]
    row = on.argmax(axis=1)
    top = on[np.arange(len(on)), row]
    if scale is None:
        paired = dropped @ np.asarray(w, dtype=float) + (0 if costs is None else costs)
        need, lam = -paired / top, np.zeros(len(forcing))
    else:
        bound = max(map(abs, w)) * simplex._largest(dropped) * len(w)
        bound += 0 if costs is None else simplex._largest(costs) * scale
        dtype = np.int64 if bound < 2**63 else object
        paired = dropped.astype(dtype) @ np.array(w, dtype=dtype)
        if costs is not None:
            paired += costs.astype(dtype) * scale
        need, lam = -(paired // top.astype(dtype)), np.zeros(len(forcing), dtype=dtype)
    np.maximum.at(lam, row, need)
    for k, v in zip(forcing, lam.tolist()):
        w[k] = v
    return w


def _moment_lp(
    domain: Domain,
    corr: CorrelationPair,
    opts: SolverOptions | None,
    group=None,
    objective=None,
) -> tuple:
    """The moment LP behind every check, from validation to mapped duals.

    There is one column per configuration orbit of ``group`` and one row
    per site orbit and pair orbit, after the normalization row.  A row
    sums its moment over the sites or pairs of its orbit, and its
    right-hand side is the orbit size times the representative's entry of
    the stationary tables.  Without a group every configuration, site and
    pair is its own orbit, so one orbit description (:func:`_orbits`), one
    builder (:func:`_orbit_moments`) and one right-hand side serve every
    check, and each gets an int64 moment matrix.  The representative's
    entry stands for its orbit, so rational mode needs tables exactly
    invariant under the group, as the stationary check requires.
    ``objective`` (passed without a group) maps
    the ``(configs x sites)`` occupancy array to one cost per
    configuration, minimized over the realizing distributions.

    Under a group, enumeration returns only the lexicographically least
    member of each orbit, and ``enumeration.MAX_CONFIGURATIONS`` bounds
    these.  A column is built from that representative alone: an orbit sum
    is the same on every member, so it is also the column's average over
    the configuration orbit.  The witness spreads each orbit's mass evenly
    over its members, in lexicographic order.

    Some inputs are refuted before the LP (:func:`_refutations`).  Before
    its matrix is built, from the tables and the occupancy array alone: by
    the unit dual of a negative entry of the right-hand side, every moment
    being nonnegative on configurations, then by the count hull, the
    battery's gap and upper conditions for the particle count ``N``, the
    number-variance bounds (Yamada, Prog. Theor. Phys. 1961; Kuna,
    Lebowitz and Speer, J. Stat. Phys. 2007).  Then by the unit dual of a
    zero column of the built matrix whose entry is positive, the empty-row
    test of LP presolve (Andersen and Andersen, Math. Programming 1995; an
    empty configuration space is the case of the normalization row).  The
    matrix is built at most once, and the LP reads the same one.  Each
    candidate's duals map to a certificate as the LP's Farkas duals do, by
    the one map :func:`_orbit_polynomial`, which builds the normalized
    certificate once, so under a group it is group-invariant, and it is
    returned only when its pairing with the input, the test that replay
    applies, is below ``-``:data:`realz.simplex.TOLERANCE` in float mode
    and below 0 in rational mode.

    Then one presolve pass, LP presolve's forcing-row rule (Andersen and
    Andersen), facial reduction in the sense of Borwein and Wolkowicz (J.
    Math. Anal. Appl. 1981): a row past the normalization row whose entry
    of ``b`` is exactly 0 and whose column of the matrix has a nonzero
    entry forces every configuration orbit with a positive entry there off
    the support of any realizing law, so the LP runs without those
    columns.  A row of zeros, such as a cap-1 diagonal pair row, forces
    nothing, and an LP with no forcing row gets the whole matrix.  The
    witness's positive columns map back through the kept ones.  The
    Farkas dual, and the negated optimal duals of an objective run, are
    lifted onto the dropped columns by :func:`_lift`, on the forcing rows
    alone, where ``b`` is 0: no pairing with the input moves, and under a
    group the lifted duals map as any duals do.

    The simplex starts from a crash basis (:func:`realz.simplex._start`):
    the kept configurations with at most two particles, read off the same
    particle counts as the count hull.  The empty configuration's column
    ends on the normalization row, ``e_i``'s on its site row, and ``e_i +
    e_j``'s and ``2 e_i``'s on their pair row, so with the artificials of
    the rows they leave they make a triangular basis that costs no
    factorization.  Under a group an orbit representative's column ends
    on its site or pair orbit's row alike.  An interior full LP, with no
    forcing row and no group, always starts from the crash, with a
    phase-1 budget of twice its rows before a restart from the slack
    basis (``_interior``); elsewhere the crash is kept only where its
    artificials sum below ``sum |b|``.  On a face the crash makes more
    pivots than the slack basis, and under a group its vertices carry
    more orbit members into the witness.

    In rational mode every map reads integers: the refutations' duals
    over 1, and the LP's answer as it hands it over (``_integers`` of
    :class:`realz.simplex.LinearProgramResult`), its duals over their
    common denominator and its positive columns' numerators over their
    least one, which the witness law keeps as its integer form.  So no
    lcm is taken again, and no ``Fraction`` is compared or built past the
    ones the LP's answer holds and the maps' own.

    Returns ``(result, optimum, dual)``: the :class:`RealizationResult`
    (witness, or certificate normalized so its largest coefficient
    magnitude is one), and for a feasible objective run the optimal value
    and the observable mapped, unscaled, from the negated optimal row
    duals.
    """
    opts = opts or DEFAULT_OPTIONS
    if corr.site_count != domain.site_count:
        raise DimensionError("correlation tables do not match the domain size")
    if not opts.rational:
        _float_entries("correlation entries", corr.rho1, corr.rho2)
    elif not corr.is_exact:
        raise RationalInputError("rational mode requires int or Fraction correlation entries")

    orbits = _orbits(domain.site_count, None if group is None else group._orbit_labels())
    sites, i, j, site_starts, pair_starts = orbits

    # The built rows, read-only and narrow, with no copy: every read below
    # widens what it needs, and the witness's rows become int64.
    X = enumeration.enumerate_configurations(domain, group, _narrow=True)
    counts = X.sum(axis=1)  # each configuration's particles: the count hull's, and the crash's
    cost = None if objective is None else objective(X)
    entries = corr.rho1[sites[site_starts]].tolist() + corr.rho2[i[pair_starts], j[pair_starts]].tolist()
    # One times an entry is the entry: a one-member orbit's goes as it is,
    # with no Fraction product.
    b = [1, *(v if n == 1 else n * v for v, n in zip(entries, orbits.sizes.tolist()))]

    margin = 0 if opts.rational else simplex.TOLERANCE

    built = []

    def moments() -> tuple:
        """The matrix, built at most once and only for inputs that reach
        the zero-column test, and whether each column is nonzero."""
        if not built:
            built.append(_orbit_moments(X, orbits))
        return built[0]

    for y in _refutations(counts, b, corr, orbits, margin, moments):
        # Integer duals: exact over scale 1, else as floats.
        y, scale = (y, 1) if opts.rational else (list(map(float, y)), None)
        cert = _orbit_polynomial(y, orbits, scale=scale)
        # The test that replay applies, so every certificate emitted here replays.
        if pairing(cert, corr) < -margin:
            return RealizationResult.refuted(cert), None, None

    M, nonzero = moments()
    # Forcing rows: a zero entry of b on a row with a nonzero entry.  Every
    # entry is nonnegative, so each column with one there carries no mass.
    forcing = [k for k, v in enumerate(b) if not v and nonzero[k]]
    A, costs, small = M, cost, counts <= 2
    if forcing:
        # Read off the forcing columns in place, with no copy of them.
        drop = M[:, forcing[0]] > 0
        for k in forcing[1:]:
            drop |= M[:, k] > 0
        kept = np.flatnonzero(~drop)
        A, costs, small = M[kept], None if cost is None else cost[kept], small[kept]
    # The crash: the kept configurations with at most two particles, taken
    # whatever its artificials sum to on an interior full LP (no forcing
    # row, no group).
    res = simplex.solve(A.T, b, costs, rational=opts.rational, _crash=np.flatnonzero(small),
                        _interior=not forcing and group is None)
    # The exact LP hands its answer over as integers too (simplex._answer),
    # and only those are read in rational mode: with no hand-over the
    # unpacking raises, so no float value reaches an exact answer.
    support, duals = res._integers if opts.rational else (None, None)
    if not res.feasible:
        y, scale = duals if opts.rational else (res.farkas_dual, None)
        if forcing:
            y = _lift(y, M[drop], None, forcing, scale)
        return RealizationResult.refuted(_orbit_polynomial(y, orbits, scale=scale)), None, None
    if opts.rational:
        # The positive columns in order, their public Fractions, and their
        # numerators over the least common denominator: the law's integer form.
        positive, numerators, scale = support
        weights = list(map(res.solution.__getitem__, positive))
        integers = scale, numerators, True
    else:
        mass = res._solution
        positive = np.flatnonzero(mass > 0)
        weights, integers = mass[positive].tolist(), None
    if forcing:
        positive = kept[positive]
    # A law holds int64 rows: the narrow ones widen, or spread over
    # orbits, whose averaged weights the law reads afresh.
    if group is None:
        law = Distribution._of(domain, X[positive].astype(np.int64), weights, integers=integers)
    else:
        law = Distribution._of(domain, *_group_average(X[positive], weights, group))
    result = RealizationResult.realized(law)
    if objective is None:
        return result, None, None
    y, scale = duals if opts.rational else (res.dual, None)
    y = [-v for v in y]
    if forcing:
        y = _lift(y, M[drop], cost[drop], forcing, scale)
    dual = _orbit_polynomial(y, orbits, normalize=False, scale=scale)
    return result, res.objective_value, dual


def _group_average(X: np.ndarray, weights: list, group) -> tuple:
    """``(members, totals)``, the occupancy array and the weights of the
    uniform average over ``group`` of the atoms ``(X[k], weights[k])``:
    each member of the orbit of row ``k`` gets ``weights[k]`` over the
    orbit size, summed over rows in row order, members in lexicographic
    order.  ``members`` is int64, or holds Python ints as ``X`` does."""
    n, s = X.shape
    values = None
    if X.dtype == object:  # Python ints past int64: their ranks order the rows alike
        values, X = np.unique(X, return_inverse=True)
        X = X.reshape(n, s)
    X = X.astype(np.min_scalar_type(int(X.max(initial=0))), copy=False)
    inverse = np.argsort(group._array(), axis=1)
    # (g.x)[j] = x[g^-1(j)], one row per input row and element
    images = X[:, inverse].reshape(n * len(group), s)
    # The images in lexicographic order, stably, so each member's images
    # keep their rows' order; with no site every image is the one member.
    order = np.lexsort(images.T[::-1]) if s else np.arange(len(images))
    images = images[order]
    starts = np.ones(len(images), dtype=bool)  # where each member's images start
    starts[1:] = (images[1:] != images[:-1]).any(axis=1)
    members = images[starts].astype(np.int64) if values is None else values[images[starts]]
    # Every (member, row) pair once, by member and then by row.
    row = order // len(group)
    first = starts.copy()
    first[1:] |= row[1:] != row[:-1]
    row = row[first]
    sizes = np.array(np.bincount(row, minlength=n).tolist(), dtype=object)
    shares = np.array(weights, dtype=object)[row] / sizes[row]
    totals = np.add.reduceat(shares, np.flatnonzero(starts[first]))
    return members, totals.tolist()


def check_realizability(
    domain: Domain,
    corr: CorrelationPair,
    opts: SolverOptions | None = None,
) -> RealizationResult:
    """Decide whether the correlation pair is realizable on the domain.

    Feasible outcomes carry a realizing distribution whose correlations
    match the input within :data:`realz.simplex.TOLERANCE` in float mode.
    Infeasible outcomes carry a certificate, normalized so its largest
    coefficient magnitude is one, that is nonnegative on every admissible
    configuration and pairs strictly negatively with the input.
    """
    return _moment_lp(domain, corr, opts)[0]


def verify_certificate(
    domain: Domain,
    cert: QuadraticPolynomial,
    corr: CorrelationPair,
    tol: float = simplex.TOLERANCE,
    group=None,
) -> bool:
    """Replay a certificate by enumeration, independently of any solver.

    True exactly when the observable is nonnegative (within ``tol``) on
    every admissible configuration, vacuously so when there is none, and
    its pairing with ``corr`` is below ``-tol``.  A NaN or infinite entry
    is refused with :class:`ValidationError`; so, unless every entry is
    exact, is an exact one past the float range.

    A site permutation ``group`` (a :class:`~realz.stationary.FiniteGroup`)
    only saves work, and never changes the answer.  When it preserves the
    domain and ``f1`` and ``f2`` are exactly invariant under it, the
    observable takes the same value on every member of a configuration
    orbit, so it is evaluated on the orbit representatives alone, and
    ``enumeration.MAX_CONFIGURATIONS`` bounds these.  Otherwise every
    configuration is replayed.
    """
    return _replay(domain, cert, corr, tol, group)[0]


def _replay(domain, cert, corr, tol, group=None) -> tuple:
    """:func:`verify_certificate` as ``(valid, configurations read)``."""
    if cert.site_count != domain.site_count or corr.site_count != domain.site_count:
        raise DimensionError("certificate, correlations and domain disagree on size")
    # Exact entries are finite, and replay exactly.  Otherwise the arithmetic
    # is float, which reads every entry as a finite float.
    if cert._integers is None or corr._integers is None:
        _float_entries("certificate coefficients", np.asarray([cert.f0]), cert.f1, cert.f2)
        _float_entries("correlation entries", corr.rho1, corr.rho2)
    if group is not None and not (_acts_on(group, domain) and group.fixes(cert.f1, cert.f2, tol=0)):
        group = None
    X = enumeration.enumerate_configurations(domain, group)
    if len(X) == 0:
        return pairing(cert, corr) < -tol, 0
    values, scale = _observable(X, cert)
    worst = _pyscalar(values.min())
    if scale != 1:
        worst = Fraction(worst, scale)
    return worst >= -tol and pairing(cert, corr) < -tol, len(X)


def _acts_on(group, domain: Domain) -> bool:
    """True when ``group`` preserves the domain's caps and distances."""
    try:
        group.validate_action(domain)
    except (DimensionError, ValidationError):
        return False
    return True


def minimal_third_moment(
    domain: Domain,
    corr: CorrelationPair,
    opts: SolverOptions | None = None,
) -> ThirdMomentResult:
    """Minimize the third factorial moment over all realizing distributions."""
    opts = opts or DEFAULT_OPTIONS
    # The objective N(N-1)(N-2) is the observable with f3 = 1 alone.
    result, r_star, dual = _moment_lp(domain, corr, opts, objective=lambda X: _observable(X, None, 1)[0])
    if not result.feasible:
        return ThirdMomentResult(finite=False, certificate=result.certificate)
    # Reduced costs at the optimum say H3 - P_y >= 0 on every admissible
    # configuration, and strong duality makes the budget pairing vanish at
    # the optimum, which certifies minimality.
    return ThirdMomentResult(
        finite=True,
        r_star=r_star,
        witness=result.distribution,
        dual_cubic=RestrictedCubic(quadratic=dual, f3=Fraction(1) if opts.rational else 1.0),
    )
