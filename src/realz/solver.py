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
    _is_exact_value,
    _observable,
    _observable_at,
    _pyscalar,
    pairing,
)
# enumerate_configurations is called through the enumeration module, but
# stays in this namespace, where perfbench's tracer and its tests look it up.
from .enumeration import enumerate_configurations  # noqa: F401
from .errors import DimensionError, RationalInputError, ValidationError
from .simplex import LinearProgramResult


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the feasibility core.

    ``tolerance`` governs float-mode comparisons: the simplex pivot and
    ratio tests, and the phase-1 optimum above which a system counts as
    infeasible.  No margin is enforced on the certificate read off an
    infeasible float run, so near the feasibility boundary its pairing can
    miss the ``-tolerance`` bar that :func:`verify_certificate` applies.
    Rational mode runs a float simplex search and then checks its final
    basis exactly (see :mod:`realz.simplex`), so there the tolerance steers
    only that search and never a verdict.

    The simplex pivots by Dantzig's rule (most negative reduced cost) with
    a stall guard that switches permanently to Bland's rule when too many
    pivots pass without progress, so termination stays guaranteed.  Its
    pivot budget is no option: past :data:`realz.simplex.MAX_PIVOTS` pivots
    a solve raises :class:`IterationLimitError`.
    """

    tolerance: float = 1e-9
    arithmetic_mode: str = "float"  # "float" | "rational"

    def __post_init__(self):
        if not 0 < self.tolerance <= 1e-3:
            raise ValidationError("tolerance must lie in (0, 1e-3]")
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


def lp_feasibility(
    A_eq, b_eq, objective=None, opts: SolverOptions | None = None
) -> LinearProgramResult:
    """Phase-1 simplex feasibility with optional phase-2 minimization.

    Infeasible systems come back with ``farkas_dual = y`` satisfying
    ``y.A >= 0`` componentwise (within tolerance in float mode) and
    ``y.b < 0``; see :mod:`realz.simplex` for the convention.
    """
    opts = opts or DEFAULT_OPTIONS
    return simplex.solve(A_eq, b_eq, objective, rational=opts.rational, tolerance=opts.tolerance)


def _pair_indices(s: int) -> list:
    return [(i, j) for i in range(s) for j in range(i, s)]


def _orbit_moments(X: np.ndarray, site_orbits, pair_orbits) -> np.ndarray:
    """Per configuration row of ``X``: 1, the sum of ``n_i`` over each site
    orbit and of ``n_i (n_j - [i = j])`` over each pair orbit, in int64.

    The orbit sums are invariant under the group, so a representative's
    row is the moment row of every member of its configuration orbit, and
    so their average.  Rows go in blocks, so the pair products of one
    block are all that is held at once.
    """
    sites = np.array([i for orbit in site_orbits for i in orbit], dtype=np.intp)
    i, j = np.array([p for orbit in pair_orbits for p in orbit], dtype=np.intp).reshape(-1, 2).T
    site_starts = np.cumsum([0, *map(len, site_orbits[:-1])])
    pair_starts = np.cumsum([0, *map(len, pair_orbits[:-1])])
    out = np.empty((len(X), 1 + len(site_orbits) + len(pair_orbits)), dtype=np.int64)
    out[:, 0] = 1
    if not site_orbits:  # no sites
        return out
    # Products in the narrowest signed dtype that holds them, sums in int64.
    cap = int(X.max(initial=0))
    dtype = np.min_scalar_type(-cap * cap - 1)
    diagonal = (i == j).astype(dtype)[:, None]
    for rows in _blocks(len(X), len(i)):
        Y = np.ascontiguousarray(X[rows].T, dtype=dtype)  # site rows gather fast
        out[rows, 1 : 1 + len(site_orbits)] = np.add.reduceat(Y[sites], site_starts, dtype=np.int64).T
        pair_terms = Y[i] * (Y[j] - diagonal)
        out[rows, 1 + len(site_orbits) :] = np.add.reduceat(pair_terms, pair_starts, dtype=np.int64).T
    return out


def _orbit_polynomial(y, site_orbits, pair_orbits, s: int, exact: bool) -> QuadraticPolynomial:
    """Map row duals onto a quadratic observable.

    Each row dual becomes the coefficient of every site or pair of its
    orbit, and an off-diagonal one splits evenly between the two symmetric
    entries of ``f2``.  The coefficients are then group-invariant, and on
    every configuration the observable equals ``y`` paired with its orbit
    sums, the LP column of its configuration orbit.
    """
    dtype = object if exact else float
    f1 = np.zeros(s, dtype=dtype)
    f2 = np.zeros((s, s), dtype=dtype)
    for value, orbit in zip(y[1:], site_orbits):
        f1[list(orbit)] = value
    for value, orbit in zip(y[1 + len(site_orbits) :], pair_orbits):
        for i, j in orbit:
            f2[i, j] = f2[j, i] = value if i == j else value / 2
    return QuadraticPolynomial(f0=y[0], f1=f1, f2=f2)


def normalize_certificate(cert: QuadraticPolynomial) -> QuadraticPolynomial:
    """Scale so the largest coefficient magnitude is one.

    The scale factor is positive, so nonnegativity on configurations and
    the sign of any pairing are preserved.
    """
    scale = max(abs(c) for c in cert.coefficients())
    if scale == 0 or scale == 1:
        return cert
    exact = _is_exact_value(scale)
    if exact:
        scale = Fraction(scale)
    dtype = object if exact else float
    return QuadraticPolynomial(
        f0=cert.f0 / scale,
        f1=np.array([v / scale for v in cert.f1.tolist()], dtype=dtype),
        f2=np.array(
            [[v / scale for v in row] for row in cert.f2.tolist()], dtype=dtype
        ),
    )


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
    the stationary tables, so every orbit LP gets the same int64 moment
    matrix as the full one.  Without a group every configuration, site and
    pair is its own orbit.  ``objective`` (passed without a group) maps
    the ``(configs x sites)`` occupancy array to one cost per
    configuration, minimized over the realizing distributions.

    Under a group, enumeration returns only the lexicographically least
    member of each orbit, and ``enumeration.MAX_CONFIGURATIONS`` bounds
    these.  A column is built from that representative alone: an orbit sum
    is the same on every member, so it is also the column's average over
    the configuration orbit.  The witness spreads each orbit's mass evenly
    over its members, in lexicographic order.

    Some inputs are refuted from the moment matrix alone, before the LP.
    Every row's moment is nonnegative on configurations, and one that
    vanishes on all of them is nonnegative with either sign.  So a negative
    entry of ``b`` is refuted by its row's unit dual, and a nonzero entry on
    a vanishing row by minus that dual; negative entries are taken first,
    each kind in row order.  The entry is the pairing of that unit-dual
    certificate with the input, an orbit sum under a group.  In float mode
    it counts only beyond the tolerance, so that the certificate's pairing
    misses the ``-tolerance`` bar of :func:`verify_certificate`.  An empty
    configuration space is the case of the normalization row.

    Returns ``(result, optimum, dual)``: the :class:`RealizationResult`
    (witness, or certificate normalized so its largest coefficient
    magnitude is one), and for a feasible objective run the optimal value
    and the observable mapped from the negated optimal row duals.
    """
    opts = opts or DEFAULT_OPTIONS
    if corr.site_count != domain.site_count:
        raise DimensionError("correlation tables do not match the domain size")
    corr.validate()
    if opts.rational and not corr.is_exact:
        raise RationalInputError(
            "rational mode requires int or Fraction correlation entries"
        )

    s = domain.site_count
    site_orbits = [(i,) for i in range(s)]
    pair_orbits = [(pair,) for pair in _pair_indices(s)]
    if group is not None:
        site_orbits, pair_orbits = group.site_orbits(), group.pair_orbits()
    # A row sums its moment over an orbit of stationary data, so its
    # right-hand side is the orbit size times the representative's entry.
    b = [
        1,
        *(len(orbit) * corr.rho1[orbit[0]] for orbit in site_orbits),
        *(len(orbit) * corr.rho2[orbit[0]] for orbit in pair_orbits),
    ]

    X = enumeration.enumerate_configurations(domain, group)
    cost = None if objective is None else objective(X)
    if group is None:
        i, j = np.array(_pair_indices(s), dtype=np.intp).reshape(-1, 2).T
        moments = np.hstack([
            np.ones((len(X), 1), dtype=np.int64),
            X,
            X[:, i] * (X[:, j] - (i == j)),  # second factorial power
        ])
    else:
        # X holds the orbit representatives.  Past the columns only the
        # witness reads X, so it is kept narrow.
        X = X.astype(np.min_scalar_type(int(X.max(initial=0))))
        moments = _orbit_moments(X, site_orbits, pair_orbits)

    vanishing = ~moments.any(axis=0)
    margin = 0 if opts.rational else opts.tolerance
    refuting = [row for row, v in enumerate(b) if v < -margin] or [
        row for row, v in enumerate(b) if abs(v) > margin and vanishing[row]
    ]
    if refuting:
        row = refuting[0]
        unit = Fraction(1) if opts.rational else 1
        y = [0 * unit] * len(b)
        y[row] = unit if b[row] < 0 else -unit
        cert = _orbit_polynomial(y, site_orbits, pair_orbits, s, opts.rational)
        return RealizationResult.refuted(normalize_certificate(cert)), None, None

    res = lp_feasibility(moments.T, b, cost, opts)
    if not res.feasible:
        cert = _orbit_polynomial(res.farkas_dual, site_orbits, pair_orbits, s, opts.rational)
        return RealizationResult.refuted(normalize_certificate(cert)), None, None
    mass = res.solution
    positive = [k for k, m in enumerate(mass) if m > 0]
    if group is None:
        atoms = tuple((X[k], mass[k]) for k in positive)
    else:
        atoms = _group_average(X[positive], [mass[k] for k in positive], group)
    result = RealizationResult.realized(Distribution(domain, atoms))
    if objective is None:
        return result, None, None
    neg_dual = [-v for v in res.dual]
    dual = _orbit_polynomial(neg_dual, site_orbits, pair_orbits, s, opts.rational)
    return result, res.objective_value, dual


def _group_average(X: np.ndarray, weights: list, group) -> tuple:
    """Atoms of the uniform average over ``group`` of the atoms
    ``(X[k], weights[k])``: each member of the orbit of row ``k`` gets
    ``weights[k]`` over the orbit size, summed over rows in row order,
    members in lexicographic order."""
    n, s = X.shape
    values = None
    if X.dtype == object:  # Python ints past int64: their ranks order the rows alike
        values, X = np.unique(X, return_inverse=True)
        X = X.reshape(n, s)
    X = X.astype(np.min_scalar_type(int(X.max(initial=0))), copy=False)
    inverse = np.argsort(group._array(), axis=1)
    # (g.x)[j] = x[g^-1(j)], one row per input row and element
    images = X[:, inverse].reshape(n * len(group), s)
    members, index = np.unique(images, axis=0, return_inverse=True)
    if values is not None:
        members = values[members]
    # Every (member, row) pair once, by member and then by row.  A 1-d
    # np.unique would import numpy.ma, a megabyte of peak RSS.
    pairs = np.sort(index.ravel() * n + np.arange(n).repeat(len(group)))
    member, row = np.divmod(pairs[np.diff(pairs, prepend=-1) > 0], n)
    sizes = np.array(np.bincount(row, minlength=n).tolist(), dtype=object)
    shares = np.array(weights, dtype=object)[row] / sizes[row]
    totals = np.add.reduceat(shares, np.flatnonzero(np.diff(member, prepend=-1)))
    return tuple(zip(members, totals.tolist()))


def check_realizability(
    domain: Domain,
    corr: CorrelationPair,
    opts: SolverOptions | None = None,
) -> RealizationResult:
    """Decide whether the correlation pair is realizable on the domain.

    Feasible outcomes carry a realizing distribution whose correlations
    match the input within the solver tolerance.  Infeasible outcomes carry
    a certificate, normalized so its largest coefficient magnitude is one,
    that is nonnegative on every admissible configuration and pairs
    strictly negatively with the input.
    """
    return _moment_lp(domain, corr, opts)[0]


def verify_certificate(
    domain: Domain,
    cert: QuadraticPolynomial,
    corr: CorrelationPair,
    tol: float = 1e-9,
    group=None,
) -> bool:
    """Replay a certificate by enumeration, independently of any solver.

    True exactly when the observable is nonnegative (within ``tol``) on
    every admissible configuration, vacuously so when there is none, and
    its pairing with ``corr`` is below ``-tol``.

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
