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
and pair orbits, and each row dual is spread evenly over its orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import simplex
from .core import (
    CorrelationPair,
    Distribution,
    Domain,
    QuadraticPolynomial,
    RealizationResult,
    Scalar,
    _pyscalar,
    eval_quadratic,
    h_moment,
    pairing,
)
# enumerate_configurations is no longer called here but stays in this
# namespace, where perfbench's tracer and its tests look it up.
from .enumeration import DEFAULT_LIMIT, _occupancy, enumerate_configurations  # noqa: F401
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
    Rational mode compares exactly and ignores the tolerance.

    The default pivot rule is Dantzig (most negative reduced cost) with a
    stall guard that switches permanently to Bland's rule when too many
    pivots pass without progress, so termination stays guaranteed while
    typical instances run orders of magnitude faster than under pure
    Bland.  Selecting ``"bland"`` uses the textbook rule from the first
    pivot; on degenerate float instances beyond a few dozen rows it can
    need astronomically many pivots, so it is mainly useful in rational
    mode, where it is exact.
    """

    tolerance: float = 1e-9
    arithmetic_mode: str = "float"  # "float" | "rational"
    pivot_rule: str = "dantzig"  # "dantzig" | "bland"
    max_iterations: int = 50_000

    def __post_init__(self):
        if not 0 < self.tolerance <= 1e-3:
            raise ValidationError("tolerance must lie in (0, 1e-3]")
        if self.arithmetic_mode not in ("float", "rational"):
            raise ValidationError(f"unknown arithmetic mode {self.arithmetic_mode!r}")
        if self.pivot_rule not in ("bland", "dantzig"):
            raise ValidationError(f"unknown pivot rule {self.pivot_rule!r}")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be positive")

    @property
    def rational(self) -> bool:
        return self.arithmetic_mode == "rational"


DEFAULT_OPTIONS = SolverOptions()

#: Configurations per block when replaying a certificate.  Bounds the
#: intermediate arrays, which hold one Fraction per entry for an exact one.
_REPLAY_ROWS = 4096


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
        ones = np.ones(len(config), dtype=np.int64)
        return eval_quadratic(self.quadratic, config) + self.f3 * h_moment(config, ones, 3)

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
    return simplex.solve(
        A_eq,
        b_eq,
        objective,
        rational=opts.rational,
        tolerance=opts.tolerance,
        pivot_rule=opts.pivot_rule,
        max_iterations=opts.max_iterations,
    )


def _pair_indices(s: int) -> list:
    return [(i, j) for i in range(s) for j in range(i, s)]


def _third_factorial_total(X: np.ndarray) -> np.ndarray:
    """``N(N-1)(N-2)`` per configuration row, ``N`` its particle number.

    Equals ``h_moment(config, ones, 3)``, the third-moment objective.
    """
    total = X.sum(axis=1)
    if total.max(initial=0) >= 2**21:  # the product would overflow int64
        total = total.astype(object)
    return total * (total - 1) * (total - 2)


def _config_orbits(X: np.ndarray, group) -> np.ndarray:
    """Orbit index of every configuration row of ``X`` under ``group``.

    Orbits are numbered in the order of their lexicographically least
    member.  Each configuration is keyed by its digits in a base above
    every occupancy, so key order is lexicographic order, and permuting
    sites permutes the digit weights.
    """
    s = X.shape[1]
    base = int(X.max(initial=0)) + 1
    dtype = np.int64 if base**s < 2**63 else object
    weights = np.array([base**k for k in reversed(range(s))], dtype=dtype)
    X = X.astype(dtype, copy=False)
    canon = X @ weights
    for perm in group.elements:
        np.minimum(canon, X @ weights[list(perm)], out=canon)
    return np.unique(canon, return_inverse=True)[1]


def _orbit_polynomial(y, site_orbits, pair_orbits, s: int, exact: bool) -> QuadraticPolynomial:
    """Map row duals onto a quadratic observable.

    Each row dual is spread evenly over the sites or pairs of its orbit,
    and an off-diagonal share splits evenly between the two symmetric
    entries of ``f2``.  The coefficients are then group-invariant, so the
    observable is constant on configuration orbits and its orbit averages
    are exactly the LP columns paired with ``y``.
    """
    dtype = object if exact else float
    f1 = np.zeros(s, dtype=dtype)
    f2 = np.zeros((s, s), dtype=dtype)
    for value, orbit in zip(y[1:], site_orbits):
        f1[list(orbit)] = value / len(orbit)
    for value, orbit in zip(y[1 + len(site_orbits) :], pair_orbits):
        share = value / len(orbit)
        for i, j in orbit:
            f2[i, j] = f2[j, i] = share if i == j else share / 2
    return QuadraticPolynomial(f0=y[0], f1=f1, f2=f2)


def normalize_certificate(cert: QuadraticPolynomial) -> QuadraticPolynomial:
    """Scale so the largest coefficient magnitude is one.

    The scale factor is positive, so nonnegativity on configurations and
    the sign of any pairing are preserved.
    """
    scale = max(abs(c) for c in cert.coefficients())
    if scale == 0 or scale == 1:
        return cert
    exact = isinstance(scale, (int, Fraction)) and not isinstance(scale, bool)
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


def _refuting_row(domain: Domain, corr: CorrelationPair) -> tuple | None:
    """A moment-LP row whose unit dual refutes the input without the LP.

    Negative entries, mass on the diagonal of a capped-at-one site, or mass
    on an excluded pair each refute realizability.  Returns ``(row, sign)``
    with rows numbered as in the LP without a group.
    """
    s = domain.site_count
    pairs = _pair_indices(s)
    for i in range(s):
        if corr.rho1[i] < 0:
            return 1 + i, 1
    for k, (i, j) in enumerate(pairs):
        if corr.rho2[i, j] < 0:
            return 1 + s + k, 1
    d = domain.exclusion_diameter
    hard = d is not None and d > 0
    for k, (i, j) in enumerate(pairs):
        # n(n-1) vanishes identically when at most one particle fits,
        # so minus that observable certifies.
        if i == j and corr.rho2[i, i] > 0 and (domain.occupancy_cap[i] <= 1 or hard):
            return 1 + s + k, -1
    if hard:
        for k, (i, j) in enumerate(pairs):
            if i != j and corr.rho2[i, j] > 0 and domain.distance[i, j] < d:
                return 1 + s + k, -1
    return None


def _moment_lp(
    domain: Domain,
    corr: CorrelationPair,
    opts: SolverOptions | None,
    limit: int,
    group=None,
    objective=None,
) -> tuple:
    """The moment LP behind every check, from validation to mapped duals.

    There is one column per configuration orbit of ``group`` and one row
    per site orbit and pair orbit, after the normalization row; a column
    holds the moments averaged over its orbit.  Without a group every
    configuration, site and pair is its own orbit.  ``objective`` maps the
    ``(configs x sites)`` occupancy array to one cost per configuration,
    minimized over the realizing distributions.

    Returns ``(result, optimum, dual)``: the :class:`RealizationResult`
    (witness, or certificate normalized so its largest coefficient
    magnitude is one), and for a feasible objective run the optimal value
    and the observable mapped from the negated optimal row duals.
    """
    opts = opts or DEFAULT_OPTIONS
    if corr.site_count != domain.site_count:
        raise DimensionError("correlation tables do not match the domain size")
    corr.validate(require_nonnegative=False)
    if opts.rational and not corr.is_exact:
        raise RationalInputError(
            "rational mode requires int or Fraction correlation entries"
        )

    s = domain.site_count
    site_orbits = [(i,) for i in range(s)]
    pair_orbits = [(pair,) for pair in _pair_indices(s)]
    refuting = _refuting_row(domain, corr)
    if refuting is not None:
        # A unit dual on one site or pair row, with or without a group.
        row, sign = refuting
        unit = Fraction(1) if opts.rational else 1
        y = [0 * unit] * (1 + len(site_orbits) + len(pair_orbits))
        y[row] = sign * unit
        cert = _orbit_polynomial(y, site_orbits, pair_orbits, s, opts.rational)
        return RealizationResult.refuted(normalize_certificate(cert)), None, None
    if group is not None:
        site_orbits, pair_orbits = group.site_orbits(), group.pair_orbits()
    sites = [orbit[0] for orbit in site_orbits]
    pairs = [orbit[0] for orbit in pair_orbits]
    i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T

    X = _occupancy(domain, limit)
    blocks = [
        np.ones((len(X), 1), dtype=np.int64),
        X[:, sites],
        X[:, i] * (X[:, j] - (i == j)),  # second factorial power
    ]
    if objective is not None:
        blocks.append(objective(X)[:, None])
    moments = np.hstack(blocks)

    if group is None:
        orbit_of = range(len(X))
        sizes = [1] * len(X)
        A = moments.T
    else:
        orbit_of = _config_orbits(X, group)
        counts = np.bincount(orbit_of)
        sums = np.zeros((len(counts), moments.shape[1]), dtype=moments.dtype)
        np.add.at(sums, orbit_of, moments)
        sizes = counts.tolist()
        if opts.rational:
            A = [[Fraction(t, n) for t, n in zip(row, sizes)] for row in sums.T.tolist()]
        else:
            A = (sums / counts[:, None]).T
    A, cost = (A[:-1], A[-1]) if objective is not None else (A, None)
    b = [1, *(corr.rho1[k] for k in sites), *(corr.rho2[pair] for pair in pairs)]

    res = lp_feasibility(A, b, cost, opts)
    if not res.feasible:
        cert = _orbit_polynomial(res.farkas_dual, site_orbits, pair_orbits, s, opts.rational)
        return RealizationResult.refuted(normalize_certificate(cert)), None, None
    mass = res.solution
    atoms = tuple((X[n], mass[k] / sizes[k]) for n, k in enumerate(orbit_of) if mass[k] > 0)
    result = RealizationResult.realized(Distribution(domain, atoms))
    if objective is None:
        return result, None, None
    neg_dual = [-v for v in res.dual]
    dual = _orbit_polynomial(neg_dual, site_orbits, pair_orbits, s, opts.rational)
    return result, res.objective_value, dual


def check_realizability(
    domain: Domain,
    corr: CorrelationPair,
    opts: SolverOptions | None = None,
    limit: int = DEFAULT_LIMIT,
) -> RealizationResult:
    """Decide whether the correlation pair is realizable on the domain.

    Feasible outcomes carry a realizing distribution whose correlations
    match the input within the solver tolerance.  Infeasible outcomes carry
    a certificate, normalized so its largest coefficient magnitude is one,
    that is nonnegative on every admissible configuration and pairs
    strictly negatively with the input.
    """
    return _moment_lp(domain, corr, opts, limit)[0]


def verify_certificate(
    domain: Domain,
    cert: QuadraticPolynomial,
    corr: CorrelationPair,
    tol: float = 1e-9,
    limit: int = DEFAULT_LIMIT,
) -> bool:
    """Replay a certificate by enumeration, independently of any solver.

    True exactly when the observable is nonnegative (within ``tol``) on
    every admissible configuration and its pairing with ``corr`` is below
    ``-tol``.
    """
    if cert.site_count != domain.site_count or corr.site_count != domain.site_count:
        raise DimensionError("certificate, correlations and domain disagree on size")
    X = _occupancy(domain, limit)
    f0, f1, f2, diagonal = cert.f0, cert.f1, cert.f2, np.diagonal(cert.f2)
    blocks = (X[k : k + _REPLAY_ROWS] for k in range(0, len(X), _REPLAY_ROWS))
    # The observable on n is f0 + <f1, n> + n.f2.n - <diag f2, n>.
    worst = min(
        _pyscalar((f0 + (Y * f1).sum(axis=1) + ((Y @ f2) * Y).sum(axis=1) - Y @ diagonal).min())
        for Y in blocks
    )
    return worst >= -tol and pairing(cert, corr) < -tol


def minimal_third_moment(
    domain: Domain,
    corr: CorrelationPair,
    opts: SolverOptions | None = None,
    limit: int = DEFAULT_LIMIT,
) -> ThirdMomentResult:
    """Minimize the third factorial moment over all realizing distributions."""
    opts = opts or DEFAULT_OPTIONS
    result, r_star, dual = _moment_lp(
        domain, corr, opts, limit, objective=_third_factorial_total
    )
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
