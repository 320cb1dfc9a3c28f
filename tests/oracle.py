"""Independent exact feasibility oracle for the test suite.

Decides ``A x = b, x >= 0`` by exact rational elimination: Gaussian
elimination solves the equalities for pivot variables, then Fourier-Motzkin
elimination projects the remaining free variables out of the nonnegativity
inequalities.  Deliberately shares no code with the production solver: its
own admissibility predicate and moment coefficients counted by brute force
over labeled particles.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

BLOWUP_LIMIT = 200_000


def _gauss_eliminate(A, b):
    """Row-reduce ``A x = b`` over Fractions.

    Returns (pivots, expressions, free) where ``expressions[var]`` gives
    ``x_var = const + sum coeff_f x_f`` over free variables, or None when
    the system is inconsistent.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    rows = [[Fraction(v) for v in row] + [Fraction(rhs)] for row, rhs in zip(A, b)]
    pivots = {}
    rank = 0
    for col in range(n):
        pivot_row = next(
            (r for r in range(rank, m) if rows[r][col] != 0),
            None,
        )
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        scale = rows[rank][col]
        rows[rank] = [v / scale for v in rows[rank]]
        for r in range(m):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * p for a, p in zip(rows[r], rows[rank])]
        pivots[col] = rank
        rank += 1
    for r in range(rank, m):
        if rows[r][-1] != 0:
            return None
    free = [j for j in range(n) if j not in pivots]
    expressions = {}
    for col, r in pivots.items():
        const = rows[r][-1]
        coeffs = {f: -rows[r][f] for f in free if rows[r][f] != 0}
        expressions[col] = (const, coeffs)
    for k, f in enumerate(free):
        expressions[f] = (Fraction(0), {f: Fraction(1)})
    return pivots, expressions, free


def _canon(coeffs, rhs):
    scale = max(abs(c) for c in coeffs)
    return tuple(c / scale for c in coeffs), rhs / scale


def _fm_project(rows, n_vars, keep_last=False):
    """Eliminate variables from rows ``coeffs . x <= rhs``.

    Keeps the final variable when ``keep_last`` (used for objective bounds).
    Returns the surviving rows, or None on a detected contradiction.
    """
    targets = list(range(n_vars - 1 if keep_last else n_vars))
    rows = set(rows)
    while targets:
        def cost(j):
            p = sum(1 for c, _ in rows if c[j] > 0)
            q = sum(1 for c, _ in rows if c[j] < 0)
            return p * q

        j = min(targets, key=cost)
        targets.remove(j)
        pos, neg, rest = [], [], []
        for coeffs, rhs in rows:
            c = coeffs[j]
            if c > 0:
                pos.append((coeffs, rhs))
            elif c < 0:
                neg.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        out = set(rest)
        for cp, rp in pos:
            for cn, rn in neg:
                a, bq = cp[j], -cn[j]
                coeffs = tuple(bq * u + a * v for u, v in zip(cp, cn))
                rhs = bq * rp + a * rn
                if all(c == 0 for c in coeffs):
                    if rhs < 0:
                        return None
                    continue
                out.add(_canon(coeffs, rhs))
                if len(out) > BLOWUP_LIMIT:
                    raise RuntimeError("elimination blowup; instance too large for the oracle")
        rows = out
    return rows


def _nonnegativity_rows(expressions, free, n):
    """x_j >= 0 rewritten over the free variables as ``coeffs . xf <= rhs``."""
    rows = []
    constants_ok = True
    for j in range(n):
        const, coeffs = expressions[j]
        row = tuple(-coeffs.get(f, Fraction(0)) for f in free)
        if all(c == 0 for c in row):
            constants_ok = constants_ok and const >= 0
            continue
        rows.append(_canon(row, const))
    return rows, constants_ok


def fm_feasible(A, b) -> bool:
    """Exact feasibility of ``A x = b, x >= 0``."""
    n = len(A[0]) if A else 0
    reduced = _gauss_eliminate(A, b)
    if reduced is None:
        return False
    _, expressions, free = reduced
    rows, constants_ok = _nonnegativity_rows(expressions, free, n)
    if not constants_ok:
        return False
    if not free:
        return True
    survived = _fm_project(rows, len(free))
    if survived is None:
        return False
    return all(rhs >= 0 for _, rhs in survived)


def fm_minimize(A, b, objective):
    """Exact minimum of ``objective . x`` over ``A x = b, x >= 0``.

    Returns ('infeasible', None), ('unbounded', None) or
    ('optimal', Fraction value).
    """
    n = len(objective)
    reduced = _gauss_eliminate(A, b)
    if reduced is None:
        return "infeasible", None
    _, expressions, free = reduced
    rows, constants_ok = _nonnegativity_rows(expressions, free, n)
    if not constants_ok:
        return "infeasible", None

    # objective rewritten over free variables: c . x = obj_const + obj_f . xf
    obj_const = Fraction(0)
    obj_coeffs = [Fraction(0)] * len(free)
    index = {f: k for k, f in enumerate(free)}
    for j, cj in enumerate(objective):
        cj = Fraction(cj)
        if cj == 0:
            continue
        const, coeffs = expressions[j]
        obj_const += cj * const
        for f, v in coeffs.items():
            obj_coeffs[index[f]] += cj * v

    if not free:
        return "optimal", obj_const

    # extra variable t bounding the objective from both sides
    width = len(free) + 1
    wide = [(_canon(tuple(c) + (Fraction(0),), rhs)) for (c, rhs) in rows]
    wide.append(_canon(tuple(-v for v in obj_coeffs) + (Fraction(1),), obj_const))
    wide.append(_canon(tuple(obj_coeffs) + (Fraction(-1),), -obj_const))
    survived = _fm_project(wide, width, keep_last=True)
    if survived is None:
        return "infeasible", None
    lower, upper = None, None
    for coeffs, rhs in survived:
        a = coeffs[-1]
        if a == 0:
            if rhs < 0:
                return "infeasible", None
        elif a > 0:
            bound = rhs / a
            upper = bound if upper is None else min(upper, bound)
        else:
            bound = rhs / a
            lower = bound if lower is None else max(lower, bound)
    if lower is None:
        return "unbounded", None
    if upper is not None and lower > upper:
        return "infeasible", None
    return "optimal", lower


# ---------------------------------------------------------------------------
# independent reconstruction of the realizability system


def oracle_admissible(domain, config) -> bool:
    caps = domain.occupancy_cap
    if any(n < 0 or n > caps[i] for i, n in enumerate(config)):
        return False
    total = sum(config)
    if domain.total_cap is not None and total > domain.total_cap:
        return False
    if domain.total_exact is not None and total != domain.total_exact:
        return False
    d = domain.exclusion_diameter
    if d is not None and d > 0:
        sites = [i for i, n in enumerate(config) if n > 0]
        if any(config[i] > 1 for i in sites):
            return False
        for a in range(len(sites)):
            for b in range(a + 1, len(sites)):
                if domain.distance[sites[a], sites[b]] < d:
                    return False
    return True


def oracle_configurations(domain):
    ranges = [range(c + 1) for c in domain.occupancy_cap]
    return [c for c in itertools.product(*ranges) if oracle_admissible(domain, c)]


def oracle_representatives(domain, group) -> list:
    """The least member of every orbit: each element applied to each
    configuration of the filtered product, the minimum kept."""
    configs = oracle_configurations(domain)
    return sorted({min(group.apply_to_config(perm, c) for perm in group.elements) for c in configs})


def _labeled_pair_count(config, i, j) -> int:
    """Ordered pairs of distinct labeled particles at sites (i, j)."""
    labels = [site for site, n in enumerate(config) for _ in range(n)]
    count = 0
    for a in range(len(labels)):
        for b in range(len(labels)):
            if a != b and labels[a] == i and labels[b] == j:
                count += 1
    return count


def _labeled_triple_count(config) -> int:
    total = sum(config)
    return total * (total - 1) * (total - 2)


def oracle_system(domain, corr):
    s = domain.site_count
    configs = oracle_configurations(domain)
    A = [[1] * len(configs)]
    b = [Fraction(1)]
    for i in range(s):
        A.append([c[i] for c in configs])
        b.append(Fraction(corr.rho1[i]))
    for i in range(s):
        for j in range(i, s):
            A.append([_labeled_pair_count(c, i, j) for c in configs])
            b.append(Fraction(corr.rho2[i, j]))
    return configs, A, b


def oracle_realizable(domain, corr) -> bool:
    _, A, b = oracle_system(domain, corr)
    return fm_feasible(A, b)


def oracle_min_third_moment(domain, corr):
    configs, A, b = oracle_system(domain, corr)
    objective = [_labeled_triple_count(c) for c in configs]
    return fm_minimize(A, b, objective)
