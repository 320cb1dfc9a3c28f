"""One block rule: every array pass that goes in the slices of
``core._blocks`` gives the same answers at any ``core._BLOCK_CELLS``."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from realz import (
    Domain,
    FiniteGroup,
    ValidationError,
    core,
    correlations_of,
    enumeration,
    run_battery,
    torus_domain,
    translation_group,
)
from realz.core import QuadraticPolynomial, _observable
from realz.solver import _orbit_moments, _orbits
from oracle import oracle_representatives
from support import complete_domain, random_distribution


def _cases() -> list:
    """``(id, domain, group)``: two tori under their translations and a
    cap-2 complete graph under every permutation of its sites."""
    return [
        ("torus(3,3)", torus_domain((3, 3)), translation_group((3, 3))),
        ("torus(4,3)", torus_domain((4, 3)), translation_group((4, 3))),
        ("complete(5,c2)", complete_domain(5, cap=2), FiniteGroup(elements=tuple(itertools.permutations(range(5))))),
    ]


def _answers(domain, group) -> dict:
    """What each blocked pass answers on ``domain`` under ``group``, in
    forms that compare exactly: integer or dyadic coefficients, so float
    values are exact too."""
    rng = np.random.default_rng(83)
    s = domain.site_count
    X = enumeration._build(domain, None).astype(np.int64)
    answers = {}
    for kind in ("exact", "float"):
        f1, f2 = rng.integers(-8, 9, size=s), rng.integers(-8, 9, size=(s, s))
        f2 = f2 + f2.T
        if kind == "exact":
            poly = QuadraticPolynomial(f0=Fraction(1, 3), f1=f1.astype(object), f2=f2.astype(object))
            f3 = Fraction(-1, 7)
        else:
            poly, f3 = QuadraticPolynomial(f0=0.25, f1=f1 / 4, f2=f2 / 4), 0.5
        values, scale = _observable(X, poly, f3)
        answers[kind] = (values.tolist(), scale)
    reps = enumeration._build(domain, group)
    answers["representatives"] = reps.tolist()
    orbits = _orbits(s, group._orbit_labels())
    # Without a group every site and pair is its own orbit: the full LP.
    for key, rows, orbits in (("moments", reps, orbits), ("full_moments", X, _orbits(s))):
        moments, nonzero = _orbit_moments(rows, orbits)
        # The zero columns are what the refutation before the LP reads:
        # the flags the blocks record, and the built matrix's.
        assert nonzero.tolist() == moments.any(axis=0).tolist()
        answers[key] = moments.tolist(), np.flatnonzero(~nonzero).tolist()
    corr = correlations_of(random_distribution(rng, domain, exact=True))
    integral = [("integral", rng.integers(-3, 4, size=s).astype(float))]
    answers["battery"] = run_battery(domain, corr, ["singletons", "pairs", ("custom", integral)]).verdicts
    answers["pair_orbits"] = group.pair_orbits()
    return answers


@pytest.mark.parametrize("cells", [1, 7, 300])
@pytest.mark.parametrize("domain, group", [c[1:] for c in _cases()], ids=[c[0] for c in _cases()])
def test_block_size_changes_no_answer(domain, group, cells, monkeypatch):
    # Blocks of one item, of a few and of many: the same answers as in
    # blocks of the constant's own size.
    expected = _answers(domain, group)
    s = domain.site_count
    # The group preserves the distances, and no longer once one pair moves.
    moved = domain.distance.copy()
    moved[s - 2, s - 1] = moved[s - 1, s - 2] = moved[s - 2, s - 1] + 0.5
    monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
    got = _answers(domain, group)
    assert got == expected
    assert got["representatives"] == [list(config) for config in oracle_representatives(domain, group)]
    # The full LP's columns, whole-array products of every site pair.
    X = enumeration._build(domain, None).astype(np.int64)
    i, j = np.triu_indices(s)
    full = np.hstack([np.ones((len(X), 1), dtype=np.int64), X, X[:, i] * (X[:, j] - (i == j))])
    assert got["full_moments"] == (full.tolist(), np.flatnonzero(~full.any(axis=0)).tolist())
    # Closure, and invariance of a vector and a table.
    assert FiniteGroup(elements=group.elements).elements == group.elements
    with pytest.raises(ValidationError, match="not closed"):
        FiniteGroup(elements=group.elements[:-1])
    assert group.fixes(np.ones(s), domain.distance) and not group.fixes(np.ones(s), moved)
    group.validate_action(domain)
    with pytest.raises(ValidationError, match="does not preserve distances"):
        group.validate_action(Domain(distance=moved, occupancy_cap=domain.occupancy_cap))
