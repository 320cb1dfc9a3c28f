"""Group actions, averaging, orbit-reduced checks, displacement reduction."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from realz import (
    CapacityError,
    CorrelationPair,
    DimensionError,
    Distribution,
    FiniteGroup,
    ReducedPairCorrelation,
    SolverOptions,
    ValidationError,
    bernoulli_product,
    check_realizability,
    check_realizability_stationary,
    correlations_of,
    enumerate_configurations,
    eval_quadratic,
    expand_pair_correlation,
    hardcore_gibbs,
    is_stationary,
    minimal_third_moment,
    reduce_pair_correlation,
    symmetrize,
    torus_domain,
    translation_group,
    truncated_poisson_product,
    simplex,
    verify_certificate,
)
import realz.solver
from realz import core
from realz.core import QuadraticPolynomial
from realz.solver import _orbits, _replay
from support import max_configurations, near_boundary_input, plain_domain, random_distribution

RATIONAL = SolverOptions(arithmetic_mode="rational")

#: Torus shapes of every rank up to three, unit sides included.
TORUS_DIMS = [(), (1,), (5,), (2, 2), (3, 1, 2), (4, 3), (2, 2, 2)]


def _sites(dims) -> list:
    """Torus coordinates in row-major site order, by explicit loops."""
    coords = [()]
    for d in dims:
        coords = [c + (x,) for c in coords for x in range(d)]
    return coords


def _displacement(a, b, dims) -> tuple:
    return tuple((y - x) % d for x, y, d in zip(a, b, dims))


class TestTorusGeometry:
    @pytest.mark.parametrize("dims", TORUS_DIMS[1:], ids=str)
    def test_translations_match_coordinate_loops(self, dims):
        sites = _sites(dims)
        expected = tuple(
            tuple(sites.index(tuple((x + t) % d for x, t, d in zip(c, shift, dims))) for c in sites)
            for shift in sites
        )
        assert translation_group(dims).elements == expected

    def test_translations_need_a_dimension(self):
        with pytest.raises(ValidationError):
            translation_group(())

    @pytest.mark.parametrize(
        "build, dims",
        [
            (translation_group, [2.5, True]),
            (torus_domain, [2.9]),
            (torus_domain, [3, False]),
            (torus_domain, [0]),
            (translation_group, [3, -1]),
            (lambda dims: reduce_pair_correlation(CorrelationPair(np.ones(2), np.ones((2, 2))), dims), [2.0]),
            (lambda dims: expand_pair_correlation(ReducedPairCorrelation(1, {(0,): 1, (1,): 1}), dims), [2.0]),
        ],
        ids=["group-float-bool", "domain-float", "domain-bool", "domain-zero", "group-negative", "reduce-float", "expand-float"],
    )
    def test_dims_are_refused_not_truncated(self, build, dims):
        with pytest.raises(ValidationError, match="torus dimensions must be positive integers"):
            build(dims)

    def test_numpy_integer_dims(self):
        dims = np.array([3, 2])
        assert torus_domain(dims).distance.tolist() == torus_domain((3, 2)).distance.tolist()
        assert translation_group(dims).elements == translation_group((3, 2)).elements
        # One group per shape, however the shape is spelled.
        assert translation_group(dims) is translation_group((3, 2)) is translation_group([3, 2])

    @pytest.mark.parametrize("dims", TORUS_DIMS, ids=str)
    def test_domain_matches_coordinate_loops(self, dims):
        sites = _sites(dims)
        dom = torus_domain(dims)
        expected = [
            [sum(min(abs(x - y), d - abs(x - y)) for x, y, d in zip(a, b, dims)) for b in sites]
            for a in sites
        ]
        assert dom.distance.tolist() == expected
        assert dom.site_labels == tuple(",".join(str(x) for x in c) for c in sites)

    @pytest.mark.parametrize("dims", TORUS_DIMS[1:], ids=str)
    def test_reduce_then_expand_matches_coordinate_loops(self, dims):
        sites = _sites(dims)
        rho = Fraction(2, 5)

        def pair(disp):
            # symmetric under disp -> -disp, but not under swapping axes
            return Fraction(1, 2 + sum((k + 1) * min(x, d - x) for k, (x, d) in enumerate(zip(disp, dims))))

        rho2 = np.array(
            [[pair(_displacement(a, b, dims)) for b in sites] for a in sites], dtype=object
        )
        corr = CorrelationPair(rho1=np.full(len(sites), rho, dtype=object), rho2=rho2)
        reduced = reduce_pair_correlation(corr, dims)
        assert reduced.rho == rho
        assert reduced.g2 == {disp: pair(disp) / rho**2 for disp in sites}
        back = expand_pair_correlation(reduced, dims)
        assert (back.rho1 == corr.rho1).all()
        assert back.rho2.tolist() == rho2.tolist()

    @pytest.mark.parametrize("g2", [{(0,): 1.0, (5,): 1.0}, {(0,): 1.0, (1, 0): 1.0}], ids=["off-torus", "too-long"])
    def test_wrong_displacement_key_is_named(self, g2):
        # The table has the torus's size but not its displacements.
        with pytest.raises(DimensionError, match=r"no entry for displacement \(1,\)"):
            expand_pair_correlation(ReducedPairCorrelation(0.5, g2), (2,))

    def test_single_site_without_dimensions(self):
        with pytest.raises(ValidationError):
            reduce_pair_correlation(CorrelationPair(rho1=[Fraction(1, 2)], rho2=[[0]]), ())
        back = expand_pair_correlation(ReducedPairCorrelation(Fraction(1, 2), {(): Fraction(2)}), ())
        assert back.rho1.tolist() == [Fraction(1, 2)]
        assert back.rho2.tolist() == [[Fraction(1, 2)]]


class TestTranslationGroup:
    def test_trivial(self):
        group = translation_group((1,))
        assert len(group) == 1
        assert group.elements == ((0,),)

    def test_cycle_of_five(self):
        group = translation_group((5,))
        assert len(group) == 5
        shift = group.elements[1]
        assert shift == (1, 2, 3, 4, 0)

    def test_two_by_two_torus_is_klein(self):
        group = translation_group((2, 2))
        assert len(group) == 4
        for perm in group.elements:
            # every translation composed with itself is the identity
            square = tuple(perm[perm[i]] for i in range(4))
            assert square == (0, 1, 2, 3)

    def test_group_axioms_validated(self):
        from realz import FiniteGroup

        with pytest.raises(ValidationError):
            FiniteGroup(elements=((0, 1), (1, 0), (0, 1, 2)))
        with pytest.raises(ValidationError):
            # not closed under composition: a 3-cycle without its square
            FiniteGroup(elements=((0, 1, 2), (1, 2, 0)))

    def test_identity_may_come_last(self):
        group = FiniteGroup(elements=((1, 2, 0), (2, 0, 1), (0, 1, 2)))
        assert len(group) == 3

    def test_two_transpositions_are_not_closed(self):
        with pytest.raises(ValidationError, match="composition"):
            FiniteGroup(elements=((0, 1, 2), (1, 0, 2), (0, 2, 1)))

    @pytest.mark.parametrize("dims", [(1,), (5,), (3, 3), (4, 3), (4, 4), (2, 2, 2)], ids=str)
    def test_translations_pass_the_public_checks(self, dims):
        # translation_group builds its group unchecked; the public
        # constructor's permutation, duplicate and closure checks accept
        # the same elements and keep the same read-only array.
        group = translation_group(dims)
        checked = FiniteGroup(elements=group.elements)
        assert checked.elements == group.elements
        assert checked._array().dtype == group._array().dtype
        assert np.array_equal(checked._array(), group._array())
        assert not group._array().flags.writeable

    @pytest.mark.parametrize("dims", [(5,), (3, 3), (4, 3), (4, 4), (2, 2, 2)], ids=str)
    def test_elements_match_rolled_grids(self, dims):
        # Rolling the grid back by t puts the site of x + t at x.
        grid = np.arange(int(np.prod(dims))).reshape(dims)
        axes = tuple(range(len(dims)))
        rolled = tuple(
            tuple(np.roll(grid, [-t for t in shift], axes).ravel().tolist()) for shift in _sites(dims)
        )
        assert translation_group(dims).elements == rolled

    @pytest.mark.parametrize(
        "elements, message",
        [
            (((0, 1, 2), (1, 2, 0)), "composition"),
            (((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2)), "composition"),
            (((0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 2, 0)), "duplicate"),
            (((), ()), "duplicate"),
            (((0, 1, 2), (0, 0, 1)), "not a permutation"),
            (((0, 1, 2), (1, 2, 3)), "not a permutation"),
            (((0, 1), (1, 0), (0, 1, 2)), "one length"),
            ((), "at least the identity"),
        ],
        ids=["three-cycle", "two-transpositions", "duplicate", "duplicate-empty", "repeated-site", "out-of-range",
             "ragged", "empty"],
    )
    def test_refused_element_sets(self, elements, message):
        with pytest.raises(ValidationError, match=message):
            FiniteGroup(elements=elements)

    @pytest.mark.parametrize(
        "elements",
        [[(0, 1), (1.7, 0.2)], [(0, 1), ("1", "0")], [(0, 1), (True, False)], np.array([[True, False], [False, True]]),
         np.array([[0.0, 1.0], [1.5, 0.0]])],
        ids=["fractional", "strings", "bools", "bool-array", "float-array"],
    )
    def test_site_indices_are_refused_not_truncated(self, elements):
        with pytest.raises(ValidationError) as caught:
            FiniteGroup(elements=elements)
        assert str(caught.value) == "site index must be an integer"

    def test_integral_site_indices(self):
        swap = ((0, 1), (1, 0))
        for elements in ([(0, 1), (1.0, 0.0)], [(Fraction(0), np.int64(1)), (np.float64(1), 0)], np.array(swap, dtype=np.uint8)):
            assert FiniteGroup(elements=elements).elements == swap

    def test_elements_may_be_an_array(self):
        group = translation_group((4, 3))
        again = FiniteGroup(elements=np.array(group.elements))
        assert again.elements == group.elements
        assert again.site_orbits() == group.site_orbits() and again.pair_orbits() == group.pair_orbits()

    def test_orbits_of_a_group_that_is_not_transitive(self):
        # The swap of sites 0 and 1 on four sites.
        group = FiniteGroup(elements=((0, 1, 2, 3), (1, 0, 2, 3)))
        assert group.site_orbits() == [(0, 1), (2,), (3,)]
        assert group.pair_orbits() == [
            ((0, 0), (1, 1)), ((0, 1),), ((0, 2), (1, 2)), ((0, 3), (1, 3)), ((2, 2),), ((2, 3),), ((3, 3),)
        ]

    @pytest.mark.parametrize(
        "group",
        [translation_group(dims) for dims in [(5,), (3, 3), (2, 2, 2), (4, 4), (12, 12)]]
        # a 3-cycle on sites 1-3 times the swap of sites 0 and 4
        + [FiniteGroup(elements=[(0, 1, 2, 3, 4), (4, 1, 2, 3, 0), (0, 2, 3, 1, 4), (4, 2, 3, 1, 0), (0, 3, 1, 2, 4), (4, 3, 1, 2, 0)])],
        ids=["(5,)", "(3,3)", "(2,2,2)", "(4,4)", "(12,12)", "not-transitive"],
    )
    def test_pair_orbits_match_the_least_image_under_every_element(self, group, monkeypatch):
        s = group.degree
        i, j = np.nonzero(np.arange(s)[:, None] <= np.arange(s))
        perms = group._array()
        gi, gj = perms[:, i], perms[:, j]
        least = (np.minimum(gi, gj) * s + np.maximum(gi, gj)).min(axis=0)
        orbits: dict = {}
        for key, pair in zip(least.tolist(), zip(i.tolist(), j.tolist())):
            orbits.setdefault(key, []).append(pair)
        assert group.pair_orbits() == list(map(tuple, orbits.values()))
        # Two elements per block, so blocks split the elements of a site.
        monkeypatch.setattr(core, "_BLOCK_CELLS", 2 * s)
        assert group.pair_orbits() == list(map(tuple, orbits.values()))


class TestGroupMemory:
    def test_no_table_per_element_at_once(self):
        # On the (12,12) torus one (|G|, S, S) int64 array is 24 MB; group
        # validation and both invariance checks stay under a tenth of that.
        dims = (12, 12)
        dom = torus_domain(dims)
        s = dom.site_count
        corr = CorrelationPair(rho1=np.full(s, 0.5), rho2=np.full((s, s), 0.25))
        group = translation_group(dims)
        steps = [
            lambda: FiniteGroup(elements=group.elements),
            lambda: is_stationary(corr, group),
            lambda: group.validate_action(dom),
        ]
        tracemalloc.start()
        try:
            for step in steps:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                step()
                assert tracemalloc.get_traced_memory()[1] - before < s**3 * 8 // 10
        finally:
            tracemalloc.stop()


class TestValidateAction:
    def test_caps_must_be_preserved(self):
        dom = torus_domain((4,), occupancy_cap=(1, 1, 1, 2))
        with pytest.raises(ValidationError, match="occupancy caps"):
            translation_group((4,)).validate_action(dom)

    def test_distances_must_be_preserved(self):
        from realz import Domain

        path = np.abs(np.subtract.outer(np.arange(4), np.arange(4))).astype(float)
        translation_group((4,)).validate_action(torus_domain((4,)))
        with pytest.raises(ValidationError, match="distances"):
            translation_group((4,)).validate_action(Domain(distance=path, occupancy_cap=1))


class TestIsStationary:
    def test_circulant_tables_pass(self):
        dom = torus_domain((4,))
        corr = correlations_of(bernoulli_product(dom, [0.3] * 4))
        assert is_stationary(corr, translation_group((4,)))

    def test_perturbed_entry_fails(self):
        dom = torus_domain((4,))
        corr = correlations_of(bernoulli_product(dom, [0.3] * 4))
        rho1 = corr.rho1.copy()
        rho1[2] += 1e-6
        assert not is_stationary(
            CorrelationPair(rho1=rho1, rho2=corr.rho2), translation_group((4,))
        )

    def test_perturbed_pair_entry_fails(self):
        dom = torus_domain((4,))
        corr = correlations_of(bernoulli_product(dom, [0.3] * 4))
        for delta, stationary in ((1e-6, False), (1e-13, True)):
            rho2 = corr.rho2.copy()
            rho2[0, 2] += delta
            rho2[2, 0] += delta
            got = is_stationary(CorrelationPair(rho1=corr.rho1, rho2=rho2), translation_group((4,)))
            assert got is stationary

    def test_fraction_tables_compare_exactly(self):
        # A 2e-12 step on entries near 10**6 is below one float ulp there,
        # but not below the tolerance.
        big = Fraction(10**6) + Fraction(1, 3)
        step = Fraction(2, 10**12)
        assert float(big + step) == float(big)
        group = translation_group((3,))
        rho2 = np.full((3, 3), big, dtype=object)
        rho1 = np.full(3, big, dtype=object)
        assert is_stationary(CorrelationPair(rho1=rho1, rho2=rho2), group)
        moved = rho1.copy()
        moved[1] += step
        assert not is_stationary(CorrelationPair(rho1=moved, rho2=rho2), group)
        moved = rho2.copy()
        moved[0, 1] += step
        moved[1, 0] += step
        assert not is_stationary(CorrelationPair(rho1=rho1, rho2=moved), group)

    def test_symmetrized_distribution_is_stationary(self):
        group = translation_group((3,))
        dom = torus_domain((3,))
        dist = Distribution(dom, (((1, 0, 0), 1.0),))
        sym = symmetrize(dist, group)
        assert is_stationary(correlations_of(sym), group)


class TestSymmetrize:
    def test_fixed_point_on_invariant_input(self):
        dom = torus_domain((3,))
        dist = bernoulli_product(dom, [Fraction(1, 2)] * 3)
        sym = symmetrize(dist, translation_group((3,)))
        assert sym.atoms == dist.atoms

    def test_orbit_average_of_singleton(self):
        dom = torus_domain((3,))
        dist = Distribution(dom, (((1, 0, 0), 1.0),))
        sym = symmetrize(dist, translation_group((3,)))
        weights = dict(sym.atoms)
        assert set(weights) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        assert all(w == pytest.approx(1 / 3) for w in weights.values())

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        dom = torus_domain((4,))
        configs = [(1, 0, 1, 0), (1, 1, 0, 0), (0, 0, 0, 0)]
        raw = rng.random(3)
        dist = Distribution(dom, tuple(zip(configs, (raw / raw.sum()).tolist())))
        once = symmetrize(dist, translation_group((4,)))
        twice = symmetrize(once, translation_group((4,)))
        assert dict(once.atoms) == pytest.approx(dict(twice.atoms))

    def test_preserves_stationary_correlations(self):
        dom = torus_domain((5,), exclusion_diameter=1.5)
        gibbs = hardcore_gibbs(dom, 1)
        group = translation_group((5,))
        corr = correlations_of(gibbs)
        res = check_realizability(dom, corr)
        sym = symmetrize(res.distribution, group)
        back = correlations_of(sym)
        assert np.allclose(back.rho1.astype(float), corr.rho1.astype(float), atol=1e-9)
        assert np.allclose(back.rho2.astype(float), corr.rho2.astype(float), atol=1e-9)

    def test_entries_past_int64(self):
        # Both sites take 0, n and 2n, each a third of the time, so the
        # tables are stationary although the law is not swap-invariant.
        n = 2**70
        dom = torus_domain((2,), occupancy_cap=2**72)
        third = Fraction(1, 3)
        dist = Distribution(dom, (((0, n), third), ((n, 2 * n), third), ((2 * n, 0), third)))
        sym = symmetrize(dist, translation_group((2,)))
        members = [(0, n), (0, 2 * n), (n, 0), (n, 2 * n), (2 * n, 0), (2 * n, n)]
        assert sym.atoms == tuple((member, Fraction(1, 6)) for member in members)
        before, after = correlations_of(dist), correlations_of(sym)
        assert before.rho1.tolist() == after.rho1.tolist() == [n, n]
        assert before.rho2.tolist() == after.rho2.tolist()
        assert all(type(v) is Fraction for v in after.rho2.flat)


def _unique_group_average(X: np.ndarray, weights: list, group) -> tuple:
    """The reference group average: images deduplicated by ``np.unique``
    along rows, and the (member, row) pairs by one sort of their keys."""
    n, s = X.shape
    values = None
    if X.dtype == object:
        values, X = np.unique(X, return_inverse=True)
        X = X.reshape(n, s)
    X = X.astype(np.min_scalar_type(int(X.max(initial=0))), copy=False)
    inverse = np.argsort(group._array(), axis=1)
    images = X[:, inverse].reshape(n * len(group), s)
    members, index = np.unique(images, axis=0, return_inverse=True)
    members = members.astype(np.int64) if values is None else values[members]
    pairs = np.sort(index.ravel() * n + np.arange(n).repeat(len(group)))
    member, row = np.divmod(pairs[np.diff(pairs, prepend=-1) > 0], n)
    sizes = np.array(np.bincount(row, minlength=n).tolist(), dtype=object)
    shares = np.array(weights, dtype=object)[row] / sizes[row]
    totals = np.add.reduceat(shares, np.flatnonzero(np.diff(member, prepend=-1)))
    return members, totals.tolist()


def test_group_average_equals_the_unique_reference():
    """``solver._group_average`` sorts the images once (``np.lexsort``);
    the members, their lexicographic order and the totals, summed in the
    same order, are the reference's, float, exact and past int64."""
    rng = np.random.default_rng(45)
    swap_and_cycle = FiniteGroup(elements=tuple(
        (a, b, *c) for a, b in ((0, 1), (1, 0)) for c in ((2, 3, 4), (3, 4, 2), (4, 2, 3))
    ))
    groups = [translation_group(dims) for dims in ((3, 3), (4, 3), (2, 2, 2), (5,), (2,))] + [swap_and_cycle]
    for group in groups:
        for rows in (1, 4, 11):
            cap = int(rng.integers(1, 4))
            X = rng.integers(0, cap + 1, size=(rows, group.degree))
            X[rows // 2 :] = X[: rows - rows // 2]  # repeated rows, and rows of one orbit
            counts = rng.integers(1, 9, size=rows).tolist()
            for weights in ([Fraction(k, 97) for k in counts], [k / 97 for k in counts]):
                for occupancy in (X, X.astype(object) * 2**70):
                    members, totals = realz.solver._group_average(occupancy, weights, group)
                    want_members, want_totals = _unique_group_average(occupancy, weights, group)
                    assert members.dtype == want_members.dtype and members.tolist() == want_members.tolist()
                    assert totals == want_totals and list(map(type, totals)) == list(map(type, want_totals))
    # No site: every image is the one empty member.
    members, totals = realz.solver._group_average(np.zeros((2, 0), dtype=np.int64), [0.25, 0.75], FiniteGroup(elements=((),)))
    assert members.shape == (1, 0) and totals == [1.0]


@pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
@pytest.mark.parametrize("grouped", [False, True], ids=["full", "orbit"])
def test_witness_equals_the_per_atom_construction(grouped, rational):
    # The moment LP hands its witness the occupancy array it holds.  The
    # law is the one built atom by atom from narrow numpy rows, as the
    # orbit LP holds them, and so is its group average.
    domain, group = torus_domain((2, 3), occupancy_cap=1), translation_group((2, 3))
    corr = correlations_of(bernoulli_product(domain, [Fraction(1, 3)] * 6))
    if not rational:
        corr = CorrelationPair(rho1=corr.rho1.astype(float), rho2=corr.rho2.astype(float))
    opts = RATIONAL if rational else SolverOptions()
    if grouped:
        law = check_realizability_stationary(domain, corr, group, opts).distribution
    else:
        law = check_realizability(domain, corr, opts).distribution
    for dist in (law, symmetrize(law, group)):
        rows = dist.occupancy.astype(np.uint8)
        again = Distribution(domain, tuple(zip(rows, (w for _, w in dist.atoms))))
        for a, b in ((dist, again), (again, dist)):
            assert repr(a) == repr(b) and a.meta == b.meta and a.is_exact == b.is_exact == rational
            assert a.occupancy.dtype == np.int64 and not a.occupancy.flags.writeable
            assert a.occupancy.tolist() == b.occupancy.tolist()
            assert [type(w) for _, w in a.atoms] == [type(w) for _, w in b.atoms]


class TestStationaryCheck:
    def test_agrees_with_full_check_on_feasible_cycle(self):
        dom = torus_domain((5,), exclusion_diameter=1.5)
        corr = correlations_of(hardcore_gibbs(dom, 1))
        group = translation_group((5,))
        full = check_realizability(dom, corr)
        reduced = check_realizability_stationary(dom, corr, group)
        assert full.feasible and reduced.feasible
        witness = reduced.distribution
        for perm in group.elements:
            moved = sorted(
                (group.apply_to_config(perm, c), w) for c, w in witness.atoms
            )
            assert moved == sorted(witness.atoms)
        back = correlations_of(witness)
        assert np.allclose(back.rho2.astype(float), corr.rho2.astype(float), atol=1e-9)

    def test_agrees_on_infeasible_cycle(self):
        # scaled unit pair moment with zero density, stationary by construction
        dom = torus_domain((4,), occupancy_cap=3)
        corr = CorrelationPair(rho1=np.zeros(4), rho2=np.full((4, 4), 1.0))
        group = translation_group((4,))
        full = check_realizability(dom, corr)
        reduced = check_realizability_stationary(dom, corr, group)
        assert not full.feasible and not reduced.feasible
        # the orbit-reduced certificate replays on the full space
        assert verify_certificate(dom, reduced.certificate, corr, 1e-9)

    @pytest.mark.parametrize(
        "dims, cap, rho, pair, opts, feasible",
        [
            ((1,), 4, 1 / 3, 1.0, SolverOptions(), True),
            ((1,), 4, Fraction(1, 3), Fraction(1), RATIONAL, True),
            ((3,), 1, Fraction(1, 2), Fraction(3, 5), RATIONAL, False),
        ],
        ids=["float-feasible", "rational-feasible", "rational-infeasible"],
    )
    def test_trivial_group_matches_plain_check(self, dims, cap, rho, pair, opts, feasible):
        dom = torus_domain(dims, occupancy_cap=cap)
        s = dom.site_count
        dtype = object if opts.rational else float
        rho2 = np.full((s, s), pair, dtype=dtype)
        if s > 1:
            np.fill_diagonal(rho2, 0)
        corr = CorrelationPair(rho1=np.full(s, rho, dtype=dtype), rho2=rho2)
        group = FiniteGroup(elements=(tuple(range(s)),))
        full = check_realizability(dom, corr, opts)
        reduced = check_realizability_stationary(dom, corr, group, opts)
        assert full.feasible == reduced.feasible == feasible
        if feasible:
            assert full.distribution.atoms == reduced.distribution.atoms
        else:
            assert full.certificate.coefficients() == reduced.certificate.coefficients()
            assert verify_certificate(dom, reduced.certificate, corr, 0)

    def test_rejects_nonstationary_input(self):
        dom = torus_domain((3,))
        corr = CorrelationPair(
            rho1=np.array([0.2, 0.3, 0.2]), rho2=np.zeros((3, 3))
        )
        with pytest.raises(ValidationError):
            check_realizability_stationary(dom, corr, translation_group((3,)))

    def test_limit_between_orbit_and_configuration_counts(self):
        # The (4,3) torus has 4096 configurations in 352 orbits; the orbit
        # check counts only the orbits against the limit, and so do the
        # checks on its torus_domain, which take the translations before
        # they enumerate.  A plain Domain of the same distances counts
        # configurations.
        dom, group = torus_domain((4, 3)), translation_group((4, 3))
        corr = correlations_of(bernoulli_product(dom, [Fraction(1, 2)] * 12))
        with max_configurations(1000):
            limited = check_realizability_stationary(dom, corr, group, RATIONAL)
            checked = check_realizability(dom, corr, RATIONAL)
            third = minimal_third_moment(dom, corr, RATIONAL)
        assert limited.feasible and checked.feasible and third.finite
        unlimited = check_realizability_stationary(dom, corr, group, RATIONAL)
        assert limited.distribution.atoms == unlimited.distribution.atoms == checked.distribution.atoms
        assert third.r_star == minimal_third_moment(plain_domain(dom), corr, RATIONAL).r_star
        with max_configurations(1000), pytest.raises(CapacityError):
            check_realizability(plain_domain(dom), corr, RATIONAL)

    @pytest.mark.parametrize("dims, exclusion", [((3, 3), None), ((4,), None), ((3, 2), 1.5)])
    def test_columns_are_orbit_averages(self, dims, exclusion, monkeypatch):
        # Every LP column is the moment vector averaged over the members of
        # one configuration orbit, found here by applying every element to
        # every configuration, times the size of each row's site or pair
        # orbit (a row sums its moment over that orbit); columns come in
        # the order of the least members.
        dom = torus_domain(dims, exclusion_diameter=exclusion)
        group = translation_group(dims)
        if exclusion is None:
            law = bernoulli_product(dom, [Fraction(1, 3)] * dom.site_count)
        else:
            law = hardcore_gibbs(dom, Fraction(1, 2))
        corr = correlations_of(symmetrize(law, group))
        seen = []
        solve = simplex.solve
        monkeypatch.setattr(simplex, "solve", lambda A, b, c=None, **kw: seen.append(A) or solve(A, b, c, **kw))
        check_realizability_stationary(dom, corr, group, RATIONAL)
        orbits = {}
        for config in enumerate_configurations(dom):
            members = {group.apply_to_config(perm, tuple(config.tolist())) for perm in group.elements}
            orbits[min(members)] = members
        sites = [orbit[0] for orbit in group.site_orbits()]
        pairs = [orbit[0] for orbit in group.pair_orbits()]
        sizes = [1, *map(len, group.site_orbits()), *map(len, group.pair_orbits())]
        columns = []
        for least in sorted(orbits):
            members = orbits[least]
            moments = [
                [1] * len(members),
                *([n[i] for n in members] for i in sites),
                *([n[i] * (n[j] - (i == j)) for n in members] for i, j in pairs),
            ]
            columns.append([size * Fraction(sum(m), len(members)) for size, m in zip(sizes, moments)])
        assert [list(row) for row in seen[0]] == [list(row) for row in zip(*columns)]

    @pytest.mark.parametrize("density", [-5e-10, -1.5e-10])
    def test_negative_density_within_tolerance(self, density):
        # Each density lies within the float tolerance of 0, but the site
        # orbit's sum, 9 times it, does not: the orbit check refutes it from
        # the moment matrix with a certificate that clears the replay bar,
        # as the full check refutes it through the LP.
        dom, group = torus_domain((3, 3)), translation_group((3, 3))
        corr = CorrelationPair(rho1=np.full(9, density), rho2=np.zeros((9, 9)))
        full = check_realizability(dom, corr)
        reduced = check_realizability_stationary(dom, corr, group)
        assert full.feasible is reduced.feasible is False
        assert verify_certificate(dom, full.certificate, corr)
        assert verify_certificate(dom, reduced.certificate, corr)

    def test_witness_expands_orbits_in_lexicographic_order(self):
        dom, group = torus_domain((3, 3)), translation_group((3, 3))
        corr = correlations_of(bernoulli_product(dom, [Fraction(2, 5)] * 9))
        witness = check_realizability_stationary(dom, corr, group, RATIONAL).distribution
        configs = [c for c, _ in witness.atoms]
        assert configs == sorted(set(configs))
        weights = dict(witness.atoms)
        for config, weight in weights.items():
            # the whole orbit at one weight
            assert {weights[group.apply_to_config(perm, config)] for perm in group.elements} == {weight}
        assert correlations_of(witness).rho2.tolist() == corr.rho2.tolist()

    def test_verdicts_agree_on_random_stationary_instances(self):
        rng = np.random.default_rng(61)
        group = translation_group((4,))
        dom = torus_domain((4,))
        for _ in range(10):
            # random invariant distribution via symmetrization
            configs = [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (0, 0, 0, 0)]
            raw = rng.random(len(configs))
            dist = symmetrize(
                Distribution(dom, tuple(zip(configs, (raw / raw.sum()).tolist()))),
                group,
            )
            corr = correlations_of(dist)
            scale = 1.0 + rng.random()  # sometimes push infeasible
            test_corr = CorrelationPair(rho1=corr.rho1, rho2=corr.rho2 * scale)
            if not is_stationary(test_corr, group):
                continue
            full = check_realizability(dom, test_corr)
            reduced = check_realizability_stationary(dom, test_corr, group)
            assert full.feasible == reduced.feasible


class TestReducedPairCorrelation:
    def test_bernoulli_product_flat(self):
        dom = torus_domain((5,))
        corr = correlations_of(bernoulli_product(dom, [Fraction(1, 4)] * 5))
        reduced = reduce_pair_correlation(corr, (5,))
        assert reduced.rho == Fraction(1, 4)
        assert reduced.g2[(0,)] == 0
        assert all(reduced.g2[(s,)] == 1 for s in range(1, 5))

    def test_zero_density_rejected(self):
        corr = CorrelationPair(rho1=np.zeros(3), rho2=np.zeros((3, 3)))
        with pytest.raises(ValidationError):
            reduce_pair_correlation(corr, (3,))

    @pytest.mark.parametrize(
        "rho, pair",
        [(1e-200, 0.0), (1e-150, 1e10), (1e200, 0.0), (Fraction(1, 10**200), 0.0)],
        ids=["density-squared-underflows", "g2-overflows", "density-squared-overflows", "exact-density-float-pairs"],
    )
    def test_reduction_past_the_float_range_rejected(self, rho, pair):
        # rho^2 underflows to 0, where 0 / 0 gave NaN, rho2 / rho^2
        # overflows, where it gave inf, or rho^2 overflows, where g2 read 0:
        # refused, with no RuntimeWarning (an error here).  An exact density
        # beside float pairs is read as its float value, whose square
        # underflows, where the Fraction's float division by zero raised.
        rho2 = np.full((4, 4), pair)
        np.fill_diagonal(rho2, 0.0)
        corr = CorrelationPair(rho1=[rho] * 4, rho2=rho2)
        with pytest.raises(ValidationError, match="^reduced pair correlation must lie within the float range$"):
            reduce_pair_correlation(corr, (4,))

    def test_hardcore_four_cycle(self):
        dom = torus_domain((4,), exclusion_diameter=1.5)
        corr = correlations_of(hardcore_gibbs(dom, 1))
        reduced = reduce_pair_correlation(corr, (4,))
        # seven independent sets: empty, four singletons, two opposite pairs
        assert reduced.rho == Fraction(2, 7)
        assert reduced.g2[(1,)] == 0
        assert reduced.g2[(2,)] == Fraction(1, 7) / (Fraction(2, 7) ** 2)

    def test_reduce_then_expand_round_trips(self):
        dom = torus_domain((2, 2))
        corr = correlations_of(bernoulli_product(dom, [Fraction(1, 3)] * 4))
        reduced = reduce_pair_correlation(corr, (2, 2))
        back = expand_pair_correlation(reduced, (2, 2))
        assert (back.rho1 == corr.rho1).all()
        assert (back.rho2 == corr.rho2).all()


#: The torus domains of the test suite and of the benchmark's orbit
#: workload, ``(dims, exclusion diameter)``; 1.5 is a hard core.
REPLAY_TORI = [
    ((4,), None), ((5,), 1.5), ((3, 2), 1.5), ((3, 3), None), ((3, 3), 1.5),
    ((2, 2, 2), None), ((4, 3), None), ((4, 3), 1.5), ((4, 4), None), ((4, 4), 1.5),
]


def _orbit_constant(rng, group, s):
    """Random ``(f1, f2)`` that take one value per site or pair orbit."""
    f1, f2 = np.zeros(s), np.zeros((s, s))
    for orbit in group.site_orbits():
        f1[list(orbit)] = rng.normal()
    for orbit in group.pair_orbits():
        value = rng.normal()
        for i, j in orbit:
            f2[i, j] = f2[j, i] = value
    return f1, f2


class TestOrbitReplay:
    @pytest.mark.parametrize("dims, exclusion", REPLAY_TORI, ids=str)
    def test_full_and_orbit_replay_agree(self, dims, exclusion):
        dom, group = torus_domain(dims, exclusion_diameter=exclusion), translation_group(dims)
        s = dom.site_count
        # Two particles on average and never two at once: infeasible.
        corr = CorrelationPair(rho1=np.full(s, 2 / s), rho2=np.zeros((s, s)))
        cert = check_realizability_stationary(dom, corr, group).certificate
        configurations = len(enumerate_configurations(dom))
        orbits = len(enumerate_configurations(dom, group=group))
        assert orbits < configurations
        rng = np.random.default_rng([len(dims), *dims])
        candidates = [cert]
        for _ in range(6):
            # Invariant perturbations: a shifted constant, or orbit-constant
            # noise on the linear and quadratic parts.
            f1, f2 = _orbit_constant(rng, group, s)
            scale = 10.0 ** rng.integers(-4, 0)
            candidates.append(QuadraticPolynomial(f0=cert.f0 - scale, f1=cert.f1, f2=cert.f2))
            candidates.append(QuadraticPolynomial(f0=cert.f0, f1=cert.f1 + scale * f1, f2=cert.f2 + scale * f2))
        verdicts = []
        for candidate in candidates:
            full = _replay(dom, candidate, corr, 1e-9)
            assert full[1] == configurations
            assert _replay(dom, candidate, corr, 1e-9, group=group) == (full[0], orbits)
            assert verify_certificate(dom, candidate, corr, group=group) is full[0]
            verdicts.append(full[0])
        assert verdicts[0] and not all(verdicts)

    def test_exact_certificates_replay_on_orbits(self):
        dom, group = torus_domain((3, 3), exclusion_diameter=1.5), translation_group((3, 3))
        corr = CorrelationPair(rho1=np.full(9, Fraction(2, 9), dtype=object), rho2=np.zeros((9, 9), dtype=object))
        cert = check_realizability_stationary(dom, corr, group, RATIONAL).certificate
        orbits = len(enumerate_configurations(dom, group=group))
        assert _replay(dom, cert, corr, 0, group=group) == (True, orbits)
        # Down by the least exact step the observable goes negative.
        worst = min(eval_quadratic(cert, c) for c in enumerate_configurations(dom).tolist())
        lowered = QuadraticPolynomial(f0=cert.f0 - worst - Fraction(1, 10**30), f1=cert.f1, f2=cert.f2)
        assert _replay(dom, lowered, corr, 0, group=group) == (False, orbits)

    @pytest.mark.parametrize("where", ["f1", "f2", "f2-below-tolerance"])
    def test_certificate_that_is_not_invariant_replays_in_full(self, where):
        dom, group = torus_domain((4, 3)), translation_group((4, 3))
        corr = CorrelationPair(rho1=np.full(12, 2 / 12), rho2=np.zeros((12, 12)))
        cert = check_realizability_stationary(dom, corr, group).certificate
        f1, f2 = cert.f1.copy(), cert.f2.copy()
        if where == "f1":
            f1[5] -= 1.0
        else:
            # Any step, however small, breaks exact invariance.
            step = 1.0 if where == "f2" else 1e-15
            f2[1, 2] -= step
            f2[2, 1] -= step
        moved = QuadraticPolynomial(f0=cert.f0, f1=f1, f2=f2)
        valid, configurations = _replay(dom, moved, corr, 1e-9, group=group)
        assert configurations == len(enumerate_configurations(dom)) == 4096
        assert valid is _replay(dom, moved, corr, 1e-9)[0] is (where == "f2-below-tolerance")

    def test_group_that_does_not_act_replays_in_full(self):
        from realz import Domain

        path = np.abs(np.subtract.outer(np.arange(4), np.arange(4))).astype(float)
        dom = Domain(distance=path, occupancy_cap=1)
        corr = CorrelationPair(rho1=np.full(4, 0.5), rho2=np.zeros((4, 4)))
        cert = check_realizability(dom, corr).certificate
        for group in (translation_group((4,)), translation_group((5,))):
            assert _replay(dom, cert, corr, 1e-9, group=group) == (True, 16)

    def test_orbit_limit_counts_representatives(self):
        # The (4,3) torus has 4096 configurations in 352 orbits.
        dom, group = torus_domain((4, 3)), translation_group((4, 3))
        corr = CorrelationPair(rho1=np.full(12, 2 / 12), rho2=np.zeros((12, 12)))
        cert = check_realizability_stationary(dom, corr, group).certificate
        with max_configurations(1000):
            assert verify_certificate(dom, cert, corr, group=group)
        with max_configurations(1000), pytest.raises(CapacityError):
            verify_certificate(dom, cert, corr)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: is_stationary(CorrelationPair(rho1=[0.5] * 2, rho2=np.zeros((2, 2))), translation_group((3,))),
         DimensionError, "group degree does not match correlations"),
        (lambda: reduce_pair_correlation(CorrelationPair(rho1=[0.5] * 2, rho2=np.zeros((2, 2))), (3,)),
         DimensionError, "torus dimensions do not match correlations"),
        (lambda: reduce_pair_correlation(CorrelationPair(rho1=[0.5, 0.4, 0.5], rho2=np.zeros((3, 3))), (3,)),
         ValidationError, "correlations are not stationary on this torus"),
        (lambda: expand_pair_correlation(ReducedPairCorrelation(rho=0.5, g2={(0,): 1.0}), (2,)),
         DimensionError, "displacement table does not match the torus size"),
    ],
    ids=["group-degree", "torus-size", "not-stationary", "displacement-count"],
)
def test_refusals(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message


def _group_cases() -> list:
    """``(id, group)``: every kind of group the tests build, transitive or
    not, on 0 to 144 sites."""
    def dihedral(n):
        return [tuple((t + i) % n for i in range(n)) for t in range(n)] + [tuple((t - i) % n for i in range(n)) for t in range(n)]

    cases = [(f"torus{dims}", translation_group(dims)) for dims in [
        (1,), (2,), (3,), (4,), (5,), (2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (2, 2, 2), (4, 4), (12, 12)]]
    return cases + [
        ("degree-0", FiniteGroup(elements=((),))),
        ("identity(3)", FiniteGroup(elements=((0, 1, 2),))),
        ("all-of(4)", FiniteGroup(elements=tuple(itertools.permutations(range(4))))),
        ("all-of(5)", FiniteGroup(elements=tuple(itertools.permutations(range(5))))),
        ("dihedral(5)", FiniteGroup(elements=tuple(dihedral(5)))),
        ("swap(0,1)", FiniteGroup(elements=((0, 1, 2, 3), (1, 0, 2, 3)))),
        ("swap(1,3)", FiniteGroup(elements=((0, 1, 2, 3), (0, 3, 2, 1)))),
        ("double-swap", FiniteGroup(elements=((0, 1, 2, 3), (1, 0, 3, 2)))),
        ("3-cycle-x-swap", FiniteGroup(elements=[(0, 1, 2, 3, 4), (4, 1, 2, 3, 0), (0, 2, 3, 1, 4), (4, 2, 3, 1, 0),
                                                 (0, 3, 1, 2, 4), (4, 3, 1, 2, 0)])),
    ]


def _reference_orbits(group) -> tuple:
    """Site and pair orbits grouped by the key of their least member under
    every element, members and orbits in ascending order."""
    s = group.degree
    perms = np.array(group.elements, dtype=np.intp).reshape(len(group), s)
    i, j = np.nonzero(np.arange(s)[:, None] <= np.arange(s))
    gi, gj = perms[:, i], perms[:, j]
    keyed = [
        (perms.min(axis=0, initial=s), range(s)),
        ((np.minimum(gi, gj) * s + np.maximum(gi, gj)).min(axis=0, initial=s * s), zip(i.tolist(), j.tolist())),
    ]
    out = []
    for keys, items in keyed:
        orbits: dict = {}
        for key, item in zip(keys.tolist(), items):
            orbits.setdefault(key, []).append(item)
        out.append([tuple(orbit) for _, orbit in sorted(orbits.items())])
    return tuple(out)


def _starts(orbits) -> list:
    return list(itertools.accumulate([0, *map(len, orbits)]))[: len(orbits)]


class TestOrbitDescription:
    """One orbit description (``solver._orbits``) serves the moment LP and
    ``FiniteGroup.site_orbits``/``pair_orbits`` alike."""

    @pytest.mark.parametrize("group", [c[1] for c in _group_cases()], ids=[c[0] for c in _group_cases()])
    def test_labels_group_like_the_least_member_key(self, group):
        s = group.degree
        site_orbits, pair_orbits = _reference_orbits(group)
        sites, i, j, site_starts, pair_starts = _orbits(s, group._orbit_labels())
        assert all(a.dtype == np.intp for a in (sites, i, j, site_starts, pair_starts))
        assert sites.tolist() == [k for orbit in site_orbits for k in orbit]
        assert list(zip(i.tolist(), j.tolist())) == [pair for orbit in pair_orbits for pair in orbit]
        assert site_starts.tolist() == _starts(site_orbits) and pair_starts.tolist() == _starts(pair_orbits)
        assert group.site_orbits() == site_orbits and group.pair_orbits() == pair_orbits

    @pytest.mark.parametrize("s", [0, 1, 2, 5, 9])
    def test_no_group_is_one_member_orbits(self, s):
        identity = FiniteGroup(elements=(tuple(range(s)),))
        got, want = _orbits(s), _orbits(s, identity._orbit_labels())
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        assert all(a.dtype == np.intp for a in got)
        assert identity.site_orbits() == [(k,) for k in range(s)]
        assert identity.pair_orbits() == [((a, b),) for a in range(s) for b in range(a, s)]


class TestRationalStationarity:
    """Rational mode reads each orbit's representative entry exactly, so it
    requires tables that are exactly stationary."""

    @staticmethod
    def _nearly_stationary():
        # Stationary within EQUALITY_TOL on the (2,) torus, not exactly.
        half, nudge = Fraction(1, 2), Fraction(1, 10**13)
        pair = half - nudge / 2
        return CorrelationPair(
            rho1=np.array([half + nudge, half - nudge], dtype=object),
            rho2=np.array([[0, pair], [pair, 0]], dtype=object),
        )

    def test_nearly_stationary_exact_tables_are_refused(self):
        dom, group, corr = torus_domain((2,)), translation_group((2,)), self._nearly_stationary()
        assert is_stationary(corr, group)
        assert not check_realizability(dom, corr, RATIONAL).feasible
        with pytest.raises(ValidationError, match="not exactly stationary"):
            check_realizability_stationary(dom, corr, group, RATIONAL)

    def test_float_mode_keeps_its_tolerance(self):
        dom, group, corr = torus_domain((2,)), translation_group((2,)), self._nearly_stationary()
        floats = CorrelationPair(rho1=corr.rho1.astype(float), rho2=corr.rho2.astype(float))
        assert is_stationary(floats, group)
        full = check_realizability(dom, floats)
        assert check_realizability_stationary(dom, floats, group).feasible == full.feasible

    def test_exactly_stationary_tables_still_decide(self):
        dom, group = torus_domain((2,)), translation_group((2,))
        half = Fraction(1, 2)
        corr = CorrelationPair(rho1=np.array([half, half], dtype=object),
                               rho2=np.array([[0, Fraction(1, 4)], [Fraction(1, 4), 0]], dtype=object))
        res = check_realizability_stationary(dom, corr, group, RATIONAL)
        assert res.feasible and correlations_of(res.distribution).rho1.tolist() == [half, half]

    @pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
    def test_one_invariance_pass_on_success(self, rational, monkeypatch):
        # Exactly stationary tables: one comparison of the tables at the
        # mode's tolerance, 0 in rational mode.  A refused table pays for a
        # second, which names the failure.
        passes, fixes = [], FiniteGroup.fixes
        monkeypatch.setattr(FiniteGroup, "fixes", lambda self, *args: passes.append(args[2:]) or fixes(self, *args))
        dom, group = torus_domain((3, 3)), translation_group((3, 3))
        corr = correlations_of(bernoulli_product(dom, [Fraction(1, 3)] * 9))
        if not rational:
            corr = CorrelationPair(rho1=corr.rho1.astype(float), rho2=corr.rho2.astype(float))
        assert check_realizability_stationary(dom, corr, group, RATIONAL if rational else None).feasible
        assert passes == [(0,) if rational else (core.EQUALITY_TOL,)]
        passes.clear()
        with pytest.raises(ValidationError, match="not exactly stationary"):
            check_realizability_stationary(torus_domain((2,)), self._nearly_stationary(), translation_group((2,)), RATIONAL)
        assert passes == [(0,), (core.EQUALITY_TOL,)]


#: ``(dims, hard core)`` of the tori whose checks take their translations.
ROUTED_TORI = [((3, 3), False), ((2, 2, 2), False), ((3, 3), True), ((4,), False), ((5,), False), ((2, 2), False)]


def _stationary_mixture(rng, domain, exact: bool) -> CorrelationPair:
    """The tables of a random mixture of two laws with one parameter on
    every site: Bernoulli, truncated Poisson or hard-core Gibbs, only
    Gibbs under exclusion."""
    number = (lambda v: Fraction(v).limit_denominator(16)) if exact else float
    kinds = ["gibbs", "gibbs"] if domain.exclusion_diameter else rng.choice(["bernoulli", "poisson", "gibbs"], 2).tolist()
    laws = []
    for kind in kinds:
        v = number(rng.uniform(0.2, 0.7))
        if kind == "bernoulli":
            laws.append(bernoulli_product(domain, [v] * domain.site_count))
        elif kind == "poisson":
            laws.append(truncated_poisson_product(domain, v))
        else:
            laws.append(hardcore_gibbs(domain, v))
    w = number(rng.uniform(0.2, 0.8))
    a, b = (correlations_of(law) for law in laws)
    return CorrelationPair(rho1=w * a.rho1 + (1 - w) * b.rho1, rho2=w * a.rho2 + (1 - w) * b.rho2)


def _scaled_closest_pairs(domain, corr: CorrelationPair, factor) -> CorrelationPair:
    """``corr`` with the pair entries of the closest distinct sites that
    the exclusion lets both be occupied times ``factor``."""
    d = domain.distance
    allowed = d[(d > 0) & (d >= (domain.exclusion_diameter or 0))]
    rho2 = corr.rho2.copy()
    closest = d == allowed.min()
    rho2[closest] = rho2[closest] * factor
    return CorrelationPair(rho1=corr.rho1, rho2=rho2)


def _lp_shapes(monkeypatch) -> list:
    """The shape of the matrix of every ``simplex.solve`` call from here on."""
    shapes, solve = [], simplex.solve
    monkeypatch.setattr(simplex, "solve", lambda A, *args, **kwargs: shapes.append(A.shape) or solve(A, *args, **kwargs))
    return shapes


def _full_rows(domain) -> int:
    s = domain.site_count
    return 1 + s + s * (s + 1) // 2


class TestTorusDomainsTakeTheirTranslations:
    """``check_realizability`` and ``minimal_third_moment`` on a
    ``torus_domain`` solve the orbit LP for tables that its translations
    fix, and answer as the unreduced LP on the same distances and caps."""

    @pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
    @pytest.mark.parametrize("dims, hardcore", ROUTED_TORI, ids=[f"{d}{'-hc' if h else ''}" for d, h in ROUTED_TORI])
    def test_reduced_and_unreduced_routes_agree(self, dims, hardcore, rational, monkeypatch):
        torus = torus_domain(dims, exclusion_diameter=1.5 if hardcore else None)
        plain, s = plain_domain(torus), torus.site_count
        opts, tol = (RATIONAL, 0) if rational else (SolverOptions(), 1e-9)
        rng = np.random.default_rng([50, s, hardcore, rational])
        feasible = _stationary_mixture(rng, torus, rational)
        # Stationary still: more or less pair mass on the closest pairs the
        # domain lets both be occupied, past what the LP realizes, and three
        # quarters of every pair entry, which the count hull may refute.
        factor = (lambda v: Fraction(v)) if rational else (lambda v: float(Fraction(v)))
        tables = [feasible] + [_scaled_closest_pairs(torus, feasible, factor(t)) for t in ("5/2", "4", "1/5", "0")]
        tables.append(CorrelationPair(rho1=feasible.rho1, rho2=feasible.rho2 * factor("3/4")))
        shapes = _lp_shapes(monkeypatch)
        verdicts = set()
        for corr in tables:
            for check in (check_realizability, minimal_third_moment):
                shapes.clear()
                reduced = check(torus, corr, opts)
                reduced_rows = [rows for rows, _ in shapes]
                full = check(plain, corr, opts)
                feasible_verdict = reduced.finite if check is minimal_third_moment else reduced.feasible
                assert feasible_verdict == (full.finite if check is minimal_third_moment else full.feasible)
                verdicts.add(feasible_verdict)
                # Every LP the torus solved was the orbit LP.
                assert all(rows < _full_rows(torus) for rows in reduced_rows)
                if check is minimal_third_moment and feasible_verdict:
                    if rational:
                        assert reduced.r_star == full.r_star and type(reduced.r_star) is Fraction
                    else:
                        assert reduced.r_star == pytest.approx(full.r_star, rel=1e-9)
                    assert reduced.dual_cubic.budget_pairing(corr, reduced.r_star) == pytest.approx(0, abs=1e-9)
                if feasible_verdict:
                    law = reduced.witness if check is minimal_third_moment else reduced.distribution
                    assert law.is_exact == rational
                    back = correlations_of(law)
                    worst = max(abs(a - b) for a, b in zip([*back.rho1, *back.rho2.flat], [*corr.rho1, *corr.rho2.flat]))
                    assert worst <= tol
                    if rational:  # the group average: invariant
                        assert symmetrize(law, translation_group(dims)).atoms == law.atoms
                else:
                    assert verify_certificate(torus, reduced.certificate, corr, tol=tol)
                    assert verify_certificate(plain, reduced.certificate, corr, tol=tol)
                    verdicts.add("LP" if reduced_rows else "refuted")
        # Under exclusion the closest allowed pairs are every allowed pair
        # of the (3,3) torus: the scaling moves the whole pair table, and
        # the count hull refutes the tables it breaks.
        assert {True, False} <= verdicts and ("LP" in verdicts or hardcore)

    @pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
    def test_tables_the_translations_do_not_fix_take_the_full_lp(self, rational, monkeypatch):
        opts = RATIONAL if rational else SolverOptions()
        shapes = _lp_shapes(monkeypatch)
        # A near-boundary table on the (3,3) torus is not stationary.
        torus, corr = near_boundary_input(0, 0)
        assert torus._translations is not None and not is_stationary(corr, translation_group((3, 3)))
        check_realizability(torus, corr, opts)
        assert [rows for rows, _ in shapes] == [_full_rows(torus)]
        # Unequal caps: the translations do not act, and none is recorded.
        shapes.clear()
        uneven = torus_domain((4,), occupancy_cap=(1, 2, 1, 2))
        assert uneven._translations is None
        corr = correlations_of(bernoulli_product(uneven, [Fraction(1, 3)] * 4))
        if not rational:
            corr = CorrelationPair(rho1=corr.rho1.astype(float), rho2=corr.rho2.astype(float))
        assert check_realizability(uneven, corr, opts).feasible
        assert [rows for rows, _ in shapes] == [_full_rows(uneven)]

    def test_tables_stationary_within_the_tolerance_take_the_full_lp_in_rational_mode(self, monkeypatch):
        torus = torus_domain((2,))
        corr = TestRationalStationarity._nearly_stationary()
        shapes = _lp_shapes(monkeypatch)
        # Rational mode reads the representative entry exactly, so only
        # exactly stationary tables take the orbit LP; float mode takes it
        # within EQUALITY_TOL, as the stationary check does.
        assert not check_realizability(torus, corr, RATIONAL).feasible
        floats = CorrelationPair(rho1=corr.rho1.astype(float), rho2=corr.rho2.astype(float))
        check_realizability(torus, floats)
        assert [rows for rows, _ in shapes] == [_full_rows(torus), 4]

    @pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
    def test_count_hull_certificates_are_the_unreduced_ones_and_one_group_is_built(self, rational, monkeypatch):
        # The count hull's quadratic is constant on orbits, so the reduced
        # route finds the unreduced route's certificate.  The group is
        # taken before enumeration, refuted or not, and built once.
        built, of = [], FiniteGroup._of
        monkeypatch.setattr(FiniteGroup, "_of", lambda perms: built.append(perms.shape) or of(perms))
        realz.stationary._translation_group.cache_clear()
        torus = torus_domain((3, 3))
        half = Fraction(1, 2) if rational else 0.5
        corr = correlations_of(bernoulli_product(torus, [half] * 9))
        hull = CorrelationPair(rho1=corr.rho1, rho2=corr.rho2 * (Fraction(3, 4) if rational else 0.75))
        opts = RATIONAL if rational else SolverOptions()
        for check in (check_realizability, minimal_third_moment):
            reduced, full = (check(domain, hull, opts).certificate for domain in (torus, plain_domain(torus)))
            assert [(type(c), c) for c in reduced.coefficients()] == [(type(c), c) for c in full.coefficients()]
        assert check_realizability(torus, corr, opts).feasible
        assert built == [(9, 9)]

    @pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
    def test_one_enumeration_per_check(self, rational, monkeypatch):
        # The group is decided before the space is enumerated, so a check
        # enumerates once, under the translations, whether a refutation or
        # the LP answers it.
        calls, enumerate_ = [], realz.enumeration.enumerate_configurations
        monkeypatch.setattr(realz.enumeration, "enumerate_configurations",
                            lambda domain, group=None, **kw: calls.append(group) or enumerate_(domain, group, **kw))
        torus = torus_domain((3, 3))
        opts = RATIONAL if rational else SolverOptions()
        half, number = (Fraction(1, 2), Fraction) if rational else (0.5, lambda v: float(Fraction(v)))
        feasible = correlations_of(bernoulli_product(torus, [half] * 9))
        tables = {
            "feasible": feasible,
            "negative": CorrelationPair(rho1=feasible.rho1, rho2=feasible.rho2 * number(-1)),
            "hull": CorrelationPair(rho1=feasible.rho1, rho2=feasible.rho2 * number("3/4")),
            "lp": _scaled_closest_pairs(torus, feasible, number("5/2")),
        }
        routes, shapes = set(), _lp_shapes(monkeypatch)
        for name, corr in tables.items():
            for check in (check_realizability, minimal_third_moment):
                calls.clear()
                shapes.clear()
                result = check(torus, corr, opts)
                assert calls == [translation_group((3, 3))], (name, check.__name__)
                routes.add((name, bool(shapes), getattr(result, "feasible", getattr(result, "finite", None))))
        # Refuted before the LP and by it, and feasible.
        assert {("negative", False, False), ("hull", False, False), ("lp", True, False), ("feasible", True, True)} <= routes

    def test_caps_past_the_orbit_bound_build_no_orbit(self, monkeypatch):
        # 2**64 configurations of the cap-1 (8,8) torus are at least 2**58
        # orbits under its 64 translations: both checks refuse the space
        # from its caps, before orderly generation starts.
        built, lex_least = [], realz.enumeration._LexLeast
        monkeypatch.setattr(realz.enumeration, "_LexLeast", lambda *args: built.append(1) or lex_least(*args))
        torus = torus_domain((8, 8))
        corr = CorrelationPair(rho1=np.full(64, 0.5), rho2=np.full((64, 64), 0.25) - np.eye(64) / 4)
        with pytest.raises(CapacityError, match=f"at least {2**58} orbits"):
            check_realizability_stationary(torus, corr, translation_group((8, 8)))
        with pytest.raises(CapacityError, match=f"{2**64} configurations"):
            check_realizability(torus, corr)
        assert not built

    def test_the_orbit_description_is_built_once_per_group(self, monkeypatch):
        calls, labels = [], FiniteGroup._orbit_labels
        monkeypatch.setattr(FiniteGroup, "_orbit_labels", lambda self: calls.append(1) or labels(self))
        group = translation_group((3, 3))
        dom = torus_domain((3, 3))
        corr = correlations_of(bernoulli_product(dom, [Fraction(1, 3)] * 9))
        for _ in range(2):
            assert check_realizability_stationary(dom, corr, group, RATIONAL).feasible
        listed = group.site_orbits(), group.pair_orbits()
        assert len(calls) == 1
        fresh = translation_group((3, 3))
        assert listed == (fresh.site_orbits(), fresh.pair_orbits())
        description = group._orbit_description
        assert all(not array.flags.writeable for array in description)
        assert [a.tolist() for a in description] == [a.tolist() for a in _orbits(9, fresh._orbit_labels())]


def test_integer_group_average_equals_the_fraction_one():
    """``solver._group_average`` with the weights' integer form gives the
    members and weights of the ``Fraction`` path, and their integer form
    over the least common denominator."""
    rng = np.random.default_rng(50)
    for dims in ((3, 3), (2, 2, 2), (4,), (5,), (2, 2)):
        domain, group = torus_domain(dims, occupancy_cap=2), translation_group(dims)
        for _ in range(4):
            law = random_distribution(rng, domain, exact=True)
            weights = [w for _, w in law.atoms]
            members, totals = realz.solver._group_average(law.occupancy, weights, group)
            got, got_totals, integers = realz.solver._group_average(law.occupancy, weights, group, law._integers)
            assert got.dtype == members.dtype and got.tolist() == members.tolist()
            assert got_totals == totals and all(type(w) is Fraction for w in got_totals)
            assert integers == (*core._to_integers(totals), True)
