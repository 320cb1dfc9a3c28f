"""Configuration-space enumeration and observable ranges."""

import gc
import inspect
import itertools
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from realz import (
    CapacityError,
    DimensionError,
    Domain,
    FiniteGroup,
    QuadraticPolynomial,
    ValidationError,
    bernoulli_product,
    check_gap,
    check_mean_bounds,
    check_realizability,
    check_realizability_stationary,
    check_upper,
    correlations_of,
    enumerate_configurations,
    hardcore_gibbs,
    is_admissible,
    max_occupancy,
    minimal_third_moment,
    range_of,
    run_battery,
    torus_domain,
    translation_group,
    verify_certificate,
)
from realz import enumeration
from realz.enumeration import MERGE_TOL
from oracle import oracle_configurations, oracle_representatives
from support import complete_domain, max_configurations, random_domain, single_site


def triangle(exclusion=None, cap=1):
    dist = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    return Domain(distance=dist, occupancy_cap=(cap,) * 3, exclusion_diameter=exclusion)


def assert_configs(X, expected, sites):
    # same configurations in the same order, as a (configs x sites) int64 array
    assert X.dtype == np.int64
    assert X.shape == (len(expected), sites)
    assert X.tolist() == [list(c) for c in expected]


class TestEnumerate:
    def test_single_lattice_site(self):
        assert_configs(enumerate_configurations(single_site(1)), [(0,), (1,)], 1)

    def test_triangle_with_full_exclusion(self):
        # only the independent sets of the triangle survive
        configs = enumerate_configurations(triangle(exclusion=1.5))
        assert_configs(configs, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)], 3)

    def test_two_sites_cap_two(self):
        assert len(enumerate_configurations(complete_domain(2, cap=2))) == 9

    def test_lexicographic_and_deterministic(self):
        dom = complete_domain(3, cap=1)
        configs = enumerate_configurations(dom)
        assert configs.tolist() == sorted(configs.tolist())
        assert np.array_equal(configs, enumerate_configurations(dom))

    def test_every_member_is_admissible_no_duplicates(self):
        dom = triangle(exclusion=1.2, cap=1)
        configs = enumerate_configurations(dom)
        assert len(np.unique(configs, axis=0)) == len(configs)
        assert all(is_admissible(dom, c) for c in configs)

    def test_total_exact_filters(self):
        dom = complete_domain(3, cap=1, total_exact=2)
        configs = enumerate_configurations(dom)
        assert_configs(configs, [(0, 1, 1), (1, 0, 1), (1, 1, 0)], 3)

    def test_capacity_limit(self):
        with max_configurations(50), pytest.raises(CapacityError):
            enumerate_configurations(complete_domain(4, cap=2))
        with max_configurations(3), pytest.raises(CapacityError):
            enumerate_configurations(triangle(exclusion=1.5))

    def test_limit_is_checked_before_building(self):
        # A site admitting a million occupancies is refused before a row of
        # them is built.
        dom = single_site(10**6, total_cap=10**6)
        tracemalloc.start()
        try:
            with max_configurations(10), pytest.raises(CapacityError):
                enumerate_configurations(dom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_leaves_no_cyclic_garbage(self):
        # A dropped enumeration, finished or stopped at the limit, is freed
        # at once, not held until the cyclic collector runs.
        gc.collect()
        gc.disable()
        try:
            enumerate_configurations(complete_domain(4, cap=1))
            try:
                with max_configurations(3):
                    enumerate_configurations(triangle(exclusion=1.5))
            except CapacityError:
                pass
            assert gc.collect() == 0
        finally:
            gc.enable()


def reference_domains(seed=29, count=40):
    """Seeded random domains over every constraint the builder prunes by."""
    rng = np.random.default_rng(seed)
    domains = []
    for k in range(count):
        sites = int(rng.integers(1, 6))
        dist = rng.uniform(0.5, 2.0, size=(sites, sites))
        dist = (dist + dist.T) / 2
        np.fill_diagonal(dist, 0.0)
        kwargs = {}
        if k % 2:
            kwargs["exclusion_diameter"] = float(rng.uniform(0.4, 1.5))
        if k % 3 == 1:
            kwargs["total_cap"] = int(rng.integers(0, 7))
        elif k % 3 == 2:
            kwargs["total_exact"] = int(rng.integers(0, 7))
        caps = tuple(int(c) for c in rng.integers(0, 4, size=sites))
        domains.append(Domain(distance=dist, occupancy_cap=caps, **kwargs))
    # an empty space, with and without exclusion
    domains.append(complete_domain(3, cap=1, total_exact=4))
    domains.append(triangle_exact(2))
    # totals past int64
    domains.append(complete_domain(2, cap=1, total_cap=10**30))
    domains.append(complete_domain(2, cap=1, total_exact=10**30))
    return domains


def triangle_exact(total):
    dist = triangle().distance
    return Domain(distance=dist, occupancy_cap=(1,) * 3, exclusion_diameter=1.5, total_exact=total)


class TestAgainstBruteForce:
    def test_matches_filtered_product(self):
        sizes = []
        for dom in reference_domains():
            expected = oracle_configurations(dom)
            assert_configs(enumerate_configurations(dom), expected, dom.site_count)
            sizes.append(len(expected))
        # the domains span empty and nontrivial spaces
        assert 0 in sizes and max(sizes) > 50

    def test_capacity_error_exactly_past_the_count(self):
        for dom in reference_domains():
            count = len(oracle_configurations(dom))
            with max_configurations(count):
                assert len(enumerate_configurations(dom)) == count
            if count:
                with max_configurations(count - 1), pytest.raises(CapacityError):
                    enumerate_configurations(dom)

    def test_dead_prefixes_do_not_count(self):
        # Exclusion leaves no way to place two particles on the triangle,
        # though two of its prefixes survive until the last site.
        with max_configurations(0):
            assert enumerate_configurations(triangle_exact(2)).shape == (0, 3)
        with max_configurations(3):
            assert_configs(enumerate_configurations(triangle_exact(1)), [(0, 0, 1), (0, 1, 0), (1, 0, 0)], 3)


def dihedral_group(n: int) -> FiniteGroup:
    """Rotations and reflections of the n-cycle."""
    rotations = [tuple((i + t) % n for i in range(n)) for t in range(n)]
    reflections = [tuple((t - i) % n for i in range(n)) for t in range(n)]
    return FiniteGroup(elements=tuple(rotations + reflections))


def orbit_cases() -> list:
    """``(id, domain, group)``: tori with and without hard cores, a cap-2
    complete graph under every permutation, total constraints, and the
    dihedral group of a cycle."""
    cases = []
    for dims in [(3, 3), (4, 3), (2, 2, 2), (5,)]:
        cases.append((f"torus{dims}", torus_domain(dims), translation_group(dims)))
    for dims in [(3, 3), (4, 4), (6,)]:
        cases.append((f"torus{dims}-hc", torus_domain(dims, exclusion_diameter=1.5), translation_group(dims)))
    symmetric = FiniteGroup(elements=tuple(itertools.permutations(range(4))))
    cases.append(("complete(4,c2)-S4", complete_domain(4, cap=2), symmetric))
    totals = [
        ("torus(3,3)-total_cap", (3, 3), dict(total_cap=3)),
        ("torus(4,)-c2-total_cap", (4,), dict(occupancy_cap=2, total_cap=3)),
        ("torus(3,3)-total_exact", (3, 3), dict(total_exact=4)),
        ("torus(2,3)-c3-total_exact", (2, 3), dict(occupancy_cap=3, total_exact=5)),
        ("torus(3,3)-hc-total_exact", (3, 3), dict(exclusion_diameter=1.5, total_exact=2)),
    ]
    cases += [(name, torus_domain(dims, **kwargs), translation_group(dims)) for name, dims, kwargs in totals]
    for n, cap in ((6, 2), (7, 1)):
        cases.append((f"cycle{n}-dihedral", torus_domain((n,), occupancy_cap=cap), dihedral_group(n)))
    cases.append(("cycle8-hc-dihedral", torus_domain((8,), exclusion_diameter=1.5), dihedral_group(8)))
    return cases


class TestOrbitRepresentatives:
    @pytest.mark.parametrize("domain, group", [c[1:] for c in orbit_cases()], ids=[c[0] for c in orbit_cases()])
    def test_matches_least_member_of_every_orbit(self, domain, group):
        expected = oracle_representatives(domain, group)
        assert_configs(enumerate_configurations(domain, group=group), expected, domain.site_count)

    @pytest.mark.parametrize(
        "domain, sites, dtype",
        [
            (torus_domain((27,), occupancy_cap=3, total_cap=2), 27, np.float64),
            (torus_domain((33,), occupancy_cap=3, total_cap=2), 33, np.float64),
            (complete_domain(36, cap=2, total_cap=2), 36, np.int64),
            (complete_domain(40, cap=2, total_cap=2), 40, object),
        ],
        ids=["float64-27", "float64-33", "int64-36", "object-40"],
    )
    def test_key_dtypes(self, domain, sites, dtype, monkeypatch):
        # total_cap=2 lowers every cap to 2, so the keys are base 3: 3**27
        # and 3**33 stay below 2**53 (float keys near the top of their exact
        # range), 3**36 lies between 2**53 and 2**63, 3**40 past 2**63.
        tests = []
        lex_least = enumeration._LexLeast
        monkeypatch.setattr(enumeration, "_LexLeast", lambda *args: tests.append(lex_least(*args)) or tests[-1])
        group = translation_group((sites,))
        configs = enumerate_configurations(domain).tolist()
        expected = sorted({min(group.apply_to_config(perm, tuple(c)) for perm in group.elements) for c in configs})
        assert_configs(enumerate_configurations(domain, group=group), expected, sites)
        assert [t.dtype for t in tests] == [dtype]
        assert len(configs) == 1 + sites + sites * (sites + 1) // 2 and len(expected) == sites // 2 + 3

    def test_no_sites(self):
        dom = Domain(distance=np.zeros((0, 0)), occupancy_cap=())
        assert enumerate_configurations(dom, group=FiniteGroup(elements=((),))).shape == (1, 0)

    def test_trivial_group_returns_every_configuration(self):
        dom = complete_domain(3, cap=2, total_cap=4)
        trivial = FiniteGroup(elements=(tuple(range(3)),))
        assert np.array_equal(enumerate_configurations(dom, group=trivial), enumerate_configurations(dom))

    def test_limit_counts_representatives(self):
        # 352 orbits among the 4096 configurations of the (4,3) torus; no
        # level holds more prefixes than there are orbits.
        dom, group = torus_domain((4, 3)), translation_group((4, 3))
        with max_configurations(352):
            assert len(enumerate_configurations(dom, group=group)) == 352
        with max_configurations(351), pytest.raises(CapacityError):
            enumerate_configurations(dom, group=group)

    def test_group_must_act_on_the_sites(self):
        with pytest.raises(DimensionError):
            enumerate_configurations(torus_domain((4,)), group=translation_group((5,)))


class TestMemo:
    """Each space is built once per content key and shared by later calls."""

    @pytest.fixture(autouse=True)
    def builds(self, monkeypatch):
        """The domains the builder saw; the memo starts empty (conftest)."""
        seen, build = [], enumeration._build
        monkeypatch.setattr(enumeration, "_build", lambda *args: seen.append(args[0]) or build(*args))
        return seen

    def test_entries_are_kept_apart_by_key(self, builds):
        # Each domain differs from the first in one field.
        path = np.abs(np.subtract.outer(np.arange(4), np.arange(4))).astype(float)
        domains = [
            torus_domain((4,)),
            torus_domain((4,), occupancy_cap=2),
            torus_domain((4,), occupancy_cap=(1, 1, 1, 2)),
            torus_domain((4,), exclusion_diameter=1.5),
            Domain(distance=path, occupancy_cap=1, exclusion_diameter=1.5),
            torus_domain((4,), total_cap=2),
            torus_domain((4,), total_exact=2),
        ]
        for _ in range(2):
            for dom in domains:
                assert_configs(enumerate_configurations(dom), oracle_configurations(dom), 4)
        assert len(builds) == len(enumeration._MEMO.entries) == len(domains)
        # A domain built anew with equal fields, and its own labels, is a hit.
        again = Domain(distance=path, occupancy_cap=(1,) * 4, exclusion_diameter=1.5, site_labels="abcd")
        enumerate_configurations(again)
        assert len(builds) == len(domains)

    def test_limit_and_group_are_part_of_the_key(self, builds):
        dom = torus_domain((4,))
        full = oracle_configurations(dom)
        with max_configurations(16):
            assert_configs(enumerate_configurations(dom), full, 4)
        assert_configs(enumerate_configurations(dom), full, 4)
        with max_configurations(15), pytest.raises(CapacityError):
            enumerate_configurations(dom)
        groups = [translation_group((4,)), dihedral_group(4), FiniteGroup(elements=((0, 1, 2, 3), (1, 0, 3, 2)))]
        for _ in range(2):
            for group in groups:
                expected = oracle_representatives(dom, group)
                assert_configs(enumerate_configurations(dom, group=group), expected, 4)
        assert len(enumeration._MEMO.entries) == 2 + len(groups)
        assert len(builds) == 3 + len(groups)  # the refused limit included

    def test_hit_equals_a_fresh_build(self, builds):
        cases = [(dom, None) for dom in reference_domains()]
        cases += [(dom, FiniteGroup(elements=(tuple(range(dom.site_count)),))) for dom in reference_domains()]
        cases += [c[1:] for c in orbit_cases()]
        for dom, group in cases:
            first = enumerate_configurations(dom, group=group)
            built = len(builds)
            hit = enumerate_configurations(dom, group=group)
            assert len(builds) == built
            assert_configs(hit, first.tolist(), dom.site_count)
            assert np.array_equal(hit, enumeration._build(dom, group))

    def test_each_call_returns_its_own_writable_int64_array(self):
        dom = complete_domain(3, cap=2)
        expected = oracle_configurations(dom)
        X = enumerate_configurations(dom)
        assert X.dtype == np.int64 and X.flags.writeable
        X[:] = 7
        Y = enumerate_configurations(dom)
        assert_configs(Y, expected, 3)
        Y[0, 0] = 5
        assert_configs(enumerate_configurations(dom), expected, 3)
        # The entry is kept narrow and read-only, and charged what it holds
        # plus its distance bytes.
        ((narrow, size),) = enumeration._MEMO.entries.values()
        assert narrow.dtype == np.uint8 and narrow.shape == (27, 3) and not narrow.flags.writeable
        assert size == enumeration._MEMO.size == 27 * 3 + 8 * 3**2

    def test_errors_are_raised_again_and_nothing_is_stored(self, builds):
        for _ in range(2):
            with max_configurations(50), pytest.raises(CapacityError):
                enumerate_configurations(complete_domain(4, cap=2))
            with max_configurations(351), pytest.raises(CapacityError):
                enumerate_configurations(torus_domain((4, 3)), group=translation_group((4, 3)))
        assert len(builds) == 4
        # A group of the wrong degree is refused before the lookup.
        for _ in range(2):
            with pytest.raises(DimensionError):
                enumerate_configurations(torus_domain((4,)), group=translation_group((5,)))
        assert len(builds) == 4
        assert not enumeration._MEMO.entries and enumeration._MEMO.size == 0

    def test_stored_bytes_stay_within_the_budget(self, builds, monkeypatch):
        def charged(dom):
            # one byte per occupancy (caps of 2), eight per distance
            return len(oracle_configurations(dom)) * dom.site_count + 8 * dom.site_count**2

        d2, d3, d4, d5 = (complete_domain(k, cap=2) for k in (2, 3, 4, 5))
        monkeypatch.setattr(enumeration, "_MEMO_BYTES", charged(d3) + charged(d4) + charged(d5))
        memo = enumeration._MEMO
        for dom in (d3, d4, d5, d3):
            enumerate_configurations(dom)
        assert memo.size == enumeration._MEMO_BYTES and len(builds) == 3
        # d4 is now the least recently used, and goes first.
        enumerate_configurations(d2)
        assert memo.size == charged(d3) + charged(d5) + charged(d2) <= enumeration._MEMO_BYTES
        for dom in (d3, d5, d2):
            enumerate_configurations(dom)
        assert len(builds) == 4
        enumerate_configurations(d4)
        assert len(builds) == 5
        # A space larger than the budget alone is returned but not kept.
        entries, size = list(memo.entries), memo.size
        big = complete_domain(6, cap=2)
        assert charged(big) > enumeration._MEMO_BYTES
        for _ in range(2):
            assert_configs(enumerate_configurations(big), oracle_configurations(big), 6)
        assert list(memo.entries) == entries and memo.size == size and len(builds) == 7


    def test_threads_share_one_consistent_memo(self, monkeypatch):
        # Room for about two of the spaces, so the threads keep storing and
        # evicting each other's entries.
        domains = [complete_domain(k) for k in (2, 3, 4, 5)] + [torus_domain((4,), total_cap=2)]
        expected = [[list(c) for c in oracle_configurations(dom)] for dom in domains]
        monkeypatch.setattr(enumeration, "_MEMO_BYTES", 300)
        errors = []

        def worker(seed):
            picks = np.random.default_rng(seed).integers(0, len(domains), size=2000)
            try:
                for k in picks:
                    assert enumerate_configurations(domains[k]).tolist() == expected[k]
            except BaseException as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not errors
        memo = enumeration._MEMO
        assert memo.size == sum(size for _, size in memo.entries.values()) <= enumeration._MEMO_BYTES


class TestRangeOf:
    def test_single_site_indicator(self):
        dom = complete_domain(2, cap=1)
        assert range_of([1.0, 0.0], dom).values == (0.0, 1.0)

    def test_window_of_free_sites_counts(self):
        dom = complete_domain(3, cap=1)
        assert range_of([1.0, 1.0, 1.0], dom).values == (0.0, 1.0, 2.0, 3.0)

    def test_signed_observable(self):
        dom = complete_domain(2, cap=1)
        assert range_of([1.0, -1.0], dom).values == (-1.0, 0.0, 1.0)

    def test_merging_of_near_duplicates(self):
        dom = complete_domain(2, cap=1)
        rset = range_of([1.0, 1.0 + 1e-13], dom)
        # 1.0 and 1.0 + 1e-13 collapse into one value
        assert len(rset) == 3

    def test_range_no_larger_than_space(self):
        dom = complete_domain(3, cap=2)
        rng = np.random.default_rng(0)
        f = rng.normal(size=3)
        assert len(range_of(f, dom)) <= len(enumerate_configurations(dom))

    def test_matches_per_configuration_loop(self):
        # reference: the observable summed one configuration at a time
        rng = np.random.default_rng(71)
        domains = [complete_domain(12, cap=1)] + [random_domain(rng, max_sites=5) for _ in range(20)]
        for dom in domains:
            s = dom.site_count
            configs = enumerate_configurations(dom)
            exact = np.array([Fraction(int(k), 7) for k in rng.integers(-6, 7, size=s)], dtype=object)
            for f in (rng.normal(size=s), exact):
                sums = [(f * np.asarray(c, dtype=np.int64)).sum() for c in configs]
                values = sorted(v.item() if isinstance(v, np.generic) else v for v in sums)
                merged = [values[0]]
                for v in values[1:]:
                    if v - merged[-1] > MERGE_TOL:
                        merged.append(v)
                assert range_of(f, dom).values == tuple(merged)
            window = [i for i in range(s) if rng.random() < 0.5]
            assert max_occupancy(dom, window) == max(sum(c[i] for i in window) for c in configs)

    def test_empty_space_rejected(self):
        dom = complete_domain(2, cap=1, total_exact=5)
        with pytest.raises(ValidationError):
            range_of([1.0, 1.0], dom)


class TestMaxOccupancy:
    def test_free_sites(self):
        assert max_occupancy(complete_domain(3, cap=1), [0, 1, 2]) == 3

    def test_triangle_exclusion_is_max_independent_set(self):
        assert max_occupancy(triangle(exclusion=1.5), [0, 1, 2]) == 1

    def test_total_exact(self):
        dom = complete_domain(4, cap=1, total_exact=2)
        assert max_occupancy(dom, [0, 1, 2, 3]) == 2

    def test_cross_check_against_range(self):
        dom = triangle(exclusion=1.2, cap=1)
        window = [0, 2]
        indicator = [1.0 if i in window else 0.0 for i in range(3)]
        assert max_occupancy(dom, window) == range_of(indicator, dom).max


def test_enumeration_bound_is_one_constant():
    # No entry point takes a bound of its own: each one enumerates under
    # MAX_CONFIGURATIONS, read afresh and not answered from the memo of the
    # unpatched run.  The (4,) torus has 16 configurations in 6 orbits.
    dom, group = torus_domain((4,)), translation_group((4,))
    corr = correlations_of(bernoulli_product(dom, [Fraction(1, 2)] * 4))
    cert = QuadraticPolynomial(f0=1, f1=np.zeros(4), f2=np.zeros((4, 4)))
    f = [1, 0, 0, 0]
    cases = [
        (enumerate_configurations, lambda: enumerate_configurations(dom), False),
        (enumerate_configurations, lambda: enumerate_configurations(dom, group), True),
        (range_of, lambda: range_of(f, dom), False),
        (max_occupancy, lambda: max_occupancy(dom, [0, 1]), False),
        (check_realizability, lambda: check_realizability(dom, corr), False),
        (verify_certificate, lambda: verify_certificate(dom, cert, corr), False),
        (verify_certificate, lambda: verify_certificate(dom, cert, corr, group=group), True),
        (minimal_third_moment, lambda: minimal_third_moment(dom, corr), False),
        (check_realizability_stationary, lambda: check_realizability_stationary(dom, corr, group), True),
        (run_battery, lambda: run_battery(dom, corr), False),
        (check_gap, lambda: check_gap(corr, f, dom), False),
        (check_upper, lambda: check_upper(corr, f, dom), False),
        (check_mean_bounds, lambda: check_mean_bounds(corr, f, dom), False),
        (hardcore_gibbs, lambda: hardcore_gibbs(dom, 1), False),
    ]
    assert len({fn for fn, _, _ in cases}) == 12
    full = "16 configurations, past enumeration.MAX_CONFIGURATIONS = 5"
    orbits = "6 or more orbit representatives or prefixes, past enumeration.MAX_CONFIGURATIONS = 5"
    for fn, run, grouped in cases:
        assert "limit" not in inspect.signature(fn).parameters, fn.__name__
        run()
        with max_configurations(5), pytest.raises(CapacityError) as caught:
            run()
        assert str(caught.value) == (orbits if grouped else full), fn.__name__


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: enumeration.RangeSet(()), ValidationError, "range set must be nonempty"),
        (lambda: enumeration.RangeSet((1.0, 1.0)), ValidationError, "range set values must be strictly increasing"),
        (lambda: enumeration.RangeSet((2, 1)), ValidationError, "range set values must be strictly increasing"),
        (lambda: range_of([1.0], complete_domain(2)), DimensionError, "observable length does not match domain"),
        (lambda: max_occupancy(complete_domain(2), [0, 2]), DimensionError,
         "window contains a site index outside the domain"),
        (lambda: max_occupancy(complete_domain(2), [-1]), DimensionError,
         "window contains a site index outside the domain"),
    ],
    ids=["empty-range", "repeated-value", "decreasing", "observable-length", "window-past-end", "window-negative"],
)
def test_refusals(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message
