"""Reference distributions: exact weights and known correlations."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from realz import (
    Distribution,
    SolverOptions,
    ValidationError,
    bernoulli_product,
    check_realizability,
    correlations_of,
    enumerate_configurations,
    hardcore_gibbs,
    minimal_third_moment,
    torus_domain,
    truncated_poisson_product,
    two_atom_family,
)
from realz.core import _pyscalar
from realz.generators import _product_law
from oracle import oracle_min_third_moment
from support import complete_domain, single_site

RATIONAL = SolverOptions(arithmetic_mode="rational")


#: Parameters that are not real numbers: a bool (numpy's too) would read
#: as 0 or 1, a string or None is not parsed, and a complex number has no
#: order.
NOT_NUMBERS = [True, False, np.True_, "0.5", "1/2", None, 1j, np.complex128(0.5)]


def triangle_excluded():
    dist = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    from realz import Domain

    return Domain(distance=dist, occupancy_cap=(1, 1, 1), exclusion_diameter=1.5)


class TestBernoulliProduct:
    def test_zero_rate_is_empty_delta(self):
        dist = bernoulli_product(complete_domain(2), [0.0, 0.0])
        assert dist.atoms == (((0, 0), 1.0),)

    def test_unit_rate_is_full_delta(self):
        dist = bernoulli_product(complete_domain(2), [1.0, 1.0])
        assert dist.atoms == (((1, 1), 1.0),)

    def test_uniform_half(self):
        dist = bernoulli_product(complete_domain(2), [Fraction(1, 2)] * 2)
        assert len(dist.atoms) == 4
        assert all(w == Fraction(1, 4) for _, w in dist.atoms)
        corr = correlations_of(dist)
        assert corr.rho2[0, 1] == Fraction(1, 4)
        assert corr.rho2[0, 0] == 0

    def test_exclusion_domain_rejected(self):
        with pytest.raises(ValidationError):
            bernoulli_product(triangle_excluded(), [0.1, 0.1, 0.1])

    def test_total_cap_rejected(self):
        with pytest.raises(ValidationError):
            bernoulli_product(complete_domain(2, total_cap=1), [0.1, 0.1])

    @pytest.mark.parametrize("p", NOT_NUMBERS, ids=repr)
    def test_probability_that_is_not_a_number_is_refused(self, p):
        # [True, False] was the point mass on (1, 0); "0.5" raised TypeError.
        with pytest.raises(ValidationError, match="occupation probability must be a number"):
            bernoulli_product(complete_domain(2), [p, 0.5])
        with pytest.raises(ValidationError, match="occupation probability must be a number"):
            bernoulli_product(complete_domain(2), np.array([0.5, p], dtype=object))


class TestHardcoreGibbs:
    def test_small_activity_concentrates_on_empty(self):
        dist = hardcore_gibbs(single_site(1), Fraction(1, 10**6))
        assert dist.weight_of((0,)) > Fraction(999999, 1000000)

    def test_single_free_site_unit_activity(self):
        dist = hardcore_gibbs(single_site(1), 1)
        assert dist.weight_of((0,)) == Fraction(1, 2)
        assert dist.weight_of((1,)) == Fraction(1, 2)

    def test_triangle_with_exclusion(self):
        dist = hardcore_gibbs(triangle_excluded(), 1)
        assert dist.meta["partition_function"] == 4
        assert dist.weight_of((0, 0, 0)) == Fraction(1, 4)
        assert dist.weight_of((1, 0, 0)) == Fraction(1, 4)

    def test_exact_weights_on_hardcore_torus_are_python_fractions(self):
        # On the (3,3) torus with nearest neighbours excluded, the admissible
        # sets are the partial permutation matrices of a 3 x 3 grid:
        # Z = 1 + 9z + 18z^2 + 6z^3.
        z = Fraction(2, 3)
        dom = torus_domain((3, 3), occupancy_cap=1, exclusion_diameter=1.5)
        dist = hardcore_gibbs(dom, z)
        partition = 1 + 9 * z + 18 * z**2 + 6 * z**3
        assert dist.meta["partition_function"] == partition
        counts = [0] * 4
        for config, weight in dist.atoms:
            assert type(weight) is Fraction
            assert type(weight.numerator) is int and type(weight.denominator) is int
            assert weight == z ** sum(config) / partition
            counts[sum(config)] += 1
        assert counts == [1, 9, 18, 6]

    @pytest.mark.parametrize("z", NOT_NUMBERS, ids=repr)
    def test_activity_that_is_not_a_number_is_refused(self, z):
        # True was the z = 1 law.
        with pytest.raises(ValidationError, match="activity must be a number"):
            hardcore_gibbs(single_site(1), z)

    def test_float_activity_gives_float_weights(self):
        dist = hardcore_gibbs(single_site(2), 0.5)
        assert isinstance(dist.atoms[0][1], float)
        assert sum(w for _, w in dist.atoms) == pytest.approx(1.0)


class TestTwoAtomFamily:
    def test_m3_cap4(self):
        corr, dist = two_atom_family(4, 3)
        assert dist.weight_of((0,)) == Fraction(11, 12)
        assert dist.weight_of((4,)) == Fraction(1, 12)
        got = correlations_of(dist)
        assert got.rho1[0] == Fraction(1, 3) == corr.rho1[0]
        assert got.rho2[0, 0] == 1 == corr.rho2[0, 0]

    def test_m1_cap2(self):
        corr, dist = two_atom_family(2, 1)
        assert dist.weight_of((2,)) == Fraction(1, 2)
        assert corr.rho1[0] == 1 and corr.rho2[0, 0] == 1

    def test_cap_below_threshold_rejected(self):
        with pytest.raises(ValidationError):
            two_atom_family(3, 3)

    def test_third_moment_of_witness_and_optimum(self):
        # the construction attains m - 1; the minimum is strictly
        # increasing in m, confirmed against the elimination oracle
        previous = None
        for m in range(2, 7):
            corr, dist = two_atom_family(m + 1, m)
            witness_h3 = sum(
                w * sum(c) * (sum(c) - 1) * (sum(c) - 2) for c, w in dist.atoms
            )
            assert witness_h3 == m - 1
            res = minimal_third_moment(dist.domain, corr, RATIONAL)
            assert res.finite and res.r_star <= m - 1
            status, value = oracle_min_third_moment(dist.domain, corr)
            assert status == "optimal" and value == res.r_star
            if previous is not None:
                assert res.r_star > previous
            previous = res.r_star


class TestTruncatedPoissonProduct:
    def test_small_rate_concentrates_on_empty(self):
        dist = truncated_poisson_product(complete_domain(2), Fraction(1, 10**6))
        assert dist.weight_of((0, 0)) > Fraction(99, 100)

    def test_single_lattice_site_unit_rate(self):
        dist = truncated_poisson_product(single_site(1), 1)
        assert dist.weight_of((0,)) == Fraction(1, 2)
        assert dist.weight_of((1,)) == Fraction(1, 2)

    def test_two_site_product(self):
        dist = truncated_poisson_product(complete_domain(2), 1)
        assert all(w == Fraction(1, 4) for _, w in dist.atoms)

    def test_exclusion_domain_rejected(self):
        with pytest.raises(ValidationError):
            truncated_poisson_product(triangle_excluded(), 1)

    @pytest.mark.parametrize("lam", NOT_NUMBERS, ids=repr)
    def test_rate_that_is_not_a_number_is_refused(self, lam):
        # True was the rate-1 law.
        with pytest.raises(ValidationError, match="rate must be a number"):
            truncated_poisson_product(complete_domain(2), lam)


class TestGeneratorContracts:
    def test_outputs_validate_and_realize_themselves(self):
        rng = np.random.default_rng(67)
        dom = complete_domain(3, cap=2)
        fixtures = [
            bernoulli_product(complete_domain(3), rng.random(3).tolist()),
            hardcore_gibbs(dom, Fraction(3, 2)),
            truncated_poisson_product(dom, Fraction(1, 2)),
            two_atom_family(4, 3)[1],
        ]
        for dist in fixtures:
            res = check_realizability(dist.domain, correlations_of(dist))
            assert res.feasible

    def test_exact_weights_for_rational_parameters(self):
        fixtures = [
            bernoulli_product(complete_domain(2), [Fraction(1, 3), Fraction(1, 7)]),
            hardcore_gibbs(single_site(3), Fraction(2, 5)),
            truncated_poisson_product(single_site(2), Fraction(3, 4)),
        ]
        for dist in fixtures:
            assert dist.is_exact
            assert sum(w for _, w in dist.atoms) == 1



def _product_reference(site_laws, one) -> tuple:
    """The reference: itertools.product, each weight by math.prod in site order."""
    atoms = []
    for config in itertools.product(*(range(len(law)) for law in site_laws)):
        weight = math.prod((law[n] for law, n in zip(site_laws, config)), start=one)
        if weight > 0:
            atoms.append((config, weight))
    return tuple(atoms)


@pytest.mark.parametrize(
    "probs, one",
    [([0.1, 0.7, 1 / 3], 1.0), ([Fraction(1, 3), 0, Fraction(5, 7)], 1), ([Fraction(1, 3), 0.3], 1.0)],
    ids=["float", "exact", "mixed"],
)
def test_bernoulli_matches_the_per_atom_reference(probs, one):
    # Equal atoms, weights bit for bit and of the same types, in the same
    # order; a cap of 2 leaves the product space smaller than the domain's.
    dist = bernoulli_product(complete_domain(len(probs), cap=2), probs)
    expected = _product_reference([[one - q, q] for q in probs], one)
    assert repr(dist.atoms) == repr(expected)
    assert [type(w) for _, w in dist.atoms] == [type(w) for _, w in expected]


def test_truncated_poisson_matches_the_per_atom_reference():
    for lam, one in ((0.37, 1.0), (Fraction(3, 4), 1)):
        dist = truncated_poisson_product(complete_domain(3, cap=3), lam)
        raw = [lam**k / math.factorial(k) for k in range(4)]
        law = [w / sum(raw) for w in raw]
        assert repr(dist.atoms) == repr(_product_reference([law] * 3, one))


def _law_repr(dist) -> str:
    """The law's repr with its meta, weight types included."""
    return f"{dist!r} {dist.meta!r} {[type(w) for _, w in dist.atoms]}"


@pytest.mark.parametrize(
    "probs",
    [
        [1, 0, 1],
        [Fraction(1, 3), 0, 1, Fraction(1, 2)],
        [np.int64(1), Fraction(2, 7), np.int32(0)],
        np.array([1, 0, 1]),
    ],
    ids=["all-int", "mixed", "numpy-mixed", "numpy-integer"],
)
def test_exact_product_laws_match_the_per_atom_fraction_loop(probs):
    domain = complete_domain(len(probs), cap=2)
    expected = Distribution(domain, _product_reference([[1 - q, q] for q in probs], 1))
    assert _law_repr(bernoulli_product(domain, probs)) == _law_repr(expected)


def test_exact_product_law_factors_decide_each_weight_type():
    # A weight is a Fraction exactly where one of its factors is one: the
    # first site's empty state weighs Fraction(1), its occupied one 0.
    domain = complete_domain(2, cap=2)
    laws = [[Fraction(1), 0, 0], [0, 1, 0]], [[1, 0, 0], [Fraction(1, 2), 0, Fraction(1, 2)]]
    for site_laws in laws:
        expected = Distribution(domain, _product_reference(site_laws, 1))
        assert _law_repr(_product_law(domain, site_laws, True)) == _law_repr(expected)


@pytest.mark.parametrize("lam", [Fraction(3, 4), Fraction(10**6 + 1, 10**6 - 1)], ids=["small", "past-int64"])
def test_exact_poisson_matches_the_per_atom_fraction_loop(lam):
    # The second rate's numerators over one scale pass int64, and multiply
    # as Python ints.
    domain = complete_domain(4, cap=3)
    raw = [lam**k / math.factorial(k) for k in range(4)]
    expected = Distribution(domain, _product_reference([[w / sum(raw) for w in raw]] * 4, 1))
    assert _law_repr(truncated_poisson_product(domain, lam)) == _law_repr(expected)


def _gibbs_reference(domain, z):
    """The reference: z^n per atom in Fractions, divided by their sum."""
    configs = enumerate_configurations(domain)
    raw = [Fraction(_pyscalar(z)) ** n for n in configs.sum(axis=1).tolist()]
    partition = sum(raw)
    return Distribution(domain, tuple((c, w / partition) for c, w in zip(configs, raw)), {"partition_function": partition})


@pytest.mark.parametrize(
    "domain, z",
    [
        (torus_domain((3, 3), occupancy_cap=1, exclusion_diameter=1.5), Fraction(2, 3)),
        (complete_domain(3, cap=2), Fraction(7, 5)),
        (complete_domain(2, cap=3), 3),
        (single_site(2), np.int64(2)),
    ],
    ids=["hardcore-torus", "capped-complete", "int", "numpy-int"],
)
def test_exact_gibbs_matches_the_per_atom_fraction_loop(domain, z):
    assert _law_repr(hardcore_gibbs(domain, z)) == _law_repr(_gibbs_reference(domain, z))


def test_numpy_integer_probabilities_give_an_exact_law():
    # numpy integers are exact scalars, as Python ints are.
    dist = bernoulli_product(complete_domain(2), np.array([0, 1]))
    assert dist.atoms == (((0, 1), 1),) and type(dist.atoms[0][1]) is int
    assert dist.is_exact and correlations_of(dist).is_exact
    # z = 2 weighs the occupied site 2:1, Poisson(1) cut at 1 weighs 1:1.
    gibbs = hardcore_gibbs(single_site(1), np.int64(2))
    poisson = truncated_poisson_product(single_site(1), np.int64(1))
    assert gibbs.atoms == (((0,), Fraction(1, 3)), ((1,), Fraction(2, 3)))
    assert poisson.atoms == (((0,), Fraction(1, 2)), ((1,), Fraction(1, 2)))
    assert all(type(w) is Fraction for law in (gibbs, poisson) for _, w in law.atoms)


@pytest.mark.parametrize(
    "cap, m, name",
    [(4, 2.5, "m"), (Fraction(9, 2), 2, "cap"), (3, True, "m"), ("4", 2, "cap"), (4, np.str_("2"), "m")],
    ids=["fractional-m", "fractional-cap", "bool-m", "string-cap", "string-m"],
)
def test_two_atom_family_refuses_what_it_would_truncate_or_parse(cap, m, name):
    with pytest.raises(ValidationError) as caught:
        two_atom_family(cap, m)
    assert str(caught.value) == f"{name} must be an integer"


def test_two_atom_family_accepts_integral_values():
    corr, dist = two_atom_family(4, 2)
    for cap, m in ((4, 2.0), (Fraction(8, 2), np.int64(2)), (np.float64(4.0), Fraction(2))):
        got, law = two_atom_family(cap, m)
        assert (got.rho1, got.rho2) == (corr.rho1, corr.rho2)
        assert law.atoms == dist.atoms and law.domain.occupancy_cap == (4,)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: bernoulli_product(complete_domain(2), [0.5]), "need 2 probabilities, got 1"),
        (lambda: bernoulli_product(complete_domain(2), [0.5, 1.5]), "occupation probabilities must lie in [0, 1]"),
        (lambda: bernoulli_product(complete_domain(2, cap=0), [0.5, 0.5]),
         "every site needs capacity for at least one particle"),
        (lambda: hardcore_gibbs(complete_domain(2), 0), "activity must be positive"),
        (lambda: two_atom_family(3, 0), "m must be a positive integer"),
        (lambda: truncated_poisson_product(complete_domain(2), -1.0), "rate must be positive"),
    ],
    ids=["probability-count", "probability-range", "zero-cap", "activity", "two-atom-m", "rate"],
)
def test_refusals(build, message):
    with pytest.raises(ValidationError) as caught:
        build()
    assert type(caught.value) is ValidationError and str(caught.value) == message
