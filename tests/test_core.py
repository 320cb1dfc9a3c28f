"""Core algebra: admissibility, the observable kernel, polynomials, correlations."""

import itertools
import math
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realz import (
    CorrelationPair,
    DimensionError,
    Distribution,
    Domain,
    QuadraticPolynomial,
    RestrictedCubic,
    UnboundedSiteError,
    ValidationError,
    SolverOptions,
    check_realizability,
    check_realizability_stationary,
    correlations_of,
    eval_quadratic,
    is_admissible,
    mean_and_variance,
    minimal_third_moment,
    pairing,
    reduce_pair_correlation,
    run_battery,
    torus_domain,
    translation_group,
    verify_certificate,
)
from realz import core
from realz.core import TOLERANCE, _admissible, _is_exact_value, _observable, _occupancies, _pyscalar
from oracle import _labeled_pair_count, _labeled_triple_count, oracle_admissible
from support import complete_domain, random_distribution, random_domain, single_site


def quadratic(f0, f1, f2):
    return QuadraticPolynomial(f0=f0, f1=np.asarray(f1, dtype=float), f2=np.asarray(f2, dtype=float))


class TestDomain:
    def test_rejects_asymmetric_distance(self):
        with pytest.raises(ValidationError):
            Domain(distance=[[0.0, 1.0], [2.0, 0.0]], occupancy_cap=(1, 1))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValidationError):
            Domain(distance=[[1.0]], occupancy_cap=(1,))

    def test_rejects_unbounded_cap(self):
        with pytest.raises(UnboundedSiteError):
            Domain(distance=[[0.0]], occupancy_cap=(math.inf,))
        with pytest.raises(UnboundedSiteError):
            Domain(distance=[[0.0]], occupancy_cap=(None,))
        # A total-particle cap does not stand in for a site's own.
        with pytest.raises(UnboundedSiteError):
            Domain(distance=[[0.0]], occupancy_cap=(None,), total_cap=3)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"distance": np.array([[0, 10**400], [10**400, 0]], dtype=object)}, "distances must lie within the float range"),
            ({"distance": [[0, Fraction(10**400, 3)], [Fraction(10**400, 3), 0]]}, "distances must lie within the float range"),
            ({"distance": [[0, 1], [1, 0]], "exclusion_diameter": 10**400}, "exclusion_diameter must lie within the float range"),
        ],
        ids=["int-distance", "fraction-distance", "exclusion"],
    )
    def test_rejects_values_past_the_float_range(self, kwargs, message):
        # Exact and finite, but distances are compared as floats.
        with pytest.raises(ValidationError) as caught:
            Domain(occupancy_cap=1, **kwargs)
        assert type(caught.value) is ValidationError and str(caught.value) == message

    @pytest.mark.parametrize("cap", [None, math.inf])
    def test_rejects_unbounded_scalar_cap(self, cap):
        with pytest.raises(UnboundedSiteError):
            Domain(distance=[[0.0, 1.0], [1.0, 0.0]], occupancy_cap=cap)

    @pytest.mark.parametrize("cap", [True, 2.5])
    def test_rejects_malformed_scalar_cap(self, cap):
        with pytest.raises(ValidationError):
            Domain(distance=[[0.0, 1.0], [1.0, 0.0]], occupancy_cap=cap)

    @pytest.mark.parametrize(
        "field, value",
        [("total_cap", True), ("total_exact", False), ("exclusion_diameter", True)],
    )
    def test_rejects_boolean_totals_and_diameter(self, field, value):
        with pytest.raises(ValidationError):
            Domain(distance=[[0.0, 1.0], [1.0, 0.0]], occupancy_cap=1, **{field: value})

    def test_integral_float_cap_broadcasts(self):
        dom = Domain(distance=[[0.0, 1.0], [1.0, 0.0]], occupancy_cap=2.0)
        assert dom.occupancy_cap == (2, 2)

    @pytest.mark.parametrize(
        "cap",
        [Fraction(5, 2), Decimal("2.5"), "2", " 3 ", np.True_],
        ids=["fraction", "decimal", "string", "padded-string", "numpy-bool"],
    )
    def test_refuses_a_cap_it_would_truncate_or_parse(self, cap):
        # The rule of occupancies: refused, never truncated or parsed.
        for caps in (cap, (cap,)):
            with pytest.raises(ValidationError) as caught:
                Domain(distance=[[0.0]], occupancy_cap=caps)
            assert str(caught.value) == "occupancy cap for site 0 must be an integer"

    @pytest.mark.parametrize(
        "cap", [2.0, Fraction(4, 2), np.int64(2), np.float64(2.0), Decimal(2)],
        ids=["float", "fraction", "numpy-int", "numpy-float", "decimal"],
    )
    def test_accepts_an_integral_cap(self, cap):
        caps = Domain(distance=[[0.0]], occupancy_cap=(cap,)).occupancy_cap
        assert caps == (2,) and type(caps[0]) is int

    @pytest.mark.parametrize("value", ["1.5", " 2 ", b"1.5"], ids=["string", "padded-string", "bytes"])
    def test_refuses_a_string_exclusion_diameter(self, value):
        with pytest.raises(ValidationError) as caught:
            Domain(distance=[[0.0, 1.0], [1.0, 0.0]], occupancy_cap=1, exclusion_diameter=value)
        assert str(caught.value) == f"exclusion_diameter must be a number, got {value!r}"

    @pytest.mark.parametrize("value", [1j, complex(1.5, 0), np.complex128(1.5)], ids=["imaginary", "complex", "numpy"])
    def test_refuses_a_complex_exclusion_diameter(self, value):
        with pytest.raises(ValidationError) as caught:
            Domain(distance=[[0.0, 1.0], [1.0, 0.0]], occupancy_cap=1, exclusion_diameter=value)
        assert str(caught.value) == f"exclusion_diameter must be a number, got {value!r}"

    @pytest.mark.parametrize("value", [Fraction(3, 2), Decimal("1.5"), np.float64(1.5)], ids=["fraction", "decimal", "numpy"])
    def test_exclusion_diameter_is_any_real_number(self, value):
        dom = Domain(distance=[[0.0, 1.0], [1.0, 0.0]], occupancy_cap=1, exclusion_diameter=value)
        assert dom.exclusion_diameter == 1.5 and type(dom.exclusion_diameter) is float

    def test_rejects_non_sequence_labels(self):
        with pytest.raises(ValidationError):
            Domain(distance=[[0.0]], occupancy_cap=1, site_labels=5)

    def test_rejects_both_total_caps(self):
        with pytest.raises(ValidationError):
            Domain(distance=[[0.0]], occupancy_cap=(1,), total_cap=1, total_exact=1)

    @pytest.mark.parametrize("field", ["total_cap", "total_exact"])
    @pytest.mark.parametrize(
        "value", [2, 2.0, Fraction(4, 2), np.int64(2), np.float64(2.0), Decimal(2)],
        ids=["int", "float", "fraction", "numpy-int", "numpy-float", "decimal"],
    )
    def test_accepts_an_integral_total(self, field, value):
        # The caps' rule: an integral number of any type is read as an int.
        dom = Domain(distance=[[0.0, 1.0], [1.0, 0.0]], occupancy_cap=2, **{field: value})
        assert getattr(dom, field) == 2 and type(getattr(dom, field)) is int

    @pytest.mark.parametrize("field", ["total_cap", "total_exact"])
    @pytest.mark.parametrize(
        "value, message",
        [(2.5, "must be an integer"), (Fraction(5, 2), "must be an integer"), ("2", "must be an integer"),
         (np.True_, "must be an integer"), (-1, "must be a nonnegative integer"),
         (-2.0, "must be a nonnegative integer")],
        ids=["float", "fraction", "string", "numpy-bool", "negative", "negative-float"],
    )
    def test_refuses_a_total_it_would_truncate_or_parse(self, field, value, message):
        with pytest.raises(ValidationError) as caught:
            Domain(distance=[[0.0, 1.0], [1.0, 0.0]], occupancy_cap=2, **{field: value})
        assert str(caught.value) == f"{field} {message}"

    def test_cap_broadcast_and_labels(self):
        dom = complete_domain(3, cap=2)
        assert dom.occupancy_cap == (2, 2, 2)
        assert dom.site_labels == ("s0", "s1", "s2")
        assert dom.site_count == 3


class TestIsAdmissible:
    def test_exclusion_blocks_close_pair(self):
        dom = Domain(distance=[[0.0, 1.0], [1.0, 0.0]], occupancy_cap=(1, 1), exclusion_diameter=2.0)
        assert not is_admissible(dom, (1, 1))

    def test_single_particle_fine_under_exclusion(self):
        dom = Domain(distance=[[0.0, 1.0], [1.0, 0.0]], occupancy_cap=(1, 1), exclusion_diameter=2.0)
        assert is_admissible(dom, (1, 0))

    def test_cap_exceeded(self):
        assert not is_admissible(single_site(3), (4,))

    def test_exclusion_forbids_double_occupancy(self):
        dom = Domain(distance=[[0.0]], occupancy_cap=(3,), exclusion_diameter=0.5)
        assert is_admissible(dom, (1,))
        assert not is_admissible(dom, (2,))

    def test_exclusion_boundary_is_strict(self):
        # pairs exactly at distance D are allowed
        dom = Domain(distance=[[0.0, 1.0], [1.0, 0.0]], occupancy_cap=(1, 1), exclusion_diameter=1.0)
        assert is_admissible(dom, (1, 1))

    def test_total_caps(self):
        dom = complete_domain(3, cap=1, total_cap=1)
        assert is_admissible(dom, (1, 0, 0))
        assert not is_admissible(dom, (1, 1, 0))
        dom = complete_domain(3, cap=1, total_exact=2)
        assert is_admissible(dom, (1, 1, 0))
        assert not is_admissible(dom, (1, 0, 0))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            is_admissible(single_site(1), (0, 0))


def _pair_value(config, i, j):
    """The kernel on ``config`` with ``f2`` the unit matrix at ``(i, j)``."""
    f2 = np.zeros((len(config), len(config)), dtype=np.int64)
    f2[i, j] = f2[j, i] = 1
    poly = QuadraticPolynomial(0, np.zeros(len(config), dtype=np.int64), f2)
    values, _ = _observable(np.array([config]), poly)
    return values[0] // (1 if i == j else 2)


class TestFactorialPower2:
    """The pair term of the kernel is the second factorial power."""

    def test_single_site(self):
        assert _pair_value((2,), 0, 0) == 2

    def test_distinct_pair(self):
        assert [_pair_value((1, 1), i, j) for i in range(2) for j in range(2)] == [0, 1, 1, 0]

    def test_triple_occupancy(self):
        assert [_pair_value((3, 0), i, j) for i in range(2) for j in range(2)] == [6, 0, 0, 0]

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4))
    def test_diagonal_identity(self, config):
        for i, n in enumerate(config):
            assert _pair_value(tuple(config), i, i) == n * n - n

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3))
    def test_counts_labeled_pairs(self, config):
        for i in range(len(config)):
            for j in range(len(config)):
                assert _pair_value(tuple(config), i, j) == _labeled_pair_count(config, i, j)


def _brute_observable(config, f0, f1, f2, f3):
    """The observable summed over labelled particles, as the oracle counts them."""
    s = len(config)
    pairs = sum(f2[i][j] * _labeled_pair_count(config, i, j) for i in range(s) for j in range(s))
    return f0 + sum(f1[i] * config[i] for i in range(s)) + pairs + f3 * _labeled_triple_count(config)


def _kernel_value(values, scale, k):
    value = _pyscalar(values[k])
    return value if scale == 1 else Fraction(value, scale)


class TestObservableKernel:
    """The kernel against brute-force labelled counts, over whole spaces."""

    @staticmethod
    def coefficients(rng, s, kind):
        draw = {
            "int": lambda: int(rng.integers(-9, 10)),
            "fraction": lambda: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
            "float": lambda: float(rng.normal()),
        }[kind]
        dtype = float if kind == "float" else object
        f2 = np.empty((s, s), dtype=dtype)
        for i in range(s):
            for j in range(i, s):
                f2[i, j] = f2[j, i] = draw()
        return draw(), np.array([draw() for _ in range(s)], dtype=dtype), f2, draw()

    @pytest.mark.parametrize("kind", ["int", "fraction", "float"])
    def test_matches_labeled_counts(self, kind):
        rng = np.random.default_rng({"int": 1, "fraction": 2, "float": 3}[kind])
        for _ in range(25):
            dom = random_domain(rng, max_sites=3, max_cap=3, allow_exclusion=False)
            box = np.array(list(itertools.product(*(range(c + 1) for c in dom.occupancy_cap))))
            f0, f1, f2, f3 = self.coefficients(rng, dom.site_count, kind)
            poly = QuadraticPolynomial(f0, f1, f2)
            for cubic in (0, f3):
                values, scale = _observable(box, poly, cubic)
                assert len(values) == len(box)
                for k, config in enumerate(box.tolist()):
                    want = _brute_observable(config, f0, f1.tolist(), f2.tolist(), cubic)
                    got = _kernel_value(values, scale, k)
                    if kind == "float":
                        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
                    else:
                        assert got == want

    def test_falling_factorial_alone(self):
        box = np.array(list(itertools.product(range(4), repeat=3)))
        values, scale = _observable(box, None, 1)
        assert scale == 1 and values.dtype == np.int64
        assert values.tolist() == [_labeled_triple_count(c) for c in box.tolist()]

    def test_overflow_takes_python_ints(self):
        # N = 2**21 + 7: N(N-1)(N-2) is past int64; so are 2**62 times the counts.
        X = np.array([[0, 0], [1, 2], [3, 3], [2**21, 7]], dtype=np.int64)
        values, scale = _observable(X, None, 1)
        assert values.dtype == object and scale == 1
        assert values.tolist() == [_labeled_triple_count(c) for c in X.tolist()]
        f1 = np.array([Fraction(2**62, 3), 1], dtype=object)
        poly = QuadraticPolynomial(Fraction(1, 3), f1, np.zeros((2, 2), dtype=np.int64))
        values, scale = _observable(X, poly, 2**40)
        assert values.dtype == object and scale == 3
        for config, value in zip(X.tolist(), values.tolist()):
            want = Fraction(1, 3) + f1[0] * config[0] + config[1] + 2**40 * _labeled_triple_count(config)
            assert Fraction(value, scale) == want
        # Float coefficients take N in float64, which does not overflow.
        values, scale = _observable(X, None, 1.0)
        assert values.dtype == float and scale == 1
        assert values.tolist() == [float(_labeled_triple_count(c)) for c in X.tolist()]

    def test_no_rows(self):
        poly = QuadraticPolynomial(1, np.ones(2, dtype=np.int64), np.eye(2, dtype=np.int64))
        values, scale = _observable(np.zeros((0, 2), dtype=np.int64), poly, 1)
        assert values.shape == (0,) and scale == 1


class TestAdmissibilityMask:
    """The mask against the oracle's predicate on the whole cap box, one
    step past it on each side (negative, over cap, a second particle)."""

    @staticmethod
    def domains():
        rng = np.random.default_rng(29)
        out = [random_domain(rng, max_sites=4, max_cap=2) for _ in range(30)]
        out += [
            complete_domain(3, cap=2, total_cap=2),
            complete_domain(3, cap=2, total_exact=3),
            complete_domain(3, cap=1, total_exact=0),
            complete_domain(3, cap=2, spacing=1.0, exclusion_diameter=1.5, total_cap=2),
            Domain(distance=[[0.0, 1.0], [1.0, 0.0]], occupancy_cap=(2, 2), exclusion_diameter=0.5),
            Domain(distance=[[0.0, 1.0], [1.0, 0.0]], occupancy_cap=(2, 3), exclusion_diameter=1.0),
        ]
        return out

    def test_matches_oracle_on_the_box(self):
        checked = set()
        for dom in self.domains():
            box = list(itertools.product(*(range(-1, c + 2) for c in dom.occupancy_cap)))
            got = _admissible(dom, np.array(box, dtype=np.int64))
            want = [oracle_admissible(dom, config) for config in box]
            assert got.dtype == bool and got.tolist() == want
            assert [is_admissible(dom, config) for config in box] == want
            checked.update(want)
        assert checked == {True, False}

    def test_entries_past_int64(self):
        dom = single_site(3)
        X = np.array([[2**70], [1]], dtype=object)
        assert _admissible(dom, X).tolist() == [False, True]
        assert not is_admissible(dom, (2**70,))
        assert is_admissible(single_site(2**70), (2**70,))
        huge = complete_domain(2, cap=2**62, total_cap=1)
        assert not is_admissible(huge, (2**62, 2**62))  # the total would wrap in int64
        assert is_admissible(huge, (1, 0))

    @pytest.mark.parametrize("cap", [2**63 + 1, 2**64 - 1])
    def test_caps_past_int64_are_compared_as_integers(self, cap):
        # Caps within int64 beside one past it, each compared exactly,
        # never as the float64 that rounds 2**63 + 1 and 2**64 - 1.
        dom = _three_sites((1, cap, 1))
        assert is_admissible(dom, (0, cap, 0)) and not is_admissible(dom, (0, cap + 1, 0))
        assert Distribution(dom, (((0, cap, 0), 1),)).atoms == (((0, cap, 0), 1),)


class TestEvalQuadratic:
    def test_constant(self):
        poly = quadratic(1.0, [0.0], [[0.0]])
        assert eval_quadratic(poly, (7,)) == 1.0

    def test_linear(self):
        poly = quadratic(0.0, [1.0, 1.0], [[0.0, 0.0], [0.0, 0.0]])
        assert eval_quadratic(poly, (2, 3)) == 5.0

    def test_quadratic_all_ones(self):
        # hand expansion over distinct labeled particles of (2, 1)
        poly = quadratic(0.0, [0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
        assert eval_quadratic(poly, (2, 1)) == 6.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            eval_quadratic(quadratic(0.0, [1.0], [[0.0]]), (1, 2))

    def test_entries_past_int64(self):
        # <f1, n> + n0 n1 + n1 n0 and the cubic N(N-1)(N-2) at n = (2**70, 3).
        n, N = 2**70, 2**70 + 3
        exact = QuadraticPolynomial(f0=0, f1=[1, 0], f2=[[0, 1], [1, 0]])
        assert eval_quadratic(exact, (n, 3)) == 7 * n
        assert RestrictedCubic(exact, 2).evaluate((n, 3)) == 7 * n + 2 * N * (N - 1) * (N - 2)
        floating = quadratic(0.0, [1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]])
        assert eval_quadratic(floating, (n, 3)) == float(7 * n)
        assert RestrictedCubic(floating, 1.0).evaluate((n, 3)) == pytest.approx(float(7 * n + N * (N - 1) * (N - 2)))

    def test_asymmetric_f2_rejected(self):
        with pytest.raises(ValidationError):
            quadratic(0.0, [0.0, 0.0], [[0.0, 1.0], [0.0, 0.0]])


class TestHMoment:
    """Falling-factorial moments of the total particle number as kernel
    observables: ``N`` is ``<1, n>``, ``N(N-1)`` is ``<1, fp2(n)>``, and
    ``N(N-1)(N-2)`` is the ``f3`` term; weights ``chi`` enter the first two
    as ``f1 = chi`` and ``f2 = chi chi^T``."""

    @staticmethod
    def moment(config, chi, order):
        s = len(config)
        chi = np.array(chi, dtype=object)
        zero1, zero2 = np.zeros(s, dtype=object), np.zeros((s, s), dtype=object)
        poly = {
            1: QuadraticPolynomial(0, chi, zero2),
            2: QuadraticPolynomial(0, zero1, np.outer(chi, chi)),
            3: None,
        }[order]
        values, scale = _observable(np.array([config]), poly, 1 if order == 3 else 0)
        return Fraction(int(values[0]), scale)

    def test_single_site_falling_factorial(self):
        assert self.moment((4,), [1], 3) == 24

    def test_three_singletons(self):
        assert self.moment((1, 1, 1), [1, 1, 1], 3) == 6

    def test_weighted_pairs(self):
        assert self.moment((3,), [2], 2) == 24

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
        st.integers(min_value=1, max_value=3),
    )
    @settings(deadline=None)
    def test_matches_labeled_brute_force(self, config, order):
        # The third moment has unit weights only.
        chi = [Fraction(k + 1, 2) if order < 3 else 1 for k in range(len(config))]
        labels = [site for site, n in enumerate(config) for _ in range(n)]
        brute = sum(
            math.prod(chi[labels[k]] for k in pick)
            for pick in itertools.permutations(range(len(labels)), order)
        )
        assert self.moment(tuple(config), chi, order) == brute


class TestDistribution:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            Distribution(single_site(1), (((0,), 0.5),))

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            Distribution(single_site(1), (((0,), 0.5), ((0,), 0.5)))

    @pytest.mark.parametrize("weight", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_weight(self, weight):
        # NaN is neither below 0 nor more than the tolerance away from 1.
        for atoms in ((((0,), weight),), (((0,), 1.0), ((1,), weight))):
            with pytest.raises(ValidationError, match=f"weights sum to {weight}, not 1"):
                Distribution(single_site(1), atoms)

    def test_rejects_inadmissible_atom(self):
        with pytest.raises(ValidationError, match=r"configuration \(2,\) is not admissible"):
            Distribution(single_site(1), (((0,), 0.5), ((2,), 0.5)))

    def test_rejects_wrong_length_atom(self):
        with pytest.raises(DimensionError):
            Distribution(complete_domain(2), (((0, 0), 0.5), ((1,), 0.5)))

    def test_entries_past_int64(self):
        # Refused as over the cap, not by an OverflowError; kept when within it.
        with pytest.raises(ValidationError, match="is not admissible"):
            Distribution(single_site(3), (((1,), 0.5), ((2**70,), 0.5)))
        dist = Distribution(single_site(2**70), (((1,), 0.5), ((2**70,), 0.5)))
        assert dist.weight_of((2**70,)) == 0.5

    def test_rejects_nan_weight_among_admissible_atoms(self):
        dom = complete_domain(3, cap=1, exclusion_diameter=1.5)
        atoms = (((0, 0, 0), 0.5), ((1, 0, 0), math.nan), ((0, 0, 1), 0.5))
        with pytest.raises(ValidationError, match="weights sum to nan"):
            Distribution(dom, atoms)

    def test_renormalize_is_explicit(self):
        dist = Distribution(single_site(1), (((0,), 0.5), ((1,), 0.5)))
        doubled = Distribution.__new__(Distribution)
        object.__setattr__(doubled, "domain", dist.domain)
        object.__setattr__(doubled, "atoms", (((0,), 1.0), ((1,), 1.0)))
        object.__setattr__(doubled, "meta", {})
        renorm = doubled.renormalized()
        assert renorm.weight_of((0,)) == pytest.approx(0.5)

    def test_occupancy_is_the_atoms_as_one_read_only_array(self):
        dist = Distribution(complete_domain(2), (((1, 0), 0.5), (np.array([0, 1], dtype=np.uint8), 0.5)))
        assert dist.occupancy.dtype == np.int64 and dist.occupancy.tolist() == [[1, 0], [0, 1]]
        assert not dist.occupancy.flags.writeable
        big = Distribution(single_site(2**70), (((1,), 0.5), ((2**70,), 0.5)))
        assert big.occupancy.dtype == object and big.occupancy.tolist() == [[1], [2**70]]
        wide = Distribution(single_site(2**64), ((np.array([2**64 - 1], dtype=np.uint64), 1.0),))
        assert wide.atoms == (((2**64 - 1,), 1.0),) and wide.occupancy.dtype == object

    def test_integral_entries_of_any_numeric_type(self):
        dom = complete_domain(2)
        dist = Distribution(dom, (((1.0, np.int16(0)), 0.5), ((np.float32(0), np.uint8(1)), 0.5)))
        assert dist.atoms == (((1, 0), 0.5), ((0, 1), 0.5))
        assert all(type(n) is int for config, _ in dist.atoms for n in config)
        assert is_admissible(dom, (np.int8(1), 1.0)) and not is_admissible(dom, (np.uint64(2), 0.0))

    @pytest.mark.parametrize(
        "config",
        [(True,), (np.True_,), np.array([True]), (False, 1), (np.False_, 1), (1, True), [0, True]],
        ids=["bool", "numpy-bool", "bool-array", "bool-then-int", "numpy-bool-then-int", "int-then-bool", "list"],
    )
    def test_bool_entries_are_refused(self, config):
        # An integer parameter's rule: a bool is no occupancy, alone or among ints.
        s = len(config)
        dom = single_site(1) if s == 1 else complete_domain(2)
        entries = tuple(config.tolist() if isinstance(config, np.ndarray) else config)
        message = f"configuration {entries} has an entry that is not an integer"
        for build in (
            lambda: Distribution(dom, ((config, 1.0),)),
            lambda: is_admissible(dom, config),
            lambda: eval_quadratic(QuadraticPolynomial(f0=0, f1=[1] * s, f2=np.zeros((s, s))), config),
        ):
            with pytest.raises(ValidationError) as caught:
                build()
            assert str(caught.value) == message

    def test_weight_of_a_non_integral_configuration_is_zero(self):
        dist = Distribution(complete_domain(2), (((1, 0), 0.5), ((0, 1), 0.5)))
        assert dist.weight_of((1.7, 0)) == 0 and dist.weight_of(("1", 0)) == 0
        assert dist.weight_of((1.0, np.int64(0))) == 0.5 and dist.weight_of(np.array([0, 1])) == 0.5


class TestCorrelationsOf:
    def test_empty_delta(self):
        dist = Distribution(complete_domain(2), (((0, 0), 1.0),))
        corr = correlations_of(dist)
        assert corr.rho1.tolist() == [0.0, 0.0]
        assert corr.rho2.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_full_lattice_pair(self):
        dist = Distribution(complete_domain(2), (((1, 1), 1.0),))
        corr = correlations_of(dist)
        assert corr.rho1.tolist() == [1.0, 1.0]
        assert corr.rho2.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_two_atom_mixture(self):
        dist = Distribution(
            single_site(4), (((0,), Fraction(11, 12)), ((4,), Fraction(1, 12)))
        )
        corr = correlations_of(dist)
        assert corr.rho1[0] == Fraction(1, 3)
        assert corr.rho2[0, 0] == Fraction(1)

    def test_lattice_gas_diagonal_vanishes(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            dom = random_domain(rng, max_sites=4, max_cap=1)
            corr = correlations_of(random_distribution(rng, dom))
            assert all(abs(corr.rho2[i, i]) < 1e-12 for i in range(dom.site_count))

    @staticmethod
    def per_atom(dist):
        """The reference: one update per atom."""
        s = dist.domain.site_count
        dtype = object if dist.is_exact else float
        rho1, rho2 = np.zeros(s, dtype=dtype), np.zeros((s, s), dtype=dtype)
        for config, weight in dist.atoms:
            n = np.asarray(config, dtype=np.int64)
            # the second factorial power: n_i n_j, and n_i (n_i - 1) on the diagonal
            rho1, rho2 = rho1 + weight * n, rho2 + weight * (np.outer(n, n) - np.diag(n))
        return rho1, rho2

    def test_entries_past_int64(self):
        # Exact weights give exact tables; float weights, float tables.
        dom = single_site(2**70)
        half = Fraction(1, 2)
        exact = correlations_of(Distribution(dom, (((1,), half), ((2**70,), half))))
        assert exact.rho1.tolist() == [(1 + 2**70) * half]
        assert exact.rho2.tolist() == [[2**70 * (2**70 - 1) * half]]
        assert [type(v) for v in (*exact.rho1, *exact.rho2.flat)] == [Fraction, Fraction]
        whole = correlations_of(Distribution(dom, (((2**70,), 1),)))
        assert whole.rho1.tolist() == [2**70] and type(whole.rho1[0]) is int
        floats = correlations_of(Distribution(dom, (((1,), 0.5), ((2**70,), 0.5))))
        assert floats.rho1.dtype == floats.rho2.dtype == float
        assert floats.rho1[0] == pytest.approx(float(exact.rho1[0]), rel=1e-15)
        assert floats.rho2[0, 0] == pytest.approx(float(exact.rho2[0, 0]), rel=1e-15)

    def test_stacked_product_matches_per_atom_loop(self):
        rng = np.random.default_rng(41)
        cases = []
        for _ in range(30):
            dom = random_domain(rng, max_sites=4, max_cap=3)
            cases += [random_distribution(rng, dom), random_distribution(rng, dom, exact=True)]
        dom = complete_domain(3, cap=2)
        tiny = Fraction(1, 3**40)  # its denominator alone overflows int64
        cases += [
            Distribution(dom, (((2, 1, 0), 1),)),
            Distribution(dom, (((2, 1, 0), Fraction(1)),)),
            Distribution(dom, (((2, 1, 0), 1.0),)),
            Distribution(dom, (((0, 0, 0), 0), ((1, 2, 2), 1))),
            Distribution(dom, (((1, 0, 0), tiny), ((0, 1, 2), 1 - tiny))),
        ]
        # Numerators that bound the sums just below and at 2**53: float64
        # and then int64 products, exact either way.
        for near in (2**49 + 1, 2**50 + 1):
            cases.append(Distribution(dom, (((2, 1, 0), Fraction(1, near)), ((0, 2, 2), 1 - Fraction(1, near)))))
        for dist in cases:
            got = correlations_of(dist)
            rho1, rho2 = self.per_atom(dist)
            if dist.is_exact:
                # Equal values, and equal value types: ints or Fractions.
                for a, b in ((got.rho1, rho1), (got.rho2, rho2)):
                    assert a.dtype == object and a.tolist() == b.tolist()
                    assert [type(v) for v in a.flat] == [type(v) for v in b.flat]
            else:
                # Summed in another order: equal to float64 round-off.
                assert got.rho1.dtype == got.rho2.dtype == float
                assert np.allclose(got.rho1, rho1, rtol=0, atol=1e-12)
                assert np.allclose(got.rho2, rho2, rtol=0, atol=1e-12)


class TestPairing:
    def test_constant(self):
        corr = CorrelationPair(rho1=np.array([0.3]), rho2=np.array([[0.4]]))
        assert pairing(quadratic(1.0, [0.0], [[0.0]]), corr) == 1.0

    def test_diagonal_term(self):
        corr = CorrelationPair(rho1=np.array([0.0]), rho2=np.array([[1.0]]))
        assert pairing(quadratic(0.0, [0.0], [[1.0]]), corr) == 1.0

    def test_affine(self):
        corr = CorrelationPair(rho1=np.array([0.4]), rho2=np.array([[0.0]]))
        assert pairing(quadratic(-1.0, [1.0], [[0.0]]), corr) == pytest.approx(-0.6)

    def test_linear_in_polynomial(self):
        rng = np.random.default_rng(3)
        corr = CorrelationPair(rho1=rng.random(2), rho2=_sym(rng, 2))
        poly_a = _random_poly(rng, 2)
        poly_b = _random_poly(rng, 2)
        summed = QuadraticPolynomial(
            f0=poly_a.f0 + poly_b.f0, f1=poly_a.f1 + poly_b.f1, f2=poly_a.f2 + poly_b.f2
        )
        assert pairing(summed, corr) == pytest.approx(
            pairing(poly_a, corr) + pairing(poly_b, corr)
        )
        scaled = QuadraticPolynomial(f0=3 * poly_a.f0, f1=3 * poly_a.f1, f2=3 * poly_a.f2)
        assert pairing(scaled, corr) == pytest.approx(3 * pairing(poly_a, corr))

    def test_linear_in_correlations(self):
        # moment terms combine linearly; the constant term enters once
        rng = np.random.default_rng(4)
        corr_a = CorrelationPair(rho1=rng.random(2), rho2=_sym(rng, 2))
        corr_b = CorrelationPair(rho1=rng.random(2), rho2=_sym(rng, 2))
        poly = _random_poly(rng, 2)
        mixed = CorrelationPair(
            rho1=corr_a.rho1 + 2.0 * corr_b.rho1, rho2=corr_a.rho2 + 2.0 * corr_b.rho2
        )
        lhs = pairing(poly, mixed) - poly.f0
        rhs = (pairing(poly, corr_a) - poly.f0) + 2.0 * (pairing(poly, corr_b) - poly.f0)
        assert lhs == pytest.approx(rhs)

    def test_consistency_with_expectation(self):
        # pairing against correlations_of(mu) equals the mu-average of the value
        rng = np.random.default_rng(11)
        for _ in range(50):
            dom = random_domain(rng)
            dist = random_distribution(rng, dom)
            poly = _random_poly(rng, dom.site_count)
            corr = correlations_of(dist)
            via_pairing = pairing(poly, corr)
            via_expectation = sum(w * eval_quadratic(poly, c) for c, w in dist.atoms)
            scale = 1.0 + abs(via_pairing) + abs(via_expectation)
            assert abs(via_pairing - via_expectation) <= 1e-9 * scale


def _exact_tables() -> dict:
    """Exact two-site tables of every kind an integer form is read from: the
    public constructor's, and correlations_of's over its law's scale."""
    third, quarter = Fraction(1, 3), Fraction(1, 4)
    big = 2**70
    law = Distribution(complete_domain(2, cap=2), (((0, 0), quarter), ((2, 0), quarter), ((0, 2), 2 * quarter)))
    tiny = Fraction(1, 3**40)  # its denominator alone is past int64
    wide = Distribution(complete_domain(2, cap=2), (((1, 0), tiny), ((1, 2), 1 - tiny)))
    tables = {
        "ints": ([1, 2], [[0, 3], [3, 4]]),
        "fractions": ([third, Fraction(1, 6)], [[0, quarter], [quarter, Fraction(5, 12)]]),
        "mixed": ([1, Fraction(1, 2)], [[2, 3 * quarter], [3 * quarter, 0]]),
        "numpy-ints": ([np.int64(3), third], [[np.int64(2), 1], [1, np.uint8(7)]]),
        "past-int64": ([big, third], [[big * big, -(2**65)], [-(2**65), 1]]),
    }
    pairs = {name: CorrelationPair(rho1=np.array(rho1, dtype=object), rho2=np.array(rho2, dtype=object))
             for name, (rho1, rho2) in tables.items()}
    pairs["int64"] = CorrelationPair(rho1=np.array([3, 5]), rho2=np.array([[2, 2**40], [2**40, 6]]))
    pairs["law"] = correlations_of(law)
    pairs["law-ints"] = correlations_of(Distribution(complete_domain(2, cap=2), (((1, 2), 1),)))
    pairs["law-past-int64"] = correlations_of(wide)
    return pairs


def _exact_polynomials() -> list:
    """Exact two-site polynomials: ints, Fractions, int64 arrays, numpy ints
    among Python ones, and coefficients past int64."""
    return [
        QuadraticPolynomial(f0=1, f1=[2, -3], f2=[[1, 5], [5, 0]]),
        QuadraticPolynomial(f0=Fraction(1, 2), f1=np.array([Fraction(1, 3), 1], dtype=object),
                            f2=np.array([[0, Fraction(-1, 5)], [Fraction(-1, 5), 2]], dtype=object)),
        QuadraticPolynomial(f0=np.int64(2), f1=np.array([2**40, -1]), f2=np.array([[2**31, 0], [0, -7]])),
        QuadraticPolynomial(f0=0, f1=np.array([2**90, Fraction(1, 7)], dtype=object),
                            f2=np.array([[1, np.int64(2**40)], [np.int64(2**40), 0]], dtype=object)),
    ]


def _fraction(value) -> Fraction:
    """``value`` as a ``Fraction`` of Python ints: numpy integers would
    keep a fixed-width numerator."""
    return Fraction(int(value) if isinstance(value, np.integer) else value)


class TestIntegerForm:
    @pytest.mark.parametrize("name", list(_exact_tables()))
    def test_table_entries_are_numerators_over_the_scale(self, name):
        corr = _exact_tables()[name]
        scale, numerators, fractions = corr._integers
        values = [1, *corr.rho1.tolist(), *corr.rho2.ravel().tolist()]
        assert corr.is_exact and {type(n) for n in numerators} == {int}
        assert [Fraction(n, scale) for n in numerators] == values
        assert fractions == any(isinstance(v, Fraction) for v in values)

    def test_correlations_of_hands_over_its_laws_scale(self):
        # The law's weights are over 4; the tables reduce to halves.
        corr = _exact_tables()["law"]
        assert corr._integers[0] == 4
        assert corr.rho1.tolist() == [Fraction(1, 2), 1] and corr.rho2.tolist() == [[Fraction(1, 2), 0], [0, 1]]
        assert CorrelationPair(rho1=corr.rho1, rho2=corr.rho2)._integers[0] == 2

    def test_polynomial_coefficients_are_numerators_over_the_scale(self):
        for poly in _exact_polynomials():
            scale, numerators, fractions = poly._integers
            coefficients = poly.coefficients()
            assert {type(n) for n in numerators} == {int}
            assert [Fraction(n, scale) for n in numerators] == coefficients
            assert fractions == any(isinstance(v, Fraction) for v in coefficients)
            # The least scale: eval_quadratic gives an int exactly when it is 1.
            assert math.gcd(scale, *numerators) == 1

    @pytest.mark.parametrize("name", list(_exact_tables()))
    def test_pairing_equals_the_sum_of_fraction_products(self, name):
        # The pairing is exact, and a Fraction exactly when a coefficient or
        # an entry is one, else an int, as the object-array sum gave.
        corr = _exact_tables()[name]
        values = [1, *corr.rho1.tolist(), *corr.rho2.ravel().tolist()]
        for poly in _exact_polynomials():
            coefficients = poly.coefficients()
            want = sum(_fraction(c) * _fraction(v) for c, v in zip(coefficients, values))
            got = pairing(poly, corr)
            assert got == want
            assert type(got) is (Fraction if any(isinstance(v, Fraction) for v in coefficients + values) else int)

    @pytest.mark.parametrize(
        "rho1, rho2",
        [
            (np.array([0.5, 0.25]), np.array([[0.0, 0.125], [0.125, 0.0]])),
            (np.array([0.5, Fraction(1, 4)], dtype=object), np.array([[0, Fraction(1, 8)], [Fraction(1, 8), 0]], dtype=object)),
            (np.array([Decimal("0.5"), 1], dtype=object), np.array([[0, 1], [1, 0]], dtype=object)),
        ],
        ids=["float64", "float-among-fractions", "decimal"],
    )
    def test_float_tables_and_coefficients_have_no_integer_form(self, rho1, rho2):
        corr = CorrelationPair(rho1=rho1, rho2=rho2)
        poly = QuadraticPolynomial(f0=1, f1=rho1, f2=rho2)
        assert corr._integers is None and not corr.is_exact and poly._integers is None
        assert isinstance(pairing(poly, corr), float)


def _sym(rng, s):
    m = rng.random((s, s))
    return (m + m.T) / 2


def _random_poly(rng, s):
    return QuadraticPolynomial(f0=float(rng.normal()), f1=rng.normal(size=s), f2=_sym(rng, s))


def _two_sites(**kwargs):
    return Domain(**{"distance": [[0.0, 1.0], [1.0, 0.0]], "occupancy_cap": (1, 1), **kwargs})


def _three_sites(caps):
    return Domain(distance=np.ones((3, 3)) - np.eye(3), occupancy_cap=caps)


_LINEAR = QuadraticPolynomial(f0=0, f1=[1, 0], f2=[[0, 0], [0, 0]])


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: CorrelationPair(rho1=[[0.5]], rho2=[[0.0]]), DimensionError,
         "rho1 must be one-dimensional, got shape (1, 1)"),
        (lambda: Domain(distance=[0.0, 1.0], occupancy_cap=1), DimensionError,
         "distance must be a square matrix, got shape (2,)"),
        (lambda: _two_sites(distance=[[0.0, -1.0], [-1.0, 0.0]]), ValidationError,
         "distances must be finite and nonnegative"),
        (lambda: _two_sites(distance=[[0.0, math.inf], [math.inf, 0.0]]), ValidationError,
         "distances must be finite and nonnegative"),
        (lambda: _two_sites(occupancy_cap=(1,)), DimensionError, "occupancy_cap has 1 entries for 2 sites"),
        (lambda: _two_sites(site_labels=("a",)), DimensionError, "site_labels has 1 entries for 2 sites"),
        (lambda: _two_sites(exclusion_diameter=-1.0), ValidationError,
         "exclusion_diameter must be finite and nonnegative"),
        (lambda: _two_sites(exclusion_diameter=math.nan), ValidationError,
         "exclusion_diameter must be finite and nonnegative"),
        (lambda: _two_sites(occupancy_cap=("x", 1)), ValidationError, "occupancy cap for site 0 must be an integer"),
        (lambda: _two_sites(occupancy_cap=(1, -1)), ValidationError, "occupancy cap for site 1 must be nonnegative"),
        (lambda: QuadraticPolynomial(f0=0, f1=[0, 0], f2=[[0]]), DimensionError,
         "f1 and f2 disagree on the number of sites"),
        (lambda: CorrelationPair(rho1=[0.5, 0.5], rho2=[[0.0]]), DimensionError,
         "rho1 and rho2 disagree on the number of sites"),
        (lambda: CorrelationPair(rho1=[0.5, 0.5], rho2=[[0.0, 0.2], [0.1, 0.0]]), ValidationError,
         "rho2 must be symmetric"),
        (lambda: Distribution(single_site(1), (((0,), -0.5), ((1,), 1.5))), ValidationError,
         "negative weight -0.5 on (0,)"),
        (lambda: Distribution(single_site(1), (((0,), 0.5), ((0,), -0.5))), ValidationError,
         "negative weight -0.5 on (0,)"),
        (lambda: Distribution(_two_sites(), (((0, 0), -0.5), ((1,), 1.5))), ValidationError,
         "negative weight -0.5 on (0, 0)"),
        (lambda: Distribution(_two_sites(), (((0, 0), 0.5), ((1,), -0.5))), DimensionError,
         "configuration has 1 entries for 2 sites"),
        (lambda: Distribution(_two_sites(), (((0, 0), 0.5), ((0, 0, 1), 0.5), ((2, 0), 0.5))), DimensionError,
         "configuration has 3 entries for 2 sites"),
        (lambda: Distribution(_two_sites(), (((0, 0), 0.5), ((0, 0), 0.5), ((2, 0), 0.5))), ValidationError,
         "duplicate configuration (0, 0)"),
        (lambda: Distribution(_two_sites(), (((0, 0), 0.5), ((2, 0), 0.5), ((0, 3), 0.5))), ValidationError,
         "configuration (2, 0) is not admissible"),
        (lambda: Distribution(_two_sites(), (((0.9, 0), 0.5), ((0, 1), 0.5))), ValidationError,
         "configuration (0.9, 0) has an entry that is not an integer"),
        (lambda: Distribution(_two_sites(), ((np.array([0, 1.5]), 0.5), ((0, 1), 0.5))), ValidationError,
         "configuration (0.0, 1.5) has an entry that is not an integer"),
        (lambda: Distribution(_two_sites(), (((0, 1), 0.5), ((math.nan, 0), 0.5))), ValidationError,
         "configuration (nan, 0) has an entry that is not an integer"),
        (lambda: is_admissible(_two_sites(), (1.7, 0)), ValidationError,
         "configuration (1.7, 0) has an entry that is not an integer"),
        (lambda: is_admissible(_two_sites(), ("1", 0)), ValidationError,
         "configuration ('1', 0) has an entry that is not an integer"),
        (lambda: Distribution(_three_sites((1, 2**64 - 1, 1)), (((0, 2**64, 0), 1),)), ValidationError,
         f"configuration (0, {2**64}, 0) is not admissible"),
        (lambda: eval_quadratic(_LINEAR, (1.7, 0)), ValidationError,
         "configuration (1.7, 0) has an entry that is not an integer"),
        (lambda: eval_quadratic(_LINEAR, ("1", 0)), ValidationError,
         "configuration ('1', 0) has an entry that is not an integer"),
        (lambda: RestrictedCubic(_LINEAR, 1).evaluate((0, 0.5)), ValidationError,
         "configuration (0, 0.5) has an entry that is not an integer"),
    ],
    ids=[
        "vector-shape", "square-shape", "negative-distance", "infinite-distance", "cap-count", "label-count",
        "negative-exclusion", "nan-exclusion", "cap-not-integer", "negative-cap", "polynomial-sizes",
        "correlation-sizes", "asymmetric-rho2", "negative-weight", "negative-duplicate", "negative-then-short",
        "short-then-negative", "long-then-inadmissible", "duplicate-then-inadmissible", "first-inadmissible",
        "fractional-entry", "fractional-row",
        "nan-entry", "admissible-fractional", "admissible-string", "cap-past-int64",
        "quadratic-fractional", "quadratic-string", "cubic-fractional",
    ],
)
def test_refusals(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message


#: Entries that are no real numbers: a bool (numpy's too), a string, a
#: complex number (numpy's too) and None.
NOT_REALS = [True, np.True_, "0.5", 0.5 + 0j, np.complex128(0.5), None]

_TORUS2 = torus_domain((2,))
_TABLE = CorrelationPair(rho1=[0.25, 0.25], rho2=[[0, 0.0625], [0.0625, 0]])


def _table_with(v, where="rho1") -> CorrelationPair:
    """``_TABLE`` with ``v`` in ``rho1`` (both entries: a stationary table)
    or off the diagonal of ``rho2``, among real entries."""
    if where == "rho1":
        return CorrelationPair(rho1=[v, v], rho2=[[0, 0.0625], [0.0625, 0]])
    return CorrelationPair(rho1=[0.25, 0.25], rho2=[[0, v], [v, 0]])


def _poly_with(v, where) -> QuadraticPolynomial:
    f0, f1, f2 = 0.0, [0.0, 1.0], [[0.0, 0.5], [0.5, 0.0]]
    if where == "f0":
        f0 = v
    elif where == "f1":
        f1 = [v, 1.0]
    else:
        f2 = [[0.0, v], [v, 0.0]]
    return QuadraticPolynomial(f0=f0, f1=f1, f2=f2)


#: Every place a table, a coefficient, a weight or a test function enters.
REAL_ENTRY_POINTS = {
    "CorrelationPair-rho1": lambda v: _table_with(v),
    "CorrelationPair-rho2": lambda v: _table_with(v, "rho2"),
    "check_realizability": lambda v: check_realizability(_TORUS2, _table_with(v)),
    "minimal_third_moment": lambda v: minimal_third_moment(_TORUS2, _table_with(v, "rho2")),
    "check_realizability_stationary": lambda v: check_realizability_stationary(
        _TORUS2, _table_with(v), translation_group((2,))
    ),
    "reduce_pair_correlation": lambda v: reduce_pair_correlation(_table_with(v), (2,)),
    "QuadraticPolynomial-f0": lambda v: _poly_with(v, "f0"),
    "QuadraticPolynomial-f1": lambda v: _poly_with(v, "f1"),
    "QuadraticPolynomial-f2": lambda v: _poly_with(v, "f2"),
    "verify_certificate": lambda v: verify_certificate(_TORUS2, _poly_with(v, "f0"), _TABLE),
    "pairing": lambda v: pairing(_poly_with(v, "f1"), _TABLE),
    "eval_quadratic": lambda v: eval_quadratic(_poly_with(v, "f2"), (1, 1)),
    "Distribution": lambda v: Distribution(_TORUS2, (((0, 0), 0.5), ((1, 0), v))),
    "run_battery": lambda v: run_battery(_TORUS2, _TABLE, ("custom", [("f", [1.0, v])])),
    "mean_and_variance": lambda v: mean_and_variance(_TABLE, [v, 1.0]),
}


@pytest.mark.parametrize("entry", NOT_REALS, ids=repr)
@pytest.mark.parametrize("call", REAL_ENTRY_POINTS.values(), ids=REAL_ENTRY_POINTS.keys())
def test_entries_that_are_not_real_numbers_are_refused(call, entry):
    # Refused where the object or function is built: never read as 0 or
    # 1, parsed, or stripped of an imaginary part.
    with pytest.raises(ValidationError, match="must be real numbers"):
        call(entry)


@pytest.mark.parametrize(
    "entry", [0.25, np.float32(0.25), np.int8(0), Fraction(1, 4), Decimal("0.25"), 10**30, math.nan, -math.inf],
    ids=repr,
)
def test_real_entries_of_every_kind_are_accepted(entry):
    # NaN and the infinities construct: every consumer refuses them.  A
    # NaN pair entry is no symmetric table.
    symmetric = entry == entry
    _table_with(entry), symmetric and _table_with(entry, "rho2")
    for where in ("f0", "f1", "f2")[: 2 + symmetric]:
        _poly_with(entry, where)
    core._number(entry, "value")


def _decimal_or_float(number) -> tuple:
    """``(table, certificate, test function)`` with every entry built by
    ``number`` (``Decimal`` or ``float``) from the same float: the
    infeasible two-site table rho1 = (0.25, 0.25), rho2_01 = 0.5, the float
    check's certificate of it, and f = (0.25, 1)."""
    cert = check_realizability(_TORUS2, CorrelationPair(rho1=[0.25] * 2, rho2=[[0, 0.5], [0.5, 0]])).certificate
    table = CorrelationPair(rho1=[number(0.25)] * 2, rho2=[[0, number(0.5)], [number(0.5), 0]])
    poly = QuadraticPolynomial(
        f0=number(cert.f0), f1=[*map(number, cert.f1.tolist())], f2=[[*map(number, row)] for row in cert.f2.tolist()]
    )
    return table, poly, [number(0.25), number(1.0)]


#: Float-mode calls on a table, a certificate and a test function.
FLOAT_READS = {
    "check_realizability": lambda table, poly, f: check_realizability(_TORUS2, table),
    "minimal_third_moment": lambda table, poly, f: minimal_third_moment(_TORUS2, table),
    "mean_and_variance": lambda table, poly, f: mean_and_variance(table, f),
    "verify_certificate": lambda table, poly, f: verify_certificate(_TORUS2, poly, table),
    "pairing": lambda table, poly, f: pairing(poly, table),
}


@pytest.mark.parametrize("call", FLOAT_READS.values(), ids=FLOAT_READS.keys())
def test_decimal_entries_are_read_as_their_floats(call):
    # A Decimal entry is stored as its float value where the table, the
    # polynomial or the test function is built, so float mode answers as
    # it does on the floats themselves.
    assert repr(call(*_decimal_or_float(Decimal))) == repr(call(*_decimal_or_float(float)))


def test_exact_tables_construct_and_decide_exactly():
    rational = SolverOptions(arithmetic_mode="rational")
    domain = complete_domain(3, cap=2)
    law = random_distribution(np.random.default_rng(71), domain, exact=True)
    integers = CorrelationPair(rho1=np.array([1, 0, 0]), rho2=np.zeros((3, 3), dtype=np.int64))
    for corr in (correlations_of(law), integers):
        assert corr.is_exact
        result = check_realizability(domain, corr, rational)
        again = correlations_of(result.distribution)
        assert result.distribution.is_exact
        assert again.rho1.tolist() == corr.rho1.tolist() and again.rho2.tolist() == corr.rho2.tolist()


def test_exact_tables_compare_without_fraction_equality(monkeypatch):
    # Asymmetric by one Fraction, far below any float tolerance: refused
    # as before.  A symmetric exact table, ints and Fractions mixed, is
    # accepted without a Fraction.__eq__ call per entry.
    third, nudge = Fraction(1, 3), Fraction(1, 10**30)
    rho2 = np.array([[0, third, 1], [third + nudge, 0, 0], [Fraction(1), 0, 0]], dtype=object)
    with pytest.raises(ValidationError, match="rho2 must be symmetric"):
        CorrelationPair(rho1=np.array([third] * 3, dtype=object), rho2=rho2)
    with pytest.raises(ValidationError, match="f2 must be symmetric"):
        QuadraticPolynomial(f0=0, f1=np.zeros(3, dtype=object), f2=rho2)
    calls = []
    equal = Fraction.__eq__
    monkeypatch.setattr(Fraction, "__eq__", lambda a, b: calls.append(1) or equal(a, b))
    rho2[1, 0] = third
    corr = CorrelationPair(rho1=np.array([third] * 3, dtype=object), rho2=rho2)
    assert corr.rho2[1, 0] == third and calls == [1]  # the assert's own comparison


#: Integer dtypes of the numpy rows a law's atoms may be given as.
_DTYPES = (np.int8, np.uint8, np.int16, np.int32, np.int64, np.uint64)


def _reference_atoms(atoms) -> tuple:
    """The reference: each configuration converted entry by entry."""
    return tuple((tuple(int(n) for n in config), _pyscalar(weight)) for config, weight in atoms)


def _reference_refusal(domain, atoms):
    """``(type, message)`` of the refusal the per-atom loop gives, or None."""
    s = domain.site_count
    seen, total = set(), 0
    for config, weight in atoms:
        if len(config) != s:
            return DimensionError, f"configuration has {len(config)} entries for {s} sites"
        if weight < 0:
            return ValidationError, f"negative weight {weight} on {config}"
        if config in seen:
            return ValidationError, f"duplicate configuration {config}"
        seen.add(config)
        total += weight
    for config, _ in atoms:
        if not oracle_admissible(domain, config):
            return ValidationError, f"configuration {config} is not admissible"
    if not abs(total - 1) <= TOLERANCE:
        return ValidationError, f"weights sum to {total}, not 1"
    return None


def _render(data, config):
    """``config`` as a tuple, a list or a numpy row of an integer dtype that holds it."""
    fits = [d for d in _DTYPES if all(np.iinfo(d).min <= n <= np.iinfo(d).max for n in config)]
    form = data.draw(st.sampled_from(["tuple", "list", *fits]))
    return tuple(config) if form == "tuple" else list(config) if form == "list" else np.array(config, dtype=form)


def _law_domain(data) -> Domain:
    """One to three sites at distance 1, caps from 1 to past int64, maybe exclusion."""
    s = data.draw(st.integers(min_value=1, max_value=3))
    caps = tuple(data.draw(st.sampled_from([1, 3, 2**63, 2**64 - 1, 2**64 + 5])) for _ in range(s))
    if s > 1 and data.draw(st.booleans()):
        return complete_domain(s, exclusion_diameter=1.5)
    return Domain(distance=np.ones((s, s)) - np.eye(s), occupancy_cap=caps)


def _law_configs(data, domain) -> list:
    """Distinct admissible configurations, one to six of them."""
    sites = st.tuples(*(st.integers(min_value=0, max_value=c) for c in domain.occupancy_cap))
    admissible = sites.filter(lambda config: oracle_admissible(domain, config))
    return data.draw(st.lists(admissible, min_size=1, max_size=6, unique=True))


@given(st.data())
@settings(deadline=None, max_examples=150)
def test_atoms_match_the_per_entry_reference(data):
    domain = _law_domain(data)
    configs = _law_configs(data, domain)
    weight = data.draw(st.sampled_from([Fraction(1, len(configs)), 1 / len(configs)]))
    atoms = tuple((_render(data, config), weight) for config in configs)
    dist = Distribution(domain, atoms)
    assert dist.atoms == _reference_atoms(atoms)
    assert all(type(n) is int for config, _ in dist.atoms for n in config)
    assert dist.occupancy.tolist() == [list(config) for config in configs]


@given(st.data())
@settings(deadline=None, max_examples=300)
def test_refusals_match_the_per_atom_reference(data):
    # Several faulty atoms: the first refusal of the reference loop wins.
    domain = _law_domain(data)
    configs = _law_configs(data, domain)
    s, caps = domain.site_count, domain.occupancy_cap
    atoms = []
    for k, config in enumerate(configs):
        # Exact weights, a lone one maybe an int; "nan" makes the law a float one.
        weight = 1 if len(configs) == 1 and data.draw(st.booleans()) else Fraction(1, len(configs))
        faults = ["short", "long", "negative", "duplicate", "over-cap", "nan", "heavy", "nudged"]
        # An atom may carry several faults at once, applied in this order.
        chosen = data.draw(st.sets(st.sampled_from(faults), max_size=3))
        if "duplicate" in chosen and k > 0:
            config = configs[data.draw(st.integers(min_value=0, max_value=k - 1))]
        if "over-cap" in chosen:
            site = data.draw(st.integers(min_value=0, max_value=s - 1))
            config = (*config[:site], caps[site] + 1, *config[site + 1 :])
        if "short" in chosen:
            config = config[:-1]
        if "long" in chosen:
            config = (*config, 0)
        if "heavy" in chosen:  # the total misses 1
            weight = 2 * weight
        if "nudged" in chosen:  # the total misses 1 within TOLERANCE
            weight = weight + Fraction(1, 10**12)
        if "negative" in chosen:
            weight = -weight
        if "nan" in chosen:
            weight = math.nan
        atoms.append((_render(data, config), weight))
    expected = _reference_refusal(domain, _reference_atoms(atoms))
    if expected is None:
        dist = Distribution(domain, tuple(atoms))
        assert dist.is_exact == all(_is_exact_value(weight) for _, weight in atoms)
        return
    with pytest.raises(expected[0]) as caught:
        Distribution(domain, tuple(atoms))
    assert (type(caught.value), str(caught.value)) == expected


def _portrait(dist) -> tuple:
    """What a law shows: its repr, meta, occupancy array, weight types and exactness."""
    X = dist.occupancy
    return (repr(dist), dist.meta, X.dtype, X.tolist(), X.flags.writeable,
            [type(w) for _, w in dist.atoms], dist.is_exact, dist._integers)


def _both_ways(domain, atoms, meta=None):
    """``Distribution(domain, atoms, meta)``, built once more by
    ``Distribution._of`` from the occupancy array the constructor reads and
    the weights: the two give the same law, or the same refusal."""
    laws = []
    for build in (
        lambda: core.Distribution(domain, atoms, meta or {}),
        lambda: core.Distribution._of(
            domain, _occupancies([c for c, _ in atoms], domain.site_count)[0], [w for _, w in atoms], meta
        ),
    ):
        try:
            laws.append((build(), None))
        except (DimensionError, ValidationError) as exc:
            laws.append((None, (type(exc), str(exc))))
    (law, refusal), (twin, twin_refusal) = laws
    assert refusal == twin_refusal
    if refusal:
        raise refusal[0](refusal[1])
    assert _portrait(law) == _portrait(twin)
    return law


@given(st.data())
@settings(deadline=None, max_examples=300)
def test_array_constructor_matches_the_public_one(data):
    # The draws of the two tests above, faulty laws included, each law
    # built through both constructors.
    with mock.patch.dict(globals(), Distribution=_both_ways):
        test_atoms_match_the_per_entry_reference.hypothesis.inner_test(data)
        test_refusals_match_the_per_atom_reference.hypothesis.inner_test(data)
    domain = _law_domain(data)
    configs = _law_configs(data, domain)
    meta = {"drawn": len(configs)}
    weight = data.draw(st.sampled_from([Fraction(1, len(configs)), 1 / len(configs), np.float64(1 / len(configs))]))
    assert _both_ways(domain, tuple((config, weight) for config in configs), meta).meta == meta


def test_renormalized_exact_total_is_a_fraction():
    # Integer weights sum to an int, which becomes a Fraction so that the
    # renormalized weights stay exact.
    dist = Distribution(single_site(2), (((0,), 0), ((2,), 1))).renormalized()
    assert dist.atoms == (((0,), Fraction(0)), ((2,), Fraction(1)))
    assert all(type(w) is Fraction for _, w in dist.atoms) and dist.is_exact
