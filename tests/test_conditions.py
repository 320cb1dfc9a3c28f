"""Closed-form necessary conditions and the battery report."""

import math
import tracemalloc
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
import pytest

import realz.conditions
import realz.core
import realz.enumeration
from realz.conditions import ConditionVerdict, family_functions
from realz.core import TOLERANCE
from realz.errors import DimensionError, ValidationError
from realz import (
    CorrelationPair,
    RangeSet,
    check_gap,
    check_mean_bounds,
    check_realizability,
    check_upper,
    check_variance,
    correlations_of,
    enumerate_configurations,
    mean_and_variance,
    range_of,
    run_battery,
    torus_domain,
)
from support import (
    complete_domain,
    max_configurations,
    pair_lattice_corr,
    random_distribution,
    random_domain,
    single_site,
)


def corr_1site(rho1, rho2):
    return CorrelationPair(rho1=np.array([rho1]), rho2=np.array([[rho2]]))


def reference_verdicts(corr, f, dom, label):
    """Gap, upper and mean-bound verdicts of one function, from its range
    set, its mean and variance and the closed forms, one at a time."""
    values = range_of(f, dom).values
    mean, var = mean_and_variance(corr, f)
    lo, hi = values[0], values[-1]

    def verdict(name, lhs, rhs):
        margin = lhs - rhs
        return ConditionVerdict(name, label, lhs, rhs, margin, margin >= -TOLERANCE)

    bounds = verdict("mean_bounds", min(mean - lo, hi - mean), 0)
    upper = verdict("upper", (hi - mean) * (mean - lo), var)
    if mean < lo:
        bracket = (lo, lo) if lo - mean <= TOLERANCE else None
    elif mean > hi:
        bracket = (hi, hi) if mean - hi <= TOLERANCE else None
    else:
        bracket = values[bisect_right(values, mean) - 1], values[bisect_left(values, mean)]
    if bracket is None:
        note = "delegated to mean bounds: mean outside attainable range"
        gap = ConditionVerdict("gap", label, bounds.lhs, bounds.rhs, bounds.margin, False, note)
    else:
        gap = verdict("gap", var, (bracket[1] - mean) * (mean - bracket[0]))
    return gap, upper, bounds


def typed(verdict):
    """Every field of a verdict with its type: ``1 == 1.0`` is no match."""
    fields = (verdict.lhs, verdict.rhs, verdict.margin, verdict.passed, verdict.note)
    return verdict.condition_name, verdict.test_function_id, [(v, type(v)) for v in fields]


def assert_matches_reference(dom, corr, families) -> int:
    """The battery equals the reference on every function; returns the
    number of delegated gap verdicts."""
    report = run_battery(dom, corr, family=families)
    functions = [item for desc in families for item in family_functions(dom, desc)]
    expected = [v for label, f in functions for v in reference_verdicts(corr, f, dom, label)]
    assert [typed(v) for v in report.verdicts] == [typed(v) for v in expected]
    return sum("delegated" in v.note for v in report.verdicts)


class TestMeanAndVariance:
    def test_zero_observable(self):
        assert mean_and_variance(pair_lattice_corr(0.5, 0.2), [0.0, 0.0]) == (0.0, 0.0)

    def test_single_site_example(self):
        mean, var = mean_and_variance(corr_1site(1 / 3, 1.0), [1.0])
        assert mean == pytest.approx(1 / 3)
        assert var == pytest.approx(11 / 9)

    def test_pair_window(self):
        mean, var = mean_and_variance(pair_lattice_corr(0.75, 0.4), [1.0, 1.0])
        assert mean == pytest.approx(1.5)
        assert var == pytest.approx(0.05)

    def test_cross_check_against_distribution(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            dom = random_domain(rng)
            dist = random_distribution(rng, dom)
            corr = correlations_of(dist)
            f = rng.normal(size=dom.site_count)
            mean, var = mean_and_variance(corr, f)
            values = [float(np.dot(f, c)) for c, _ in dist.atoms]
            weights = [w for _, w in dist.atoms]
            direct_mean = sum(w * v for w, v in zip(weights, values))
            direct_var = sum(w * (v - direct_mean) ** 2 for w, v in zip(weights, values))
            assert mean == pytest.approx(direct_mean, abs=1e-9)
            assert var == pytest.approx(direct_var, abs=1e-9)


class TestVariance:
    def test_distribution_variances_pass(self):
        rng = np.random.default_rng(19)
        dom = random_domain(rng)
        corr = correlations_of(random_distribution(rng, dom))
        f = rng.normal(size=dom.site_count)
        assert check_variance(corr, f).passed

    def test_arithmetic_pass(self):
        verdict = check_variance(pair_lattice_corr(0.5, 0.1), [1.0, 1.0])
        assert verdict.passed
        assert verdict.margin == pytest.approx(0.2)

    def test_arithmetic_fail(self):
        verdict = check_variance(pair_lattice_corr(0.75, 0.3), [1.0, 1.0])
        assert not verdict.passed
        assert verdict.margin == pytest.approx(-0.15)


class TestGap:
    def test_matches_integer_bracket_formula(self):
        # for counting windows the bound uses floor/ceil of the mean
        dom = complete_domain(3, cap=1)
        corr = correlations_of(
            random_distribution(np.random.default_rng(2), dom)
        )
        f = [1.0, 1.0, 1.0]
        mean, var = mean_and_variance(corr, f)
        verdict = check_gap(corr, f, dom)
        expected_rhs = (math.ceil(mean) - mean) * (mean - math.floor(mean))
        assert verdict.rhs == pytest.approx(expected_rhs)
        assert verdict.margin == pytest.approx(var - expected_rhs)

    def test_pair_window_fails_at_q_04(self):
        dom = complete_domain(2, cap=1)
        verdict = check_gap(pair_lattice_corr(0.75, 0.4), [1.0, 1.0], dom)
        assert not verdict.passed
        assert verdict.rhs == pytest.approx(0.25)
        assert verdict.lhs == pytest.approx(0.05)

    def test_boundary_pass_at_q_05(self):
        dom = complete_domain(2, cap=1)
        verdict = check_gap(pair_lattice_corr(0.75, 0.5), [1.0, 1.0], dom)
        assert verdict.passed
        assert verdict.margin == pytest.approx(0.0, abs=1e-12)

    def test_reduces_to_variance_when_mean_attainable(self):
        dom = single_site(1)
        corr = corr_1site(1.0, 0.0)
        verdict = check_gap(corr, [1.0], dom)
        assert verdict.rhs == pytest.approx(0.0)
        assert verdict.passed

    def test_delegates_when_mean_outside_range(self):
        dom = single_site(1)
        corr = corr_1site(1.2, 0.0)
        verdict = check_gap(corr, [1.0], dom)
        assert not verdict.passed
        assert "delegated" in verdict.note

    def test_dominates_sampled_monic_quadratics(self):
        # any monic quadratic nonnegative on the range gives a weaker bound
        rng = np.random.default_rng(43)
        dom = complete_domain(3, cap=1)
        corr = correlations_of(random_distribution(rng, dom))
        f = [1.0, 1.0, 1.0]
        mean, _ = mean_and_variance(corr, f)
        values = [0.0, 1.0, 2.0, 3.0]
        lo = max(v for v in values if v <= mean)
        hi = min(v for v in values if v >= mean)
        extremal = (mean - lo) * (mean - hi)
        count = 0
        while count < 100:
            b, c = rng.normal(scale=3), rng.normal(scale=3)
            p = lambda x: x * x + b * x + c
            if any(p(v) < 0 for v in values):
                continue
            count += 1
            assert p(mean) >= extremal - 1e-9


class TestUpper:
    def test_bernoulli_extremal_equality(self):
        dom = single_site(1)
        corr = corr_1site(0.5, 0.0)
        verdict = check_upper(corr, [1.0], dom)
        assert verdict.passed
        assert verdict.margin == pytest.approx(0.0)

    def test_two_atom_saturates(self):
        verdict = check_upper(corr_1site(1 / 3, 1.0), [1.0], single_site(4))
        assert verdict.passed
        assert verdict.margin == pytest.approx(0.0, abs=1e-12)

    def test_fails_below_threshold_cap(self):
        corr = corr_1site(1 / 3, 1.0)
        verdict = check_upper(corr, [1.0], single_site(3))
        assert not verdict.passed
        assert verdict.lhs == pytest.approx(8 / 9)
        assert not check_realizability(single_site(3), corr).feasible

    def test_dominates_sampled_concave_quadratics(self):
        rng = np.random.default_rng(47)
        dom = complete_domain(2, cap=1)
        corr = correlations_of(random_distribution(rng, dom))
        f = [1.0, 1.0]
        mean, _ = mean_and_variance(corr, f)
        values = [0.0, 1.0, 2.0]
        extremal = (values[-1] - mean) * (mean - values[0])
        count = 0
        while count < 100:
            b, c = rng.normal(scale=3), rng.normal(scale=5)
            p = lambda x: -x * x + b * x + c
            if any(p(v) < 0 for v in values):
                continue
            count += 1
            assert p(mean) >= extremal - 1e-9


class TestMeanBounds:
    def test_nonnegative_density_passes_lower(self):
        dom = single_site(3)
        assert check_mean_bounds(corr_1site(0.7, 0.0), [1.0], dom).passed

    def test_total_count_bounded_by_exact_total(self):
        dom = complete_domain(3, cap=1, total_exact=2)
        good = CorrelationPair(
            rho1=np.full(3, 2 / 3), rho2=np.full((3, 3), 1 / 3) - np.diag(np.full(3, 1 / 3))
        )
        assert check_mean_bounds(good, [1.0, 1.0, 1.0], dom).passed
        bad = CorrelationPair(rho1=np.full(3, 0.9), rho2=good.rho2)
        assert not check_mean_bounds(bad, [1.0, 1.0, 1.0], dom).passed

    def test_density_above_cap_fails(self):
        assert not check_mean_bounds(corr_1site(1.2, 0.0), [1.0], single_site(1)).passed


class TestBattery:
    def test_realizable_data_passes_everything(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            dom = random_domain(rng, max_sites=4)
            corr = correlations_of(random_distribution(rng, dom))
            report = run_battery(dom, corr)
            assert report.overall
            assert all(v.margin >= -1e-9 for v in report.verdicts)

    def test_gap_fails_while_variance_passes_at_q_04(self):
        # the battery is strictly weaker than the exact feasibility check:
        # this instance passes the variance condition yet is not realizable
        dom = complete_domain(2, cap=1)
        corr = pair_lattice_corr(0.75, 0.4)
        assert check_variance(corr, [1.0, 1.0]).passed
        report = run_battery(dom, corr)
        assert not report.overall
        assert report.worst.condition_name == "gap"
        assert report.worst.test_function_id == "pair(0,1)"
        assert not check_realizability(dom, corr).feasible

    def test_upper_condition_catches_unit_pair_moment(self):
        dom = single_site(5)
        report = run_battery(dom, corr_1site(0.0, 1.0), family="singletons")
        assert not report.overall
        failing = [v for v in report.verdicts if not v.passed]
        assert {v.condition_name for v in failing} == {"upper"}

    def test_declaration_order_and_empty_family(self):
        dom = complete_domain(2, cap=1)
        corr = pair_lattice_corr(0.25, 0.05)
        report = run_battery(dom, corr, family=[("custom", [])])
        assert report.overall and report.worst is None and report.verdicts == ()
        report = run_battery(dom, corr, family=["singletons", "pairs"])
        labels = [v.test_function_id for v in report.verdicts]
        assert labels == ["site(0)"] * 3 + ["site(1)"] * 3 + ["pair(0,1)"] * 3

    def test_ball_family(self):
        dom = complete_domain(3, cap=1)
        report = run_battery(
            dom, correlations_of(random_distribution(np.random.default_rng(1), dom)),
            family=("balls", 1.0),
        )
        assert report.overall
        assert any("ball" in v.test_function_id for v in report.verdicts)

    def test_descriptor_lists(self):
        # A two-item list is one descriptor only when its second item is
        # the family's argument.
        dom = complete_domain(3, cap=1)
        corr = correlations_of(random_distribution(np.random.default_rng(1), dom))
        one = run_battery(dom, corr, family=("balls", 1.0)).verdicts
        assert run_battery(dom, corr, family=[("balls", 1.0)]).verdicts == one
        both = run_battery(dom, corr, family=["singletons", ("balls", 1.0)]).verdicts
        assert both == run_battery(dom, corr, family="singletons").verdicts + one
        for family, message in (
            (["balls", "pairs"], "needs a radius"),
            (("custom", "pairs"), "custom family needs its functions"),
            (("balls", "1"), "needs a radius"),
            (("balls", True), "malformed"),
            (("custom", [("a",)]), "malformed"),
        ):
            with pytest.raises(ValidationError, match=message):
                run_battery(dom, corr, family=family)

    def test_battery_enumerates_once(self, monkeypatch):
        calls = []
        enumerate_configurations = realz.enumeration.enumerate_configurations

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_configurations(*args, **kwargs)

        monkeypatch.setattr(realz.enumeration, "enumerate_configurations", counted)
        dom = complete_domain(3, cap=2)
        corr = correlations_of(random_distribution(np.random.default_rng(3), dom))
        report = run_battery(dom, corr, family=["singletons", "pairs", ("balls", 1.0)])
        assert len(report.verdicts) == 3 * (3 + 3 + 4)
        assert len(calls) == 1
        # an empty family enumerates nothing, even past the limit
        with max_configurations(1):
            report = run_battery(dom, corr, family=[("custom", [])])
        assert report.verdicts == () and len(calls) == 1

    def test_battery_matches_reference(self):
        rng = np.random.default_rng(61)
        delegated = 0
        for _ in range(30):
            dom = random_domain(rng, max_sites=4)
            s = dom.site_count
            base = correlations_of(random_distribution(rng, dom))
            shift = float(rng.choice([0.0, 1.5, -0.8]))
            corr = CorrelationPair(rho1=base.rho1 + shift, rho2=base.rho2)
            custom = [
                ("float", rng.normal(size=s)),
                ("integral", rng.integers(-3, 4, size=s).astype(float)),
                ("int", rng.integers(-3, 4, size=s)),
                ("fraction", [Fraction(int(k), 3) for k in rng.integers(-4, 5, size=s)]),
            ]
            families = ["singletons", "pairs", ("balls", 1.0), ("custom", custom)]
            delegated += assert_matches_reference(dom, corr, families)
        assert delegated > 0

    def test_exact_tables_match_reference(self):
        rng = np.random.default_rng(67)
        domains = [random_domain(rng, max_sites=4) for _ in range(10)]
        domains.append(complete_domain(4, cap=2, total_exact=3))
        for k, dom in enumerate(domains):
            s = dom.site_count
            base = correlations_of(random_distribution(rng, dom, exact=True))
            corr = CorrelationPair(rho1=base.rho1 + [0, Fraction(3, 2), Fraction(-4, 5)][k % 3], rho2=base.rho2)
            custom = [
                ("fraction", [Fraction(int(k), 5) for k in rng.integers(-4, 5, size=s)]),
                ("int", [int(k) for k in rng.integers(-4, 5, size=s)]),
                ("float", rng.normal(size=s)),
            ]
            assert_matches_reference(dom, corr, ["singletons", "pairs", ("custom", custom)])

    def test_one_arithmetic_rule(self):
        # Exact rows beside exact tables stay exact; any other mix reads
        # every entry as its float value, so float rows beside exact tables
        # give the verdicts of the float-cast tables, bit for bit.  On these
        # 9 and 10 sites, a sum in index order would differ from numpy's
        # pairwise one in the last bit on some rows.
        rng = np.random.default_rng(79)
        for dom in (torus_domain((3, 3), occupancy_cap=1), complete_domain(10, cap=1)):
            s = dom.site_count
            rho1 = np.array([Fraction(int(k), 997) for k in rng.integers(1, 997, size=s)], dtype=object)
            upper = np.triu([[Fraction(int(k), 991) for k in row] for row in rng.integers(1, 991, size=(s, s))], 1)
            corr = CorrelationPair(rho1=rho1, rho2=upper + upper.T)
            cast = CorrelationPair(rho1=rho1.astype(float), rho2=corr.rho2.astype(float))
            floats = ["singletons", "pairs", ("custom", [(f"f{k}", rng.normal(size=s)) for k in range(20)])]
            report = run_battery(dom, corr, family=floats)
            assert [typed(v) for v in report.verdicts] == [typed(v) for v in run_battery(dom, cast, family=floats).verdicts]
            exact = [
                ("int", [int(k) for k in rng.integers(-4, 5, size=s)]),
                ("fraction", [Fraction(int(k), 7) for k in rng.integers(-9, 10, size=s)]),
            ]
            for _, f in exact:
                mean, var = mean_and_variance(corr, f)
                assert type(mean) is type(var) is Fraction
                assert mean == sum(a * b for a, b in zip(f, rho1))
            verdicts = run_battery(dom, corr, family=("custom", exact)).verdicts
            assert {type(x) for v in verdicts for x in (v.lhs, v.margin)} == {Fraction}

    def test_integer_test_functions_do_not_overflow(self):
        # Products in the test function's own dtype wrapped: 200 * 200 in
        # uint8 or int16, 2**32 squared in int64 (a list of ints is read as
        # int64), and on a one-site space of 2**62 particles the value
        # 3 * 2**62.  Each must read as its float function does; exactly on
        # an exact table.
        wide = single_site(2**62, total_exact=2**62)
        cases = [
            (single_site(3), corr_1site(0.5, 0.0), corr_1site(Fraction(1, 2), 0), f, float(v))
            for v, f in ((200, np.array([200], dtype=np.uint8)), (200, np.array([200], dtype=np.int16)),
                         (2**32, np.array([2**32], dtype=np.int64)), (2**32, [2**32]))
        ]
        n = 2**62
        cases.append((wide, corr_1site(float(n), float(n) * (n - 1)), corr_1site(n, n * (n - 1)), [3], 3.0))
        for dom, corr, exact, f, v in cases:
            for table in (corr, exact):
                got, want = mean_and_variance(table, f), mean_and_variance(table, [v])
                got_verdicts = run_battery(dom, table, ("custom", [("f", f)])).verdicts
                want_verdicts = run_battery(dom, table, ("custom", [("f", [v])])).verdicts
                assert [v.passed for v in got_verdicts] == [v.passed for v in want_verdicts] == [True] * 3
                if table is exact:
                    assert got == want and all(isinstance(x, (int, Fraction)) for x in got)
                    assert [v.margin for v in got_verdicts] == [v.margin for v in want_verdicts]
                else:
                    assert got == pytest.approx(want, abs=TOLERANCE)
                    for a, b in zip(got_verdicts, want_verdicts):
                        assert a.margin == pytest.approx(b.margin, abs=TOLERANCE)

    @pytest.mark.parametrize("f", [[10**330], [10**200], [Fraction(10**330, 3)]], ids=["int", "int-square", "fraction"])
    def test_test_functions_past_the_float_range_rejected(self, f):
        # Beside a float table each exact entry and its square are read as
        # floats, so one past the float range is refused, as a table entry
        # is; beside an exact table they stay exact.
        refused = "^test function entries and their squares must lie within the float range$"
        with pytest.raises(ValidationError, match=refused):
            mean_and_variance(corr_1site(0.5, 0.0), f)
        with pytest.raises(ValidationError, match=refused):
            run_battery(single_site(3), corr_1site(0.5, 0.0), ("custom", [("f", f)]))
        exact = corr_1site(Fraction(1, 2), 0)
        assert mean_and_variance(exact, f) == (Fraction(f[0]) / 2, Fraction(f[0]) ** 2 / 4)
        assert run_battery(single_site(3), exact, ("custom", [("f", f)])).overall

    @pytest.mark.parametrize("f", [[1e155], [-1e155], [1e308, 1e308]], ids=["square", "negative", "mean"])
    def test_moments_past_the_float_range_rejected(self, f):
        # Each entry is a float, but f^2 rho1 or the mean overflows: refused
        # with no RuntimeWarning (an error here), never a NaN verdict.
        refused = "^test function means and variances must lie within the float range$"
        corr = CorrelationPair(rho1=np.full(len(f), 0.75), rho2=np.zeros((len(f), len(f))))
        with pytest.raises(ValidationError, match=refused):
            mean_and_variance(corr, f)
        with pytest.raises(ValidationError, match=refused):
            run_battery(complete_domain(len(f), cap=3), corr, ("custom", [("f", f)]))

    def test_condition_sides_past_the_float_range_rejected(self):
        # The mean 5e153 and variance 2.5e307 are floats, but the upper
        # side (hi - E)(E - lo) with hi = 1e156 is not: refused, never an
        # infinite margin that passes.
        corr = corr_1site(0.5, 0.0)
        assert mean_and_variance(corr, [1e154]) == (5e153, 2.5e307)
        with pytest.raises(ValidationError, match="^condition sides and margins must lie within the float range$"):
            run_battery(single_site(100), corr, ("custom", [("f", [1e154])]))
        with pytest.raises(ValidationError, match="^condition sides and margins must lie within the float range$"):
            check_upper(corr, [1e154], single_site(100))

    @pytest.mark.parametrize("cells", [1, 7, 300])
    def test_blocks_match_reference(self, monkeypatch, cells):
        # Blocks of one configuration, of a few, and of many per function.
        monkeypatch.setattr(realz.core, "_BLOCK_CELLS", cells)
        rng = np.random.default_rng(73)
        for dom in (complete_domain(5, cap=2), torus_domain((3, 3), occupancy_cap=1)):
            corr = correlations_of(random_distribution(rng, dom))
            custom = [("integral", rng.integers(-3, 4, size=dom.site_count).astype(float))]
            assert_matches_reference(dom, corr, ["singletons", "pairs", ("custom", custom)])

    def test_empty_space_rejected(self):
        dom = complete_domain(2, cap=1, total_exact=5)
        corr = pair_lattice_corr(0.5, 0.2)
        for family in ("singletons", ("custom", [("exact", [Fraction(1, 2), 1])])):
            with pytest.raises(ValidationError, match="no configurations"):
                run_battery(dom, corr, family=family)
        with pytest.raises(ValidationError, match="no configurations"):
            check_gap(corr, [1.0, 1.0], dom)

    def test_nonfinite_test_functions_rejected(self):
        dom = complete_domain(2, cap=1)
        corr = pair_lattice_corr(0.5, 0.2)
        for f in (
            [math.nan, 1.0],
            [1.0, math.inf],
            [-math.inf, 0.0],
            np.array([Fraction(1, 2), math.nan], dtype=object),
        ):
            with pytest.raises(ValidationError, match="finite"):
                run_battery(dom, corr, family=("custom", [("x", f)]))
            for check in (check_gap, check_upper, check_mean_bounds):
                with pytest.raises(ValidationError, match="finite"):
                    check(corr, f, dom)
            with pytest.raises(ValidationError, match="finite"):
                range_of(f, dom)
        with pytest.raises(ValidationError, match="NaN"):
            RangeSet((math.nan,))
        with pytest.raises(ValidationError, match="NaN"):
            RangeSet((0.0, math.nan, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
    def test_nonfinite_tables_rejected(self, bad):
        dom = complete_domain(2, cap=1)
        corr = CorrelationPair(rho1=np.array([bad, 0.5]), rho2=np.array([[0.0, 0.1], [0.1, 0.0]]))
        # The empty family too, which reads no configuration.
        for family in (None, "singletons", ("balls", 1.0), ("custom", [])):
            with pytest.raises(ValidationError, match="^correlation entries must be finite$"):
                run_battery(dom, corr, family=family)
        for check in (check_gap, check_upper, check_mean_bounds):
            with pytest.raises(ValidationError, match="^correlation entries must be finite$"):
                check(corr, [1.0, 0.0], dom)
        with pytest.raises(ValidationError, match="^correlation entries must be finite$"):
            check_variance(corr, [1.0, 0.0])

    @pytest.mark.parametrize("huge", [10**400, Fraction(10**400, 3)], ids=["int", "fraction"])
    def test_entries_past_the_float_range_rejected(self, huge):
        # Exact and finite, but the battery's arithmetic is float.
        dom = complete_domain(2, cap=1)
        corr = CorrelationPair(rho1=np.array([huge, 0], dtype=object), rho2=np.zeros((2, 2), dtype=int).astype(object))
        corr.validate()
        for family in (None, ("custom", [("exact", [1, 0])]), ("custom", [])):
            with pytest.raises(ValidationError, match="^correlation entries must lie within the float range$"):
                run_battery(dom, corr, family=family)
        for check in (check_gap, check_upper, check_mean_bounds):
            with pytest.raises(ValidationError, match="within the float range"):
                check(corr, [1.0, 0.0], dom)

    @pytest.mark.parametrize("radius", [math.nan, -1, -0.5, Fraction(-1, 2)], ids=str)
    def test_ball_radius_must_be_nonnegative(self, radius):
        # Such a radius has no window, so the battery would pass vacuously.
        dom = complete_domain(2)
        with pytest.raises(ValidationError, match="^ball radius must be nonnegative, got "):
            family_functions(dom, ("balls", radius))
        with pytest.raises(ValidationError, match="^ball radius must be nonnegative, got "):
            run_battery(dom, pair_lattice_corr(0.5, 0.2), family=("balls", radius))

    @pytest.mark.parametrize("radius", [10**400, Fraction(10**400, 3)], ids=["int", "fraction"])
    def test_ball_radius_past_the_float_range(self, radius):
        dom = complete_domain(2)
        for call in (lambda: family_functions(dom, ("balls", radius)),
                     lambda: run_battery(dom, pair_lattice_corr(0.5, 0.2), family=("balls", radius))):
            with pytest.raises(ValidationError) as caught:
                call()
            assert type(caught.value) is ValidationError
            assert str(caught.value) == f"ball radius {radius!r} has no float value"

    def test_infinite_radius_takes_every_site(self):
        dom = torus_domain((3,))
        windows = family_functions(dom, ("balls", math.inf))
        assert [label for label, _ in windows] == ["ball(center=0,r=0)", "ball(center=0,r=1)", "ball(center=1,r=0)",
                                                   "ball(center=2,r=0)"]
        assert windows[1][1].tolist() == [1.0, 1.0, 1.0]

    def test_battery_memory_is_bounded(self):
        # The (4,4) torus: 136 built-in functions over 65,536
        # configurations, whose values take 71 MB in one piece.
        dom = torus_domain((4, 4), occupancy_cap=1)
        rho2 = np.full((16, 16), 0.25)
        np.fill_diagonal(rho2, 0.0)
        corr = CorrelationPair(rho1=np.full(16, 0.5), rho2=rho2)
        enumerated = enumerate_configurations(dom).nbytes
        tracemalloc.start()
        try:
            report = run_battery(dom, corr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.verdicts) == 3 * 136 and report.overall
        assert peak - enumerated < 8_000_000

    def test_battery_matches_single_checks(self):
        rng = np.random.default_rng(61)
        delegated = 0
        for _ in range(30):
            dom = random_domain(rng, max_sites=4)
            s = dom.site_count
            base = correlations_of(random_distribution(rng, dom))
            # shifted densities push some means outside the attainable range
            shift = float(rng.choice([0.0, 1.5, -0.8]))
            corr = CorrelationPair(rho1=base.rho1 + shift, rho2=base.rho2)
            custom = [
                ("float", rng.normal(size=s)),
                ("fraction", [Fraction(int(k), 3) for k in rng.integers(-4, 5, size=s)]),
            ]
            families = ["singletons", "pairs", ("balls", 1.0), ("custom", custom)]
            report = run_battery(dom, corr, family=families)
            functions = [item for desc in families for item in family_functions(dom, desc)]
            assert len(report.verdicts) == 3 * len(functions)
            for k, (label, f) in enumerate(functions):
                gap, upper, bounds = report.verdicts[3 * k : 3 * k + 3]
                assert gap == check_gap(corr, f, dom, label=label)
                assert upper == check_upper(corr, f, dom, label=label)
                assert bounds == check_mean_bounds(corr, f, dom, label=label)
                delegated += "delegated" in gap.note
        assert delegated > 0


def closed_bracket_extremes(V, mean):
    """The battery's bracket under the tie rule ``below <= E <= above``: the
    greatest value at most the mean and the least at least it."""
    lo, hi = V.min(axis=1), V.max(axis=1)
    below = np.where(V <= mean[:, None], V, lo[:, None]).max(axis=1)
    above = np.where(V >= mean[:, None], V, hi[:, None]).min(axis=1)
    return np.stack([lo, hi, below, above], axis=1)


def oracle_bracket(row, mean) -> list:
    """``(lo, hi, a, c)`` of one row by brute force: its distinct values,
    then ``a <= mean < c``, ``lo`` and ``hi`` where no value qualifies."""
    values = np.unique(row).tolist()
    a = max((v for v in values if v <= mean), default=values[0])
    c = min((v for v in values if v > mean), default=values[-1])
    return [values[0], values[-1], a, c]


class TestOneBracket:
    """``conditions._extremes``, the one bracket of the battery's gap and
    upper conditions and of the solver's count hull."""

    def test_matches_the_oracle(self):
        rng = np.random.default_rng(83)
        for trial in range(400):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 12)))
            # Integer rows, and float rows with ties among their values.
            V = rng.integers(-6, 7, size=shape) if trial % 2 else rng.normal(size=shape).round(1)
            means = []
            for row in V:
                v = float(rng.choice(row))
                means.append([v, v + 0.3 * rng.normal(), row.min() - 1.5, row.max(), row.max() + 2.5][trial % 5])
            got = realz.conditions._extremes(V, np.array(means))
            assert got.dtype == V.dtype
            assert got.tolist() == [oracle_bracket(row, m) for row, m in zip(V, means)]

    def test_exact_means_beside_an_attained_integer(self):
        # A float comparison reads 2 - 10**-30 and 2 + 10**-30 as 2.
        tiny = Fraction(1, 10**30)
        rows = [
            np.array([[0, 1, 2, 3]]),
            np.array([[3, 0, 2, 1]], dtype=np.uint8),
            np.array([[0.0, 1.0, 2.0, 3.0]]),
            np.array([[0, 1, 2, 3]], dtype=object),
        ]
        cases = [(2 - tiny, [1, 2]), (2 + tiny, [2, 3]), (Fraction(2), [2, 3]), (Fraction(5, 2), [2, 3]),
                 (-tiny, [0, 0]), (tiny, [0, 1]), (3 - tiny, [2, 3]), (3 + tiny, [3, 3])]
        for V in rows:
            for mean, bracket in cases:
                got = realz.conditions._extremes(V, np.array([mean], dtype=object))[0].tolist()
                assert got == [0, 3, *bracket] == oracle_bracket(V[0], mean)

    def test_exact_means_on_both_sides_of_int64(self):
        # Floors of exact means compare with int64 rows in int64 while every
        # floor fits, as Python ints once one does not: the first stack has
        # floors at both ends of int64, the second one floor past each end.
        rng = np.random.default_rng(97)
        top = 2**63
        V = rng.integers(-(2**62), 2**62, size=(4, 9))
        V[:, 0], V[:, 1] = top - 1, -top
        third, seventh = Fraction(1, 3), Fraction(1, 7)
        stacks = [
            [top - third, Fraction(-top), Fraction(int(V[2, 4])), Fraction(int(V[3, 5])) + seventh],
            [Fraction(top), -top - seventh, Fraction(int(V[2, 4])) - third, Fraction(-top) + seventh],
        ]
        for means in stacks:
            got = realz.conditions._extremes(V, np.array(means, dtype=object))
            assert got.dtype == np.int64
            assert got.tolist() == [oracle_bracket(row, m) for row, m in zip(V, means)]

    def test_ends_and_one_attained_value(self):
        V = np.array([[1, 3, 4]])
        for mean, bracket in ((0.5, [1, 1]), (1.0, [1, 3]), (2.0, [1, 3]), (3.5, [3, 4]), (4.0, [4, 4]), (4.5, [4, 4])):
            assert realz.conditions._extremes(V, np.array([mean]))[0].tolist() == [1, 4, *bracket]
        for mean in (1.0, 2.0, 3.0, Fraction(2), Fraction(5, 2)):
            assert realz.conditions._extremes(np.array([[2, 2]]), np.array([mean]))[0].tolist() == [2] * 4

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_battery_margins_do_not_depend_on_the_tie_rule(self, monkeypatch, exact):
        # The tie rule moved from below <= E <= above to a <= E < c: at an
        # attained mean both give the gap's right-hand side 0, so every
        # margin and verdict keeps its bits.
        def fields(report):
            return [(v.condition_name, v.test_function_id, repr(v.lhs), repr(v.rhs), repr(v.margin), v.passed, v.note)
                    for v in report.verdicts]

        rng = np.random.default_rng(89)
        attained = 0
        for trial in range(30):
            dom = random_domain(rng, max_sites=4)
            s = dom.site_count
            base = correlations_of(random_distribution(rng, dom, exact=exact))
            shift = [0, Fraction(3, 2), Fraction(-4, 5)][trial % 3]
            corr = CorrelationPair(rho1=base.rho1 + (shift if exact else float(shift)), rho2=base.rho2)
            custom = [("int", rng.integers(-3, 4, size=s)), ("float", rng.normal(size=s)),
                      ("integral", rng.integers(-3, 4, size=s).astype(float))]
            for families in (None, ("custom", custom)):
                report = run_battery(dom, corr, families)
                with monkeypatch.context() as patch:
                    patch.setattr(realz.conditions, "_extremes", closed_bracket_extremes)
                    expected = run_battery(dom, corr, families)
                assert fields(report) == fields(expected)
            for _, f in family_functions(dom, "singletons") + custom:
                values, mean = range_of(f, dom).values, mean_and_variance(corr, f)[0]
                attained += values[0] < mean < values[-1] and mean in values
        assert attained > 0


def oracle_values(F, X) -> list:
    """Each row of ``F`` paired with every configuration of ``X``, summed
    in Python: ints and ``Fraction``s exactly."""
    return [np.array([sum(v * n for v, n in zip(f, x)) for x in X.tolist()], dtype=object) for f in F.tolist()]


class TestRanges:
    """``conditions._ranges``, every row's values as ``F @ X.T`` in blocks,
    against :func:`oracle_values` and :func:`oracle_bracket`."""

    @staticmethod
    def stacks(rng, s) -> dict:
        """Test function stacks of one dtype each, as the battery stacks them."""
        fraction = lambda: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))  # noqa: E731
        big = rng.integers(-3, 4, size=(2, s)) * 2**62 + rng.integers(-5, 6, size=(2, s))
        big[:, 0] = 2**62  # past the int64 bound on every space of two particles or more
        return {
            "float": rng.normal(size=(3, s)),
            "int": rng.integers(-5, 6, size=(3, s)),
            "int-past-the-bound": big,
            "exact": np.array([[fraction() for _ in range(s)], [3**41 * int(k) for k in rng.integers(-2, 3, size=s)],
                               [fraction() if k % 2 else int(rng.integers(-5, 6)) for k in range(s)]], dtype=object),
        }

    @staticmethod
    def means(rng, row_values, exact: bool) -> list:
        """Four means around one row's distinct values: past each end,
        between two values, and at a value when ``exact``.  A float mean
        falls strictly between the floats of its neighbours, where a float
        comparison of the values and an exact one agree."""
        values = sorted(set(row_values))
        lo, hi = values[0], values[-1]
        if exact:
            between = [(Fraction(u) + v) / 2 for u, v in zip(values, values[1:])]
        else:
            between = [m for u, v in zip(values, values[1:]) for m in [float((u + v) / 2)]
                       if float(u) < m < float(v) and v - u > 1e-6 * max(1, abs(m))]
        pick = lambda options: options[int(rng.integers(len(options)))] if options else lo - 1  # noqa: E731
        means = [lo - abs(lo) - 1, hi + abs(hi) + 1, pick(between), pick(values if exact else between)]
        return means if exact else [float(m) for m in means]

    @pytest.mark.parametrize("cells", [None, 1, 7], ids=["default", "cells-1", "cells-7"])
    def test_matches_the_oracle(self, monkeypatch, cells):
        if cells is not None:
            monkeypatch.setattr(realz.core, "_BLOCK_CELLS", cells)
        rng = np.random.default_rng(101)
        domains = [random_domain(rng) for _ in range(12)] + [torus_domain((3, 3))]
        kinds = set()
        for dom in domains:
            X = enumerate_configurations(dom)
            for kind, F in self.stacks(rng, dom.site_count).items():
                values = oracle_values(F, X)
                # Beside exact tables an exact row's mean is exact; every
                # other mean is a float.
                for exact_tables in (False, True):
                    exact = exact_tables and kind != "float"
                    choices = [self.means(rng, row.tolist(), exact) for row in values]
                    for pick in range(4):
                        means = np.array([c[pick] for c in choices], dtype=object if exact else float)
                        got = realz.conditions._ranges(F, X, means)
                        expected = [oracle_bracket(row, m) for row, m in zip(values, means.tolist())]
                        if kind == "float":
                            assert got.dtype == np.float64
                            assert got.tolist() == [pytest.approx(e, rel=1e-12, abs=1e-12) for e in expected]
                        else:
                            assert got.tolist() == expected
                        kinds.add((kind, exact, got.dtype.kind))
        assert ("int-past-the-bound", True, "O") in kinds and ("int", False, "i") in kinds

    def test_values_closer_than_the_merge_tolerance_stay_apart(self):
        # range_of merges values within EQUALITY_TOL; the battery brackets
        # a mean between them by both.
        dom = complete_domain(2)
        f = np.array([1.0, 1.0 + 1e-13])
        assert f[1] - f[0] < realz.core.EQUALITY_TOL
        got = realz.conditions._ranges(f[None], enumerate_configurations(dom), np.array([1.0 + 5e-14]))
        assert got.tolist() == [[0.0, f[0] + f[1], f[0], f[1]]]
        assert range_of(f, dom).values == (0.0, 1.0, f[0] + f[1])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: mean_and_variance(pair_lattice_corr(0.5, 0.2), [1.0]), "observable length does not match correlations"),
        (lambda: check_gap(pair_lattice_corr(0.5, 0.2), [1.0], complete_domain(2)),
         "observable length does not match domain"),
    ],
    ids=["correlations", "domain"],
)
def test_refusals(build, message):
    with pytest.raises(DimensionError) as caught:
        build()
    assert type(caught.value) is DimensionError and str(caught.value) == message
