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
from realz.conditions import PASS_TOL, ConditionVerdict, family_functions
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
        return ConditionVerdict(name, label, lhs, rhs, margin, margin >= -PASS_TOL)

    bounds = verdict("mean_bounds", min(mean - lo, hi - mean), 0)
    upper = verdict("upper", (hi - mean) * (mean - lo), var)
    if mean < lo:
        bracket = (lo, lo) if lo - mean <= PASS_TOL else None
    elif mean > hi:
        bracket = (hi, hi) if mean - hi <= PASS_TOL else None
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
