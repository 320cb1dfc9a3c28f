"""Command-line interface: exit codes, reports, round trips, determinism."""

import json
import math
import re
from fractions import Fraction

import numpy as np

import pytest

from realz import ValidationError, cli, enumeration, simplex, stationary
from realz.cli import main

EXAMPLE_INSTANCE = {
    "schema_version": 1,
    "domain": {"distance": [[0]], "occupancy_cap": [5]},
    "correlations": {"rho1": [0], "rho2": [[1]]},
}

BERNOULLI_INSTANCE = {
    "schema_version": 1,
    "domain": {"distance": [[0, 1], [1, 0]], "occupancy_cap": [1, 1]},
    "correlations": {"rho1": [0.5, 0.5], "rho2": [[0, 0.25], [0.25, 0]]},
}

PAIR_Q04_INSTANCE = {
    "schema_version": 1,
    "domain": {"distance": [[0, 1], [1, 0]], "occupancy_cap": [1, 1]},
    "correlations": {"rho1": [0.75, 0.75], "rho2": [[0, 0.4], [0.4, 0]]},
}

CYCLE5_INSTANCE = {
    "schema_version": 1,
    "domain": {
        "distance": [
            [0, 1, 2, 2, 1],
            [1, 0, 1, 2, 2],
            [2, 1, 0, 1, 2],
            [2, 2, 1, 0, 1],
            [1, 2, 2, 1, 0],
        ],
        "occupancy_cap": 1,
        "exclusion_diameter": 1.5,
    },
    "correlations": {
        "rho1": ["3/11"] * 5,
        "rho2": [
            ["0", "0", "1/11", "1/11", "0"],
            ["0", "0", "0", "1/11", "1/11"],
            ["1/11", "0", "0", "0", "1/11"],
            ["1/11", "1/11", "0", "0", "0"],
            ["0", "1/11", "1/11", "0", "0"],
        ],
    },
    "group": {"torus_dims": [5]},
}


def torus4_instance(rho, pair):
    """A stationary table on the (4,) torus: density ``rho`` and off-diagonal
    pair density ``pair`` on every site."""
    return {
        "schema_version": 1,
        "domain": {"distance": [[min(abs(i - j), 4 - abs(i - j)) for j in range(4)] for i in range(4)],
                   "occupancy_cap": 1},
        "correlations": {"rho1": [rho] * 4, "rho2": [[0 if i == j else pair for j in range(4)] for i in range(4)]},
        "group": {"torus_dims": [4]},
    }


#: Tables whose reduced pair correlation leaves the float range: rho^2
#: underflows to 0, rho2 / rho^2 overflows, or rho^2 overflows.
REDUCTION_PAST_THE_FLOAT_RANGE = {
    "underflow": torus4_instance(1e-200, 0),
    "overflow": torus4_instance(1e-150, 1e10),
    "square-overflow": torus4_instance(1e200, 0),
}

#: A custom function whose mean and variance are floats but whose upper
#: condition's side (hi - E)(E - lo) is not.
SIDES_PAST_THE_FLOAT_RANGE = {
    "schema_version": 1,
    "domain": {"distance": [[0]], "occupancy_cap": 100},
    "correlations": {"rho1": [0.5], "rho2": [[0]]},
    "test_families": [{"kind": "custom", "functions": [{"label": "f", "f": [1e154]}]}],
}


def strict(text):
    """``text`` read as strict JSON: ``NaN`` and the infinities are refused."""
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    return json.loads(text, parse_constant=refuse)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestCheck:
    def test_infeasible_instance_exits_3_with_certificate(self, tmp_path, capsys):
        path = write(tmp_path, "example.json", EXAMPLE_INSTANCE)
        code, report = run(capsys, ["check", path])
        assert code == 3
        assert report["verdict"] == "infeasible"
        assert "certificate" in report

    def test_feasible_instance_exits_0_with_witness(self, tmp_path, capsys):
        path = write(tmp_path, "bernoulli.json", BERNOULLI_INSTANCE)
        code, report = run(capsys, ["check", path])
        assert code == 0
        assert report["verdict"] == "feasible"
        total = sum(atom["weight"] for atom in report["witness"]["atoms"])
        assert total == pytest.approx(1.0)

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["check", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_schema_version_exits_2(self, tmp_path):
        path = write(tmp_path, "noversion.json", {"domain": {}, "correlations": {}})
        assert main(["check", path]) == 2

    @pytest.mark.parametrize(
        "section, field, value, group",
        [
            ("domain", "exclusion_diameter", "x", None),
            ("domain", "occupancy_cap", "ab", None),
            (None, "group", {"torus_dims": ["x"]}, None),
            (None, "group", {"torus_dims": [2.5]}, None),
            (None, "group", {"torus_dims": [True, 2]}, None),
            (None, "group", {"torus_dims": "2"}, None),
            (None, "group", [2], None),
            ("domain", "occupancy_cap", 2.0, None),
            ("domain", "occupancy_cap", None, None),
            ("domain", "site_labels", 5, None),
            (None, "correlations", [1], None),
            ("domain", "total_cap", True, {"torus_dims": [2]}),
            ("domain", "distance", [[0, 1], [1]], None),
            ("correlations", "rho2", [[0, 0.25], [0.25]], None),
        ],
        ids=[
            "exclusion-diameter",
            "occupancy-cap",
            "torus-dims",
            "torus-dims-fraction",
            "torus-dims-bool",
            "torus-dims-string",
            "group-list",
            "occupancy-cap-float",
            "occupancy-cap-null",
            "site-labels-int",
            "correlations-list",
            "total-cap-bool",
            "distance-ragged",
            "rho2-ragged",
        ],
    )
    def test_malformed_field_exits_2(self, tmp_path, capsys, section, field, value, group):
        instance = json.loads(json.dumps(BERNOULLI_INSTANCE))
        if group is not None:
            instance["group"] = group
        (instance[section] if section else instance)[field] = value
        path = write(tmp_path, "malformed.json", instance)
        assert main(["stationary", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count(path) == 1

    @pytest.mark.parametrize("command", ["check", "conditions", "third-moment", "stationary", "certify"])
    @pytest.mark.parametrize(
        "dims, message",
        [([0], "group.torus_dims: torus dimensions must be positive integers, got (0,)")],
        ids=["file-zero"],
    )
    def test_nonpositive_torus_dims_exit_2_in_every_command(self, tmp_path, capsys, command, dims, message):
        # Refused at load time, so no command runs on such a torus.
        instance = {
            "schema_version": 1,
            "domain": {"distance": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "occupancy_cap": 1},
            "correlations": {"rho1": ["1/2"] * 3, "rho2": [[0, "1/4", "1/4"], ["1/4", 0, "1/4"], ["1/4", "1/4", 0]]},
        }
        instance["group"] = {"torus_dims": dims}
        path = write(tmp_path, "torus3.json", instance)
        cert = write(tmp_path, "cert.json", {"f0": 1, "f1": [0, 0, 0], "f2": [[0] * 3] * 3})
        assert main([command, path, *([cert] if command == "certify" else [])]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    def test_rational_mode_round_trip(self, tmp_path, capsys):
        instance = {
            "schema_version": 1,
            "domain": {"distance": [[0]], "occupancy_cap": [4]},
            "correlations": {"rho1": ["1/3"], "rho2": [["1"]]},
        }
        path = write(tmp_path, "exact.json", instance)
        code, report = run(capsys, ["check", path, "--rational"])
        assert code == 0
        weights = {
            tuple(a["occupancy"]): a["weight"] for a in report["witness"]["atoms"]
        }
        assert weights[(0,)] == "11/12"
        assert weights[(4,)] == "1/12"

    def test_determinism_modulo_timings(self, tmp_path, capsys):
        path = write(tmp_path, "example.json", EXAMPLE_INSTANCE)
        _, first = run(capsys, ["check", path])
        _, second = run(capsys, ["check", path])
        first.pop("timings")
        second.pop("timings")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_reports_are_compact_and_byte_identical(self, tmp_path):
        # Two runs write the same bytes apart from the seconds, as the C
        # encoder's compact JSON with sorted keys on one line.
        path = write(tmp_path, "cycle.json", CYCLE5_INSTANCE)
        texts = []
        for k in range(2):
            out = tmp_path / f"report{k}.json"
            assert main(["stationary", path, "--out", str(out)]) == 0
            texts.append(out.read_text())
        for text in texts:
            assert text.endswith("}\n") and text.count("\n") == 1
            assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        timings = re.compile(r'"timings": \{"seconds": [^}]*\}')
        assert all(len(timings.findall(text)) == 1 for text in texts)
        assert timings.sub("", texts[0]) == timings.sub("", texts[1])

    @pytest.mark.parametrize(
        "target, reason",
        [("", "[Errno 21] Is a directory"), ("bernoulli.json/report.json", "[Errno 20] Not a directory")],
        ids=["directory", "under-a-file"],
    )
    def test_unwritable_out_exits_2(self, tmp_path, capsys, target, reason):
        path = write(tmp_path, "bernoulli.json", BERNOULLI_INSTANCE)
        out = tmp_path / target
        assert main(["check", path, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: cannot write report: {reason}: '{out}'\n")

    @pytest.mark.parametrize("command", ["check", "conditions", "certify"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_nonfinite_tables_exit_2(self, tmp_path, capsys, command, bad):
        # JSON as Python reads it: NaN and Infinity are numbers there.
        instance = json.loads(json.dumps(BERNOULLI_INSTANCE))
        instance["correlations"]["rho1"] = [bad, 0.5]
        path = write(tmp_path, "nonfinite.json", instance)
        cert = write(tmp_path, "cert.json", {"f0": 1, "f1": [0, 0], "f2": [[0, 0], [0, 0]]})
        assert main([command, path, *([cert] if command == "certify" else [])]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: correlation entries must be finite\n")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("distance", [[0, 10**400], [10**400, 0]], "distances must lie within the float range"),
            ("distance", [[0, "1/3"], [str(10**400), 0]], "distances must lie within the float range"),
            ("exclusion_diameter", 10**400, "exclusion_diameter must lie within the float range"),
        ],
        ids=["int-distance", "string-distance", "exclusion"],
    )
    def test_domain_past_the_float_range_exits_2(self, tmp_path, capsys, field, value, message):
        instance = json.loads(json.dumps(BERNOULLI_INSTANCE))
        instance["domain"][field] = value
        path = write(tmp_path, "huge-domain.json", instance)
        for command in ("check", "conditions"):
            assert main([command, path]) == 2
            assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    def test_entries_past_the_float_range(self, tmp_path, capsys):
        # An exact entry is finite, however large: rational mode decides the
        # table, and float arithmetic refuses it.
        instance = {
            "schema_version": 1,
            "domain": {"distance": [[0]], "occupancy_cap": 2},
            "correlations": {"rho1": [10**400], "rho2": [[0]]},
        }
        path = write(tmp_path, "huge.json", instance)
        for command in ("check", "conditions", "third-moment"):
            assert main([command, path]) == 2
            assert capsys.readouterr() == ("", f"error: {path}: correlation entries must lie within the float range\n")
        code, report = run(capsys, ["check", path, "--rational"])
        assert (code, report["verdict"]) == (3, "infeasible")
        cert = write(tmp_path, "cert.json", dict(report["certificate"], schema_version=1))
        code, report = run(capsys, ["certify", path, cert, "--rational"])
        assert (code, report["verdict"], report["options"]["tolerance"]) == (0, "valid", 0)

    @pytest.mark.parametrize("value", ["3/2", "1.5"], ids=["fraction", "decimal"])
    def test_exclusion_diameter_reads_like_a_distance(self, tmp_path, capsys, value):
        # A rational string, as in the distances, reads as the number 1.5.
        reports = []
        for diameter in (1.5, value):
            instance = dict(CYCLE5_INSTANCE, domain=dict(CYCLE5_INSTANCE["domain"], exclusion_diameter=diameter))
            path = write(tmp_path, "cycle.json", instance)
            assert cli.load_instance(path)["domain"].exclusion_diameter == 1.5
            code, report = run(capsys, ["check", path, "--rational"])
            reports.append((code, report["verdict"], report["witness"]))
        assert reports[0] == reports[1] and reports[0][:2] == (0, "feasible")

    @pytest.mark.parametrize("value", ["x", "1/0", True], ids=["word", "zero-denominator", "bool"])
    def test_malformed_exclusion_diameter_exits_2(self, tmp_path, capsys, value):
        instance = dict(CYCLE5_INSTANCE, domain=dict(CYCLE5_INSTANCE["domain"], exclusion_diameter=value))
        path = write(tmp_path, "cycle.json", instance)
        assert main(["check", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: domain.exclusion_diameter: ")


class TestConditions:
    def test_gap_failure_reported_as_worst(self, tmp_path, capsys):
        path = write(tmp_path, "q04.json", PAIR_Q04_INSTANCE)
        code, report = run(capsys, ["conditions", path])
        assert code == 3
        assert report["conditions"]["worst"]["condition"] == "gap"
        assert report["conditions"]["worst"]["test_function"] == "pair(0,1)"

    def test_realizable_instance_exits_0(self, tmp_path, capsys):
        path = write(tmp_path, "bernoulli.json", BERNOULLI_INSTANCE)
        code, report = run(capsys, ["conditions", path])
        assert code == 0
        assert report["conditions"]["overall"] is True

    @pytest.mark.parametrize("f", [10**330, 10**200], ids=["entry", "square"])
    def test_test_function_past_the_float_range_exits_2(self, tmp_path, capsys, f):
        # As a table entry past the float range is: a message, not a traceback.
        instance = {
            "schema_version": 1,
            "domain": {"distance": [[0]], "occupancy_cap": 3},
            "correlations": {"rho1": [0.5], "rho2": [[0]]},
            "test_families": [{"kind": "custom", "functions": [{"label": "f", "f": [f]}]}],
        }
        path = write(tmp_path, "huge-f.json", instance)
        assert main(["conditions", path]) == 2
        message = "test function entries and their squares must lie within the float range"
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    def test_test_function_moments_past_the_float_range_exit_2(self, tmp_path, capsys):
        # 1e155 is a float, but its square times rho1 is not: a message and
        # no RuntimeWarning, where NaN margins once gave a report that was
        # not JSON.
        instance = {
            "schema_version": 1,
            "domain": {"distance": [[0]], "occupancy_cap": 3},
            "correlations": {"rho1": [0.5], "rho2": [[0]]},
            "test_families": [{"kind": "custom", "functions": [{"label": "f", "f": [1e155]}]}],
        }
        path = write(tmp_path, "huge-moments.json", instance)
        assert main(["conditions", path]) == 2
        message = "test function means and variances must lie within the float range"
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    def test_condition_sides_past_the_float_range_exit_2(self, tmp_path, capsys):
        # The upper verdict's side and margin overflowed to inf and passed,
        # and the report carried "Infinity", which is not JSON.
        path = write(tmp_path, "huge-sides.json", SIDES_PAST_THE_FLOAT_RANGE)
        assert main(["conditions", path]) == 2
        message = "condition sides and margins must lie within the float range"
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    def test_empty_family_exits_0(self, tmp_path, capsys):
        instance = dict(BERNOULLI_INSTANCE)
        instance["test_families"] = [{"kind": "custom", "functions": []}]
        path = write(tmp_path, "empty.json", instance)
        code, report = run(capsys, ["conditions", path])
        assert code == 0
        assert report["conditions"]["verdicts"] == []

    def test_family_flag(self, tmp_path, capsys):
        path = write(tmp_path, "bernoulli.json", BERNOULLI_INSTANCE)
        code, report = run(capsys, ["conditions", path, "--family", "singletons"])
        assert code == 0
        labels = {v["test_function"] for v in report["conditions"]["verdicts"]}
        assert labels == {"site(0)", "site(1)"}


    @pytest.mark.parametrize(
        "families, flags, message",
        [
            (None, ["--family", "balls:x"], "ball radius"),
            ([{"kind": "balls", "radius": "x"}], [], "ball radius"),
            (None, ["--family", "balls:1e999"], "ball radius"),
            (None, ["--family", "balls:-1"], "ball radius must be nonnegative, got -1.0"),
            ([{"kind": "balls", "radius": math.nan}], [], "ball radius must be nonnegative, got nan"),
            ([{"kind": "balls", "radius": -0.5}], [], "ball radius must be nonnegative, got -0.5"),
            ([{"kind": "custom", "functions": [{"id": "a"}]}], [], "f array"),
            ([{"kind": "custom", "functions": [[1, 0]]}], [], "f array"),
            ("singletons", [], "test_families"),
            # Two flags, not one ("balls", "pairs") descriptor.
            (None, ["--family", "balls", "--family", "pairs"], "needs a radius: balls:R"),
            (None, ["--family", "custom", "--family", "pairs"], "custom family needs its functions"),
            # An object without its parameter is refused like the bare flag, never defaulted.
            ([{"kind": "balls"}], [], "needs a radius: balls:R"),
            ([{"kind": "custom"}], [], "custom family needs its functions"),
            ([{"kind": "custom", "functions": [{"f": [float("nan"), 1.0]}]}], [], "must be finite"),
            ([{"kind": "custom", "functions": [{"f": [1.0, float("inf")]}]}], [], "must be finite"),
            ([{"kind": "custom", "functions": [{"f": ["1/2", float("-inf")]}]}], [], "must be finite"),
        ],
        ids=[
            "balls-flag",
            "balls-radius",
            "balls-flag-past-float",
            "balls-flag-negative",
            "balls-radius-nan",
            "balls-radius-negative",
            "custom-without-f",
            "custom-not-object",
            "string",
            "bare-balls-flag",
            "bare-custom-flag",
            "balls-without-radius",
            "custom-without-functions",
            "custom-nan",
            "custom-infinity",
            "custom-minus-infinity",
        ],
    )
    def test_malformed_family_exits_2(self, tmp_path, capsys, families, flags, message):
        instance = dict(BERNOULLI_INSTANCE, test_families=families)
        path = write(tmp_path, "family.json", instance)
        assert main(["conditions", path, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err
        assert err.count(path) == 1


class TestThirdMoment:
    def test_two_atom_reports_r_star(self, tmp_path, capsys):
        instance = {
            "schema_version": 1,
            "domain": {"distance": [[0]], "occupancy_cap": [4]},
            "correlations": {"rho1": ["1/3"], "rho2": [["1"]]},
        }
        path = write(tmp_path, "m3.json", instance)
        code, report = run(capsys, ["third-moment", path, "--rational"])
        assert code == 0
        assert report["r_star"] == "2"

    def test_empty_correlations_give_zero(self, tmp_path, capsys):
        instance = {
            "schema_version": 1,
            "domain": {"distance": [[0]], "occupancy_cap": [3]},
            "correlations": {"rho1": [0], "rho2": [[0]]},
        }
        path = write(tmp_path, "empty.json", instance)
        code, report = run(capsys, ["third-moment", path, "--rational"])
        assert code == 0
        assert report["r_star"] == "0"

    def test_infeasible_exits_3(self, tmp_path, capsys):
        path = write(tmp_path, "example.json", EXAMPLE_INSTANCE)
        code, report = run(capsys, ["third-moment", path])
        assert code == 3
        assert "certificate" in report


class TestStationary:
    def test_cycle_fixture(self, tmp_path, capsys):
        path = write(tmp_path, "cycle.json", CYCLE5_INSTANCE)
        code, report = run(capsys, ["stationary", path, "--rational"])
        assert code == 0
        assert report["verdict"] == "feasible"
        assert report["reduced"]["rho"] == "3/11"
        assert report["reduced"]["g2"]["2"] == "11/9"

    def test_nonstationary_exits_2(self, tmp_path, capsys):
        instance = dict(PAIR_Q04_INSTANCE)
        instance = json.loads(json.dumps(instance))
        instance["correlations"]["rho1"] = [0.7, 0.8]
        instance["group"] = {"torus_dims": [2]}
        path = write(tmp_path, "skew.json", instance)
        assert main(["stationary", path]) == 2

    def test_rational_mode_refuses_tables_stationary_only_within_the_tolerance(self, tmp_path, capsys):
        # Stationary within EQUALITY_TOL, not exactly: the full check refutes
        # the table, and the orbit check, which reads site 0's entries for
        # both sites, must not answer for another table.
        half, nudge = Fraction(1, 2), Fraction(1, 10**13)
        pair = str(half - nudge / 2)
        instance = {
            "schema_version": 1,
            "domain": {"distance": [[0, 1], [1, 0]], "occupancy_cap": [1, 1]},
            "correlations": {"rho1": [str(half + nudge), str(half - nudge)], "rho2": [["0", pair], [pair, "0"]]},
            "group": {"torus_dims": [2]},
        }
        path = write(tmp_path, "nearly.json", instance)
        assert run(capsys, ["check", path, "--rational"])[0] == 3
        assert main(["stationary", path, "--rational"]) == 2
        assert "not exactly stationary" in capsys.readouterr().err

    def test_missing_group_exits_2(self, tmp_path):
        path = write(tmp_path, "nogroup.json", BERNOULLI_INSTANCE)
        assert main(["stationary", path]) == 2

    def test_one_group_build_and_one_stationarity_check(self, tmp_path, capsys, monkeypatch):
        # Every comparison of the tables with their images goes through
        # stationary._stationary, in rational mode one exact pass.
        calls = {"translation_group": 0, "_stationary": 0}

        def counted(module, name):
            original = getattr(module, name)

            def spy(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)

        counted(cli, "translation_group")
        counted(stationary, "translation_group")
        counted(stationary, "_stationary")
        path = write(tmp_path, "cycle.json", CYCLE5_INSTANCE)
        code, report = run(capsys, ["stationary", path, "--rational"])
        assert code == 0
        assert report["reduced"]["g2"]["2"] == "11/9"
        assert calls == {"translation_group": 1, "_stationary": 1}

    @pytest.mark.parametrize(
        "case, code, verdict",
        [("underflow", 0, "feasible"), ("overflow", 3, "infeasible"), ("square-overflow", 3, "infeasible")],
    )
    def test_reduction_past_the_float_range_writes_null(self, tmp_path, capsys, case, code, verdict):
        # The verdict and exit code stand; the reduction, which held NaN or
        # Infinity, or 0 after a RuntimeWarning, is null as for a zero density.
        path = write(tmp_path, f"{case}.json", REDUCTION_PAST_THE_FLOAT_RANGE[case])
        assert main(["stationary", path]) == code
        report = strict(capsys.readouterr().out)
        assert (report["verdict"], report["reduced"]) == (verdict, None)
        assert run(capsys, ["check", path])[0] == code

    def test_trivial_group_matches_check(self, tmp_path, capsys):
        instance = {
            "schema_version": 1,
            "domain": {"distance": [[0]], "occupancy_cap": [4]},
            "correlations": {"rho1": [0.25], "rho2": [[0.5]]},
            "group": {"torus_dims": [1]},
        }
        path = write(tmp_path, "one.json", instance)
        check_code, _ = run(capsys, ["check", path])
        stationary_code, _ = run(capsys, ["stationary", path])
        assert check_code == stationary_code


class TestCertify:
    def test_emitted_certificate_round_trips(self, tmp_path, capsys):
        path = write(tmp_path, "example.json", EXAMPLE_INSTANCE)
        code, report = run(capsys, ["check", path])
        assert code == 3
        cert = dict(report["certificate"])
        cert["schema_version"] = 1
        cert_path = write(tmp_path, "cert.json", cert)
        assert main(["certify", path, cert_path]) == 0

    def test_empty_space_certificate_round_trips(self, tmp_path, capsys):
        instance = json.loads(json.dumps(BERNOULLI_INSTANCE))
        instance["domain"]["total_exact"] = 3  # two sites of cap 1
        path = write(tmp_path, "empty.json", instance)
        code, report = run(capsys, ["check", path])
        assert code == 3
        cert = dict(report["certificate"])
        cert["schema_version"] = 1
        cert_path = write(tmp_path, "cert.json", cert)
        assert main(["certify", path, cert_path]) == 0

    def test_constant_one_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "example.json", EXAMPLE_INSTANCE)
        cert_path = write(
            tmp_path, "unit.json",
            {"schema_version": 1, "f0": 1, "f1": [0], "f2": [[0]]},
        )
        assert main(["certify", path, cert_path]) == 3

    def test_certificate_against_wrong_instance_rejected(self, tmp_path, capsys):
        example = write(tmp_path, "example.json", EXAMPLE_INSTANCE)
        code, report = run(capsys, ["check", example])
        cert = dict(report["certificate"])
        cert["schema_version"] = 1
        cert_path = write(tmp_path, "cert.json", cert)
        other = {
            "schema_version": 1,
            "domain": {"distance": [[0]], "occupancy_cap": [5]},
            "correlations": {"rho1": [0.5], "rho2": [[0.25]]},
        }
        other_path = write(tmp_path, "other.json", other)
        assert main(["certify", other_path, cert_path]) == 3


    def test_rational_replay_is_exact(self, tmp_path, capsys):
        # One site of cap 1 cannot hold a mean of 2.  f0 - n is -1e-12 on
        # the occupied configuration: within the float tolerance, not exact.
        instance = {
            "schema_version": 1,
            "domain": {"distance": [[0]], "occupancy_cap": [1]},
            "correlations": {"rho1": ["2"], "rho2": [["0"]]},
        }
        path = write(tmp_path, "two.json", instance)
        near = {"schema_version": 1, "f0": "999999999999/1000000000000", "f1": ["-1"], "f2": [["0"]]}
        near_path = write(tmp_path, "near.json", near)
        code, report = run(capsys, ["certify", path, near_path])
        assert (code, report["verdict"]) == (0, "valid")
        assert report["options"]["tolerance"] == 1e-9
        code, report = run(capsys, ["certify", path, near_path, "--rational"])
        assert (code, report["verdict"]) == (3, "invalid")
        # The report names the bar the replay applied.
        assert report["options"] == {"tolerance": 0, "arithmetic_mode": "rational"}
        exact = dict(near, f0="1")
        exact_path = write(tmp_path, "exact.json", exact)
        code, report = run(capsys, ["certify", path, exact_path, "--rational"])
        assert (code, report["verdict"]) == (0, "valid")
        assert report["options"]["tolerance"] == 0

    @pytest.mark.parametrize(
        "field, value", [("f1", [math.inf, 0]), ("f1", [0, -math.inf]), ("f0", math.nan)], ids=["f1-inf", "f1-minus-inf", "f0-nan"]
    )
    def test_nonfinite_certificate_exits_2(self, tmp_path, capsys, field, value):
        path = write(tmp_path, "bernoulli.json", BERNOULLI_INSTANCE)
        cert = write(tmp_path, "cert.json", {"f0": 1, "f1": [0, 0], "f2": [[0, 0], [0, 0]], field: value})
        assert main(["certify", path, cert]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: certificate coefficients must be finite\n")

    @pytest.mark.parametrize("where", ["certificate", "tables"])
    def test_rational_replay_rejects_float_entries(self, tmp_path, capsys, where):
        instance = {
            "schema_version": 1,
            "domain": {"distance": [[0]], "occupancy_cap": [1]},
            "correlations": {"rho1": ["2"], "rho2": [["0"]]},
        }
        cert = {"schema_version": 1, "f0": "1", "f1": ["-1"], "f2": [["0"]]}
        if where == "certificate":
            cert["f1"] = [-1.0]
        else:
            instance["correlations"]["rho1"] = [2.0]
        path = write(tmp_path, "two.json", instance)
        cert_path = write(tmp_path, "cert.json", cert)
        assert main(["certify", path, cert_path, "--rational"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rational mode requires int or Fraction" in captured.err
        assert main(["certify", path, cert_path]) == 0

    def test_rational_certificate_round_trips(self, tmp_path, capsys):
        instance = json.loads(json.dumps(CYCLE5_INSTANCE))
        instance["correlations"]["rho2"] = [[str(2 * Fraction(v)) for v in row] for row in instance["correlations"]["rho2"]]
        path = write(tmp_path, "cycle.json", instance)
        code, report = run(capsys, ["check", path, "--rational"])
        assert code == 3
        cert = dict(report["certificate"], schema_version=1)
        assert all(isinstance(v, str) for v in [cert["f0"], *cert["f1"]])
        cert_path = write(tmp_path, "cert.json", cert)
        code, report = run(capsys, ["certify", path, cert_path, "--rational"])
        assert (code, report["verdict"]) == (0, "valid")


    @pytest.mark.parametrize("group, count", [(None, 11), ([5], 3), ([4], 11)], ids=str)
    def test_replay_reads_orbits_under_the_instance_group(self, tmp_path, capsys, group, count):
        # The 5-cycle with a hard core has 11 configurations in 3 orbits.  A
        # group that does not act on the domain leaves the replay in full.
        instance = json.loads(json.dumps(CYCLE5_INSTANCE))
        instance["correlations"]["rho2"] = [[str(2 * Fraction(v)) for v in row] for row in instance["correlations"]["rho2"]]
        path = write(tmp_path, "cycle.json", instance)
        code, report = run(capsys, ["stationary", path])
        assert code == 3
        cert_path = write(tmp_path, "cert.json", dict(report["certificate"], schema_version=1))
        if group is None:
            del instance["group"]
        else:
            instance["group"] = {"torus_dims": group}
        path = write(tmp_path, "cycle.json", instance)
        code, report = run(capsys, ["certify", path, cert_path])
        assert (code, report["verdict"], report["replay_configurations"]) == (0, "valid", count)


class TestParsing:
    """Arrays of JSON ints and floats are built in one numpy call, with the
    dtype and values of the per-entry path."""

    VECTORS = {
        "float": [0.5, 0.25, 1e-300],
        "int": [0, 1, 2**70],
        "mixed": [1, 0.5, 2],
        "string": ["1/3", 2, "0"],
        "string-float": ["1/3", 0.5],
        "empty": [],
    }

    @pytest.mark.parametrize("kind", VECTORS)
    def test_fast_path_matches_entry_path(self, kind):
        vector = self.VECTORS[kind]
        got, want = cli._parse_vector(vector, "v"), cli._parse_entries(vector, "v", matrix=False)
        matrix = [vector, vector[::-1]]
        got_m, want_m = cli._parse_matrix(matrix, "m"), cli._parse_entries(matrix, "m", matrix=True)
        for a, b in ((got, want), (got_m, want_m)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert [type(v) for v in a.flat] == [type(v) for v in b.flat]
            assert a.tolist() == b.tolist()
        assert got.dtype == (np.dtype(float) if kind in ("float", "mixed", "string-float") else object)

    @pytest.mark.parametrize("vector", [[10**400, 0.5], [0.5, "1/3", 10**400], ["1e400", 0.5]],
                             ids=["int", "int-entry-path", "string"])
    def test_exact_entries_past_the_float_range_among_floats_are_refused(self, vector):
        with pytest.raises(ValidationError, match="^v: an exact entry past the float range among float entries$"):
            cli._parse_vector(vector, "v")
        with pytest.raises(ValidationError, match="^m: an exact entry past the float range among float entries$"):
            cli._parse_matrix([vector], "m")

    @pytest.mark.parametrize("vector", [[True, 1], [1.0, False], [None], [[1]]], ids=str)
    def test_bools_and_other_entries_are_refused(self, vector):
        with pytest.raises(ValidationError, match="expected a number"):
            cli._parse_vector(vector, "v")
        with pytest.raises(ValidationError, match="expected a number"):
            cli._parse_matrix([vector], "m")


class TestReportedBar:
    @pytest.mark.parametrize("command", ["check", "conditions", "third-moment", "stationary", "certify"])
    def test_reports_state_the_bar_they_compared_at(self, tmp_path, capsys, command):
        # An exact verdict compares at 0; the battery compares at the float
        # bar in both modes, and every float verdict at simplex.TOLERANCE.
        path = write(tmp_path, "cycle5.json", CYCLE5_INSTANCE)
        cert = {"schema_version": 1, "f0": "1", "f1": ["0"] * 5, "f2": [["0"] * 5] * 5}
        certificate = [write(tmp_path, "cert.json", cert)] if command == "certify" else []
        for flags, mode in (([], "float"), (["--rational"], "rational")):
            code, report = run(capsys, [command, path, *certificate, *flags])
            assert code in (0, 3)
            exact = mode == "rational" and command != "conditions"
            assert report["options"] == {"tolerance": 0 if exact else simplex.TOLERANCE, "arithmetic_mode": mode}


class TestStrictJson:
    def test_every_report_is_strict_json(self, tmp_path, capsys):
        # Every command's report, and the two tables whose reduction left
        # the float range; the battery whose sides left it writes none.
        cycle = write(tmp_path, "cycle5.json", CYCLE5_INSTANCE)
        example = write(tmp_path, "example.json", EXAMPLE_INSTANCE)
        code, report = run(capsys, ["check", example])
        cert = write(tmp_path, "cert.json", {"schema_version": 1, **report["certificate"]})
        runs = [["certify", example, cert], ["check", example]]
        for command in ("check", "conditions", "third-moment", "stationary"):
            runs += [[command, cycle], [command, cycle, "--rational"]]
        for case, instance in REDUCTION_PAST_THE_FLOAT_RANGE.items():
            runs.append(["stationary", write(tmp_path, f"{case}.json", instance)])
        for argv in runs:
            assert main(argv) in (0, 3)
            assert strict(capsys.readouterr().out)["command"] == argv[0]
        assert main(["conditions", write(tmp_path, "huge-sides.json", SIDES_PAST_THE_FLOAT_RANGE)]) == 2
        assert capsys.readouterr().out == ""


def one_site_instance(n):
    """One site holding exactly ``n`` particles: one configuration, and its
    tables."""
    return {
        "schema_version": 1,
        "domain": {"distance": [[0]], "occupancy_cap": n, "total_exact": n},
        "correlations": {"rho1": [n], "rho2": [[n * (n - 1)]]},
        "group": {"torus_dims": [1]},
    }


class TestPastInt64:
    SOLVES = [["check"], ["check", "--rational"], ["third-moment", "--rational"]]

    @pytest.mark.parametrize("argv", SOLVES, ids=" ".join)
    def test_moments_within_int64_answer(self, tmp_path, capsys, argv):
        # The count hull once took a 22 GiB bincount here.
        path = write(tmp_path, "mid.json", one_site_instance(3_000_000_000))
        code, report = run(capsys, [argv[0], path, *argv[1:]])
        assert code == 0 and report["verdict"] == "feasible"

    @pytest.mark.parametrize("argv", SOLVES, ids=" ".join)
    def test_moments_past_int64_exit_2(self, tmp_path, capsys, argv):
        n = 2**40
        path = write(tmp_path, "big.json", one_site_instance(n))
        assert main([argv[0], path, *argv[1:]]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: pair moments up to {n} * {n - 1} are past int64\n")

    @pytest.mark.parametrize("command", ["check", "conditions", "third-moment", "stationary", "certify"])
    def test_counts_past_int64_exit_2(self, tmp_path, capsys, command):
        n = 2**63
        path = write(tmp_path, "big63.json", one_site_instance(n))
        cert = write(tmp_path, "cert.json", {"f0": 1, "f1": [0], "f2": [[0]]})
        assert main([command, path, *([cert] if command == "certify" else [])]) == 2
        message = f"configurations of up to {n} particles are past int64"
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

class TestEnvironment:
    def test_parser_is_built_once(self, tmp_path, capsys, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        path = write(tmp_path, "bernoulli.json", BERNOULLI_INSTANCE)
        for command in ("check", "conditions", "third-moment", "check"):
            code, report = run(capsys, [command, path])
            assert code == 0
            assert report["command"] == command
        assert len(builds) == 1
        cli._parser.cache_clear()

    def test_realz_variables_are_ignored(self, tmp_path, capsys, monkeypatch):
        # Once read as flag defaults; malformed values would have exited 2.
        for name, value in (("TOL", "abc"), ("CAP_OVERRIDE", "x"), ("RATIONAL", "1"), ("FAMILY", "bogus")):
            monkeypatch.setenv(f"REALZ_{name}", value)
        cli._parser.cache_clear()  # built afresh while they are set
        path = write(tmp_path, "bernoulli.json", BERNOULLI_INSTANCE)
        code, report = run(capsys, ["check", path])
        assert code == 0 and report["verdict"] == "feasible"
        assert report["options"] == {"tolerance": 1e-9, "arithmetic_mode": "float"}

    def test_every_command_reads_one_file_with_three_flags(self, tmp_path, capsys):
        commands = cli.build_parser()._subparsers._group_actions[0].choices
        assert list(commands) == ["check", "conditions", "third-moment", "stationary", "certify"]
        for name, parser in commands.items():
            options = {o for action in parser._actions for o in action.option_strings if o != "-h"}
            assert options == {"--help", "--rational", "--out", *(["--family"] if name == "conditions" else [])}
        path = write(tmp_path, "bernoulli.json", BERNOULLI_INSTANCE)
        # Float mode solves and replays at one constant, simplex.TOLERANCE.
        removed = [("check", flags) for flags in (["--all"], ["--group", "2"], ["--cap-override", "3"])]
        removed += [(name, ["--tol", "1e-6"]) for name in commands]
        for name, flags in removed:
            certificate = ["cert.json"] if name == "certify" else []
            with pytest.raises(SystemExit) as exc:
                main([name, path, *certificate, *flags])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err

    def test_iteration_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        # The Bernoulli(1/2) table on four sites: phase 1 makes 5 pivots
        # from the crash basis (the two-site one makes none).
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 1)
        path = write(tmp_path, "bernoulli.json", torus4_instance(0.5, 0.25))
        assert main(["check", path]) == 2
        assert capsys.readouterr().err == f"error: {path}: simplex exceeded 1 pivots in phase 1\n"

    @pytest.mark.parametrize(
        "command, message",
        [
            ("check", "4 configurations, past enumeration.MAX_CONFIGURATIONS = 2"),
            ("conditions", "4 configurations, past enumeration.MAX_CONFIGURATIONS = 2"),
            ("stationary", "3 or more orbit representatives or prefixes, past enumeration.MAX_CONFIGURATIONS = 2"),
            ("certify", "3 or more orbit representatives or prefixes, past enumeration.MAX_CONFIGURATIONS = 2"),
        ],
    )
    def test_capacity_error_exits_2(self, tmp_path, capsys, monkeypatch, command, message):
        # The Bernoulli instance has 4 configurations in 3 orbits of the (2,) torus.
        monkeypatch.setattr(enumeration, "MAX_CONFIGURATIONS", 2)
        path = write(tmp_path, "bernoulli.json", dict(BERNOULLI_INSTANCE, group={"torus_dims": [2]}))
        cert = write(tmp_path, "cert.json", {"f0": 1, "f1": [0, 0], "f2": [[0, 0], [0, 0]]})
        assert main([command, path, *([cert] if command == "certify" else [])]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def _instance_with(tmp_path, **sections):
    return cli.load_instance(write(tmp_path, "instance.json", {**BERNOULLI_INSTANCE, **sections}))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda tmp: _instance_with(tmp, correlations={"rho1": 0.5, "rho2": [[0.0]]}),
         "correlations.rho1: expected an array"),
        (lambda tmp: _instance_with(tmp, schema_version=2), "unsupported schema_version 2"),
        (lambda tmp: _instance_with(tmp, domain={"distance": [[0]]}), "domain needs distance and occupancy_cap"),
        (lambda tmp: _instance_with(tmp, correlations={"rho1": [0.5], "rho2": [[0.0]]}),
         "correlations do not match the domain size"),
        (lambda tmp: cli.load_certificate(tmp / "missing.json"),
         "cannot read certificate {tmp}/missing.json: [Errno 2] No such file or directory: '{tmp}/missing.json'"),
        (lambda tmp: cli.load_certificate(write(tmp, "cert.json", {"f0": 0, "f1": [0]})),
         "{tmp}/cert.json: certificate needs f0, f1 and f2"),
        (lambda tmp: cli._parse_family(5), "unknown test-function family 5"),
        (lambda tmp: _instance_with(tmp, group={"torus_dims": [3, 0]}),
         "group.torus_dims: torus dimensions must be positive integers, got (3, 0)"),
    ],
    ids=["vector-not-array", "schema-version", "domain-fields", "size-mismatch", "certificate-unreadable",
         "certificate-fields", "family-kind", "torus-dims-zero"],
)
def test_refusals(tmp_path, build, message):
    with pytest.raises(ValidationError) as caught:
        build(tmp_path)
    assert type(caught.value) is ValidationError and str(caught.value) == message.format(tmp=tmp_path)
