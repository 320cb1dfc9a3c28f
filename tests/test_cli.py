"""Command-line interface: exit codes, reports, round trips, determinism."""

import json

import pytest

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
        "section, field, value, flags",
        [
            ("domain", "exclusion_diameter", "x", []),
            ("domain", "occupancy_cap", "ab", []),
            (None, "group", {"torus_dims": ["x"]}, []),
            (None, "group", [2], []),
            (None, None, None, ["--group", "x"]),
        ],
        ids=["exclusion-diameter", "occupancy-cap", "torus-dims", "group-list", "group-flag"],
    )
    def test_malformed_field_exits_2(self, tmp_path, capsys, section, field, value, flags):
        instance = json.loads(json.dumps(BERNOULLI_INSTANCE))
        if field is not None:
            (instance[section] if section else instance)[field] = value
        path = write(tmp_path, "malformed.json", instance)
        assert main(["stationary", path, *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")

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

    def test_cap_override(self, tmp_path, capsys):
        instance = {
            "schema_version": 1,
            "domain": {"distance": [[0]], "occupancy_cap": [4]},
            "correlations": {"rho1": [0.3333333333333333], "rho2": [[1.0]]},
        }
        path = write(tmp_path, "override.json", instance)
        assert main(["check", path, "--cap-override", "3"]) == 3

    def test_determinism_modulo_timings(self, tmp_path, capsys):
        path = write(tmp_path, "example.json", EXAMPLE_INSTANCE)
        _, first = run(capsys, ["check", path])
        _, second = run(capsys, ["check", path])
        first.pop("timings")
        second.pop("timings")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_out_file_and_batch_mode(self, tmp_path, capsys):
        write(tmp_path, "a.json", EXAMPLE_INSTANCE)
        write(tmp_path, "b.json", BERNOULLI_INSTANCE)
        out_dir = tmp_path / "reports"
        code = main(["check", str(tmp_path), "--all", "--out", str(out_dir)])
        assert code == 3  # worst verdict wins
        reports = sorted(p.name for p in out_dir.glob("*.report.json"))
        assert reports == ["a.report.json", "b.report.json"]


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
        path = write(tmp_path, "skew.json", instance)
        assert main(["stationary", path, "--group", "2"]) == 2

    def test_missing_group_exits_2(self, tmp_path):
        path = write(tmp_path, "nogroup.json", BERNOULLI_INSTANCE)
        assert main(["stationary", path]) == 2

    def test_trivial_group_matches_check(self, tmp_path, capsys):
        instance = {
            "schema_version": 1,
            "domain": {"distance": [[0]], "occupancy_cap": [4]},
            "correlations": {"rho1": [0.25], "rho2": [[0.5]]},
        }
        path = write(tmp_path, "one.json", instance)
        check_code, _ = run(capsys, ["check", path])
        stationary_code, _ = run(capsys, ["stationary", path, "--group", "1"])
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


class TestEnvironment:
    def test_env_tolerance_respected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REALZ_TOL", "1e-6")
        path = write(tmp_path, "bernoulli.json", BERNOULLI_INSTANCE)
        code, report = run(capsys, ["check", path])
        assert code == 0
        assert report["options"]["tolerance"] == 1e-6

    def test_env_rational_respected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REALZ_RATIONAL", "1")
        instance = {
            "schema_version": 1,
            "domain": {"distance": [[0]], "occupancy_cap": [2]},
            "correlations": {"rho1": ["1/2"], "rho2": [["0"]]},
        }
        path = write(tmp_path, "exact.json", instance)
        code, report = run(capsys, ["check", path])
        assert code == 0
        assert report["options"]["arithmetic_mode"] == "rational"
