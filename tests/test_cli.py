import csv
import json

import numpy as np
import pytest

from snstat.cli import CsvError, ingest_csv, main
from snstat.inference import sn_ci
from snstat.lrv import lrv_selfnorm
from snstat.simgen import ErrorModel, SigmaProfile, SimModel, generate


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def write_csv(path, values, header=("value",), extra_col=None):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if header:
            w.writerow(header)
        for i, v in enumerate(values, start=1):
            if extra_col:
                w.writerow([extra_col[i - 1], v])
            else:
                w.writerow([v])
    return str(path)


class TestIngestCsv:
    def test_bad_cell_names_row(self, tmp_path):
        vals = [str(v) for v in range(30)]
        vals[16] = "NA"
        path = write_csv(tmp_path / "bad.csv", vals)
        with pytest.raises(CsvError, match="row 17"):
            ingest_csv(path)

    def test_no_header_single_column(self, tmp_path):
        path = write_csv(tmp_path / "plain.csv", [1.5, 2.5, 3.5], header=None)
        values, labels = ingest_csv(path, no_header=True)
        np.testing.assert_array_equal(values, [1.5, 2.5, 3.5])
        assert labels is None

    def test_two_columns_default_to_second(self, tmp_path):
        path = write_csv(
            tmp_path / "two.csv",
            [10.0, 20.0],
            header=("date", "value"),
            extra_col=["a", "b"],
        )
        values, _ = ingest_csv(path)
        np.testing.assert_array_equal(values, [10.0, 20.0])

    def test_column_by_name_and_index_labels(self, tmp_path):
        path = write_csv(
            tmp_path / "named.csv",
            [4.0, 5.0],
            header=("year", "temp"),
            extra_col=["1912", "1913"],
        )
        values, labels = ingest_csv(path, column="temp", index_col="year")
        np.testing.assert_array_equal(values, [4.0, 5.0])
        assert labels == ["1912", "1913"]

    def test_unknown_column_name(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", [1.0, 2.0])
        with pytest.raises(CsvError, match="not found"):
            ingest_csv(path, column="nope")

    def test_missing_file(self):
        with pytest.raises(CsvError, match="cannot read"):
            ingest_csv("/nonexistent/file.csv")


class TestExitCodes:
    def test_parse_error_is_3(self, tmp_path, capsys):
        vals = [str(v) for v in range(30)]
        vals[16] = "oops"
        path = write_csv(tmp_path / "bad.csv", vals)
        assert main(["lrv", path, "--blocks", "5"]) == 3
        assert "row 17" in capsys.readouterr().err

    def test_infeasible_is_4(self, tmp_path, capsys):
        path = write_csv(tmp_path / "short.csv", np.arange(20.0))
        assert main(["lrv", path, "--blocks", "15"]) == 4
        assert "insufficient blocks" in capsys.readouterr().err

    def test_degenerate_is_5(self, tmp_path, capsys):
        path = write_csv(tmp_path / "flat.csv", np.zeros(40))
        assert main(["ci", path, "--blocks", "5", "--method", "sn"]) == 5
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["sn", "wb", "st", "bb", "sbb"])
    def test_alpha_out_of_range_is_4(self, tmp_path, capsys, method):
        path = write_csv(tmp_path / "x.csv", np.random.default_rng(2).normal(size=60))
        argv = ["ci", path, "--blocks", "5", "--method", method, "--alpha", "1.5"]
        assert main(argv) == 4
        assert "alpha must be in (0, 1]" in capsys.readouterr().err


class TestSimulateRoundTrip:
    def test_lrv_matches_library_bit_exact(self, tmp_path, capsys):
        out = str(tmp_path / "sim.csv")
        code = main(
            [
                "simulate", "--n", "120", "--profile", "A1", "--error", "b1",
                "--theta", "0.4", "--seed", "5", "--out", out,
            ]
        )
        assert code == 0
        capsys.readouterr()
        report = run_json(capsys, ["lrv", out, "--blocks", "10"])
        model = SimModel(
            n=120, sigma=SigmaProfile("A1", 120), error=ErrorModel("b1", theta=0.4), seed=5
        )
        expected = lrv_selfnorm(generate(model), 10)
        assert report["results"]["tau_sq_hat"] == expected.tau_sq_hat
        assert report["results"]["l_n"] == expected.l_n
        assert report["inputs"]["n"] == 120

    def test_simulate_stdout_json(self, capsys):
        report = run_json(capsys, ["simulate", "--n", "12", "--seed", "1"])
        assert len(report["results"]["values"]) == 12
        assert report["results"]["model"]["n"] == 12


class TestCiCommands:
    def test_sn_ci_json_matches_library(self, tmp_path, capsys):
        x = np.random.default_rng(3).normal(size=120)
        path = write_csv(tmp_path / "x.csv", x)
        report = run_json(capsys, ["ci", path, "--blocks", "10", "--method", "sn"])
        ci = sn_ci(x, 0.05, 10)
        res = report["results"]
        assert res["lower"] == pytest.approx(ci.lower, rel=1e-12)
        assert res["upper"] == pytest.approx(ci.upper, rel=1e-12)
        assert res["method"] == "sn"

    def test_bootstrap_methods_run(self, tmp_path, capsys):
        x = np.random.default_rng(4).normal(size=120)
        path = write_csv(tmp_path / "x.csv", x)
        for method in ("wb", "st", "bb", "sbb"):
            res = run_json(
                capsys,
                ["ci", path, "--blocks", "10", "--method", method, "--bootstrap", "100"],
            )["results"]
            assert res["lower"] < res["upper"]
            assert res["method"] == method

    def test_ci_combo(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        p1 = write_csv(tmp_path / "a.csv", rng.normal(size=60))
        p2 = write_csv(tmp_path / "b.csv", rng.normal(loc=2.0, size=60))
        report = run_json(
            capsys, ["ci-combo", p1, p2, "--weights=-1,1", "--blocks", "6"]
        )
        res = report["results"]
        assert res["lower"] < res["point"] < res["upper"]
        assert 1.0 < res["point"] < 3.0


class TestChangepointCommand:
    def test_k_schedule_and_labels(self, tmp_path, capsys):
        x = np.random.default_rng(6).normal(size=120)
        x[60:] += 5.0
        years = [str(1900 + i) for i in range(120)]
        path = write_csv(tmp_path / "cp.csv", x, header=("year", "value"), extra_col=years)
        report = run_json(
            capsys,
            [
                "changepoint", path, "--index-col", "year",
                "--k-schedule", "8,10", "--bootstrap", "99", "--seed", "2",
            ],
        )
        schedule = report["results"]["schedule"]
        assert len(schedule) == 2
        for entry in schedule:
            assert entry["p_value"] <= 0.05
            assert abs(entry["j_hat"] - 60) <= 5
            assert entry["j_hat_label"] == str(1900 + entry["j_hat"] - 1)
        assert len(report["results"]["scan_values"]) == len(report["results"]["scan_j"])

    def test_variance_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        x = np.concatenate([0.2 * rng.normal(size=60), 0.6 * rng.normal(size=60)])
        path = write_csv(tmp_path / "v.csv", x)
        report = run_json(
            capsys, ["changepoint", path, "--variance", "--bootstrap", "99"]
        )
        assert report["results"]["test"] == "variance"


class TestTrendAndSelectK:
    def test_trend_report(self, tmp_path, capsys):
        n = 120
        i = np.arange(1, n + 1) / n
        x = 1.0 + 2.0 * i + 0.3 * np.random.default_rng(8).normal(size=n)
        path = write_csv(tmp_path / "t.csv", x)
        res = run_json(capsys, ["trend", path, "--blocks", "10"])["results"]
        assert res["beta1_hat"] == pytest.approx(2.0, abs=0.5)
        assert res["ci_beta1"]["lower"] < res["beta1_hat"] < res["ci_beta1"]["upper"]

    def test_select_k(self, capsys):
        res = run_json(capsys, ["select-k", "--n", "60", "--reps", "100", "--seed", "1"])[
            "results"
        ]
        assert str(res["k_star"]) in res["mse_table"]


class TestExperimentCommand:
    def test_csv_output(self, tmp_path, capsys):
        out = str(tmp_path / "cells.csv")
        code = main(
            [
                "experiment", "--kind", "coverage", "--methods", "sn,st",
                "--reps", "5", "--boot", "20", "--format", "csv", "--out", out,
            ]
        )
        assert code == 0
        capsys.readouterr()
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {r["method"] for r in rows} == {"sn", "st"}
        for r in rows:
            assert 0.0 <= float(r["rate"]) <= 1.0

    def test_table_output(self, capsys):
        code = main(
            [
                "experiment", "--kind", "size", "--methods", "sn",
                "--reps", "3", "--boot", "20", "--format", "table",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("\t")[:3] == ["profile", "error", "k_n"]
        assert len(lines) == 2

    def test_config_file_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"replications": 4, "k_values": [8]}))
        report = run_json(
            capsys,
            [
                "experiment", "--kind", "coverage", "--methods", "sn",
                "--config", str(cfg), "--boot", "20",
            ],
        )
        cells = report["results"]["cells"]
        assert len(cells) == 1
        assert cells[0]["k_n"] == 8
