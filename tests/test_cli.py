import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

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

    @pytest.mark.parametrize(
        "kw, bad",
        [({"column": 5}, 5), ({"column": -5}, -5), ({"index_col": 2}, 2), ({"index_col": -3}, -3)],
    )
    def test_column_out_of_range(self, tmp_path, kw, bad):
        path = write_csv(tmp_path / "two.csv", [1.0, 2.0], header=("d", "v"), extra_col=["a", "b"])
        with pytest.raises(CsvError, match=f"row 1 has no column {bad}$"):
            ingest_csv(path, **kw)

    def test_negative_columns_in_range(self, tmp_path):
        path = write_csv(tmp_path / "two.csv", [1.0, 2.0], header=("d", "v"), extra_col=["a", "b"])
        values, labels = ingest_csv(path, column="-1", index_col=-2)
        np.testing.assert_array_equal(values, [1.0, 2.0])
        assert labels == ["a", "b"]


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

    def test_unknown_experiment_config_key_is_4(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"replication": 3, "k_value": [8]}))
        argv = ["experiment", "--kind", "coverage", "--methods", "sn", "--config", str(cfg)]
        assert main(argv) == 4
        assert "unknown experiment config keys: ['k_value', 'replication']" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "config, field",
        [({"replications": "3"}, "replications"), ({"k_values": [8.5]}, "k_values"),
         ({"k_values": []}, "k_values"), ({"k_values": 8}, "k_values")],
    )
    def test_wrong_experiment_config_is_4(self, tmp_path, capsys, config, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["experiment", "--kind", "coverage", "--methods", "sn", "--config", str(cfg)]
        assert main(argv + ["--format", "csv"]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field}")
        assert captured.out == ""

    def test_error_model_that_is_not_a_label_is_4(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"error_models": [{"kind": "b1", "theta": 0.4}]}))
        argv = ["experiment", "--kind", "coverage", "--methods", "sn", "--config", str(cfg)]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: error_models: expected an ErrorModel")
        assert captured.out == ""

    @pytest.mark.parametrize("kind", ["coverage", "size"])
    def test_level_out_of_range_is_4(self, capsys, kind):
        argv = ["experiment", "--kind", kind, "--level", "1.5"]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: level: expected a number in (0, 1)")
        assert captured.out == ""

    @pytest.mark.parametrize("flag, col", [("--col", "-5"), ("--index-col", "5")])
    def test_column_out_of_range_is_3(self, tmp_path, capsys, flag, col):
        path = write_csv(tmp_path / "two.csv", np.arange(30.0), header=("i", "v"),
                         extra_col=list(range(30)))
        assert main(["lrv", path, "--blocks", "5", flag, col]) == 3
        assert f"row 1 has no column {col}" in capsys.readouterr().err

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

    def test_ci_combo_takes_no_seed(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        p1 = write_csv(tmp_path / "a.csv", rng.normal(size=60))
        p2 = write_csv(tmp_path / "b.csv", rng.normal(size=60))
        argv = ["ci-combo", p1, p2, "--weights=-1,1", "--blocks", "6", "--seed", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


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

    def test_config_error_models_as_json_list(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"error_models": ["b1:0.4"], "replications": 1}))
        report = run_json(
            capsys,
            ["experiment", "--kind", "coverage", "--methods", "sn", "--config", str(cfg)],
        )
        assert [c["error"] for c in report["results"]["cells"]] == ["b1:0.4"]

    def test_config_list_fields_as_comma_strings(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"kind": "size", "methods": "sn,t1", "k_values": "8,10", "replications": 1})
        )
        report = run_json(
            capsys,
            ["experiment", "--kind", "coverage", "--config", str(cfg), "--boot", "10"],
        )
        cells = report["results"]["cells"]
        grid = [(c["k_n"], c["method"]) for c in cells]
        assert grid == [(8, "sn"), (8, "t1"), (10, "sn"), (10, "t1")]

    @pytest.mark.parametrize("flag_kind", ["coverage", "size"])
    def test_default_level_follows_config_kind(self, tmp_path, capsys, flag_kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "coverage", "replications": 20}))
        argv = ["experiment", "--kind", flag_kind, "--methods", "sn", "--boot", "20",
                "--config", str(cfg)]
        # a 95% interval, not a 5% one, whichever --kind the command line gave
        assert run_json(capsys, argv)["results"]["cells"][0]["rate"] > 0.5


ENVELOPE = ["command", "inputs", "seed", "version", "elapsed_s", "results"]


@pytest.fixture
def series_csv(tmp_path):
    return write_csv(tmp_path / "x.csv", np.random.default_rng(9).normal(size=120))


def json_argv(sub, path):
    """One small call of each subcommand that reports JSON."""
    return {
        "simulate": ["simulate", "--n", "12"],
        "lrv": ["lrv", path, "--blocks", "10"],
        "select-k": ["select-k", "--n", "60", "--reps", "20"],
        "ci": ["ci", path, "--blocks", "10"],
        "ci-combo": ["ci-combo", path, path, "--weights=-1,1", "--blocks", "10"],
        "changepoint": ["changepoint", path, "--bootstrap", "20"],
        "trend": ["trend", path, "--blocks", "10"],
        "experiment": ["experiment", "--kind", "size", "--methods", "sn", "--reps", "2",
                       "--boot", "10"],
    }[sub]


JSON_SUBCOMMANDS = ["simulate", "lrv", "select-k", "ci", "ci-combo", "changepoint", "trend",
                    "experiment"]


class TestReportEnvelope:
    @pytest.mark.parametrize("sub", JSON_SUBCOMMANDS)
    def test_keys_in_order(self, capsys, series_csv, sub):
        argv = json_argv(sub, series_csv)
        report = run_json(capsys, argv)
        assert list(report) == ENVELOPE
        assert isinstance(report["elapsed_s"], float) and report["elapsed_s"] >= 0.0
        assert report["command"] == " ".join(argv)

    # simulate --out writes the series as CSV, not the report
    @pytest.mark.parametrize("sub", [s for s in JSON_SUBCOMMANDS if s != "simulate"])
    def test_out_file_matches_stdout(self, tmp_path, capsys, series_csv, sub):
        argv = json_argv(sub, series_csv)
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""

        def timeless(text):
            # the command line differs by its --out, the timings by the clock
            text = re.sub(r'"command": "[^"]*"', '"command": ""', text)
            return re.sub(r'"(elapsed_s|wall_time_s)": [0-9.e-]+', r'"\1": 0', text)

        assert timeless(out.read_text()) == timeless(stdout)
        assert stdout.endswith("}\n")

    def test_experiment_csv_stdout_matches_out_file(self, tmp_path, capsys):
        argv = ["experiment", "--kind", "coverage", "--methods", "sn,st", "--reps", "3",
                "--boot", "10", "--format", "csv"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "cells.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        with open(out, newline="") as fh:
            assert fh.read() == stdout
        assert len(list(csv.DictReader(stdout.splitlines()))) == 2


SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestSubprocess:
    """The exit status and streams a shell sees, which in-process calls cannot show."""

    def run(self, *argv):
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.run(
            [sys.executable, "-m", "snstat.cli", *argv],
            capture_output=True, text=True, env=env, timeout=300,
        )

    def test_one_json_document_on_stdout(self):
        proc = self.run("select-k", "--n", "60", "--reps", "50")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)  # fails on any text around the document
        assert list(report) == ENVELOPE
        assert report["command"] == "select-k --n 60 --reps 50"
        assert proc.stderr == ""

    def test_parse_error_exit_without_traceback(self, tmp_path):
        proc = self.run("lrv", str(tmp_path / "missing.csv"), "--blocks", "5")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: cannot read")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
