import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from snstat import cli
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


    @pytest.mark.parametrize(
        "kw, named, pos",
        [({"column": "1"}, 2, 1), ({"column": "0"}, 1, 0), ({"index_col": "1"}, 2, 1)],
    )
    def test_digit_selector_naming_another_column_is_ambiguous(self, tmp_path, kw, named, pos):
        path = tmp_path / "pandas.csv"  # the header DataFrame.to_csv writes
        path.write_text(",0,1\n0,10,100\n1,11,101\n2,12,102\n")
        sel = next(iter(kw.values()))
        with pytest.raises(
            CsvError,
            match=f"column '{sel}' is ambiguous: header column {named} is named "
            f"'{sel}', but as a position it is column {pos}$",
        ):
            ingest_csv(str(path), **kw)

    def test_digit_selector_keeps_its_position_otherwise(self, tmp_path):
        path = tmp_path / "pandas.csv"
        path.write_text(",0,1\n0,10,100\n1,11,101\n2,12,102\n")
        values, labels = ingest_csv(str(path), column="2", index_col="-3")
        np.testing.assert_array_equal(values, [100.0, 101.0, 102.0])
        assert labels == ["0", "1", "2"]
        path = tmp_path / "digits.csv"  # names that are their own positions
        path.write_text("0,1\n5,6\n7,8\n")
        values, labels = ingest_csv(str(path), column="1", index_col="0")
        np.testing.assert_array_equal(values, [6.0, 8.0])
        assert labels == ["5", "7"]

    def test_double_minus_selector_is_a_name(self, tmp_path):
        path = write_csv(tmp_path / "two.csv", [1.0, 2.0], header=("d", "v"), extra_col=["a", "b"])
        with pytest.raises(CsvError, match="column '--1' not found"):
            ingest_csv(path, column="--1")

    def test_ambiguous_selector_is_exit_3(self, tmp_path, capsys):
        path = tmp_path / "pandas.csv"
        path.write_text(",0,1\n" + "".join(f"{i},{i},{i * i}\n" for i in range(40)))
        assert main(["lrv", str(path), "--blocks", "5", "--col", "1"]) == 3
        assert "ambiguous" in capsys.readouterr().err

    def test_default_column_follows_header_width(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1\n3,4\n")
        with pytest.raises(CsvError, match="row 1 has no column 1$"):
            ingest_csv(str(path))
        path.write_text("1\n3,4\n")  # no header: the first row's width decides
        values, _ = ingest_csv(str(path), no_header=True)
        np.testing.assert_array_equal(values, [1.0, 3.0])

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1,2,3\n4,5\n7,x,9\n", "row 2 has no column 2$"),
            ("1,2,3\n4,x,6\n7\n", "non-numeric value 'x' at row 2$"),
            ("1,2,3\n4, x ,6\n", "non-numeric value 'x' at row 2$"),
            ("1,2\n4,5,6\n", "row 1 has no column 2$"),
        ],
    )
    def test_first_bad_row_is_named(self, tmp_path, body, message):
        # row by row, and within a row the columns are checked before the value is parsed
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n" + body)
        with pytest.raises(CsvError, match=message):
            ingest_csv(str(path), column=1, index_col=2)


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

    def test_constant_series_outcomes_do_not_depend_on_value(self, tmp_path, capsys):
        path = write_csv(tmp_path / "flat.csv", np.full(120, 0.3))
        assert main(["ci", path, "--method", "sn", "--blocks", "10"]) == 5
        assert "degenerate block 1" in capsys.readouterr().err
        argv = ["changepoint", path, "--test", "t1", "--blocks", "10", "--bootstrap", "50"]
        assert run_json(capsys, argv)["results"]["schedule"][0]["p_value"] == 1.0

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

    @pytest.mark.parametrize("body", [None, "{bad", "\udcff"])
    def test_unreadable_experiment_config_is_3(self, tmp_path, capsys, body):
        # a missing file, a file that is not JSON, and one that is not UTF-8
        cfg = tmp_path / "cfg.json"
        if body is not None:
            cfg.write_bytes(body.encode("utf-8", "surrogateescape"))
        argv = ["experiment", "--kind", "coverage", "--methods", "sn", "--config", str(cfg)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read {cfg}: ")
        assert captured.out == ""

    @pytest.mark.parametrize("config, kind", [([1, 2], "list"), (3, "int"), (None, "NoneType")])
    def test_experiment_config_that_is_not_an_object_is_4(self, tmp_path, capsys, config, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["experiment", "--kind", "coverage", "--methods", "sn", "--config", str(cfg)]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.err == f"error: --config: expected a JSON object, got {kind}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("where", ["no/such/dir/o.json", "."])
    def test_out_that_cannot_be_written_is_4_before_input(self, tmp_path, capsys, monkeypatch, where):
        # the CSV is not even read: a missing one would exit 3
        out = str(tmp_path / where)
        monkeypatch.setattr(cli, "ingest_csv", lambda *a, **k: pytest.fail("input was read"))
        assert main(["lrv", str(tmp_path / "x.csv"), "--blocks", "10", "--out", out]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --out: ")
        assert captured.out == ""

    @pytest.mark.parametrize("value", [0.3, 1.0, 0.0])
    def test_constant_trend_is_an_exact_fit(self, tmp_path, capsys, value):
        # judged before the residual blocks, which are exactly 0 at 1.0 and 0.0
        path = write_csv(tmp_path / "flat.csv", np.full(120, value))
        assert main(["trend", path, "--blocks", "10"]) == 5
        assert capsys.readouterr().err == (
            "error: exact linear fit: residuals carry no variation\n"
        )

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

    @pytest.mark.parametrize("flags", [["--blocks", "10", "--auto-k"], []])
    def test_lrv_takes_exactly_one_of_blocks_and_auto_k(self, tmp_path, capsys, flags):
        # both used to drop --blocks silently, and neither exited 4
        path = write_csv(tmp_path / "x.csv", np.random.default_rng(2).normal(size=60))
        with pytest.raises(SystemExit) as exc:
            main(["lrv", path, *flags])
        assert exc.value.code == 2
        assert "--blocks" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_4(self, capsys, threads):
        # these used to run serially and exit 0
        argv = ["experiment", "--kind", "coverage", "--profiles", "A1", "--methods", "sn",
                "--reps", "2", "--threads", threads]
        assert main(argv) == 4
        assert capsys.readouterr().err.startswith("error: workers must be >= 1")

    @pytest.mark.parametrize("method", ["sn", "wb", "st", "bb", "sbb"])
    def test_alpha_out_of_range_is_4(self, tmp_path, capsys, method):
        path = write_csv(tmp_path / "x.csv", np.random.default_rng(2).normal(size=60))
        argv = ["ci", path, "--blocks", "5", "--method", method, "--alpha", "1.5"]
        assert main(argv) == 4
        assert "alpha must be in (0, 1]" in capsys.readouterr().err


# (subcommand argv, "{csv}" standing for an input file; flag; its table's spelling;
# another spelling; the argument name core._choice gives in its error)
NAME_FLAGS = [pytest.param(*row, id=f"{row[0][0]} {row[1]} {row[3]}") for row in [
    (["ci", "{csv}", "--blocks", "10", "--bootstrap", "50"], "--method", "wb", "WB", "method"),
    (["ci", "{csv}", "--method", "wb", "--blocks", "10", "--bootstrap", "50"],
     "--multiplier", "gaussian", "Gaussian", "law"),
    (["ci", "{csv}", "--method", "sn", "--blocks", "10"], "--multiplier", "gaussian", "GAUSSIAN",
     "law"),
    (["changepoint", "{csv}", "--bootstrap", "50"], "--test", "t1", "T1", "test"),
    (["experiment", "--profiles", "A1", "--methods", "sn", "--reps", "2", "--boot", "10"],
     "--kind", "size", "Size", "kind"),
]]


class TestNames:
    """Every name a flag takes is looked up by core._choice, in any letter case."""

    @staticmethod
    def argv(base, path, flag, value):
        return [path if a == "{csv}" else a for a in base] + [flag, value]

    @pytest.mark.parametrize("base, flag, canonical, spelled, name", NAME_FLAGS)
    def test_any_letter_case_gives_the_same_results(self, tmp_path, capsys, base, flag,
                                                    canonical, spelled, name):
        path = write_csv(tmp_path / "x.csv", np.random.default_rng(8).normal(size=120))
        results = [
            run_json(capsys, self.argv(base, path, flag, value))["results"]
            for value in (canonical, spelled)
        ]
        for res in results:
            res.pop("wall_time_s", None)  # experiment timing
        assert results[0] == results[1]

    @pytest.mark.parametrize("base, flag, canonical, spelled, name", NAME_FLAGS)
    def test_unknown_name_is_4(self, tmp_path, capsys, base, flag, canonical, spelled, name):
        path = write_csv(tmp_path / "x.csv", np.random.default_rng(8).normal(size=120))
        assert main(self.argv(base, path, flag, "bogus")) == 4
        captured = capsys.readouterr()
        assert re.match(f"^error: {name}: expected one of", captured.err), captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "base, flag, canonical, spelled, name", [p for p in NAME_FLAGS if "{csv}" in p.values[0]]
    )
    def test_unknown_name_is_4_before_the_csv_is_read(self, tmp_path, capsys, base, flag,
                                                      canonical, spelled, name):
        # a missing file alone exits 3
        assert main(self.argv(base, str(tmp_path / "missing.csv"), flag, "bogus")) == 4
        assert capsys.readouterr().err.startswith(f"error: {name}: expected one of")

    def test_simulate_reports_the_profile_in_its_table_spelling(self, capsys):
        report = run_json(capsys, ["simulate", "--n", "4", "--profile", "a1", "--error", "B1",
                                   "--theta", "0.4"])
        assert report["results"]["model"]["sigma"] == "A1"
        assert report["results"]["model"]["error"] == "b1"

    @pytest.mark.parametrize("blocks", ["10", "12"])
    def test_changepoint_blocks_and_k_schedule_are_exclusive(self, tmp_path, capsys, blocks):
        # --blocks used to be dropped silently; 10 is also its default
        path = write_csv(tmp_path / "x.csv", np.random.default_rng(8).normal(size=120))
        with pytest.raises(SystemExit) as exc:
            main(["changepoint", path, "--blocks", blocks, "--k-schedule", "10,12"])
        assert exc.value.code == 2
        assert "not allowed with argument --blocks" in capsys.readouterr().err

    @pytest.mark.parametrize("schedule", ["10,x", "10,,12", "1.5"])
    def test_bad_k_schedule_entry_is_4(self, tmp_path, capsys, schedule):
        path = write_csv(tmp_path / "x.csv", np.random.default_rng(8).normal(size=120))
        assert main(["changepoint", path, "--k-schedule", schedule]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --k-schedule: expected comma-separated integers")
        assert captured.out == ""


EXPERIMENT = ["experiment", "--kind", "size", "--profiles", "A1", "--methods", "sn", "--reps", "2",
              "--boot", "10"]

# (argv, "{csv}" standing for an input file; the flag or config key the error
# names; the rest of the message)
BAD_LISTS = [pytest.param(*row, id=" ".join(row[0][:1] + row[0][-2:])) for row in [
    (["ci-combo", "{csv}", "--blocks", "15", "--weights", "1,x"], "--weights",
     "expected comma-separated numbers, got 'x'"),
    (["changepoint", "{csv}", "--k-schedule", "10,x"], "--k-schedule",
     "expected comma-separated integers, got 'x'"),
    (EXPERIMENT + ["--blocks", "10,x"], "--blocks", "expected comma-separated integers, got 'x'"),
    (EXPERIMENT + ["--blocks", "10,2.5"], "--blocks",
     "expected comma-separated integers, got '2.5'"),
    (EXPERIMENT + ["--lambdas", "0,x"], "--lambdas", "expected comma-separated numbers, got 'x'"),
    (EXPERIMENT + ["--errors", "iid,b9"], "--errors", "bad error model token: 'b9'"),
]]

# (config; the key the error names; the rest of the message)
BAD_CONFIG_LISTS = [pytest.param(*row, id=json.dumps(row[0])) for row in [
    ({"k_values": "10,x"}, "k_values", "expected comma-separated integers, got 'x'"),
    ({"k_values": [10, "x"]}, "k_values", "expected comma-separated integers, got 'x'"),
    ({"lambda_grid": ["0", "x"]}, "lambda_grid", "expected comma-separated numbers, got 'x'"),
    ({"error_models": ["b9"]}, "error_models", "bad error model token: 'b9'"),
]]


class TestLists:
    """A bad entry of a comma list exits 4 naming its flag, or its config key, and the entry."""

    @pytest.mark.parametrize("argv, name, message", BAD_LISTS)
    def test_bad_flag_entry_is_4(self, tmp_path, capsys, argv, name, message):
        path = write_csv(tmp_path / "x.csv", np.random.default_rng(8).normal(size=120))
        assert main([path if a == "{csv}" else a for a in argv]) == 4
        captured = capsys.readouterr()
        assert captured.err == f"error: {name}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("config, name, message", BAD_CONFIG_LISTS)
    def test_bad_config_entry_is_4(self, tmp_path, capsys, config, name, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        # the config's value replaces the flag's, and its key is named
        assert main(EXPERIMENT + ["--blocks", "10", "--config", str(cfg)]) == 4
        assert capsys.readouterr().err == f"error: {name}: {message}\n"


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

    def test_experiment_profile_spellings_give_one_row(self, capsys):
        argv = ["experiment", "--kind", "coverage", "--profiles", "a1,A1", "--methods", "sn",
                "--reps", "2", "--boot", "10", "--format", "csv"]
        assert main(argv) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [row["profile"] for row in rows] == ["A1"]


SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestParserReuse:
    """`main` parses with one parser per process; no flag leaks into the next call."""

    @pytest.fixture
    def csv_path(self, tmp_path):
        model = SimModel(
            n=240, sigma=SigmaProfile("A1", 240), error=ErrorModel("b1", theta=0.4), seed=1
        )
        return write_csv(tmp_path / "x.csv", generate(model))

    def sequence(self, csv_path, out):
        return [
            ["changepoint", csv_path, "--variance", "--bootstrap", "60"],
            ["changepoint", csv_path, "--bootstrap", "60"],
            ["ci", csv_path, "--method", "wb", "--multiplier", "gaussian", "--blocks", "12",
             "--bootstrap", "60"],
            ["ci", csv_path, "--method", "wb", "--blocks", "12", "--bootstrap", "60"],
            ["lrv", csv_path, "--auto-k"],
            ["lrv", csv_path, "--blocks", "10"],
            ["lrv", csv_path, "--blocks", "10", "--out", out],
            ["lrv", csv_path, "--blocks", "10"],
        ]

    def reports(self, capsys, argvs):
        found = []
        for argv in argvs:
            assert main(argv) == 0
            text = capsys.readouterr().out
            if "--out" in argv:
                with open(argv[argv.index("--out") + 1]) as fh:
                    text = fh.read()
            report = json.loads(text)
            found.append((report["results"], report["inputs"]))
        return found

    def test_calls_match_fresh_parsers(self, tmp_path, capsys, monkeypatch, csv_path):
        argvs = self.sequence(csv_path, str(tmp_path / "r.json"))
        shared = self.reports(capsys, argvs)
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert shared == self.reports(capsys, argvs)

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_command_replaced_after_first_call_runs(self, capsys, monkeypatch, csv_path):
        assert main(["lrv", csv_path, "--blocks", "10"]) == 0  # the parser now exists
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(cli, "cmd_lrv", lambda args: calls.append(args.blocks))
        assert main(["lrv", csv_path, "--blocks", "12"]) == 0
        assert calls == [12]


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

    def test_runs_without_scipy(self, tmp_path):
        # scipy is a test-only reference; the package and its CLI must not import it
        path = write_csv(tmp_path / "x.csv", np.random.default_rng(9).normal(size=120))
        commands = [
            ["ci", path, "--method", "sn", "--blocks", "10"],
            ["ci", path, "--method", "st", "--blocks", "10"],
            ["ci-combo", path, "--weights", "1", "--blocks", "10"],
            ["trend", path, "--blocks", "10"],
            ["changepoint", path, "--test", "sn", "--bootstrap", "50"],
        ]
        script = (
            "import json, sys\n"
            "sys.modules['scipy'] = None  # every scipy import now raises ImportError\n"
            "import snstat, snstat.cli\n"
            "codes = [snstat.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps(codes), file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "[0, 0, 0, 0, 0]"

    def test_parse_error_exit_without_traceback(self, tmp_path):
        proc = self.run("lrv", str(tmp_path / "missing.csv"), "--blocks", "5")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: cannot read")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
