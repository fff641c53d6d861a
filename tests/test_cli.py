import csv
import dataclasses
import functools
import json
import operator
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from snstat import changepoint as cp
from snstat import cli, inference
from snstat.cli import CsvError, ingest_csv, main
from snstat.harness import _RANGE_HITS, ExperimentSpec
from snstat.inference import sn_ci
from snstat.lrv import lrv_selfnorm
from snstat.simgen import _ERROR_KINDS, _SIGMA_PROFILES, ErrorModel, SigmaProfile, SimModel
from snstat.simgen import generate


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


SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestParserReuse:
    """`main` parses with one parser per process; no flag leaks into the next call."""

    @pytest.fixture
    def csv_path(self, tmp_path):
        (tmp_path / "x.csv").write_text(FILES["x.csv"])
        return str(tmp_path / "x.csv")

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
    """A process that cannot import SciPy, which in-process calls cannot show."""

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


# The CLI's contract, as one table of calls. Each row is run in process, through
# main, and against the installed snstat script, one process per row, in a
# directory that holds the row's input files.


def _column(values) -> str:
    """A one-column CSV with a header, one value per row."""
    return "value\n" + "".join(f"{float(v)!r}\n" for v in values)


def _simulated(n: int, profile: str = "A1", error=ErrorModel("b1", theta=0.4), value=1.0) -> str:
    sigma = SigmaProfile(profile, n, value=value)
    return _column(generate(SimModel(n=n, sigma=sigma, error=error, seed=1)))


# input files that rows name in their argv, by name
FILES = {
    "x.csv": _simulated(240),
    # at n = 10 the first trimmed split is j = 1, whose one-value prefix fails
    # the prefix-sum bound, so every SN replicate falls back to the general kernel
    "x10.csv": _simulated(10),
    # B * n = 3e6 values is more than one 2^21-value batch, so a bootstrap of
    # 1 000 draws each next half batch on a helper thread
    "x3k.csv": _simulated(3000),
    "tiny.csv": _simulated(240, "constant", ErrorModel("iid"), value=1e-8),
    "c.csv": _column([0.3] * 120),
    "one.csv": _column([1.0] * 120),
    "zeros.csv": _column([0.0] * 120),
    # every k = 3 block repeats one value in a quarter of the wild-bootstrap draws
    "tile2.csv": _column([0.1, -0.1] * 30),
    # every k = 6 block holds whole (v, -v) pairs, so each block mean is the
    # overall mean and tau_hat is exactly 0
    "tile4.csv": _column([0.1, -0.1, 0.3, -0.3] * 30),
    "short.csv": _column(range(20)),
    "bad.csv": "value\n" + "".join(f"{v}\n" for v in [*range(16), "oops", *range(17, 30)]),
    "two.csv": "i,v\n" + "".join(f"{i},{i / 7!r}\n" for i in range(30)),
    "pandas.csv": ",0,1\n" + "".join(f"{i},{i},{i * i}\n" for i in range(40)),  # as pandas writes
    # every k = 3 block is (0.1, 0.7, 0.3): the block means are equal, though
    # the overall mean rounds off them, so the stationary tau_hat is 0
    "tile3.csv": _column([0.1, 0.7, 0.3] * 40),
    # equal k = 3 blocks and a remainder that moves the mean: tau_hat > 0, but
    # no block resample varies
    "rem.csv": _column([1.0] * 12 + [5.0]),
    # constant, but its overall mean rounds off its k = 3 block means: tau_hat is 0 all the same
    "const7.csv": _column([0.1] * 7),
    # Excel's "CSV UTF-8" starts with a byte-order mark; latin-1 is not UTF-8
    "bom.csv": "\ufeff" + _simulated(240),
    "headless.csv": _simulated(240).partition("\n")[2],
    "bom_headless.csv": "\ufeff" + _simulated(240).partition("\n")[2],
    "latin1.csv": ("café\n" + "".join(f"{v}\n" for v in range(30))).encode("latin-1"),
}


@dataclasses.dataclass
class Case:
    """One call of the CLI and what it must do.

    Exit 0 prints no stderr, and stdout, or the file `read` if given, is one
    strict JSON report, or `lines` lines; any other exit prints no stdout, and
    stderr holds `err` (past exit 2, as one line "error: ..."). With same_as,
    `results` equals that row's.
    """

    argv: str
    code: int = 0
    err: str = ""  # a fragment of stderr
    out: str = ""  # a fragment of stdout
    lines: int | None = None
    files: dict = dataclasses.field(default_factory=dict)  # name -> contents, beside FILES'
    same_as: str | None = None
    read: str | None = None  # an --out file whose text is checked as stdout is
    id: str = ""

    def __post_init__(self):
        self.id = self.id or self.argv + "".join(f" [{n}: {c!r}]" for n, c in self.files.items())
        self.files = {**{a: FILES[a] for a in self.argv.split() if a in FILES}, **self.files}


def cfg(config) -> dict:
    return {"cfg.json": json.dumps(config)}


SIZE = "experiment --kind size --profiles A1 --methods sn --reps 2 --boot 10"
COVERAGE = "experiment --kind coverage --methods sn"
WB3K = "ci x3k.csv --method wb --blocks 30 --bootstrap 1000 --seed 3"
SN3K = "changepoint x3k.csv --test sn --blocks 30 --bootstrap 1000 --seed 3"

# (argv before the name flag, "x.csv" standing for an input file; the flag; its
# table's spelling; another spelling; the argument name core._choice gives in its error)
NAMES = [
    ("ci x.csv --blocks 10 --bootstrap 50", "--method", "wb", "WB", "method"),
    ("ci x.csv --method wb --blocks 10 --bootstrap 50 --seed 3", "--multiplier", "gaussian",
     "Gaussian", "law"),
    ("ci x.csv --method sn --blocks 10", "--multiplier", "gaussian", "GAUSSIAN", "law"),
    ("changepoint x.csv --bootstrap 50", "--test", "t1", "T1", "test"),
    ("experiment --profiles A1 --methods sn --reps 2 --boot 10", "--kind", "size", "Size", "kind"),
    ("simulate --n 4 --error b1 --theta 0.4", "--profile", "A1", "a1", "kind"),
    ("simulate --n 4 --profile A1 --theta 0.4", "--error", "b1", "B1", "kind"),
]

# a config saved with a byte-order mark, beside its twin without one
BOM_FREE = Case(COVERAGE + " --config cfg.json --boot 10", files=cfg({"replications": 2}))

CASES = [
    # one report of each subcommand, and the bootstrap kernels' paths
    *[Case(f"simulate {model} --seed 1 --out sim.csv", lines=1) for model in [
        "--n 240 --profile A1 --error b1 --theta 0.4",
        "--n 3000 --profile A1 --error b1 --theta 0.4",
        "--n 240 --profile constant --sigma-value 1e-8 --error iid"]],
    Case("lrv x.csv --auto-k"),
    Case("select-k --n 120 --reps 50"),
    Case("ci x.csv --method sbb --blocks 15 --bootstrap 200"),
    Case("ci x.csv --method wb --blocks 15 --bootstrap 200"),
    Case("ci x.csv --method wb --blocks 15 --bootstrap 200 --multiplier gaussian"),
    Case("ci-combo x.csv x.csv --weights=-1,1 --blocks 10"),
    *[Case(f"changepoint x.csv --test {test} --bootstrap 200") for test in ["t1", "t2", "sn"]],
    Case("changepoint x.csv --variance --bootstrap 200", out='"test": "variance"'),
    Case("changepoint x.csv --test t1 --k-schedule 10,12 --bootstrap 100"),
    Case("changepoint x.csv --variance --k-schedule 10,12 --bootstrap 100"),
    Case("changepoint x10.csv --test sn --blocks 2 --bootstrap 50"),
    Case("changepoint x10.csv --variance --blocks 2 --bootstrap 50"),
    Case("experiment --kind size --profiles A1 --methods sn,t1 --reps 2 --boot 20"),
    Case("experiment --kind size --methods sn --reps 3 --boot 20 --format table", lines=2,
         out="profile\terror\tk_n\tsn\n"),
    # a config's values replace the flags', and its lists may be JSON lists
    Case(COVERAGE + " --config cfg.json", out='"error": "b1:0.4"',
         files=cfg({"error_models": ["b1:0.4"], "replications": 1})),
    Case(COVERAGE + " --config cfg.json --boot 20", out='"k_n": 8',
         files=cfg({"replications": 4, "k_values": [8]})),
    # noise at scale 1e-8 is not an exact linear fit: the trend intervals run
    Case("trend tiny.csv --blocks 10"),
    # two runs that draw ahead on a helper thread report equal results
    Case(WB3K),
    Case(WB3K, id="ci x3k.csv wb, run again", same_as=WB3K),
    Case(SN3K),
    Case(SN3K, id="changepoint x3k.csv sn, run again", same_as=SN3K),
    # spellings of one profile, error model or method name one cell and one column
    Case("experiment --kind coverage --profiles a1,A1 --methods sn --reps 2 --boot 10 "
         "--format csv", lines=2, out="\nA1,"),
    Case("experiment --kind size --profiles A1 --errors B1:0.8,b1:0.8 --methods SN,t1 --reps 2 "
         "--boot 10 --format csv", lines=3),
    # --format decides over the suffix of --out, which decides only without it
    Case("experiment --kind size --profiles A1 --methods sn --reps 2 --boot 10 --format json "
         "--out r.csv", read="r.csv"),
    Case("experiment --kind size --profiles A1 --methods sn --reps 2 --boot 10 --out r.csv",
         lines=2, read="r.csv"),
    # a CSV is read as UTF-8, after a byte-order mark if it has one
    Case("lrv headless.csv --blocks 10 --no-header"),
    Case("lrv bom_headless.csv --blocks 10 --no-header", same_as="lrv headless.csv --blocks 10 "
         "--no-header"),
    Case("lrv x.csv --blocks 10 --col value"),
    Case("lrv bom.csv --blocks 10 --col value", same_as="lrv x.csv --blocks 10 --col value"),
    # and so is an experiment's --config
    BOM_FREE,
    Case(BOM_FREE.argv, files={"cfg.json": "\ufeff" + BOM_FREE.files["cfg.json"]},
         same_as=BOM_FREE.id),
    # the stationary tau_hat of a series with no variation between blocks is 0 whatever
    # its mean rounds to; with a remainder that moves the mean it is not
    Case("lrv rem.csv --blocks 3 --stationary", out='"tau_sq_hat": 0.2840236686390532'),
    # two power cells run as two tasks in the process pool
    Case("experiment --kind power --threads 2 --profiles A1,A2 --methods sn,t1 --reps 4 "
         "--calibration-reps 20 --lambdas 0,1 --format csv", lines=9),
    # usage errors (exit 2): exclusive or missing flags, and a seed ci-combo does not take
    Case("lrv x.csv --blocks 10 --auto-k", 2, "--blocks"),
    Case("lrv x.csv", 2, "--blocks"),
    *[Case(f"changepoint x.csv --blocks {k} --k-schedule 10,12", 2,
           "not allowed with argument --blocks") for k in ["10", "12"]],  # 10 is the default
    Case("ci-combo x.csv x.csv --weights=-1,1 --blocks 6 --seed 1", 2, "--seed"),
    # input that cannot be read or parsed (exit 3), without a traceback
    Case("lrv missing.csv --blocks 5", 3, "error: cannot read"),
    Case("lrv bad.csv --blocks 5", 3, "row 17"),
    Case("lrv two.csv --blocks 5 --col -5", 3, "row 1 has no column -5"),
    Case("lrv two.csv --blocks 5 --index-col 5", 3, "row 1 has no column 5"),
    Case("lrv pandas.csv --blocks 5 --col 1", 3, "ambiguous"),
    Case("experiment --kind size --config missing.json", 3, "error: cannot read missing.json: "),
    *[Case(COVERAGE + " --config cfg.json", 3, "error: cannot read cfg.json: ",
           files={"cfg.json": body})
      for body in ["{bad", "\udcff".encode("utf-8", "surrogateescape")]],  # not JSON, not UTF-8
    Case("lrv latin1.csv --blocks 5", 3, "error: cannot read latin1.csv: 'utf-8' codec"),
    # infeasible parameters (exit 4)
    Case("lrv short.csv --blocks 15", 4, "insufficient blocks"),
    *[Case(f"ci x.csv --blocks 5 --method {m} --alpha 1.5", 4, "alpha must be in (0, 1]")
      for m in ["sn", "wb", "st", "bb", "sbb"]],
    *[Case(f"experiment --kind {kind} --level 1.5", 4, "error: level: expected a number in (0, 1)")
      for kind in ["coverage", "size"]],
    *[Case(f"experiment --kind coverage --profiles A1 --methods sn --reps 2 --threads {t}", 4,
           "error: workers must be >= 1") for t in ["0", "-3"]],
    # an --out that cannot be written, checked before the CSV is read (a missing one exits 3)
    *[Case(f"lrv missing.csv --blocks 10 --out {out}", 4, "error: --out: ")
      for out in ["no/such/dir/o.json", "."]],
    # a bad entry of a comma list names its flag, or its config key, and the entry
    Case("ci-combo x.csv --blocks 15 --weights 1,x", 4,
         "error: --weights: expected comma-separated numbers, got 'x'"),
    *[Case(f"changepoint x.csv --k-schedule {ks}", 4,
           f"error: --k-schedule: expected comma-separated integers, got {bad!r}")
      for ks, bad in [("10,x", "x"), ("10,,12", ""), ("1.5", "1.5")]],
    *[Case(f"{SIZE} --blocks 10,{k}", 4,
           f"error: --blocks: expected comma-separated integers, got '{k}'") for k in ["x", "2.5"]],
    Case(SIZE + " --lambdas 0,x", 4, "error: --lambdas: expected comma-separated numbers, got 'x'"),
    Case(SIZE + " --errors iid,b9", 4, "error: --errors: bad error model token: 'b9'"),
    # a bad error model fails when it is read, before any worker process starts
    *[Case(SIZE + f" --errors {e} --threads 2", 4, f"error: --errors: bad error model token: {r}")
      for e, r in [("b1:2", "'b1:2' (b1 requires |theta| < 1, got theta=2.0)"),
                   ("b2:nan", "'b2:nan' (beta: expected a finite number, got nan)")]],
    Case("simulate --n 5 --error b1 --theta 0.4 --burn-in -3", 4,
         "error: burn_in must be >= 0, got -3"),
    *[Case(SIZE + " --blocks 10 --config cfg.json", 4, f"error: {err}", files=cfg(config))
      for config, err in [
          ({"k_values": "10,x"}, "k_values: expected comma-separated integers, got 'x'"),
          ({"k_values": [10, "x"]}, "k_values: expected comma-separated integers, got 'x'"),
          ({"lambda_grid": ["0", "x"]}, "lambda_grid: expected comma-separated numbers, got 'x'"),
          ({"error_models": ["b9"]}, "error_models: bad error model token: 'b9'"),
      ]],
    # a config file must be a JSON object of ExperimentSpec fields with their types
    *[Case(COVERAGE + " --config cfg.json", 4, f"error: {err}", files=cfg(config))
      for config, err in [
          ({"replication": 3, "k_value": [8]},
           "unknown experiment config keys: ['k_value', 'replication']"),
          ([1, 2], "--config: expected a JSON object, got list"),
          (3, "--config: expected a JSON object, got int"),
          (None, "--config: expected a JSON object, got NoneType"),
          ({"error_models": [{"kind": "b1", "theta": 0.4}]},
           "error_models: expected an ErrorModel"),
      ]],
    *[Case(COVERAGE + " --config cfg.json --format csv", 4, f"error: {field}", files=cfg(config))
      for config, field in [({"replications": "3"}, "replications"),
                            ({"k_values": [8.5]}, "k_values"), ({"k_values": []}, "k_values"),
                            ({"k_values": 8}, "k_values")]],
    # a result that is not finite has no JSON spelling
    Case("ci x.csv --blocks 10 --alpha 1e-320", 4, "error: a result is not finite"),
    Case("trend x.csv --blocks 10 --alpha 1e-320", 4, "error: a result is not finite"),
    Case("ci-combo x.csv x.csv --weights 1e308,1e308 --blocks 10", 4,
         "error: a result is not finite"),
    Case("simulate --n 5 --mu 1e308 --lam 1e308 --change-at 2", 4, "error: series is not finite"),
    Case("simulate --n 60 --sigma-value 1e308", 4, "error: series is not finite"),
    Case("simulate --n 5 --seed -1", 4, "error: seed must be >= 0"),
    # degenerate data (exit 5), whatever value a constant series repeats; the
    # classical test keeps its statistic 0, p-value 1 convention instead
    Case("ci c.csv --method sn --blocks 10", 5, "degenerate block 1"),
    Case("ci zeros.csv --method sn --blocks 10", 5, "degenerate block 1"),
    Case("changepoint c.csv --test t1 --blocks 10 --bootstrap 50", out='"p_value": 1.0'),
    Case("ci-combo c.csv --weights 1 --blocks 10", 5, "degenerate"),
    # trend names the exact linear fit before it judges the residual blocks,
    # which are exactly 0 for 1.0 and 0.0
    *[Case(f"trend {f} --blocks 10", 5, "error: exact linear fit: residuals carry no variation")
      for f in ["c.csv", "one.csv", "zeros.csv"]],
    # wild-bootstrap rows with a block of equal values are redrawn up to the cap
    Case("ci tile2.csv --method wb --blocks 3", 5, "degenerate"),
    *[Case(f"ci tile4.csv --method {m} --blocks 6 --bootstrap 50", 5, "degenerate")
      for m in ["sn", "wb", "st", "bb", "sbb"]],
    Case("ci-combo tile4.csv --weights 1 --blocks 6", 5, "degenerate"),
    # equal block means make the stationary tau_hat 0, however the overall mean rounds
    *[Case(f"ci tile3.csv --method {m} --blocks 3 --bootstrap 50", 5,
           "error: degenerate data: zero stationary tau estimate") for m in ["st", "bb", "sbb"]],
    *[Case(f"changepoint tile3.csv --test {t} --blocks 3 --bootstrap 50", 5,
           "error: degenerate data: zero stationary tau estimate") for t in ["t1", "t2"]],
    *[Case(f"ci const7.csv --method {m} --blocks 3 --bootstrap 50", 5,
           "error: degenerate data: zero stationary tau estimate") for m in ["st", "bb", "sbb"]],
    # its blocks are equal, so no block resample varies: the redraw cap stops it
    Case("changepoint rem.csv --test t1 --blocks 3 --bootstrap 50", 5, "redraw cap"),
    # a name flag takes its table's names in any letter case, and no other name,
    # which exits 4 before any CSV is read
    *[case for base, flag, canonical, spelled, name in NAMES for case in [
        Case(f"{base} {flag} {canonical}"),
        Case(f"{base} {flag} {spelled}", same_as=f"{base} {flag} {canonical}"),
        Case(f"{base} {flag} bogus", 4, f"error: {name}: expected one of"),
        *([Case(f"{base.replace('x.csv', 'missing.csv')} {flag} bogus", 4,
                f"error: {name}: expected one of")] if "x.csv" in base else []),
    ]],
]
BY_ID = {case.id: case for case in CASES}
assert len(BY_ID) == len(CASES), "row ids must be unique"


def strict_json(text: str):
    """text as one JSON document; NaN and Infinity, which JSON lacks, fail the test."""
    return json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} is not JSON"))


# the first report row of each subcommand
REPORTS = {c.argv.split()[0]: c for c in reversed(CASES) if c.code == 0 and c.lines is None}


def write_files(row: Case, where: Path) -> None:
    for name, body in row.files.items():
        (where / name).write_bytes(body if isinstance(body, bytes) else body.encode())


def check(case: Case, run, where: Path) -> None:
    """Run case, and the row it is same_as, by run(argv) -> (code, stdout, stderr) in where."""

    def call(row):
        write_files(row, where)
        code, out, err = run(row.argv.split())
        assert code == row.code, err
        if code:
            assert out == ""
            assert row.err in err, err
            if code != 2:  # argparse prints its usage first
                assert err.startswith("error: ") and err.count("\n") == 1, err
            return None
        assert err == ""
        if row.read:
            assert out == ""
            out = (where / row.read).read_text()
        assert row.out in out
        if row.lines is not None:
            assert len(out.splitlines()) == row.lines, out
            return None
        report = strict_json(out)  # fails on any text around the document
        assert list(report) == ["command", "inputs", "seed", "version", "elapsed_s", "results"]
        assert report["command"] == row.argv
        assert isinstance(report["elapsed_s"], float) and report["elapsed_s"] >= 0.0
        return {key: value for key, value in report["results"].items() if key != "wall_time_s"}

    results = call(case)
    if case.same_as:
        assert results == call(BY_ID[case.same_as])


def call_main(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of main(argv), argparse's exit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("case", CASES, ids=operator.attrgetter("id"))
def test_contract_in_process(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    check(case, functools.partial(call_main, capsys), tmp_path)


@pytest.mark.skipif(shutil.which("snstat") is None, reason="no snstat console script installed")
@pytest.mark.parametrize("case", CASES, ids=operator.attrgetter("id"))
def test_contract_installed_script(case, tmp_path):
    def run(argv):
        proc = subprocess.run(["snstat", *argv], cwd=tmp_path, capture_output=True, text=True,
                              timeout=300)
        return proc.returncode, proc.stdout, proc.stderr

    check(case, run, tmp_path)


class TestReportEnvelope:
    # simulate --out writes the series as CSV, not the report
    @pytest.mark.parametrize("case", [case for sub, case in REPORTS.items() if sub != "simulate"],
                             ids=operator.attrgetter("id"))
    def test_out_file_matches_stdout(self, tmp_path, monkeypatch, capsys, case):
        monkeypatch.chdir(tmp_path)
        write_files(case, tmp_path)
        argv = case.argv.split()
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


# Values a flag is drawn from: mostly ones that run, and now and then numbers
# that are NaN, negative, huge or not numbers at all, names no table holds and
# paths that do not exist. Sizes stay small (n <= 60, B <= 20, reps <= 3), and
# at most two worker processes start.
def mostly(usual, odd):
    """A value of usual seven times in eight, else one of odd."""
    return st.sampled_from(range(8)).flatmap(lambda i: usual if i else odd)


FLOATS = mostly(st.sampled_from(["0.05", "0.1", "0.3", "1", "2"]),
                st.sampled_from(["nan", "-inf", "-1", "0", "1e-320", "1e308", "1e309", "x"]))
BIG = mostly(st.integers(2, 12).map(str),
             st.sampled_from(["-2", "0", "1", "30", "99999999999999999999", "x"]))


def small(cap: int):
    return mostly(st.integers(1, cap).map(str), st.sampled_from(["-1", "0", "x"]))


def names(*tables):
    """The tables' names, as spelled there or respelled, or a name no table holds."""
    keys = [key for table in tables for key in table]
    return mostly(st.sampled_from([*keys, *(key.swapcase() for key in keys)]),
                  st.sampled_from(["bogus", ""]))


def comma_list(values):
    return mostly(st.lists(values, min_size=1, max_size=3).map(",".join), st.just(""))


PATH = mostly(st.just("x.csv"), st.sampled_from(["c.csv", "bad.csv", "short.csv", "pandas.csv",
                                                  "cfg.json", "missing.csv"]))
OUT = mostly(st.sampled_from(["o.json", "o.csv"]), st.sampled_from(["no/such/dir/o.json", "."]))
COLUMN = st.sampled_from(["0", "1", "-1", "5", "value", "nope"])
PROFILE = names(_SIGMA_PROFILES, ["custom"])
ERROR = mostly(st.sampled_from(["iid", "b1:0.4", "B2:3", "b2:0.6"]),
               st.sampled_from(["b1:nan", "b1:2", "b2:0.5", "b9", "b1", ""]))
FILE_IO = {"--col": COLUMN, "--index-col": COLUMN, "--no-header": None, "--out": OUT, "--seed": BIG}
# subcommand -> (most input paths, flags always given, flags given or not; None: a switch)
CALLS = {
    "simulate": (0, {"--n": small(60)}, {
        "--profile": PROFILE, "--sigma-value": FLOATS, "--error": names(_ERROR_KINDS),
        "--theta": FLOATS, "--beta": FLOATS, "--burn-in": small(60), "--mu": FLOATS,
        "--lam": FLOATS, "--change-at": BIG, "--out": OUT, "--seed": BIG}),
    "lrv": (1, {"--blocks": BIG}, {"--auto-k": None, "--stationary": None, **FILE_IO}),
    "select-k": (0, {"--n": small(60), "--reps": small(3)}, {"--out": OUT, "--seed": BIG}),
    "ci": (1, {"--blocks": BIG, "--bootstrap": small(20)}, {
        "--method": names(inference._INTERVALS), "--alpha": FLOATS,
        "--multiplier": names(inference._LAWS), **FILE_IO}),
    "ci-combo": (3, {"--weights": comma_list(FLOATS), "--blocks": BIG}, {
        "--col": COLUMN, "--no-header": None, "--alpha": FLOATS, "--out": OUT}),
    "changepoint": (1, {"--bootstrap": small(20)}, {
        "--test": names(cp._TESTS), "--c": FLOATS, "--blocks": BIG,
        "--k-schedule": comma_list(BIG), "--variance": None, **FILE_IO}),
    "trend": (1, {"--blocks": BIG}, {"--alpha": FLOATS, **FILE_IO}),
    "experiment": (0, {"--kind": names(_RANGE_HITS), "--n": small(60), "--reps": small(3),
                       "--boot": small(20), "--calibration-reps": small(3),
                       "--config": mostly(st.just("cfg.json"), st.just("missing.json"))}, {
        "--profiles": comma_list(PROFILE), "--errors": comma_list(ERROR),
        "--blocks": comma_list(BIG), "--level": FLOATS,
        "--methods": comma_list(names(inference._INTERVALS, cp._TESTS)),
        "--lambdas": comma_list(FLOATS), "--threads": small(2), "--out": OUT, "--seed": BIG,
        "--format": st.sampled_from(["json", "csv", "table", "xml"])}),
}


@st.composite
def argvs(draw):
    sub = draw(st.sampled_from(sorted(CALLS)))
    paths, always, optional = CALLS[sub]
    argv = [sub, *draw(st.lists(PATH, min_size=min(paths, 1), max_size=paths))]
    chosen = draw(st.sets(st.sampled_from(sorted(optional)), max_size=3))
    for flag, values in {**always, **{flag: optional[flag] for flag in chosen}}.items():
        argv.append(flag if values is None else f"{flag}={draw(values)}")
    return argv


def json_values(cap: int):
    """Any JSON value, its integers at most cap."""
    text = names(_RANGE_HITS, inference._INTERVALS, cp._TESTS, _SIGMA_PROFILES) | ERROR
    scalars = st.none() | st.booleans() | st.integers(-2, cap) | st.floats() | text
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(text, inner, max_size=2), max_leaves=4)


@st.composite
def configs(draw):
    """Any JSON value, or mostly an object of up to three ExperimentSpec fields or unknown keys."""
    if draw(mostly(st.just(False), st.just(True))):
        return draw(json_values(20))
    caps = {"n": 60, "replications": 3, "calibration_reps": 3, "bootstrap_samples": 20}
    keys = [field.name for field in dataclasses.fields(ExperimentSpec)] + ["bogus"]
    config = {}
    for key in draw(st.sets(st.sampled_from(keys), max_size=3)):
        odd = json_values(caps.get(key, 20))
        config[key] = draw(mostly(st.integers(1, caps[key]), odd) if key in caps else odd)
    return config


PROPERTY_FILES = {name: FILES[name] for name in ["c.csv", "bad.csv", "short.csv", "pandas.csv"]}
PROPERTY_FILES["x.csv"] = _column(np.random.default_rng(9).normal(size=60))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs(), config=configs())
def test_any_call_exits_with_a_documented_code(tmp_path, monkeypatch, capsys, argv, config):
    monkeypatch.chdir(tmp_path)
    for name, body in PROPERTY_FILES.items():
        (tmp_path / name).write_text(body)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    code, out, err = call_main(capsys, argv)
    assert code in (0, 2, 3, 4, 5), err
    if code == 0 and out.startswith("{"):
        strict_json(out)
    if code:
        assert out == ""
