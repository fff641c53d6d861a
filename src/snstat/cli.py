"""Command-line front end.

Subcommands: simulate, lrv, select-k, ci, ci-combo, changepoint, trend,
experiment. Each reads CSV and writes, to stdout or to the --out file, a
JSON report whose keys are command, inputs, seed, version, elapsed_s and
results, in that order. simulate --out writes the series as CSV instead,
and experiment --format csv|table writes its grid as CSV or a pivoted table.
Every subcommand that draws random numbers takes --seed and records it in
the report.

Exit codes: 0 success, 2 usage error, 3 input parse error (a CSV or a
--config file that cannot be read or parsed), 4 infeasible parameters
(a --config that is not a JSON object, an --out whose directory does not
exist, a result that is not finite, which strict JSON cannot hold), 5
degenerate data. argparse decides exit 2: an unknown flag, a
missing or malformed number, two exclusive flags together, or a --format it
does not list. Every other name (a method, test, multiplier law, experiment
kind, profile or error model) is looked up in the library's own table, in
any letter case, by core._choice; a name no table holds exits 4, before any
CSV is read.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import operator
import os
import sys
import time

import numpy as np

from . import __version__
from .core import DegenerateDataError, InsufficientBlocksError, _choice
from . import changepoint as cp
from . import inference
from .harness import _RANGE_HITS, ExperimentSpec, run_experiment
from .lrv import lrv_selfnorm, lrv_stationary, select_block_length
from .regression import _check_not_exact, fit_trend, regression_lrv, trend_ci
from .simgen import _ERROR_KINDS, _SIGMA_PROFILES, ErrorModel, SigmaProfile, SimModel, generate

EXIT_PARSE = 3
EXIT_INFEASIBLE = 4
EXIT_DEGENERATE = 5


class CsvError(ValueError):
    """An input file could not be read, or parsed into a numeric column or a JSON config."""


def ingest_csv(path: str, column=None, no_header: bool = False, index_col=None):
    """Read one numeric column (and an optional label column) from a CSV.

    column / index_col may be names (header row) or 0-based positions. A
    digit string that names a different header column is ambiguous and
    raises CsvError. By default the value column is the only column, or
    else the second, counted on the header when there is one. A missing
    column or an unparseable cell raises CsvError naming the first bad
    data row.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise CsvError(f"cannot read {path}: {exc}") from exc
    with fh:
        rows = list(filter(None, csv.reader(fh)))  # empty rows are skipped
    if not rows:
        raise CsvError(f"{path}: empty file")

    header = None if no_header else rows[0]
    data_rows = rows if no_header else rows[1:]
    if not data_rows:
        raise CsvError(f"{path}: no data rows")

    def resolve(sel):
        if isinstance(sel, int):
            return sel
        if isinstance(sel, str) and sel.removeprefix("-").isdigit():
            pos = int(sel)
            if header is not None and sel in header:
                named = header.index(sel)
                if named != (pos if pos >= 0 else pos + len(header)):
                    raise CsvError(
                        f"column {sel!r} is ambiguous: header column {named} is named "
                        f"{sel!r}, but as a position it is column {pos}"
                    )
            return pos
        if header is None:
            raise CsvError(f"column name {sel!r} given but file has no header")
        if sel not in header:
            raise CsvError(f"column {sel!r} not found in header {header}")
        return header.index(sel)

    # default: single column -> it; multiple columns -> the second
    ncols = len(header if header is not None else data_rows[0])
    val_idx = (0 if ncols == 1 else 1) if column is None else resolve(column)
    idx_idx = None if index_col is None else resolve(index_col)
    try:
        values = np.fromiter(
            map(float, map(operator.itemgetter(val_idx), data_rows)), float, len(data_rows)
        )
        labels = None if idx_idx is None else [r[idx_idx].strip() for r in data_rows]
    except (IndexError, ValueError):
        _locate_bad_row(path, data_rows, val_idx, idx_idx)
        raise
    return values, labels


def _locate_bad_row(path: str, data_rows, val_idx: int, idx_idx) -> None:
    """Raise CsvError for the first data row with a missing column or a non-numeric value.

    Each row's columns are checked before its value is parsed.
    """
    for rownum, row in enumerate(data_rows, start=1):
        bad = [c for c in (val_idx, idx_idx) if c is not None and not -len(row) <= c < len(row)]
        if bad:
            raise CsvError(f"{path}: row {rownum} has no column {bad[0]}")
        cell = row[val_idx].strip()
        try:
            float(cell)
        except ValueError as exc:
            raise CsvError(f"{path}: non-numeric value {cell!r} at row {rownum}") from exc


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _report_text(report: dict) -> str:
    """The report as strict JSON; a ValueError if a result is not finite (JSON has no NaN or inf)."""
    try:
        return json.dumps(report, indent=2, default=_jsonable, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError("a result is not finite, so the report cannot be written") from None


def _write(out, text: str) -> None:
    """Write text that ends in its own newline to the --out file, or to stdout without one."""
    if not out:
        sys.stdout.write(text)
        return
    with open(out, "w", newline="") as fh:
        fh.write(text)


def _check_out(out) -> None:
    """ValueError naming --out unless out, if given, names a file in a directory that exists.

    main checks it before any input is read or any work is done.
    """
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
        raise ValueError(f"--out: {out!r} is not a file in an existing directory")


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _load_series(args):
    values, labels = ingest_csv(args.csv, args.col, args.no_header, args.index_col)
    return values, labels, {"path": args.csv, "sha256": _digest(args.csv), "n": len(values)}


# main runs the subcommand's cmd_* (dashes become underscores), looked up by
# name on each call, as the cached parser outlives any later rebinding. Each
# cmd_* returns (results, inputs) for main to report, or writes its own
# non-JSON output through _write and returns None.


def cmd_simulate(args):
    model = SimModel(
        n=args.n,
        sigma=SigmaProfile(args.profile, args.n, value=args.sigma_value),
        error=ErrorModel(args.error, theta=args.theta, beta=args.beta, burn_in=args.burn_in),
        seed=args.seed,
        mu=args.mu,
        lam=args.lam,
        change_at=args.change_at,
    )
    x = generate(model)
    if not args.out:
        return {"model": model.to_config(), "values": x}, {}
    rows = [(i, repr(float(v))) for i, v in enumerate(x, start=1)]
    _write(args.out, _csv_text([("index", "value")] + rows))
    print(f"wrote {x.size} rows to {args.out}")


def cmd_lrv(args):
    x, _labels, inputs = _load_series(args)
    k, mse = select_block_length(len(x), seed=args.seed) if args.auto_k else (args.blocks, None)
    est = (lrv_stationary if args.stationary else lrv_selfnorm)(x, k)
    results = {
        "tau_sq_hat": est.tau_sq_hat,
        "k_n": est.k_n,
        "l_n": est.l_n,
        "method": est.method,
        "d_values": est.d_values,
    }
    if mse is not None:
        results["mse_table"] = {str(kk): vv for kk, vv in mse.items()}
    return results, inputs


def cmd_select_k(args):
    k, mse = select_block_length(args.n, reps=args.reps, seed=args.seed)
    return {"k_star": k, "mse_table": {str(kk): vv for kk, vv in mse.items()}}, {}


def cmd_ci(args):
    interval = inference._INTERVALS[_choice("method", args.method, inference._INTERVALS)]
    law = inference._check_law(args.multiplier)  # even for a method that draws no multipliers
    x, _labels, inputs = _load_series(args)
    ci = interval(x, args.alpha, args.blocks, args.bootstrap, args.seed, law)
    return ci.to_dict(), inputs


def cmd_ci_combo(args):
    weights = _list_of("--weights", args.weights, float)
    segments, inputs = [], []
    for path in args.csvs:
        values, _ = ingest_csv(path, column=args.col, no_header=args.no_header)
        segments.append(values)
        inputs.append({"path": path, "sha256": _digest(path), "n": len(values)})
    ci = inference.combo_ci(segments, weights, args.alpha, args.blocks)
    return ci.to_dict(), {"files": inputs}


def cmd_changepoint(args):
    test = _choice("test", args.test, cp._TESTS)
    runner = "variance" if args.variance else test
    if args.k_schedule is None:
        ks = [10 if args.blocks is None else args.blocks]
    else:
        ks = _list_of("--k-schedule", args.k_schedule, int)
    x, labels, inputs = _load_series(args)

    def run_one(k):
        if args.variance:
            return cp.variance_change_test(x, args.c, k, args.bootstrap, seed=args.seed)
        return cp._TESTS[test][0](x, args.c, k, args.bootstrap, args.seed)

    schedule = []
    for k in ks:
        rep = run_one(k)
        entry = rep.to_dict()
        if labels is not None:
            entry["j_hat_label"] = labels[rep.j_hat - 1]
        schedule.append(entry)
    return {
        "test": runner,
        "schedule": schedule,
        "scan_j": rep.scan.j_range,
        "scan_values": rep.scan.values,
    }, inputs


def cmd_trend(args):
    x, _labels, inputs = _load_series(args)
    fit = fit_trend(x)
    _check_not_exact(fit)  # an exact linear fit, before its residual blocks are judged
    est = regression_lrv(fit, args.blocks)
    return {
        "beta0_hat": fit.beta0_hat,
        "beta1_hat": fit.beta1_hat,
        "tau_sq_hat": est.tau_sq_hat,
        "k_n": args.blocks,
        "ci_beta0": trend_ci(fit, "beta0", args.alpha, args.blocks).to_dict(),
        "ci_beta1": trend_ci(fit, "beta1", args.alpha, args.blocks).to_dict(),
        "residual_css": fit.residual_css,
    }, inputs


def _list_of(name: str, value, read) -> tuple:
    """The items of a comma string or a list, each string item read by read, any other as it is.

    A ValueError names name, the flag or config key, and the bad item; a
    reader other than int or float, such as ErrorModel.parse, gives its own message.
    """
    items = value.split(",") if isinstance(value, str) else value
    if not isinstance(items, (list, tuple)):
        raise ValueError(f"{name} must be a comma string or a list, got {items!r}")
    out = []
    for item in items:
        try:
            out.append(read(item) if isinstance(item, str) else item)
        except ValueError as exc:
            what = {int: "integers", float: "numbers"}.get(read)
            reason = f"expected comma-separated {what}, got {item!r}" if what else exc
            raise ValueError(f"{name}: {reason}") from None
    return tuple(out)


# list field of ExperimentSpec -> (its flag, reader of one item). A field comes
# as a comma string or a JSON list, from its flag or from the config.
_LIST_FIELDS = {
    "sigma_profiles": ("--profiles", str),
    "error_models": ("--errors", ErrorModel.parse),
    "k_values": ("--blocks", int),
    "methods": ("--methods", str),
    "lambda_grid": ("--lambdas", float),
}


def cmd_experiment(args):
    names = {f.name for f in dataclasses.fields(ExperimentSpec)}
    # the spec fields given as flags (the others are suppressed), then the config's
    fields = {name: value for name, value in vars(args).items() if name in names}
    fields["master_seed"] = args.seed
    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:  # a JSON or decoding error is a ValueError
            raise CsvError(f"cannot read {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise ValueError(f"--config: expected a JSON object, got {type(config).__name__}")
    fields.update(config)
    unknown = set(fields) - names
    if unknown:
        raise ValueError(f"unknown experiment config keys: {sorted(unknown)}")
    for key, (flag, read) in _LIST_FIELDS.items():
        if key in fields:
            fields[key] = _list_of(key if key in config else flag, fields[key], read)
    result = run_experiment(ExperimentSpec(**fields), workers=args.threads)
    rows = result.to_rows()
    if args.format == "table":
        _write(args.out, result.to_table() + "\n")
    elif args.format == "csv" or (args.out and args.out.endswith(".csv")):
        _write(args.out, _csv_text([list(rows[0])] + [list(row.values()) for row in rows]))
    else:
        return {"cells": rows, "wall_time_s": result.wall_time}, {}


def _one_of(names) -> str:
    """Help text for a flag whose value names a key of a library table."""
    return "|".join(names) + ", in any letter case"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="snstat", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_io(sp, csv_in=True):
        if csv_in:
            sp.add_argument("csv", help="input CSV file")
            sp.add_argument("--col", default=None, help="value column (name or index)")
            sp.add_argument("--index-col", default=None, help="label column (name or index)")
            sp.add_argument("--no-header", action="store_true")
        sp.add_argument("--out", default=None, help="write the report here instead of stdout")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("simulate", help="generate a synthetic series")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--profile", default="constant", help=_one_of(_SIGMA_PROFILES))
    sp.add_argument("--sigma-value", type=float, default=1.0)
    sp.add_argument("--error", default="iid", help=_one_of(_ERROR_KINDS))
    sp.add_argument("--theta", type=float, default=0.0)
    sp.add_argument("--beta", type=float, default=3.0)
    sp.add_argument("--burn-in", type=int, default=1000)
    sp.add_argument("--mu", type=float, default=0.0)
    sp.add_argument("--lam", type=float, default=0.0)
    sp.add_argument("--change-at", type=int, default=0)
    add_io(sp, csv_in=False)

    sp = sub.add_parser("lrv", help="long-run variance estimate")
    add_io(sp)
    k_n = sp.add_mutually_exclusive_group(required=True)
    k_n.add_argument("--blocks", type=int, default=None, help="block length k_n")
    k_n.add_argument("--auto-k", action="store_true", help="select k_n by simulation")
    sp.add_argument("--stationary", action="store_true", help="non-normalized variant")

    sp = sub.add_parser("select-k", help="simulation-based block length selection")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--reps", type=int, default=2000)
    add_io(sp, csv_in=False)

    sp = sub.add_parser("ci", help="confidence interval for the mean")
    add_io(sp)
    sp.add_argument("--method", default="sn", help=_one_of(inference._INTERVALS))
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--blocks", type=int, required=True)
    sp.add_argument("--bootstrap", type=int, default=1000)
    sp.add_argument("--multiplier", default="rademacher", help=_one_of(inference._LAWS))

    sp = sub.add_parser("ci-combo", help="interval for a weighted combination of means")
    sp.add_argument("csvs", nargs="+", help="one CSV per period")
    sp.add_argument("--weights", required=True, help="comma-separated weights")
    sp.add_argument("--col", default=None)
    sp.add_argument("--no-header", action="store_true")
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--blocks", type=int, required=True)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("changepoint", help="change-point test")
    add_io(sp)
    sp.add_argument("--test", default="sn", help=_one_of(cp._TESTS))
    sp.add_argument("--c", type=float, default=0.1, help="trimming fraction")
    k_n = sp.add_mutually_exclusive_group()
    k_n.add_argument("--blocks", type=int, default=None, help="block length k_n (default 10)")
    k_n.add_argument("--k-schedule", default=None, help="comma-separated k_n values")
    sp.add_argument("--bootstrap", type=int, default=1000)
    sp.add_argument("--variance", action="store_true", help="test the variances instead")

    sp = sub.add_parser("trend", help="linear trend fit and intervals")
    add_io(sp)
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--blocks", type=int, required=True)

    sp = sub.add_parser("experiment", help="Monte Carlo table reproduction",
                        argument_default=argparse.SUPPRESS)
    sp.add_argument("--kind", required=True, help=_one_of(_RANGE_HITS))
    sp.add_argument("--config", default=None, help="JSON spec file")
    sp.add_argument("--n", type=int)
    sp.add_argument("--profiles", dest="sigma_profiles")
    sp.add_argument("--errors", dest="error_models", help="e.g. b1:0.4,b2:3,iid")
    sp.add_argument("--blocks", dest="k_values")
    sp.add_argument("--methods")
    sp.add_argument("--reps", dest="replications", type=int)
    sp.add_argument("--boot", dest="bootstrap_samples", type=int)
    sp.add_argument("--level", type=float)
    sp.add_argument("--lambdas", dest="lambda_grid")
    sp.add_argument("--calibration-reps", type=int)
    sp.add_argument("--threads", type=int, default=1, help="worker processes to start")
    sp.add_argument("--format", choices=["json", "csv", "table"], default="json")
    add_io(sp, csv_in=False)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        _check_out(args.out)
        done = globals()["cmd_" + args.cmd.replace("-", "_")](args)
        if done is not None:
            results, inputs = done
            report = {
                "command": " ".join(argv),
                "inputs": inputs,
                "seed": getattr(args, "seed", None),
                "version": __version__,
                "elapsed_s": round(time.perf_counter() - t0, 3),
                "results": results,
            }
            _write(args.out, _report_text(report))
    except CsvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (InsufficientBlocksError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return 0


if __name__ == "__main__":
    sys.exit(main())
