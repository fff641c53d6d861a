"""Command-line front end.

Subcommands: simulate, lrv, select-k, ci, ci-combo, changepoint, trend,
experiment. CSV in, JSON report out (CSV/table for experiment grids).
Every subcommand that draws random numbers takes --seed and records it
in the report.

Exit codes: 0 success, 2 usage error, 3 input parse error, 4 infeasible
parameters, 5 degenerate data.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from .core import DegenerateDataError, InsufficientBlocksError
from . import changepoint as cp
from . import inference
from .harness import ExperimentSpec, run_experiment
from .lrv import lrv_selfnorm, lrv_stationary, select_block_length
from .regression import fit_trend, regression_lrv, trend_ci
from .simgen import ErrorModel, SigmaProfile, SimModel, generate

EXIT_PARSE = 3
EXIT_INFEASIBLE = 4
EXIT_DEGENERATE = 5


class CsvError(ValueError):
    """Input file could not be parsed into a numeric column."""


def ingest_csv(path: str, column=None, no_header: bool = False, index_col=None):
    """Read one numeric column (and an optional label column) from a CSV.

    column / index_col may be names (header row) or 0-based positions.
    Unparseable cells raise CsvError naming the data row number.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise CsvError(f"cannot read {path}: {exc}") from exc
    with fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r]
    if not rows:
        raise CsvError(f"{path}: empty file")

    header = None if no_header else rows[0]
    data_rows = rows if no_header else rows[1:]
    if not data_rows:
        raise CsvError(f"{path}: no data rows")

    def resolve(sel, default):
        if sel is None:
            return default
        if isinstance(sel, int) or (isinstance(sel, str) and sel.lstrip("-").isdigit()):
            return int(sel)
        if header is None:
            raise CsvError(f"column name {sel!r} given but file has no header")
        if sel not in header:
            raise CsvError(f"column {sel!r} not found in header {header}")
        return header.index(sel)

    ncols = len(data_rows[0])
    val_idx = resolve(column, None)
    if val_idx is None:
        # default: single column -> it; multiple columns -> the second
        val_idx = 0 if ncols == 1 else 1
    idx_idx = resolve(index_col, None)

    values = []
    labels = [] if idx_idx is not None else None
    for rownum, row in enumerate(data_rows, start=1):
        if val_idx >= len(row):
            raise CsvError(f"{path}: row {rownum} has no column {val_idx}")
        cell = row[val_idx].strip()
        try:
            values.append(float(cell))
        except ValueError as exc:
            raise CsvError(
                f"{path}: non-numeric value {cell!r} at row {rownum}"
            ) from exc
        if labels is not None:
            labels.append(row[idx_idx].strip())
    if not values:
        raise CsvError(f"{path}: empty column")
    return np.asarray(values), labels


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def _report(args, results: dict, inputs=None) -> dict:
    return {
        "command": " ".join(sys.argv[1:]) if sys.argv[1:] else args.cmd,
        "inputs": inputs or {},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "elapsed_s": None,  # filled by _emit
        "results": results,
    }


def _emit(args, report: dict, t0: float) -> None:
    report["elapsed_s"] = round(time.perf_counter() - t0, 3)
    text = json.dumps(report, indent=2, default=_jsonable)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _load_series(args):
    values, labels = ingest_csv(
        args.csv,
        column=getattr(args, "col", None),
        no_header=getattr(args, "no_header", False),
        index_col=getattr(args, "index_col", None),
    )
    return values, labels, {"path": args.csv, "sha256": _digest(args.csv), "n": len(values)}


def _parse_error_model(args) -> ErrorModel:
    return ErrorModel(
        kind=args.error,
        theta=args.theta,
        beta=args.beta,
        burn_in=args.burn_in,
    )


def cmd_simulate(args):
    t0 = time.perf_counter()
    model = SimModel(
        n=args.n,
        sigma=SigmaProfile(args.profile, args.n, value=args.sigma_value),
        error=_parse_error_model(args),
        seed=args.seed,
        mu=args.mu,
        lam=args.lam,
        change_at=args.change_at,
    )
    x = generate(model)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "value"])
            for i, v in enumerate(x, start=1):
                w.writerow([i, repr(float(v))])
        print(f"wrote {x.size} rows to {args.out}")
    else:
        report = _report(args, {"model": model.to_config(), "values": x})
        _emit(args, report, t0)


def cmd_lrv(args):
    t0 = time.perf_counter()
    x, _labels, inputs = _load_series(args)
    if args.auto_k:
        k, mse = select_block_length(len(x), seed=args.seed)
    else:
        if args.blocks is None:
            raise ValueError("either --blocks or --auto-k is required")
        k, mse = args.blocks, None
    fn = lrv_stationary if args.stationary else lrv_selfnorm
    est = fn(x, k)
    results = {
        "tau_sq_hat": est.tau_sq_hat,
        "k_n": est.k_n,
        "l_n": est.l_n,
        "method": est.method,
        "d_values": est.d_values,
    }
    if mse is not None:
        results["mse_table"] = {str(kk): vv for kk, vv in mse.items()}
    _emit(args, _report(args, results, inputs), t0)


def cmd_select_k(args):
    t0 = time.perf_counter()
    k, mse = select_block_length(args.n, reps=args.reps, seed=args.seed)
    results = {"k_star": k, "mse_table": {str(kk): vv for kk, vv in mse.items()}}
    _emit(args, _report(args, results), t0)


def cmd_ci(args):
    t0 = time.perf_counter()
    x, _labels, inputs = _load_series(args)
    ci = inference._INTERVALS[args.method](
        x, args.alpha, args.blocks, args.bootstrap, args.seed, args.multiplier
    )
    _emit(args, _report(args, ci.to_dict(), inputs), t0)


def cmd_ci_combo(args):
    t0 = time.perf_counter()
    weights = [float(w) for w in args.weights.split(",")]
    segments, inputs = [], []
    for path in args.csvs:
        values, _ = ingest_csv(path, column=args.col, no_header=args.no_header)
        segments.append(values)
        inputs.append({"path": path, "sha256": _digest(path), "n": len(values)})
    ci = inference.combo_ci(segments, weights, args.alpha, args.blocks)
    _emit(args, _report(args, ci.to_dict(), {"files": inputs}), t0)


def cmd_changepoint(args):
    t0 = time.perf_counter()
    x, labels, inputs = _load_series(args)
    runner = "variance" if args.variance else args.test
    ks = [int(k) for k in args.k_schedule.split(",")] if args.k_schedule else [args.blocks]

    def run_one(k):
        if args.variance:
            return cp.variance_change_test(
                x, c=args.c, k_n=k, B=args.bootstrap, seed=args.seed
            )
        return cp._TESTS[args.test][0](x, args.c, k, args.bootstrap, args.seed)

    schedule = []
    for k in ks:
        rep = run_one(k)
        entry = rep.to_dict()
        if labels is not None:
            entry["j_hat_label"] = labels[rep.j_hat - 1]
        schedule.append(entry)
    results = {
        "test": runner,
        "schedule": schedule,
        "scan_j": rep.scan.j_range,
        "scan_values": rep.scan.values,
    }
    _emit(args, _report(args, results, inputs), t0)


def cmd_trend(args):
    t0 = time.perf_counter()
    x, _labels, inputs = _load_series(args)
    fit = fit_trend(x)
    est = regression_lrv(fit, args.blocks)
    results = {
        "beta0_hat": fit.beta0_hat,
        "beta1_hat": fit.beta1_hat,
        "tau_sq_hat": est.tau_sq_hat,
        "k_n": args.blocks,
        "ci_beta0": trend_ci(fit, "beta0", args.alpha, args.blocks).to_dict(),
        "ci_beta1": trend_ci(fit, "beta1", args.alpha, args.blocks).to_dict(),
        "residual_css": float(np.sum(fit.residuals**2)),
    }
    _emit(args, _report(args, results, inputs), t0)


def _error_models_from(spec: str) -> tuple:
    models = []
    for tok in spec.split(","):
        tok = tok.strip()
        if tok == "iid":
            models.append(ErrorModel("iid"))
        elif tok.startswith("b1:"):
            models.append(ErrorModel("b1", theta=float(tok[3:])))
        elif tok.startswith("b2:"):
            models.append(ErrorModel("b2", beta=float(tok[3:])))
        else:
            raise ValueError(f"bad error model token: {tok!r}")
    return tuple(models)


def cmd_experiment(args):
    t0 = time.perf_counter()
    fields = dict(
        kind=args.kind,
        n=args.n,
        sigma_profiles=args.profiles.split(","),
        error_models=args.errors,
        k_values=[int(k) for k in args.blocks.split(",")],
        methods=args.methods.split(",") if args.methods else (),
        replications=args.reps,
        bootstrap_samples=args.boot,
        level=args.level,
        lambda_grid=[float(v) for v in args.lambdas.split(",")] if args.lambdas else (),
        calibration_reps=args.calibration_reps,
        master_seed=args.seed,
    )
    if args.config:
        with open(args.config) as fh:
            fields.update(json.load(fh))
    unknown = set(fields) - {f.name for f in dataclasses.fields(ExperimentSpec)}
    if unknown:
        raise ValueError(f"unknown experiment config keys: {sorted(unknown)}")
    fields["error_models"] = _error_models_from(fields["error_models"])
    for key in ("sigma_profiles", "k_values", "methods", "lambda_grid"):
        fields[key] = tuple(fields[key])
    result = run_experiment(ExperimentSpec(**fields), workers=args.threads)
    if args.format == "table":
        text = result.to_table()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return
    rows = result.to_rows()
    if args.format == "csv" or (args.out and args.out.endswith(".csv")):
        target = open(args.out, "w", newline="") if args.out else sys.stdout
        try:
            w = csv.DictWriter(target, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
        finally:
            if args.out:
                target.close()
        return
    report = _report(args, {"cells": rows, "wall_time_s": result.wall_time})
    _emit(args, report, t0)


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
    sp.add_argument("--profile", default="constant", help="A1|A2|A3|A4|constant")
    sp.add_argument("--sigma-value", type=float, default=1.0)
    sp.add_argument("--error", default="iid", help="b1|b2|iid")
    sp.add_argument("--theta", type=float, default=0.0)
    sp.add_argument("--beta", type=float, default=3.0)
    sp.add_argument("--burn-in", type=int, default=1000)
    sp.add_argument("--mu", type=float, default=0.0)
    sp.add_argument("--lam", type=float, default=0.0)
    sp.add_argument("--change-at", type=int, default=0)
    add_io(sp, csv_in=False)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("lrv", help="long-run variance estimate")
    add_io(sp)
    sp.add_argument("--blocks", type=int, default=None, help="block length k_n")
    sp.add_argument("--auto-k", action="store_true", help="select k_n by simulation")
    sp.add_argument("--stationary", action="store_true", help="non-normalized variant")
    sp.set_defaults(func=cmd_lrv)

    sp = sub.add_parser("select-k", help="simulation-based block length selection")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--reps", type=int, default=2000)
    add_io(sp, csv_in=False)
    sp.set_defaults(func=cmd_select_k)

    sp = sub.add_parser("ci", help="confidence interval for the mean")
    add_io(sp)
    sp.add_argument("--method", choices=list(inference._INTERVALS), default="sn")
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--blocks", type=int, required=True)
    sp.add_argument("--bootstrap", type=int, default=1000)
    sp.add_argument("--multiplier", choices=list(inference._LAWS), default="rademacher")
    sp.set_defaults(func=cmd_ci)

    sp = sub.add_parser("ci-combo", help="interval for a weighted combination of means")
    sp.add_argument("csvs", nargs="+", help="one CSV per period")
    sp.add_argument("--weights", required=True, help="comma-separated weights")
    sp.add_argument("--col", default=None)
    sp.add_argument("--no-header", action="store_true")
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--blocks", type=int, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_ci_combo)

    sp = sub.add_parser("changepoint", help="change-point test")
    add_io(sp)
    sp.add_argument("--test", choices=list(cp._TESTS), default="sn")
    sp.add_argument("--c", type=float, default=0.1, help="trimming fraction")
    sp.add_argument("--blocks", type=int, default=10)
    sp.add_argument("--bootstrap", type=int, default=1000)
    sp.add_argument("--variance", action="store_true", help="test the variances instead")
    sp.add_argument("--k-schedule", default=None, help="comma-separated k_n values")
    sp.set_defaults(func=cmd_changepoint)

    sp = sub.add_parser("trend", help="linear trend fit and intervals")
    add_io(sp)
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--blocks", type=int, required=True)
    sp.set_defaults(func=cmd_trend)

    sp = sub.add_parser("experiment", help="Monte Carlo table reproduction")
    sp.add_argument("--kind", choices=["coverage", "size", "power"], required=True)
    sp.add_argument("--config", default=None, help="JSON spec file")
    sp.add_argument("--n", type=int, default=120)
    sp.add_argument("--profiles", default="A1")
    sp.add_argument("--errors", default="b1:0.0", help="e.g. b1:0.4,b2:3,iid")
    sp.add_argument("--blocks", default="10")
    sp.add_argument("--methods", default=None)
    sp.add_argument("--reps", type=int, default=500)
    sp.add_argument("--boot", type=int, default=500)
    sp.add_argument("--level", type=float, default=None)
    sp.add_argument("--lambdas", default=None)
    sp.add_argument("--calibration-reps", type=int, default=2000)
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--format", choices=["json", "csv", "table"], default="json")
    add_io(sp, csv_in=False)
    sp.set_defaults(func=cmd_experiment)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "level", None) is None and args.cmd == "experiment":
        args.level = 0.95 if args.kind == "coverage" else 0.05
    try:
        args.func(args)
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
