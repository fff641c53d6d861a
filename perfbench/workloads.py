"""The four benchmark workloads and the checks on their outputs.

A workload makes its inputs from the workload seed in `setup()`, which
returns one warm-up op, and yields its timed work as fixed cycles of ops
from `cycle(i)`. Every op is one top-level call into snstat, made through
the module attribute (so a tracer installed later sees it), and carries
the number of length-n series the call evaluates, counted from its
arguments.

`check(result)` returns a fingerprint of the outputs (compared with
recorded reference values on the reference seed) and the invariants the
outputs break, for any seed.

Why these four:
- cli_analysis: the interactive CLI call on n = 1 200 CSV files; its
  (1000, 1200) bootstrap matrices sit between L2 and L3, and CSV ingest
  and JSON emit are in the path. Only workload with enough ops per run
  for latency percentiles.
- mc_tables: acceptance 4-6 shapes at n = 120, thousands of tiny
  (500, 120) calls; overhead-bound (per-sample loop in gen_b1, SHA-256
  seed derivation, process pool). Only workload that uses the pool.
- long_series: one n = 10^5 series; each (200, 10^5) temporary is 160 MB,
  so memory traffic and peak RSS dominate and per-call overhead is
  invisible. Same kernels as mc_tables in the opposite regime.
- select_k: the simulation-based block-length selector, RNG-bound; no
  (n, seed) pair repeats within a run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

from snstat import changepoint, cli, harness, inference, lrv, simgen

REFERENCE_SEED = 0
ALPHA = 0.05


@dataclass(frozen=True)
class Op:
    key: str  # stable identity of the call, for reference lookup
    top: str  # span name of the top-level function
    series: int  # length-n series evaluated, from the call arguments
    call: Callable[[], object]
    check: Callable[[object], tuple[dict, list]]  # -> (fingerprint, problems)

    def verify(self, result, reference=None) -> list:
        """Problems with result: broken invariants, then reference mismatches."""
        fp, problems = self.check(result)
        ref = (reference or {}).get(self.key)
        if ref is not None:
            problems += [
                f"{k}: {v!r} != reference {ref.get(k)!r}"
                for k, v in fp.items()
                if k not in ref or not matches(k, ref[k], v)
            ]
        return problems


def _finite(fp: dict) -> list:
    return [
        f"{k} not finite: {v!r}"
        for k, v in fp.items()
        if isinstance(v, float) and not math.isfinite(v)
    ]


def _ci_check(lower, point, upper) -> tuple[dict, list]:
    fp = {"lower": float(lower), "point": float(point), "upper": float(upper)}
    problems = _finite(fp)
    if not lower <= point <= upper:
        problems.append(f"interval not ordered: {lower} <= {point} <= {upper}")
    return fp, problems


def _test_check(statistic, p_value, j_hat, j_lo, j_hi) -> tuple[dict, list]:
    fp = {"statistic": float(statistic), "p_value": float(p_value), "j_hat": int(j_hat)}
    problems = _finite(fp)
    if not 0.0 < p_value <= 1.0:
        problems.append(f"p-value {p_value} outside (0, 1]")
    if not j_lo <= j_hat <= j_hi:
        problems.append(f"j_hat {j_hat} outside [{j_lo}, {j_hi}]")
    return fp, problems


def check_interval(ci) -> tuple[dict, list]:
    return _ci_check(ci.lower, ci.point, ci.upper)


def check_report(rep) -> tuple[dict, list]:
    return _test_check(rep.statistic, rep.p_value, rep.j_hat, rep.scan.j_lo, rep.scan.j_hi)


def matches(key: str, ref, got) -> bool:
    """Integers and rates exactly, other floats to 1e-9 relative."""
    if isinstance(ref, int) or key.startswith("rate"):
        return ref == got
    return math.isclose(ref, got, rel_tol=1e-9, abs_tol=1e-12)


def model_series(profile: str, error: simgen.ErrorModel, n: int, seed: int):
    model = simgen.SimModel(
        n=n, sigma=simgen.SigmaProfile(profile, n), error=error, seed=seed
    )
    return simgen.generate(model)


# -- cli_analysis ---------------------------------------------------------

CLI_PROFILES = ("A1", "A2", "A3", "A4")
CLI_ERRORS = (simgen.ErrorModel("b1", theta=0.4), simgen.ErrorModel("b2", beta=4.0))
CLI_COMMANDS = (
    ("ci", "sn"),
    ("ci", "st"),
    ("ci", "wb"),
    ("ci", "bb"),
    ("ci", "sbb"),
    ("changepoint", "sn"),
    ("changepoint", "t1"),
    ("changepoint", "t2"),
    ("changepoint", "variance"),
    ("trend", ""),
    ("lrv", ""),
)


def _cli_check(result, command: str) -> tuple[dict, list]:
    code, out, err = result
    if code != 0:
        return {}, [f"exit code {code}: {err.strip()}"]
    res = json.loads(out)["results"]
    if command == "ci":
        return _ci_check(res["lower"], res["point"], res["upper"])
    if command == "changepoint":
        first = res["schedule"][0]
        return _test_check(
            first["statistic"],
            first["p_value"],
            first["j_hat"],
            res["scan_j"][0],
            res["scan_j"][-1],
        )
    if command == "trend":
        fp, problems = {}, []
        for coef in ("beta0", "beta1"):
            c = res[f"ci_{coef}"]
            part, bad = _ci_check(c["lower"], c["point"], c["upper"])
            fp.update({f"{coef}_{k}": v for k, v in part.items()})
            problems += bad
        return fp, problems
    fp = {"tau_sq_hat": float(res["tau_sq_hat"]), "l_n": int(res["l_n"])}
    problems = _finite(fp)
    if not fp["tau_sq_hat"] > 0.0:
        problems.append(f"tau_sq_hat {fp['tau_sq_hat']} not positive")
    return fp, problems


class CliAnalysis:
    """Closed loop, one client: in-process `snstat.cli.main(argv)` calls."""

    name = "cli_analysis"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.n, self.k, self.B = (240, 10, 50) if tiny else (1200, 25, 1000)
        self.files: list[tuple[str, str]] = []

    def setup(self) -> Op:
        self.files = []
        for i, (profile, error) in enumerate(
            (p, e) for p in CLI_PROFILES for e in CLI_ERRORS
        ):
            x = model_series(profile, error, self.n, 1000 * self.seed + i)
            label = f"{profile}-{error.label()}"
            path = os.path.join(self.workdir, f"{label.replace(':', '_')}.csv")
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["index", "value"])
                w.writerows((j, repr(float(v))) for j, v in enumerate(x, start=1))
            self.files.append((label, path))
        return self._op(0)

    def _op(self, i: int) -> Op:
        command, variant = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        label, path = self.files[i % len(self.files)]
        argv = [command, path, "--blocks", str(self.k)]
        series = 1
        if command == "ci":
            argv += ["--method", variant]
        elif command == "changepoint":
            argv += ["--variance"] if variant == "variance" else ["--test", variant]
        if (command, variant) in (("ci", "wb"), ("ci", "bb"), ("ci", "sbb")) or (
            command == "changepoint"
        ):
            argv += ["--bootstrap", str(self.B), "--seed", str(self.seed)]
            series = self.B + 1

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        return Op(
            key=f"{command}:{variant}:{label}",
            top="cli.main",
            series=series,
            call=call,
            check=lambda result: _cli_check(result, command),
        )

    def cycle(self, index: int) -> list:
        # 11 commands x 8 files, coprime, so one cycle runs every pairing once
        return [self._op(i) for i in range(len(CLI_COMMANDS) * len(self.files))]


# -- mc_tables --------------------------------------------------------------


def _experiment_check(res) -> tuple[dict, list]:
    fp, problems = {}, []
    for key, cell in sorted(res.cells.items()):
        name = "rate:" + "|".join(str(part) for part in key)
        fp[name] = float(cell["rate"])
        if not 0.0 <= cell["rate"] <= 1.0:
            problems.append(f"{name} = {cell['rate']} outside [0, 1]")
        if not math.isfinite(cell["se"]):
            problems.append(f"{name} has non-finite se")
    if not fp:
        problems.append("experiment returned no cells")
    return fp, problems


def _series_in(spec) -> int:
    cells = len(spec.sigma_profiles) * len(spec.error_models) * len(spec.k_values)
    methods = len(spec.resolved_methods())
    if spec.kind == "power":
        per_cell = (spec.calibration_reps + spec.replications * len(spec.lambda_grid)) * methods
    else:
        per_cell = spec.replications * methods * (spec.bootstrap_samples + 1)
    return cells * per_cell


class McTables:
    """Acceptance 4-6 shapes at n = 120 through `run_experiment(..., workers)`."""

    name = "mc_tables"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.workers = min(2, len(os.sched_getaffinity(0)))
        if tiny:
            self.reps, self.B, self.calib, self.power_reps = 3, 20, 20, 3
        else:
            self.reps, self.B, self.calib, self.power_reps = 24, 500, 200, 40
        self.specs: list = []

    def _spec(self, kind, profile, errors, k, **kw):
        return harness.ExperimentSpec(
            kind=kind,
            n=120,
            sigma_profiles=(profile,),
            error_models=errors,
            k_values=(k,),
            replications=kw.pop("replications", self.reps),
            bootstrap_samples=self.B,
            level=0.95 if kind == "coverage" else 0.05,
            master_seed=self.seed,
            **kw,
        )

    def setup(self) -> Op:
        E = simgen.ErrorModel
        self.specs = [
            self._spec("coverage", "A1", (E("b1", theta=0.0),), 8),
            self._spec("coverage", "A1", (E("b1", theta=0.8),), 10),
            self._spec("coverage", "A2", (E("b1", theta=0.4),), 10),
            self._spec("coverage", "A2", (E("b2", beta=4.0),), 10),
            self._spec("size", "A1", (E("b1", theta=0.0), E("b1", theta=0.8)), 10),
            self._spec(
                "power",
                "A1",
                (E("b1", theta=0.4),),
                10,
                replications=self.power_reps,
                calibration_reps=self.calib,
                lambda_grid=(0.0, 0.5, 1.0, 1.5, 2.0),
            ),
        ]
        warm = self._spec("size", "A1", (E("b1", theta=0.0), E("b1", theta=0.8)), 10,
                          replications=1)
        return self._op("warm-up", warm)

    def _op(self, key: str, spec) -> Op:
        return Op(
            key=key,
            top="harness.run_experiment",
            series=_series_in(spec),
            call=lambda: harness.run_experiment(spec, workers=self.workers),
            check=_experiment_check,
        )

    def cycle(self, index: int) -> list:
        return [self._op(f"spec{i}:{s.kind}", s) for i, s in enumerate(self.specs)]


# -- long_series ------------------------------------------------------------


class LongSeries:
    """One n = 10^5 series (A2 x b1:0.4), k = 300, B = 200."""

    name = "long_series"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.n, self.k, self.B = (6000, 60, 20) if tiny else (100_000, 300, 200)
        self.x = None

    def setup(self) -> Op:
        self.x = model_series("A2", simgen.ErrorModel("b1", theta=0.4), self.n, self.seed)
        return self.cycle(0)[1]

    def cycle(self, index: int) -> list:
        x, k, B, s = self.x, self.k, self.B, self.seed
        calls = (
            ("wb_ci", "inference.wb_ci", check_interval,
             lambda: inference.wb_ci(x, ALPHA, k, B=B, seed=s)),
            ("bb_ci", "inference.bb_ci", check_interval,
             lambda: inference.bb_ci(x, ALPHA, k, B=B, seed=s)),
            ("sbb_ci", "inference.bb_ci", check_interval,
             lambda: inference.bb_ci(x, ALPHA, k, B=B, studentized=True, seed=s)),
            ("t1_test", "changepoint.classical_test", check_report,
             lambda: changepoint.classical_test(x, k_n=k, B=B, variant="t1", seed=s)),
            ("sn_test", "changepoint.sn_test", check_report,
             lambda: changepoint.sn_test(x, k_n=k, B=B, seed=s)),
        )
        return [Op(key, top, B + 1, call, check) for key, top, check, call in calls]


# -- select_k ---------------------------------------------------------------


class SelectK:
    """`select_block_length(n)` with default reps at n in {120, 240, 360}."""

    name = "select_k"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.ns, self.reps = ((40, 60, 80), 50) if tiny else ((120, 240, 360), 2000)
        self.grids = {n: lrv.default_k_grid(n) for n in self.ns}

    def _op(self, n: int, sel_seed: int) -> Op:
        grid = self.grids[n]

        def check(result):
            k_star, mse = result
            fp = {"k_star": int(k_star), "mse_star": float(mse[k_star])}
            problems = _finite(fp)
            if k_star not in grid:
                problems.append(f"k* = {k_star} not in the grid")
            return fp, problems

        return Op(
            key=f"n={n},seed={sel_seed}",
            top="lrv.select_block_length",
            series=self.reps * len(grid),
            call=lambda: lrv.select_block_length(n, reps=self.reps, seed=sel_seed),
            check=check,
        )

    def setup(self) -> Op:
        return self._op(self.ns[0], 1_000_000 * self.seed)

    def cycle(self, index: int) -> list:
        # a fresh selector seed for every op, so no (n, seed) pair repeats
        base = 1_000_000 * self.seed + 1 + len(self.ns) * index
        return [self._op(n, base + j) for j, n in enumerate(self.ns)]


WORKLOADS = {w.name: w for w in (CliAnalysis, McTables, LongSeries, SelectK)}
