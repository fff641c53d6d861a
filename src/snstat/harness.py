"""Monte Carlo experiment engine: coverage, size and power tables.

Cells (variance profile x error model x block length x method) are fully
determined by the master seed: cell and replicate streams are derived by
hashing coordinates, so any worker count or evaluation order yields the
same table.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .changepoint import _TESTS
from .inference import _INTERVALS
from .rng import derive_seed
from .simgen import ErrorModel, SigmaProfile, SimModel, generate

COVERAGE_METHODS = tuple(_INTERVALS)
TEST_METHODS = tuple(_TESTS)


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative Monte Carlo configuration.

    level is the confidence level for coverage runs and the significance
    level for size/power runs. lambda_grid and calibration_reps apply to
    power runs only; the mean shift enters after index change_at.
    """

    kind: str  # "coverage", "size", "power"
    n: int = 120
    sigma_profiles: tuple = ("A1",)
    error_models: tuple = (ErrorModel("b1", theta=0.0),)
    k_values: tuple = (10,)
    methods: tuple = ()
    replications: int = 500
    bootstrap_samples: int = 500
    level: float = 0.95
    lambda_grid: tuple = ()
    calibration_reps: int = 2000
    change_at: int = 40
    trim: float = 0.1
    master_seed: int = 0

    def __post_init__(self):
        if self.kind not in _CELL_RUNNERS:
            raise ValueError(f"unknown experiment kind: {self.kind!r}")
        if self.replications < 1 or self.bootstrap_samples < 1:
            raise ValueError("replications and bootstrap_samples must be >= 1")
        if self.kind == "power":
            if not self.lambda_grid or 0.0 not in self.lambda_grid:
                raise ValueError("power runs need a lambda grid including 0")
            if self.calibration_reps < 1:
                raise ValueError("calibration_reps must be >= 1")
        known = COVERAGE_METHODS if self.kind == "coverage" else TEST_METHODS
        bad = set(m.lower() for m in self.methods) - set(known)
        if bad:
            raise ValueError(f"unknown methods for kind={self.kind!r}: {sorted(bad)}")

    def resolved_methods(self) -> tuple:
        if self.methods:
            return tuple(m.lower() for m in self.methods)
        return COVERAGE_METHODS if self.kind == "coverage" else TEST_METHODS


@dataclass
class ExperimentResult:
    """Rates per cell with binomial Monte Carlo standard errors."""

    cells: dict
    spec: ExperimentSpec
    wall_time: float = 0.0

    def rate(self, *key) -> float:
        return self.cells[key]["rate"]

    def to_rows(self) -> list[dict]:
        names = ("profile", "error", "k_n", "method", "lambda")  # lambda: power cells only
        return [
            dict(zip(names, key), rate=cell["rate"], se=cell["se"])
            for key, cell in sorted(self.cells.items())
        ]

    def to_table(self) -> str:
        """Pivoted text table, one line per (profile, error, k[, lambda])."""
        methods = self.spec.resolved_methods()
        groups: dict[tuple, dict] = {}
        for key, cell in self.cells.items():
            groups.setdefault(key[:3] + key[4:], {})[key[3]] = cell["rate"]
        header = ["profile", "error", "k_n"]
        if self.spec.kind == "power":
            header.append("lambda")
        lines = ["\t".join(header + list(methods))]
        for gk in sorted(groups):
            vals = [f"{100 * groups[gk].get(m, float('nan')):.1f}" for m in methods]
            lines.append("\t".join(str(v) for v in gk) + "\t" + "\t".join(vals))
        return "\n".join(lines)


def _binomial_cell(hits: int, total: int) -> dict:
    rate = hits / total
    return {"rate": rate, "se": float(np.sqrt(rate * (1.0 - rate) / total))}


def _test_alpha(spec: ExperimentSpec) -> float:
    """Significance level of a size or power run; level may be given either way round."""
    return spec.level if spec.level < 0.5 else 1.0 - spec.level


# kind -> hit(spec, x, k, method, boot_seed): whether one replicate counts
_HITS = {
    "coverage": lambda spec, x, k, m, seed: _INTERVALS[m](
        x, 1.0 - spec.level, k, spec.bootstrap_samples, seed, "rademacher"
    ).covers(0.0),
    "size": lambda spec, x, k, m, seed: _test_alpha(spec) >= _TESTS[m][0](
        x, spec.trim, k, spec.bootstrap_samples, seed
    ).p_value,
}


def _replicates(spec, tag: str, profile: str, error: ErrorModel, k: int, count: int):
    """Yield (seed, series) for replicates 0..count-1 of a cell's `tag` stream."""
    sigma = SigmaProfile(profile, spec.n)
    for r in range(count):
        seed = derive_seed(spec.master_seed, tag, profile, error.label(), k, r)
        yield seed, generate(SimModel(n=spec.n, sigma=sigma, error=error, seed=seed))


def _rate_cell(spec: ExperimentSpec, profile: str, error: ErrorModel, k: int):
    """Coverage or size cell, on the stream tagged by its kind: the share of hits per method."""
    methods = spec.resolved_methods()
    hits = {m: 0 for m in methods}
    for seed, x in _replicates(spec, spec.kind, profile, error, k, spec.replications):
        for m in methods:
            hits[m] += _HITS[spec.kind](spec, x, k, m, derive_seed(seed, "boot", m))
    return {
        (profile, error.label(), k, m): _binomial_cell(hits[m], spec.replications)
        for m in methods
    }


def _power_cell(spec: ExperimentSpec, profile: str, error: ErrorModel, k: int):
    methods = spec.resolved_methods()
    alpha = _test_alpha(spec)

    # Phase 1: critical values with exact empirical size, from null draws.
    null = _replicates(spec, "power-calib", profile, error, k, spec.calibration_reps)
    calib = np.array([[_TESTS[m][1](x, spec.trim, k) for m in methods] for _seed, x in null])
    crit = {m: float(np.quantile(calib[:, i], 1.0 - alpha)) for i, m in enumerate(methods)}

    # Phase 2: rejection rates on a shared noise path per replicate, so
    # the only difference across lambda is the mean shift itself.
    hits = {(m, lam): 0 for m in methods for lam in spec.lambda_grid}
    for _seed, base in _replicates(spec, "power", profile, error, k, spec.replications):
        for lam in spec.lambda_grid:
            x = base.copy()
            x[spec.change_at :] += lam
            for m in methods:
                hits[(m, lam)] += _TESTS[m][1](x, spec.trim, k) > crit[m]
    return {
        (profile, error.label(), k, m, lam): _binomial_cell(h, spec.replications)
        for (m, lam), h in hits.items()
    }


_CELL_RUNNERS = {"coverage": _rate_cell, "size": _rate_cell, "power": _power_cell}


def _run_cell(args):
    spec, profile, error, k = args
    if spec.n < 2 * k:
        raise ValueError(f"infeasible cell: n={spec.n} with block length k={k}")
    return _CELL_RUNNERS[spec.kind](spec, profile, error, k)


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Evaluate every cell of the spec; deterministic for any worker count."""
    if spec.kind not in _CELL_RUNNERS:
        raise ValueError(f"unknown experiment kind: {spec.kind!r}")
    t0 = time.perf_counter()
    tasks = [
        (spec, profile, error, k)
        for profile in spec.sigma_profiles
        for error in spec.error_models
        for k in spec.k_values
    ]
    cells: dict = {}
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_run_cell, tasks):
                cells.update(part)
    else:
        for task in tasks:
            cells.update(_run_cell(task))
    return ExperimentResult(cells=cells, spec=spec, wall_time=time.perf_counter() - t0)
