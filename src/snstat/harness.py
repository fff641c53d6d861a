"""Monte Carlo experiment engine: coverage, size and power tables.

Cells (variance profile x error model x block length x method) are fully
determined by the master seed: each replicate's streams are derived by
hashing its cell coordinates and its index r, so any worker count or
grouping of replicates yields the same table.

The pool's work unit is a (cell, replicate range) task, `_run_cell`.
Coverage and size cells are cut into `workers` contiguous ranges, and the
ranges' hit counts add up. A power cell is one task: it gathers the null
statistics of its calibration replicates in replicate order, takes their
critical values, then tests every shift on a shifted copy of the same
noise. It feeds its (R, n) replicate matrices, in row chunks of bounded
size, to the row kernels in `changepoint._TESTS`. A process pool starts
only when there is more than one task.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .changepoint import _TESTS, trimmed_range
from .core import DegenerateDataError, InsufficientBlocksError, _check_int, _choice, _is_real
from .core import partition, row_chunks
from .inference import _INTERVALS
from .rng import derive_seed
from .simgen import _SIGMA_PROFILES, ErrorModel, SigmaProfile, SimModel, generate

COVERAGE_METHODS = tuple(_INTERVALS)
TEST_METHODS = tuple(_TESTS)


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative Monte Carlo configuration.

    level is the confidence level for coverage runs and the significance
    level for size/power runs. lambda_grid and calibration_reps apply to
    power runs only; the mean shift enters after index change_at.
    Names, in any letter case, are stored in the tables' spelling, which names
    the cells and keys their streams; methods keeps each once, () meaning all.
    """

    kind: str  # "coverage", "size", "power"
    n: int = 120
    sigma_profiles: tuple = ("A1",)
    error_models: tuple = (ErrorModel("b1", theta=0.0),)
    k_values: tuple = (10,)
    methods: tuple = ()
    replications: int = 500
    bootstrap_samples: int = 500
    level: float | None = None  # None: 0.95 for coverage, 0.05 for size and power
    lambda_grid: tuple = ()
    calibration_reps: int = 2000
    change_at: int = 40
    trim: float = 0.1
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kind", _choice("kind", self.kind, _RANGE_HITS))
        if self.level is None:
            object.__setattr__(self, "level", 0.95 if self.kind == "coverage" else 0.05)
        ints = "n replications bootstrap_samples calibration_reps change_at master_seed".split()
        checks = [(f, getattr(self, f)) for f in ints] + [("k_values", k) for k in self.k_values]
        for name, value in checks:
            _check_int(name, value, 1 if name in ("replications", "bootstrap_samples") else None)
        for name in ("sigma_profiles", "error_models", "k_values"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        profiles = [_choice("sigma_profiles", p, _SIGMA_PROFILES) for p in self.sigma_profiles]
        object.__setattr__(self, "sigma_profiles", tuple(profiles))
        # one spelling per block length: it names the cell and seeds its streams
        object.__setattr__(self, "k_values", tuple(map(int, self.k_values)))
        for error in self.error_models:
            if not isinstance(error, ErrorModel):
                raise ValueError(f"error_models: expected an ErrorModel, got {error!r}")
        for k in self.k_values:
            try:
                partition(self.n, k)
            except InsufficientBlocksError:
                raise ValueError(f"infeasible cell: n={self.n} with block length k={k}") from None
        if not (_is_real(self.level) and 0 < self.level < 1):
            raise ValueError(f"level: expected a number in (0, 1), got {self.level!r}")
        if self.kind != "coverage":
            try:
                trimmed_range(self.n, self.trim)
            except ValueError as exc:
                raise ValueError(f"trim: {exc}") from None
        for lam in self.lambda_grid:
            if not _is_real(lam):
                raise ValueError(f"lambda_grid: expected finite numbers, got {lam!r}")
        if self.kind == "power":
            if not 1 <= self.change_at <= self.n - 1:
                raise ValueError(
                    f"change_at: expected 1..{self.n - 1} (1..n-1), got {self.change_at}"
                )
            if not self.lambda_grid or 0.0 not in self.lambda_grid:
                raise ValueError("power runs need a lambda grid including 0")
            _check_int("calibration_reps", self.calibration_reps, 1)
        known = COVERAGE_METHODS if self.kind == "coverage" else TEST_METHODS
        methods = dict.fromkeys(_choice("methods", m, known) for m in self.methods)
        object.__setattr__(self, "methods", tuple(methods) or known)

    def resolved_methods(self) -> tuple:
        return self.methods


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


def _replicates(spec, tag: str, profile: str, error: ErrorModel, k: int, r0: int, r1: int):
    """Seeds and (R, n) matrix of replicates r0..r1-1 of a cell's `tag` stream."""
    sigma = SigmaProfile(profile, spec.n)
    label = error.label()
    seeds = [derive_seed(spec.master_seed, tag, profile, label, k, r) for r in range(r0, r1)]
    xmat = np.empty((len(seeds), spec.n))
    for row, seed in zip(xmat, seeds):
        row[:] = generate(SimModel(n=spec.n, sigma=sigma, error=error, seed=seed))
    return seeds, xmat


def _chunks(spec, tag: str, cell: tuple, r0: int, r1: int):
    """`_replicates` of r0..r1-1 in row chunks of at most max(CHUNK_ELEMS, n) values."""
    for rows in row_chunks(r1 - r0, spec.n):
        yield _replicates(spec, tag, *cell, r0, r0 + rows)
        r0 += rows


def _stat_rows(spec, cell: tuple, m: str, xmat: np.ndarray) -> np.ndarray:
    """Test statistic m of every row of xmat, by its row kernel; a degenerate row raises."""
    stats, ok = _TESTS[m][1](xmat, spec.trim, cell[2])
    if not ok.all():
        profile, error, k = cell
        raise DegenerateDataError(
            f"degenerate replicate in cell ({profile}, {error.label()}, k={k}) for method {m}"
        )
    return stats


def _rate_range(spec, cell: tuple, r0: int, r1: int) -> np.ndarray:
    """Hit counts per method over replicates r0..r1-1 of a coverage or size cell."""
    methods = spec.resolved_methods()
    hits = np.zeros(len(methods), dtype=np.int64)
    for seeds, xmat in _chunks(spec, spec.kind, cell, r0, r1):
        for seed, x in zip(seeds, xmat):
            for i, m in enumerate(methods):
                hits[i] += _HITS[spec.kind](spec, x, cell[2], m, derive_seed(seed, "boot", m))
    return hits


def _power_range(spec, cell: tuple, r0: int, r1: int) -> np.ndarray:
    """(methods, lambdas) rejection counts over replicates r0..r1-1 of a power cell.

    Each method's critical value is the 1 - alpha quantile of its statistics
    on all of the cell's calibration replicates. Every lambda shifts a copy
    of the same noise matrix, so the only difference across lambda is the
    mean shift itself.
    """
    methods = spec.resolved_methods()
    calib = np.concatenate([
        np.column_stack([_stat_rows(spec, cell, m, xmat) for m in methods])
        for _seeds, xmat in _chunks(spec, "power-calib", cell, 0, spec.calibration_reps)
    ])
    alpha = _test_alpha(spec)
    crit = [float(np.quantile(calib[:, i], 1.0 - alpha)) for i in range(len(methods))]
    hits = np.zeros((len(methods), len(spec.lambda_grid)), dtype=np.int64)
    for _seeds, base in _chunks(spec, "power", cell, r0, r1):
        for j, lam in enumerate(spec.lambda_grid):
            x = base.copy()
            x[:, spec.change_at :] += lam
            for i, m in enumerate(methods):
                hits[i, j] += np.count_nonzero(_stat_rows(spec, cell, m, x) > crit[i])
    return hits


# kind -> hits(spec, cell, r0, r1): the hit counts of replicates r0..r1-1 of a cell
_RANGE_HITS = {"coverage": _rate_range, "size": _rate_range, "power": _power_range}


def _run_cell(task):
    """Run one (cell, replicate range) task: the pool's work unit."""
    spec, cell, r0, r1 = task
    return _RANGE_HITS[spec.kind](spec, cell, r0, r1)


def _split(count: int, parts: int) -> list:
    """0..count-1 cut into at most `parts` contiguous, non-empty (r0, r1) ranges."""
    bounds = [count * i // parts for i in range(parts + 1)]
    return [(r0, r1) for r0, r1 in zip(bounds, bounds[1:]) if r0 < r1]


def _cells(spec: ExperimentSpec, cell: tuple, hits: np.ndarray) -> dict:
    """The table entries of one cell from its (methods[, lambdas]) hit counts."""
    profile, error, k = cell
    keys = [(m,) for m in spec.resolved_methods()]
    if spec.kind == "power":
        keys = [key + (lam,) for key in keys for lam in spec.lambda_grid]
    return {
        (profile, error.label(), k, *key): _binomial_cell(int(h), spec.replications)
        for key, h in zip(keys, hits.ravel())
    }


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Evaluate every cell of the spec; deterministic for any worker count."""
    _check_int("workers", workers, 1)
    t0 = time.perf_counter()
    # each cell once: the hit counts of its ranges are added up by cell
    grid = list(dict.fromkeys(
        (profile, error, k)
        for profile in spec.sigma_profiles
        for error in spec.error_models
        for k in spec.k_values
    ))
    ranges = _split(spec.replications, 1 if spec.kind == "power" else workers)
    tasks = [(spec, cell, r0, r1) for cell in grid for r0, r1 in ranges]
    parallel = workers > 1 and len(tasks) > 1
    with ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        hits_of = list((pool.map if parallel else map)(_run_cell, tasks))
    totals: dict = {}
    for (_spec, cell, *_range), hits in zip(tasks, hits_of):
        totals[cell] = totals.get(cell, 0) + hits
    cells: dict = {}
    for cell, hits in totals.items():
        cells.update(_cells(spec, cell, hits))
    return ExperimentResult(cells=cells, spec=spec, wall_time=time.perf_counter() - t0)
