"""snstat benchmark: one workload per run, in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/` there. Workloads are defined in `workloads.py`.

--trace 0 measures the end-to-end metrics untraced: set-up time (imports
once, then the median of SETUP_REPEATS rounds of input generation plus
one warm-up op), series evaluated per second, top-level op latency p50
and p90, peak RSS of this process, and the share of ops whose outputs
passed their checks.

--trace 1 measures the per-layer metrics: after set-up it runs one cycle
untraced, one cycle under tracemalloc (peak allocation per top-level
call), then cycles with every snstat module-level function wrapped in a
span (`tracer.py`) for --seconds. Counts and times are per cycle.

Ops run in whole cycles; a new cycle starts only while the mean cycle
time still fits in --seconds, so every run does the same mix of calls.
The last line of stdout is the JSON result; the line before it holds
the provenance and sample counts.
"""

import time

T_START = time.perf_counter()

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
WORK_DIR = HERE / ".work"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "series_per_s": "series/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

TOP_LEVEL = (
    "cli.main",
    "harness.run_experiment",
    "inference.wb_ci",
    "inference.bb_ci",
    "changepoint.classical_test",
    "changepoint.sn_test",
    "lrv.select_block_length",
)
# (span, counter) pairs reported per cycle; counter is calls, self_s or mb_computed
SPAN_METRICS = (
    ("lrv.select_block_length", "self_s"),
    ("lrv.tau_selfnorm_rows", "calls"),
    ("lrv.tau_selfnorm_rows", "self_s"),
    ("lrv.tau_selfnorm_rows", "mb_computed"),
    ("lrv.tau_stationary_rows", "calls"),
    ("lrv.tau_stationary_rows", "self_s"),
    ("lrv.tau_stationary_rows", "mb_computed"),
    ("changepoint.sn_stat_rows", "calls"),
    ("changepoint.sn_stat_rows", "self_s"),
    ("changepoint.sn_stat_rows", "mb_computed"),
    ("changepoint.classical_stat_rows", "calls"),
    ("changepoint.classical_stat_rows", "self_s"),
    ("changepoint.classical_stat_rows", "mb_computed"),
    ("inference.multipliers", "calls"),
    ("inference.multipliers", "self_s"),
    ("inference.multipliers", "mb_computed"),
    ("inference.wild_bootstrap_mean", "self_s"),
    ("inference.block_bootstrap_mean", "self_s"),
    ("simgen.generate", "calls"),
    ("simgen.generate", "self_s"),
    ("simgen.gen_b1", "self_s"),
    ("rng.derive_seed", "calls"),
    ("rng.derive_seed", "self_s"),
    ("changepoint.sn_statistic", "self_s"),
    ("changepoint.classical_statistic", "self_s"),
    ("cli.main", "self_s"),
    ("cli.ingest_csv", "self_s"),
    ("core.prefix_suffix_scan", "self_s"),
    ("regression.fit_trend", "self_s"),
)
GBPS_SPANS = ("lrv.tau_selfnorm_rows",)
COUNTER_UNITS = {"calls": "calls/cycle", "self_s": "s/cycle", "mb_computed": "MB/cycle"}


def per_layer_units(layers) -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{layer}.self_s": "s/cycle" for layer in layers}
    for span, counter in SPAN_METRICS:
        units[f"{span}.{counter}"] = COUNTER_UNITS[counter]
    for span in GBPS_SPANS:
        units[f"{span}.gbps_computed"] = "GB/s"
    units.update(
        {
            "resample.redraw_rounds": "rounds/cycle",
            "resample.useful_ratio": "ratio",
            "harness.cell.busy_s": "s/cycle",
            "harness.parallel_eff": "ratio",
        }
    )
    for top in TOP_LEVEL:
        units[f"{top}.peak_alloc_mb"] = "MB"
    units["trace.overhead_s"] = "s/cycle"
    return units


def load_program():
    """Import snstat from the checkout's src/, or exit non-zero without a result."""
    if not (SRC / "snstat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no snstat sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import snstat

    if Path(snstat.__file__).resolve().parent != SRC / "snstat":
        sys.exit(f"perfbench: snstat imported from {snstat.__file__}, not {SRC}")
    return snstat


class Run:
    """Outcome of the measured cycles of one run."""

    def __init__(self):
        self.latencies = []
        self.cycle_walls = []
        self.series = 0
        self.attempted = 0
        self.failed = 0
        self.peak_alloc = {}

    @property
    def cycles(self) -> int:
        return len(self.cycle_walls)


def run_op(op, run: Run, reference=None, tracer=None) -> None:
    """Time one op, check its outputs and record the outcome in run."""
    run.attempted += 1
    problems = []
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = op.call()
        else:
            with tracer.span("bench.op"):
                result = op.call()
    except Exception:
        dt = time.perf_counter() - t0
        problems.append(traceback.format_exc(limit=3))
    else:
        dt = time.perf_counter() - t0
        problems = op.verify(result, reference)
    run.latencies.append(dt)
    if problems:
        run.failed += 1
        print(f"perfbench: op {op.key} failed: {'; '.join(problems)}", file=sys.stderr)
    else:
        run.series += op.series


def run_cycles(workload, seconds: float, run: Run, cycle_ids, reference=None,
               tracer=None) -> Run:
    """Run whole cycles while the mean cycle time still fits in seconds.

    cycle_ids numbers the cycles across every Run of the process, so
    workloads that draw a fresh seed per cycle never repeat one.
    """
    begin = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        for op in workload.cycle(next(cycle_ids)):
            if tracemalloc.is_tracing():
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            run_op(op, run, reference, tracer)
            if tracemalloc.is_tracing():
                peak = (tracemalloc.get_traced_memory()[1] - before) / 2**20
                run.peak_alloc[op.top] = max(run.peak_alloc.get(op.top, 0.0), peak)
        run.cycle_walls.append(time.perf_counter() - c0)
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / run.cycles > seconds:
            return run


def run_traced(workload, seconds: float, tracer, cycle_ids, reference=None):
    """Alternate untraced and traced cycles while a pair still fits in seconds.

    Returns (allocs, plain, traced): one cycle under tracemalloc for peak
    allocation per top-level call, then the untraced and traced cycles.
    """
    allocs, plain, traced = Run(), Run(), Run()
    tracemalloc.start()
    try:
        run_cycles(workload, 0, allocs, cycle_ids, reference)
    finally:
        tracemalloc.stop()
    begin = time.perf_counter()
    while True:
        run_cycles(workload, 0, plain, cycle_ids, reference)
        tracer.install()
        try:
            run_cycles(workload, 0, traced, cycle_ids, reference, tracer)
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / traced.cycles > seconds:
            break
    tracer.merge_workers()
    return allocs, plain, traced


def set_up(workload, repeats: int) -> float:
    """Median wall time of repeats rounds of input generation plus warm-up."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        warm = workload.setup()
        warm.call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(run: Run, setup_s: float) -> dict:
    lat = sorted(run.latencies)
    p50, p90 = (statistics.quantiles(lat, n=10, method="inclusive")[i] for i in (4, 8))
    values = {
        "setup_s": setup_s,
        "series_per_s": run.series / sum(lat),
        "op_ms_p50": 1e3 * p50,
        "op_ms_p90": 1e3 * p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (run.attempted - run.failed) / run.attempted,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(stats: dict, run: Run, plain: Run, peak_alloc: dict,
              workers: int, layers) -> dict:
    spans, res = stats["spans"], stats["resample"]
    cycles = run.cycles

    def get(span, i):
        return spans.get(span, (0, 0.0, 0.0, 0))[i]

    values = {}
    for layer in layers:
        values[f"{layer}.self_s"] = sum(
            v[1] for name, v in spans.items() if name.startswith(layer + ".")
        ) / cycles
    for span, counter in SPAN_METRICS:
        i = {"calls": 0, "self_s": 1, "mb_computed": 3}[counter]
        scale = 1e-6 if counter == "mb_computed" else 1.0
        values[f"{span}.{counter}"] = scale * get(span, i) / cycles
    for span in GBPS_SPANS:
        self_s = get(span, 1)
        values[f"{span}.gbps_computed"] = get(span, 3) / self_s / 1e9 if self_s else 0.0
    values["resample.redraw_rounds"] = (res["rounds"] - res["boot_calls"]) / cycles
    values["resample.useful_ratio"] = res["B"] / res["rows"] if res["rows"] else 1.0
    busy = get("harness.cell", 2)
    wall = get("harness.run_experiment", 2)
    values["harness.cell.busy_s"] = busy / cycles
    values["harness.parallel_eff"] = busy / (workers * wall) if wall else 0.0
    for top in TOP_LEVEL:
        values[f"{top}.peak_alloc_mb"] = peak_alloc.get(top, 0.0)
    values["trace.overhead_s"] = (
        statistics.median(run.cycle_walls) - statistics.median(plain.cycle_walls)
    )
    units = per_layer_units(layers)
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu():
    model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (idx / f).read_text().strip() for f in ("level", "type", "size")
            )
        except OSError:
            continue
        caches[f"L{level}-{kind}"] = size
    return model, caches


def provenance(seed: int, workers: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "snstat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    model, caches = _cpu()
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for the self-test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")  # numpy generators take no negative seed

    snstat = load_program()
    from workloads import REFERENCE_SEED, WORKLOADS
    import_s = time.perf_counter() - T_START

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    tiny = args.scale == "tiny"
    reference = None
    if args.seed == REFERENCE_SEED and not tiny:
        with open(HERE / "reference.json") as fh:
            reference = json.load(fh)[args.workload]

    workdir = WORK_DIR / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir), tiny=tiny)
        workers = getattr(workload, "workers", 1)
        cycle_ids = itertools.count()
        if args.trace == 0:
            setup_s = import_s + set_up(workload, SETUP_REPEATS)
            run = run_cycles(workload, args.seconds, Run(), cycle_ids, reference)
            metrics = end_to_end(run, setup_s)
        else:
            from tracer import LAYERS, Tracer

            set_up(workload, 1)
            tracer = Tracer(snstat, str(workdir))
            allocs, plain, run = run_traced(
                workload, args.seconds, tracer, cycle_ids, reference
            )
            metrics = per_layer(tracer.combined(), run, plain, allocs.peak_alloc,
                                workers, LAYERS)
            run.attempted += allocs.attempted + plain.attempted
            run.failed += allocs.failed + plain.failed
        info = {
            "workload": args.workload,
            "trace": args.trace,
            "scale": args.scale,
            "cycles": run.cycles,
            "ops": len(run.latencies),
            "cycle_s": run.cycle_walls,
            "provenance": provenance(args.seed, workers),
        }
        print("perfbench: " + json.dumps(info))
        print(json.dumps({
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            WORK_DIR.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
