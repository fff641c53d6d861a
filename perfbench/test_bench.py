"""Self-test of the benchmark, every workload at tiny size.

    python3 perfbench/test_bench.py      (or: python3 -m pytest perfbench/test_bench.py)

Checks that each workload, run in a fresh interpreter, emits every metric
BENCHMARK.json names with its unit; that within each op the span self
times sum to the op's wall time; that a wrong reference value counts as
a failed op; and that the benchmark fails without a result when the
package sources are missing.
"""

import itertools
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
snstat = run.load_program()

import tracer as tracing  # noqa: E402  (needs the package path set above)
import workloads  # noqa: E402


def _bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _workload(name, workdir):
    wl = workloads.WORKLOADS[name](7, workdir, tiny=True)
    wl.setup()
    return wl


def test_every_metric_emitted_with_unit():
    wanted = {
        "0": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for w in SPEC["workloads"]:
        for trace, units in wanted.items():
            proc = _bench("--workload", w["name"], "--seed", "7", "--seconds", "1",
                          "--trace", trace, "--scale", "tiny")
            assert proc.returncode == 0, proc.stderr
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(out) == {"correct", "attempted", "failed", "metrics"}
            assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            assert got == units, (w["name"], trace, set(got) ^ set(units))
            for k, v in out["metrics"].items():
                assert math.isfinite(v["value"]), (w["name"], k, v)


def test_span_self_times_sum_to_op_wall():
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.HERE) as workdir:
            wl = _workload(name, workdir)
            tr = tracing.Tracer(snstat, workdir)
            tr.install()
            try:
                for op in wl.cycle(0):
                    before = tr.total_self_s()
                    with tr.span("bench.op") as span:
                        op.call()
                    self_sum = tr.total_self_s() - before
                    assert math.isclose(self_sum, span.duration, rel_tol=1e-9,
                                        abs_tol=1e-9), (name, op.key, self_sum, span.duration)
            finally:
                tr.uninstall()
            tr.merge_workers()
            spans = tr.combined()["spans"]
            assert spans["bench.op"][0] == len(wl.cycle(0))
            assert set(spans) - {"bench.op"}, name


def test_wrong_reference_counts_as_failed():
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.HERE) as workdir:
            wl = _workload(name, workdir)
            ops = wl.cycle(0)
            reference = {op.key: op.check(op.call())[0] for op in ops}
            clean = run.run_cycles(wl, 0, run.Run(), itertools.repeat(0), reference)
            assert (clean.attempted, clean.failed) == (len(ops), 0), name

            key = ops[-1].key
            field, value = next(iter(reference[key].items()))
            reference[key][field] = value + 1 if isinstance(value, int) else value * (1 + 1e-6) + 1e-9
            bad = run.run_cycles(wl, 0, run.Run(), itertools.repeat(0), reference)
            assert (bad.attempted, bad.failed) == (len(ops), 1), (name, key, field)


def test_fails_without_program_sources():
    with tempfile.TemporaryDirectory(dir=run.HERE) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        (Path(bare) / "perfbench").mkdir()
        for path in run.HERE.glob("*.py"):
            shutil.copy(path, Path(bare) / "perfbench")
        shutil.copy(run.HERE / "reference.json", Path(bare) / "perfbench")
        proc = _bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"{name}: ok")
