"""Span tracer that wraps snstat's module-level functions from outside.

`Tracer.install()` replaces every module-level function of the layer
modules, in every namespace that holds it by name (so
`snstat.changepoint._tau_sq_selfnorm_rows` is wrapped as well as
`snstat.lrv._tau_sq_selfnorm_rows`), with a wrapper that opens a span.
Calls between wrapped functions therefore nest, and each span's self
time is its duration minus the durations of its direct children.

Spans are aggregated as they close, per span name: calls, self time,
total time and bytes computed from argument shapes. Nothing in the
package is edited; `uninstall()` puts the original functions back.

Worker processes forked by the harness inherit the wrappers. The child
drops the parent's state at fork and, whenever a harness cell span
closes, appends its aggregate to `spans-<pid>.jsonl` in the flush
directory; `merge_workers()` folds those files into `worker_stats`.
"""

from __future__ import annotations

import functools
import glob
import inspect
import json
import math
import os
import time
import tracemalloc
import types

LAYERS = (
    "cli",
    "harness",
    "simgen",
    "rng",
    "inference",
    "changepoint",
    "lrv",
    "core",
    "regression",
)

# Span names for functions whose own names are too long or private.
ALIASES = {
    "_tau_sq_selfnorm_rows": "tau_selfnorm_rows",
    "_tau_sq_stationary_rows": "tau_stationary_rows",
    "_sn_stat_rows": "sn_stat_rows",
    "_classical_stat_rows": "classical_stat_rows",
    "_multipliers": "multipliers",
    "_run_cell": "cell",
}

# Row kernels that evaluate one batch of bootstrap replicates.
STAT_KERNELS = frozenset(
    {
        "lrv.tau_selfnorm_rows",
        "lrv.tau_stationary_rows",
        "changepoint.sn_stat_rows",
        "changepoint.classical_stat_rows",
    }
)

# Bootstrap resamplers: each call asks for B replicates and calls one of the
# STAT_KERNELS once per draw round (the plain block bootstrap calls none,
# and never redraws).
RESAMPLERS = frozenset(
    {
        "inference.wild_bootstrap_mean",
        "inference.block_bootstrap_mean",
        "changepoint.sn_test",
        "changepoint.classical_test",
    }
)

CELL_SPAN = "harness.cell"


def _matrix_probe(a):
    x = a["xmat"]
    return x.shape[0], x.nbytes, 0


def _multiplier_probe(a):
    size = a["size"]
    count = math.prod(size) if isinstance(size, tuple) else int(size)
    return 0, 8 * count, 0


def _resampler_probe(a):
    return 0, 0, int(a["B"])


# name -> f(bound arguments) -> (rows, bytes computed, B requested)
PROBES = {name: _matrix_probe for name in STAT_KERNELS}
PROBES["inference.multipliers"] = _multiplier_probe
PROBES.update({name: _resampler_probe for name in RESAMPLERS})


def span_name(fn) -> str:
    layer = fn.__module__.rpartition(".")[2]
    name = ALIASES.get(fn.__name__, fn.__name__.lstrip("_"))
    return f"{layer}.{name}"


class _Frame:
    __slots__ = ("name", "t0", "child_s", "rows", "nbytes", "B", "kcalls", "krows")

    def __init__(self, name, rows=0, nbytes=0, B=0):
        self.name = name
        self.rows = rows
        self.nbytes = nbytes
        self.B = B
        self.child_s = 0.0
        self.kcalls = 0
        self.krows = 0
        self.t0 = time.perf_counter()


def new_stats() -> dict:
    """Empty aggregate: per-span [calls, self_s, total_s, bytes] plus resampling counts."""
    return {
        "spans": {},
        "resample": {"boot_calls": 0, "rounds": 0, "B": 0, "rows": 0},
    }


def merge_stats(into: dict, part: dict) -> None:
    for name, vals in part["spans"].items():
        acc = into["spans"].setdefault(name, [0, 0.0, 0.0, 0])
        for i, v in enumerate(vals):
            acc[i] += v
    for key, v in part["resample"].items():
        into["resample"][key] += v


class Tracer:
    def __init__(self, package, flush_dir: str):
        self.package = package
        self.flush_dir = flush_dir
        self.stats = new_stats()
        self.worker_stats = new_stats()
        self._stack: list[_Frame] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self._owner = os.getpid()
        self.installed = False
        os.register_at_fork(after_in_child=self._after_fork_child)

    # -- spans ---------------------------------------------------------
    def _enter(self, frame: _Frame) -> _Frame:
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> float:
        dur = time.perf_counter() - frame.t0
        stack = self._stack
        stack.pop()
        acc = self.stats["spans"].get(frame.name)
        if acc is None:
            acc = self.stats["spans"][frame.name] = [0, 0.0, 0.0, 0]
        acc[0] += 1
        acc[1] += dur - frame.child_s
        acc[2] += dur
        acc[3] += frame.nbytes
        if stack:
            parent = stack[-1]
            parent.child_s += dur
            if frame.name in STAT_KERNELS:
                parent.kcalls += 1
                parent.krows += frame.rows
        if frame.name in RESAMPLERS:
            res = self.stats["resample"]
            res["boot_calls"] += 1
            res["B"] += frame.B
            # a resampler without a row kernel draws exactly B rows in one round
            res["rounds"] += max(frame.kcalls, 1)
            res["rows"] += frame.krows if frame.kcalls else frame.B
        if frame.name == CELL_SPAN and os.getpid() != self._owner:
            self._flush_child()
        return dur

    def span(self, name: str):
        """Context manager opening a span around benchmark-side code."""
        return _SpanContext(self, name)

    def total_self_s(self) -> float:
        return sum(v[1] for v in self.stats["spans"].values())

    # -- wrapping ------------------------------------------------------
    def _wrap(self, fn):
        name = span_name(fn)
        probe = PROBES.get(name)
        sig = inspect.signature(fn) if probe else None
        tracer = self

        if probe is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = tracer._enter(_Frame(name))
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                frame = tracer._enter(_Frame(name, *probe(bound.arguments)))
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)

        return wrapper

    def install(self) -> None:
        """Wrap every package function in each layer module and the package."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        pkg = self.package.__name__
        modules = [getattr(self.package, layer) for layer in LAYERS] + [self.package]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith(pkg + ".")
                ):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
        self.installed = True

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()
        self.installed = False

    # -- worker processes ----------------------------------------------
    def _after_fork_child(self) -> None:
        if not self.installed:
            return
        self._stack.clear()
        self.stats = new_stats()
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def _flush_child(self) -> None:
        path = os.path.join(self.flush_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(self.stats) + "\n")
        self.stats = new_stats()

    def merge_workers(self) -> None:
        """Fold worker span files into worker_stats and delete them."""
        for path in sorted(glob.glob(os.path.join(self.flush_dir, "spans-*.jsonl"))):
            with open(path) as fh:
                for line in fh:
                    merge_stats(self.worker_stats, json.loads(line))
            os.remove(path)

    def combined(self) -> dict:
        """Parent and worker aggregates together."""
        out = new_stats()
        merge_stats(out, self.stats)
        merge_stats(out, self.worker_stats)
        return out


class _SpanContext:
    __slots__ = ("tracer", "name", "frame", "duration")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.duration = 0.0

    def __enter__(self):
        self.frame = self.tracer._enter(_Frame(self.name))
        return self

    def __exit__(self, *exc):
        self.duration = self.tracer._exit(self.frame)
        return False
