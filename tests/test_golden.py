"""Golden outputs: the exact repr of every number a set of reference calls returns.

Each public statistic is run once at n = 120 and seed 0 with a small B, and
every float (and integer) it returns is flattened, in field order, into a
list of repr strings. `golden.json` holds those lists as recorded before
the statistics' shared code was last restructured, so a refactor that keeps
every definition must leave them equal (==), to the last bit.

Regenerate the file only when a method's outputs change by design, and say
so where the change is recorded:

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import json
import numbers
from pathlib import Path

import numpy as np
import pytest

from snstat.changepoint import classical_test, sn_test, variance_change_test
from snstat.harness import ExperimentSpec, run_experiment
from snstat.inference import (
    bb_ci,
    block_bootstrap_mean,
    combo_ci,
    sn_ci,
    st_ci,
    wb_ci,
    wild_bootstrap_mean,
)
from snstat.lrv import lrv_selfnorm, lrv_stationary, select_block_length
from snstat.regression import fit_trend, regression_lrv, trend_ci
from snstat.simgen import ErrorModel, SigmaProfile, SimModel, generate

GOLDEN = Path(__file__).with_name("golden.json")
N, K, B = 120, 10, 100


def _flat(value) -> list:
    """repr of every number in value (dataclass fields in order, dicts by key)."""
    if isinstance(value, (bool, np.bool_, str)):
        return [repr(value if isinstance(value, str) else bool(value))]
    if isinstance(value, numbers.Integral):
        return [repr(int(value))]
    if isinstance(value, numbers.Real):
        return [repr(float(value))]
    if isinstance(value, np.ndarray):
        return [repr(v) for v in value.ravel().tolist()]
    if dataclasses.is_dataclass(value):
        return _flat([getattr(value, f.name) for f in dataclasses.fields(value)])
    if isinstance(value, dict):
        return _flat(sorted(value.items()))
    return [s for item in value for s in _flat(item)]


def _spec(kind, **kw):
    return ExperimentSpec(
        kind=kind,
        n=N,
        error_models=(ErrorModel("b1", theta=0.4),),
        k_values=(K,),
        replications=4,
        bootstrap_samples=30,
        level=0.95 if kind == "coverage" else 0.05,
        **kw,
    )


def reference_calls() -> dict:
    """name -> zero-argument call whose return value is recorded."""
    model = SimModel(n=N, sigma=SigmaProfile("A1", N), error=ErrorModel("b1", theta=0.4))
    x = generate(model)
    shifted = x + np.where(np.arange(N) < 60, 0.0, 0.5)
    fit = fit_trend(x + np.linspace(0.0, 1.0, N))
    return {
        "sn_ci": lambda: sn_ci(x, 0.05, K),
        "st_ci": lambda: st_ci(x, 0.05, K),
        "wb_ci": lambda: wb_ci(x, 0.05, K, B=B),
        "wb_ci_gaussian": lambda: wb_ci(x, 0.05, K, B=B, law="gaussian"),
        "bb_ci": lambda: bb_ci(x, 0.05, K, B=B),
        "sbb_ci": lambda: bb_ci(x, 0.05, K, B=B, studentized=True),
        "combo_ci": lambda: combo_ci([x[:60], x[60:]], [-1.0, 1.0], 0.05, 6),
        "trend_ci_beta0": lambda: trend_ci(fit, "beta0", 0.05, K),
        "trend_ci_beta1": lambda: trend_ci(fit, "beta1", 0.05, K),
        "fit_trend": lambda: fit,
        "regression_lrv": lambda: regression_lrv(fit, K),
        "wild_bootstrap_mean": lambda: wild_bootstrap_mean(x, B, K),
        "block_bootstrap_mean": lambda: block_bootstrap_mean(x, B, K, studentized=True),
        "sn_test": lambda: sn_test(shifted, 0.1, K, B),
        "sn_test_gaussian": lambda: sn_test(shifted, 0.1, K, B, law="gaussian"),
        "classical_test_t1": lambda: classical_test(shifted, 0.1, K, B, "t1"),
        "classical_test_t2": lambda: classical_test(shifted, 0.1, K, B, "t2"),
        "classical_test_constant": lambda: classical_test(np.full(N, 0.3), 0.1, K, B),
        "variance_change_test": lambda: variance_change_test(x, 0.1, K, B),
        "lrv_selfnorm": lambda: lrv_selfnorm(x, K),
        "lrv_stationary": lambda: lrv_stationary(x, K),
        "select_block_length": lambda: select_block_length(N, reps=200),
        "experiment_coverage": lambda: run_experiment(_spec("coverage")).cells,
        "experiment_size": lambda: run_experiment(_spec("size")).cells,
        "experiment_power": lambda: run_experiment(
            _spec("power", calibration_reps=20, lambda_grid=(0.0, 1.0))
        ).cells,
    }


def record() -> dict:
    return {name: _flat(call()) for name, call in reference_calls().items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_reference_call_is_recorded(golden):
    assert sorted(golden) == sorted(reference_calls())


@pytest.mark.parametrize("name", sorted(reference_calls()))
def test_reference_call_matches_golden(golden, name):
    assert _flat(reference_calls()[name]()) == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
