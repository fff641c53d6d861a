"""End-to-end acceptance gate.

Each test covers one release criterion, prints a single PASS/FAIL
summary line (visible with pytest -s, or on failure), and enforces all
of the criterion's tolerances in one assertion.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.special import zeta

from snstat.changepoint import sn_scan, sx
from snstat.core import prefix_suffix_scan, segment_stats
from snstat.harness import ExperimentSpec, run_experiment
from snstat.inference import (
    block_bootstrap_mean,
    combo_ci,
    normal_quantile,
    sn_ci,
)
from snstat.lrv import lrv_selfnorm, lrv_stationary, select_block_length
from snstat.regression import fit_trend, regression_lrv
from snstat.simgen import ErrorModel, SimModel, SigmaProfile, gen_b2, generate


def _verdict(num, name, checks):
    failed = [desc for desc, ok in checks if not ok]
    status = "FAIL" if failed else "PASS"
    line = f"acceptance {num} ({name}): {status}"
    if failed:
        line += " — failed: " + "; ".join(failed)
    print(line)
    assert not failed, line


def _close(a, b, tol=1e-10):
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def test_1_hand_oracles():
    t0 = time.perf_counter()
    checks = []

    checks.append(("cusum contrast", _close(sx([1.0, 2.0, 3.0, 4.0], 2), -2.0)))

    scan = sn_scan([0.0, 2.0, 1.0, 3.0], c=0.4)
    checks.append(("self-normalized scan value", _close(scan.values[0], -1.0)))
    checks.append(("self-normalized scan argmax", scan.j_hat == 2))

    est = lrv_selfnorm([0.0, 2.0, 2.0, 4.0], 2)
    checks.append(("self-normalized lrv", _close(est.tau_sq_hat, 2.0)))
    checks.append(
        (
            "self-normalized lrv blocks",
            np.allclose(est.d_values, [-np.sqrt(2), np.sqrt(2)], rtol=1e-10),
        )
    )
    checks.append(
        ("stationary lrv", _close(lrv_stationary([0.0, 2.0, 2.0, 4.0], 2).tau_sq_hat, 2.0))
    )

    fit = fit_trend([0.0, 1.0])
    checks.append(("trend slope", _close(fit.beta1_hat, 2.0)))
    checks.append(("trend intercept", _close(fit.beta0_hat, -1.0)))

    base = fit_trend(np.random.default_rng(0).normal(size=4))
    rfit = dataclasses.replace(base, residuals=np.array([1.0, 1.0, -1.0, -1.0]))
    checks.append(("residual lrv", _close(regression_lrv(rfit, 2).tau_sq_hat, 2.0)))

    boot = block_bootstrap_mean([0.0, 2.0, 2.0, 4.0], 512, 2, seed=0)
    uniq = np.unique(np.round(boot.values, 10))
    checks.append(
        ("block-bootstrap enumeration", np.allclose(uniq, [-2.0, 0.0, 2.0], atol=1e-10))
    )

    eps = np.array([-1.0, 1.0])
    sums = sorted(
        float(np.sum(eps * np.array(signs)))
        for signs in [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    )
    checks.append(("wild-multiplier enumeration", sums == [-2.0, 0.0, 0.0, 2.0]))

    z = normal_quantile(0.975)
    ci = sn_ci([0.0, 2.0, 2.0, 4.0], 0.05, 2)
    checks.append(("mean interval", _close(ci.lower, 2.0 - z) and _close(ci.upper, 2.0 + z)))
    cci = combo_ci([[0.0, 2.0], [1.0, 3.0]], [-1.0, 1.0], 0.05, 1, tau_hat=1.0)
    checks.append(
        ("combination interval", _close(cci.lower, 1.0 - z) and _close(cci.upper, 1.0 + z))
    )

    checks.append(("runtime < 1 s", time.perf_counter() - t0 < 1.0))
    _verdict(1, "hand oracles", checks)


def test_2_lrv_consistency():
    t0 = time.perf_counter()
    checks = []

    # The self-normalized estimator is consistent only as k_n -> oo. On
    # i.i.d. N(0,1) data D_j^2 = c Z^2 / chi^2_{k-1} with c = k(1 - k/n)
    # and Z independent of the chi-square, so exactly
    #   E[D_j^2] = c / (k-3),  Var[D_j^2] = c^2 (3/((k-3)(k-5)) - 1/(k-3)^2).
    # At every k the mean estimate must lie within 4 Monte Carlo SE of
    # that law, so its finite-block bias must shrink as k grows. The SE
    # treats the D_j as independent; they share only the overall mean.
    n = 5000
    series = [np.random.default_rng(seed).normal(size=n) for seed in range(100)]
    for k in (25, 50, 100):
        mean = float(np.mean([lrv_selfnorm(x, k).tau_sq_hat for x in series]))
        c = k * (1 - k / n)
        law = c / (k - 3)
        var_d2 = c * c * (3 / ((k - 3) * (k - 5)) - 1 / (k - 3) ** 2)
        tol = 4 * math.sqrt(var_d2 / (len(series) * (n // k)))
        checks.append(
            (f"selfnorm iid k={k} mean {mean:.3f} law {law:.3f}±{tol:.3f}", abs(mean - law) <= tol)
        )
    st_mean = float(np.mean([lrv_stationary(x, 25).tau_sq_hat for x in series]))
    checks.append((f"stationary iid mean {st_mean:.3f}", 0.9 <= st_mean <= 1.1))

    oracle = zeta(3.0) ** 2 / zeta(6.0)
    ratios = [
        lrv_selfnorm(gen_b2(20000, 3.0, seed=s), 50).tau_sq_hat / oracle
        for s in range(50)
    ]
    med = float(np.median(ratios))
    checks.append((f"linear-process median ratio {med:.3f}", 0.85 <= med <= 1.15))

    checks.append(("runtime < 60 s", time.perf_counter() - t0 < 60.0))
    _verdict(2, "long-run variance consistency", checks)


def test_3_block_length_selection():
    t0 = time.perf_counter()
    checks = []
    for n, target in [(120, 12), (240, 15), (360, 20), (1200, 25)]:
        k_star, _ = select_block_length(n, reps=2000, seed=0)
        checks.append((f"n={n} k*={k_star} target {target}", abs(k_star - target) <= 3))
    checks.append(("runtime < 120 s", time.perf_counter() - t0 < 120.0))
    _verdict(3, "block-length selection", checks)


def test_4_coverage_table():
    t0 = time.perf_counter()
    targets = {
        ("A1", ErrorModel("b1", theta=0.0), 8): dict(
            sn=98.0, wb=94.7, st=93.1, bb=92.2, sbb=92.8
        ),
        ("A1", ErrorModel("b1", theta=0.8), 10): dict(
            sn=97.6, wb=95.5, st=87.3, bb=87.0, sbb=86.7
        ),
        ("A2", ErrorModel("b1", theta=0.4), 10): dict(
            sn=95.4, wb=95.4, st=91.6, bb=91.1, sbb=91.6
        ),
        ("A2", ErrorModel("b2", beta=4.0), 10): dict(
            sn=95.7, wb=95.7, st=92.1, bb=91.8, sbb=92.1
        ),
    }
    checks = []
    strong_dep = {}
    for (profile, error, k), tgt in targets.items():
        spec = ExperimentSpec(
            kind="coverage",
            n=120,
            sigma_profiles=(profile,),
            error_models=(error,),
            k_values=(k,),
            replications=500,
            bootstrap_samples=500,
            master_seed=2026,
        )
        res = run_experiment(spec)
        for m, target in tgt.items():
            got = 100 * res.rate(profile, error.label(), k, m)
            tol = 3.0 if m in ("sn", "wb") else 4.0
            checks.append(
                (f"{profile}/{error.label()}/k={k} {m} {got:.1f} vs {target}",
                 abs(got - target) <= tol)
            )
            if error.label() == "b1:0.8":
                strong_dep[m] = got
    for m in ("st", "bb", "sbb"):
        gap = strong_dep["wb"] - strong_dep[m]
        checks.append((f"strong-dependence wb-{m} gap {gap:.1f}", gap >= 4.0))
    checks.append(("runtime < 600 s", time.perf_counter() - t0 < 600.0))
    _verdict(4, "coverage table subset", checks)


def test_5_size_table():
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        kind="size",
        n=120,
        sigma_profiles=("A1",),
        error_models=(ErrorModel("b1", theta=0.0), ErrorModel("b1", theta=0.8)),
        k_values=(10,),
        replications=500,
        bootstrap_samples=500,
        level=0.05,
        master_seed=0,
    )
    res = run_experiment(spec)
    g0 = {m: 100 * res.rate("A1", "b1:0", 10, m) for m in ("sn", "t1", "t2")}
    g8 = {m: 100 * res.rate("A1", "b1:0.8", 10, m) for m in ("sn", "t1", "t2")}
    checks = [
        (f"weak dep sn size {g0['sn']:.1f} vs 4.9", abs(g0["sn"] - 4.9) <= 3.0),
        (f"weak dep t1 over-rejects ({g0['t1']:.1f})", g0["t1"] >= 6.5),
        (f"weak dep t2 over-rejects ({g0['t2']:.1f})", g0["t2"] >= 6.0),
        (f"strong dep t1 size {g8['t1']:.1f} vs 15.1", abs(g8["t1"] - 15.1) <= 4.0),
        (f"strong dep sn size {g8['sn']:.1f} <= 9", g8["sn"] <= 9.0),
        ("runtime < 900 s", time.perf_counter() - t0 < 900.0),
    ]
    _verdict(5, "size table subset", checks)


def test_6_size_adjusted_power():
    grid = (0.0, 0.5, 1.0, 1.5, 2.0)
    spec = ExperimentSpec(
        kind="power",
        n=120,
        sigma_profiles=("A1",),
        error_models=(ErrorModel("b1", theta=0.4),),
        k_values=(10,),
        replications=500,
        calibration_reps=2000,
        lambda_grid=grid,
        level=0.05,
        master_seed=2026,
    )
    res = run_experiment(spec)
    curves = {
        m: np.array([res.rate("A1", "b1:0.4", 10, m, lam) for lam in grid])
        for m in ("sn", "t1", "t2")
    }
    checks = []
    checks.append(
        (
            f"sn power at largest shift {curves['sn'][-1]:.3f} beats "
            f"t1 {curves['t1'][-1]:.3f} and t2 {curves['t2'][-1]:.3f}",
            curves["sn"][-1] >= curves["t1"][-1] and curves["sn"][-1] >= curves["t2"][-1],
        )
    )
    for m, c in curves.items():
        # violation mass: total downward movement relative to curve mass
        down = float(np.sum(np.maximum(c[:-1] - c[1:], 0.0)))
        frac = down / float(np.sum(c))
        checks.append((f"{m} monotone (violation mass {frac:.3f})", frac <= 0.05))
    _verdict(6, "size-adjusted power", checks)


def test_7_property_suite():
    checks = []
    rng = np.random.default_rng(2026)

    x = rng.normal(size=96)
    c, d = 3.7, -2.1
    checks.append(
        (
            "self-normalized lrv affine invariant",
            _close(lrv_selfnorm(c * x + d, 8).tau_sq_hat, lrv_selfnorm(x, 8).tau_sq_hat),
        )
    )
    checks.append(
        (
            "stationary lrv scale equivariant",
            _close(
                lrv_stationary(c * x + d, 8).tau_sq_hat,
                c * c * lrv_stationary(x, 8).tau_sq_hat,
            ),
        )
    )
    checks.append(
        (
            "scan affine invariant",
            np.allclose(
                np.abs(sn_scan(c * x + d).values), np.abs(sn_scan(x).values), rtol=1e-10
            ),
        )
    )

    brute_ok = True
    for _ in range(5):
        n = int(rng.integers(10, 120))
        y = rng.normal(scale=rng.uniform(0.5, 4), size=n)
        scan = prefix_suffix_scan(y)
        for j in range(1, n):
            pre = segment_stats(y, 1, j)
            suf = segment_stats(y, j + 1, n)
            brute_ok &= math.isclose(scan.prefix_css[j - 1], pre.css, rel_tol=1e-10, abs_tol=1e-8)
            brute_ok &= math.isclose(scan.suffix_css[j - 1], suf.css, rel_tol=1e-10, abs_tol=1e-8)
    checks.append(("prefix scan matches brute force", brute_ok))

    pool_ok = True
    for _ in range(20):
        n = int(rng.integers(4, 60))
        y = rng.normal(size=n)
        scan = prefix_suffix_scan(y)
        total = segment_stats(y, 1, n).css
        for j in range(1, n):
            pooled = (
                scan.prefix_css[j - 1]
                + scan.suffix_css[j - 1]
                + j * (n - j) / n * (scan.prefix_mean[j - 1] - scan.suffix_mean[j - 1]) ** 2
            )
            pool_ok &= math.isclose(pooled, total, rel_tol=1e-9, abs_tol=1e-9)
    checks.append(("variance pooling identity", pool_ok))

    spec = ExperimentSpec(
        kind="coverage",
        n=120,
        sigma_profiles=("A1", "A2"),
        error_models=(ErrorModel("b1", theta=0.4),),
        k_values=(10,),
        methods=("sn", "wb"),
        replications=20,
        bootstrap_samples=100,
        master_seed=5,
    )
    checks.append(
        (
            "deterministic across worker counts",
            run_experiment(spec, workers=1).cells == run_experiment(spec, workers=2).cells,
        )
    )
    _verdict(7, "property suite", checks)


def test_8_external_data_reproduction():
    pytest.skip(
        "requires external datasets (Seoul annual precipitation 1771-2000 and "
        "U.S. quarterly GNP growth 1947-2002) that are not bundled"
    )
