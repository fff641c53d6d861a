import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snstat import lrv
from snstat.core import DegenerateDataError, InsufficientBlocksError
from snstat.lrv import (
    default_k_grid,
    lrv_selfnorm,
    lrv_stationary,
    select_block_length,
)
from snstat.rng import stream


def random_series(seed, n=64):
    return np.random.default_rng(seed).normal(size=n)


class TestSelfNormalized:
    def test_symmetric_blocks_give_zero(self):
        est = lrv_selfnorm([0.0, 2.0, 0.0, 2.0], 2)
        assert est.tau_sq_hat == pytest.approx(0.0, abs=1e-15)

    def test_hand_example(self):
        est = lrv_selfnorm([0.0, 2.0, 2.0, 4.0], 2)
        np.testing.assert_allclose(est.d_values, [-np.sqrt(2), np.sqrt(2)], rtol=1e-12)
        assert est.tau_sq_hat == pytest.approx(2.0, rel=1e-12)

    def test_degenerate_block_raises(self):
        with pytest.raises(DegenerateDataError, match="degenerate block 1"):
            lrv_selfnorm([1.0, 1.0, 0.0, 2.0], 2)

    def test_mean_identity(self):
        est = lrv_selfnorm(random_series(0), 8)
        assert est.tau_sq_hat == pytest.approx(float(np.mean(est.d_values**2)), rel=1e-14)
        assert est.d_values.size == est.l_n

    def test_iid_gaussian_consistency(self):
        # finite-k inflation: E[D^2] = k(1 - k/n)/(k-3) for iid Gaussians,
        # since the block-mean deviation has variance (1 - k/n)/k and is
        # independent of the within-block chi-square_{k-1}; vanishes as k grows
        n, k = 5000, 25
        taus = [lrv_selfnorm(random_series(s, n), k).tau_sq_hat for s in range(100)]
        assert np.mean(taus) == pytest.approx(k * (1 - k / n) / (k - 3), abs=0.03)
        taus_big_k = [lrv_selfnorm(random_series(s, 5000), 100).tau_sq_hat for s in range(100)]
        assert 0.9 <= np.mean(taus_big_k) <= 1.1

    @given(
        st.integers(min_value=0, max_value=1000),
        st.floats(min_value=0.1, max_value=50),
        st.floats(min_value=-100, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_scale_shift_invariant(self, seed, c, d):
        x = random_series(seed)
        base = lrv_selfnorm(x, 8).tau_sq_hat
        moved = lrv_selfnorm(c * x + d, 8).tau_sq_hat
        assert moved == pytest.approx(base, rel=1e-10)

    def test_nonnegative(self):
        for s in range(20):
            assert lrv_selfnorm(random_series(s), 4).tau_sq_hat >= 0.0


class TestStationary:
    def test_hand_example(self):
        est = lrv_stationary([0.0, 2.0, 2.0, 4.0], 2)
        np.testing.assert_allclose(est.d_values, [-np.sqrt(2), np.sqrt(2)], rtol=1e-12)
        assert est.tau_sq_hat == pytest.approx(2.0, rel=1e-12)

    def test_constant_series_is_zero(self):
        # roundoff in block mean minus overall mean leaves ~1e-30
        assert lrv_stationary(np.full(12, 4.2), 3).tau_sq_hat == pytest.approx(0.0, abs=1e-24)

    def test_degenerate_blocks_allowed(self):
        est = lrv_stationary([1.0, 1.0, 3.0, 3.0], 2)
        assert est.tau_sq_hat == pytest.approx(2.0, rel=1e-12)

    def test_iid_gaussian_consistency(self):
        taus = [lrv_stationary(random_series(s, 5000), 25).tau_sq_hat for s in range(100)]
        assert 0.9 <= np.mean(taus) <= 1.1

    @given(
        st.integers(min_value=0, max_value=1000),
        st.floats(min_value=0.1, max_value=50),
        st.floats(min_value=-100, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_scale_equivariant_shift_invariant(self, seed, c, d):
        x = random_series(seed)
        base = lrv_stationary(x, 8).tau_sq_hat
        moved = lrv_stationary(c * x + d, 8).tau_sq_hat
        assert moved == pytest.approx(c * c * base, rel=1e-10)


class TestBlockLengthSelection:
    def test_grid_respects_feasibility(self):
        grid = default_k_grid(120)
        assert min(grid) == 4
        assert all(120 // k >= 4 for k in grid)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            select_block_length(120, k_grid=[])

    def test_all_infeasible_rejected(self):
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="no feasible"):
                select_block_length(10, k_grid=[6, 7])

    def test_infeasible_entries_skipped(self):
        with pytest.warns(UserWarning, match="infeasible"):
            k, table = select_block_length(20, k_grid=[4, 15], reps=50, seed=1)
        assert k == 4
        assert np.isnan(table[15])

    def test_deterministic(self):
        a = select_block_length(60, reps=100, seed=5)
        b = select_block_length(60, reps=100, seed=5)
        assert a == b

    def test_small_n_optimum_near_paper(self):
        k, table = select_block_length(120, reps=500, seed=0)
        assert 9 <= k <= 15
        assert table[k] == min(v for v in table.values() if not np.isnan(v))


def serial_select(n, k_grid, reps, seed):
    """Reference selector: one whole draw per k, in sorted-k order on one thread."""
    table, best_k, best_mse = {}, None, np.inf
    for k in sorted(k_grid):
        if n // k < 2:
            table[k] = float("nan")
            continue
        z = stream(seed, "select-k", n, k).standard_normal((reps, n))
        tau_sq, ok = lrv._tau_sq_selfnorm_rows(z, k)
        table[k] = mse = float(np.mean((np.sqrt(tau_sq[ok]) - 1.0) ** 2))
        if mse < best_mse:
            best_k, best_mse = k, mse
    return best_k, table


# Odd n = 121 gives 541-row batches at the default budget, so 600 reps
# end on a partial batch; k = 70 leaves one block and is infeasible.
PARITY_CASES = [
    (121, [4, 6, 10, 15, 70], 600, 2),
    (121, [4, 6, 10], 1, 3),
    (120, None, 100, 5),
]


def set_cpus(monkeypatch, cpus):
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)


class TestSelectorParity:
    @pytest.mark.filterwarnings("ignore:skipping infeasible block length")
    @pytest.mark.parametrize("budget", [None, 1, 120, 2**30], ids=["default", "1", "n-1", "2^30"])
    @pytest.mark.parametrize("cpus", [None, 1, 3], ids=["host", "1cpu", "3cpu"])
    def test_matches_serial_reference(self, monkeypatch, budget, cpus):
        if budget is not None:
            monkeypatch.setattr(lrv, "SELECT_BATCH_ELEMS", budget)
        set_cpus(monkeypatch, cpus)
        for n, grid, reps, seed in PARITY_CASES:
            ref_k, ref_table = serial_select(n, grid or default_k_grid(n), reps, seed)
            k, table = select_block_length(n, k_grid=grid, reps=reps, seed=seed)
            assert k == ref_k
            assert list(table) == list(ref_table)
            for kk, mse in ref_table.items():
                if np.isnan(mse):
                    assert np.isnan(table[kk])
                else:
                    assert table[kk] == mse, (n, kk)

    @pytest.mark.parametrize("cpus, threads", [(1, 1), (3, 3), (8, 4)])
    def test_one_thread_per_cpu_capped_by_feasible_k(self, monkeypatch, cpus, threads):
        set_cpus(monkeypatch, cpus)
        pools = []
        pool_cls = lrv.ThreadPoolExecutor

        def spy(max_workers):
            pools.append(max_workers)
            return pool_cls(max_workers=max_workers)

        monkeypatch.setattr(lrv, "ThreadPoolExecutor", spy)
        select_block_length(60, k_grid=[4, 5, 6, 10], reps=20, seed=1)
        assert pools == [threads]

    def test_one_kernel_at_a_time_in_bounded_batches(self, monkeypatch):
        expected = serial_select(121, [4, 6, 10], 50, 0)
        set_cpus(monkeypatch, 3)
        monkeypatch.setattr(lrv, "SELECT_BATCH_ELEMS", 1000)
        kernel = lrv._tau_sq_selfnorm_rows
        guard = threading.Lock()
        active, peak, shapes = [0], [0], []

        def counting(xmat, k_n):
            with guard:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
                shapes.append(xmat.shape)
            try:
                time.sleep(0.001)  # lets another thread in, were the kernel not locked
                return kernel(xmat, k_n)
            finally:
                with guard:
                    active[0] -= 1

        monkeypatch.setattr(lrv, "_tau_sq_selfnorm_rows", counting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            got = select_block_length(121, k_grid=[4, 6, 10], reps=50, seed=0)
        finally:
            sys.setswitchinterval(interval)
        assert peak[0] == 1
        assert got == expected
        # 1000 // 121 = 8 rows per batch: six full batches and one of two rows
        assert sorted(shapes) == sorted([(8, 121)] * 18 + [(2, 121)] * 3)
