"""The shared resampling driver: B validation, chunk invariance, memory bound."""

import concurrent.futures
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from snstat import core, inference, lrv
from snstat.changepoint import classical_test, sn_test, variance_change_test
from snstat.inference import block_bootstrap_mean, wild_bootstrap_mean
from snstat.lrv import select_block_length

N = 121  # odd length: the chunk sizes below split B rows unevenly


def series(n=N, seed=4):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * np.linspace(1.0, 3.0, n)


def resamplers(x, k, B):
    """Bootstrap values of every resampler, keyed by method."""
    return {
        "wb-rademacher": wild_bootstrap_mean(x, B, k, seed=1).values,
        "wb-gaussian": wild_bootstrap_mean(x, B, k, law="gaussian", seed=1).values,
        "bb": block_bootstrap_mean(x, B, k, seed=1).values,
        "sbb": block_bootstrap_mean(x, B, k, studentized=True, seed=1).values,
        "sn": sn_test(x, 0.1, k, B=B, seed=1).bootstrap.values,
        "sn-gaussian": sn_test(x, 0.1, k, B=B, law="gaussian", seed=1).bootstrap.values,
        "t1": classical_test(x, 0.1, k, B=B, variant="t1", seed=1).bootstrap.values,
        "t2": classical_test(x, 0.1, k, B=B, variant="t2", seed=1).bootstrap.values,
    }


@pytest.mark.parametrize(
    "call",
    [
        lambda x: wild_bootstrap_mean(x, 0, 8),
        lambda x: block_bootstrap_mean(x, 0, 8),
        lambda x: sn_test(x, k_n=8, B=0),
        lambda x: classical_test(x, k_n=8, B=0),
        lambda x: classical_test(np.ones_like(x), k_n=8, B=-3),  # constant: no bootstrap
        lambda x: variance_change_test(x, k_n=8, B=0),
    ],
    ids=["wild_bootstrap_mean", "block_bootstrap_mean", "sn_test",
         "classical_test", "classical_test-constant", "variance_change_test"],
)
def test_b_must_be_positive(call):
    with pytest.raises(ValueError, match="B must be >= 1"):
        call(series())


@pytest.mark.parametrize("chunk", [1, N - 1, N + 1, 3 * N, 2**30])
def test_values_do_not_depend_on_chunk_size(monkeypatch, chunk):
    x = series()
    expected = resamplers(x, 11, 40)
    expected_k = select_block_length(N, k_grid=[4, 6, 10, 15], reps=60, seed=2)
    monkeypatch.setattr(core, "CHUNK_ELEMS", chunk)
    monkeypatch.setattr(lrv, "SELECT_BATCH_ELEMS", chunk)  # the selector's own budget
    monkeypatch.setattr(core, "SLICE_ELEMS", chunk)  # the SN kernel's row slices and the sign map
    got = resamplers(x, 11, 40)
    for method, values in expected.items():
        assert np.array_equal(got[method], values), method
    assert select_block_length(N, k_grid=[4, 6, 10, 15], reps=60, seed=2) == expected_k


@pytest.mark.parametrize("chunk", [1, 23, 2**30])
def test_redraw_rounds_do_not_depend_on_chunk_size(monkeypatch, chunk):
    # +-1 alternation with k_n = 4: most sign patterns make a block
    # constant, so the driver needs 11 rounds (128 draws) for B = 50.
    x = np.tile([1.0, -1.0], 12)
    expected = wild_bootstrap_mean(x, 50, 4, seed=0).values
    monkeypatch.setattr(core, "CHUNK_ELEMS", chunk)
    draws = []
    multipliers = inference._multipliers

    def counting(rng, law, size):
        draws.append(size[0])
        return multipliers(rng, law, size)

    monkeypatch.setattr(inference, "_multipliers", counting)
    got = wild_bootstrap_mean(x, 50, 4, seed=0).values
    assert np.array_equal(got, expected)
    if chunk == 2**30:  # one draw per round
        assert len(draws) == 11


def test_peak_memory_bounded_by_chunk(monkeypatch):
    # One (400, 4000) float64 temporary alone is 12.8 MB; with 4096-value
    # chunks every temporary is a single 32 KB row.
    x = series(4000)
    monkeypatch.setattr(core, "CHUNK_ELEMS", 2**12)
    calls = {
        "wb": lambda: wild_bootstrap_mean(x, 400, 40),
        "sbb": lambda: block_bootstrap_mean(x, 400, 40, studentized=True),
        "sn": lambda: sn_test(x, 0.1, 40, B=400),
        "t1": lambda: classical_test(x, 0.1, 40, B=400),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, (name, peak)


def count_helpers(monkeypatch):
    """A list that gets one entry per draw-ahead pool `_resample` creates."""
    created = []

    class Counting(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(inference, "ThreadPoolExecutor", Counting)
    return created


# B = 40 rows of n = 121 values (wb, sn, t1) or of l_n = 11 (bb, sbb). Budgets
# 154, 220 and 242 cut the l_n rows into 3 uneven, 2 and 2 uneven batches, and
# 1694, 2420 and 3000 the n rows into 3 uneven, 2 and 2 uneven; each such round
# is drawn ahead in half batches. At 242 the n rows are too, one row a half.
@pytest.mark.parametrize("chunk", [154, 220, 242, 1694, 2420, 3000])
def test_draw_ahead_values_match_one_batch(monkeypatch, chunk):
    monkeypatch.setattr(core, "CHUNK_ELEMS", 2**30)
    x = series()
    expected = resamplers(x, 11, 40)
    created = count_helpers(monkeypatch)
    monkeypatch.setattr(core, "CHUNK_ELEMS", chunk)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a draw out of order would show
    try:
        got = resamplers(x, 11, 40)
    finally:
        sys.setswitchinterval(interval)
    for method, values in expected.items():
        assert np.array_equal(got[method], values), method
    assert created  # some round ran on the helper


def test_draw_ahead_then_one_batch_redraw_rounds(monkeypatch):
    # The +-1 tile of test_redraw_rounds_do_not_depend_on_chunk_size. A
    # 1000-value budget holds 41 rows of 24 values: the first round's 50 rows
    # are drawn ahead in half batches of 20, 20 and 10 rows; the second
    # round's 31 rows fit one batch, drawn on this thread, as are all later.
    x = np.tile([1.0, -1.0], 12)
    expected = wild_bootstrap_mean(x, 50, 4, seed=0).values
    created = count_helpers(monkeypatch)
    monkeypatch.setattr(core, "CHUNK_ELEMS", 1000)
    threads = []
    multipliers = inference._multipliers

    def recording(rng, law, size):
        threads.append((size[0], threading.current_thread() is threading.main_thread()))
        return multipliers(rng, law, size)

    monkeypatch.setattr(inference, "_multipliers", recording)
    got = wild_bootstrap_mean(x, 50, 4, seed=0).values
    assert np.array_equal(got, expected)
    assert len(created) == 1
    assert threads[:4] == [(20, False), (20, False), (10, False), (31, True)]
    assert len(threads) == 11 + 2 and all(main for _, main in threads[3:])


class Boom(Exception):
    pass


def synthetic(n=100, fail_draw=None, fail_stat=None, ok=True, pending=None):
    """draw and stat_rows for `_resample` that raise Boom at the given call numbers."""
    rng = np.random.default_rng(0)
    calls = {"draw": 0, "stat": 0}
    evaluating = threading.Event()

    def draw(rows):
        calls["draw"] += 1
        if calls["draw"] == fail_draw:
            raise Boom(threading.current_thread().name)
        if calls["draw"] == 2 and pending is not None:
            assert evaluating.wait(10)  # the first batch is being evaluated
            time.sleep(0.05)
            pending.append(calls["draw"])
        return rng.standard_normal((rows, n))

    def stat_rows(xmat):
        calls["stat"] += 1
        evaluating.set()
        if calls["stat"] == fail_stat:
            raise Boom("stat_rows")
        return xmat.sum(axis=1), np.full(xmat.shape[0], ok)

    return n, draw, stat_rows


@pytest.mark.parametrize(
    "kwargs, message",
    [({"fail_draw": 3}, "ThreadPoolExecutor"), ({"fail_stat": 1, "pending": []}, "stat_rows")],
    ids=["draw-on-helper", "stat-rows-while-drawing"],
)
def test_failure_reaches_caller_and_helper_stops(monkeypatch, kwargs, message):
    monkeypatch.setattr(core, "CHUNK_ELEMS", 1000)  # 10 rows a batch, 5 a half batch
    n, draw, stat_rows = synthetic(**kwargs)
    before = threading.active_count()
    with pytest.raises(Boom, match=message):
        inference._resample(40, n, draw, stat_rows)
    assert threading.active_count() == before
    if "pending" in kwargs:
        assert kwargs["pending"] == [2]  # the caller waited for the draw in flight


def test_redraw_cap_on_draw_ahead_rounds(monkeypatch):
    monkeypatch.setattr(core, "CHUNK_ELEMS", 1000)
    created = count_helpers(monkeypatch)
    n, draw, stat_rows = synthetic(ok=False)
    before = threading.active_count()
    with pytest.raises(core.DegenerateDataError, match="redraw cap"):
        inference._resample(40, n, draw, stat_rows)
    assert len(created) == 1
    assert threading.active_count() == before


def test_draw_ahead_peak_memory_is_one_batch(monkeypatch):
    # 400 rows of 4000 values are seven 2**18-value batches. Two half batches
    # of 32 rows are 2.0 MB and one 65-row batch 2.1 MB; the SN kernel's row
    # slices add about 0.8 MB. Two full batches drawn ahead would pass 4 MB.
    x = series(4000)
    monkeypatch.setattr(core, "CHUNK_ELEMS", 2**18)
    created = count_helpers(monkeypatch)
    calls = {
        "wb": lambda: wild_bootstrap_mean(x, 400, 40),
        "sn": lambda: sn_test(x, 0.1, 40, B=400),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**18 + 2**20, (name, peak)
    assert len(created) == 2
