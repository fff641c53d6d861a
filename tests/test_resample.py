"""The shared resampling driver: B validation, chunk invariance, memory bound."""

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
