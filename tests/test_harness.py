import math

import numpy as np
import pytest

from snstat import changepoint, core, harness
from snstat.changepoint import classical_statistic, sn_statistic
from snstat.core import DegenerateDataError
from snstat.harness import ExperimentSpec, run_experiment
from snstat.rng import derive_seed
from snstat.simgen import ErrorModel, SigmaProfile, SimModel, generate


def coverage_spec(**kw):
    base = dict(
        kind="coverage",
        n=120,
        sigma_profiles=("A1",),
        error_models=(ErrorModel("b1", theta=0.0),),
        k_values=(10,),
        methods=("sn", "st"),
        replications=20,
        bootstrap_samples=50,
        master_seed=7,
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_power_needs_lambda_grid_with_zero(self):
        with pytest.raises(ValueError, match="lambda"):
            ExperimentSpec(kind="power", lambda_grid=())
        with pytest.raises(ValueError, match="lambda"):
            ExperimentSpec(kind="power", lambda_grid=(1.0, 2.0))

    def test_unknown_methods_rejected(self):
        with pytest.raises(ValueError, match="unknown methods"):
            ExperimentSpec(kind="coverage", methods=("sn", "t1"))
        with pytest.raises(ValueError, match="unknown methods"):
            ExperimentSpec(kind="size", methods=("wb",))

    def test_replication_counts_positive(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="coverage", replications=0)

    def test_unknown_kind(self):
        spec = coverage_spec()
        object.__setattr__(spec, "kind", "bogus")
        with pytest.raises(ValueError, match="unknown experiment kind"):
            run_experiment(spec)

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown experiment kind: 'bogus'"):
            ExperimentSpec(kind="bogus")

    def test_methods_case_insensitive(self):
        spec = coverage_spec(methods=("SN", "St"))
        assert spec.resolved_methods() == ("sn", "st")

    def test_default_methods(self):
        assert ExperimentSpec(kind="size").resolved_methods() == ("sn", "t1", "t2")

    def test_infeasible_block_length(self):
        with pytest.raises(ValueError, match="infeasible"):
            run_experiment(coverage_spec(n=10, k_values=(8,)))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("replications", "3"),
            ("n", 60.0),
            ("bootstrap_samples", True),
            ("calibration_reps", "10"),
            ("change_at", 40.5),
            ("master_seed", None),
        ],
    )
    def test_integer_fields_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: expected an integer"):
            coverage_spec(**{field: value})

    @pytest.mark.parametrize("k", ["8", 8.5, 8.0, True])
    def test_block_lengths_must_be_integers(self, k):
        # 8.5 must not be truncated to 8, nor "8" read as 8
        with pytest.raises(ValueError, match="^k_values: expected an integer"):
            coverage_spec(k_values=(10, k))

    def test_numpy_integers_accepted(self):
        spec = coverage_spec(n=np.int64(120), k_values=(np.int32(10),))
        assert spec.k_values == (10,)

    @pytest.mark.parametrize("field", ["sigma_profiles", "error_models", "k_values"])
    def test_empty_grid_axis_rejected(self, field):
        with pytest.raises(ValueError, match=f"^{field} must not be empty"):
            coverage_spec(**{field: ()})

    @pytest.mark.parametrize(
        "item", [{"kind": "b1", "theta": 0.4}, "b1:0.4", ("b1", 0.4), None]
    )
    def test_error_model_items_must_be_error_models(self, item):
        with pytest.raises(ValueError, match="^error_models: expected an ErrorModel"):
            coverage_spec(error_models=(ErrorModel("iid"), item))

    @pytest.mark.parametrize("profile", ["A5", "custom", "", 1, None, ("A1",)])
    def test_sigma_profiles_must_be_known_names(self, profile):
        with pytest.raises(ValueError, match="^sigma_profiles: expected one of"):
            coverage_spec(sigma_profiles=("A1", profile))

    def test_sigma_profiles_any_letter_case(self):
        spec = coverage_spec(sigma_profiles=("a1", "A2", "a3", "A4", "Constant", "CONSTANT"))
        assert len(spec.sigma_profiles) == 6

    @pytest.mark.parametrize("kind", ["coverage", "size", "power"])
    @pytest.mark.parametrize("level", [1.5, 1.0, 0.0, -0.05, float("nan"), "0.05", True])
    def test_level_must_be_in_unit_interval(self, kind, level):
        # level=1.5 used to test at alpha = -0.5 and read 0.0 in every cell
        with pytest.raises(ValueError, match="^level: expected a number in \\(0, 1\\)"):
            ExperimentSpec(kind=kind, level=level, lambda_grid=(0.0, 1.0))

    @pytest.mark.parametrize("level", [0.05, 0.5, 0.95, np.float64(0.9)])
    def test_level_inside_unit_interval_accepted(self, level):
        assert coverage_spec(level=level).level == level

    @pytest.mark.parametrize("change_at", [0, -3, 120, 500])
    def test_power_change_at_must_be_inside_series(self, change_at):
        # change_at=500 at n=120 used to report the size as the power at every lambda
        with pytest.raises(ValueError, match="^change_at: expected 1..119"):
            ExperimentSpec(kind="power", n=120, lambda_grid=(0.0, 5.0), change_at=change_at)

    def test_power_change_at_bounds_accepted(self):
        for change_at in (1, 119):
            spec = ExperimentSpec(kind="power", n=120, lambda_grid=(0.0,), change_at=change_at)
            assert spec.change_at == change_at

    @pytest.mark.parametrize("kind", ["coverage", "size"])
    def test_other_kinds_ignore_change_at(self, kind):
        # n = 30 with the default change_at = 40 builds: only power shifts the mean
        spec = ExperimentSpec(kind=kind, n=30, k_values=(5,))
        assert spec.change_at == 40 > spec.n

    def test_infeasible_block_length_fails_at_construction(self):
        with pytest.raises(ValueError, match="^infeasible cell: n=30 with block length k=16"):
            coverage_spec(n=30, k_values=(10, 16))
        assert coverage_spec(n=30, k_values=(15,)).k_values == (15,)


class TestResults:
    def test_single_replicate_rate_and_se(self):
        res = run_experiment(coverage_spec(replications=1))
        for cell in res.cells.values():
            assert cell["rate"] in (0.0, 1.0)
            assert cell["se"] == 0.0

    def test_binomial_se_formula(self):
        res = run_experiment(coverage_spec(replications=25))
        for cell in res.cells.values():
            r = cell["rate"]
            assert 0.0 <= r <= 1.0
            assert cell["se"] == pytest.approx(math.sqrt(r * (1 - r) / 25), rel=1e-12)

    def test_every_requested_cell_present(self):
        spec = coverage_spec(
            sigma_profiles=("A1", "A2"), k_values=(8, 10), replications=5
        )
        res = run_experiment(spec)
        assert len(res.cells) == 2 * 2 * 2  # profiles x k x methods
        for profile in ("A1", "A2"):
            for k in (8, 10):
                for m in ("sn", "st"):
                    assert (profile, "b1:0", k, m) in res.cells

    def test_rows_and_table_shapes(self):
        res = run_experiment(coverage_spec(replications=5))
        rows = res.to_rows()
        assert len(rows) == len(res.cells)
        assert {"profile", "error", "k_n", "method", "rate", "se"} <= set(rows[0])
        table = res.to_table()
        assert table.splitlines()[0].startswith("profile")
        assert len(table.splitlines()) == 2  # header + one pivoted line


class TestDeterminism:
    def test_worker_count_irrelevant(self):
        spec = coverage_spec(
            sigma_profiles=("A1", "A2"),
            methods=("sn", "wb"),
            replications=10,
            bootstrap_samples=50,
        )
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=2)
        assert serial.cells == parallel.cells

    @pytest.mark.parametrize(
        "spec",
        [
            ExperimentSpec(
                kind="size",
                sigma_profiles=("A1", "A2"),
                error_models=(ErrorModel("b1", theta=0.0), ErrorModel("b2", beta=4.0)),
                replications=4,
                bootstrap_samples=30,
                level=0.05,
                master_seed=8,
            ),
            ExperimentSpec(
                kind="power",
                sigma_profiles=("A1", "A3"),
                k_values=(8, 10),
                replications=4,
                calibration_reps=20,
                lambda_grid=(0.0, 1.0),
                level=0.05,
                master_seed=9,
            ),
        ],
        ids=["size", "power"],
    )
    def test_worker_count_irrelevant_for_size_and_power(self, spec):
        serial = run_experiment(spec, workers=1)
        assert len(serial.cells) >= 2 * len(spec.resolved_methods())
        for workers in (2, 3):
            assert run_experiment(spec, workers=workers).cells == serial.cells

    @pytest.mark.parametrize(
        "spec",
        [
            coverage_spec(methods=("sn", "wb", "bb"), replications=7),
            coverage_spec(replications=1),
            ExperimentSpec(
                kind="size",
                error_models=(ErrorModel("b1", theta=0.4),),
                replications=5,
                bootstrap_samples=30,
                level=0.05,
                master_seed=4,
            ),
            ExperimentSpec(
                kind="power",
                error_models=(ErrorModel("b1", theta=0.4),),
                replications=6,
                calibration_reps=30,
                lambda_grid=(0.0, 1.0, 2.0),
                level=0.05,
                master_seed=6,
            ),
        ],
        ids=["coverage", "one-replicate", "size", "power"],
    )
    def test_one_cell_worker_count_irrelevant(self, spec):
        # a one-cell spec is cut into replicate ranges, one per worker
        serial = run_experiment(spec, workers=1)
        for workers in (2, 3):
            assert run_experiment(spec, workers=workers).cells == serial.cells

    def test_repeated_grid_items_counted_once(self):
        spec = coverage_spec(replications=4)
        repeated = coverage_spec(replications=4, sigma_profiles=("A1", "A1"), k_values=(10, 10))
        for workers in (1, 2):
            assert run_experiment(repeated, workers=workers).cells == run_experiment(spec).cells

    def test_identical_reruns(self):
        spec = coverage_spec(methods=("sn", "bb", "sbb"), replications=10)
        assert run_experiment(spec).cells == run_experiment(spec).cells

    def test_master_seed_changes_results(self):
        a = run_experiment(coverage_spec(master_seed=1, replications=30))
        b = run_experiment(coverage_spec(master_seed=2, replications=30))
        assert a.cells != b.cells


class TestPowerRuns:
    def test_lambda_zero_matches_nominal_size(self):
        spec = ExperimentSpec(
            kind="power",
            n=120,
            methods=("sn",),
            replications=500,
            calibration_reps=2000,
            lambda_grid=(0.0, 2.0),
            level=0.05,
            master_seed=3,
        )
        res = run_experiment(spec)
        null_rate = res.rate("A1", "b1:0", 10, "sn", 0.0)
        se = math.sqrt(0.05 * 0.95 / 500)
        assert abs(null_rate - 0.05) <= 3 * se
        alt_rate = res.rate("A1", "b1:0", 10, "sn", 2.0)
        assert alt_rate > null_rate


class TestConvergence:
    def test_quadrupled_replications_halve_the_error(self):
        # compare the spread of independent runs at R and 4R on a cell
        # whose rate (~0.87) stays clear of the 0/1 boundaries
        def rates(reps, n_runs, offset):
            out = []
            for i in range(n_runs):
                res = run_experiment(
                    coverage_spec(
                        error_models=(ErrorModel("b1", theta=0.8),),
                        methods=("st",),
                        replications=reps,
                        master_seed=offset + i,
                    )
                )
                out.append(res.rate("A1", "b1:0.8", 10, "st"))
            return np.array(out)

        small = rates(125, 24, 100).std(ddof=1)
        big = rates(500, 24, 500).std(ddof=1)
        assert 1.3 <= small / big <= 3.0


def tiny_power_spec(**kw):
    base = dict(
        kind="power",
        n=60,
        sigma_profiles=("A1", "A3"),
        error_models=(ErrorModel("b1", theta=0.4), ErrorModel("b2", beta=4.0)),
        k_values=(6,),
        replications=5,
        calibration_reps=12,
        lambda_grid=(0.0, 0.8, 1.6),
        change_at=20,
        level=0.1,
        master_seed=13,
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestReplicateRanges:
    def test_replicates_are_the_seeded_series(self):
        spec = coverage_spec()
        error = spec.error_models[0]
        seeds, xmat = harness._replicates(spec, "coverage", "A1", error, 10, 3, 7)
        assert xmat.shape == (4, spec.n)
        for r, seed, row in zip(range(3, 7), seeds, xmat):
            assert seed == derive_seed(spec.master_seed, "coverage", "A1", "b1:0", 10, r)
            model = SimModel(n=spec.n, sigma=SigmaProfile("A1", spec.n), error=error, seed=seed)
            np.testing.assert_array_equal(row, generate(model))

    @pytest.mark.parametrize("count, parts", [(10, 3), (2, 3), (1, 3), (7, 1), (6, 6)])
    def test_split_covers_every_replicate_once(self, count, parts):
        ranges = harness._split(count, parts)
        assert len(ranges) == min(count, parts)
        assert [r for r0, r1 in ranges for r in range(r0, r1)] == list(range(count))

    def test_power_cells_match_scalar_statistics(self):
        # the loop the batched phases replace: one scalar statistic per
        # replicate, method and shift
        spec = tiny_power_spec()
        alpha, methods = 0.1, spec.resolved_methods()

        def stat(x, m, k):
            if m == "sn":
                return sn_statistic(x, spec.trim, k)[0]
            return classical_statistic(x, spec.trim, k, m)

        def series(tag, profile, error, k, r):
            seed = derive_seed(spec.master_seed, tag, profile, error.label(), k, r)
            model = SimModel(n=spec.n, sigma=SigmaProfile(profile, spec.n), error=error, seed=seed)
            return generate(model)

        expected = {}
        for profile in spec.sigma_profiles:
            for error in spec.error_models:
                k = spec.k_values[0]
                null = [series("power-calib", profile, error, k, r)
                        for r in range(spec.calibration_reps)]
                crit = {m: float(np.quantile([stat(x, m, k) for x in null], 1.0 - alpha))
                        for m in methods}
                for m in methods:
                    for lam in spec.lambda_grid:
                        hits = 0
                        for r in range(spec.replications):
                            x = series("power", profile, error, k, r).copy()
                            x[spec.change_at:] += lam
                            hits += stat(x, m, k) > crit[m]
                        rate = hits / spec.replications
                        expected[(profile, error.label(), k, m, lam)] = {
                            "rate": rate,
                            "se": float(np.sqrt(rate * (1.0 - rate) / spec.replications)),
                        }
        for workers in (1, 2):
            assert run_experiment(spec, workers=workers).cells == expected

    @pytest.mark.parametrize("chunk", ["n", "3n", "2^30"])
    def test_power_cells_chunk_invariant(self, monkeypatch, chunk):
        spec = tiny_power_spec(calibration_reps=25, replications=7)
        reference = run_experiment(spec).cells
        elems = {"n": spec.n, "3n": 3 * spec.n, "2^30": 2**30}[chunk]
        monkeypatch.setattr(core, "CHUNK_ELEMS", elems)
        assert run_experiment(spec).cells == reference

    def test_chunks_bound_the_replicate_matrix(self, monkeypatch):
        spec = tiny_power_spec()
        monkeypatch.setattr(core, "CHUNK_ELEMS", 3 * spec.n)
        cell = (spec.sigma_profiles[0], spec.error_models[0], spec.k_values[0])
        rows = [xmat.shape[0] for _s, xmat in harness._chunks(spec, "power", cell, 2, 10)]
        assert rows == [3, 3, 2]

    @pytest.mark.parametrize("method", ["sn", "t1"])
    def test_degenerate_row_raises(self, monkeypatch, method):
        kernel = changepoint._TESTS[method][1]

        def one_bad_row(xmat, c, k_n):
            stats, ok = kernel(xmat, c, k_n)
            ok[-1] = False
            return stats, ok

        test = changepoint._TESTS[method][0]
        monkeypatch.setitem(changepoint._TESTS, method, (test, one_bad_row))
        spec = tiny_power_spec(sigma_profiles=("A1",), error_models=(ErrorModel("iid"),),
                               methods=(method,))
        where = rf"cell \(A1, iid, k=6\) for method {method}"
        with pytest.raises(DegenerateDataError, match=where):
            run_experiment(spec)

    def test_row_kernels_flag_a_constant_row(self):
        xmat = np.vstack([np.random.default_rng(1).normal(size=60), np.ones(60)])
        for method in ("sn", "t1", "t2"):
            stats, ok = changepoint._TESTS[method][1](xmat, 0.1, 6)
            assert ok.tolist() == [True, False]
            assert np.isfinite(stats[0])
