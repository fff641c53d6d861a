import math

import numpy as np
import pytest

from snstat.harness import ExperimentSpec, run_experiment
from snstat.simgen import ErrorModel


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
