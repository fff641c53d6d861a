"""A number's value decides, never its type, and a name's letter case does not matter.

Equal values give equal results, whether they come as Python or NumPy
scalars, and a value of the wrong kind fails with a ValueError that names
the argument. A named choice (a law, a variant, a profile, a kind, a
method) is looked up in any letter case, and results carry its table
spelling.
"""

import numpy as np
import pytest

from snstat.changepoint import (
    classical_scan,
    classical_statistic,
    classical_test,
    sn_scan,
    sn_test,
    sx,
    variance_change_test,
)
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
from snstat.lrv import select_block_length
from snstat.regression import fit_trend, trend_ci
from snstat.rng import derive_seed
from snstat.simgen import (
    ErrorModel,
    SigmaProfile,
    SimModel,
    b2_weights,
    gen_b1,
    gen_b2,
    generate,
    sigma_values,
)


@pytest.fixture
def x():
    return np.random.default_rng(0).standard_normal(120)


# name -> call(x, seed): every resampler, keyed on its seed
RESAMPLERS = {
    "wb_ci": lambda x, seed: wb_ci(x, 0.05, 10, B=50, seed=seed),
    "bb_ci": lambda x, seed: bb_ci(x, 0.05, 10, B=50, seed=seed),
    "sbb_ci": lambda x, seed: bb_ci(x, 0.05, 10, B=50, studentized=True, seed=seed),
    "sn_test": lambda x, seed: sn_test(x, k_n=10, B=50, seed=seed),
    "classical_test": lambda x, seed: classical_test(x, k_n=10, B=50, seed=seed),
    "variance_change_test": lambda x, seed: variance_change_test(x, k_n=10, B=50, seed=seed),
    "wild_bootstrap_mean": lambda x, seed: wild_bootstrap_mean(x, 50, 10, seed=seed),
    "block_bootstrap_mean": lambda x, seed: block_bootstrap_mean(x, 50, 10, seed=seed),
}


def outcome(result):
    """A comparable summary of an interval, a test report, a scan or a bootstrap distribution."""
    if hasattr(result, "j_range"):  # a CusumScan
        return result.kind, result.j_hat, result.values.tolist()
    if hasattr(result, "to_dict"):
        summary = result.to_dict()
        if hasattr(result, "bootstrap"):
            summary["values"] = result.bootstrap.values.tolist()
        return summary
    return result.values.tolist()


class TestEqualValuesEqualResults:
    def test_derive_seed_keys_parts_by_value(self):
        plain = derive_seed(7, "boot", "sn", True, 10)
        assert plain == 2191426147291735241  # the repr-keyed value of the plain parts
        assert derive_seed(np.int64(7), np.str_("boot"), "sn", np.True_, np.int32(10)) == plain
        assert derive_seed(7, "boot", "sn", 1, 10) != plain  # 1 is not True

    @pytest.mark.parametrize("name", sorted(RESAMPLERS))
    def test_numpy_integer_seed_draws_the_int_seed_stream(self, x, name):
        call = RESAMPLERS[name]
        assert outcome(call(x, np.int64(1))) == outcome(call(x, 1))

    def test_numpy_string_variant(self, x):
        expected = outcome(classical_test(x, k_n=10, B=50, variant="t1", seed=3))
        assert outcome(classical_test(x, k_n=10, B=50, variant=np.str_("t1"), seed=3)) == expected

    def test_numpy_bool_studentized_flag(self, x):
        expected = outcome(bb_ci(x, 0.05, 10, B=50, studentized=True, seed=2))
        assert outcome(bb_ci(x, 0.05, 10, B=50, studentized=np.True_, seed=2)) == expected

    def test_select_block_length_numpy_grid_and_n(self):
        expected = select_block_length(120, k_grid=list(range(8, 13)), reps=200)
        for n, grid in [(120, np.arange(8, 13)), (np.int64(120), list(range(8, 13)))]:
            k, table = select_block_length(n, k_grid=grid, reps=200)
            assert (k, table) == expected
            assert type(k) is int and all(type(key) is int for key in table)

    def test_coverage_cell_numpy_block_length(self):
        def rows(k):
            spec = ExperimentSpec(
                kind="coverage", sigma_profiles=("A2",), error_models=(ErrorModel("b1", 0.4),),
                k_values=(k,), methods=("wb",), replications=40, bootstrap_samples=100,
            )
            return run_experiment(spec).to_rows()

        got = rows(np.int32(10))
        assert got == rows(10)
        assert type(got[0]["k_n"]) is int

    @pytest.mark.parametrize("kind", ["iid", "b1", "b2"])
    def test_numpy_integer_seed_draws_the_int_seed_series(self, kind):
        def series(seed):
            error = ErrorModel(kind, theta=0.4, beta=4.0)
            return generate(SimModel(n=np.int64(60), sigma=SigmaProfile("A1", 60), error=error,
                                     seed=seed, lam=1.0, change_at=np.int32(30)))

        np.testing.assert_array_equal(series(np.int64(3)), series(3))


BAD_SEEDS = [1.0, 1.5, True, None, "1"]


class TestBadValuesFailLoudly:
    @pytest.mark.parametrize("seed", BAD_SEEDS)
    @pytest.mark.parametrize("name", sorted(RESAMPLERS))
    def test_resampler_seed_must_be_an_integer(self, x, name, seed):
        with pytest.raises(ValueError, match="^seed: expected an integer"):
            RESAMPLERS[name](x, seed)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_select_block_length_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="^seed: expected an integer"):
            select_block_length(60, k_grid=[5, 10], reps=10, seed=seed)

    @pytest.mark.parametrize("alpha", [True, "0.05"])
    @pytest.mark.parametrize(
        "interval",
        [
            sn_ci,
            st_ci,
            lambda x, alpha, k: wb_ci(x, alpha, k, B=20),
            lambda x, alpha, k: bb_ci(x, alpha, k, B=20),
            lambda x, alpha, k: combo_ci([x], [1.0], alpha, k),
            lambda x, alpha, k: trend_ci(fit_trend(x), "beta1", alpha, k),
        ],
        ids=["sn", "st", "wb", "bb", "combo", "trend"],
    )
    def test_alpha_must_be_a_number(self, x, interval, alpha):
        # alpha=True used to give a zero-width interval at level 0
        with pytest.raises(ValueError, match="^alpha must be in"):
            interval(x, alpha, 10)

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: sn_scan(x, c="0.1"),
            lambda x: sn_test(x, c="0.1", k_n=10, B=20),
            lambda x: classical_scan(x, "0.1", 1.0, "t1"),
            lambda x: classical_test(x, c="0.1", k_n=10, B=20),
        ],
        ids=["sn_scan", "sn_test", "classical_scan", "classical_test"],
    )
    def test_trimming_fraction_must_be_a_number(self, x, call):
        with pytest.raises(ValueError, match="^trimming fraction must be in .*, got c='0.1'$"):
            call(x)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf"), True, "1"])
    def test_combo_weights_must_be_finite_numbers(self, x, weight):
        # a NaN weight used to give a NaN interval, and "1" to read as 1.0
        with pytest.raises(ValueError, match="^weights: expected finite numbers"):
            combo_ci([x, x[::-1]], [1.0, weight], 0.05, 10)

    @pytest.mark.parametrize("workers", [0, -3, 2.5])
    def test_workers_must_be_a_positive_integer(self, workers):
        # 0 and -3 used to run serially, 2.5 to fail inside NumPy as a TypeError
        spec = ExperimentSpec(kind="coverage", methods=("sn",), replications=2)
        with pytest.raises(ValueError, match="^workers"):
            run_experiment(spec, workers=workers)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    @pytest.mark.parametrize("kind", ["iid", "b1", "b2"])
    def test_simulation_seed_must_be_an_integer(self, kind, seed):
        # seed=True used to draw seed 1's series, and seed=None a fresh random one
        model = SimModel(n=20, sigma=SigmaProfile("A1", 20), error=ErrorModel(kind), seed=seed)
        with pytest.raises(ValueError, match="^seed: expected an integer"):
            generate(model)

    @pytest.mark.parametrize(
        "name, call",
        [
            ("n", lambda: SimModel(n=20.0, sigma=SigmaProfile("A1", 20))),
            ("change_at", lambda: SimModel(n=20, sigma=SigmaProfile("A1", 20), change_at=2.5)),
            ("n", lambda: SigmaProfile("A1", 20.0).materialize()),
            ("n", lambda: ErrorModel("iid").generate(20.0, seed=1)),
            ("n", lambda: gen_b1(20.0, 0.4, seed=1)),
            ("burn_in", lambda: gen_b1(20, 0.4, seed=1, burn_in=2.5)),
            ("n", lambda: gen_b2(20.0, 4.0, seed=1)),
            ("truncation", lambda: gen_b2(20, 4.0, seed=1, truncation=2.5)),
            ("truncation", lambda: b2_weights(4.0, truncation=True)),
        ],
    )
    def test_simulation_sizes_must_be_integers(self, name, call):
        # each used to fail inside NumPy as a TypeError, or (True) to read as 1
        with pytest.raises(ValueError, match=f"^{name}: expected an integer"):
            call()

    @pytest.mark.parametrize(
        "name, call",
        [
            ("n", lambda: SimModel(n=0, sigma=SigmaProfile("A1", 1))),
            ("change_at", lambda: SimModel(n=20, sigma=SigmaProfile("A1", 20), change_at=-1)),
            ("burn_in", lambda: gen_b1(20, 0.4, seed=1, burn_in=-1)),
            ("truncation", lambda: b2_weights(4.0, truncation=-1)),
        ],
    )
    def test_simulation_sizes_have_lower_bounds(self, name, call):
        with pytest.raises(ValueError, match=f"^{name} must be >= "):
            call()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), True, "0.4"])
    @pytest.mark.parametrize(
        "name, call",
        [
            ("theta", lambda bad: gen_b1(5, bad, seed=1)),
            ("theta", lambda bad: ErrorModel("b1", theta=bad).generate(5, seed=1)),
            ("beta", lambda bad: gen_b2(5, bad, seed=1)),
            ("beta", lambda bad: b2_weights(bad)),
            ("value", lambda bad: SigmaProfile("constant", 3, value=bad).materialize()),
            ("mu", lambda bad: SimModel(n=5, sigma=SigmaProfile("A1", 5), mu=bad)),
            ("lam", lambda bad: SimModel(n=5, sigma=SigmaProfile("A1", 5), lam=bad)),
        ],
    )
    def test_simulation_parameters_must_be_finite_numbers(self, name, call, bad):
        # NaN used to give an all-NaN series (theta, mu) or NaN sigmas (value), to
        # fail with "cannot convert float NaN to integer" (beta), and lam="0.4" to
        # fail inside NumPy as a UFuncTypeError
        with pytest.raises(ValueError, match=f"^{name}: expected a finite number"):
            call(bad)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: ErrorModel("b1", theta=5.0), r"^b1 requires \|theta\| < 1, got theta=5\.0$"),
            (lambda: ErrorModel("b2", beta=0.5), "^b2 requires beta > 1/2, got beta=0.5$"),
            (lambda: ErrorModel("b1", theta=float("nan")), "^theta: expected a finite number"),
            (lambda: ErrorModel(burn_in=-3), "^burn_in must be >= 0, got -3$"),
            (lambda: ErrorModel("b1", theta=0.4, burn_in=2.5), "^burn_in: expected an integer"),
            (lambda: ErrorModel.parse("b2:nan"),
             r"^bad error model token: 'b2:nan' \(beta: expected a finite number, got nan\)$"),
            (lambda: ErrorModel.parse("b1:2"),
             r"^bad error model token: 'b1:2' \(b1 requires \|theta\| < 1, got theta=2.0\)$"),
            (lambda: ErrorModel.parse("b1"), r"^bad error model token: 'b1' \(b1 takes a value"),
            (lambda: ErrorModel.parse("iid:3"), r"\(iid takes no value\)$"),
        ],
    )
    def test_error_model_checked_when_built(self, call, message):
        # each used to be built, and to fail, if at all, when a series was drawn
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("j", [True, 2.5])
    def test_cusum_split_must_be_an_integer(self, x, j):
        # both used to fail inside NumPy with "slice indices must be integers"
        with pytest.raises(ValueError, match="^j: expected an integer"):
            sx(x, j)

    @pytest.mark.parametrize("change_at", [21, 100])
    def test_change_point_must_fall_inside_the_series(self, change_at):
        # a shift after index change_at > n used to be dropped silently
        sigma = SigmaProfile("A1", 20)
        with pytest.raises(ValueError, match=f"^change_at must be <= n=20, got {change_at}$"):
            SimModel(n=20, sigma=sigma, lam=1.0, change_at=change_at)
        last = generate(SimModel(n=20, sigma=sigma, lam=1.0, change_at=20))
        np.testing.assert_array_equal(last, generate(SimModel(n=20, sigma=sigma)))

    @pytest.mark.parametrize("k_grid", [5, 5.0, np.int64(5), "10"])
    def test_block_length_grid_must_be_integers(self, k_grid):
        # an int or a float used to fail with "TypeError: ... object is not iterable"
        with pytest.raises(ValueError, match="^k_grid: expected"):
            select_block_length(60, k_grid=k_grid, reps=10)

    @pytest.mark.parametrize("flag", [1, 0, "no", None, 1.0])
    @pytest.mark.parametrize(
        "call",
        [
            lambda x, flag: bb_ci(x, 0.05, 10, B=20, studentized=flag),
            lambda x, flag: block_bootstrap_mean(x, 20, 10, studentized=flag),
        ],
        ids=["bb_ci", "block_bootstrap_mean"],
    )
    def test_studentized_must_be_a_bool(self, x, call, flag):
        # "no" used to give the studentized interval, by its truth value
        with pytest.raises(ValueError, match="^studentized: expected a bool"):
            call(x, flag)


def coverage_rows(**fields):
    """The table rows of a small coverage run with the given spec fields."""
    fields = {"kind": "coverage", "methods": ("sn",), "replications": 4, **fields}
    return run_experiment(ExperimentSpec(**fields)).to_rows()


# entry point -> (argument name, call(x, value), canonical spelling): every named choice
NAMED = {
    "wild_bootstrap_mean": ("law", lambda x, v: wild_bootstrap_mean(x, 50, 10, law=v), "gaussian"),
    "wb_ci": ("law", lambda x, v: wb_ci(x, 0.05, 10, B=50, law=v), "gaussian"),
    "sn_test": ("law", lambda x, v: sn_test(x, k_n=10, B=50, law=v), "rademacher"),
    "variance_change_test": (
        "law", lambda x, v: variance_change_test(x, k_n=10, B=50, law=v), "gaussian",
    ),
    "classical_scan": ("variant", lambda x, v: classical_scan(x, 0.1, 1.0, v), "t1"),
    "classical_statistic": ("variant", lambda x, v: classical_statistic(x, 0.1, 10, v), "t2"),
    "classical_test": (
        "variant", lambda x, v: classical_test(x, k_n=10, B=50, variant=v, seed=3), "t1",
    ),
    "ErrorModel": ("kind", lambda x, v: ErrorModel(v, theta=0.4).generate(20, seed=1), "b1"),
    "sigma_values": ("kind", lambda x, v: sigma_values(v, 20), "constant"),
    "ExperimentSpec.kind": ("kind", lambda x, v: coverage_rows(kind=v), "coverage"),
    "ExperimentSpec.sigma_profiles": (
        "sigma_profiles", lambda x, v: coverage_rows(sigma_profiles=(v,)), "A2",
    ),
    "ExperimentSpec.methods": ("methods", lambda x, v: coverage_rows(methods=(v,)), "sbb"),
    "trend_ci": ("which", lambda x, v: trend_ci(fit_trend(x), v, 0.05, 10), "beta1"),
}


def summary(result):
    """outcome(), extended to floats, arrays and lists of table rows."""
    if isinstance(result, (float, list)):
        return result
    return result.tolist() if isinstance(result, np.ndarray) else outcome(result)


class TestNamedChoices:
    @pytest.mark.parametrize("bad", [3, None, "bogus"])
    @pytest.mark.parametrize("entry", sorted(NAMED))
    def test_unknown_name_fails_naming_the_argument(self, x, entry, bad):
        # 3 and None used to fail as AttributeErrors ("'int' object has no attribute 'lower'")
        name, call, _canonical = NAMED[entry]
        with pytest.raises(ValueError, match=f"^{name}: expected one of .*, got {bad!r}$"):
            call(x, bad)

    @pytest.mark.parametrize("entry", sorted(NAMED))
    def test_any_letter_case_gives_the_canonical_result(self, x, entry):
        _name, call, canonical = NAMED[entry]
        assert summary(call(x, canonical.swapcase())) == summary(call(x, canonical))

    def test_repeated_method_runs_once(self):
        spec = ExperimentSpec(kind="coverage", methods=("sn", "SN"), replications=4)
        assert spec.methods == spec.resolved_methods() == ("sn",)
        result = run_experiment(spec)
        assert result.to_table().splitlines()[0].split("\t") == ["profile", "error", "k_n", "sn"]
        assert len(result.to_rows()) == 1
