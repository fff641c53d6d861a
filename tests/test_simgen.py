import hashlib
import math

import numpy as np
import pytest

from snstat import simgen
from snstat.simgen import (
    ErrorModel,
    SigmaProfile,
    SimModel,
    b2_long_run_variance,
    b2_weights,
    gen_b1,
    gen_b2,
    generate,
    sigma_values,
)


class TestSigmaProfiles:
    def test_a1_step_at_half(self):
        sig = sigma_values("A1", 120)
        assert sig[59] == 0.2  # i = 60
        assert sig[60] == 0.6  # i = 61

    def test_a3_center_value(self):
        sig = sigma_values("A3", 100)
        assert sig[49] == pytest.approx(0.2)  # i = n/2, log(1) = 0

    def test_a4_at_sixty(self):
        sig = sigma_values("A4", 120)
        phi1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert sig[59] == pytest.approx(0.3 + phi1)

    def test_a4_divisor_independent_of_n(self):
        assert sigma_values("A4", 80)[59] == sigma_values("A4", 500)[59]

    @pytest.mark.parametrize("kind", ["A1", "A2", "A3", "A4"])
    @pytest.mark.parametrize("n", [7, 120, 1200])
    def test_all_positive(self, kind, n):
        assert sigma_values(kind, n).min() > 0

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_custom_rejects_nonpositive(self, bad):
        # NaN and inf used to pass, and `generate` then made a NaN or inf series
        with pytest.raises(ValueError, match="non-positive or non-finite"):
            sigma_values("custom", 3, custom=[1.0, bad, 2.0])
        with pytest.raises(ValueError, match="non-positive or non-finite"):
            SigmaProfile("custom", 3, custom=(1.0, bad, 1.0)).materialize()

    @pytest.mark.parametrize(
        "kind, stored",
        [("a1", "A1"), ("CONSTANT", "constant"), ("Custom", "custom")],
    )
    def test_kind_stored_in_table_spelling(self, kind, stored):
        sig = (1.0, 2.0, 3.0, 4.0)  # a custom profile needs its n values, the others ignore them
        assert SigmaProfile(kind, 4, custom=sig) == SigmaProfile(stored, 4, custom=sig)
        assert SigmaProfile(kind, 4, custom=sig).kind == stored

    @pytest.mark.parametrize("kind", ["A5", "", None, 1])
    def test_unknown_kind_rejected_at_construction(self, kind):
        with pytest.raises(ValueError, match="^kind: expected one of A1, A2, A3, A4, constant"):
            SigmaProfile(kind, 4)

    def test_constant(self):
        np.testing.assert_array_equal(sigma_values("constant", 4, value=2.5), 2.5)


class TestB1:
    def test_theta_zero_is_raw_stream(self):
        e = gen_b1(50, 0.0, seed=42, burn_in=0)
        raw = np.random.default_rng(42).standard_normal(50)
        np.testing.assert_array_equal(e, raw)

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            gen_b1(10, 1.0, seed=0)

    def test_deterministic(self):
        np.testing.assert_array_equal(gen_b1(100, 0.4, seed=5), gen_b1(100, 0.4, seed=5))

    def test_standardization_monte_carlo(self):
        e = gen_b1(10**6, 0.4, seed=3)
        assert abs(e.mean()) < 0.01
        assert abs(e.var() - 1.0) < 0.01

    def test_strong_dependence_autocorrelation(self):
        e = gen_b1(10**6, 0.8, seed=9)
        r1 = np.corrcoef(e[:-1], e[1:])[0, 1]
        assert r1 > 0.3

    @pytest.mark.parametrize("theta, burn_in, n", [(0.4, 1000, 120), (-0.7, 0, 1), (0.95, 3, 50)])
    def test_matches_explicit_loop(self, theta, burn_in, n):
        eps = np.random.default_rng(21).standard_normal(burn_in + n)
        s = math.sqrt(1.0 - theta * theta)
        eta, prev = np.empty(burn_in + n), 0.0
        for t in range(burn_in + n):
            prev = theta * abs(prev) + s * eps[t]
            eta[t] = prev
        mean, var = theta * math.sqrt(2.0 / math.pi), 1.0 - 2.0 * theta * theta / math.pi
        expected = (eta[burn_in:] - mean) / math.sqrt(var)
        np.testing.assert_array_equal(gen_b1(n, theta, seed=21, burn_in=burn_in), expected)

    @pytest.mark.parametrize(
        "n, theta, digest",
        [
            (120, 0.4, "06e1786a6a0c6d31"),
            (120, 0.8, "994bd5928258d228"),
            (120, -0.3, "4294703f950effd5"),
            (2000, 0.4, "9a3a77af8a4e7e96"),
            (2000, 0.8, "3fdd01434ca2b197"),
            (2000, -0.3, "7f56af90b26dc338"),
        ],
    )
    def test_output_bits_unchanged(self, n, theta, digest):
        # SHA-256 prefixes of the bytes an explicit per-step loop produced;
        # a faster recursion must reproduce every bit of every stream
        e = gen_b1(n, theta, seed=11)
        assert e.shape == (n,)
        assert hashlib.sha256(e.tobytes()).hexdigest()[:16] == digest


class TestB2:
    def test_zero_truncation_is_raw_stream(self):
        e = gen_b2(50, 3.0, seed=42, truncation=0)
        raw = np.random.default_rng(42).standard_normal(50)
        np.testing.assert_allclose(e, raw, rtol=1e-15)

    def test_weights_unit_norm(self):
        a = b2_weights(2.1)
        assert np.sum(a * a) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            gen_b2(10, 0.5, seed=0)

    def test_unit_variance_monte_carlo(self):
        e = gen_b2(10**6, 3.0, seed=4)
        assert abs(e.var() - 1.0) < 0.02

    def test_long_run_variance_zeta_oracle(self):
        # tau^2 = (sum a_j)^2 with untruncated weights equals zeta(3)^2/zeta(6)
        from scipy.special import zeta

        oracle = zeta(3.0) ** 2 / zeta(6.0)
        assert b2_long_run_variance(3.0) == pytest.approx(oracle, rel=1e-6)

    def test_truncation_invariance_past_tiny_weights(self):
        # weights below 1e-12 cannot move the path noticeably
        beta = 3.0
        j_big = int(1e-12 ** (-1.0 / beta)) + 10
        e_default = gen_b2(1000, beta, seed=7)
        e_long = gen_b2(1000, beta, seed=7, truncation=j_big)
        # different truncation shifts the innovation alignment; compare by
        # regenerating with matched J instead
        a_short = b2_weights(beta)
        a_long = b2_weights(beta, j_big)
        rng = np.random.default_rng(7)
        eps = rng.standard_normal(1000 + j_big)
        path_long = np.convolve(eps, a_long, mode="valid")
        path_short = np.convolve(eps[j_big - (a_short.size - 1) :], a_short, mode="valid")
        assert np.max(np.abs(path_long - path_short)) < 1e-8
        assert e_default.shape == e_long.shape


# The models of acceptance 4-6 and of the benchmark workloads, plus i.i.d.
LABELLED_MODELS = [
    ErrorModel("b1", theta=0.0),
    ErrorModel("b1", theta=0.4),
    ErrorModel("b1", theta=0.8),
    ErrorModel("b2", beta=4.0),
    ErrorModel("iid"),
]


class TestErrorModel:
    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="^kind: expected one of .*, got 'b3'$"):
            ErrorModel("b3")

    @pytest.mark.parametrize("model", LABELLED_MODELS, ids=lambda m: m.label())
    def test_parse_reads_back_label(self, model):
        assert ErrorModel.parse(model.label()) == model

    def test_labels(self):
        labels = [m.label() for m in LABELLED_MODELS]
        assert labels == ["b1:0", "b1:0.4", "b1:0.8", "b2:4", "iid"]
        assert ErrorModel("B1", theta=0.4).label() == "b1:0.4"

    def test_kind_stored_in_lower_case(self):
        assert ErrorModel("B1", theta=0.4) == ErrorModel("b1", theta=0.4)
        assert ErrorModel("IID").kind == "iid"

    @pytest.mark.parametrize("token", ["b9:1", "b1", "iid:3", "", "b1:x", "IID:3", None, 3])
    def test_parse_rejects_bad_tokens(self, token):
        with pytest.raises(ValueError, match="^bad error model token"):
            ErrorModel.parse(token)

    @pytest.mark.parametrize(
        "token, model",
        [("B1:0.4", ErrorModel("b1", theta=0.4)), ("B2:4", ErrorModel("b2", beta=4.0)),
         ("Iid", ErrorModel("iid"))],
    )
    def test_parse_any_letter_case(self, token, model):
        assert ErrorModel.parse(token) == model

    def test_parse_strips_whitespace(self):
        assert ErrorModel.parse(" b2:4 ") == ErrorModel("b2", beta=4.0)

    @pytest.mark.parametrize("kind, name", [("b1", "gen_b1"), ("b2", "gen_b2")])
    def test_generate_calls_module_level_generator(self, monkeypatch, kind, name):
        # a wrapper installed on the module (as the benchmark tracer does) must see the call
        calls = []
        monkeypatch.setattr(simgen, name, lambda n, *a, **kw: calls.append(n) or np.zeros(n))
        ErrorModel(kind, theta=0.4, beta=4.0).generate(7, seed=1)
        assert calls == [7]

    def test_generate_matches_generators(self):
        np.testing.assert_array_equal(
            ErrorModel("b1", theta=0.4, burn_in=50).generate(30, 3), gen_b1(30, 0.4, 3, 50)
        )
        np.testing.assert_array_equal(
            ErrorModel("b2", beta=4.0).generate(30, 3), gen_b2(30, 4.0, 3)
        )
        np.testing.assert_array_equal(
            ErrorModel("iid").generate(30, 3), np.random.default_rng(3).standard_normal(30)
        )


class TestConstruction:
    """A model or profile that cannot be drawn fails when it is built."""

    def test_sim_model_checks_profile_length(self):
        with pytest.raises(ValueError, match="sigma profile length 20 does not match model n=10"):
            SimModel(n=10, sigma=SigmaProfile("A1", 20))

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            (("constant", 4), {"value": float("nan")}, "value: expected a finite number"),
            (("constant", 4), {"value": -1.0}, "non-positive or non-finite"),
            (("custom", 3), {"custom": (1.0, 2.0)}, "custom profile has length 2, expected 3"),
            (("custom", 3), {"custom": (1.0, 0.0, 1.0)}, "non-positive or non-finite"),
            (("A1", 0), {}, "n must be >= 1"),
            (("A2", 4.0), {}, "n: expected an integer"),
        ],
    )
    def test_sigma_profile_checked_when_built(self, args, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SigmaProfile(*args, **kwargs)


class TestGenerate:
    def test_identity_composition(self):
        model = SimModel(
            n=40, sigma=SigmaProfile("constant", 40), error=ErrorModel("iid"), seed=11
        )
        x = generate(model)
        raw = np.random.default_rng(11).standard_normal(40)
        np.testing.assert_array_equal(x, raw)

    def test_null_step_equals_constant_mean(self):
        sig = SigmaProfile("A2", 60)
        base = SimModel(n=60, sigma=sig, error=ErrorModel("b1", theta=0.4), seed=2)
        stepped = SimModel(
            n=60, sigma=sig, error=ErrorModel("b1", theta=0.4), seed=2, lam=0.0, change_at=30
        )
        np.testing.assert_array_equal(generate(base), generate(stepped))

    def test_step_mean_applied_after_change(self):
        sig = SigmaProfile("constant", 10, value=1e-9)
        model = SimModel(n=10, sigma=sig, error=ErrorModel("iid"), seed=0, lam=5.0, change_at=4)
        x = generate(model)
        assert np.all(np.abs(x[:4]) < 1e-3)
        assert np.all(np.abs(x[4:] - 5.0) < 1e-3)

    def test_reproducible_bit_identical(self):
        model = SimModel(
            n=120, sigma=SigmaProfile("A1", 120), error=ErrorModel("b1", theta=0.8), seed=123
        )
        np.testing.assert_array_equal(generate(model), generate(model))

    def test_a1_b1_half_sd_ratio(self):
        ratios = []
        for seed in range(100):
            model = SimModel(
                n=120, sigma=SigmaProfile("A1", 120), error=ErrorModel("b1", theta=0.4), seed=seed
            )
            x = generate(model)
            ratios.append(x[60:].std() / x[:60].std())
        med = float(np.median(ratios))
        assert 2.0 <= med <= 4.0  # sigma ratio 0.6 / 0.2
