"""Seed-reproducible generators for synthetic benchmark processes.

Variance profiles A1-A4 modulate an error process (a standardized
absolute-value autoregression B1, a long-memory-style linear filter B2,
or plain i.i.d. Gaussians) to produce X_i = mu_i + sigma_i * e_i.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import _check_int, _choice, _is_real

DEFAULT_BURN_IN = 1000
_TRUNCATION_TOL = 1e-10
_TRUNCATION_CAP = 100_000


@dataclass(frozen=True)
class SigmaProfile:
    """A named standard-deviation sequence sigma_1..sigma_n.

    kind is one of "A1", "A2", "A3", "A4", "constant", "custom", in any
    letter case; it is stored in the table's spelling. The profile is
    checked as `sigma_values` checks it when it is built.
    """

    kind: str
    n: int
    value: float = 1.0
    custom: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "kind", _choice("kind", self.kind, [*_SIGMA_PROFILES, "custom"]))
        self.materialize()

    def materialize(self) -> np.ndarray:
        return sigma_values(self.kind, self.n, value=self.value, custom=self.custom)


# profile -> sigma(i, n, value) at the indices i = 1..n, as floats
_SIGMA_PROFILES = {
    "A1": lambda i, n, value: np.where(i <= n // 2, 0.2, 0.6),
    "A2": lambda i, n, value: 0.2 * (1.0 + np.cos(i / n ** 0.8) ** 2),
    "A3": lambda i, n, value: 0.2 + 0.1 * np.log(1.0 + np.abs(i - n / 2.0)),
    "A4": lambda i, n, value: 0.3 + np.exp(-0.5 * (i / 60.0) ** 2) / math.sqrt(2.0 * math.pi),
    "constant": lambda i, n, value: np.full(n, float(value)),
}


def sigma_values(kind: str, n: int, value: float = 1.0, custom=()) -> np.ndarray:
    """Materialize a variance profile, named in any letter case, as a length-n positive vector.

    A1: 0.2 on the first half (i <= floor(n/2)), 0.6 after.
    A2: 0.2 * (1 + cos^2(i / n^{4/5})).
    A3: 0.2 + 0.1 * log(1 + |i - n/2|).
    A4: 0.3 + phi(i / 60), phi the standard normal density (the divisor 60
        is fixed, independent of n).
    """
    n = _check_int("n", n, 1)
    if not _is_real(value):
        raise ValueError(f"value: expected a finite number, got {value!r}")
    kind = _choice("kind", kind, [*_SIGMA_PROFILES, "custom"])
    if kind == "custom":
        sig = np.asarray(custom, dtype=float)
        if sig.size != n:
            raise ValueError(f"custom profile has length {sig.size}, expected {n}")
    else:
        i = np.arange(1, n + 1, dtype=float)
        sig = _SIGMA_PROFILES[kind](i, n, value)
    if not np.all((sig > 0) & (sig < np.inf)):  # NaN fails both
        raise ValueError(f"sigma profile {kind!r} contains non-positive or non-finite values")
    return sig


def _rng(seed) -> np.random.Generator:
    """The generator of an integer seed >= 0; every simgen draw starts here."""
    return np.random.default_rng(_check_int("seed", seed, 0))


# kind -> (parameter its label carries, draw(model, n, seed)); the draws name
# gen_b1 and gen_b2 at call time, so a wrapper installed on the module is seen
_ERROR_KINDS = {
    "b1": ("theta", lambda m, n, seed: gen_b1(n, m.theta, seed, burn_in=m.burn_in)),
    "b2": ("beta", lambda m, n, seed: gen_b2(n, m.beta, seed)),
    "iid": (None, lambda m, n, seed: _rng(seed).standard_normal(_check_int("n", n, 1))),
}


@dataclass(frozen=True)
class ErrorModel:
    """Stationary unit-variance error process specification.

    kind "b1": eta_i = theta*|eta_{i-1}| + sqrt(1-theta^2)*eps_i,
    standardized by its analytic mean theta*sqrt(2/pi) and variance
    1 - 2*theta^2/pi. kind "b2": causal linear filter with weights
    a_j proportional to (j+1)^{-beta}, renormalized to unit variance.
    kind "iid": standard Gaussians. kind, in any letter case, is stored in lower case.
    """

    kind: str = "iid"
    theta: float = 0.0
    beta: float = 3.0
    burn_in: int = DEFAULT_BURN_IN

    def __post_init__(self):
        object.__setattr__(self, "kind", _choice("kind", self.kind, _ERROR_KINDS))

    def label(self) -> str:
        """The short name iid, b1:<theta> or b2:<beta>; parse() reads it back."""
        param = _ERROR_KINDS[self.kind][0]
        return f"{self.kind}:{getattr(self, param):g}" if param else self.kind

    @classmethod
    def parse(cls, label: str) -> ErrorModel:
        """The model a label() names, in any letter case: "B1:0.4" is ErrorModel("b1", 0.4).

        Anything else, a non-string too, raises ValueError("bad error model token: …").
        """
        if not isinstance(label, str):
            raise ValueError(f"bad error model token: {label!r}")
        token = label.strip()
        kind, colon, value = token.partition(":")
        try:
            model = cls(kind)
            param = _ERROR_KINDS[model.kind][0]
            if bool(colon) == bool(param):
                return cls(model.kind, **{param: float(value)}) if param else model
        except ValueError:
            pass
        raise ValueError(f"bad error model token: {token!r}")

    def generate(self, n: int, seed) -> np.ndarray:
        return _ERROR_KINDS[self.kind][1](self, n, seed)


def gen_b1(n: int, theta: float, seed, burn_in: int = DEFAULT_BURN_IN) -> np.ndarray:
    """Standardized absolute-value AR(1) errors, deterministic per seed.

    Starts the recursion at eta_0 = 0 and discards burn_in iterations; the
    recursion forgets its initial condition geometrically. The recursion
    runs on Python floats through itertools.accumulate, the same IEEE
    operations in the same order as an explicit loop, at about half its
    cost per step; a memoryview hands the scaled innovations over one
    float at a time, so no list of n Python floats is held.
    """
    if not _is_real(theta):
        raise ValueError(f"theta: expected a finite number, got {theta!r}")
    if abs(theta) >= 1:
        raise ValueError(f"b1 requires |theta| < 1, got theta={theta}")
    n, burn_in = _check_int("n", n, 1), _check_int("burn_in", burn_in, 0)
    eps = _rng(seed).standard_normal(burn_in + n)
    if theta == 0.0:
        return eps[burn_in:].copy()
    s = math.sqrt(1.0 - theta * theta)
    steps = itertools.accumulate(
        memoryview(s * eps), lambda prev, e: theta * abs(prev) + e, initial=0.0
    )
    eta = np.fromiter(steps, float, burn_in + n + 1)[burn_in + 1 :]
    mean = theta * math.sqrt(2.0 / math.pi)
    var = 1.0 - 2.0 * theta * theta / math.pi
    return (eta - mean) / math.sqrt(var)


def b2_weights(beta: float, truncation: int | None = None) -> np.ndarray:
    """Truncated filter weights a_0..a_J with sum of squares exactly 1.

    The default truncation keeps terms until the raw weight (J+1)^{-beta}
    drops below 1e-10 (capped at 1e5 terms), then renormalizes.
    """
    if not _is_real(beta):
        raise ValueError(f"beta: expected a finite number, got {beta!r}")
    if beta <= 0.5:
        raise ValueError(f"b2 requires beta > 1/2, got beta={beta}")
    if truncation is None:
        trunc = min(int(math.ceil(_TRUNCATION_TOL ** (-1.0 / beta))) , _TRUNCATION_CAP)
    else:
        trunc = _check_int("truncation", truncation, 0)
    a = (np.arange(trunc + 1, dtype=float) + 1.0) ** (-beta)
    return a / math.sqrt(np.sum(a * a))


def gen_b2(n: int, beta: float, seed, truncation: int | None = None) -> np.ndarray:
    """Causal linear-process errors e_i = sum_j a_j eps_{i-j}.

    Pre-sample innovations (indices 1-J..0) come from the same seeded
    stream, so the output is deterministic per seed.
    """
    n = _check_int("n", n, 1)
    a = b2_weights(beta, truncation)
    J = a.size - 1
    eps = _rng(seed).standard_normal(n + J)
    return np.convolve(eps, a, mode="valid")


def b2_long_run_variance(beta: float, truncation: int | None = None) -> float:
    """True long-run variance (sum of weights)^2 of the truncated filter."""
    a = b2_weights(beta, truncation)
    return float(np.sum(a) ** 2)


@dataclass(frozen=True)
class SimModel:
    """Composed model X_i = mu_i + sigma_i * e_i with a fixed seed.

    The mean is either constant (mu) or a one-step shift of size lam
    after index change_at (mu_i = mu + lam * 1{i > change_at}).
    """

    n: int
    sigma: SigmaProfile
    error: ErrorModel = field(default_factory=ErrorModel)
    seed: int = 0
    mu: float = 0.0
    lam: float = 0.0
    change_at: int = 0

    def __post_init__(self):
        _check_int("n", self.n, 1)
        if self.sigma.n != self.n:
            raise ValueError(f"sigma profile length {self.sigma.n} does not match model n={self.n}")
        if _check_int("change_at", self.change_at, 0) > self.n:  # the shift would fall outside
            raise ValueError(f"change_at must be <= n={self.n}, got {self.change_at}")
        for name in ("mu", "lam"):
            if not _is_real(getattr(self, name)):
                raise ValueError(f"{name}: expected a finite number, got {getattr(self, name)!r}")

    def mean_values(self) -> np.ndarray:
        mu = np.full(self.n, self.mu)
        if self.lam != 0.0:
            mu[self.change_at :] += self.lam
        return mu

    def to_config(self) -> dict:
        return {
            "n": self.n,
            "sigma": self.sigma.kind,
            "sigma_value": self.sigma.value,
            "error": self.error.kind,
            "theta": self.error.theta,
            "beta": self.error.beta,
            "burn_in": self.error.burn_in,
            "seed": self.seed,
            "mu": self.mu,
            "lam": self.lam,
            "change_at": self.change_at,
        }


def generate(model: SimModel) -> np.ndarray:
    """Materialize one series from the model, bit-reproducible per seed.

    A series that overflows (a huge mu, lam or sigma) raises ValueError.
    """
    sig = model.sigma.materialize()
    e = model.error.generate(model.n, model.seed)
    with np.errstate(over="ignore"):
        x = model.mean_values() + sig * e
    if not np.isfinite(x).all():
        raise ValueError("series is not finite: mu, lam or sigma is too large")
    return x
