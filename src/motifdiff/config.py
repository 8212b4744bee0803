"""What the command line reads without numpy: schedule, score knobs, suites."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError

SUITE_NAMES = ("count-identity", "finitediff", "series", "basis",
               "equivariance")


@dataclass(frozen=True)
class NoiseSchedule:
    """Variance-preserving schedule with linear rate beta(t)."""

    beta_min: float = 0.1
    beta_max: float = 20.0
    t_min: float = 1e-3
    t_max: float = 1.0

    def __post_init__(self):
        if not (0 < self.beta_min < self.beta_max):
            raise InputError("need 0 < beta_min < beta_max")
        # nan fails the check above, which leaves beta_min finite
        if self.beta_max == math.inf:
            raise InputError("beta_max must be finite, got inf")
        if not (0 < self.t_min < self.t_max <= 1.0):
            raise InputError("need 0 < t_min < t_max <= 1")

    def _check(self, t: float) -> float:
        t = float(t)
        if not (self.t_min <= t <= self.t_max):
            raise InputError(
                f"t={t} outside schedule range [{self.t_min}, {self.t_max}]")
        return t

    def rate(self, t: float) -> float:
        t = self._check(t)
        return self.beta_min + t * (self.beta_max - self.beta_min)

    def alpha_beta(self, t: float) -> tuple[float, float]:
        t = self._check(t)
        integral = self.beta_min * t + 0.5 * t * t * (self.beta_max - self.beta_min)
        alpha = math.exp(-0.5 * integral)
        # beta^2 = 1 - alpha^2 = -expm1(-integral), stable near t=0
        beta = math.sqrt(-math.expm1(-integral))
        return alpha, beta


@dataclass(frozen=True)
class ScoreConfig:
    """Knobs of the exact-score oracle.

    perm_policy: "exhaustive" enumerates all n! permutations (n <= 8),
    "monte_carlo" draws mc_samples uniform permutations from `seed`,
    "auto" picks exhaustive when affordable. truncation_k is the series
    order.
    """

    perm_policy: str = "auto"
    mc_samples: int = 10000
    seed: int = 0
    truncation_k: int = 12

    def __post_init__(self):
        if self.perm_policy not in ("auto", "exhaustive", "monte_carlo"):
            raise InputError(f"unknown perm_policy {self.perm_policy!r}")
        if self.mc_samples < 1:
            raise InputError("mc_samples must be at least 1")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")
        if self.truncation_k < 0:
            raise InputError("truncation_k must be non-negative")
