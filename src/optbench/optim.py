"""One stochastic-optimizer state machine, six update rules.

``Optimizer(algo, dim, config).step(theta, g)`` consumes a raw gradient
vector and returns the updated parameters.  The rules differ in three
choices: a decaying-sum (sgd, adasgd, adasgdmax) or (1 - beta1)-weighted
exponential first moment m; no, a per-coordinate or a global second moment v;
and whether a running maximum v_hat is held.

    sgd         theta -= eta * m,             m = beta1 * m + g  (decaying sum)
    adam        theta -= eta * m / (sqrt(v) + eps) * sqrt(1 - beta2^t) / (1 - beta1^t)
                with m, v the (1 - beta)-weighted exponential averages of g, g^2
    amsgrad     adam, but the denominator uses the running maximum of the
                bias-corrected second moment
    adasgd      theta -= eta_t * m, a single global rate
                eta_t = eta / sqrt((v_t / (1 - beta2^t)) / d), v_t = EMA of ||g||^2
    adasgdmax   adasgd with v-hat = max(v-hat, corrected v); optional 1/sqrt(t)
                decay for regret-style runs
    adabound    per-coordinate adam rate clipped into [eta_l(t), eta_u(t)]
                around a terminal sgd rate

Divergence policy: a non-finite gradient or parameter freezes the state; the
step counter still advances.  Zero-gradient guard: when the global second
moment is exactly zero the adasgd/adasgdmax step is skipped (the update is
0/0 but the true gradient step is zero anyway).  Box-constrained runs project
each iterate with ``linalg.project_box``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ALGORITHMS = ("sgd", "adam", "amsgrad", "adasgd", "adasgdmax", "adabound")
_DECAYING_SUM = ("sgd", "adasgd", "adasgdmax")
_PER_COORDINATE = ("adam", "amsgrad", "adabound")


@dataclass
class OptimizerConfig:
    eta: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    regret_decay: bool = False
    eta_sgd: float | None = None
    gamma: float | None = None

    def validate(self) -> None:
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError("eta must be positive and finite")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("beta1, beta2 must lie in [0, 1)")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError("epsilon must be finite and >= 0")


class Optimizer:
    """State of one run of ``algo`` in ``dim`` coordinates: the step count t,
    the moments m, v and v_hat (arrays for per-coordinate rules, floats for
    the global ones), the frozen flag and the last global rate eta_t (NaN for
    the per-coordinate rules)."""

    def __init__(self, algo: str, dim: int, config: OptimizerConfig):
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
        config.validate()
        if algo == "adabound":
            if config.eta_sgd is None or config.gamma is None:
                raise ValueError("adabound needs eta_sgd and gamma")
            if config.gamma <= 0:
                raise ValueError("gamma must be positive")
            if config.eta_sgd <= 0:
                raise ValueError("eta_sgd must be positive")
        self.algo = algo
        self.dim = dim
        self.config = config
        self.t = 0
        self.diverged = False
        self.m = np.zeros(dim)
        self.v = np.zeros(dim) if algo in _PER_COORDINATE else 0.0
        self.v_hat = np.zeros(dim) if algo == "amsgrad" else 0.0
        self.last_eta_t = np.nan

    def step(self, theta: np.ndarray, g: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        g = np.asarray(g, dtype=float)
        self.t += 1
        if self.diverged:
            return theta.copy()
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(theta))):
            self.diverged = True
            return theta.copy()
        c, algo = self.config, self.algo
        if algo in _DECAYING_SUM:
            self.m = c.beta1 * self.m + g
        else:
            self.m = c.beta1 * self.m + (1.0 - c.beta1) * g
        if algo == "sgd":
            self.last_eta_t = c.eta
            return theta - c.eta * self.m
        bc2 = 1.0 - c.beta2 ** self.t
        if algo in ("adasgd", "adasgdmax"):
            self.v = c.beta2 * self.v + (1.0 - c.beta2) * float(g @ g)
            scale = self.v / bc2
            if algo == "adasgdmax":
                self.v_hat = max(self.v_hat, scale)
                scale = self.v_hat
            if scale <= 0.0:
                self.last_eta_t = 0.0
                return theta.copy()
            if algo == "adasgdmax" and c.regret_decay:
                scale = self.t * scale
            eta_t = c.eta / np.sqrt(scale / self.dim)
            self.last_eta_t = eta_t
            return theta - eta_t * self.m
        self.v = c.beta2 * self.v + (1.0 - c.beta2) * g * g
        bc1 = 1.0 - c.beta1 ** self.t
        if algo == "adabound":
            rate = c.eta / (np.sqrt(self.v / bc2) + c.epsilon)
            lower = c.eta_sgd * (1.0 - 1.0 / (c.gamma * self.t + 1.0))
            upper = c.eta_sgd * (1.0 + 1.0 / (c.gamma * self.t))
            rate = np.clip(rate, lower, upper)
            return theta - rate * (self.m / bc1)
        if algo == "amsgrad":
            self.v_hat = np.maximum(self.v_hat, self.v / bc2)
            # adam with v replaced by the held maximum (expressed in the same
            # uncorrected units, so the two coincide while v/bc2 rises)
            denom = np.sqrt(self.v_hat * bc2) + c.epsilon
        else:
            denom = np.sqrt(self.v) + c.epsilon
        return theta - c.eta * self.m / denom * (np.sqrt(bc2) / bc1)
