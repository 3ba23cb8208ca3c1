"""Six stochastic-optimizer state machines behind one step interface.

All of them consume a raw gradient vector and return the updated parameters:

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
0/0 but the true gradient step is zero anyway).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .linalg import project_box

ALGORITHMS = ("sgd", "adam", "amsgrad", "adasgd", "adasgdmax", "adabound")


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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizerConfig":
        return cls(**data)


class Optimizer:
    """Shared stepping shell: finiteness checks, step counting, freezing."""

    algo = "base"

    def __init__(self, dim: int, config: OptimizerConfig):
        config.validate()
        self.dim = dim
        self.config = config
        self.t = 0
        self.diverged = False
        self.m = np.zeros(dim)
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
        return self._update(theta, g)

    def _update(self, theta: np.ndarray, g: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class SGD(Optimizer):
    algo = "sgd"

    def _update(self, theta, g):
        c = self.config
        self.m = c.beta1 * self.m + g
        self.last_eta_t = c.eta
        return theta - c.eta * self.m


class Adam(Optimizer):
    algo = "adam"

    def __init__(self, dim, config):
        super().__init__(dim, config)
        self.v = np.zeros(dim)

    def _update(self, theta, g):
        c = self.config
        self.m = c.beta1 * self.m + (1.0 - c.beta1) * g
        self.v = c.beta2 * self.v + (1.0 - c.beta2) * g * g
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        return theta - c.eta * self.m / (np.sqrt(self.v) + c.epsilon) * (np.sqrt(bc2) / bc1)


class AMSGrad(Optimizer):
    algo = "amsgrad"

    def __init__(self, dim, config):
        super().__init__(dim, config)
        self.v = np.zeros(dim)
        self.v_hat = np.zeros(dim)

    def _update(self, theta, g):
        c = self.config
        self.m = c.beta1 * self.m + (1.0 - c.beta1) * g
        self.v = c.beta2 * self.v + (1.0 - c.beta2) * g * g
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        self.v_hat = np.maximum(self.v_hat, self.v / bc2)
        # same rule as adam with v replaced by the held maximum (expressed in
        # the same uncorrected units, so the two coincide while v/bc2 rises)
        denom = np.sqrt(self.v_hat * bc2) + c.epsilon
        return theta - c.eta * self.m / denom * (np.sqrt(bc2) / bc1)


class AdaSGD(Optimizer):
    algo = "adasgd"

    def __init__(self, dim, config):
        super().__init__(dim, config)
        self.v = 0.0

    def _update(self, theta, g):
        c = self.config
        self.m = c.beta1 * self.m + g
        self.v = c.beta2 * self.v + (1.0 - c.beta2) * float(g @ g)
        bc2 = 1.0 - c.beta2 ** self.t
        corrected = self.v / bc2
        if corrected <= 0.0:
            self.last_eta_t = 0.0
            return theta.copy()
        eta_t = c.eta / np.sqrt(corrected / self.dim)
        self.last_eta_t = eta_t
        return theta - eta_t * self.m


class AdaSGDMax(Optimizer):
    algo = "adasgdmax"

    def __init__(self, dim, config):
        super().__init__(dim, config)
        self.v = 0.0
        self.v_hat = 0.0

    def _update(self, theta, g):
        c = self.config
        self.m = c.beta1 * self.m + g
        self.v = c.beta2 * self.v + (1.0 - c.beta2) * float(g @ g)
        bc2 = 1.0 - c.beta2 ** self.t
        self.v_hat = max(self.v_hat, self.v / bc2)
        if self.v_hat <= 0.0:
            self.last_eta_t = 0.0
            return theta.copy()
        scale = self.t * self.v_hat if c.regret_decay else self.v_hat
        eta_t = c.eta / np.sqrt(scale / self.dim)
        self.last_eta_t = eta_t
        return theta - eta_t * self.m


class AdaBound(Optimizer):
    algo = "adabound"

    def __init__(self, dim, config):
        super().__init__(dim, config)
        if config.eta_sgd is None or config.gamma is None:
            raise ValueError("adabound needs eta_sgd and gamma")
        if config.gamma <= 0:
            raise ValueError("gamma must be positive")
        if config.eta_sgd <= 0:
            raise ValueError("eta_sgd must be positive")
        self.v = np.zeros(dim)

    def _update(self, theta, g):
        c = self.config
        self.m = c.beta1 * self.m + (1.0 - c.beta1) * g
        self.v = c.beta2 * self.v + (1.0 - c.beta2) * g * g
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        rate = c.eta / (np.sqrt(self.v / bc2) + c.epsilon)
        lower = c.eta_sgd * (1.0 - 1.0 / (c.gamma * self.t + 1.0))
        upper = c.eta_sgd * (1.0 + 1.0 / (c.gamma * self.t))
        rate = np.clip(rate, lower, upper)
        return theta - rate * (self.m / bc1)


_CLASSES = {cls.algo: cls for cls in (SGD, Adam, AMSGrad, AdaSGD, AdaSGDMax, AdaBound)}


def make_optimizer(algo: str, dim: int, config: OptimizerConfig) -> Optimizer:
    try:
        cls = _CLASSES[algo]
    except KeyError:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}") from None
    return cls(dim, config)


class BoxConstrained:
    """Wrap an optimizer so every iterate is projected back into a box."""

    def __init__(self, inner: Optimizer, lo: np.ndarray, hi: np.ndarray):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if np.any(lo > hi):
            raise ValueError("box is empty")
        self.inner = inner
        self.lo = lo
        self.hi = hi

    def step(self, theta: np.ndarray, g: np.ndarray) -> np.ndarray:
        return project_box(self.inner.step(theta, g), self.lo, self.hi)

    def __getattr__(self, name):
        return getattr(self.inner, name)
