"""One stochastic-optimizer state machine, six update rules, over a batch of runs.

``Optimizer(algo, dim, configs)`` with a sequence of B configs holds B
independent runs; ``step(theta, g)`` takes (B, dim) parameters and raw
gradients, one row per run, and returns the updated parameters.  The rows may
differ only in ``eta``, and every row is updated exactly as a batch of that
row alone would be, bit for bit.  A single ``OptimizerConfig`` makes a
one-row batch, whose ``step`` also takes and returns (dim,) vectors.  The
rules are written once, over the row axis.

The rules differ in three choices: a decaying-sum (sgd, adasgd, adasgdmax) or
(1 - beta1)-weighted exponential first moment m; no, a per-coordinate or a
global second moment v; and whether a running maximum v_hat is held.

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

Divergence policy: rows are independent; a non-finite gradient or parameter
makes only its own row non-finite, and the caller decides when a run stops.
Zero-gradient guard: when the global second moment is exactly zero the
adasgd/adasgdmax step is skipped (the update is 0/0 but the true gradient
step is zero anyway).  Box-constrained runs project each iterate with
``linalg.project_box``.  Bias corrections use Python's float power: numpy's
vectorized power may round differently.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

ALGORITHMS = ("sgd", "adam", "amsgrad", "adasgd", "adasgdmax", "adabound")
_DECAYING_SUM = ("sgd", "adasgd", "adasgdmax")
_PER_COORDINATE = ("adam", "amsgrad", "adabound")
_ROW_STATE = ("eta", "m", "v", "v_hat", "last_eta_t")


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
    """State of a batch of B runs of ``algo`` in ``dim`` coordinates: the
    step count t, and per row the moments m, v and v_hat ((B, dim) arrays for
    per-coordinate rules, (B, 1) columns for the global ones), the learning
    rate ``eta`` and the last global rate eta_t ((B, 1) columns; eta_t is NaN
    for the per-coordinate rules)."""

    def __init__(self, algo: str, dim: int, config: OptimizerConfig | Sequence[OptimizerConfig]):
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
        configs = [config] if isinstance(config, OptimizerConfig) else list(config)
        if not configs:
            raise ValueError("a batch needs at least one config")
        for c in configs:
            c.validate()
            if algo == "adabound" and not all(b is not None and 0.0 < b < math.inf
                                              for b in (c.eta_sgd, c.gamma)):
                raise ValueError("adabound needs eta_sgd and gamma, positive and finite")
        if any(replace(c, eta=configs[0].eta) != configs[0] for c in configs):
            raise ValueError("the runs of a batch may differ only in eta")
        self.algo = algo
        self.dim = dim
        self.config = configs[0]
        self.t = 0
        rows = len(configs)
        self.eta = np.array([c.eta for c in configs])[:, None]
        self.last_eta_t = np.full((rows, 1), np.nan)
        self.m = np.zeros((rows, dim))
        self.v = np.zeros((rows, dim if algo in _PER_COORDINATE else 1))
        self.v_hat = np.zeros((rows, dim if algo == "amsgrad" else 1))

    def select(self, rows) -> None:
        """Keep only the given rows (a boolean mask or indices)."""
        for name in _ROW_STATE:
            setattr(self, name, getattr(self, name)[rows])

    def step(self, theta: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The parameters after one step from theta with gradient g: (B, dim)
        arrays, or (dim,) vectors for a one-row optimizer.  Any other shape
        raises ValueError and leaves the state as it was."""
        theta, g = np.asarray(theta, dtype=float), np.asarray(g, dtype=float)
        rows = (len(self.eta), self.dim)
        shapes = (rows, (self.dim,)) if rows[0] == 1 else (rows,)
        if theta.shape not in shapes or g.shape != theta.shape:
            raise ValueError(f"theta and g must share one shape of {shapes}, "
                             f"got {theta.shape} and {g.shape}")
        return self.update(theta.reshape(rows), g.reshape(rows)).reshape(theta.shape)

    def update(self, theta: np.ndarray, g: np.ndarray) -> np.ndarray:
        """step() for (B, dim) float arrays, as the batch engine calls it."""
        self.t += 1
        c, algo, eta = self.config, self.algo, self.eta
        if algo in _DECAYING_SUM:
            self.m = c.beta1 * self.m + g
        else:
            self.m = c.beta1 * self.m + (1.0 - c.beta1) * g
        if algo == "sgd":
            self.last_eta_t = eta
            return theta - eta * self.m
        bc2 = 1.0 - c.beta2 ** self.t
        if algo in ("adasgd", "adasgdmax"):
            self.v = c.beta2 * self.v + (1.0 - c.beta2) * np.vecdot(g, g)[:, None]
            scale = self.v / bc2
            if algo == "adasgdmax":
                self.v_hat = np.maximum(self.v_hat, scale)
                scale = self.v_hat
            # moving is False while the second moment is exactly zero: the
            # update is 0/0, so the rate is 0 (the true step is zero anyway),
            # 1 stands in for the zero scale and theta stays where it is.
            moving = scale > 0.0
            if algo == "adasgdmax" and c.regret_decay:
                scale = self.t * scale
            self.last_eta_t = moving * eta / np.sqrt((scale + (1.0 - moving)) / self.dim)
            return theta - self.last_eta_t * self.m
        self.v = c.beta2 * self.v + (1.0 - c.beta2) * g * g
        bc1 = 1.0 - c.beta1 ** self.t
        if algo == "adabound":
            rate = eta / (np.sqrt(self.v / bc2) + c.epsilon)
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
        return theta - eta * self.m / denom * (np.sqrt(bc2) / bc1)
