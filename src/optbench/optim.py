"""One stochastic-optimizer state machine, six update rules, one run or a batch.

``Optimizer(algo, dim, config).step(theta, g)`` consumes a raw gradient
vector and returns the updated parameters.  ``Optimizer(algo, dim, configs)``
with a sequence of B configs runs B independent runs at once: ``theta`` and
``g`` are (B, dim) arrays, one row per run, and every row is updated exactly
as a single run with its own config would be, bit for bit.  The rows of a
batch may differ only in ``eta``.  The rules are written once, over an
optional leading batch axis, so a single run and a batch row share every
floating-point expression.

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

Divergence policy: a non-finite gradient or parameter freezes the run (each
row of a batch on its own); the step counter still advances.  Zero-gradient
guard: when the global second moment is exactly zero the adasgd/adasgdmax
step is skipped (the update is 0/0 but the true gradient step is zero
anyway).  Box-constrained runs project each iterate with
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
# Per-run state; a frozen row of a batch keeps its values.
_ROW_STATE = ("m", "v", "v_hat", "last_eta_t")


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


def _squared_norm(g: np.ndarray):
    """g . g of one gradient, or of each row as a (B, 1) column; vecdot's rows
    equal the scalar dot bit for bit."""
    return float(g @ g) if g.ndim == 1 else np.vecdot(g, g)[:, None]


def _running_max(held, value):
    """Elementwise max(held, value), kept a plain float for a single run's
    global moment (float arithmetic keeps a single step cheap)."""
    return max(held, value) if isinstance(held, float) else np.maximum(held, value)


class Optimizer:
    """State of one run of ``algo`` in ``dim`` coordinates, or of a batch of
    runs: the step count t, the moments m, v and v_hat (arrays for
    per-coordinate rules, floats for the global ones; a leading row axis in a
    batch, where the global ones are (B, 1) columns), the frozen flag (one per
    row in a batch) and the last global rate eta_t (NaN for the per-coordinate
    rules).  ``eta`` holds the learning rate, a (B, 1) column in a batch."""

    def __init__(self, algo: str, dim: int, config: OptimizerConfig | Sequence[OptimizerConfig]):
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
        batched = not isinstance(config, OptimizerConfig)
        configs = list(config) if batched else [config]
        if not configs:
            raise ValueError("a batch needs at least one config")
        for c in configs:
            c.validate()
            if algo == "adabound":
                if c.eta_sgd is None or c.gamma is None:
                    raise ValueError("adabound needs eta_sgd and gamma")
                if c.gamma <= 0:
                    raise ValueError("gamma must be positive")
                if c.eta_sgd <= 0:
                    raise ValueError("eta_sgd must be positive")
        if any(replace(c, eta=configs[0].eta) != configs[0] for c in configs):
            raise ValueError("the runs of a batch may differ only in eta")
        self.algo = algo
        self.dim = dim
        self.config = configs[0]
        self.batched = batched
        self.t = 0
        rows = (len(configs),) if batched else ()
        vector = rows + (dim,)
        self.m = np.zeros(vector)
        if batched:
            self.eta = np.array([c.eta for c in configs])[:, None]
            self.diverged = np.zeros(rows, dtype=bool)
            self.last_eta_t = np.full(rows + (1,), np.nan)
            scalar = np.zeros(rows + (1,))
        else:
            self.eta = config.eta
            self.diverged = False
            self.last_eta_t = np.nan
            scalar = 0.0
        self.v = np.zeros(vector) if algo in _PER_COORDINATE else scalar
        self.v_hat = np.zeros(vector) if algo == "amsgrad" else scalar

    def select(self, rows) -> None:
        """Keep only the given rows of a batch (a boolean mask or indices)."""
        self.eta = self.eta[rows]
        for name in _ROW_STATE + ("diverged",):
            setattr(self, name, getattr(self, name)[rows])

    def step(self, theta: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The parameters after one step from theta with gradient g."""
        return self.update(np.asarray(theta, dtype=float), np.asarray(g, dtype=float))

    def update(self, theta: np.ndarray, g: np.ndarray) -> np.ndarray:
        """step() for float arrays, as the batch engine calls it."""
        self.t += 1
        frozen = self.diverged | ~(np.isfinite(g).all(axis=-1) & np.isfinite(theta).all(axis=-1))
        if not (frozen.any() if self.batched else frozen):
            return self._advance(theta, g)
        self.diverged = frozen
        if frozen.all():
            return theta.copy()
        # Some rows of a batch freeze: advance the others, restore the frozen.
        saved = {name: getattr(self, name) for name in _ROW_STATE}
        with np.errstate(all="ignore"):
            advanced = self._advance(theta, g)
        keep = frozen[:, None]
        for name, old in saved.items():
            setattr(self, name, np.where(keep, old, getattr(self, name)))
        return np.where(keep, theta, advanced)

    def _advance(self, theta: np.ndarray, g: np.ndarray) -> np.ndarray:
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
            self.v = c.beta2 * self.v + (1.0 - c.beta2) * _squared_norm(g)
            scale = self.v / bc2
            if algo == "adasgdmax":
                self.v_hat = _running_max(self.v_hat, scale)
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
            self.v_hat = _running_max(self.v_hat, self.v / bc2)
            # adam with v replaced by the held maximum (expressed in the same
            # uncorrected units, so the two coincide while v/bc2 rises)
            denom = np.sqrt(self.v_hat * bc2) + c.epsilon
        else:
            denom = np.sqrt(self.v) + c.epsilon
        return theta - eta * self.m / denom * (np.sqrt(bc2) / bc1)
