"""Synthetic least-squares instances with controlled spectra, loss/gradient
oracles (quadratic, logistic, exponential), exact solutions, and online convex
optimization streams.

A generated problem minimizes the sum squared loss L(theta) = 0.5 ||X theta - y||^2
with X = V Sigma Q for Haar-orthogonal factors, so X.T X = Q.T Lambda Q with a
spectrum chosen exactly: lambda_max first, lambda_min last, interior values
log-uniformly spaced.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .linalg import haar_frame, haar_orthogonal, project_box, sym_eigh

# Eigenvalues below RANK_CUTOFF * lambda_max count as zero for pseudoinverse
# and row-space purposes.
RANK_CUTOFF = 1e-10
# The loss streams make_online_problem builds.
ONLINE_KINDS = ("linear-adversarial", "quadratic-tracking")
# Log-spaced spectra cannot reach 0; the smallest positive interior value.
# Kept well above RANK_CUTOFF: positive eigenvalues closer to the cutoff have
# eigenvectors determined only to eps * lambda_max / lambda, which breaks the
# null-orthogonality guarantee of the pseudoinverse.
ZERO_SPECTRUM_FLOOR = 1e-6


@dataclass(frozen=True)
class GenSpec:
    """Recipe for a synthetic least-squares instance."""

    n: int
    d: int
    lambda_max: float
    lambda_min: float
    y_std: float = np.sqrt(30.0)
    angle_2d: float | None = None
    axis_aligned: bool = False  # Q = I: Hessian eigenbasis on the coordinate axes

    def validate(self) -> None:
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be >= 1")
        if not np.all(np.isfinite((self.lambda_max, self.lambda_min, self.y_std))):
            raise ValueError("lambda_max, lambda_min and y_std must be finite")
        if self.lambda_max <= 0:
            raise ValueError("lambda_max must be positive")
        if self.lambda_min < 0 or self.lambda_min > self.lambda_max:
            raise ValueError("need 0 <= lambda_min <= lambda_max")
        if self.n < self.d and self.lambda_min > 0:
            raise ValueError("n < d forces a singular X.T X; set lambda_min = 0")
        if self.d == 1 and self.lambda_min != self.lambda_max:
            raise ValueError("d = 1 admits a single eigenvalue; set lambda_min = lambda_max")
        if self.angle_2d is not None and self.d != 2:
            raise ValueError("angle_2d only applies to d = 2 problems")
        if self.angle_2d is not None and self.axis_aligned:
            raise ValueError("angle_2d and axis_aligned are mutually exclusive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "GenSpec":
        return cls(**data)


@dataclass
class QuadraticProblem:
    """A least-squares instance together with its spectral factors."""

    x: np.ndarray           # (n, d) design matrix
    y: np.ndarray           # (n,) targets
    q: np.ndarray           # (d, d); rows are eigenvectors of X.T X
    lam: np.ndarray         # (d,) eigenvalues, descending
    theta_star: np.ndarray | None
    lambda_max: float
    lambda_min: float
    cond: float
    spec: GenSpec | None = None
    seed: int | None = None

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def to_json(self) -> str:
        if self.spec is None or self.seed is None:
            raise ValueError("problem has no generation provenance; cannot serialize")
        return json.dumps({"spec": self.spec.to_dict(), "seed": self.seed}, sort_keys=True)

    @classmethod
    def from_json(cls, doc: str) -> "QuadraticProblem":
        data = json.loads(doc)
        return generate_from_seed(GenSpec.from_dict(data["spec"]), data["seed"])


def _spectrum(spec: GenSpec) -> np.ndarray:
    """Eigenvalues of X.T X: lambda_max first, lambda_min last, interior values
    log-uniformly spaced.  A zero lambda_min contributes max(1, d - n)
    structural zeros and the positive part descends to ZERO_SPECTRUM_FLOOR
    times lambda_max (log spacing cannot reach 0)."""
    d, lmax, lmin = spec.d, spec.lambda_max, spec.lambda_min
    if d == 1:
        return np.array([lmax])
    if lmin > 0:
        return np.geomspace(lmax, lmin, d)
    zeros = max(1, d - spec.n)
    nonzeros = d - zeros
    if nonzeros < 1:
        raise ValueError("spectrum has no room for a positive eigenvalue")
    if nonzeros == 1:
        head = np.array([lmax])
    else:
        head = np.geomspace(lmax, ZERO_SPECTRUM_FLOOR * lmax, nonzeros)
    return np.concatenate([head, np.zeros(zeros)])


def _rotation_2d(angle_deg: float) -> np.ndarray:
    """Eigenvector rows for a 2-d problem whose top eigenvector sits at
    angle_deg from the first axis."""
    a = np.deg2rad(angle_deg)
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, s], [-s, c]])


def generate_least_squares(spec: GenSpec, rng: np.random.Generator) -> QuadraticProblem:
    """Draw a problem: X = V Sigma Q with orthonormal V (n x d frame, the
    relevant columns of a Haar n x n factor) and Haar Q (d x d), Sigma.T Sigma
    equal to the requested spectrum, and y ~ N(0, y_std^2)^n."""
    spec.validate()
    lam = _spectrum(spec)
    if spec.angle_2d is not None:
        q = _rotation_2d(spec.angle_2d)
    elif spec.axis_aligned:
        q = np.eye(spec.d)
    else:
        q = haar_orthogonal(spec.d, rng)
    v = haar_frame(spec.n, min(spec.n, spec.d), rng)
    sigma = np.sqrt(lam[: v.shape[1]])
    x = (v * sigma) @ q[: v.shape[1], :]
    y = rng.normal(0.0, spec.y_std, size=spec.n)
    lambda_max = float(lam[0])
    lambda_min = float(lam[-1])
    theta_star = None
    if lambda_min > 0:
        theta_star = q.T @ ((q @ (x.T @ y)) / lam)
    cond = lambda_max / lambda_min if lambda_min > 0 else np.inf
    return QuadraticProblem(
        x=x, y=y, q=q, lam=lam, theta_star=theta_star,
        lambda_max=lambda_max, lambda_min=lambda_min, cond=cond, spec=spec,
    )


def generate_from_seed(spec: GenSpec, seed: int) -> QuadraticProblem:
    """Reproducible generation: the (spec, seed) pair fully determines the
    problem and is recorded for JSON round-trips."""
    problem = generate_least_squares(spec, np.random.default_rng(seed))
    problem.seed = seed
    return problem


def make_rotated_2d(
    cond: float,
    lambda_min: float,
    angle_deg: float,
    rng: np.random.Generator,
    *,
    n: int = 300,
) -> QuadraticProblem:
    """A 2-d problem whose Hessian eigenbasis is rotated angle_deg away from
    the standard axes, with eigenvalues (cond * lambda_min, lambda_min)."""
    if cond < 1:
        raise ValueError("condition number must be >= 1")
    if not 0.0 <= angle_deg <= 90.0:
        raise ValueError("angle must lie in [0, 90] degrees")
    spec = GenSpec(n=n, d=2, lambda_max=cond * lambda_min, lambda_min=lambda_min,
                   angle_2d=angle_deg)
    return generate_least_squares(spec, rng)


def problem_from_data(x: np.ndarray, y: np.ndarray) -> QuadraticProblem:
    """Wrap raw (X, y) data as a problem, eigendecomposing X.T X."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("expected X (n, d) and y (n,)")
    q, lam = sym_eigh(x.T @ x)
    lam = np.maximum(lam, 0.0)
    lambda_max = float(lam[0])
    lambda_min = float(lam[-1])
    theta_star = None
    cond = np.inf
    if lambda_max > 0 and lambda_min > RANK_CUTOFF * lambda_max:
        theta_star = lstsq_min_norm(x, y, eig=(q, lam))
        cond = lambda_max / lambda_min
    else:
        lambda_min = 0.0
    return QuadraticProblem(x=x, y=y, q=q, lam=lam, theta_star=theta_star,
                            lambda_max=lambda_max, lambda_min=lambda_min, cond=cond)


def full_loss(p: QuadraticProblem, theta: np.ndarray) -> float:
    """Sum squared loss 0.5 ||X theta - y||^2."""
    r = p.x @ theta - p.y
    return 0.5 * float(r @ r)


def full_gradient(p: QuadraticProblem, theta: np.ndarray) -> np.ndarray:
    """Gradient of the sum squared loss: X.T (X theta - y)."""
    return p.x.T @ (p.x @ theta - p.y)


def stochastic_gradient(p: QuadraticProblem, theta: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
    """Single-sample estimate n * x_i (x_i . theta - y_i), unbiased for the
    sum-loss gradient, at a row i drawn uniformly by rng."""
    i = int(rng.integers(p.n))
    return sample_gradient(p.x[i], p.y[i], theta, p.n)


def sample_gradient(x_i: np.ndarray, y_i, theta: np.ndarray, n: int) -> np.ndarray:
    """n * x_i (x_i . theta - y_i) for one sampled row, or row by row for
    (B, d) rows, (B,) targets and (B, d) parameters; vecdot's rows equal the
    scalar dot bit for bit."""
    return n * x_i * (np.vecdot(x_i, theta) - y_i)[..., None]


def lstsq_min_norm(
    x: np.ndarray,
    y: np.ndarray,
    *,
    eig: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Least-squares minimizer of smallest Euclidean norm for raw data, via the
    spectral pseudoinverse of X.T X; eigenvalues below RANK_CUTOFF * lambda_max
    are treated as zero.  eig = (q, lam) reuses a sym_eigh decomposition of
    X.T X instead of computing one."""
    q, lam = sym_eigh(x.T @ x) if eig is None else eig
    lmax = float(lam[0])
    if lmax <= 0:
        return np.zeros(x.shape[1])
    keep = lam > RANK_CUTOFF * lmax
    w = q @ (x.T @ y)
    coeff = np.zeros_like(w)
    coeff[keep] = w[keep] / lam[keep]
    return q.T @ coeff


def min_norm_solution(p: QuadraticProblem) -> np.ndarray:
    """Least-squares minimizer of smallest Euclidean norm of the problem's
    data (lstsq_min_norm on p.x, p.y)."""
    return lstsq_min_norm(p.x, p.y)


def ridge_solution(p: QuadraticProblem, alpha: float) -> np.ndarray:
    """L2-regularized solution Q.T (Lambda + alpha I)^{-1} Lambda Q theta*."""
    if alpha < 0:
        raise ValueError("regularization strength must be >= 0")
    if p.theta_star is None:
        raise ValueError("ridge path needs an invertible problem")
    if alpha == 0.0:
        return p.theta_star.copy()
    shrink = p.lam / (p.lam + alpha)
    return p.q.T @ (shrink * (p.q @ p.theta_star))


def _margins(x: np.ndarray, labels: np.ndarray, theta: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels, dtype=float)
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be +/-1")
    return labels * (x @ theta)


def logistic_oracle(
    x: np.ndarray, labels: np.ndarray, theta: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss sum_i log(1 + e^{-v_i}) with v_i = y_i x_i . theta, plus its exact
    gradient and Hessian X.T Gamma X, Gamma_ii = e^{v_i} / (1 + e^{v_i})^2.

    Large |v| is handled with log1p / stable sigmoid branches.
    """
    x = np.asarray(x, dtype=float)
    v = _margins(x, labels, theta)
    # log(1 + e^{-v}) = max(-v, 0) + log1p(e^{-|v|}), overflow-free
    e = np.exp(-np.abs(v))
    loss = float(np.sum(np.maximum(-v, 0.0) + np.log1p(e)))
    # sigmoid(-v) written with e^{-|v|} only, so neither branch can overflow
    sig_neg = np.where(v >= 0, e / (1.0 + e), 1.0 / (1.0 + e))
    grad = -(x.T @ (np.asarray(labels, dtype=float) * sig_neg))
    gamma = sig_neg * (1.0 - sig_neg)  # = e^v / (1 + e^v)^2, symmetric in v
    hess = (x.T * gamma) @ x
    return loss, grad, hess


def exponential_oracle(
    x: np.ndarray, labels: np.ndarray, theta: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss sum_i e^{-v_i} with gradient and Hessian X.T Gamma X, Gamma_ii = e^{-v_i}."""
    x = np.asarray(x, dtype=float)
    v = _margins(x, labels, theta)
    w = np.exp(-v)
    loss = float(np.sum(w))
    grad = -(x.T @ (np.asarray(labels, dtype=float) * w))
    hess = (x.T * w) @ x
    return loss, grad, hess


@dataclass
class OnlineProblem:
    """A stream of convex losses over an axis-aligned constraint box."""

    kind: str                     # "linear-adversarial" | "quadratic-tracking"
    box_lo: np.ndarray
    box_hi: np.ndarray
    diameter_inf: float
    grad_bound_inf: float
    data: np.ndarray = field(repr=False)  # (T, d): gradients g_t or centers c_t

    @property
    def horizon(self) -> int:
        return len(self.data)

    def losses(self, points: np.ndarray) -> np.ndarray:
        """f_t(points[t]) for every round t < len(points); vecdot takes each
        row's dot product as the scalar data[t] @ theta does, bit for bit."""
        data = self.data[: len(points)]
        if self.kind == "linear-adversarial":
            return np.vecdot(data, points)
        diff = points - data
        return 0.5 * np.vecdot(diff, diff)

    def grad(self, t: int, theta: np.ndarray) -> np.ndarray:
        if self.kind == "linear-adversarial":
            return self.data[t].copy()
        return theta - self.data[t]

    def comparator(self, horizon: int | None = None) -> np.ndarray:
        """Best fixed point in the box: exact per-coordinate vertex choice for
        linear losses, projected mean of the centers for quadratic tracking."""
        t_max = self.horizon if horizon is None else horizon
        if self.kind == "linear-adversarial":
            g_sum = self.data[:t_max].sum(axis=0)
            return np.where(g_sum > 0, self.box_lo, self.box_hi).astype(float)
        return project_box(self.data[:t_max].mean(axis=0), self.box_lo, self.box_hi)


def make_online_problem(
    kind: str,
    t_max: int,
    d: int,
    box_halfwidth: float,
    g_bound: float,
    rng: np.random.Generator,
) -> OnlineProblem:
    """Build an online problem of the requested kind.

    linear-adversarial: f_t(theta) = g_t . theta with g_t iid uniform in
    [-g_bound, g_bound]^d.  quadratic-tracking: f_t(theta) = 0.5 ||theta - c_t||^2
    with centers uniform in the box; every gradient then satisfies
    ||grad||_inf <= box width by construction.
    """
    if kind not in ONLINE_KINDS:
        raise ValueError(f"unknown online problem kind: {kind!r}")
    if t_max < 1:
        raise ValueError("horizon must be >= 1")
    if not 0 < 2.0 * box_halfwidth < np.inf:
        raise ValueError("box_halfwidth must be positive, with 2 * box_halfwidth finite")
    if not 0 < 2.0 * g_bound < np.inf:
        raise ValueError("g_bound must be positive, with 2 * g_bound finite")
    lo = np.full(d, -box_halfwidth)
    hi = np.full(d, box_halfwidth)
    if kind == "linear-adversarial":
        data = rng.uniform(-g_bound, g_bound, size=(t_max, d))
        g_inf = float(g_bound)
    else:
        data = rng.uniform(-box_halfwidth, box_halfwidth, size=(t_max, d))
        g_inf = 2.0 * box_halfwidth
    return OnlineProblem(
        kind=kind, box_lo=lo, box_hi=hi,
        diameter_inf=2.0 * box_halfwidth, grad_bound_inf=g_inf, data=data,
    )


def regret(problem: OnlineProblem, played: np.ndarray, *, horizon: int | None = None) -> float:
    """Cumulative loss of the played points, one row per round, minus the best
    fixed comparator's over the first horizon rounds, summed in round order."""
    t_max = problem.horizon if horizon is None else horizon
    played = np.asarray(played, dtype=float)[:t_max]
    if not 1 <= t_max <= min(len(played), problem.horizon):
        raise ValueError("horizon must be >= 1 and within the played and the problem rounds")
    outside = np.any((played < problem.box_lo - 1e-9) | (played > problem.box_hi + 1e-9), axis=1)
    if outside.any():
        raise ValueError(f"played point at round {outside.argmax()} lies outside the box")
    best = np.broadcast_to(problem.comparator(t_max), played.shape)
    return float(np.cumsum(problem.losses(played))[-1] - np.cumsum(problem.losses(best))[-1])
