"""Experiment procedures: trajectory runs, convergence/regret/distance checks,
figure-style sweeps (angle alignment, lambda_max x condition-number heatmap),
minimum-norm and ridge-path behavior, data-swap stability, eigendirection
dependence, and the alignment-angle Monte Carlo.

Every procedure is a pure function of (parameters, master_seed); per-cell
generators are derived from a SeedSequence over the master seed and the cell
coordinates, so results do not depend on execution order or worker count.
"""

from __future__ import annotations

import itertools
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, replace

import numpy as np
import numpy.random  # numpy loads it lazily; load it with the package, not in the first run

from .linalg import haar_orthogonal, project_box, sym_eigh
from .optim import Optimizer, OptimizerConfig
from .problems import (
    ONLINE_KINDS,
    RANK_CUTOFF,
    GenSpec,
    QuadraticProblem,
    full_loss,
    generate_least_squares,
    lstsq_min_norm,
    make_online_problem,
    make_rotated_2d,
    min_norm_solution,
    problem_from_data,
    regret,
    ridge_solution,
    sample_gradient,
)

# Divergence is reported as log10 loss = 50.
LOSS_CAP = 1e50
# A batch computes a run's loss, exactly, only when its bound
# 0.5 (||X||_F ||theta|| + ||y||)^2 reaches this; the margin below LOSS_CAP
# covers the bound's rounding, so a bound under it proves the loss under the cap.
SCREEN_CAP = LOSS_CAP / 2
DIVERGED_LOG10 = 50.0
LOG10_FLOOR = 1e-30

# The theorem checks run at the default second-moment decay and start a small
# fixed distance from the optimum; no experiment varies either.
BETA2 = 0.999
PERTURBATION = 1e-2


def derive_rng(master_seed: int, *tags: int) -> np.random.Generator:
    """Independent per-cell stream keyed by the master seed and cell coordinates."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, *tags)))


def _check_positive(key: str, value: float) -> None:
    if not 0 < value < np.inf:
        raise ValueError(f"{key} must be positive and finite")


def _check_spectrum(n: int, lambda_max: float, cond: float, *,
                    lambda_key: str = "lambda_max", cond_key: str = "cond") -> None:
    """A generated spectrum runs from lambda_max down to lambda_max / cond; its
    smallest value must be a normal float, and the Gram matrix of n rows
    (entries about n * lambda_max) must stay finite.  Runners call this on
    every spectrum they will build, before any run; the messages name the
    runner's keys for lambda_max and cond."""
    _check_positive(lambda_key, lambda_max)
    if not 1 <= cond < np.inf:
        raise ValueError(f"{cond_key} must be finite and >= 1")
    if not (lambda_max / cond >= sys.float_info.min and n * lambda_max < np.inf):
        raise ValueError("lambda_max / cond must be a normal float and n * lambda_max finite")


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trace:
    """Per-iteration record of one optimizer run: one entry per step made in
    t, loss, eta_t and grad_norm (None for a run_batch row that was not asked
    to record them), and theta0 plus the parameters every snapshot stride
    steps in snapshots (None without a stride)."""

    t: np.ndarray
    loss: np.ndarray | None       # regret-in-loss when the optimum exists, else raw loss
    eta_t: np.ndarray | None
    grad_norm: np.ndarray | None
    snapshots: np.ndarray | None
    diverged: bool
    final_theta: np.ndarray

    @property
    def final_loss(self) -> float:
        return float(self.loss[-1])


def run_trajectory(
    problem: QuadraticProblem,
    algo: str,
    config: OptimizerConfig,
    steps: int,
    theta0: np.ndarray,
    rng: np.random.Generator | None = None,
    *,
    snapshot_stride: int = 0,
) -> Trace:
    """Run an optimizer from theta0 for a fixed number of parameter updates,
    recording every step: a one-row run_batch.

    Given an rng, the run draws all its steps' sample indices from it up
    front and takes single-sample steps; without one it takes full-gradient
    steps.  A run that stops (see run_batch) records 1e50 as its last loss.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    row = BatchRow(0, algo, config, None if rng is None else rng.integers(problem.n, size=steps))
    return run_batch([problem], [theta0], [row], steps, record=True,
                     snapshot_stride=snapshot_stride).traces[0]


def _loss_floor(problem: QuadraticProblem) -> float:
    """The optimum's loss, or 0 when the problem has no unique optimum."""
    return full_loss(problem, problem.theta_star) if problem.theta_star is not None else 0.0


def _loss_gap(problem: QuadraticProblem, theta: np.ndarray, floor: float) -> float:
    """Regret-in-loss of theta: its loss above the floor, clipped at 0."""
    val = full_loss(problem, theta) - floor
    return 0.0 if val < 0.0 else val


@dataclass(frozen=True)
class BatchRow:
    """One run of a batch: the index of its problem, its optimizer, and its
    sample indices, one per step, or None for full-gradient steps."""

    problem: int
    algo: str
    config: OptimizerConfig
    indices: np.ndarray | None = None


@dataclass
class BatchResult:
    """run_batch's outcome, one entry per row: the final regret-in-loss
    (LOSS_CAP for a stopped row), the stopped flag, the final parameters (a
    stopped row's where it stopped) and, when the batch recorded, its Trace."""

    final_loss: np.ndarray
    stopped: np.ndarray
    theta: np.ndarray
    traces: list[Trace] | None


def run_batch(
    problems: list[QuadraticProblem],
    theta0: np.ndarray,
    rows: list[BatchRow],
    steps: int,
    *,
    record: bool = False,
    snapshot_stride: int = 0,
) -> BatchResult:
    """Every least-squares run, as one (B, d) array program over the rows.

    Row i runs rows[i].algo on problems[rows[i].problem] from
    theta0[rows[i].problem] for a fixed number of parameter updates.  With
    sample indices, step t uses the single-sample estimate
    x_i (x_i . theta - y_i), i = indices[t] (the mean-loss gradient, the
    convention under which the figure experiments' learning rates are
    stated); without, the full sum-loss gradient X.T (X theta - y), so the
    2 / lambda_max threshold applies directly; the live rows take it as one
    stacked product, which rounds as full_gradient does on each row.  The
    rows of a batch all carry indices or none do.  Rows whose configs differ
    only in eta step as one Optimizer; rows of a problem share its data.

    One predicate decides every stop: a row stops, and leaves the work,
    after the step whose gradient or updated parameters hold a non-finite
    value or whose loss is not below LOSS_CAP, and its final parameters are
    the ones that step produced.  Each step bounds every run's loss by
    0.5 (||X||_F ||theta|| + ||y||)^2; only a run whose bound reaches
    SCREEN_CAP gets its loss computed, exactly.  With record, every run's
    loss is computed each step, and each row's Trace holds its per-step
    regret-in-loss (LOSS_CAP at the step that stops it), eta_t and gradient
    norm; with snapshot_stride >= 1 it holds theta0 and the parameters every
    snapshot_stride steps.  Without either, nothing is kept per step.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if not rows:
        raise ValueError("a batch needs at least one row")
    if snapshot_stride < 0:
        raise ValueError("snapshot_stride must be >= 0")
    n, d = problems[0].x.shape
    if any(p.x.shape != (n, d) for p in problems):
        raise ValueError("the problems of a batch must share n and d")
    samples = None
    if any(row.indices is not None for row in rows):
        if any(row.indices is None or len(row.indices) < steps for row in rows):
            raise ValueError("every row needs one sample index per step, or none does")
        samples = np.stack([row.indices[:steps] for row in rows], axis=1)   # (steps, rows)
        if samples.min() < 0 or samples.max() >= n:
            raise ValueError(f"sample indices must lie in [0, {n})")
    floors = np.array([_loss_floor(p) for p in problems])
    xs = np.stack([p.x for p in problems])
    ys = np.stack([p.y for p in problems])
    x_norm, y_norm = np.linalg.norm(xs, axis=(1, 2)), np.linalg.norm(ys, axis=1)
    blocks: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        blocks.setdefault((row.algo, astuple(replace(row.config, eta=1.0))), []).append(i)
    opts = [Optimizer(rows[m[0]].algo, d, [rows[i].config for i in m]) for m in blocks.values()]
    sizes = [len(opt.eta) for opt in opts]
    ids = np.array([i for m in blocks.values() for i in m])   # the row of each live run
    pid = np.array([rows[i].problem for i in ids])
    theta = np.asarray(theta0, dtype=float)[pid]
    final = np.full(len(rows), LOSS_CAP)
    stopped = np.ones(len(rows), dtype=bool)
    final_theta = np.empty((len(rows), d))
    made = np.full(len(rows), steps)   # the steps each row made
    if record:
        history = np.full((3, steps, len(rows)), np.nan)   # loss, eta_t, grad norm
    if snapshot_stride:
        snaps = np.full((1 + steps // snapshot_stride, len(rows), d), np.nan)
        snaps[0, ids] = theta
    inv_n = 1.0 / n
    with np.errstate(all="ignore"):   # non-finite values stop their runs below
        for t in range(steps):
            if samples is None:   # X.T (X theta - y), one (n, d) matrix per row
                x = xs[pid]
                g = (np.swapaxes(x, 1, 2)
                     @ ((x @ theta[:, :, None])[:, :, 0] - ys[pid])[:, :, None])[:, :, 0]
            else:
                idx = samples[t, ids]
                g = sample_gradient(xs[pid, idx], ys[pid, idx], theta, n) * inv_n
            start = 0
            for opt, size in zip(opts, sizes):
                if size:
                    part = slice(start, start + size)
                    theta[part] = opt.update(theta[part], g[part])
                    start += size
            stop = ~(np.isfinite(g).all(axis=1) & np.isfinite(theta).all(axis=1))
            if record:
                loss = np.array([_loss_gap(problems[p], th, floors[p])
                                 for p, th in zip(pid, theta)])
                stop |= ~(loss < LOSS_CAP)   # non-finite or at least the cap
                loss[stop] = LOSS_CAP
                grad_norm = np.sqrt(np.vecdot(g, g))
                history[:, t, ids] = (
                    loss, np.concatenate([opt.last_eta_t[:, 0] for opt in opts]),
                    np.where(np.isfinite(grad_norm), grad_norm, np.inf))
            else:
                reach = x_norm[pid] * np.sqrt(np.vecdot(theta, theta)) + y_norm[pid]
                for i in np.flatnonzero(~(0.5 * reach * reach < SCREEN_CAP) & ~stop):
                    stop[i] = not _loss_gap(problems[pid[i]], theta[i], floors[pid[i]]) < LOSS_CAP
            if snapshot_stride and (t + 1) % snapshot_stride == 0:
                snaps[(t + 1) // snapshot_stride, ids] = theta
            if stop.any():
                made[ids[stop]] = t + 1
                final_theta[ids[stop]] = theta[stop]
                keep = ~stop
                for opt, part in zip(opts, np.split(keep, np.cumsum(sizes)[:-1])):
                    opt.select(part)
                sizes = [len(opt.eta) for opt in opts]
                ids, pid, theta = ids[keep], pid[keep], theta[keep]
                if not ids.size:
                    break
    final[ids] = [_loss_gap(problems[p], th, floors[p]) for p, th in zip(pid, theta)]
    stopped[ids] = False
    final_theta[ids] = theta
    traces = None
    if record or snapshot_stride:
        traces = [Trace(
            t=np.arange(1, k + 1),
            loss=history[0, :k, i] if record else None,
            eta_t=history[1, :k, i] if record else None,
            grad_norm=history[2, :k, i] if record else None,
            snapshots=snaps[:1 + k // snapshot_stride, i] if snapshot_stride else None,
            diverged=bool(stopped[i]),
            final_theta=final_theta[i],
        ) for i, k in enumerate(made)]
    return BatchResult(final, stopped, final_theta, traces)


def trajectory_experiment(
    master_seed: int,
    *,
    algo: str = "adam",
    eta: float = 0.1,
    beta1: float = 0.9,
    d: int = 30,
    n: int = 90,
    lambda_max: float = 1.0,
    cond: float = 1e4,
    steps: int = 1500,
    stochastic: bool = True,
) -> list[dict]:
    """One run on a generated problem from a standard normal start, one row
    per step; it samples unless stochastic is false."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    spec = _checked_spec(n, d, lambda_max, cond)
    problem = generate_least_squares(spec, derive_rng(master_seed, 90))
    rng = derive_rng(master_seed, 91)
    theta0 = rng.standard_normal(d)
    trace = run_trajectory(problem, algo, OptimizerConfig(eta=eta, beta1=beta1), steps, theta0,
                           rng if stochastic else None)
    return [{"t": int(t), "loss": loss, "eta_t": eta_t, "grad_norm": grad_norm}
            for t, loss, eta_t, grad_norm
            in zip(trace.t, trace.loss, trace.eta_t, trace.grad_norm)]


# ---------------------------------------------------------------------------
# Theorem-level checks
# ---------------------------------------------------------------------------

def _checked_spec(n: int, d: int, lambda_max: float, cond: float, *,
                  lambda_key: str = "lambda_max", cond_key: str = "cond",
                  axis_aligned: bool = False) -> GenSpec:
    """The checked recipe of an n x d problem whose spectrum runs from
    lambda_max down to lambda_max / cond.  Runners call this on every
    spectrum they will build, before any run; the messages name the runner's
    keys for lambda_max and cond."""
    _check_spectrum(n, lambda_max, cond, lambda_key=lambda_key, cond_key=cond_key)
    if d == 1 and cond != 1:
        raise ValueError(f"d = 1 admits a single eigenvalue; set {cond_key}=1")
    if n < d:
        raise ValueError("n < d forces a singular X.T X; set n >= d")
    spec = GenSpec(n=n, d=d, lambda_max=lambda_max, lambda_min=lambda_max / cond,
                   axis_aligned=axis_aligned)
    spec.validate()
    return spec


def _perturbed_starts(specs: list[GenSpec], master_seed: int,
                      *tags: int) -> tuple[list[QuadraticProblem], np.ndarray]:
    """The problems of a theorem check's specs, and for problem k a start
    PERTURBATION times a standard normal draw of derive_rng(master_seed,
    *tags, k) away from its optimum."""
    problems = [generate_least_squares(spec, derive_rng(master_seed, 0)) for spec in specs]
    return problems, np.array([
        p.theta_star + PERTURBATION * derive_rng(master_seed, *tags, k).standard_normal(p.d)
        for k, p in enumerate(problems)])


def check_sgd_dichotomy(
    master_seed: int,
    *,
    d_values: tuple[int, ...] = (2, 10, 50),
    cond_values: tuple[float, ...] = (10.0, 1e4),
    lambda_max: float = 1.0,
    steps: int = 20_000,
    tol: float = 1e-10,
) -> tuple[list[dict], list[str]]:
    """Deterministic SGD (beta1 = 0) converges below tol at eta = 1.9/lambda_max
    and diverges at eta = 2.1/lambda_max.

    Runs start a small perturbation away from the optimum: the dichotomy is a
    statement about the contraction factor |1 - eta * lambda|, and a desk-scale
    step budget cannot also pay for burning off an O(1) initial error at
    condition number 1e4.
    """
    _check_positive("tol", tol)
    specs = [[_checked_spec(d, d, lambda_max, cond, cond_key="cond_values")
              for cond in cond_values] for d in d_values]
    runs = [(i_c, mult, expect_converge) for i_c in range(len(cond_values))
            for mult, expect_converge in ((1.9, True), (2.1, False))]
    rows: list[dict] = []
    failures: list[str] = []
    for i_d, d in enumerate(d_values):
        problems, theta0 = _perturbed_starts(specs[i_d], master_seed, 1, i_d)
        result = run_batch(problems, theta0, [
            BatchRow(i_c, "sgd", OptimizerConfig(eta=mult / lambda_max, beta1=0.0))
            for i_c, mult, _ in runs], steps)
        for i, (i_c, mult, expect_converge) in enumerate(runs):
            cond, diverged = cond_values[i_c], bool(result.stopped[i])
            final_regret = float(result.final_loss[i])
            converged = (not diverged) and final_regret < tol
            ok = converged if expect_converge else diverged
            rows.append({
                "d": d, "cond": cond, "eta_multiplier": mult,
                "final_regret": final_regret, "diverged": diverged,
                "converged": converged, "ok": ok,
            })
            if not ok:
                failures.append(
                    f"sgd dichotomy violated at d={d} cond={cond} eta={mult}/lambda_max")
    return rows, failures


def check_theorem_convergence_range(
    master_seed: int,
    *,
    d: int = 10,
    cond: float = 1e4,
    eta_multipliers: tuple[float, ...] = (1e-3, 1.0, 1e3),
    lambda_max: float = 1.0,
    steps: int = 50_000,
    tol: float = 1e-8,
) -> tuple[list[dict], list[str]]:
    """AdaSGDMax (beta1 = 0, no decay) on a deterministic quadratic: for every
    eta the run either converges, is still shrinking eta_t at the budget, or
    sits on the measure-zero edge where eta_t pins to 2 / lambda_max.  Also
    asserts eta_t is non-increasing and exactly constant once it first enters
    (0, 2 / lambda_max).

    The start is perturbed along the top eigendirection: after one blow-up
    step the effective rate then lands deterministically near sqrt(2)/lambda_max,
    inside the convergent range, which keeps the constancy assertion free of
    seed-dependent boundary flukes.
    """
    _check_positive("tol", tol)
    spec = _checked_spec(d, d, lambda_max, cond)
    problem = generate_least_squares(spec, derive_rng(master_seed, 0))
    theta0 = problem.theta_star + PERTURBATION * problem.q[0]
    threshold = 2.0 / lambda_max
    traces = run_batch([problem], theta0[None], [
        BatchRow(0, "adasgdmax", OptimizerConfig(eta=mult / lambda_max, beta1=0.0, beta2=BETA2))
        for mult in eta_multipliers], steps, record=True).traces
    rows: list[dict] = []
    failures: list[str] = []
    for mult, trace in zip(eta_multipliers, traces):
        eta_t = trace.eta_t
        monotone = bool(np.all(np.diff(eta_t) <= 0.0))
        reductions = int(np.sum(np.diff(eta_t) < 0.0))
        below = np.nonzero(eta_t < threshold)[0]
        entered = below.size > 0
        constant_after_entry = bool(entered and np.all(eta_t[below[0]:] == eta_t[below[0]]))
        converged = (not trace.diverged) and trace.final_loss < tol
        still_shrinking = eta_t.size >= 2 and eta_t[-1] < eta_t[-2]
        edge_case = (not converged) and abs(eta_t[-1] * lambda_max - 2.0) <= 2e-6
        ok = True
        if not monotone:
            ok = False
            failures.append(f"eta_t not non-increasing at eta={mult}/lambda_max")
        if entered and not constant_after_entry and not edge_case:
            ok = False
            failures.append(f"eta_t not constant after entering range at eta={mult}/lambda_max")
        if not (converged or still_shrinking or edge_case):
            ok = False
            failures.append(f"no convergence at eta={mult}/lambda_max "
                            f"(final regret {trace.final_loss:.3e})")
        rows.append({
            "eta_multiplier": mult, "eta": mult / lambda_max,
            "converged": converged, "final_regret": trace.final_loss,
            "eta_reductions": reductions, "eta_monotone": monotone,
            "eta_constant_after_entry": constant_after_entry,
            "edge_case": edge_case, "ok": ok,
        })
    return rows, failures


def check_distance_bound(
    master_seed: int,
    *,
    d_values: tuple[int, ...] = (2, 20),
    cond_values: tuple[float, ...] = (10.0, 1e3),
    eta_values: tuple[float, ...] = (1e-4, 1e-2, 1.0),
    lambda_max: float = 1.0,
    steps: int = 50_000,
    bound_scale: float = 1.0,
) -> tuple[list[dict], list[str]]:
    """AdaSGD's final distance to the optimum stays within
    sqrt(d) * eta * K / (2 (1 - beta2)) on deterministic quadratics.

    bound_scale < 1 artificially shrinks the bound (self-test mode for the
    failure path).
    """
    _check_positive("bound_scale", bound_scale)
    specs = [[_checked_spec(d, d, lambda_max, cond, cond_key="cond_values")
              for cond in cond_values] for d in d_values]
    runs = list(itertools.product(range(len(cond_values)), eta_values))
    rows: list[dict] = []
    failures: list[str] = []
    for i_d, d in enumerate(d_values):
        problems, theta0 = _perturbed_starts(specs[i_d], master_seed, 3, i_d)
        result = run_batch(problems, theta0, [
            BatchRow(i_c, "adasgd", OptimizerConfig(eta=eta, beta1=0.0, beta2=BETA2))
            for i_c, eta in runs], steps)
        for i, (i_c, eta) in enumerate(runs):
            cond = cond_values[i_c]
            distance = float(np.linalg.norm(result.theta[i] - problems[i_c].theta_star))
            bound = bound_scale * np.sqrt(d) * eta * cond / (2.0 * (1.0 - BETA2))
            ok = (not result.stopped[i]) and distance <= bound
            rows.append({
                "d": d, "cond": cond, "eta": eta,
                "distance": distance, "bound": bound,
                "ratio": distance / bound if bound > 0 else np.inf, "ok": ok,
            })
            if not ok:
                failures.append(
                    f"distance bound violated at d={d} cond={cond} eta={eta}: "
                    f"{distance:.4g} > {bound:.4g}")
    return rows, failures


def _regret_bound(schedule: str, eta: float, d: int, d_inf: float, g_inf: float,
                  t: int, v_hat_t: float, v_hat_1: float) -> float:
    sum_term = 2.0 * np.sqrt(t) - 1.0
    if schedule == "theorem":
        return (d_inf ** 2 * np.sqrt(d * v_hat_t * t) / (2.0 * eta)
                + d ** 1.5 * g_inf ** 2 * eta * sum_term / (2.0 * np.sqrt(v_hat_1)))
    return (d * d_inf * g_inf * np.sqrt(v_hat_t * t) / (2.0 * eta)
            + d * d_inf * g_inf * eta * sum_term / (2.0 * np.sqrt(v_hat_1)))


def _play_online(problems: list, prob: list[int],
                 etas: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Play box-constrained AdaSGDMax with the 1/sqrt(t) decay from the origin
    on every row at once: row b runs at etas[b] on problems[prob[b]], and the
    problems share d and the box.  Returns played, with played[b, t] the point
    row b plays in round t, and v_hat, with v_hat[t, b] row b's v-hat after
    round t's step."""
    t_max, d = problems[0].data.shape
    opt = Optimizer("adasgdmax", d, [OptimizerConfig(eta=e, beta1=0.0, beta2=BETA2,
                                                     regret_decay=True) for e in etas])
    data = np.stack([p.data for p in problems], axis=1)  # (T, P, d)
    tracking = np.array([p.kind == "quadratic-tracking" for p in problems])[prob, None]
    lo, hi = problems[0].box_lo, problems[0].box_hi
    theta = np.zeros((len(etas), d))
    played = np.empty((len(etas), t_max, d))
    v_hat = np.empty((t_max, len(etas)))
    for t in range(t_max):
        played[:, t] = theta
        x = data[t, prob]
        g = np.where(tracking, theta - x, x)
        theta = project_box(opt.update(theta, g), lo, hi)
        v_hat[t] = opt.v_hat[:, 0]
    return played, v_hat


def check_regret_bound(
    master_seed: int,
    *,
    kinds: tuple[str, ...] = ("linear-adversarial", "quadratic-tracking"),
    schedules: tuple[str, ...] = ("theorem", "corollary"),
    t_values: tuple[int, ...] = (100, 1000, 10_000),
    d: int = 4,
    box_halfwidth: float = 1.0,
    g_bound: float = 1.0,
    eta: float = 1.0,
    seeds: int = 5,
) -> tuple[list[dict], list[str]]:
    """Box-constrained AdaSGDMax with the 1/sqrt(t) decay never exceeds its
    regret bound B_T, under both the plain schedule eta / sqrt(t v-hat / d)
    and the D/G-scaled variant eta D_inf / (G_inf sqrt(t v-hat)); B_T / T
    decreases across horizons.

    Every (kind, seed) problem is built and checked first; then all
    kinds x seeds x schedules runs step as one batch, one row per run, for
    max(t_values) rounds.  The scaled schedule is run by rescaling eta (exact
    algebraic identity), so the rows differ only in eta, and each bound is
    evaluated with the v-hat values measured during the run.
    The theorem bounds R_T by an O(sqrt(T)) B_T, so the average regret
    R_T / T <= B_T / T is driven to zero by the falling bound term; R_T / T
    itself need not fall from one horizon to the next (at master seed 201,
    linear-adversarial R_T / T goes 0.1993, 0.0192, 0.0204), so the trend
    check is on B_T / T.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if min(t_values) < 1:
        raise ValueError("t_values must all be >= 1")
    if len(set(t_values)) < len(t_values):
        raise ValueError("t_values must be distinct")
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    if not kinds or not schedules:
        raise ValueError("kinds and schedules must be non-empty")
    if not set(schedules) <= {"theorem", "corollary"}:
        raise ValueError(f"schedules must be among ('theorem', 'corollary'), got {schedules}")
    for kind in kinds:
        if kind not in ONLINE_KINDS:
            raise ValueError(f"unknown online problem kind: {kind!r}")
    t_max = max(t_values)
    checkpoints = sorted(t_values)
    problems = [make_online_problem(kind, t_max, d, box_halfwidth, g_bound,
                                    derive_rng(master_seed, 4, i_k, i_s))
                for i_k, kind in enumerate(kinds) for i_s in range(seeds)]
    runs = [(i_p, schedule) for i_p in range(len(problems)) for schedule in schedules]
    etas = [eta if schedule == "theorem" else
            eta * problems[i_p].diameter_inf / (problems[i_p].grad_bound_inf * np.sqrt(d))
            for i_p, schedule in runs]
    played, v_hat = _play_online(problems, [i_p for i_p, _ in runs], etas)
    rows: list[dict] = []
    failures: list[str] = []
    for b, (i_p, schedule) in enumerate(runs):
        problem = problems[i_p]
        kind, i_s = problem.kind, i_p % seeds
        bound_rates = []
        for t in checkpoints:
            r_t = regret(problem, played[b], horizon=t)
            bound = _regret_bound(schedule, eta, d, problem.diameter_inf,
                                  problem.grad_bound_inf, t, v_hat[t - 1, b], v_hat[0, b])
            ok = r_t <= bound
            rows.append({
                "kind": kind, "schedule": schedule, "seed": i_s, "horizon": t,
                "regret": r_t, "bound": bound,
                "ratio": r_t / bound if bound > 0 else np.inf,
                "regret_per_round": r_t / t, "ok": ok,
            })
            bound_rates.append(float(bound / t))
            if not ok:
                failures.append(
                    f"regret bound violated: {kind}/{schedule} seed={i_s} T={t}: "
                    f"{r_t:.4g} > {bound:.4g}")
        if not all(b_next < b_prev for b_prev, b_next in zip(bound_rates, bound_rates[1:])):
            failures.append(
                f"B_T/T not strictly decreasing: {kind}/{schedule} seed={i_s}: "
                f"{bound_rates}")
    return rows, failures


# ---------------------------------------------------------------------------
# Figure-style sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RosterEntry:
    """One optimizer column of a sweep."""

    label: str
    algo: str
    eta: float
    eta_policy: str = "fixed"   # "fixed" | "inv-lambda-max" (eta / lambda_max)
    beta1: float = 0.9

    def config(self, lambda_max: float) -> OptimizerConfig:
        """The optimizer config of this entry's run on a problem with this lambda_max."""
        if self.eta_policy == "fixed":
            return OptimizerConfig(eta=self.eta, beta1=self.beta1)
        if self.eta_policy == "inv-lambda-max":
            return OptimizerConfig(eta=self.eta / lambda_max, beta1=self.beta1)
        raise ValueError(f"unknown eta policy {self.eta_policy!r}")


HEATMAP_ROSTER = (
    RosterEntry("sgd_fixed", "sgd", 0.01),
    RosterEntry("sgd_inv_lmax", "sgd", 1.0, "inv-lambda-max"),
    RosterEntry("adam", "adam", 0.1),
    RosterEntry("adasgd", "adasgd", 0.01),
)


# Memory budget of one sweep group: each problem's X and y twice (as built,
# and in the batch's stacked (P, n, d) and (P, n) arrays), and each run's
# sample indices twice (as drawn, and in the batch's (steps, B) array).  The
# problems' eigenfactors (d x d), norms and floors and the runs' (B, d)
# optimizer state are not counted.  At the paper-fig3 size (d = 100, n = 300,
# 3000 steps, 4 optimizers) a problem takes about 0.53 MB of it; a desk angle
# problem about 0.05 MB.
GROUP_BYTES = 64 * 2**20


def _map_cells(fn, items: list, workers: int) -> list:
    """fn(item) for every item, in order; across a pool of at most one process
    per item when workers > 1."""
    processes = min(workers, len(items))
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _roster_rows(master_seed: int, problems: list[QuadraticProblem], tags: list[tuple],
                 roster: tuple[RosterEntry, ...], steps: int) -> list[BatchRow]:
    """One stochastic row per (problem, roster entry), problem-major: entry
    i_opt's run on problems[k] samples with derive_rng(master_seed, *tags[k], i_opt)."""
    rows = []
    for k, (problem, run_tags) in enumerate(zip(problems, tags)):
        for i_opt, entry in enumerate(roster):
            indices = derive_rng(master_seed, *run_tags, i_opt).integers(problem.n, size=steps)
            indices = indices.astype(np.min_scalar_type(problem.n - 1))   # held for every run
            rows.append(BatchRow(k, entry.algo, entry.config(problem.lambda_max), indices))
    return rows


def _sweep_group(args: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Build one group of sweep problems and run the whole roster on each as
    one batch; (final regret-in-loss, stopped) per (problem, roster entry)."""
    make, params, master_seed, cells, roster, steps = args
    problems, theta0, tags = zip(*(make(master_seed, cell, **params) for cell in cells))
    result = run_batch(list(problems), np.array(theta0),
                       _roster_rows(master_seed, problems, tags, roster, steps), steps)
    shape = (len(cells), len(roster))
    return result.final_loss.reshape(shape), result.stopped.reshape(shape)


def _sweep(make, params: dict, master_seed: int, cells: list[tuple],
           roster: tuple[RosterEntry, ...], steps: int, workers: int, *, n: int, d: int):
    """Run the roster on the (n x d) problem make(master_seed, cell) of every
    cell, in max(workers, ceil(P / K)) contiguous groups of the P cells, K the
    problems that fit in GROUP_BYTES; (final regret-in-loss, stopped) arrays
    of shape (P, roster)."""
    if not roster:
        raise ValueError("roster must be non-empty")
    if not cells:
        raise ValueError("the sweep grid is empty")
    index_bytes = np.min_scalar_type(n - 1).itemsize
    per_problem = 16 * n * (d + 1) + 2 * index_bytes * len(roster) * steps
    fit = max(1, GROUP_BYTES // per_problem)
    count = min(len(cells), max(workers, math.ceil(len(cells) / fit)))
    bounds = [len(cells) * k // count for k in range(count + 1)]
    parts = _map_cells(_sweep_group, [(make, params, master_seed, cells[a:b], roster, steps)
                                      for a, b in zip(bounds, bounds[1:])], workers)
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _heatmap_problem(master_seed, cell, *, lambda_max_values, cond_values, d, n):
    i_l, i_c, i_seed = cell
    lam_max = lambda_max_values[i_l]
    rng = derive_rng(master_seed, 20, i_l, i_c, i_seed)
    spec = GenSpec(n=n, d=d, lambda_max=lam_max, lambda_min=lam_max / cond_values[i_c])
    problem = generate_least_squares(spec, rng)
    return problem, rng.standard_normal(d), (21, i_l, i_c, i_seed)


def sweep_heatmap(
    master_seed: int,
    *,
    lambda_max_values: tuple[float, ...] = (1.0, 1e2, 1e4, 1e6),
    cond_values: tuple[float, ...] = (1.0, 1e2, 1e4, 1e6),
    seeds: int = 5,
    steps: int = 1500,
    # n = 10 d keeps single-sample momentum-SGD at eta = 1/lambda_max in its
    # stable regime at cond = 1 (the per-sample step ratio scales like 10 d / n).
    d: int = 30,
    n: int = 300,
    roster: tuple[RosterEntry, ...] = HEATMAP_ROSTER,
    workers: int = 1,
) -> list[dict]:
    """Per-(optimizer, lambda_max, cond, seed) final log10 regret-in-loss;
    diverged runs record exactly 50.  Each (lambda_max, cond, seed) problem
    is built once and the whole roster runs on it."""
    for lambda_max, cond in itertools.product(lambda_max_values, cond_values):
        _checked_spec(n, d, lambda_max, cond, lambda_key="lambda_max_values",
                      cond_key="cond_values")
    if seeds < 1 or steps < 1:
        raise ValueError("seeds and steps must be >= 1")
    cells = list(itertools.product(range(len(lambda_max_values)), range(len(cond_values)),
                                   range(seeds)))
    params = {"lambda_max_values": lambda_max_values, "cond_values": cond_values,
              "d": d, "n": n}
    final, stopped = _sweep(_heatmap_problem, params, master_seed, cells, roster, steps, workers,
                            n=n, d=d)
    return [{
        "optimizer": entry.label, "lambda_max": lambda_max_values[i_l],
        "cond": cond_values[i_c], "seed": i_seed,
        "log10_loss": (DIVERGED_LOG10 if stopped[k, i_opt]
                       else float(np.log10(max(final[k, i_opt], LOG10_FLOOR)))),
    } for i_opt, entry in enumerate(roster) for k, (i_l, i_c, i_seed) in enumerate(cells)]


def heatmap_cell_means(records: list[dict]) -> dict[tuple[str, float, float], float]:
    """Mean log10 loss per (optimizer, lambda_max, cond) cell."""
    acc: dict[tuple[str, float, float], list[float]] = {}
    for rec in records:
        key = (rec["optimizer"], rec["lambda_max"], rec["cond"])
        acc.setdefault(key, []).append(rec["log10_loss"])
    return {k: float(np.mean(v)) for k, v in acc.items()}


ANGLE_ROSTER = (
    RosterEntry("sgd", "sgd", 1.0, "inv-lambda-max"),
    RosterEntry("adasgd", "adasgd", 0.0005),
    RosterEntry("adam", "adam", 0.005),
)


def _angle_problem(master_seed, cell, *, cond, lambda_min, n):
    angle, i_seed = cell
    # Common random numbers across angles: the dataset draw, starting point,
    # and sampling stream all depend only on the seed (the rotation consumes no
    # randomness), so varying the angle changes nothing but the eigenbasis and
    # cross-angle comparisons are fully paired.
    rng = derive_rng(master_seed, 10, i_seed)
    problem = make_rotated_2d(cond, lambda_min, angle, rng, n=n)
    return problem, rng.standard_normal(2), (11, i_seed)


def sweep_angle(
    master_seed: int,
    *,
    angles: tuple[float, ...] = tuple(float(a) for a in range(0, 50, 5)),
    cond: float = 1e4,
    lambda_min: float = 1.0,
    seeds: int = 30,
    steps: int = 3000,
    n: int = 300,
    roster: tuple[RosterEntry, ...] = ANGLE_ROSTER,
    workers: int = 1,
) -> list[dict]:
    """Final regret-in-loss of each optimizer on rotated 2-d problems, one row
    per (optimizer, angle, seed); each (angle, seed) pair shares its dataset
    and starting point across the roster."""
    if seeds < 1 or steps < 1:
        raise ValueError("seeds and steps must be >= 1")
    # The spectrum is (cond * lambda_min, lambda_min): _check_spectrum's
    # conditions, in the keys this sweep takes.
    if not 1 <= cond < np.inf:
        raise ValueError("cond must be finite and >= 1")
    if not (lambda_min >= sys.float_info.min and n * (cond * lambda_min) < np.inf):
        raise ValueError("lambda_min must be a normal float and n * cond * lambda_min finite")
    cells = [(angle, i_seed) for angle in angles for i_seed in range(seeds)]
    params = {"cond": cond, "lambda_min": lambda_min, "n": n}
    final, _ = _sweep(_angle_problem, params, master_seed, cells, roster, steps, workers,
                      n=n, d=2)
    return [{"optimizer": entry.label, "angle_deg": angle, "seed": i_seed,
             "regret_in_loss": float(final[k, i_opt])}
            for k, (angle, i_seed) in enumerate(cells) for i_opt, entry in enumerate(roster)]


def angle_means(records: list[dict]) -> dict[tuple[str, float], float]:
    acc: dict[tuple[str, float], list[float]] = {}
    for rec in records:
        acc.setdefault((rec["optimizer"], rec["angle_deg"]), []).append(rec["regret_in_loss"])
    return {k: float(np.mean(v)) for k, v in acc.items()}


# ---------------------------------------------------------------------------
# Alignment angles
# ---------------------------------------------------------------------------

def alignment_angle(v: np.ndarray) -> float:
    """Angle (degrees) between a unit vector and its nearest coordinate axis:
    arccos of the largest absolute coordinate."""
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"expected a unit vector, got norm {norm!r}")
    return float(np.degrees(np.arccos(min(float(np.max(np.abs(v))), 1.0))))


def exact_alignment_fraction(d: int, threshold_deg: float) -> float:
    """P(alignment angle < threshold) for a uniform unit vector: the largest
    |coordinate| exceeds cos(threshold).  For thresholds below 45 degrees at
    most one coordinate can exceed the cutoff, so the union is exact:
    d * P(v_1^2 > cos^2), with v_1^2 ~ Beta(1/2, (d-1)/2)."""
    if d < 2:
        raise ValueError("need d >= 2")
    if not 0.0 < threshold_deg < 45.0:
        raise ValueError("threshold must lie in (0, 45) degrees")
    from scipy.special import betaincc  # imported here: only align-mc needs it

    c2 = float(np.cos(np.radians(threshold_deg))) ** 2
    return float(d * betaincc(0.5, (d - 1) / 2.0, c2))


def alignment_monte_carlo(
    dims: tuple[int, ...],
    samples_per_dim: int,
    rng: np.random.Generator,
    *,
    threshold_deg: float,
) -> list[dict]:
    """Sample Haar-orthogonal matrices and summarize the alignment angles of
    their rows: empirical median, empirical fraction below the threshold, and
    the exact fraction (the empirical one is identically zero at any feasible
    sample count once d reaches a few dozen)."""
    if samples_per_dim < 1:
        raise ValueError("samples_per_dim must be >= 1")
    if any(d < 2 for d in dims):
        raise ValueError("dims must be >= 2")
    # Computed first, so a bad threshold fails before any sampling.
    exact = [exact_alignment_fraction(d, threshold_deg) for d in dims]
    rows: list[dict] = []
    for d, exact_frac in zip(dims, exact):
        n_matrices = math.ceil(samples_per_dim / d)
        angles = np.empty(n_matrices * d)
        for i in range(n_matrices):
            q = haar_orthogonal(d, rng)
            max_abs = np.clip(np.max(np.abs(q), axis=1), -1.0, 1.0)
            angles[i * d:(i + 1) * d] = np.degrees(np.arccos(max_abs))
        rows.append({
            "d": d,
            "rows_sampled": angles.size,
            "median_angle_deg": float(np.median(angles)),
            "frac_below_threshold": float(np.mean(angles < threshold_deg)),
            "exact_frac_below_threshold": exact_frac,
        })
    return rows


def alignment_experiment(
    master_seed: int,
    *,
    dims: tuple[int, ...] = (2, 10, 50, 200),
    samples_per_dim: int = 10_000,
    threshold_deg: float = 15.0,
) -> list[dict]:
    """alignment_monte_carlo on the stream derived from the master seed."""
    return alignment_monte_carlo(dims, samples_per_dim, derive_rng(master_seed, 80),
                                 threshold_deg=threshold_deg)


# ---------------------------------------------------------------------------
# Implicit regularization experiments
# ---------------------------------------------------------------------------

MINNORM_ROSTER = (
    RosterEntry("sgd", "sgd", 1.0, "inv-lambda-max"),
    RosterEntry("adasgd", "adasgd", 0.01),
    RosterEntry("adam", "adam", 0.01),
)


def minnorm_experiment(
    master_seed: int,
    *,
    n: int = 40,
    d: int = 2,
    lambda_max: float = 10.0,
    steps: int = 1500,
) -> list[dict]:
    """Start at 0 (inside the row space) on a rank-deficient problem and track
    each optimizer's component outside the row space plus its distance to the
    minimum-norm solution."""
    if d < 2:
        raise ValueError("d must be >= 2: the problem needs a positive and a zero eigenvalue")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    spec = GenSpec(n=n, d=d, lambda_max=lambda_max, lambda_min=0.0)
    problem = generate_least_squares(spec, derive_rng(master_seed, 40))
    null_rows = problem.q[problem.lam <= RANK_CUTOFF * problem.lambda_max]
    target = min_norm_solution(problem)
    traces = run_batch([problem], np.zeros((1, d)),
                       _roster_rows(master_seed, [problem], [(41,)], MINNORM_ROSTER, steps),
                       steps, snapshot_stride=1).traces
    rows: list[dict] = []
    for entry, trace in zip(MINNORM_ROSTER, traces):
        null_norms = np.linalg.norm(trace.snapshots @ null_rows.T, axis=1)
        rows.append({
            "optimizer": entry.label,
            "max_null_component": float(null_norms.max()),
            "final_null_component": float(null_norms[-1]),
            "distance_to_min_norm": float(np.linalg.norm(trace.final_theta - target)),
        })
    return rows


# The route comparison runs without momentum: the decaying-sum buffer launches
# every optimizer off the path origin with a 1/(1-beta1) amplified excursion,
# obscuring the update-direction geometry the experiment is about.
RIDGE_ROSTER = (
    RosterEntry("sgd", "sgd", 0.003, "inv-lambda-max", 0.0),
    RosterEntry("adam", "adam", 0.01, "fixed", 0.0),
)


def ridge_path_experiment(
    master_seed: int,
    *,
    pool_n: int = 300,
    train_n: int = 10,
    d: int = 2,
    lambda_min: float = 1.0,
    lambda_max: float = 10.0,
    seeds: int = 50,
    steps: int = 1500,
    snapshot_stride: int = 10,
    recursion_steps: int = 200,
) -> tuple[list[dict], list[dict]]:
    """Optimize random train_n-point subsamples of a generated pool from
    theta0 = 0 and measure how far each trajectory strays from the L2
    regularization path of its training problem (mean distance from each
    snapshot to the nearest ridge solution over the alpha grid).

    Also returns the per-step residual of the deterministic error recursion
    Q(theta_{t+1} - theta*) = (I - eta_t Lambda) Q(theta_t - theta*) for SGD
    and AdaSGD with beta1 = 0, which is exact algebra and must hold to float
    precision; it runs first, and a singular training subsample for it is a
    usage error.
    """
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    if not d <= train_n <= pool_n:
        raise ValueError("need d <= train_n <= pool_n")
    if not 1 <= snapshot_stride <= steps:
        raise ValueError("need 1 <= snapshot_stride <= steps")
    if recursion_steps < 1:
        raise ValueError("recursion_steps must be >= 1")
    if not (sys.float_info.min <= lambda_min <= lambda_max and pool_n * lambda_max < np.inf):
        raise ValueError("need 0 < lambda_min <= lambda_max, lambda_min a normal float "
                         "and pool_n * lambda_max finite")
    spec = GenSpec(n=pool_n, d=d, lambda_max=lambda_max, lambda_min=lambda_min)
    recursion_rows = _ridge_recursion_check(
        _ridge_train(spec, train_n, derive_rng(master_seed, 52)), recursion_steps)
    # Built here, not at import: numpy's first geomspace call costs about
    # 0.4 MB of resident memory, which every other subcommand would pay.
    alphas = np.concatenate([[0.0], np.geomspace(1e-4, 1e6, 60)])
    trains = [(i_seed, _ridge_train(spec, train_n, derive_rng(master_seed, 50, i_seed)))
              for i_seed in range(seeds)]
    # Degenerate subsamples are skipped; d << train_n makes them vanishingly rare.
    trains = [(i_seed, train) for i_seed, train in trains if train.theta_star is not None]
    if not trains:
        return [], recursion_rows
    problems = [train for _, train in trains]
    traces = run_batch(problems, np.zeros((len(problems), d)),
                       _roster_rows(master_seed, problems, [(51, i_seed) for i_seed, _ in trains],
                                    RIDGE_ROSTER, steps),
                       steps, snapshot_stride=snapshot_stride).traces
    rows: list[dict] = []
    for k, (i_seed, train) in enumerate(trains):
        path = np.stack([ridge_solution(train, a) for a in alphas])
        for i_opt, entry in enumerate(RIDGE_ROSTER):
            snaps = traces[k * len(RIDGE_ROSTER) + i_opt].snapshots[1:]  # theta0 is on every path
            dists = np.linalg.norm(snaps[:, None, :] - path[None, :, :], axis=2)
            rows.append({
                "optimizer": entry.label, "seed": i_seed,
                "path_discrepancy": float(dists.min(axis=1).mean()),
            })
    return rows, recursion_rows


def _ridge_train(spec: GenSpec, train_n: int, rng: np.random.Generator) -> QuadraticProblem:
    """A train_n-point subsample, drawn without replacement, of a pool generated from spec."""
    pool = generate_least_squares(spec, rng)
    idx = rng.choice(spec.n, size=train_n, replace=False)
    return problem_from_data(pool.x[idx], pool.y[idx])


def _ridge_recursion_check(train: QuadraticProblem, steps: int) -> list[dict]:
    if train.theta_star is None:
        raise ValueError("the recursion check's training subsample is singular; "
                         "lower lambda_max / lambda_min")
    algos = ("sgd", "adasgd")
    config = OptimizerConfig(eta=1e-3 / train.lambda_max, beta1=0.0)
    traces = run_batch([train], np.zeros((1, train.d)),
                       [BatchRow(0, algo, config) for algo in algos], steps,
                       record=True, snapshot_stride=1).traces
    rows = []
    for algo, trace in zip(algos, traces):
        err = (trace.snapshots - train.theta_star) @ train.q.T  # rows: Q e_t
        residuals = []
        for t in range(len(trace.t)):
            predicted = (1.0 - trace.eta_t[t] * train.lam) * err[t]
            residuals.append(float(np.max(np.abs(err[t + 1] - predicted))))
        rows.append({"optimizer": algo, "max_recursion_residual": float(max(residuals))})
    return rows


def mean_path_discrepancy(rows: list[dict]) -> dict[str, float]:
    acc: dict[str, list[float]] = {}
    for rec in rows:
        acc.setdefault(rec["optimizer"], []).append(rec["path_discrepancy"])
    return {k: float(np.mean(v)) for k, v in acc.items()}


# ---------------------------------------------------------------------------
# Stability under data swaps
# ---------------------------------------------------------------------------

@dataclass
class StabilityReport:
    """Per-eigendirection change of the exact solution under single-point swaps."""

    eigenvalues: np.ndarray
    mean_abs_change: np.ndarray
    mean_loss_change: np.ndarray
    swaps: int


def swap_change(
    x: np.ndarray,
    y: np.ndarray,
    i: int,
    new_row: np.ndarray,
    new_y: float,
    q: np.ndarray,
    lam: np.ndarray,
    theta: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Change of the exact solution when row i is replaced, expressed in the
    eigenbasis of the ORIGINAL X.T X: (|Q (theta - theta_swapped)|,
    lambda_j * (Q (theta_swapped - theta))_j^2)."""
    x_swap = x.copy()
    y_swap = y.copy()
    x_swap[i] = new_row
    y_swap[i] = new_y
    theta_swap = lstsq_min_norm(x_swap, y_swap)
    diff = q @ (theta - theta_swap)
    return np.abs(diff), lam * diff ** 2


def stability_swap(
    n: int,
    d: int,
    swaps: int,
    rng: np.random.Generator,
    *,
    lambda_max: float,
    cond: float,
    rank: int | None = None,
) -> StabilityReport:
    """Swap single data points of a synthetic Gaussian-spectrum pool and
    average the per-eigendirection change of the exact (minimum-norm when
    singular) solution.

    Rows are iid N(0, Q.T diag(row_spectrum) Q) with a log-spaced spectrum.
    With rank r < d the trailing spectrum entries are exactly zero and the
    basis is axis-aligned, so zero-eigenvalue directions carry exactly zero
    change by construction.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    if rank is not None and not 1 <= rank < d:
        raise ValueError("rank must lie in [1, d)")
    if swaps < 1:
        raise ValueError("swaps must be >= 1")
    _check_spectrum(n, lambda_max, cond)
    r = rank if rank is not None else d
    row_spectrum = np.zeros(d)
    row_spectrum[:r] = np.geomspace(lambda_max, lambda_max / cond, r)
    if rank is None:
        q_gen = haar_orthogonal(d, rng)
    else:
        q_gen = np.eye(d)  # axis-aligned null directions stay exact
    z = rng.standard_normal((n + swaps, d))
    x_all = (z * np.sqrt(row_spectrum)) @ q_gen
    y_all = rng.normal(0.0, GenSpec.y_std, size=n + swaps)
    x, y = x_all[:n], y_all[:n]
    q, lam = sym_eigh(x.T @ x)
    theta = lstsq_min_norm(x, y, eig=(q, lam))
    abs_sum = np.zeros(d)
    loss_sum = np.zeros(d)
    for k in range(swaps):
        i = int(rng.integers(n))
        abs_change, loss_change = swap_change(x, y, i, x_all[n + k], y_all[n + k],
                                              q, lam, theta)
        abs_sum += abs_change
        loss_sum += loss_change
    return StabilityReport(
        eigenvalues=lam,
        mean_abs_change=abs_sum / swaps,
        mean_loss_change=loss_sum / swaps,
        swaps=swaps,
    )


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, each run of tied values sharing its mean rank.  The
    ranks are exact halves, so they equal SciPy's average-method rankdata bit
    for bit."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def stability_spearman(report: StabilityReport) -> float:
    """Spearman rank correlation between eigenvalues and mean solution change
    (negative when small-eigenvalue directions change most): the Pearson
    correlation of average ranks, computed as SciPy's spearmanr does.  NaN,
    without a warning, when either input is constant (as one entry is) or
    holds a NaN."""
    a = np.asarray(report.eigenvalues, dtype=float)
    b = np.asarray(report.mean_abs_change, dtype=float)
    if np.isnan(a).any() or np.isnan(b).any() or (a == a[0]).all() or (b == b[0]).all():
        return float("nan")
    ranks = np.column_stack((_average_ranks(a), _average_ranks(b)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def stability_experiment(
    master_seed: int,
    *,
    n: int = 500,
    d: int = 50,
    swaps: int = 10,
    seeds: int = 5,
    lambda_max: float = 100.0,
    cond: float = 1e4,
    degenerate_n: int = 30,
    degenerate_d: int = 50,
    degenerate_rank: int = 25,
) -> tuple[list[dict], list[dict]]:
    """stability_swap on an invertible and a rank-deficient (degenerate) pool
    per seed: one row per (variant, seed, eigendirection), and the Spearman
    correlation per (variant, seed)."""
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    if degenerate_n < 1 or not 1 <= degenerate_rank < degenerate_d:
        raise ValueError("need degenerate_n >= 1 and 1 <= degenerate_rank < degenerate_d")
    _check_spectrum(max(n, degenerate_n), lambda_max, cond)
    detail: list[dict] = []
    summary: list[dict] = []
    for variant, tag, n_v, d_v, rank in (("invertible", 70, n, d, None),
                                         ("degenerate", 71, degenerate_n, degenerate_d,
                                          degenerate_rank)):
        for s in range(seeds):
            report = stability_swap(n_v, d_v, swaps, derive_rng(master_seed, tag, s),
                                    lambda_max=lambda_max, cond=cond, rank=rank)
            detail += [{"variant": variant, "seed": s, "eig_index": j, "eigenvalue": lam,
                        "mean_abs_change": change, "mean_loss_change": loss}
                       for j, (lam, change, loss) in enumerate(zip(
                           report.eigenvalues, report.mean_abs_change, report.mean_loss_change))]
            summary.append({"variant": variant, "seed": s,
                            "spearman": stability_spearman(report)})
    return detail, summary


# ---------------------------------------------------------------------------
# Eigendirection dependence
# ---------------------------------------------------------------------------

def dependence_ratio(trace: Trace, q: np.ndarray, lam: np.ndarray, k: int = 10) -> float:
    """Mean over iterations of ||P (theta_{t+1} - theta_t)|| / ||theta_{t+1} - theta_t||
    with P the projection onto the eigenvectors of the k largest |eigenvalues|;
    zero-length steps are skipped.  Needs stride-1 snapshots."""
    if trace.snapshots is None or len(trace.snapshots) < 2:
        raise ValueError("need at least two snapshots at stride 1")
    if k > q.shape[0]:
        raise ValueError("k exceeds the dimension")
    top = np.argsort(-np.abs(lam), kind="stable")[:k]
    p_rows = q[top]
    diffs = np.diff(trace.snapshots, axis=0)
    norms = np.linalg.norm(diffs, axis=1)
    keep = norms > 0
    if not np.any(keep):
        raise ValueError("every step has zero length")
    proj = np.linalg.norm(diffs[keep] @ p_rows.T, axis=1)
    return float(np.mean(proj / norms[keep]))


DEPENDENCE_ROSTER = (
    RosterEntry("sgd", "sgd", 1.0, "inv-lambda-max"),
    RosterEntry("adasgd", "adasgd", 0.01),
    RosterEntry("adam", "adam", 0.1),
)


def dependence_experiment(
    master_seed: int,
    *,
    d: int = 100,
    cond: float = 1e4,
    lambda_max: float = 1e4,
    n: int = 300,
    seeds: int = 3,
    steps: int = 400,
    k: int = 10,
) -> list[dict]:
    """Top-k eigenspace fraction of each optimizer's updates on stochastic
    ill-conditioned quadratics.

    The quadratics are axis-aligned: per-coordinate adaptation only interacts
    with curvature when the eigenbasis has structure in the coordinate system
    (with a generic rotation the per-coordinate gradient variances are nearly
    uniform and every optimizer projects identically).
    """
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    spec = _checked_spec(n, d, lambda_max, cond, axis_aligned=True)
    problems, theta0 = [], []
    for i_seed in range(seeds):
        rng_problem = derive_rng(master_seed, 60, i_seed)
        problems.append(generate_least_squares(spec, rng_problem))
        theta0.append(rng_problem.standard_normal(d))
    tags = [(61, i_seed) for i_seed in range(seeds)]
    traces = run_batch(problems, np.array(theta0),
                       _roster_rows(master_seed, problems, tags, DEPENDENCE_ROSTER, steps),
                       steps, snapshot_stride=1).traces
    return [{"optimizer": entry.label, "seed": i_seed,
             "ratio": dependence_ratio(traces[i_seed * len(DEPENDENCE_ROSTER) + i_opt],
                                       problems[i_seed].q, problems[i_seed].lam, k)}
            for i_seed in range(seeds) for i_opt, entry in enumerate(DEPENDENCE_ROSTER)]
