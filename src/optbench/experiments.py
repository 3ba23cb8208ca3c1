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
from dataclasses import dataclass, replace

import numpy as np
import numpy.random  # numpy loads it lazily; load it with the package, not in the first run

from .linalg import haar_orthogonal, project_box, set_blas_threads, sym_eigh
from .optim import ALGORITHMS, Optimizer, OptimizerConfig
from .problems import (
    ONLINE_KINDS,
    RANK_CUTOFF,
    ZERO_SPECTRUM_FLOOR,
    GenSpec,
    QuadraticProblem,
    generate_least_squares,
    lstsq_min_norm,
    make_online_problem,
    min_norm_solution,
    problem_from_data,
    regret,
    ridge_solution,
)

# Divergence is reported as log10 loss = 50.
LOSS_CAP = 1e50
# A run gets its loss computed, exactly, only when its bound
# 0.5 (||X||_F ||theta|| + ||y||)^2 may reach this, tested as a limit on
# theta . theta (see _screen_limits); the margin below LOSS_CAP covers the
# rounding, so a bound under it proves the loss under the cap.
SCREEN_CAP = LOSS_CAP / 2
# Sampled rows gather their data rows this many steps at a time.
CHUNK_STEPS = 16
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
    steps in snapshots (None without a stride).  loss and final_loss are the
    regret-in-loss 0.5 ||X (theta - theta*)||^2, or the raw loss
    0.5 ||X theta - y||^2 when the problem has no unique optimum; LOSS_CAP
    once the run stops."""

    t: np.ndarray
    loss: np.ndarray | None
    eta_t: np.ndarray | None
    grad_norm: np.ndarray | None
    snapshots: np.ndarray | None
    diverged: bool
    final_theta: np.ndarray
    final_loss: float


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


def _regret(x: np.ndarray, theta: np.ndarray, centre: np.ndarray,
            offset: np.ndarray) -> np.ndarray:
    """0.5 ||X (theta - centre) - offset||^2 for each row of the (B, d) theta;
    X is the (n, d) x, or x[i] for row i of a (B, n, d) x.  With centre
    theta* and offset 0 this is the regret-in-loss f(theta) - f(theta*),
    exact because X.T (X theta* - y) = 0; with centre 0 and offset y it is
    the raw loss."""
    u = (x @ (theta - centre)[:, :, None])[:, :, 0] - offset
    return 0.5 * np.vecdot(u, u)


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
    0.5 ||X (theta - theta*)||^2, or the raw loss when the problem has no
    unique optimum (LOSS_CAP for a stopped row), the stopped flag, the final
    parameters (a stopped row's where it stopped) and, when the batch
    recorded or took snapshots, its Trace."""

    final_loss: np.ndarray
    stopped: np.ndarray
    theta: np.ndarray
    traces: list[Trace] | None


def _parts(opts: list[Optimizer]) -> list[tuple[Optimizer, slice]]:
    """Each optimizer that still has rows, with the slice of the live rows it steps."""
    ends = itertools.accumulate(len(opt.eta) for opt in opts)
    return [(opt, slice(end - len(opt.eta), end)) for opt, end in zip(opts, ends) if len(opt.eta)]


def _screen_limits(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The screen's limit on theta . theta for each problem of the stacked
    (P, n, d) xs and (P, n) ys: lim = ((sqrt(2 SCREEN_CAP) - ||y||) / ||X||_F)^2.
    theta . theta < lim gives ||X||_F ||theta|| + ||y|| < sqrt(2 SCREEN_CAP),
    so the loss 0.5 ||X theta - y||^2 <= 0.5 (||X||_F ||theta|| + ||y||)^2 is
    under SCREEN_CAP; the factor 2 left below LOSS_CAP covers the rounding of
    lim, of theta . theta and of the loss.  A NaN or negative root makes lim 0,
    and a NaN norm makes it NaN: no theta passes either, so every step of the
    problem's rows gets the exact loss."""
    with np.errstate(all="ignore"):
        root = np.sqrt(2 * SCREEN_CAP) - np.linalg.norm(ys, axis=1)
        return np.where(root > 0, (root / np.linalg.norm(xs, axis=(1, 2))) ** 2, 0.0)


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
    only in eta step as one Optimizer, which updates its slice of the (B, d)
    parameters in place; rows of a problem share its data.  Sampled rows
    gather their x_i and y_i CHUNK_STEPS steps at a time, with one index.

    One predicate decides every stop: a row stops, and leaves the work,
    after the step whose theta . theta is not under its problem's limit (see
    _screen_limits) and whose exact full_loss is not under LOSS_CAP; its final
    parameters are the ones that step produced.  Each step tests all rows at
    once (every theta . theta under its limit), and only the rows that fail
    get their loss, one stacked _regret per problem that rounds as full_loss
    does on each row.  This stops a run exactly when its gradient, its
    parameters or its loss first goes bad: every rule adds g into m and
    subtracts rate * m, with a rate >= 0 or non-finite, so a non-finite g
    leaves theta non-finite in the same step (0 * inf is NaN); a non-finite
    theta fails the limit and has a non-finite loss; and a theta under its
    limit has its loss under the cap.

    What a row reports is its regret-in-loss 0.5 ||X (theta - theta*)||^2, or
    its raw loss when its problem has no unique optimum (see _regret): every
    live row's final loss, formed once at the end problem by problem, and
    with record its per-step loss (LOSS_CAP at the step that stops it) in
    its Trace, beside eta_t and the gradient norm.  With snapshot_stride
    >= 1 the Trace holds theta0 and the parameters every snapshot_stride
    steps.  Without either, nothing is kept per step.
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
    xs = np.stack([p.x for p in problems])
    ys = np.stack([p.y for p in problems])
    # _regret's centre and offset: (theta*, 0), or (0, y) without an optimum
    centres = np.stack([np.zeros(d) if p.theta_star is None else p.theta_star for p in problems])
    offsets = np.stack([p.y if p.theta_star is None else np.zeros(n) for p in problems])
    blocks: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        blocks.setdefault((row.algo, replace(row.config, eta=1.0)), []).append(i)
    opts = [Optimizer(rows[m[0]].algo, d, [rows[i].config for i in m]) for m in blocks.values()]
    parts = _parts(opts)
    ids = np.array([i for m in blocks.values() for i in m])   # the row of each live run
    pid = np.array([rows[i].problem for i in ids])
    theta = np.asarray(theta0, dtype=float)[pid]
    lim = _screen_limits(xs, ys)[pid]
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
    if gathered := samples is None or record:   # each live row's data, for X.T r or _regret
        x, y, centre, offset = xs[pid], ys[pid], centres[pid], offsets[pid]
    with np.errstate(all="ignore"):   # a non-finite theta fails the screen and stops its run
        for t in range(steps):
            if samples is None:   # X.T (X theta - y)
                r = (x @ theta[:, :, None])[:, :, 0] - y
                g = (np.swapaxes(x, 1, 2) @ r[:, :, None])[:, :, 0]
            else:   # sample_gradient's n * x_i (x_i . theta - y_i), in its rounding
                if (j := t % CHUNK_STEPS) == 0:
                    idx = samples[t:t + CHUNK_STEPS, ids]
                    xc, yc = xs[pid, idx], ys[pid, idx]   # (chunk, rows, d), (chunk, rows)
                    nxc = n * xc
                g = nxc[j] * (np.vecdot(xc[j], theta) - yc[j])[:, None] * inv_n
            for opt, part in parts:
                opt.update(theta[part], g[part])
            norm2 = np.vecdot(theta, theta)
            if not (clear := (norm2 < lim).all()):   # the raw loss of the rows over their limit
                stop = ~(norm2 < lim)
                for p in set(pid[stop].tolist()):   # one stacked loss per problem, as full_loss
                    over = stop & (pid == p)
                    stop[over] = ~(_regret(xs[p], theta[over], 0.0, ys[p]) < LOSS_CAP)
            if record:
                regret = _regret(x, theta, centre, offset)
                if not clear:
                    regret[stop] = LOSS_CAP
                grad_norm = np.sqrt(np.vecdot(g, g))
                history[:, t, ids] = (
                    regret, np.concatenate([opt.last_eta_t[:, 0] for opt in opts]),
                    np.where(np.isnan(grad_norm), np.inf, grad_norm))
            if snapshot_stride and (t + 1) % snapshot_stride == 0:
                snaps[(t + 1) // snapshot_stride, ids] = theta
            if not clear and stop.any():
                made[ids[stop]] = t + 1
                final_theta[ids[stop]] = theta[stop]
                keep = ~stop
                for opt, part in parts:
                    opt.select(keep[part])
                parts = _parts(opts)
                ids, pid, theta, lim = ids[keep], pid[keep], theta[keep], lim[keep]
                if gathered:
                    x, y, centre, offset = x[keep], y[keep], centre[keep], offset[keep]
                if samples is not None:
                    xc, yc, nxc = xc[:, keep], yc[:, keep], nxc[:, keep]
                if not ids.size:
                    break
    for p in set(pid.tolist()):   # one problem's X at a time, never a (B, n, d) gather
        live = pid == p
        final[ids[live]] = _regret(xs[p], theta[live], centres[p], offsets[p])
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
            final_loss=float(final[i]),
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
    algos = [a for a in ALGORITHMS if a != "adabound"]   # adabound needs keys trajectory lacks
    if algo not in algos:
        raise ValueError(f"algo must be one of {', '.join(algos)}")
    config = OptimizerConfig(eta=eta, beta1=beta1)
    Optimizer(algo, d, config)   # checks the config before the problem is drawn
    spec = _checked_spec(n, d, lambda_max, cond)
    problem = generate_least_squares(spec, derive_rng(master_seed, 90))
    rng = derive_rng(master_seed, 91)
    theta0 = rng.standard_normal(d)
    trace = run_trajectory(problem, algo, config, steps, theta0, rng if stochastic else None)
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
    for mult in eta_multipliers:
        _check_positive("eta_multipliers", mult / lambda_max)
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
    for eta in eta_values:
        _check_positive("eta_values", eta)
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
    round t's step.

    The box is fixed for the run, so project_box checks it once, on the start
    point; each round then clamps with the expression project_box returns."""
    t_max, d = problems[0].data.shape
    opt = Optimizer("adasgdmax", d, [OptimizerConfig(eta=e, beta1=0.0, beta2=BETA2,
                                                     regret_decay=True) for e in etas])
    data = np.stack([p.data for p in problems], axis=1)  # (T, P, d)
    prob = np.asarray(prob)
    tracking = np.array([p.kind == "quadratic-tracking" for p in problems])[prob, None]
    lo, hi = problems[0].box_lo, problems[0].box_hi
    theta = project_box(np.zeros((len(etas), d)), lo, hi)
    played = np.empty((len(etas), t_max, d))
    v_hat = np.empty((t_max, len(etas)))
    for t in range(t_max):
        played[:, t] = theta
        x = data[t].take(prob, axis=0)
        g = np.where(tracking, theta - x, x)
        theta = np.minimum(np.maximum(opt.update(theta, g), lo), hi)
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
# and in the batch's stacked (P, n, d) and (P, n) arrays), each run's sample
# indices twice (as drawn, and in the batch's (steps, B) array), and each
# run's gathered chunk (CHUNK_STEPS sampled rows x_i and n x_i, and their
# y_i).  The problems' eigenfactors (d x d), screen limits, optima and regret
# offsets (an n-vector each) and the runs' (B, d) optimizer state are not
# counted.  At the paper-fig3 size (d = 100, n = 300, 3000 steps, 4
# optimizers) a problem takes about 0.64 MB of it; a desk angle problem about
# 0.05 MB.
GROUP_BYTES = 64 * 2**20


def _map_cells(fn, items: list, workers: int) -> list:
    """fn(item) for every item, in order; across a pool of at most one process
    per item when workers > 1.

    These processes are the only parallelism: each runs numpy's BLAS on one
    thread (cli.main sets the caller's, the pool's initializer each
    worker's, whatever the start method).  The problems are small
    (d <= 100), so a BLAS thread pool does no useful work on them, yet after
    each threaded call (a Haar QR, an eigh, a product) OpenBLAS's idle
    worker busy-waits for about 135 ms, and each worker process would spin
    a pool of its own.  Setting one thread also stops the idle workers, in
    the caller and in each pool process (an idle BLAS worker left running
    burned 0.063 s of CPU in a 200 ms sleep; a stopped one, none), and
    OpenBLAS restarts them only for a call that needs more than one thread.
    On 2 cores at the default BLAS setting, heatmap --preset paper-fig3
    --seed 0 took 12.8 s at --workers 1 and 21 to 66 s at --workers 2 with a
    BLAS pool per process; with one thread each, 10.1 s and 5.2 to 5.5 s."""
    processes = min(workers, len(items))
    if processes > 1:
        # imported here: it loads multiprocessing, which a one-worker call never uses
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=processes, initializer=set_blas_threads,
                                 initargs=(1,)) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _draw(master_seed: int, specs: list[GenSpec],
          tags: list[tuple]) -> tuple[list[QuadraticProblem], np.ndarray]:
    """The problems of specs and their starts: problem k, then its standard
    normal start, drawn from derive_rng(master_seed, *tags[k])."""
    problems, theta0 = [], []
    for spec, problem_tags in zip(specs, tags):
        rng = derive_rng(master_seed, *problem_tags)
        problems.append(generate_least_squares(spec, rng))
        theta0.append(rng.standard_normal(spec.d))
    return problems, np.array(theta0)


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
    """Draw one group of sweep problems and run the whole roster on each as
    one batch; (final regret-in-loss, stopped) per (problem, roster entry)."""
    master_seed, cells, roster, steps = args
    specs, problem_tags, run_tags = zip(*cells)
    problems, theta0 = _draw(master_seed, specs, problem_tags)
    result = run_batch(problems, theta0,
                       _roster_rows(master_seed, problems, run_tags, roster, steps), steps)
    shape = (len(cells), len(roster))
    return result.final_loss.reshape(shape), result.stopped.reshape(shape)


def _sweep(master_seed: int, cells: list[tuple], roster: tuple[RosterEntry, ...],
           steps: int, workers: int) -> tuple[np.ndarray, np.ndarray]:
    """Run the roster on the problem of every cell (spec, problem_tags,
    run_tags): _draw draws the problem and its start from problem_tags, and
    entry i_opt samples from run_tags (see _roster_rows).  The caller has
    checked every spec, and all share the first one's n and d.  The P cells
    run in max(workers, ceil(P / K)) contiguous groups, K the problems that
    fit in GROUP_BYTES; (final regret-in-loss, stopped) arrays of shape
    (P, roster)."""
    if not cells:
        raise ValueError("the sweep grid is empty")
    n, d = cells[0][0].n, cells[0][0].d
    index_bytes = np.min_scalar_type(n - 1).itemsize
    per_run = 2 * index_bytes * steps + 8 * CHUNK_STEPS * (2 * d + 1)
    per_problem = 16 * n * (d + 1) + per_run * len(roster)
    fit = max(1, GROUP_BYTES // per_problem)
    count = min(len(cells), max(workers, math.ceil(len(cells) / fit)))
    bounds = [len(cells) * k // count for k in range(count + 1)]
    parts = _map_cells(_sweep_group, [(master_seed, cells[a:b], roster, steps)
                                      for a, b in zip(bounds, bounds[1:])], workers)
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


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
    workers: int = 1,
) -> list[dict]:
    """Per-(optimizer, lambda_max, cond, seed) final log10 regret-in-loss of
    each HEATMAP_ROSTER entry; diverged runs record exactly 50.  Each
    (lambda_max, cond, seed) problem is built once and the whole roster runs
    on it."""
    specs = [[_checked_spec(n, d, lambda_max, cond, lambda_key="lambda_max_values",
                            cond_key="cond_values") for cond in cond_values]
             for lambda_max in lambda_max_values]
    if seeds < 1 or steps < 1:
        raise ValueError("seeds and steps must be >= 1")
    grid = list(itertools.product(range(len(lambda_max_values)), range(len(cond_values)),
                                  range(seeds)))
    cells = [(specs[i_l][i_c], (20, i_l, i_c, i_seed), (21, i_l, i_c, i_seed))
             for i_l, i_c, i_seed in grid]
    final, stopped = _sweep(master_seed, cells, HEATMAP_ROSTER, steps, workers)
    return [{
        "optimizer": entry.label, "lambda_max": lambda_max_values[i_l],
        "cond": cond_values[i_c], "seed": i_seed,
        "log10_loss": (DIVERGED_LOG10 if stopped[k, i_opt]
                       else float(np.log10(max(final[k, i_opt], LOG10_FLOOR)))),
    } for i_opt, entry in enumerate(HEATMAP_ROSTER) for k, (i_l, i_c, i_seed) in enumerate(grid)]


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


def sweep_angle(
    master_seed: int,
    *,
    angles: tuple[float, ...] = tuple(float(a) for a in range(0, 50, 5)),
    cond: float = 1e4,
    lambda_min: float = 1.0,
    seeds: int = 30,
    steps: int = 3000,
    n: int = 300,
    workers: int = 1,
) -> list[dict]:
    """Final regret-in-loss of each ANGLE_ROSTER entry on rotated 2-d
    problems with eigenvalues (cond * lambda_min, lambda_min), one row per
    (optimizer, angle, seed); each (angle, seed) pair shares its dataset and
    starting point across the roster."""
    if seeds < 1 or steps < 1:
        raise ValueError("seeds and steps must be >= 1")
    if n < 2:
        raise ValueError("n < 2 forces a singular X.T X; set n >= 2")
    # The spectrum is (cond * lambda_min, lambda_min): _check_spectrum's
    # conditions, in the keys this sweep takes.
    if not 1 <= cond < np.inf:
        raise ValueError("cond must be finite and >= 1")
    if not (lambda_min >= sys.float_info.min and n * (cond * lambda_min) < np.inf):
        raise ValueError("lambda_min must be a normal float and n * cond * lambda_min finite")
    if not all(0.0 <= angle <= 90.0 for angle in angles):
        raise ValueError("angle must lie in [0, 90] degrees")
    grid = [(angle, i_seed) for angle in angles for i_seed in range(seeds)]
    # Common random numbers across angles: the dataset draw, starting point,
    # and sampling stream all depend only on the seed (the rotation consumes no
    # randomness), so varying the angle changes nothing but the eigenbasis and
    # cross-angle comparisons are fully paired.
    cells = [(GenSpec(n=n, d=2, lambda_max=cond * lambda_min, lambda_min=lambda_min,
                      angle_2d=angle), (10, i_seed), (11, i_seed)) for angle, i_seed in grid]
    final, _ = _sweep(master_seed, cells, ANGLE_ROSTER, steps, workers)
    return [{"optimizer": entry.label, "angle_deg": angle, "seed": i_seed,
             "regret_in_loss": float(final[k, i_opt])}
            for k, (angle, i_seed) in enumerate(grid) for i_opt, entry in enumerate(ANGLE_ROSTER)]


def angle_means(records: list[dict]) -> dict[tuple[str, float], float]:
    acc: dict[tuple[str, float], list[float]] = {}
    for rec in records:
        acc.setdefault((rec["optimizer"], rec["angle_deg"]), []).append(rec["regret_in_loss"])
    return {k: float(np.mean(v)) for k, v in acc.items()}


# ---------------------------------------------------------------------------
# Alignment angles
# ---------------------------------------------------------------------------

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
    # The positive spectrum runs from lambda_max down to ZERO_SPECTRUM_FLOOR
    # times it: _check_spectrum's conditions, in the keys this runner takes.
    _check_positive("lambda_max", lambda_max)
    if not (ZERO_SPECTRUM_FLOOR * lambda_max >= sys.float_info.min and n * lambda_max < np.inf):
        raise ValueError(f"{ZERO_SPECTRUM_FLOOR:g} * lambda_max must be a normal float "
                         "and n * lambda_max finite")
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
        residual = np.abs(err[1:] - (1.0 - trace.eta_t[:, None] * train.lam) * err[:-1]).max()
        rows.append({"optimizer": algo, "max_recursion_residual": float(residual)})
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
    problems, theta0 = _draw(master_seed, [spec] * seeds, [(60, i) for i in range(seeds)])
    tags = [(61, i_seed) for i_seed in range(seeds)]
    traces = run_batch(problems, theta0,
                       _roster_rows(master_seed, problems, tags, DEPENDENCE_ROSTER, steps),
                       steps, snapshot_stride=1).traces
    return [{"optimizer": entry.label, "seed": i_seed,
             "ratio": dependence_ratio(traces[i_seed * len(DEPENDENCE_ROSTER) + i_opt],
                                       problems[i_seed].q, problems[i_seed].lam, k)}
            for i_seed in range(seeds) for i_opt, entry in enumerate(DEPENDENCE_ROSTER)]
