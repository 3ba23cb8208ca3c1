import math
import re
import warnings

import numpy as np
import pytest
import scipy.stats

import optbench.experiments as experiments
import optbench.problems as problems
from optbench.experiments import (
    ANGLE_ROSTER,
    BETA2,
    HEATMAP_ROSTER,
    LOSS_CAP,
    PERTURBATION,
    BatchRow,
    RosterEntry,
    StabilityReport,
    Trace,
    alignment_angle,
    alignment_monte_carlo,
    angle_means,
    check_distance_bound,
    check_regret_bound,
    check_sgd_dichotomy,
    check_theorem_convergence_range,
    dependence_experiment,
    dependence_ratio,
    derive_rng,
    exact_alignment_fraction,
    heatmap_cell_means,
    mean_path_discrepancy,
    minnorm_experiment,
    ridge_path_experiment,
    run_batch,
    run_trajectory,
    stability_spearman,
    stability_swap,
    swap_change,
    sweep_angle,
    sweep_heatmap,
    trajectory_experiment,
)
from optbench.linalg import project_box, sym_eigh
from optbench.optim import Optimizer, OptimizerConfig
from optbench.problems import (
    RANK_CUTOFF,
    GenSpec,
    generate_least_squares,
    lstsq_min_norm,
    make_rotated_2d,
)

EPS = np.finfo(float).eps


def small_problem(seed=0, d=2, cond=10.0, n=None, lambda_max=1.0):
    spec = GenSpec(n=n or d, d=d, lambda_max=lambda_max, lambda_min=lambda_max / cond)
    return generate_least_squares(spec, derive_rng(seed, 0))


def reference_trajectory(problem, algo, config, steps, theta0, rng=None, *, snapshot_stride=0):
    """The single-run step loop run_trajectory had before it became a one-row
    run_batch, kept as the batch engine's oracle: one Optimizer.step per
    step, a single-sample gradient drawn from rng or the full gradient, the
    exact loss every step."""
    if steps < 1:
        raise ValueError("need at least one step")
    d = problem.d
    theta = np.array(theta0, dtype=float)
    base = problems.full_loss(problem, problem.theta_star) if problem.theta_star is not None else 0.0
    opt = Optimizer(algo, d, config)
    snaps = [theta.copy()] if snapshot_stride >= 1 else None
    ts, losses, etas, gnorms = [], [], [], []
    diverged = False
    inv_n = 1.0 / problem.n
    for step_i in range(1, steps + 1):
        if rng is not None:
            g = problems.stochastic_gradient(problem, theta, rng) * inv_n
        else:
            g = problems.full_gradient(problem, theta)
        theta = opt.step(theta, g)
        if snaps is not None and step_i % snapshot_stride == 0:
            snaps.append(theta.copy())
        val = problems.full_loss(problem, theta) - base
        val = 0.0 if val < 0.0 else val
        gn = float(np.linalg.norm(g))
        ts.append(step_i)
        etas.append(float(opt.last_eta_t[0, 0]))
        gnorms.append(gn if np.isfinite(gn) else np.inf)
        if (not np.all(np.isfinite(g)) or not np.isfinite(val) or val >= LOSS_CAP
                or not np.all(np.isfinite(theta))):
            losses.append(LOSS_CAP)
            diverged = True
            break
        losses.append(val)
    return Trace(t=np.array(ts), loss=np.array(losses), eta_t=np.array(etas),
                 grad_norm=np.array(gnorms),
                 snapshots=np.array(snaps) if snaps is not None else None,
                 diverged=diverged, final_theta=theta)


def assert_same_trace(trace, ref):
    """== on every field of two traces (NaN eta_t entries match NaN)."""
    assert trace.diverged == ref.diverged
    for name in ("t", "loss", "eta_t", "grad_norm", "final_theta"):
        np.testing.assert_array_equal(getattr(trace, name), getattr(ref, name), err_msg=name)
    assert (trace.snapshots is None) == (ref.snapshots is None)
    if ref.snapshots is not None:
        np.testing.assert_array_equal(trace.snapshots, ref.snapshots, err_msg="snapshots")


class TestRunTrajectory:
    def test_deterministic_sgd_converges_monotonically(self):
        p = small_problem()
        rng = derive_rng(0, 1)
        theta0 = p.theta_star + 1e-2 * rng.standard_normal(2)
        trace = run_trajectory(p, "sgd", OptimizerConfig(eta=1.9, beta1=0.0), 2000, theta0)
        assert not trace.diverged
        assert len(trace.loss) == 2000  # one record per requested step
        assert trace.final_loss < 1e-10
        diffs = np.diff(trace.loss)
        above = trace.loss[:-1] > 1e-12
        assert np.all(diffs[above] < 0)
        assert np.all(diffs <= 0)

    def test_deterministic_sgd_diverges_beyond_threshold(self):
        p = small_problem()
        rng = derive_rng(0, 2)
        theta0 = p.theta_star + 1e-2 * rng.standard_normal(2)
        trace = run_trajectory(p, "sgd", OptimizerConfig(eta=2.1, beta1=0.0), 20_000, theta0)
        assert trace.diverged
        assert trace.loss[-1] == 1e50
        assert len(trace.loss) < 20_000  # stopped early

    def test_stochastic_adam_improves(self):
        spec = GenSpec(n=300, d=100, lambda_max=1.0, lambda_min=1.0)
        p = generate_least_squares(spec, derive_rng(1, 0))
        rng = derive_rng(1, 1)
        trace = run_trajectory(p, "adam", OptimizerConfig(eta=0.1), 3000,
                               rng.standard_normal(p.d), rng)
        assert not trace.diverged
        assert np.isfinite(trace.final_loss)
        assert trace.final_loss < trace.loss[0]

    def test_snapshots_include_start(self):
        p = small_problem()
        trace = run_trajectory(p, "sgd", OptimizerConfig(eta=0.1, beta1=0.0), 40,
                               derive_rng(0, 3).standard_normal(2), snapshot_stride=10)
        assert trace.snapshots.shape == (5, 2)

    def test_trace_is_deterministic(self):
        p = small_problem(d=3, n=6)
        runs = []
        for _ in range(2):
            rng = derive_rng(2, 7)
            trace = run_trajectory(p, "adasgd", OptimizerConfig(eta=0.01), 200,
                                   rng.standard_normal(p.d), rng)
            runs.append(trace)
        np.testing.assert_array_equal(runs[0].loss, runs[1].loss)
        np.testing.assert_array_equal(runs[0].final_theta, runs[1].final_theta)


class TestExactOracles:
    """Deterministic SGD against closed forms in the eigenbasis of X.T X,
    computed in extended precision.  The float run drifts from the exact
    iterates by rounding that accumulates at most linearly in the step count,
    so the tolerance is 32 t eps times the size of the start and the optimum
    (the largest drift seen on these grids is about 5 t eps of that)."""

    def cases(self):
        for seed in range(4):
            for d, cond in ((2, 10.0), (5, 10.0), (10, 100.0)):
                p = small_problem(seed, d=d, cond=cond)
                theta0 = p.theta_star + derive_rng(seed, 1).standard_normal(d)
                yield p, theta0

    def drift(self, p, theta0, eta, beta1, steps, oracle):
        trace = run_trajectory(p, "sgd", OptimizerConfig(eta=eta, beta1=beta1), steps, theta0,
                               snapshot_stride=1)
        q, lam = p.q.astype(np.longdouble), p.lam.astype(np.longdouble)
        star = p.theta_star.astype(np.longdouble)
        errors = (trace.snapshots.astype(np.longdouble) - star) @ q.T  # Q (theta_t - theta*)
        scale = np.max(np.abs(theta0)) + np.max(np.abs(p.theta_star))
        expected = oracle(errors[0], lam)
        ratios = [float(np.max(np.abs(errors[t] - next(expected)))) / (t * EPS * scale)
                  for t in range(1, steps + 1)]
        return max(ratios)

    def test_sgd_without_momentum_is_the_power_of_the_contraction(self):
        def closed_form(e0, lam):
            for t in range(1, 301):
                yield (1 - eta * lam) ** t * e0

        for p, theta0 in self.cases():
            for eta in (0.5, 1.0, 1.9):
                assert self.drift(p, theta0, eta, 0.0, 300, closed_form) < 32

    def test_momentum_sgd_follows_the_2x2_recurrence_per_eigendirection(self):
        # u = q.(theta - theta*), mu = q.m:  mu_t = beta mu_{t-1} + lam u_{t-1},
        # u_t = u_{t-1} - eta mu_t, from mu_0 = 0.
        def recurrence(e0, lam):
            u, mu = e0.copy(), np.zeros_like(e0)
            while True:
                mu = beta * mu + lam * u
                u = u - eta * mu
                yield u

        for p, theta0 in self.cases():
            for eta, beta in ((0.5, 0.5), (1.0, 0.5), (0.3, 0.9)):
                assert self.drift(p, theta0, eta, beta, 300, recurrence) < 32


class TestTheoremChecks:
    def test_dichotomy_small(self):
        rows, failures = check_sgd_dichotomy(0, d_values=(2,), cond_values=(10.0,),
                                             steps=5000)
        assert failures == []
        assert all(r["ok"] for r in rows)

    @pytest.mark.parametrize("cond_values,message", [
        ((10.0, 0.0), "cond_values must be finite and >= 1"),
        ((10.0, np.inf), "cond_values must be finite and >= 1"),
        ((1e4, 1e308), "lambda_max / cond must be a normal float and n * lambda_max finite"),
    ])
    def test_dichotomy_checks_every_spectrum_before_any_run(self, monkeypatch, cond_values,
                                                            message):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the spectra were checked")

        monkeypatch.setattr(experiments, "run_trajectory", no_run)
        monkeypatch.setattr(experiments, "run_batch", no_run)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_sgd_dichotomy(0, cond_values=cond_values)

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
    def test_dichotomy_checks_tol_before_any_run(self, monkeypatch, tol):
        monkeypatch.setattr(experiments, "run_batch", trap)
        with pytest.raises(ValueError, match="^tol must be positive and finite$"):
            check_sgd_dichotomy(0, tol=tol)

    def test_convergence_range_small(self):
        rows, failures = check_theorem_convergence_range(
            0, d=4, cond=100.0, eta_multipliers=(1e-2, 1.0, 1e2), steps=20_000)
        assert failures == []
        by_mult = {r["eta_multiplier"]: r for r in rows}
        assert by_mult[1e2]["eta_reductions"] >= 1
        assert all(r["eta_monotone"] for r in rows)

    def test_convergence_range_edge_case_flagged(self):
        # d = 1 learning rate tuned so eta_1 * lambda_max = 2 exactly: the error
        # flips sign forever with constant magnitude, the gradient norm never
        # moves, and eta_t stays pinned at the excluded boundary value.
        sigma = PERTURBATION
        lambda_max = 1.0
        a_mult = 2.0 * sigma * lambda_max  # eta_1 = mult * sqrt(d) / (sigma lambda_max)
        rows, failures = check_theorem_convergence_range(
            0, d=1, cond=1.0, eta_multipliers=(a_mult,), steps=5000,
            lambda_max=lambda_max)
        assert rows[0]["edge_case"]
        assert not rows[0]["converged"]
        assert failures == []

    def test_distance_bound_small(self):
        rows, failures = check_distance_bound(
            0, d_values=(2,), cond_values=(10.0,), eta_values=(1e-2,), steps=5000)
        assert failures == []
        assert rows[0]["distance"] <= rows[0]["bound"]

    def test_distance_bound_self_test_failure_path(self):
        rows, failures = check_distance_bound(
            0, d_values=(2,), cond_values=(10.0,), eta_values=(1e-2,), steps=5000,
            bound_scale=1e-12)
        assert failures
        assert not all(r["ok"] for r in rows)

    def test_regret_bound_small(self):
        rows, failures = check_regret_bound(0, t_values=(50, 500), seeds=2)
        assert failures == []
        assert all(r["ok"] for r in rows)
        assert all(r["regret"] <= r["bound"] for r in rows)

    def test_regret_trend_is_checked_on_the_bound_not_the_average_regret(self):
        # Master seed 201: linear-adversarial R_T/T rises from T = 1000 to
        # 10,000, which the O(sqrt(T)) bound allows; B_T/T falls.
        rows, failures = check_regret_bound(201, seeds=1)
        assert failures == []
        linear = [r for r in rows
                  if (r["kind"], r["schedule"]) == ("linear-adversarial", "theorem")]
        per_round = [r["regret_per_round"] for r in linear]
        assert per_round[2] > per_round[1]
        bound_rates = [r["bound"] / r["horizon"] for r in linear]
        assert bound_rates[0] > bound_rates[1] > bound_rates[2]


def reference_regret_rows(master_seed, t_values, d, seeds, kinds=problems.ONLINE_KINDS,
                          schedules=("theorem", "corollary"), box_halfwidth=1.0, g_bound=1.0,
                          eta=1.0):
    """The one-run-at-a-time regret loop the batch replaced, kept as its oracle."""
    rows = []
    checkpoints = sorted(t_values)
    for i_k, kind in enumerate(kinds):
        for i_s in range(seeds):
            problem = problems.make_online_problem(
                kind, max(t_values), d, box_halfwidth, g_bound,
                derive_rng(master_seed, 4, i_k, i_s))
            for schedule in schedules:
                eta_run = eta
                if schedule == "corollary":
                    eta_run = eta * problem.diameter_inf / (problem.grad_bound_inf * np.sqrt(d))
                opt = Optimizer("adasgdmax", d, OptimizerConfig(
                    eta=eta_run, beta1=0.0, beta2=experiments.BETA2, regret_decay=True))
                theta = np.zeros(d)
                played = np.empty((max(t_values), d))
                v_hat = np.empty(max(t_values))
                for t in range(max(t_values)):
                    played[t] = theta
                    theta = project_box(opt.step(theta, problem.grad(t, theta)),
                                        problem.box_lo, problem.box_hi)
                    v_hat[t] = opt.v_hat[0, 0]
                for t in checkpoints:
                    r_t = problems.regret(problem, played, horizon=t)
                    bound = experiments._regret_bound(
                        schedule, eta, d, problem.diameter_inf, problem.grad_bound_inf, t,
                        v_hat[t - 1], v_hat[0])
                    rows.append({
                        "kind": kind, "schedule": schedule, "seed": i_s, "horizon": t,
                        "regret": r_t, "bound": bound,
                        "ratio": r_t / bound if bound > 0 else np.inf,
                        "regret_per_round": r_t / t, "ok": r_t <= bound,
                    })
    return rows


class TestRegretBatch:
    """check_regret_bound's one batch against the per-run loop: == on every
    row, in the same order."""

    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("t_values", [(1, 7, 60), (300, 1)])
    def test_rows_match_the_per_run_loop(self, seed, d, t_values):
        rows, _ = check_regret_bound(seed, t_values=t_values, d=d, seeds=2)
        expected = reference_regret_rows(seed, t_values, d, seeds=2)
        assert {(r["kind"], r["schedule"]) for r in rows} == {
            (k, s) for k in problems.ONLINE_KINDS for s in ("theorem", "corollary")}
        assert rows == expected

    def test_rows_match_for_one_kind_and_schedule_with_a_wider_box(self):
        params = dict(kinds=("quadratic-tracking",), schedules=("corollary",),
                      box_halfwidth=2.5, g_bound=0.5, eta=0.3)
        rows, _ = check_regret_bound(5, t_values=(1, 40), d=3, seeds=3, **params)
        assert rows == reference_regret_rows(5, (1, 40), 3, seeds=3, **params)

    def test_trend_failure_prints_plain_floats(self, monkeypatch):
        # A bound linear in T keeps B_T/T flat, which the trend check rejects.
        monkeypatch.setattr(experiments, "_regret_bound", lambda *args: np.float64(args[5]))
        _, failures = check_regret_bound(0, kinds=("linear-adversarial",),
                                         schedules=("theorem",), t_values=(4, 8), seeds=1)
        assert failures == ["B_T/T not strictly decreasing: linear-adversarial/theorem "
                            "seed=0: [1.0, 1.0]"]


class TestAlignment:
    def test_basis_vector(self):
        assert alignment_angle(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0)

    def test_diagonal_2d(self):
        v = np.array([1.0, 1.0]) / math.sqrt(2)
        assert alignment_angle(v) == pytest.approx(45.0, abs=1e-9)

    def test_four_equal_coordinates(self):
        v = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
        assert alignment_angle(v) == pytest.approx(60.0, abs=1e-9)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            alignment_angle(np.array([1.0, 1.0]))

    def test_exact_fraction_2d_closed_form(self):
        # angle uniform on [0, 45] degrees in 2-d, so P(angle < 15) = 1/3
        assert exact_alignment_fraction(2, 15.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_exact_fraction_equals_the_beta_survival_function(self):
        # SciPy's beta.sf is the oracle: v_1^2 ~ Beta(1/2, (d-1)/2).
        for d in range(2, 401):
            for threshold in (0.5, 5.0, 15.0, 30.0, 44.9):
                c2 = float(np.cos(np.radians(threshold))) ** 2
                expected = float(d * scipy.stats.beta.sf(c2, 0.5, (d - 1) / 2.0))
                assert exact_alignment_fraction(d, threshold) == expected, (d, threshold)

    def test_exact_fraction_strictly_decreasing(self):
        fracs = [exact_alignment_fraction(d, 15.0) for d in (2, 10, 50, 200)]
        assert all(b < a for a, b in zip(fracs, fracs[1:]))

    def test_monte_carlo_2d_median(self):
        rows = alignment_monte_carlo((2,), 6000, derive_rng(3, 0), threshold_deg=15.0)
        assert abs(rows[0]["median_angle_deg"] - 22.5) < 2.0

    def test_monte_carlo_matches_exact_at_2d(self):
        rows = alignment_monte_carlo((2,), 8000, derive_rng(4, 0), threshold_deg=15.0)
        assert abs(rows[0]["frac_below_threshold"] - 1.0 / 3.0) < 0.03

    @pytest.mark.parametrize("dims,threshold_deg,message", [
        ((200, 1), 15.0, "dims must be >= 2"),
        ((2,), 50.0, "threshold must lie in (0, 45) degrees"),
        ((2, 10), np.nan, "threshold must lie in (0, 45) degrees"),
    ])
    def test_monte_carlo_checks_inputs_before_sampling(self, monkeypatch, dims, threshold_deg,
                                                       message):
        monkeypatch.setattr(experiments, "haar_orthogonal", trap)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            alignment_monte_carlo(dims, 100, derive_rng(0, 0), threshold_deg=threshold_deg)


class TestDependenceRatio:
    def make_trace(self, snaps):
        snaps = np.asarray(snaps, dtype=float)
        n = len(snaps)
        return Trace(t=np.arange(1, n), loss=np.zeros(n - 1), eta_t=np.zeros(n - 1),
                     grad_norm=np.zeros(n - 1), snapshots=snaps, diverged=False,
                     final_theta=snaps[-1])

    def test_updates_in_top_space(self):
        q = np.eye(4)
        lam = np.array([4.0, 3.0, 2.0, 1.0])
        snaps = [[0, 0, 0, 0], [1, 0, 0, 0], [1, 2, 0, 0]]
        trace = self.make_trace(snaps)
        assert dependence_ratio(trace, q, lam, k=2) == pytest.approx(1.0)

    def test_updates_in_bottom_space(self):
        q = np.eye(4)
        lam = np.array([4.0, 3.0, 2.0, 1.0])
        snaps = [[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 1, 3]]
        trace = self.make_trace(snaps)
        assert dependence_ratio(trace, q, lam, k=2) == pytest.approx(0.0)

    def test_zero_steps_skipped(self):
        q = np.eye(2)
        lam = np.array([2.0, 1.0])
        snaps = [[0, 0], [1, 0], [1, 0], [2, 0]]
        trace = self.make_trace(snaps)
        assert dependence_ratio(trace, q, lam, k=1) == pytest.approx(1.0)

    def test_too_few_snapshots(self):
        trace = self.make_trace([[0.0, 0.0]])
        with pytest.raises(ValueError):
            dependence_ratio(trace, np.eye(2), np.array([2.0, 1.0]), k=1)


def reference_heatmap_run(master_seed, lambda_max_values, cond_values, steps, d, n, roster,
                          i_opt, i_l, i_c, i_seed):
    """The per-cell heatmap run the batch engine replaced, kept as its oracle."""
    lam_max = lambda_max_values[i_l]
    cond = cond_values[i_c]
    entry = roster[i_opt]
    rng_problem = derive_rng(master_seed, 20, i_l, i_c, i_seed)
    spec = GenSpec(n=n, d=d, lambda_max=lam_max, lambda_min=lam_max / cond)
    problem = generate_least_squares(spec, rng_problem)
    theta0 = rng_problem.standard_normal(d)
    rng_run = derive_rng(master_seed, 21, i_l, i_c, i_seed, i_opt)
    return reference_trajectory(problem, entry.algo, entry.config(lam_max), steps, theta0, rng_run)


def reference_angle_run(master_seed, cond, lambda_min, n, steps, roster, angle, i_seed, i_opt):
    """The per-cell angle run the batch engine replaced, kept as its oracle."""
    entry = roster[i_opt]
    lam_max = cond * lambda_min
    rng_problem = derive_rng(master_seed, 10, i_seed)
    problem = make_rotated_2d(cond, lambda_min, angle, rng_problem, n=n)
    theta0 = rng_problem.standard_normal(2)
    rng_run = derive_rng(master_seed, 11, i_seed, i_opt)
    return reference_trajectory(problem, entry.algo, entry.config(lam_max), steps, theta0, rng_run)


# Every algorithm a roster can name, two sgd entries that differ in beta1
# (so they step as separate batches) and one that diverges early.
MIXED_ROSTER = HEATMAP_ROSTER + (
    RosterEntry("sgd_plain", "sgd", 0.5, "inv-lambda-max", 0.0),
    RosterEntry("amsgrad", "amsgrad", 0.05),
    RosterEntry("adasgdmax", "adasgdmax", 0.02, "fixed", 0.5),
)


class TestBatchEngine:
    """The batched engine against the reference loop, run by run: == on the
    final losses and identical divergence flags."""

    @pytest.mark.parametrize("seed,roster,grid", [
        (0, HEATMAP_ROSTER, dict(lambda_max_values=(1.0, 1e4, 1e6), cond_values=(1.0, 1e4),
                                 seeds=2, steps=300, d=4, n=40)),
        (3, MIXED_ROSTER, dict(lambda_max_values=(1.0, 1e2, 1e6), cond_values=(1.0, 1e3),
                               seeds=1, steps=200, d=6, n=30)),
        (201, HEATMAP_ROSTER, dict(lambda_max_values=(1e2, 1e6), cond_values=(1e2, 1e6),
                                   seeds=1, steps=1500, d=30, n=300)),
    ])
    def test_heatmap_runs_match_the_reference_loop(self, seed, roster, grid):
        cells = [(i_l, i_c, i_seed) for i_l in range(len(grid["lambda_max_values"]))
                 for i_c in range(len(grid["cond_values"])) for i_seed in range(grid["seeds"])]
        params = {k: grid[k] for k in ("lambda_max_values", "cond_values", "d", "n")}
        final, stopped = experiments._sweep(experiments._heatmap_problem, params, seed, cells,
                                            roster, grid["steps"], 1, n=grid["n"], d=grid["d"])
        early = 0
        for k, (i_l, i_c, i_seed) in enumerate(cells):
            for i_opt in range(len(roster)):
                trace = reference_heatmap_run(
                    seed, grid["lambda_max_values"], grid["cond_values"], grid["steps"],
                    grid["d"], grid["n"], roster, i_opt, i_l, i_c, i_seed)
                assert final[k, i_opt] == trace.final_loss
                assert stopped[k, i_opt] == trace.diverged
                early += trace.diverged and len(trace.t) < grid["steps"]
        assert early >= 2  # the grid exercises the early exit

    def test_angle_runs_match_the_reference_loop(self):
        angles, seeds, steps = (0.0, 20.0, 45.0), 3, 400
        cells = [(angle, i_seed) for angle in angles for i_seed in range(seeds)]
        params = {"cond": 1e4, "lambda_min": 1.0, "n": 300}
        final, stopped = experiments._sweep(experiments._angle_problem, params, 7, cells,
                                            ANGLE_ROSTER, steps, 1, n=300, d=2)
        for k, (angle, i_seed) in enumerate(cells):
            for i_opt in range(len(ANGLE_ROSTER)):
                trace = reference_angle_run(7, 1e4, 1.0, 300, steps, ANGLE_ROSTER, angle,
                                            i_seed, i_opt)
                assert final[k, i_opt] == trace.final_loss
                assert stopped[k, i_opt] == trace.diverged

    def test_sweep_records_match_the_per_cell_records(self):
        grid = dict(lambda_max_values=(1.0, 1e6), cond_values=(1.0, 1e4), seeds=2, steps=120,
                    d=4, n=40)
        records = sweep_heatmap(5, **grid)
        expected = []
        for i_opt, entry in enumerate(HEATMAP_ROSTER):
            for i_l, lam in enumerate(grid["lambda_max_values"]):
                for i_c, cond in enumerate(grid["cond_values"]):
                    for i_seed in range(grid["seeds"]):
                        trace = reference_heatmap_run(
                            5, grid["lambda_max_values"], grid["cond_values"], grid["steps"],
                            grid["d"], grid["n"], HEATMAP_ROSTER, i_opt, i_l, i_c, i_seed)
                        log10_loss = (50.0 if trace.diverged
                                      else float(np.log10(max(trace.final_loss, 1e-30))))
                        expected.append({"optimizer": entry.label, "lambda_max": lam,
                                         "cond": cond, "seed": i_seed,
                                         "log10_loss": log10_loss})
        assert records == expected

    def test_single_sample_draws_match_one_array_draw(self):
        for n in (2, 40, 300, 1000):
            rng = derive_rng(n, 21)
            scalar = [int(rng.integers(n)) for _ in range(1500)]
            assert derive_rng(n, 21).integers(n, size=1500).tolist() == scalar

    def test_rows_of_problems_with_different_shapes_are_rejected(self):
        p2, p3 = small_problem(d=2), small_problem(d=3)
        rows = [BatchRow(i, "sgd", OptimizerConfig(eta=0.1), np.zeros(5, dtype=int))
                for i in range(2)]
        with pytest.raises(ValueError, match="share n and d"):
            run_batch([p2, p3], [np.zeros(2), np.zeros(3)], rows, 5)

    @pytest.mark.parametrize("indices,message", [
        (np.zeros(4, dtype=int), "one sample index per step"),
        (np.full(5, 2), r"sample indices must lie in \[0, 2\)"),
        (np.full(5, -1), r"sample indices must lie in \[0, 2\)"),
    ])
    def test_bad_sample_indices_are_rejected(self, indices, message):
        p = small_problem(d=2)
        with pytest.raises(ValueError, match=message):
            run_batch([p], np.zeros((1, 2)),
                      [BatchRow(0, "sgd", OptimizerConfig(eta=0.1), indices)], 5)

    def test_all_rows_stopping_ends_the_batch(self):
        p = small_problem(d=2)
        rows = [BatchRow(0, "sgd", OptimizerConfig(eta=1e3, beta1=0.0),
                         np.zeros(10_000, dtype=int))]
        result = run_batch([p], p.theta_star[None] + 1.0, rows, 10_000)
        assert result.stopped.tolist() == [True] and result.final_loss.tolist() == [LOSS_CAP]
        assert result.traces is None

    def test_rows_with_and_without_indices_are_rejected(self):
        p = small_problem(d=2)
        rows = [BatchRow(0, "sgd", OptimizerConfig(eta=0.1), np.zeros(5, dtype=int)),
                BatchRow(0, "sgd", OptimizerConfig(eta=0.2))]
        with pytest.raises(ValueError, match="one sample index per step, or none does"):
            run_batch([p], np.zeros((1, 2)), rows, 5)


# Every algorithm, a second eta in the sgd block that diverges early
# (2.1 / lambda_max without momentum) and adabound's bounds.
TRACE_ROSTER = (
    ("sgd", OptimizerConfig(eta=1.9, beta1=0.0)),
    ("sgd", OptimizerConfig(eta=2.1, beta1=0.0)),
    ("sgd", OptimizerConfig(eta=0.3, beta1=0.5)),
    ("adam", OptimizerConfig(eta=0.05)),
    ("amsgrad", OptimizerConfig(eta=0.05)),
    ("adasgd", OptimizerConfig(eta=0.01, beta1=0.0, beta2=BETA2)),
    ("adasgdmax", OptimizerConfig(eta=10.0, beta1=0.0, beta2=BETA2)),
    ("adabound", OptimizerConfig(eta=0.05, eta_sgd=0.2, gamma=1e-2)),
)


class TestBatchTraces:
    """Recorded and full-gradient rows against the reference loop: == on
    the per-step loss, eta_t and gradient norm, the snapshots, the final
    parameters, the stopped flag and the number of steps, for every
    algorithm.  The batch holds two problems and, on a third with a start
    near the float range, a row whose first gradient overflows, so it
    stops at step 1."""

    STEPS = 300

    def batch(self, d, stochastic):
        n = 3 * d if stochastic else d
        probs = [small_problem(1, d=d, cond=10.0, n=n), small_problem(2, d=d, cond=100.0, n=n)]
        probs.append(small_problem(2, d=d, cond=100.0, n=n, lambda_max=1e6))
        # The second start is far enough out for sgd at 2.1 / lambda_max to
        # reach the loss cap within the steps.
        theta0 = np.array([p.theta_star + scale * derive_rng(d, k).standard_normal(d)
                           for k, (p, scale) in enumerate(zip(probs, (0.1, 1e15)))]
                          + [np.full(d, 1e306)])
        runs = [(k, algo, config) for k in range(2) for algo, config in TRACE_ROSTER]
        runs.append((2, "sgd", OptimizerConfig(eta=0.1)))
        rngs = [derive_rng(d, 9, i) if stochastic else None for i in range(len(runs))]
        rows = [BatchRow(k, algo, config, None if rng is None else rng.integers(n, size=self.STEPS))
                for (k, algo, config), rng in zip(runs, rngs)]
        with np.errstate(over="ignore", invalid="ignore"):   # the last row overflows
            refs = [reference_trajectory(
                probs[k], algo, config, self.STEPS, theta0[k],
                derive_rng(d, 9, i) if stochastic else None, snapshot_stride=7)
                for i, (k, algo, config) in enumerate(runs)]
        return probs, theta0, rows, refs

    @pytest.mark.parametrize("stochastic", [False, True])
    @pytest.mark.parametrize("d", [2, 20, 50])
    def test_recorded_rows_match_the_reference_loop(self, d, stochastic):
        probs, theta0, rows, refs = self.batch(d, stochastic)
        result = run_batch(probs, theta0, rows, self.STEPS, record=True, snapshot_stride=7)
        assert refs[-1].diverged and len(refs[-1].t) == 1 and refs[-1].grad_norm[0] == np.inf
        if not stochastic:   # full-gradient sgd at 2.1 / lambda_max stops early
            early = refs[len(TRACE_ROSTER) + 1]
            assert early.diverged and 1 < len(early.t) < self.STEPS
            # It stops at the loss cap, before its gradient can overflow.
            assert np.isfinite(early.grad_norm[-1])
        for i, ref in enumerate(refs):
            assert_same_trace(result.traces[i], ref)
            assert result.final_loss[i] == ref.final_loss
            assert result.stopped[i] == ref.diverged
            np.testing.assert_array_equal(result.theta[i], ref.final_theta)

    @pytest.mark.parametrize("stochastic", [False, True])
    def test_unrecorded_rows_match_the_reference_loop(self, stochastic):
        probs, theta0, rows, refs = self.batch(10, stochastic)
        result = run_batch(probs, theta0, rows, self.STEPS)
        assert result.traces is None
        assert result.final_loss.tolist() == [ref.final_loss for ref in refs]
        assert result.stopped.tolist() == [ref.diverged for ref in refs]
        np.testing.assert_array_equal(result.theta, [ref.final_theta for ref in refs])

    def test_snapshots_alone_leave_the_histories_unrecorded(self):
        probs, theta0, rows, refs = self.batch(4, False)
        result = run_batch(probs, theta0, rows, self.STEPS, snapshot_stride=7)
        for trace, ref in zip(result.traces, refs):
            assert trace.loss is None and trace.eta_t is None and trace.grad_norm is None
            np.testing.assert_array_equal(trace.t, ref.t)
            np.testing.assert_array_equal(trace.snapshots, ref.snapshots)

    @pytest.mark.parametrize("algo,config", TRACE_ROSTER)
    @pytest.mark.parametrize("stochastic", [False, True])
    def test_run_trajectory_is_the_reference_loop(self, algo, config, stochastic):
        p = small_problem(4, d=6, cond=50.0, n=18)
        theta0 = derive_rng(4, 1).standard_normal(6)
        traces = [fn(p, algo, config, 400, theta0, derive_rng(4, 2) if stochastic else None,
                     snapshot_stride=3) for fn in (run_trajectory, reference_trajectory)]
        assert_same_trace(*traces)


def trap(*args, **kwargs):
    raise AssertionError("a single-run step loop ran")


class TestOneEngine:
    """Every least-squares runner steps its runs through run_batch: with
    run_trajectory and Optimizer.step replaced by traps, each still runs, and
    run_batch is called."""

    @pytest.mark.parametrize("runner,params", [
        (check_sgd_dichotomy, dict(d_values=(2, 3), cond_values=(10.0,), steps=50)),
        (check_theorem_convergence_range, dict(d=3, cond=10.0, steps=50)),
        (check_distance_bound, dict(d_values=(2,), cond_values=(10.0,), eta_values=(1e-2,),
                                    steps=50)),
        (minnorm_experiment, dict(steps=20)),
        (ridge_path_experiment, dict(seeds=2, steps=20, snapshot_stride=5, recursion_steps=10)),
        (dependence_experiment, dict(d=6, n=18, seeds=2, steps=20, k=2)),
        (sweep_heatmap, dict(lambda_max_values=(1.0,), cond_values=(10.0,), seeds=1, steps=20,
                             d=3, n=9)),
        (sweep_angle, dict(angles=(0.0,), seeds=1, steps=20)),
    ])
    def test_runners_call_no_single_run_loop(self, monkeypatch, runner, params):
        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[2]))
            return run_batch(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_trajectory", trap)
        monkeypatch.setattr(Optimizer, "step", trap)
        monkeypatch.setattr(experiments, "run_batch", counting)
        runner(0, **params)
        assert calls

    def test_trajectory_is_one_row_of_one_batch(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[2]))
            return run_batch(*args, **kwargs)

        monkeypatch.setattr(Optimizer, "step", trap)
        monkeypatch.setattr(experiments, "run_batch", counting)
        assert len(trajectory_experiment(0, d=3, n=9, steps=20)) == 20
        assert calls == [1]


class TestDependenceInputs:
    @pytest.mark.parametrize("params,message", [
        (dict(seeds=0), "seeds must be >= 1"),
        (dict(k=0), "need 1 <= k <= d"),
        (dict(k=200), "need 1 <= k <= d"),
        (dict(steps=0), "steps must be >= 1"),
        (dict(cond=0.5), "cond must be finite and >= 1"),
        (dict(lambda_max=np.inf), "lambda_max must be positive and finite"),
        (dict(n=50), "n < d forces a singular X.T X; set n >= d"),
        (dict(d=1, k=1), "d = 1 admits a single eigenvalue; set cond=1"),
    ])
    def test_inputs_are_checked_before_any_run(self, monkeypatch, params, message):
        monkeypatch.setattr(experiments, "run_batch", trap)
        monkeypatch.setattr(experiments, "generate_least_squares", trap)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dependence_experiment(0, **params)


def counting_full_loss(monkeypatch) -> list:
    """Count the engine's calls of full_loss; returns the one-entry counter."""
    calls = [0]

    def full_loss(problem, theta):
        calls[0] += 1
        return problems.full_loss(problem, theta)

    monkeypatch.setattr(experiments, "full_loss", full_loss)
    return calls


class TestBatchStopRule:
    """The norm bound decides which runs get an exact loss check; the stop
    rule itself stays the exact loss against the cap."""

    def test_converging_runs_evaluate_no_loss_per_step(self, monkeypatch):
        probs = [small_problem(seed, d=4, n=40) for seed in range(3)]
        theta0 = np.array([derive_rng(seed, 1).standard_normal(4) for seed in range(3)])
        roster = (("sgd", 0.01), ("adam", 0.01))
        rows = [BatchRow(k, algo, OptimizerConfig(eta=eta),
                         derive_rng(k, 2, i_opt).integers(40, size=300))
                for k in range(3) for i_opt, (algo, eta) in enumerate(roster)]
        calls = counting_full_loss(monkeypatch)
        result = run_batch(probs, theta0, rows, 300)
        assert not result.stopped.any() and np.isfinite(result.final_loss).all()
        assert calls[0] == len(probs) + len(rows)   # the floors and the finals

    def test_a_bound_over_the_cap_falls_back_to_the_exact_loss(self, monkeypatch):
        # A null direction of a rank-deficient problem: a component of 1e30
        # along it puts the bound far above SCREEN_CAP on every step, while
        # X theta, and so the loss (about 1e27), stays under LOSS_CAP.
        p = generate_least_squares(GenSpec(n=40, d=4, lambda_max=1.0, lambda_min=0.0),
                                   derive_rng(0, 0))
        null = p.q[p.lam <= RANK_CUTOFF * p.lambda_max][0]
        theta0 = derive_rng(0, 1).standard_normal(4) + 1e30 * null
        steps = 200
        algos = (("sgd", 0.1), ("adam", 0.1), ("adasgd", 0.01))
        rows = [BatchRow(0, algo, OptimizerConfig(eta=eta),
                         derive_rng(0, 2, i).integers(40, size=steps))
                for i, (algo, eta) in enumerate(algos)]
        calls = counting_full_loss(monkeypatch)
        result = run_batch([p], theta0[None], rows, steps)
        # every step rechecked, plus the finals; no floor, as there is no unique optimum
        assert p.theta_star is None and calls[0] == len(rows) * (steps + 1)
        assert not result.stopped.any()
        bound = 0.5 * (np.linalg.norm(p.x) * np.linalg.norm(theta0) + np.linalg.norm(p.y)) ** 2
        assert bound >= experiments.SCREEN_CAP
        monkeypatch.undo()
        for i, (algo, eta) in enumerate(algos):
            trace = reference_trajectory(p, algo, OptimizerConfig(eta=eta), steps, theta0,
                                         derive_rng(0, 2, i))
            assert not trace.diverged and len(trace.t) == steps
            assert 1e20 < trace.final_loss < LOSS_CAP
            assert result.final_loss[i] == trace.final_loss


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool sizes asked for and
    maps in this process, so no process is started."""

    def __init__(self, sizes: list, max_workers: int):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestSweeps:
    @pytest.mark.parametrize("items,workers,pools", [
        (1, 64, []), (3, 64, [3]), (3, 2, [2]), (5, 1, []), (0, 4, []),
    ])
    def test_the_pool_has_at_most_one_process_per_item(self, monkeypatch, items, workers,
                                                        pools):
        sizes = []
        monkeypatch.setattr(experiments, "ProcessPoolExecutor",
                            lambda max_workers: RecordingPool(sizes, max_workers))
        assert experiments._map_cells(abs, list(range(-items, 0)), workers) == \
            list(range(items, 0, -1))
        assert sizes == pools

    def test_one_cell_sweep_with_many_workers_starts_no_pool(self, monkeypatch):
        grid = dict(lambda_max_values=(1.0,), cond_values=(1.0,), seeds=1, steps=50, d=4, n=40)
        serial = sweep_heatmap(5, **grid, workers=1)
        sizes = []
        monkeypatch.setattr(experiments, "ProcessPoolExecutor",
                            lambda max_workers: RecordingPool(sizes, max_workers))
        assert sweep_heatmap(5, **grid, workers=64) == serial
        assert sizes == []

    def test_heatmap_parallel_matches_serial(self):
        grid = dict(lambda_max_values=(1.0, 1e4), cond_values=(1.0,), seeds=2, steps=100,
                    d=4, n=40)
        serial = sweep_heatmap(5, **grid, workers=1)
        parallel = sweep_heatmap(5, **grid, workers=2)
        assert serial == parallel

    def test_heatmap_divergence_records_50(self):
        records = sweep_heatmap(0, lambda_max_values=(1e6,), cond_values=(1.0,), seeds=1,
                                steps=400, d=4, n=40,
                                roster=(RosterEntry("sgd_fixed", "sgd", 0.01),))
        assert records[0]["log10_loss"] == 50.0

    def test_angle_sweep_shares_problem_across_roster(self):
        records = sweep_angle(0, angles=(0.0, 45.0), seeds=2, steps=50)
        means = angle_means(records)
        assert len(means) == 6
        assert all(np.isfinite(v) for v in means.values())

    def test_heatmap_cell_means(self):
        records = [
            {"optimizer": "a", "lambda_max": 1.0, "cond": 1.0, "seed": 0, "log10_loss": 1.0},
            {"optimizer": "a", "lambda_max": 1.0, "cond": 1.0, "seed": 1, "log10_loss": 3.0},
        ]
        assert heatmap_cell_means(records) == {("a", 1.0, 1.0): 2.0}


class TestMinNormExperiment:
    def test_row_space_preserved_and_adam_drifts(self):
        rows = minnorm_experiment(0, steps=800)
        by = {r["optimizer"]: r for r in rows}
        assert by["sgd"]["max_null_component"] < 1e-8
        assert by["adasgd"]["max_null_component"] < 1e-8
        assert by["adam"]["final_null_component"] >= 10 * by["sgd"]["final_null_component"]


class TestRidgePath:
    def test_recursion_residual_is_float_noise(self):
        _, recursion = ridge_path_experiment(0, seeds=1, steps=50, recursion_steps=150)
        for row in recursion:
            assert row["max_recursion_residual"] < 1e-8

    def test_sgd_tracks_path_better_than_adam(self):
        rows, _ = ridge_path_experiment(0, seeds=10, recursion_steps=20)
        means = mean_path_discrepancy(rows)
        assert means["sgd"] < means["adam"]


class TestStability:
    def test_identity_swap_is_exactly_zero(self):
        rng = derive_rng(0, 99)
        x = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        q, lam = sym_eigh(x.T @ x)
        theta = lstsq_min_norm(x, y, eig=(q, lam))
        abs_change, loss_change = swap_change(x, y, 3, x[3].copy(), y[3], q, lam, theta)
        np.testing.assert_array_equal(abs_change, np.zeros(4))
        np.testing.assert_array_equal(loss_change, np.zeros(4))

    def test_small_eigenvalues_change_most(self):
        report = stability_swap(200, 20, 8, derive_rng(0, 70), lambda_max=100.0, cond=1e4)
        assert stability_spearman(report) < -0.5
        assert np.all(report.mean_abs_change >= 0)
        assert np.all(report.mean_loss_change >= 0)

    def test_degenerate_zero_directions_unchanged(self):
        report = stability_swap(30, 40, 5, derive_rng(0, 71), lambda_max=100.0, cond=1e4,
                                rank=20)
        zero_dirs = report.eigenvalues <= 1e-10 * report.eigenvalues[0]
        assert zero_dirs.sum() == 20
        assert np.all(report.mean_abs_change[zero_dirs] == 0.0)
        assert np.all(report.mean_loss_change[zero_dirs] == 0.0)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            stability_swap(10, 5, 2, derive_rng(0, 0), lambda_max=100.0, cond=1e4, rank=5)

    @pytest.mark.parametrize("seed", [0, 5, 201])
    @pytest.mark.parametrize("tag,n,d,rank", [(70, 500, 50, None), (71, 30, 50, 25)])
    def test_spearman_equals_scipy_on_stability_reports(self, seed, tag, n, d, rank):
        # The stability-experiment desk sizes; the degenerate pool has d - rank
        # tied zero eigenvalues, whose directions all change by exactly zero.
        report = stability_swap(n, d, 10, derive_rng(seed, tag, 0), lambda_max=100.0,
                                cond=1e4, rank=rank)
        if rank is not None:
            assert np.count_nonzero(report.mean_abs_change == 0.0) >= d - rank
        expected = float(scipy.stats.spearmanr(report.eigenvalues, report.mean_abs_change)[0])
        assert stability_spearman(report) == expected

    @pytest.mark.parametrize("eigenvalues,changes", [
        ([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]),
        ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0], [np.nan, 2.0, 3.0]),
        ([np.nan, np.nan, np.nan], [1.0, 2.0, 3.0]),
        ([1.0], [2.0]),
    ])
    def test_spearman_of_constant_or_nan_input_is_nan_without_a_warning(self, eigenvalues,
                                                                        changes):
        a, b = np.array(eigenvalues), np.array(changes)
        report = StabilityReport(eigenvalues=a, mean_abs_change=b, mean_loss_change=b, swaps=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = stability_spearman(report)
        assert math.isnan(rho)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # SciPy warns on constant input
            assert math.isnan(scipy.stats.spearmanr(a, b)[0])
