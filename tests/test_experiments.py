import math

import numpy as np
import pytest

from optbench.experiments import (
    PERTURBATION,
    RosterEntry,
    Trace,
    alignment_angle,
    alignment_monte_carlo,
    angle_means,
    check_distance_bound,
    check_regret_bound,
    check_sgd_dichotomy,
    check_theorem_convergence_range,
    dependence_ratio,
    derive_rng,
    exact_alignment_fraction,
    heatmap_cell_means,
    mean_path_discrepancy,
    minnorm_experiment,
    ridge_path_experiment,
    run_trajectory,
    stability_spearman,
    stability_swap,
    swap_change,
    sweep_angle,
    sweep_heatmap,
)
from optbench.linalg import sym_eigh
from optbench.optim import OptimizerConfig
from optbench.problems import GenSpec, generate_least_squares, lstsq_min_norm


def small_problem(seed=0, d=2, cond=10.0, n=None):
    spec = GenSpec(n=n or d, d=d, lambda_max=1.0, lambda_min=1.0 / cond)
    return generate_least_squares(spec, derive_rng(seed, 0))


class TestRunTrajectory:
    def test_deterministic_sgd_converges_monotonically(self):
        p = small_problem()
        rng = derive_rng(0, 1)
        theta0 = p.theta_star + 1e-2 * rng.standard_normal(2)
        trace = run_trajectory(p, "sgd", OptimizerConfig(eta=1.9, beta1=0.0), 2000,
                               rng, stochastic=False, theta0=theta0)
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
        trace = run_trajectory(p, "sgd", OptimizerConfig(eta=2.1, beta1=0.0), 20_000,
                               rng, stochastic=False, theta0=theta0)
        assert trace.diverged
        assert trace.loss[-1] == 1e50
        assert len(trace.loss) < 20_000  # stopped early

    def test_stochastic_adam_improves(self):
        spec = GenSpec(n=300, d=100, lambda_max=1.0, lambda_min=1.0)
        p = generate_least_squares(spec, derive_rng(1, 0))
        trace = run_trajectory(p, "adam", OptimizerConfig(eta=0.1), 3000, derive_rng(1, 1))
        assert not trace.diverged
        assert np.isfinite(trace.final_loss)
        assert trace.final_loss < trace.loss[0]

    def test_snapshots_include_start(self):
        p = small_problem()
        trace = run_trajectory(p, "sgd", OptimizerConfig(eta=0.1, beta1=0.0), 40,
                               derive_rng(0, 3), stochastic=False, snapshot_stride=10)
        assert trace.snapshots.shape == (5, 2)

    def test_trace_is_deterministic(self):
        p = small_problem(d=3, n=6)
        runs = []
        for _ in range(2):
            trace = run_trajectory(p, "adasgd", OptimizerConfig(eta=0.01), 200,
                                   derive_rng(2, 7))
            runs.append(trace)
        np.testing.assert_array_equal(runs[0].loss, runs[1].loss)
        np.testing.assert_array_equal(runs[0].final_theta, runs[1].final_theta)


class TestTheoremChecks:
    def test_dichotomy_small(self):
        rows, failures = check_sgd_dichotomy(0, d_values=(2,), cond_values=(10.0,),
                                             steps=5000)
        assert failures == []
        assert all(r["ok"] for r in rows)

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

    def test_exact_fraction_strictly_decreasing(self):
        fracs = [exact_alignment_fraction(d, 15.0) for d in (2, 10, 50, 200)]
        assert all(b < a for a, b in zip(fracs, fracs[1:]))

    def test_monte_carlo_2d_median(self):
        rows = alignment_monte_carlo((2,), 6000, derive_rng(3, 0))
        assert abs(rows[0]["median_angle_deg"] - 22.5) < 2.0

    def test_monte_carlo_matches_exact_at_2d(self):
        rows = alignment_monte_carlo((2,), 8000, derive_rng(4, 0))
        assert abs(rows[0]["frac_below_threshold"] - 1.0 / 3.0) < 0.03


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


class TestSweeps:
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
        report = stability_swap(200, 20, 8, derive_rng(0, 70))
        assert stability_spearman(report) < -0.5
        assert np.all(report.mean_abs_change >= 0)
        assert np.all(report.mean_loss_change >= 0)

    def test_degenerate_zero_directions_unchanged(self):
        report = stability_swap(30, 40, 5, derive_rng(0, 71), rank=20)
        zero_dirs = report.eigenvalues <= 1e-10 * report.eigenvalues[0]
        assert zero_dirs.sum() == 20
        assert np.all(report.mean_abs_change[zero_dirs] == 0.0)
        assert np.all(report.mean_loss_change[zero_dirs] == 0.0)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            stability_swap(10, 5, 2, derive_rng(0, 0), rank=5)
