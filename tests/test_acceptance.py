"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured margins.  Tolerances are pinned here, not configurable."""

import hashlib
import math

import numpy as np

from optbench.cli import main as cli_main
from optbench.experiments import (
    alignment_experiment,
    angle_means,
    check_distance_bound,
    check_regret_bound,
    check_sgd_dichotomy,
    check_theorem_convergence_range,
    dependence_experiment,
    derive_rng,
    heatmap_cell_means,
    mean_path_discrepancy,
    minnorm_experiment,
    ridge_path_experiment,
    stability_spearman,
    stability_swap,
    sweep_angle,
    sweep_heatmap,
)
from optbench.optim import Optimizer, OptimizerConfig
from optbench.problems import exponential_oracle, logistic_oracle

MASTER_SEED = 0


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_c01_first_step_identities():
    eta, eps, beta2 = 0.1, 1e-8, 0.999
    g = np.array([3.0, -4.0])
    adam = Optimizer("adam", 2, OptimizerConfig(eta=eta, epsilon=eps))
    step_adam = adam.step(np.zeros(2), g)
    tol = eta * eps / (math.sqrt(1.0 - beta2) * np.abs(g))
    assert np.all(np.abs(step_adam + eta * np.sign(g)) <= tol * (1 + 1e-9))

    adasgd = Optimizer("adasgd", 2, OptimizerConfig(eta=eta, beta1=0.0))
    step_adasgd = adasgd.step(np.zeros(2), g)
    expected = -eta * math.sqrt(2) * g / np.linalg.norm(g)
    assert np.max(np.abs(step_adasgd - expected)) < 1e-9

    adamax = Optimizer("adasgdmax", 2, OptimizerConfig(eta=eta, beta1=0.0))
    step_adamax = adamax.step(np.zeros(2), g)
    assert np.array_equal(step_adasgd, step_adamax)
    report(1, "adam sign-step, adasgd unit-norm step, adasgdmax bitwise equal")


def test_c02_sgd_convergence_dichotomy():
    rows, failures = check_sgd_dichotomy(
        MASTER_SEED, d_values=(2, 10, 50), cond_values=(10.0, 1e4),
        steps=20_000, tol=1e-10)
    assert failures == [], failures
    worst = max(r["final_regret"] for r in rows if r["eta_multiplier"] == 1.9)
    assert all(r["diverged"] for r in rows if r["eta_multiplier"] == 2.1)
    report(2, f"eta=1.9 converges (worst regret {worst:.2e} < 1e-10), eta=2.1 diverges")


def test_c03_theorem_convergence_range():
    rows, failures = check_theorem_convergence_range(
        MASTER_SEED, d=10, cond=1e4, eta_multipliers=(1e-3, 1.0, 1e3), steps=50_000)
    assert failures == [], failures
    for r in rows:
        assert r["final_regret"] < 1e-6
        assert r["eta_monotone"]
        assert r["eta_constant_after_entry"]
    report(3, "adasgdmax converges for eta in {1e-3,1,1e3}/lambda_max; "
              "eta_t non-increasing and frozen once inside (0, 2/lambda_max)")


def test_c04_distance_bound():
    rows, failures = check_distance_bound(
        MASTER_SEED, d_values=(2, 20), cond_values=(10.0, 1e3),
        eta_values=(1e-4, 1e-2, 1.0), steps=50_000)
    assert failures == [], failures
    worst = max(r["ratio"] for r in rows)
    # The bound's K / (1 - beta2) slack (1e4 to 1e6) would let a 100x regression
    # pass.  With beta1 = 0 deterministic AdaSGD settles on a period-2 orbit of
    # radius sqrt(d) eta / 2 about the optimum, or converges inside it.
    orbit = max(r["distance"] / (math.sqrt(r["d"]) * r["eta"] / 2) for r in rows)
    assert orbit <= 1 + 1e-6, orbit
    report(4, f"distance <= sqrt(d) eta K / (2(1-beta2)) on all 12 grid points "
              f"(worst ratio {worst:.3g}; worst distance / (sqrt(d) eta / 2) {orbit:.10g})")


def test_c05_regret_bound():
    rows, failures = check_regret_bound(
        MASTER_SEED, t_values=(100, 1000, 10_000), seeds=5)
    assert failures == [], failures
    worst = max(r["ratio"] for r in rows)
    assert len(rows) == 2 * 2 * 5 * 3
    report(5, f"R_T <= bound in all {len(rows)} runs (worst ratio {worst:.3g}); "
              "B_T/T strictly decreasing")


def test_c06_min_norm_behavior():
    rows = minnorm_experiment(MASTER_SEED)
    by = {r["optimizer"]: r for r in rows}
    assert by["sgd"]["max_null_component"] < 1e-8
    assert by["adasgd"]["max_null_component"] < 1e-8
    assert by["adam"]["final_null_component"] >= 10 * by["sgd"]["final_null_component"]
    report(6, f"sgd/adasgd stay in the row space (max null "
              f"{max(by['sgd']['max_null_component'], by['adasgd']['max_null_component']):.2e}); "
              f"adam drifts to {by['adam']['final_null_component']:.2e}")


def test_c07_ridge_path_correspondence():
    rows, recursion = ridge_path_experiment(MASTER_SEED, seeds=50)
    means = mean_path_discrepancy(rows)
    assert means["sgd"] < means["adam"]
    for r in recursion:
        assert r["max_recursion_residual"] < 1e-8
    report(7, f"sgd path discrepancy {means['sgd']:.3f} < adam {means['adam']:.3f}; "
              f"error-recursion residual < 1e-8")


def test_c08_heatmap_trends():
    records = sweep_heatmap(MASTER_SEED)
    means = heatmap_cell_means(records)
    assert any(r["log10_loss"] == 50.0 for r in records
               if r["optimizer"] == "sgd_fixed" and r["lambda_max"] >= 1e4)
    assert all(r["log10_loss"] < 50.0 for r in records
               if r["optimizer"] == "sgd_inv_lmax")
    assert all(r["log10_loss"] < 50.0 for r in records if r["optimizer"] == "adam")
    cells = sorted({(r["lambda_max"], r["cond"]) for r in records})
    within = sum(1 for lm, c in cells
                 if means[("adasgd", lm, c)] <= means[("adam", lm, c)] + 1.0)
    assert within >= 0.8 * len(cells)
    report(8, f"fixed-eta sgd diverges at large lambda_max; 1/lambda_max sgd and adam "
              f"never diverge; adasgd within +1 log10 of adam in {within}/{len(cells)} cells")


def test_c09_angle_sweep():
    records = sweep_angle(MASTER_SEED, seeds=30)
    means = angle_means(records)
    adam0, adasgd0 = means[("adam", 0.0)], means[("adasgd", 0.0)]
    adam45, adasgd45 = means[("adam", 45.0)], means[("adasgd", 45.0)]
    assert adam0 <= adasgd0
    r0, r45 = adam0 / adasgd0, adam45 / adasgd45
    assert abs(math.log10(r45)) < abs(math.log10(r0))
    report(9, f"adam <= adasgd at 0 deg ({adam0:.1f} vs {adasgd0:.1f}); "
              f"ratio moves toward 1 at 45 deg ({r0:.3f} -> {r45:.3f})")


def test_c10_alignment_monte_carlo():
    rows = alignment_experiment(MASTER_SEED)
    exact = [r["exact_frac_below_threshold"] for r in rows]
    assert all(b < a for a, b in zip(exact, exact[1:]))
    empirical = [r["frac_below_threshold"] for r in rows]
    assert all(b <= a for a, b in zip(empirical, empirical[1:]))
    assert abs(rows[0]["median_angle_deg"] - 22.5) < 2.0
    report(10, f"axis-alignment fraction strictly decreasing in d "
               f"(exact tail: {', '.join('%.2e' % f for f in exact)}); "
               f"2-d median {rows[0]['median_angle_deg']:.2f} deg")


def test_c11_hessian_oracles():
    rng = derive_rng(MASTER_SEED, 81)
    h = 1e-6
    for trial in range(20):
        n, d = 15, 4
        x = rng.standard_normal((n, d))
        labels = np.sign(rng.standard_normal(n))
        theta = 0.5 * rng.standard_normal(d)
        for oracle in (logistic_oracle, exponential_oracle):
            _, grad, hess = oracle(x, labels, theta)
            fd = np.zeros((d, d))
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd[:, j] = (oracle(x, labels, theta + e)[1]
                            - oracle(x, labels, theta - e)[1]) / (2 * h)
            scale = np.max(np.abs(hess))
            assert np.max(np.abs(hess - fd)) < 1e-5 * scale
    x = rng.standard_normal((20, 5))
    labels = np.sign(rng.standard_normal(20))
    _, _, hess0 = logistic_oracle(x, labels, np.zeros(5))
    assert np.max(np.abs(hess0 - x.T @ x / 4.0)) < 1e-10
    report(11, "logistic/exponential Hessians match finite differences (20 instances); "
               "logistic Hessian at 0 equals X.T X / 4")


def test_c12_stability_swap():
    rhos = []
    for s in range(5):
        rep = stability_swap(500, 50, 10, derive_rng(MASTER_SEED, 70, s),
                             lambda_max=100.0, cond=1e4)
        rho = stability_spearman(rep)
        rhos.append(rho)
        assert rho < -0.5
        rep_d = stability_swap(30, 50, 10, derive_rng(MASTER_SEED, 71, s),
                               lambda_max=100.0, cond=1e4, rank=25)
        zero_dirs = rep_d.eigenvalues <= 1e-10 * rep_d.eigenvalues[0]
        assert np.all(rep_d.mean_abs_change[zero_dirs] == 0.0)
        assert np.all(rep_d.mean_loss_change[zero_dirs] == 0.0)
    report(12, f"spearman(eigenvalue, change) in {min(rhos):.3f}..{max(rhos):.3f} "
               "across 5 master seeds; degenerate zero directions exactly unchanged")


def test_c13_dependence_ratio_ordering():
    rows = dependence_experiment(MASTER_SEED, seeds=3)
    agg: dict[str, list[float]] = {}
    for r in rows:
        agg.setdefault(r["optimizer"], []).append(r["ratio"])
    means = {k: float(np.mean(v)) for k, v in agg.items()}
    assert means["adam"] < min(means["sgd"], means["adasgd"])
    report(13, f"top-10 eigenspace fraction: adam {means['adam']:.3f} < "
               f"min(sgd {means['sgd']:.3f}, adasgd {means['adasgd']:.3f})")


def test_c14_determinism_all_subcommands(tmp_path):
    small = {
        "angle": ["--set", "angles=0,45", "--set", "seeds=2", "--set", "steps=60"],
        "heatmap": ["--set", "lambda_max_values=1,1e4", "--set", "cond_values=1",
                    "--set", "seeds=1", "--set", "steps=100", "--set", "d=4",
                    "--set", "n=40"],
        "minnorm": ["--set", "steps=100"],
        "ridge-path": ["--set", "seeds=2", "--set", "steps=100",
                       "--set", "recursion_steps=20"],
        "regret": ["--set", "t_values=50,200", "--set", "seeds=2"],
        "stability": ["--set", "n=60", "--set", "d=10", "--set", "swaps=3",
                      "--set", "seeds=1", "--set", "degenerate_n=12",
                      "--set", "degenerate_d=10", "--set", "degenerate_rank=5"],
        "theorem-range": ["--set", "d=3", "--set", "cond=100",
                          "--set", "steps=5000"],
        "distance-bound": ["--set", "d_values=2", "--set", "cond_values=10",
                           "--set", "eta_values=0.01", "--set", "steps=3000"],
        "align-mc": ["--set", "dims=2,10", "--set", "samples_per_dim=500"],
        "trajectory": ["--set", "steps=80", "--set", "d=3", "--set", "n=12"],
    }
    for sub, overrides in small.items():
        digests = []
        for run in ("a", "b"):
            out = tmp_path / f"{sub}-{run}"
            code = cli_main([sub, "--seed", "17", "--workers", "1",
                             "--out", str(out)] + overrides)
            assert code == 0, sub
            per_file = {
                f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in sorted(out.glob("*.csv"))
            }
            digests.append(per_file)
        assert digests[0] == digests[1], sub
    report(14, f"byte-identical CSVs across reruns of all {len(small)} subcommands")
