import dataclasses

import numpy as np
import pytest

from optbench.problems import (
    GenSpec,
    QuadraticProblem,
    exponential_oracle,
    full_gradient,
    full_loss,
    generate_from_seed,
    generate_least_squares,
    logistic_oracle,
    make_online_problem,
    make_rotated_2d,
    min_norm_solution,
    problem_from_data,
    regret,
    ridge_solution,
    sample_gradient,
    stochastic_gradient,
)


KINDS = ("linear-adversarial", "quadratic-tracking")


def scalar_loss(p, t, theta):
    """f_t(theta) from the formulas, one round at a time."""
    if p.kind == "linear-adversarial":
        return float(p.data[t] @ theta)
    diff = theta - p.data[t]
    return 0.5 * float(diff @ diff)


def reference_regret(p, played, horizon):
    """Per-round Python sums of the played and the comparator losses."""
    comp = p.comparator(horizon)
    total = 0.0
    best = 0.0
    for t in range(horizon):
        total += scalar_loss(p, t, played[t])
        best += scalar_loss(p, t, comp)
    return total - best


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient oracle."""
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_jacobian(grad_fn, x, h=1e-6):
    """Central-difference Jacobian of a vector function (Hessian oracle)."""
    d = len(x)
    jac = np.zeros((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        jac[:, j] = (grad_fn(x + e) - grad_fn(x - e)) / (2 * h)
    return jac


class TestGeneration:
    def test_reference_instance(self):
        # n=300, d=100, lambda in [1, 1e4], y variance 30
        spec = GenSpec(n=300, d=100, lambda_max=1e4, lambda_min=1.0)
        p = generate_least_squares(spec, np.random.default_rng(0))
        assert p.cond == pytest.approx(1e4)
        gram = p.x.T @ p.x
        assert np.max(np.abs(gram - p.q.T @ np.diag(p.lam) @ p.q)) < 1e-6 * p.lambda_max
        resid = np.max(np.abs(gram @ p.theta_star - p.x.T @ p.y))
        assert resid < 1e-6 * p.lambda_max * np.max(np.abs(p.theta_star))
        assert np.all(np.diff(p.lam) <= 0)
        assert abs(np.std(p.y) - np.sqrt(30.0)) < 1.0

    def test_scalar_problem(self):
        spec = GenSpec(n=1, d=1, lambda_max=4.0, lambda_min=4.0)
        p = generate_least_squares(spec, np.random.default_rng(3))
        assert abs(abs(p.x[0, 0]) - 2.0) < 1e-12
        assert p.theta_star[0] == pytest.approx(p.y[0] / p.x[0, 0])

    def test_spectrum_matches_independent_eigensolve(self):
        spec = GenSpec(n=50, d=10, lambda_max=100.0, lambda_min=1.0)
        p = generate_least_squares(spec, np.random.default_rng(1))
        eigs = np.sort(np.linalg.eigvalsh(p.x.T @ p.x))[::-1]
        np.testing.assert_allclose(eigs, p.lam, rtol=1e-6)

    def test_degenerate_has_structural_zeros(self):
        spec = GenSpec(n=10, d=20, lambda_max=5.0, lambda_min=0.0)
        p = generate_least_squares(spec, np.random.default_rng(2))
        assert np.sum(p.lam == 0.0) == 10
        assert p.theta_star is None
        assert p.cond == np.inf

    def test_inconsistent_spec_rejected(self):
        with pytest.raises(ValueError):
            GenSpec(n=5, d=10, lambda_max=1.0, lambda_min=1.0).validate()
        with pytest.raises(ValueError):
            GenSpec(n=3, d=1, lambda_max=2.0, lambda_min=1.0).validate()

    def test_json_roundtrip_reproduces_bytes(self):
        spec = GenSpec(n=20, d=5, lambda_max=10.0, lambda_min=0.5)
        p = generate_from_seed(spec, 123)
        p2 = p.from_json(p.to_json())
        np.testing.assert_array_equal(p.x, p2.x)
        np.testing.assert_array_equal(p.y, p2.y)

    @pytest.mark.parametrize("spec", [
        GenSpec(n=20, d=5, lambda_max=10.0, lambda_min=0.5, y_std=2.0),
        GenSpec(n=30, d=6, lambda_max=10.0, lambda_min=1.0, axis_aligned=True),
        GenSpec(n=40, d=2, lambda_max=8.0, lambda_min=2.0, angle_2d=30.0),
        GenSpec(n=4, d=6, lambda_max=3.0, lambda_min=0.0),
    ], ids=["y_std", "axis_aligned", "angle_2d", "degenerate"])
    def test_json_roundtrip_every_spec_field(self, spec):
        assert set(spec.to_dict()) == {f.name for f in dataclasses.fields(GenSpec)}
        p = generate_from_seed(spec, 7)
        p2 = QuadraticProblem.from_json(p.to_json())
        assert p2.spec == spec
        for name in ("x", "y", "q"):
            assert getattr(p2, name).tobytes() == getattr(p, name).tobytes(), name

    def test_axis_aligned(self):
        spec = GenSpec(n=30, d=6, lambda_max=10.0, lambda_min=1.0, axis_aligned=True)
        p = generate_least_squares(spec, np.random.default_rng(0))
        np.testing.assert_array_equal(p.q, np.eye(6))


class TestRotated2d:
    def test_angle_zero_diagonal(self):
        p = make_rotated_2d(1e4, 1.0, 0.0, np.random.default_rng(0))
        gram = p.x.T @ p.x
        assert abs(gram[0, 1]) < 1e-6 * p.lambda_max

    def test_angle_45_symmetric(self):
        p = make_rotated_2d(1e4, 1.0, 45.0, np.random.default_rng(0))
        gram = p.x.T @ p.x
        assert abs(gram[0, 0] - gram[1, 1]) < 1e-6 * p.lambda_max

    def test_angle_30_off_diagonal(self):
        p = make_rotated_2d(100.0, 2.0, 30.0, np.random.default_rng(0))
        lam_max, lam_min = 200.0, 2.0
        # rotation-conjugation oracle
        a = np.deg2rad(30.0)
        rot = np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]])
        expected = rot.T @ np.diag([lam_max, lam_min]) @ rot
        gram = p.x.T @ p.x
        assert abs(gram[0, 1] - (lam_max - lam_min) * np.sin(a) * np.cos(a)) < 1e-6 * lam_max
        np.testing.assert_allclose(gram, expected, atol=1e-6 * lam_max)

    def test_bad_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            make_rotated_2d(0.5, 1.0, 10.0, rng)
        with pytest.raises(ValueError):
            make_rotated_2d(10.0, 1.0, 120.0, rng)


class TestLossAndGradients:
    def test_identity_instance(self):
        p = problem_from_data(np.eye(2), np.array([1.0, 2.0]))
        assert full_loss(p, np.zeros(2)) == pytest.approx(2.5)

    def test_loss_matches_summation_oracle(self):
        rng = np.random.default_rng(4)
        p = problem_from_data(rng.standard_normal((5, 3)), rng.standard_normal(5))
        theta = rng.standard_normal(3)
        total = 0.0
        for i in range(5):
            total += 0.5 * (float(p.x[i] @ theta) - p.y[i]) ** 2
        assert abs(full_loss(p, theta) - total) < 1e-10

    def test_regret_zero_at_optimum(self):
        spec = GenSpec(n=12, d=4, lambda_max=8.0, lambda_min=1.0)
        p = generate_least_squares(spec, np.random.default_rng(5))
        assert abs(full_loss(p, p.theta_star) - full_loss(p, min_norm_solution(p))) < 1e-9

    def test_gradient_identity_hessian(self):
        p = problem_from_data(np.eye(2), np.zeros(2))
        np.testing.assert_allclose(full_gradient(p, np.array([1.0, -1.0])), [1.0, -1.0])

    def test_gradient_zero_at_optimum(self):
        spec = GenSpec(n=10, d=3, lambda_max=4.0, lambda_min=1.0)
        p = generate_least_squares(spec, np.random.default_rng(6))
        assert np.max(np.abs(full_gradient(p, p.theta_star))) < 1e-8 * p.lambda_max

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        p = problem_from_data(rng.standard_normal((8, 4)), rng.standard_normal(8))
        theta = rng.standard_normal(4)
        g = full_gradient(p, theta)
        g_fd = fd_gradient(lambda t: full_loss(p, t), theta)
        np.testing.assert_allclose(g, g_fd, rtol=1e-5)

    def test_stochastic_forced_index_hand_oracle(self):
        x = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.0]])
        y = np.array([1.0, -2.0, 0.5])
        p = problem_from_data(x, y)
        theta = np.array([0.3, -0.7])
        g = sample_gradient(p.x[2], p.y[2], theta, p.n)
        expected = 3 * x[2] * (x[2] @ theta - y[2])
        np.testing.assert_allclose(g, expected, atol=1e-14)

    def test_stochastic_average_equals_full_gradient(self):
        rng = np.random.default_rng(8)
        p = problem_from_data(rng.standard_normal((6, 3)), rng.standard_normal(6))
        theta = rng.standard_normal(3)
        avg = np.mean([sample_gradient(p.x[i], p.y[i], theta, p.n) for i in range(6)], axis=0)
        np.testing.assert_allclose(avg, full_gradient(p, theta), atol=1e-10)

    def test_stochastic_zero_at_single_sample_optimum(self):
        p = problem_from_data(np.array([[2.0]]), np.array([4.0]))
        g = stochastic_gradient(p, np.array([2.0]), np.random.default_rng(0))
        np.testing.assert_allclose(g, [0.0], atol=1e-12)


class TestSolutions:
    def test_min_norm_equals_unique_optimum(self):
        spec = GenSpec(n=20, d=5, lambda_max=10.0, lambda_min=0.5)
        p = generate_least_squares(spec, np.random.default_rng(9))
        np.testing.assert_allclose(min_norm_solution(p), p.theta_star, atol=1e-8)

    def test_min_norm_null_component_zero(self):
        p = problem_from_data(np.array([[1.0, 0.0]]), np.array([2.0]))
        np.testing.assert_allclose(min_norm_solution(p), [2.0, 0.0], atol=1e-12)

    def test_min_norm_orthogonal_to_null_space(self):
        spec = GenSpec(n=10, d=20, lambda_max=5.0, lambda_min=0.0)
        p = generate_least_squares(spec, np.random.default_rng(10))
        theta = min_norm_solution(p)
        # independent eigensolve for the null basis
        w, v = np.linalg.eigh(p.x.T @ p.x)
        null_basis = v[:, w < 1e-10 * w[-1]]
        assert null_basis.shape[1] == 10
        assert np.max(np.abs(null_basis.T @ theta)) < 1e-8 * np.linalg.norm(theta)

    def test_ridge_zero_alpha_exact(self):
        spec = GenSpec(n=15, d=4, lambda_max=6.0, lambda_min=1.0)
        p = generate_least_squares(spec, np.random.default_rng(11))
        np.testing.assert_array_equal(ridge_solution(p, 0.0), p.theta_star)

    def test_ridge_huge_alpha_shrinks_to_zero(self):
        spec = GenSpec(n=15, d=4, lambda_max=10.0, lambda_min=1.0)
        p = generate_least_squares(spec, np.random.default_rng(12))
        out = ridge_solution(p, 1e12)
        assert np.max(np.abs(out)) < 1e-10 * np.max(np.abs(p.theta_star))

    def test_ridge_diagonal_closed_form(self):
        x = np.diag([np.sqrt(10.0), 1.0])
        theta_star = np.array([1.0, 1.0])
        p = problem_from_data(x, x @ theta_star)
        np.testing.assert_allclose(ridge_solution(p, 1.0), [10.0 / 11.0, 0.5], atol=1e-12)

    def test_ridge_monotone_in_alpha(self):
        spec = GenSpec(n=20, d=5, lambda_max=50.0, lambda_min=0.5)
        p = generate_least_squares(spec, np.random.default_rng(13))
        alphas = np.geomspace(1e-4, 1e4, 25)
        prev = np.abs(p.q @ ridge_solution(p, 0.0))
        for a in alphas:
            cur = np.abs(p.q @ ridge_solution(p, a))
            assert np.all(cur <= prev + 1e-12)
            prev = cur

    def test_ridge_negative_alpha_rejected(self):
        spec = GenSpec(n=10, d=2, lambda_max=2.0, lambda_min=1.0)
        p = generate_least_squares(spec, np.random.default_rng(14))
        with pytest.raises(ValueError):
            ridge_solution(p, -0.1)


class TestClassificationOracles:
    def test_logistic_at_zero(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((12, 4))
        labels = np.sign(rng.standard_normal(12))
        loss, grad, hess = logistic_oracle(x, labels, np.zeros(4))
        assert loss == pytest.approx(12 * np.log(2.0))
        assert np.max(np.abs(hess - x.T @ x / 4.0)) < 1e-10

    def test_logistic_saturation(self):
        x = np.array([[1.0], [2.0]])
        labels = np.array([1.0, 1.0])
        _, _, hess = logistic_oracle(x, labels, np.array([1e6]))
        assert np.max(np.abs(hess)) < 1e-8

    @pytest.mark.parametrize("oracle", [logistic_oracle, exponential_oracle])
    def test_derivatives_match_finite_differences(self, oracle):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((20, 5))
        labels = np.sign(rng.standard_normal(20))
        theta = 0.3 * rng.standard_normal(5)
        loss_fn = lambda t: oracle(x, labels, t)[0]
        grad_fn = lambda t: oracle(x, labels, t)[1]
        _, grad, hess = oracle(x, labels, theta)
        np.testing.assert_allclose(grad, fd_gradient(loss_fn, theta), rtol=1e-5)
        np.testing.assert_allclose(hess, fd_jacobian(grad_fn, theta), rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("oracle", [logistic_oracle, exponential_oracle])
    def test_hessian_positive_semidefinite(self, oracle):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((15, 4))
        labels = np.sign(rng.standard_normal(15))
        theta = rng.standard_normal(4)
        _, _, hess = oracle(x, labels, theta)
        assert np.min(np.linalg.eigvalsh(hess)) >= -1e-8 * np.trace(hess)

    def test_weighting_symmetry(self):
        # Single-sample problems expose the diagonal weights directly:
        # hess = gamma(v) * x^2 with x = [1].
        x = np.array([[1.0]])
        v = 1.7
        def gamma(oracle, margin):
            # label +1 and theta = margin gives v = margin
            return oracle(x, np.array([1.0]), np.array([margin]))[2][0, 0]
        assert gamma(logistic_oracle, -v) == pytest.approx(gamma(logistic_oracle, v), rel=1e-12)
        assert gamma(exponential_oracle, -v) > gamma(exponential_oracle, v)

    def test_exponential_scalar_hand_values(self):
        loss, grad, hess = exponential_oracle(np.array([[1.0]]), np.array([1.0]),
                                              np.array([np.log(2.0)]))
        assert loss == pytest.approx(0.5, abs=1e-15)
        assert hess[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert grad[0] == pytest.approx(-0.5, abs=1e-15)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            logistic_oracle(np.eye(2), np.array([1.0, 2.0]), np.zeros(2))


class TestOnline:
    def test_linear_bounds_by_construction(self):
        p = make_online_problem("linear-adversarial", 50, 1, 1.0, 2.0,
                                np.random.default_rng(18))
        assert p.diameter_inf == 2.0
        for t in range(50):
            assert abs(p.grad(t, np.zeros(1))[0]) <= p.grad_bound_inf

    def test_quadratic_constant_center_zero_regret(self):
        p = make_online_problem("quadratic-tracking", 20, 3, 1.0, 1.0,
                                np.random.default_rng(19))
        p.data[:] = 0.25  # constant center
        played = [np.full(3, 0.25) for _ in range(20)]
        assert regret(p, played) == pytest.approx(0.0, abs=1e-12)

    def test_linear_comparator_is_vertex(self):
        p = make_online_problem("linear-adversarial", 100, 3, 0.7, 1.0,
                                np.random.default_rng(20))
        comp = p.comparator()

        def cumulative_loss(theta):
            return p.losses(np.broadcast_to(theta, p.data.shape)).sum()

        best = cumulative_loss(comp)
        # brute-force over all box vertices
        for bits in range(8):
            vertex = np.array([(0.7 if (bits >> j) & 1 else -0.7) for j in range(3)])
            assert best <= cumulative_loss(vertex) + 1e-9
        g_sum = p.data.sum(axis=0)
        np.testing.assert_array_equal(comp, -np.sign(g_sum) * 0.7)

    def test_two_round_hand_example(self):
        p = make_online_problem("linear-adversarial", 2, 1, 1.0, 1.0,
                                np.random.default_rng(21))
        p.data[:] = np.array([[1.0], [-1.0]])
        assert regret(p, [np.zeros(1), np.zeros(1)]) == pytest.approx(0.0, abs=1e-12)

    def test_play_comparator_zero_regret(self):
        p = make_online_problem("linear-adversarial", 30, 2, 1.0, 1.0,
                                np.random.default_rng(22))
        comp = p.comparator()
        assert regret(p, [comp] * 30) == pytest.approx(0.0, abs=1e-9)

    def test_regret_nonnegative(self):
        rng = np.random.default_rng(23)
        for kind in ("linear-adversarial", "quadratic-tracking"):
            p = make_online_problem(kind, 40, 2, 1.0, 1.0, rng)
            played = [rng.uniform(-1, 1, size=2) for _ in range(40)]
            assert regret(p, played) >= -1e-9

    def test_outside_box_rejected(self):
        p = make_online_problem("linear-adversarial", 5, 2, 1.0, 1.0,
                                np.random.default_rng(24))
        played = [np.zeros(2)] * 2 + [np.array([0.0, -2.0]), np.zeros(2), np.array([2.0, 0.0])]
        with pytest.raises(ValueError, match="round 2 "):
            regret(p, played)
        regret(p, played, horizon=2)  # rounds past the horizon are not checked

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d", [1, 2, 4, 7, 16])
    def test_losses_match_scalar_formulas_bitwise(self, kind, d):
        rng = np.random.default_rng(26)
        p = make_online_problem(kind, 50, d, 1.5, 2.0, rng)
        points = rng.uniform(-1.5, 1.5, size=(30, d))
        losses = p.losses(points)
        assert losses.shape == (30,)
        for t, theta in enumerate(points):
            assert losses[t] == scalar_loss(p, t, theta)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("horizon", [1, 7, 300])
    def test_regret_equals_per_round_reference_bitwise(self, kind, horizon):
        rng = np.random.default_rng(27)
        p = make_online_problem(kind, 300, 4, 1.0, 1.0, rng)
        played = rng.uniform(-1.0, 1.0, size=(300, 4))
        expected = reference_regret(p, played, horizon)
        assert regret(p, played, horizon=horizon) == expected
        assert regret(p, list(played), horizon=horizon) == expected

    def test_bad_regret_horizon(self):
        p = make_online_problem("linear-adversarial", 5, 2, 1.0, 1.0,
                                np.random.default_rng(29))
        for played, horizon in ((np.zeros((5, 2)), 0), (np.zeros((5, 2)), 6),
                                (np.zeros((4, 2)), None)):
            with pytest.raises(ValueError, match="horizon"):
                regret(p, played, horizon=horizon)

    def test_bad_kind_and_horizon(self):
        rng = np.random.default_rng(25)
        with pytest.raises(ValueError):
            make_online_problem("bogus", 5, 2, 1.0, 1.0, rng)
        with pytest.raises(ValueError):
            make_online_problem("linear-adversarial", 0, 2, 1.0, 1.0, rng)
