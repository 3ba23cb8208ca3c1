import math

import numpy as np
import pytest

from optbench.linalg import project_box
from optbench.optim import ALGORITHMS, Optimizer, OptimizerConfig


def cfg(**kwargs):
    kwargs.setdefault("eta", 0.1)
    return OptimizerConfig(**kwargs)


class TestSGD:
    def test_zero_gradient_no_move(self):
        opt = Optimizer("sgd", 2, cfg())
        theta = opt.step(np.array([1.0, 1.0]), np.zeros(2))
        np.testing.assert_array_equal(theta, [1.0, 1.0])

    def test_two_step_hand_oracle(self):
        # m1 = [2,-2], theta1 = [0.8, 1.2]; m2 = 0.9 m1 + [1,0] = [2.8,-1.8],
        # theta2 = theta1 - 0.1 m2 = [0.52, 1.38]
        opt = Optimizer("sgd", 2, cfg(beta1=0.9))
        theta = opt.step(np.array([1.0, 1.0]), np.array([2.0, -2.0]))
        theta = opt.step(theta, np.array([1.0, 0.0]))
        np.testing.assert_allclose(theta, [0.52, 1.38], atol=1e-12)
        np.testing.assert_allclose(opt.m, [2.8, -1.8], atol=1e-12)

    def test_beta1_zero_is_plain_sgd(self):
        opt = Optimizer("sgd", 3, cfg(beta1=0.0, eta=0.05))
        g = np.array([1.0, -2.0, 0.5])
        theta = opt.step(np.zeros(3), g)
        np.testing.assert_array_equal(theta, -0.05 * g)


class TestAdam:
    def test_first_step_is_sign_descent(self):
        c = cfg(eta=0.1, epsilon=1e-8)
        opt = Optimizer("adam", 3, c)
        g = np.array([5.0, -2.0, 0.3])
        theta = opt.step(np.zeros(3), g)
        # exact first step: -eta * g / (|g| + eps / sqrt(1 - beta2))
        bound = c.eta * c.epsilon / (np.sqrt(1 - c.beta2) * np.abs(g))
        assert np.all(np.abs(theta + c.eta * np.sign(g)) <= bound * (1 + 1e-9))

    def test_first_step_instance(self):
        c = cfg(eta=0.1, epsilon=1e-8)
        opt = Optimizer("adam", 2, c)
        g = np.array([3.0, -4.0])
        theta = opt.step(np.zeros(2), g)
        expected = -c.eta * g / (np.abs(g) + c.epsilon / math.sqrt(1 - c.beta2))
        np.testing.assert_allclose(theta, expected, atol=1e-12)
        # sign-descent up to the epsilon correction, ~1e-8 here
        np.testing.assert_allclose(theta, [-0.1, 0.1], atol=1.2e-8)

    def test_three_steps_scalar_recurrence(self):
        c = cfg(eta=0.1, beta1=0.9, beta2=0.999, epsilon=1e-8)
        opt = Optimizer("adam", 1, c)
        theta = np.array([0.5])
        m = v = 0.0
        th = 0.5
        for t in (1, 2, 3):
            theta = opt.step(theta, np.array([1.0]))
            m = c.beta1 * m + (1 - c.beta1) * 1.0
            v = c.beta2 * v + (1 - c.beta2) * 1.0
            th = th - c.eta * m / (math.sqrt(v) + c.epsilon) * (
                math.sqrt(1 - c.beta2 ** t) / (1 - c.beta1 ** t))
            assert abs(theta[0] - th) < 1e-12


class TestAMSGrad:
    def test_matches_adam_on_constant_stream(self):
        g = np.array([0.7, -1.3])
        a = Optimizer("adam", 2, cfg())
        b = Optimizer("amsgrad", 2, cfg())
        ta = tb = np.zeros(2)
        for _ in range(12):
            ta = a.step(ta, g)
            tb = b.step(tb, g)
            np.testing.assert_allclose(ta, tb, atol=1e-12)

    def test_vhat_holds_after_large_gradient(self):
        c = cfg(eta=0.1)
        opt = Optimizer("amsgrad", 1, c)
        theta = opt.step(np.zeros(1), np.array([10.0]))
        theta = opt.step(theta, np.array([0.1]))
        # scalar recurrence oracle with the held maximum
        b1, b2, eps = c.beta1, c.beta2, c.epsilon
        m1 = (1 - b1) * 10.0
        v1 = (1 - b2) * 100.0
        vh1 = v1 / (1 - b2)
        th1 = -c.eta * m1 / (math.sqrt(vh1 * (1 - b2)) + eps) * math.sqrt(1 - b2) / (1 - b1)
        m2 = b1 * m1 + (1 - b1) * 0.1
        v2 = b2 * v1 + (1 - b2) * 0.01
        vh2 = max(vh1, v2 / (1 - b2 ** 2))
        assert vh2 == vh1  # the 10-scale maximum holds
        bc2 = 1 - b2 ** 2
        th2 = th1 - c.eta * m2 / (math.sqrt(vh2 * bc2) + eps) * math.sqrt(bc2) / (1 - b1 ** 2)
        assert abs(theta[0] - th2) < 1e-12
        assert opt.v_hat[0] == pytest.approx(100.0)

    def test_vhat_monotone(self):
        rng = np.random.default_rng(0)
        opt = Optimizer("amsgrad", 3, cfg())
        theta = np.zeros(3)
        prev = np.zeros(3)
        for _ in range(50):
            theta = opt.step(theta, rng.standard_normal(3))
            assert np.all(opt.v_hat >= prev)
            prev = opt.v_hat.copy()

    def test_first_step_sign_property(self):
        c = cfg(eta=0.1)
        opt = Optimizer("amsgrad", 2, c)
        g = np.array([3.0, -4.0])
        theta = opt.step(np.zeros(2), g)
        np.testing.assert_allclose(theta, [-0.1, 0.1], atol=1.2e-8)


class TestAdaSGD:
    def test_first_step_exact(self):
        c = cfg(eta=0.1, beta1=0.0)
        opt = Optimizer("adasgd", 2, c)
        g = np.array([3.0, -4.0])
        theta = opt.step(np.zeros(2), g)
        expected = -0.1 * math.sqrt(2) * g / 5.0
        np.testing.assert_allclose(theta, expected, atol=1e-9)
        np.testing.assert_allclose(theta, [-0.0848528137, 0.1131370850], atol=1e-9)

    def test_1d_first_step_matches_adam_magnitude(self):
        c = cfg(eta=0.1)
        ada = Optimizer("adasgd", 1, c)
        adam = Optimizer("adam", 1, c)
        g = np.array([2.5])
        s1 = ada.step(np.zeros(1), g)
        s2 = adam.step(np.zeros(1), g)
        # AdaSGD's first step is exactly eta; Adam's differs only through eps
        tol = c.eta * c.epsilon / (math.sqrt(1 - c.beta2) * abs(g[0]))
        assert abs(abs(s1[0]) - abs(s2[0])) <= tol * (1 + 1e-9)

    def test_three_steps_scalar_recurrence_2d(self):
        c = cfg(eta=0.05, beta1=0.9, beta2=0.999)
        opt = Optimizer("adasgd", 2, c)
        gs = [np.array([1.0, 2.0]), np.array([-0.5, 1.0]), np.array([0.3, -0.2])]
        theta = np.zeros(2)
        m = np.zeros(2)
        v = 0.0
        ref = np.zeros(2)
        for t, g in enumerate(gs, start=1):
            theta = opt.step(theta, g)
            m = c.beta1 * m + g
            v = c.beta2 * v + (1 - c.beta2) * float(g @ g)
            eta_t = c.eta / math.sqrt((v / (1 - c.beta2 ** t)) / 2)
            ref = ref - eta_t * m
            np.testing.assert_allclose(theta, ref, atol=1e-12)

    def test_zero_gradient_guard(self):
        opt = Optimizer("adasgd", 2, cfg())
        theta = opt.step(np.ones(2), np.zeros(2))
        np.testing.assert_array_equal(theta, np.ones(2))
        assert opt.t == 1
        assert opt.last_eta_t == 0.0


class TestAdaSGDMax:
    def test_first_step_bitwise_equals_adasgd(self):
        g = np.array([3.0, -4.0])
        a = Optimizer("adasgd", 2, cfg(beta1=0.0))
        b = Optimizer("adasgdmax", 2, cfg(beta1=0.0))
        sa = a.step(np.zeros(2), g)
        sb = b.step(np.zeros(2), g)
        assert np.array_equal(sa, sb)

    def test_eta_holds_after_gradient_drop(self):
        c = cfg(eta=0.1, beta1=0.0)
        opt = Optimizer("adasgdmax", 1, c)
        opt.step(np.zeros(1), np.array([10.0]))
        eta1 = opt.last_eta_t
        assert eta1 == pytest.approx(c.eta / 10.0)
        opt.step(np.zeros(1), np.array([0.1]))
        assert opt.last_eta_t == eta1  # maximum held

    def test_eta_monotone_nonincreasing(self):
        rng = np.random.default_rng(1)
        opt = Optimizer("adasgdmax", 3, cfg(beta1=0.0))
        theta = np.zeros(3)
        last = np.inf
        for _ in range(100):
            theta = opt.step(theta, rng.standard_normal(3) * rng.uniform(0.1, 5))
            assert opt.last_eta_t <= last
            last = opt.last_eta_t

    def test_regret_decay_unit_gradients(self):
        c = cfg(eta=0.1, beta1=0.0, regret_decay=True)
        opt = Optimizer("adasgdmax", 1, c)
        theta = np.zeros(1)
        for t in range(1, 30):
            theta = opt.step(theta, np.array([1.0]))
            assert opt.last_eta_t == pytest.approx(0.1 / math.sqrt(t), rel=1e-15)


class TestAdaBound:
    def test_bounds_at_t1(self):
        c = cfg(eta=0.001, eta_sgd=0.1, gamma=1e-3)
        lower = c.eta_sgd * (1 - 1 / (c.gamma * 1 + 1))
        upper = c.eta_sgd * (1 + 1 / (c.gamma * 1))
        assert lower == pytest.approx(9.99000999e-5, rel=1e-9)
        assert upper == pytest.approx(100.1, rel=1e-12)

    def test_unclipped_regime_is_adam_style(self):
        c = cfg(eta=0.001, eta_sgd=0.1, gamma=1e-3)
        opt = Optimizer("adabound", 2, c)
        g = np.array([1.0, -2.0])
        theta = opt.step(np.zeros(2), g)
        # conventional bias-corrected rule, rate inside [9.99e-5, 100.1]
        m_hat = (1 - c.beta1) * g / (1 - c.beta1)
        v_hat = (1 - c.beta2) * g * g / (1 - c.beta2)
        expected = -c.eta / (np.sqrt(v_hat) + c.epsilon) * m_hat
        np.testing.assert_allclose(theta, expected, atol=1e-16)

    def test_late_time_becomes_sgd_rate(self):
        c = cfg(eta=0.001, eta_sgd=0.1, gamma=1e-3)
        opt = Optimizer("adabound", 1, c)
        opt.t = 10 ** 9 - 1  # jump the counter; bounds pinch to eta_sgd
        g = np.array([0.5])
        theta = opt.step(np.zeros(1), g)
        m_hat = (1 - c.beta1) * g / (1 - c.beta1 ** opt.t)
        np.testing.assert_allclose(theta, -c.eta_sgd * m_hat, rtol=1e-5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Optimizer("adabound", 2, cfg(eta_sgd=0.1, gamma=-1.0))
        with pytest.raises(ValueError):
            Optimizer("adabound", 2, cfg(gamma=1e-3))


class TestSharedBehavior:
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_divergence_freezes_state(self, algo):
        c = cfg(eta_sgd=0.1, gamma=1e-3) if algo == "adabound" else cfg()
        opt = Optimizer(algo, 2, c)
        theta = opt.step(np.zeros(2), np.array([1.0, np.inf]))
        assert opt.diverged
        np.testing.assert_array_equal(theta, np.zeros(2))
        theta = opt.step(theta, np.ones(2))
        np.testing.assert_array_equal(theta, np.zeros(2))
        assert opt.t == 2  # the counter still advances

    @pytest.mark.parametrize("algo", ["adam", "amsgrad", "adabound"])
    def test_per_coordinate_rates_positive(self, algo):
        c = cfg(eta_sgd=0.1, gamma=1e-3) if algo == "adabound" else cfg()
        opt = Optimizer(algo, 3, c)
        rng = np.random.default_rng(2)
        theta = np.zeros(3)
        for _ in range(20):
            g = rng.standard_normal(3)
            new = opt.step(theta, g)
            step = new - theta
            m = opt.m
            nz = np.abs(m) > 1e-12
            rates = -step[nz] / m[nz]
            assert np.all(rates > 0)
            theta = new

    @pytest.mark.parametrize("field, value", [
        ("eta", math.nan), ("eta", math.inf), ("eta", 0.0),
        ("epsilon", math.nan), ("epsilon", math.inf), ("epsilon", -1e-8),
    ])
    def test_config_rejects_non_finite_or_out_of_range(self, field, value):
        with pytest.raises(ValueError):
            cfg(**{field: value}).validate()

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            Optimizer("sgdm", 2, cfg())


class TestScaleCoupling:
    """Gradient-scale coupling with epsilon = 0: Adam is invariant to any
    positive per-coordinate rescaling of the gradient stream; AdaSGD is
    invariant to a global rescaling but not to an anisotropic one."""

    def run_stream(self, algo, gs, scale):
        opt = Optimizer(algo, 2, cfg(eta=0.05, epsilon=0.0))
        theta = np.zeros(2)
        out = []
        for g in gs:
            theta = opt.step(theta, g * scale)
            out.append(theta.copy())
        return np.array(out)

    @pytest.fixture
    def stream(self):
        rng = np.random.default_rng(3)
        return [rng.standard_normal(2) for _ in range(6)]

    def test_adam_isotropic_invariance(self, stream):
        base = self.run_stream("adam", stream, np.ones(2))
        scaled = self.run_stream("adam", stream, np.full(2, 1000.0))
        assert np.max(np.abs(base - scaled)) < 1e-6 * np.max(np.abs(base))

    def test_adam_anisotropic_invariance(self, stream):
        base = self.run_stream("adam", stream, np.ones(2))
        scaled = self.run_stream("adam", stream, np.array([3.0, 100.0]))
        assert np.max(np.abs(base - scaled)) < 1e-6 * np.max(np.abs(base))

    def test_adasgd_isotropic_invariance(self, stream):
        base = self.run_stream("adasgd", stream, np.ones(2))
        scaled = self.run_stream("adasgd", stream, np.full(2, 1000.0))
        assert np.max(np.abs(base - scaled)) < 1e-6 * np.max(np.abs(base))

    def test_adasgd_anisotropic_changes(self, stream):
        base = self.run_stream("adasgd", stream, np.ones(2))
        scaled = self.run_stream("adasgd", stream, np.array([3.0, 100.0]))
        assert np.max(np.abs(base - scaled)) > 1e-3 * np.max(np.abs(base))


class TestBoxConstrained:
    """Box-constrained runs project each step's iterate with project_box."""

    def test_interior_identity(self):
        opt = Optimizer("sgd", 2, cfg(eta=0.01, beta1=0.0))
        theta = project_box(opt.step(np.zeros(2), np.array([0.5, -0.5])),
                            np.full(2, -1.0), np.full(2, 1.0))
        np.testing.assert_allclose(theta, [-0.005, 0.005])

    def test_clamp(self):
        opt = Optimizer("sgd", 1, cfg(eta=1.0, beta1=0.0))
        # lands at 1.5
        theta = project_box(opt.step(np.array([0.9]), np.array([-0.6])),
                            np.array([-1.0]), np.array([1.0]))
        np.testing.assert_array_equal(theta, [1.0])

    def test_membership_along_run(self):
        rng = np.random.default_rng(4)
        opt = Optimizer("adasgdmax", 3, cfg(beta1=0.0, regret_decay=True))
        lo, hi = np.full(3, -1.0), np.full(3, 1.0)
        theta = np.zeros(3)
        for _ in range(50):
            theta = project_box(opt.step(theta, rng.standard_normal(3)), lo, hi)
            assert np.all(theta >= -1.0 - 1e-9) and np.all(theta <= 1.0 + 1e-9)


def test_determinism_same_inputs_same_trajectory():
    gs = [np.array([0.3, -0.8]), np.array([1.2, 0.1]), np.array([-0.4, 0.9])]
    for algo in ALGORITHMS:
        c = cfg(eta_sgd=0.1, gamma=1e-3) if algo == "adabound" else cfg()
        runs = []
        for _ in range(2):
            opt = Optimizer(algo, 2, c)
            theta = np.zeros(2)
            path = []
            for g in gs:
                theta = opt.step(theta, g)
                path.append(theta.copy())
            runs.append(np.array(path))
        np.testing.assert_array_equal(runs[0], runs[1])
