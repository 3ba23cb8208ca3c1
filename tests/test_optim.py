import math
from dataclasses import replace

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
        np.testing.assert_allclose(opt.m[0], [2.8, -1.8], atol=1e-12)

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
        assert opt.v_hat[0, 0] == pytest.approx(100.0)

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
        for bad in (math.nan, math.inf, 0.0):
            with pytest.raises(ValueError, match="positive and finite"):
                Optimizer("adabound", 2, cfg(eta_sgd=bad, gamma=1e-3))
            with pytest.raises(ValueError, match="positive and finite"):
                Optimizer("adabound", 2, cfg(eta_sgd=0.1, gamma=bad))


class TestSharedBehavior:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the moments
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_non_finite_gradient_makes_its_row_non_finite(self, algo):
        # The optimizer is a pure update rule: it does not stop a run, its
        # caller does.
        c = cfg(eta_sgd=0.1, gamma=1e-3) if algo == "adabound" else cfg()
        opt = Optimizer(algo, 2, c)
        theta = opt.step(np.zeros(2), np.array([1.0, np.inf]))
        assert not np.isfinite(theta).all()
        assert opt.t == 1

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_wrong_shape_raises_and_leaves_the_state(self, algo):
        c = cfg(eta_sgd=0.1, gamma=1e-3) if algo == "adabound" else cfg()
        for opt, theta in ((Optimizer(algo, 2, [c, replace(c, eta=0.2)]), np.zeros(2)),
                           (Optimizer(algo, 2, c), np.zeros((3, 2))),
                           (Optimizer(algo, 2, c), np.zeros(3))):
            opt.step(np.zeros((len(opt.eta), 2)), np.ones((len(opt.eta), 2)))
            before = {k: getattr(opt, k).copy() for k in ("eta",) + STATE}
            with pytest.raises(ValueError, match="share one shape"):
                opt.step(theta, np.ones_like(theta))
            with pytest.raises(ValueError, match="share one shape"):
                opt.step(np.zeros((len(opt.eta), 2)), np.ones((len(opt.eta), 3)))
            assert opt.t == 1
            assert all(same_bits(getattr(opt, k), v) for k, v in before.items())

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_step_leaves_its_inputs_unchanged(self, algo):
        # update steps theta in place; step steps a copy
        c = cfg(eta_sgd=0.1, gamma=1e-3) if algo == "adabound" else cfg()
        rng = np.random.default_rng(5)
        for opt, shape in ((Optimizer(algo, 3, c), (3,)),
                           (Optimizer(algo, 3, [c, replace(c, eta=0.2)]), (2, 3))):
            theta, g = rng.standard_normal(shape), rng.standard_normal(shape)
            before = theta.tobytes(), g.tobytes()
            for _ in range(3):
                new = opt.step(theta, g)
                assert new.shape == shape and not np.shares_memory(new, theta)
                assert (theta.tobytes(), g.tobytes()) == before

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
            m = opt.m[0]
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


class ReferenceOptimizer:
    """The single-run optimizer as it was before the rules gained a batch
    axis, kept verbatim as the bitwise oracle for Optimizer."""

    def __init__(self, algo: str, dim: int, config: OptimizerConfig):
        self.algo = algo
        self.dim = dim
        self.config = config
        self.t = 0
        self.diverged = False
        self.m = np.zeros(dim)
        self.v = np.zeros(dim) if algo in ("adam", "amsgrad", "adabound") else 0.0
        self.v_hat = np.zeros(dim) if algo == "amsgrad" else 0.0
        self.last_eta_t = np.nan

    def step(self, theta: np.ndarray, g: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        g = np.asarray(g, dtype=float)
        self.t += 1
        if self.diverged:
            return theta.copy()
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(theta))):
            self.diverged = True
            return theta.copy()
        c, algo = self.config, self.algo
        if algo in ("sgd", "adasgd", "adasgdmax"):
            self.m = c.beta1 * self.m + g
        else:
            self.m = c.beta1 * self.m + (1.0 - c.beta1) * g
        if algo == "sgd":
            self.last_eta_t = c.eta
            return theta - c.eta * self.m
        bc2 = 1.0 - c.beta2 ** self.t
        if algo in ("adasgd", "adasgdmax"):
            self.v = c.beta2 * self.v + (1.0 - c.beta2) * float(g @ g)
            scale = self.v / bc2
            if algo == "adasgdmax":
                self.v_hat = max(self.v_hat, scale)
                scale = self.v_hat
            if scale <= 0.0:
                self.last_eta_t = 0.0
                return theta.copy()
            if algo == "adasgdmax" and c.regret_decay:
                scale = self.t * scale
            eta_t = c.eta / np.sqrt(scale / self.dim)
            self.last_eta_t = eta_t
            return theta - eta_t * self.m
        self.v = c.beta2 * self.v + (1.0 - c.beta2) * g * g
        bc1 = 1.0 - c.beta1 ** self.t
        if algo == "adabound":
            rate = c.eta / (np.sqrt(self.v / bc2) + c.epsilon)
            lower = c.eta_sgd * (1.0 - 1.0 / (c.gamma * self.t + 1.0))
            upper = c.eta_sgd * (1.0 + 1.0 / (c.gamma * self.t))
            rate = np.clip(rate, lower, upper)
            return theta - rate * (self.m / bc1)
        if algo == "amsgrad":
            self.v_hat = np.maximum(self.v_hat, self.v / bc2)
            denom = np.sqrt(self.v_hat * bc2) + c.epsilon
        else:
            denom = np.sqrt(self.v) + c.epsilon
        return theta - c.eta * self.m / denom * (np.sqrt(bc2) / bc1)


def same_bits(a, b) -> bool:
    """Equal as float64 bit patterns (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


STATE = ("m", "v", "v_hat", "last_eta_t")


def grid_configs(algo):
    """The configs of the step-stream grid: both first-moment regimes, a
    short and the default second-moment memory, epsilon 0 and the default,
    and the regret decay where it applies."""
    extra = {"eta_sgd": 0.1, "gamma": 1e-3} if algo == "adabound" else {}
    decays = (False, True) if algo == "adasgdmax" else (False,)
    return [OptimizerConfig(eta=eta, beta1=b1, beta2=b2, epsilon=eps, regret_decay=decay, **extra)
            for eta in (0.1, 3.0) for b1 in (0.0, 0.9) for b2 in (0.5, 0.999)
            for eps in (0.0, 1e-8) for decay in decays]


def grid_streams(dim):
    """Gradient streams: Gaussian at three scales, a run of exact zeros
    before the first nonzero gradient, and a non-finite value mid-run."""
    rng = np.random.default_rng(dim)
    streams = [scale * rng.standard_normal((30, dim)) for scale in (1e-3, 1.0, 1e3)]
    zeros_first = rng.standard_normal((30, dim))
    zeros_first[:5] = 0.0
    streams.append(zeros_first)
    for bad in (np.inf, -np.inf, np.nan):
        stream = rng.standard_normal((30, dim))
        stream[12, dim - 1] = bad
        streams.append(stream)
    return streams


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # epsilon = 0 meets zero gradients
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_matches_reference_bitwise_on_step_stream_grid(algo):
    steps = 0
    for dim in (1, 3):
        for config in grid_configs(algo):
            for stream in grid_streams(dim):
                new, ref = Optimizer(algo, dim, config), ReferenceOptimizer(algo, dim, config)
                theta_new = theta_ref = np.linspace(-1.0, 1.0, dim)
                for g in stream:
                    # The reference freezes where Optimizer leaves the stop
                    # to its caller: compare up to the first non-finite g or
                    # theta.
                    if not np.isfinite(g).all():
                        break
                    theta_new, theta_ref = new.step(theta_new, g), ref.step(theta_ref, g)
                    assert same_bits(theta_new, theta_ref)
                    assert all(same_bits(np.reshape(getattr(new, k)[0], np.shape(getattr(ref, k))),
                                        getattr(ref, k)) for k in STATE)
                    assert new.t == ref.t
                    steps += 1
                    if not np.isfinite(theta_ref).all():
                        break
    # Four finite streams of 30 steps, three whose step 13 has a non-finite
    # g; adam and amsgrad at epsilon 0 make theta 0/0 on the zeros-first
    # stream's first step.
    nan_first = sum(c.epsilon == 0.0 for c in grid_configs(algo)) if algo in ("adam", "amsgrad") else 0
    assert steps == 2 * (len(grid_configs(algo)) * (4 * 30 + 3 * 12) - nan_first * 29)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_batch_rows_match_single_runs_bitwise(algo):
    # Rows differ in eta; one row sees a non-finite gradient at step 7 and
    # another only zero gradients for its first 4 steps, so the batch runs
    # through a non-finite row beside finite ones and the zero-gradient path.  Each single
    # run is a one-row batch, stepped with (dim,) vectors on even rows and
    # (1, dim) rows on odd ones; its state is row i of the batch's.
    base = grid_configs(algo)[-1]
    configs = [OptimizerConfig(**{**vars(base), "eta": eta}) for eta in (0.05, 0.3, 2.0, 0.3)]
    dim, rows = 3, len(configs)
    rng = np.random.default_rng(11)
    grads = rng.standard_normal((25, rows, dim))
    grads[6, 1, 0] = np.nan
    grads[:4, 2] = 0.0
    batch = Optimizer(algo, dim, configs)
    singles = [Optimizer(algo, dim, c) for c in configs]
    assert all(getattr(opt, k).shape in ((1, dim), (1, 1)) for opt in singles for k in STATE)
    shapes = [(dim,) if i % 2 == 0 else (1, dim) for i in range(rows)]
    theta = np.tile(np.linspace(-1.0, 1.0, dim), (rows, 1))
    thetas = [th.reshape(shape) for th, shape in zip(theta, shapes)]
    for g in grads:
        theta = batch.step(theta, g)
        thetas = [opt.step(th, g[i].reshape(shapes[i]))
                  for i, (opt, th) in enumerate(zip(singles, thetas))]
        for i, opt in enumerate(singles):
            assert thetas[i].shape == shapes[i]
            assert same_bits(theta[i], thetas[i].reshape(dim))
            for k in STATE:
                assert same_bits(getattr(batch, k)[i:i + 1], getattr(opt, k))


def test_batch_select_keeps_rows():
    configs = [OptimizerConfig(eta=eta) for eta in (0.1, 0.2, 0.3)]
    batch = Optimizer("adam", 2, configs)
    batch.step(np.zeros((3, 2)), np.ones((3, 2)))
    batch.select(np.array([True, False, True]))
    assert batch.eta[:, 0].tolist() == [0.1, 0.3]
    assert batch.m.shape == batch.v.shape == (2, 2)
    batch.select(np.array([1]))   # down to a one-row batch
    assert batch.eta.tolist() == [[0.3]]
    assert batch.v_hat.shape == batch.last_eta_t.shape == (1, 1) and batch.m.shape == (1, 2)
    assert batch.step(np.zeros(2), np.ones(2)).shape == (2,)
    assert batch.step(np.zeros((1, 2)), np.ones((1, 2))).shape == (1, 2)


def test_batch_rows_may_differ_only_in_eta():
    with pytest.raises(ValueError, match="differ only in eta"):
        Optimizer("adam", 2, [OptimizerConfig(eta=0.1), OptimizerConfig(eta=0.1, beta1=0.5)])
    with pytest.raises(ValueError, match="at least one config"):
        Optimizer("adam", 2, [])
