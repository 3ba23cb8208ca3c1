"""Property tests: config resolution never lets an ill-typed value through or
raises anything but UsageError, any argv ends in an exit code of the 0/1/2/3
contract (with every runner stubbed, and again with each real runner at a tiny
size on junk numbers), AdaSGDMax's eta_t never increases, box projection is
idempotent, serialized problems round-trip bit for bit, the loss never exceeds
the norm bound the batch engine's stop rule relies on, the engine's stacked
stop-test loss rounds as full_loss does row by row, the numpy Spearman
equals SciPy's on tied and untied inputs, AdaSGD's final distance to the
optimum stays within its bound on generated deterministic quadratics, and the
rules with one global rate commute with rotations while all six commute with
signed permutations."""

import contextlib
import functools
import io
import json
import os
import tempfile

import numpy as np
import pytest
import scipy.stats
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import optbench.experiments as experiments
from optbench.cli import COMMANDS, PRESETS, UsageError, defaults, main, resolve_params
from optbench.experiments import (
    BETA2,
    BatchRow,
    StabilityReport,
    check_distance_bound,
    derive_rng,
    run_batch,
    stability_spearman,
)
from optbench.linalg import haar_orthogonal, project_box
from optbench.optim import ALGORITHMS, Optimizer, OptimizerConfig
from optbench.problems import (
    GenSpec,
    QuadraticProblem,
    full_loss,
    generate_from_seed,
    generate_least_squares,
    problem_from_data,
)

KEYS = [(sub, key) for sub in COMMANDS for key in defaults(sub)]
PROPERTY = settings(max_examples=20, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=True), st.text(max_size=8))
JSON_VALUES = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=4))


def has_type_of(value, template) -> bool:
    if isinstance(template, tuple):
        return (isinstance(value, tuple) and len(value) > 0
                and all(type(v) is type(template[0]) for v in value))
    return type(value) is type(template)


def resolved(sub, key, file_params, overrides):
    try:
        params, _ = resolve_params(sub, None, file_params, overrides)
    except UsageError:
        return None
    return params[key]


@pytest.mark.parametrize("sub,key", KEYS)
@PROPERTY
@given(raw=st.text(max_size=12))
def test_set_text_resolves_to_default_type(sub, key, raw):
    value = resolved(sub, key, {}, [f"{key}={raw}"])
    assert value is None or has_type_of(value, defaults(sub)[key])


@pytest.mark.parametrize("sub,key", KEYS)
@PROPERTY
@given(value=JSON_VALUES)
def test_config_value_resolves_to_default_type(sub, key, value):
    # Round-trip through JSON so the value is one a config file can hold.
    file_value = json.loads(json.dumps(value))
    out = resolved(sub, key, {key: file_value}, [])
    assert out is None or has_type_of(out, defaults(sub)[key])


@settings(max_examples=200, deadline=None)
@given(
    grads=st.lists(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
                   min_size=1, max_size=40),
    beta1=st.sampled_from([0.0, 0.9]),
    decay=st.booleans(),
)
def test_adasgdmax_eta_t_never_increases(grads, beta1, decay):
    opt = Optimizer("adasgdmax", 3, OptimizerConfig(eta=0.1, beta1=beta1,
                                                    regret_decay=decay))
    theta = np.zeros(3)
    etas = []
    for g in grads:
        theta = opt.step(theta, np.array(g))
        if opt.v_hat > 0.0:  # eta_t is defined once a nonzero gradient arrived
            etas.append(opt.last_eta_t)
    assert all(b <= a for a, b in zip(etas, etas[1:]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 6))
def test_project_box_is_idempotent(data, dim):
    finite = st.floats(-1e300, 1e300)
    a = np.array(data.draw(st.lists(finite, min_size=dim, max_size=dim)))
    b = np.array(data.draw(st.lists(finite, min_size=dim, max_size=dim)))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    theta = np.array(data.draw(st.lists(st.floats(allow_nan=False), min_size=dim,
                                        max_size=dim)))
    once = project_box(theta, lo, hi)
    assert np.all((lo <= once) & (once <= hi))
    np.testing.assert_array_equal(project_box(once, lo, hi), once)


def stub_runner(command):
    """A runner with the real one's signature (so the CLI resolves the same
    keys) that returns empty tables and, for the checks, one failure."""
    @functools.wraps(getattr(experiments, command.runner))
    def run(seed, **params):
        tables = tuple([] for _ in command.outputs)
        result = tables if len(tables) > 1 else tables[0]
        return (result, ["stub failure"]) if command.checks else result
    return run


@st.composite
def argv_and_config(draw, out, blocker):
    """Subcommand, flags and --set/--config junk.  Every output path is out
    (a fresh directory) or blocker (an existing file), so nothing is written
    elsewhere."""
    sub = draw(st.one_of(st.sampled_from(sorted(COMMANDS)), st.text(max_size=8)))
    keys = sorted(defaults(sub)) if sub in COMMANDS else []
    argv = [sub]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(0, 100)))]
    if draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from([out, blocker]))]
    config = None
    for flag in draw(st.lists(st.sampled_from(
            ["--seed", "--workers", "--preset", "--set", "--config", "--out", "--bogus", "-h"]),
            max_size=6)):
        if flag in ("--seed", "--workers"):
            argv += [flag, draw(st.one_of(st.integers(-3, 10**6).map(str), st.text(max_size=6)))]
        elif flag == "--preset":
            argv += [flag, draw(st.one_of(st.sampled_from(sorted(PRESETS)), st.text(max_size=6)))]
        elif flag == "--set":
            key = draw(st.sampled_from(keys) if keys else st.text(max_size=6))
            argv += [flag, draw(st.sampled_from([f"{key}=", key])) + draw(st.text(max_size=10))]
        elif flag == "--config":
            argv += [flag, draw(st.sampled_from(["CONFIG", "MISSING"]))]
            params = st.dictionaries(st.sampled_from(keys) if keys else st.text(max_size=6),
                                     JSON_VALUES, max_size=3)
            doc = st.fixed_dictionaries({}, optional={
                "params": st.one_of(params, JSON_VALUES),
                "master_seed": st.one_of(st.integers(-3, 10**6), JSON_SCALARS),
                "workers": st.one_of(st.integers(-3, 64), JSON_SCALARS),
                "out_dir": st.one_of(st.sampled_from([out, blocker]), st.integers(),
                                     st.lists(st.integers(), max_size=2)),
            })
            config = draw(st.one_of(doc.map(json.dumps), JSON_VALUES.map(json.dumps),
                                    st.text(max_size=20)))
        elif flag == "--out":
            argv += [flag, draw(st.sampled_from([out, blocker]))]
        else:
            argv.append(flag)
    return argv, config


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_argv_exits_with_a_contract_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        blocker = os.path.join(tmp, "file")
        with open(blocker, "w") as fh:
            fh.write("x")
        argv, config = data.draw(argv_and_config(out, blocker))
        config_path = os.path.join(tmp, "run.json")
        if config is not None:
            with open(config_path, "w", encoding="utf-8") as fh:
                fh.write(config)
        paths = {"CONFIG": config_path, "MISSING": os.path.join(tmp, "missing.json")}
        argv = [paths.get(a, a) for a in argv]
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            for command in COMMANDS.values():
                mp.setattr(experiments, command.runner, stub_runner(command))
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


@st.composite
def gen_specs(draw):
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 12))
    lambda_max = draw(st.floats(1e-3, 1e6))
    if d == 1:
        lambda_min = lambda_max
    elif n < d or draw(st.booleans()):
        lambda_min = 0.0
    else:
        lambda_min = lambda_max * draw(st.floats(1e-6, 1.0))
    angle = draw(st.one_of(st.none(), st.floats(-90.0, 90.0))) if d == 2 else None
    axis_aligned = angle is None and draw(st.booleans())
    return GenSpec(n=n, d=d, lambda_max=lambda_max, lambda_min=lambda_min,
                   y_std=draw(st.floats(0.0, 10.0)), angle_2d=angle, axis_aligned=axis_aligned)


@settings(max_examples=100, deadline=None)
@given(spec=gen_specs(), seed=st.integers(0, 2**63 - 1))
def test_problem_json_round_trip_is_bit_identical(spec, seed):
    p = generate_from_seed(spec, seed)
    p2 = QuadraticProblem.from_json(p.to_json())
    assert p2.spec == spec
    assert p2.seed == seed
    for name in ("x", "y", "q", "lam"):
        assert getattr(p2, name).tobytes() == getattr(p, name).tobytes(), name


@settings(max_examples=200, deadline=None)
@given(spec=gen_specs(), seed=st.integers(0, 2**63 - 1), log_scale=st.floats(-3.0, 30.0),
       direction=st.integers(0, 2**32 - 1))
def test_loss_is_within_the_norm_bound(spec, seed, log_scale, direction):
    # ||X theta - y|| <= ||X||_F ||theta|| + ||y||, up to rounding: equality
    # holds for d = 1 and y = 0, and the 1e-12 slack sits far inside the factor
    # 2 between experiments.SCREEN_CAP and LOSS_CAP.
    p = generate_from_seed(spec, seed)
    theta = np.random.default_rng(direction).standard_normal(p.d)
    theta *= 10.0 ** log_scale / np.linalg.norm(theta)
    reach = np.linalg.norm(p.x) * np.linalg.norm(theta) + np.linalg.norm(p.y)
    assert full_loss(p, theta) <= 0.5 * reach * reach * (1 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 5), n=st.integers(1, 12), log_lambda=st.floats(-3.0, 300.0),
       ratio=st.floats(0.0, 1.0), log_y=st.floats(-3.0, 26.0), scale=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_theta_under_the_screen_limit_has_its_loss_under_the_cap(d, n, log_lambda, ratio,
                                                                 log_y, scale, seed):
    # The batch engine skips the exact loss of a sampled row while its
    # theta . theta is under its problem's limit; scales reach the limit itself.
    lambda_max = 10.0 ** log_lambda
    lambda_min = lambda_max if d == 1 else 0.0 if n < d else lambda_max * ratio
    spec = GenSpec(n=n, d=d, lambda_max=lambda_max, lambda_min=lambda_min,
                   y_std=10.0 ** log_y)
    p = generate_from_seed(spec, seed)
    lim = experiments._screen_limits(p.x[None], p.y[None])[0]
    theta = np.random.default_rng(seed).standard_normal(d)
    theta *= np.sqrt(lim) * scale / np.linalg.norm(theta)
    assume(theta @ theta < lim)
    assert full_loss(p, theta) < experiments.LOSS_CAP


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 300), d=st.integers(1, 100), rows=st.integers(1, 6),
       log_x=st.floats(-3.0, 3.0), log_scale=st.floats(-5.0, 30.0),
       seed=st.integers(0, 2**32 - 1))
def test_the_stacked_stop_loss_equals_full_loss_bit_for_bit(n, d, rows, log_x, log_scale,
                                                            seed):
    # The batch engine's stop test forms the raw loss of one problem's rows
    # over their limit as one _regret call on its slice of the stacked data.
    rng = np.random.default_rng(seed)
    probs = [problem_from_data(10.0 ** log_x * rng.standard_normal((n, d)),
                               rng.standard_normal(n)) for _ in range(2)]
    xs, ys = np.stack([p.x for p in probs]), np.stack([p.y for p in probs])
    theta = 10.0 ** log_scale * rng.standard_normal((rows, d))
    stacked = experiments._regret(xs[1], theta, 0.0, ys[1])
    assert stacked.tobytes() == np.array([full_loss(probs[1], t) for t in theta]).tobytes()


# Tiny sizes for the real runners; the fuzz below overrides some of these keys.
TINY = {
    "align-mc": {"dims": "2,3", "samples_per_dim": "20"},
    "angle": {"angles": "0,30", "seeds": "1", "steps": "5", "n": "4"},
    "distance-bound": {"d_values": "2", "cond_values": "10", "eta_values": "0.01",
                       "steps": "20"},
    "heatmap": {"lambda_max_values": "1", "cond_values": "1,10", "seeds": "1", "steps": "5",
                "d": "2", "n": "4"},
    "minnorm": {"n": "4", "d": "2", "steps": "20"},
    "regret": {"seeds": "1", "t_values": "3,5", "d": "2"},
    "ridge-path": {"pool_n": "20", "train_n": "4", "seeds": "2", "steps": "20",
                   "snapshot_stride": "5", "recursion_steps": "20"},
    "stability": {"n": "6", "d": "3", "swaps": "1", "seeds": "1", "degenerate_n": "3",
                  "degenerate_d": "4", "degenerate_rank": "2"},
    "theorem-range": {"d": "3", "steps": "50"},
    "trajectory": {"d": "3", "n": "6", "steps": "20"},
}
JUNK_NUMBERS = ["nan", "inf", "-inf", "0", "-1", "-2.5", "0.5", "1", "2", "3"]


def numeric_keys(sub):
    keys = []
    for key, value in defaults(sub).items():
        scalar = value[0] if isinstance(value, tuple) else value
        if isinstance(scalar, (int, float)) and not isinstance(scalar, bool):
            keys.append(key)
    return sorted(keys)


def test_every_subcommand_has_a_tiny_size():
    assert set(TINY) == set(COMMANDS)


@pytest.mark.parametrize("sub", sorted(TINY))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_real_runner_on_junk_numbers_exits_with_a_contract_code(sub, data):
    junk = data.draw(st.dictionaries(
        st.sampled_from(numeric_keys(sub)),
        st.lists(st.sampled_from(JUNK_NUMBERS), min_size=1, max_size=2).map(",".join),
        min_size=1, max_size=3))
    overrides = [f"{key}={value}" for key, value in {**TINY[sub], **junk}.items()]
    with tempfile.TemporaryDirectory() as tmp:
        argv = [sub, "--seed", "0", "--workers", "1", "--out", tmp]
        for item in overrides:
            argv += ["--set", item]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# Few distinct values, so that runs of ties (and of exact zeros) are common.
TIE_POOL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300])


@st.composite
def spearman_inputs(draw):
    """Two equal-length, non-constant, finite vectors.  Half the draws take the
    shape of a degenerate stability report: the trailing entries of both are
    exact zeros, as for the d - rank zero eigenvalues."""
    n = draw(st.integers(2, 60))
    value = st.one_of(TIE_POOL, st.integers(-3, 3).map(float),
                      st.floats(allow_nan=False, allow_infinity=False))
    a = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    b = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    if draw(st.booleans()):
        zeros = draw(st.integers(1, n - 1))
        a[n - zeros:] = 0.0
        b[n - zeros:] = 0.0
    assume(len(set(a)) > 1 and len(set(b)) > 1)
    return a, b


@settings(max_examples=150, deadline=None)
@given(inputs=spearman_inputs())
def test_spearman_equals_scipy_bit_for_bit(inputs):
    a, b = inputs
    report = StabilityReport(eigenvalues=a, mean_abs_change=b, mean_loss_change=b, swaps=1)
    assert stability_spearman(report) == float(scipy.stats.spearmanr(a, b)[0])


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 12), log_cond=st.floats(0.0, 3.0), log_eta=st.floats(-4.0, 0.0),
       steps=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1))
def test_adasgd_distance_stays_within_the_bound(d, log_cond, log_eta, steps, seed):
    rows, failures = check_distance_bound(seed, d_values=(d,), cond_values=(10.0 ** log_cond,),
                                          eta_values=(10.0 ** log_eta,), steps=steps)
    assert failures == [], failures
    assert rows[0]["distance"] <= rows[0]["bound"]


# A stable config of every rule on the problems below (lambda_max = 1).
RULES = {
    "sgd": OptimizerConfig(eta=0.1),
    "adam": OptimizerConfig(eta=0.01),
    "amsgrad": OptimizerConfig(eta=0.01),
    "adabound": OptimizerConfig(eta=0.01, eta_sgd=0.1, gamma=1e-2),
    "adasgd": OptimizerConfig(eta=0.01, beta2=BETA2),
    "adasgdmax": OptimizerConfig(eta=0.1, beta2=BETA2),
}
assert set(RULES) == set(ALGORITHMS)
GLOBAL_RATE = ("sgd", "adasgd", "adasgdmax")


def transformed_drift(problem, q, theta0, algos, steps, indices):
    """||theta' - Q theta|| / ||theta|| for each rule: theta from a run on
    (X, y) from theta0, theta' from a run on (X Q.T, y) from Q theta0, both
    with the same sample indices (full-gradient steps for None)."""
    rows = [BatchRow(0, algo, RULES[algo], indices) for algo in algos]
    base = run_batch([problem], theta0[None], rows, steps)
    moved = run_batch([problem_from_data(problem.x @ q.T, problem.y)], (q @ theta0)[None],
                      rows, steps)
    assert not (base.stopped.any() or moved.stopped.any())
    return np.linalg.norm(moved.theta - base.theta @ q.T, axis=1) / np.linalg.norm(base.theta,
                                                                                    axis=1)


def equivariance_case(d, n, log_cond, seed, steps, sampled):
    """A full-rank problem, a start, the step count, a sample stream (or None)
    and the generator the transform is drawn from."""
    problem = generate_least_squares(
        GenSpec(n=n, d=d, lambda_max=1.0, lambda_min=10.0 ** -log_cond), derive_rng(seed, 0))
    rng = derive_rng(seed, 1)
    indices = rng.integers(n, size=steps) if sampled else None
    return problem, rng.standard_normal(d), steps, indices, rng


@st.composite
def equivariance_cases(draw):
    d = draw(st.integers(2, 12))
    n = draw(st.integers(d, 4 * d))
    log_cond, seed = draw(st.floats(0.0, 3.0)), draw(st.integers(0, 2**32 - 1))
    return equivariance_case(d, n, log_cond, seed, draw(st.integers(1, 200)), draw(st.booleans()))


# Measured drift stays under 0.5 eps per step; the bound leaves a factor 8.
def drift_bound(steps):
    return 4 * steps * np.finfo(float).eps


def cancellation_weight(problem, snapshots, indices):
    """(||theta_0|| + sum_t kappa_t ||theta_t - theta_(t-1)||) / ||theta_T|| for
    one run's snapshots, where kappa_t = || |X|.T (|X| |theta| + |y|) || / ||g||
    is the cancellation factor of step t's gradient g = X.T (X theta - y) at
    theta = theta_(t-1), over the rows the step uses (all, or the sampled one).
    A step that did not move adds nothing."""
    x, y, theta = problem.x, problem.y, snapshots[:-1]
    if indices is not None:
        x, y = x[indices[:len(theta)], None], y[indices[:len(theta)], None]   # one row per step
    else:
        x, y = np.broadcast_to(x, (len(theta), *x.shape)), np.broadcast_to(y, (len(theta), len(y)))
    terms = np.abs(x) * (np.vecdot(np.abs(x), np.abs(theta)[:, None]) + np.abs(y))[:, :, None]
    g = x * (np.vecdot(x, theta[:, None]) - y)[:, :, None]
    moved = np.linalg.norm(np.diff(snapshots, axis=0), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.linalg.norm(terms.sum(axis=1), axis=1) / np.linalg.norm(g.sum(axis=1), axis=1)
        weighted = np.where(moved > 0, kappa * moved, 0.0)
    return (np.linalg.norm(snapshots[0]) + weighted.sum()) / np.linalg.norm(snapshots[-1])


def rotation_drift_bound(problem, theta0, algos, steps, indices):
    """drift_bound plus 2 (d + n) eps times each run's cancellation_weight.

    A rotation rounds Q theta0 and X Q.T once, in d-term sums, and the two
    runs round their gradients' n-term sums differently, so a step's
    gradient can differ from the rotated one by up to
    (d + n) eps || |X|.T (|X| |theta| + |y|) ||: a relative error of
    (d + n) eps kappa_t.  A global rate carries it into both the direction
    and the size of the step (the factor 2), and the rounded theta0 adds
    d eps ||theta_0||.  Over 24,200 drawn cases of 3 rules each (22,000 of
    them with d <= 3 and steps <= 3) the largest
    (drift / eps - 4 steps) / ((d + n) weight) measured was 0.086, and 0.31
    on the first example below."""
    rows = [BatchRow(0, algo, RULES[algo], indices) for algo in algos]
    traces = run_batch([problem], theta0[None], rows, steps, snapshot_stride=1).traces
    weights = np.array([cancellation_weight(problem, trace.snapshots, indices)
                        for trace in traces])
    return drift_bound(steps) + 2 * (problem.d + problem.n) * weights * np.finfo(float).eps


@settings(max_examples=20, deadline=None)
@given(case=equivariance_cases())
# adasgdmax drifted 649 (d eps) above the per-step term here, where kappa is
# about 2,500: d = 2, n = 7, 2 full-gradient steps.  sgd drifted 3.04e-15 in
# the second, over the 1.78e-15 of drift_bound: d = n = 2, 2 sampled steps.
@example(case=equivariance_case(2, 7, 2.355, 2892855160, 2, False))
@example(case=equivariance_case(2, 2, 1.0, 13608, 2, True))
def test_global_rate_rules_commute_with_rotations(case):
    # Their step is linear in g and their rate depends on g only through
    # ||g||, which a rotation keeps.
    problem, theta0, steps, indices, rng = case
    q = haar_orthogonal(problem.d, rng)
    drift = transformed_drift(problem, q, theta0, GLOBAL_RATE, steps, indices)
    assert (drift <= rotation_drift_bound(problem, theta0, GLOBAL_RATE, steps, indices)).all(), \
        drift


@settings(max_examples=20, deadline=None)
@given(case=equivariance_cases())
def test_every_rule_commutes_with_signed_permutations(case):
    # A per-coordinate rule only permutes its state, and its g^2 ignores signs.
    problem, theta0, steps, indices, rng = case
    d = problem.d
    q = np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], size=d)[:, None]
    drift = transformed_drift(problem, q, theta0, ALGORITHMS, steps, indices)
    assert (drift <= drift_bound(steps)).all(), drift


def test_per_coordinate_rules_do_not_commute_with_a_45_degree_turn():
    # An axis-aligned 2-d problem turned by 45 degrees: the global-rate rules
    # follow it, while adam, amsgrad and adabound, whose per-coordinate rates
    # see the turned gradients, end up elsewhere.
    problem = generate_least_squares(
        GenSpec(n=20, d=2, lambda_max=1.0, lambda_min=1e-2, axis_aligned=True),
        derive_rng(0, 0))
    c = np.sqrt(0.5)
    q = np.array([[c, -c], [c, c]])
    steps = 200
    drift = dict(zip(ALGORITHMS, transformed_drift(
        problem, q, derive_rng(0, 1).standard_normal(2), ALGORITHMS, steps,
        derive_rng(0, 2).integers(20, size=steps))))
    assert all(drift[algo] <= drift_bound(steps) for algo in GLOBAL_RATE), drift
    assert all(drift[algo] > 1e-3 for algo in ("adam", "amsgrad", "adabound")), drift


@pytest.mark.parametrize("algo", ALGORITHMS)
@settings(max_examples=40, deadline=None)
@given(rows=st.integers(2, 5), d=st.integers(1, 6), warmup=st.integers(0, 3),
       bad_value=st.sampled_from([np.inf, -np.inf, np.nan]), beta1=st.sampled_from([0.0, 0.9]),
       gamma=st.sampled_from([1e-20, 1e-2]), decay=st.booleans(),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_a_non_finite_gradient_entry_leaves_its_theta_entry_non_finite(
        algo, rows, d, warmup, bad_value, beta1, gamma, decay, seed, data):
    # run_batch's one stop test reads only theta: it rests on every rule
    # adding g into m and subtracting rate * m, with no rate that is exactly
    # 0 skipping the subtraction (0 * inf is NaN).  gamma = 1e-20 puts
    # adabound's lower clip at 0; zeroed rows take adasgd's zero-moment path.
    bad_row, k = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, d - 1))
    rng = np.random.default_rng(seed)
    configs = [OptimizerConfig(eta=10.0 ** rng.uniform(-3, 1), beta1=beta1, regret_decay=decay,
                               eta_sgd=0.1, gamma=gamma) for _ in range(rows)]
    grads = rng.standard_normal((warmup + 1, rows, d))
    grads[:, rng.random(rows) < 0.3] = 0.0
    grads[-1, bad_row, k] = bad_value
    others = np.arange(rows) != bad_row
    theta = rng.standard_normal((rows, d))
    rest = theta[others]
    batch = Optimizer(algo, d, configs)
    alone = Optimizer(algo, d, [c for c, keep in zip(configs, others) if keep])
    with np.errstate(all="ignore"):   # as in run_batch
        for g in grads:
            batch.update(theta, g)
            alone.update(rest, g[others])
    assert not np.isfinite(theta[bad_row, k])
    assert theta[others].tobytes() == rest.tobytes()
