"""Property tests: config resolution never lets an ill-typed value through or
raises anything but UsageError, AdaSGDMax's eta_t never increases, and box
projection is idempotent."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from optbench.cli import COMMANDS, UsageError, defaults, resolve_params
from optbench.linalg import project_box
from optbench.optim import OptimizerConfig, make_optimizer

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
    opt = make_optimizer("adasgdmax", 3, OptimizerConfig(eta=0.1, beta1=beta1,
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
