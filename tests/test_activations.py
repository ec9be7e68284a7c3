import numpy as np
import pytest

from depthflow import get_activation
from depthflow.errors import ConfigError

ACTIVATIONS = ("identity", "relu", "swish", "tanh")


def central_diff_4th(f, x, h):
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def second_diff(f, x, h):
    return (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)


@pytest.mark.parametrize("name", ACTIVATIONS)
def test_derivative_constants_match_finite_differences(name):
    act = get_activation(name)
    h = 1e-3
    d1 = central_diff_4th(act.fn, 0.0, h)
    assert d1 == pytest.approx(act.dphi0, rel=1e-6, abs=1e-9)
    if name != "relu":
        d2 = second_diff(act.fn, 0.0, 1e-4)
        assert d2 == pytest.approx(act.ddphi0, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("name", ACTIVATIONS)
def test_diffusion_admitted_activations_vanish_at_zero(name):
    act = get_activation(name)
    if act.diffusion_ok:
        assert act.phi0 == 0.0
        assert act(0.0) == 0.0


def test_tanh_values():
    tanh = get_activation("tanh")
    assert tanh(0.0) == 0.0
    assert tanh.dphi0 == 1.0 and tanh.ddphi0 == 0.0
    assert tanh(20.0) == pytest.approx(1.0, abs=1e-12)


def test_swish_constants():
    swish = get_activation("swish")
    assert swish(0.0) == 0.0
    assert swish.dphi0 == 0.5 and swish.ddphi0 == 0.5


def test_extreme_inputs_stay_finite():
    for name in ("tanh", "relu", "swish"):
        act = get_activation(name)
        assert np.isfinite(act(np.array([-1e8, 1e8]))).all()


def test_derivative_evaluators():
    xs = np.linspace(-3, 3, 41)
    h = 1e-6
    for name in ("tanh", "swish", "identity"):
        act = get_activation(name)
        fd = (act(xs + h) - act(xs - h)) / (2 * h)
        assert np.allclose(act.deriv(xs), fd, atol=1e-8)


def test_unknown_activation_rejected():
    with pytest.raises(ConfigError):
        get_activation("gelu")
