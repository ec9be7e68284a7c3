"""Closed registry of activation functions with trusted derivative constants.

The drift and diffusion of the limiting dynamics depend on the exact values
of the first and second derivative of the outer activation at the origin, so
activations are registered here with hand-checked constants rather than being
user-pluggable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Activation:
    """A scalar activation together with its local behaviour at 0.

    ``fn`` is applied element-wise and must be a total function on floats.
    ``diffusion_ok`` marks activations admissible as the outer nonlinearity
    of a residual block in diffusion mode (requires value 0 at the origin
    and enough smoothness); relu is registered for the edge-of-chaos
    feedforward baseline only.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray]
    phi0: float
    dphi0: float
    ddphi0: float
    diffusion_ok: bool = True

    def __call__(self, x):
        return self.fn(x)

    def deriv(self, x):
        return self.dfn(x)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))


def _swish(x):
    # x * sigmoid(x), written to stay finite for large |x|.
    return x * _sigmoid(x)


def _swish_deriv(x):
    s = _sigmoid(x)
    return s + x * s * (1.0 - s)


def _tanh(x):
    return np.tanh(np.asarray(x, dtype=float))


def _tanh_deriv(x):
    return 1.0 - np.tanh(np.asarray(x, dtype=float)) ** 2


def _relu(x):
    return np.maximum(np.asarray(x, dtype=float), 0.0)


def _relu_deriv(x):
    return (np.asarray(x, dtype=float) > 0).astype(float)


def _identity(x):
    return np.asarray(x, dtype=float)


def _one(x):
    return np.ones_like(np.asarray(x, dtype=float))


TANH = Activation("tanh", _tanh, _tanh_deriv, 0.0, 1.0, 0.0)
SWISH = Activation("swish", _swish, _swish_deriv, 0.0, 0.5, 0.5)
IDENTITY = Activation("identity", _identity, _one, 0.0, 1.0, 0.0)
# relu's constants are the symmetric (central-difference) values; they are
# never consumed by the diffusion coefficients.
RELU = Activation("relu", _relu, _relu_deriv, 0.0, 0.5, 0.0, diffusion_ok=False)

_REGISTRY = {a.name: a for a in (TANH, SWISH, IDENTITY, RELU)}


def get_activation(name: str) -> Activation:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown activation {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
