"""Limiting-SDE coefficients and coupled Euler-Maruyama simulation.

The drift and diffusion are state-dependent functions of the parameter
law's conditional variance V(x). The Euler step of :func:`simulate_paths`
is the residual step x + phi(h) to second order,
x + phi'(0) h + 0.5 phi''(0) E[h^2 | x], driven by the same layer
increment h = dW psi(x) + db (:func:`depthflow.resnet._layer_increment`),
one draw per step shared by all inputs, which reproduces both the marginal
law of each trajectory and the cross-covariation between trajectories of
different inputs. The drift's mean term rides in h, and only the Ito term
0.5 phi''(0) diag V(x) dt is added. The increment's sampler is the
residual network's (:func:`depthflow.resnet.choose_sampler`);
``noise="materialized"`` is the one override.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import Activation
from .config import SeedSpec
from .errors import ConfigError
from .laws import (FullyIidLaw, GeneralGaussianLaw, MatrixNormalLaw, ParamLaw,
                   conditional_variance, psd_sqrt, time_change_rescale)
# _freeze_diverged and _batched_psd_factor are unused here;
# perfbench/test_selftest.py looks both up here
from .resnet import HARD_CAP, PathBatch, _batched_psd_factor, \
    _freeze_diverged, _layer_increment, _propagate, choose_sampler  # noqa: F401

__all__ = [
    "SdeCoefficients", "drift_eval", "diffusion_eval", "euler_step_decoupled",
    "euler_step_coupled", "simulate_paths", "time_change_rescale",
    "linear_growth_check",
]


@dataclass(frozen=True)
class SdeCoefficients:
    """Drift and diffusion-factor evaluators for one law and activation pair."""

    law: ParamLaw
    phi: Activation
    psi: Activation

    def __post_init__(self):
        if not self.phi.diffusion_ok:
            raise ConfigError(
                f"activation {self.phi.name!r} is not admitted in diffusion mode"
            )

    def drift(self, x: np.ndarray) -> np.ndarray:
        return drift_eval(self, x)

    def diffusion_factor(self, x: np.ndarray) -> np.ndarray:
        return diffusion_eval(self, x)


def drift_eval(coeffs: SdeCoefficients, x: np.ndarray) -> np.ndarray:
    """Drift vector: phi'(0)(mu_b + mu_W psi(x)) + 0.5 phi''(0) diag(V(x))."""
    x = np.asarray(x, dtype=float)
    law = coeffs.law
    px = coeffs.psi(x)
    return coeffs.phi.dphi0 * (law.mean_b + law.mean_W @ px) \
        + _batched_drift(coeffs, px)


def diffusion_eval(coeffs: SdeCoefficients, x: np.ndarray) -> np.ndarray:
    """Diffusion factor: phi'(0) times the PSD root of V(x)."""
    x = np.asarray(x, dtype=float)
    V = conditional_variance(coeffs.law, coeffs.psi(x))
    return coeffs.phi.dphi0 * psd_sqrt(V)


def euler_step_decoupled(coeffs: SdeCoefficients, x: np.ndarray, dt: float,
                         zeta: np.ndarray) -> np.ndarray:
    """One Euler-Maruyama step driven by a per-state standard normal."""
    if not dt > 0:
        raise ConfigError(f"dt must be > 0, got {dt}")
    x = np.asarray(x, dtype=float)
    return x + coeffs.drift(x) * dt \
        + coeffs.diffusion_factor(x) @ np.asarray(zeta, dtype=float) * np.sqrt(dt)


def _scaled_noise_term(law: ParamLaw, psi_states: np.ndarray,
                       epsW: np.ndarray, epsb: np.ndarray) -> np.ndarray:
    """The shared-noise diffusion term S_O epsW S_I psi(x) + sigma_b epsb.

    ``psi_states`` is (..., N, D); ``epsW`` (..., D, D) and ``epsb``
    (..., D) are standardized and shared across the N inputs.
    """
    if isinstance(law, FullyIidLaw):
        sW = (law.sigma_w / np.sqrt(law.dim)) * epsW
        sb = law.sigma_b * epsb
    elif isinstance(law, MatrixNormalLaw):
        sW = law.sigmaWO @ epsW @ law.sigmaWI
        sb = np.einsum("de,...e->...d", law.sigmab, epsb)
    elif isinstance(law, GeneralGaussianLaw):
        D = law.dim
        vec = np.swapaxes(epsW, -1, -2).reshape(epsW.shape[:-2] + (D * D,))
        vec = vec @ law.weight_factor.T
        sW = np.swapaxes(vec.reshape(epsW.shape[:-2] + (D, D)), -1, -2)
        sb = epsb @ law.bias_factor.T
    else:
        raise ConfigError(f"unknown parameter law {type(law).__name__}")
    return psi_states @ np.swapaxes(sW, -1, -2) + sb[..., None, :]


def euler_step_coupled(coeffs: SdeCoefficients, states: np.ndarray, dt: float,
                       epsW: np.ndarray, epsb: np.ndarray) -> np.ndarray:
    """Advance N coupled inputs by one step with shared standardized noise."""
    if not dt > 0:
        raise ConfigError(f"dt must be > 0, got {dt}")
    states = np.atleast_2d(np.asarray(states, dtype=float))
    px = coeffs.psi(states)
    drift = np.stack([coeffs.drift(s) for s in states])
    noise = _scaled_noise_term(coeffs.law, px, np.asarray(epsW, dtype=float),
                               np.asarray(epsb, dtype=float))
    return states + drift * dt + coeffs.phi.dphi0 * noise * np.sqrt(dt)


def _batched_drift(coeffs: SdeCoefficients,
                   psi_states: np.ndarray) -> np.ndarray | float:
    """Ito term 0.5 phi''(0) diag V(x) of the drift, over (..., D) states.

    The mean term phi'(0)(mu_b + mu_W psi(x)) is not included: the Euler
    step carries it in its layer increment. The result broadcasts against
    the states, and is the scalar 0 when phi''(0) = 0.
    """
    if coeffs.phi.ddphi0 == 0.0:
        return 0.0
    law = coeffs.law
    if isinstance(law, FullyIidLaw):
        rate = law.sigma_b ** 2 + (law.sigma_w ** 2 / law.dim) * \
            np.einsum("...d,...d->...", psi_states, psi_states)
        diagV = rate[..., None]
    elif isinstance(law, MatrixNormalLaw):
        quad = np.einsum("...d,de,...e->...", psi_states, law.SigmaWI,
                         psi_states)
        diagV = np.diag(law.Sigmab) + np.diag(law.SigmaWO) * quad[..., None]
    else:
        S = law._sigma_w4
        M = np.einsum("...i,...j,didj->...d", psi_states, psi_states, S)
        diagV = np.diag(law.Sigmab) + M
    return 0.5 * coeffs.phi.ddphi0 * diagV


def simulate_paths(coeffs: SdeCoefficients, x0_batch: np.ndarray, L: int,
                   T: float, n_draws: int, seed: SeedSpec,
                   store_stride: int | None = None,
                   noise: str = "auto") -> PathBatch:
    """Coupled Euler-Maruyama simulation over L steps of size T/L.

    Each step is the residual step x + phi(h) to second order,
    x + phi'(0) h + 0.5 phi''(0) diag V(x) dt, driven by the same layer
    increment h (:func:`depthflow.resnet._layer_increment`), so the mean
    term of the drift rides in h. ``noise`` as in
    :func:`depthflow.resnet.resnet_forward`. Diverged trajectories
    (non-finite or with norm above :data:`depthflow.resnet.HARD_CAP`) are
    flagged and frozen.
    """
    if L < 1:
        raise ConfigError("L must be >= 1")
    if not T > 0:
        raise ConfigError("T must be > 0")
    x0_batch = np.atleast_2d(np.asarray(x0_batch, dtype=float))
    N, D = x0_batch.shape
    law = coeffs.law
    if D != law.dim:
        raise ConfigError(f"x0 rows have length {D}, law dimension is {law.dim}")
    dt = T / L
    mode = choose_sampler(law, N, D, noise)

    def step(x, eps, l):
        px = coeffs.psi(x)
        # built in h's buffer: a step that frees many temporaries at once
        # lets the allocator return the memory to the system and fault it
        # in again every layer
        h = _layer_increment(law, eps, px, mode, dt)
        h *= coeffs.phi.dphi0
        h += x + _batched_drift(coeffs, px) * dt
        return h

    return _propagate(x0_batch, n_draws, seed, L, dt, step, law, mode,
                      cap=HARD_CAP, store_stride=store_stride)


def linear_growth_check(coeffs: SdeCoefficients,
                        sample_states: np.ndarray | None = None,
                        seed: int = 0):
    """Diagnose the linear-growth bound on the coefficients.

    Evaluates g(x) = (|drift(x)| + |diffusion(x)|) / (1 + |x|) on a radial
    grid spanning norms 1e-2..1e4 (or on supplied states). Satisfied iff
    g shows no growth trend in the top decade; the fitted constant is the
    sup of g over the grid.
    """
    D = coeffs.law.dim
    if sample_states is None:
        rng = np.random.Generator(np.random.Philox(key=seed))
        norms = np.logspace(-2, 4, 61)
        dirs = rng.standard_normal((8, D))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        sample_states = (norms[:, None, None] * dirs[None, :, :]).reshape(-1, D)
    sample_states = np.atleast_2d(np.asarray(sample_states, dtype=float))
    xnorm = np.linalg.norm(sample_states, axis=1)
    g = np.empty(sample_states.shape[0])
    for k, x in enumerate(sample_states):
        g[k] = (np.linalg.norm(coeffs.drift(x))
                + np.linalg.norm(coeffs.diffusion_factor(x))) / (1.0 + xnorm[k])
    fitted_c = float(g.max())
    top = xnorm >= xnorm.max() / 10.0
    prev = (xnorm >= xnorm.max() / 100.0) & ~top
    if not prev.any() or not top.any():
        return True, fitted_c
    ratio = g[top].max() / max(g[prev].max(), 1e-300)
    # one decade of norms: slope of log g vs log |x| across the top decade
    trend = np.log10(ratio)
    return bool(trend < 0.2), fitted_c
