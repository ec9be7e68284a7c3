"""Limiting-SDE coefficients and coupled Euler-Maruyama simulation.

The drift and diffusion are state-dependent functions of the parameter
law's conditional variance; the coupled stepper shares one standardized
weight/bias noise pair per step across all inputs, which reproduces both
the marginal law of each trajectory and the cross-covariation between
trajectories of different inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .activations import Activation
from .config import SeedSpec, make_rng
from .errors import ConfigError
from .laws import (FullyIidLaw, GeneralGaussianLaw, MatrixNormalLaw, ParamLaw,
                   conditional_variance, cross_covariance, psd_sqrt,
                   time_change_rescale)
from .resnet import DRAW_CHUNK, ExplosionGuard, PathBatch, \
    _batched_psd_factor, _freeze_diverged, _projected_term, _store_plan, \
    choose_sampler

__all__ = [
    "SdeCoefficients", "ExplosionGuard", "NoisePlan", "drift_eval",
    "diffusion_eval", "euler_step_decoupled", "euler_step_coupled",
    "simulate_paths", "time_change_rescale", "linear_growth_check",
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


@dataclass(frozen=True)
class NoisePlan:
    """Pre-generated standardized noises for L steps of a width-D system.

    ``epsW`` has shape (L, D, D), ``epsb`` and ``zeta`` shape (L, D); all
    entries are i.i.d. standard normal, reproducible from the seed.
    """

    epsW: np.ndarray
    epsb: np.ndarray
    zeta: np.ndarray


def generate_noise_plan(D: int, L: int, seed: SeedSpec) -> NoisePlan:
    epsW = np.empty((L, D, D))
    epsb = np.empty((L, D))
    zeta = np.empty((L, D))
    for l in range(L):
        rng = make_rng(seed.with_stream(layer=seed.layer + l))
        epsW[l] = rng.standard_normal((D, D))
        epsb[l] = rng.standard_normal(D)
        zeta[l] = rng.standard_normal(D)
    return NoisePlan(epsW=epsW, epsb=epsb, zeta=zeta)


def drift_eval(coeffs: SdeCoefficients, x: np.ndarray) -> np.ndarray:
    """Drift vector: phi'(0)(mu_b + mu_W psi(x)) + 0.5 phi''(0) diag(V(x))."""
    x = np.asarray(x, dtype=float)
    law = coeffs.law
    px = coeffs.psi(x)
    first = coeffs.phi.dphi0 * (law.mean_b + law.mean_W @ px)
    if coeffs.phi.ddphi0 == 0.0:
        return first
    V = conditional_variance(law, px)
    return first + 0.5 * coeffs.phi.ddphi0 * np.diag(V)


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


def _batched_drift(coeffs: SdeCoefficients, psi_states: np.ndarray,
                   states_shape) -> np.ndarray | float:
    """Vectorized drift over a (chunk, N, D) block of states.

    The result broadcasts against the states; for the centred fully i.i.d.
    law the mean term is skipped, so with phi''(0) = 0 it is the scalar 0.
    """
    law = coeffs.law
    if isinstance(law, FullyIidLaw):
        first = 0.0
    else:
        first = coeffs.phi.dphi0 * (
            law.mean_b + np.einsum("de,...e->...d", law.mean_W, psi_states))
    if coeffs.phi.ddphi0 == 0.0:
        return first
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
    return first + 0.5 * coeffs.phi.ddphi0 * diagV


def simulate_paths(coeffs: SdeCoefficients, x0_batch: np.ndarray, L: int,
                   T: float, n_draws: int, seed: SeedSpec,
                   guard: ExplosionGuard = ExplosionGuard(),
                   store_stride: int | None = None,
                   noise: str = "auto") -> PathBatch:
    """Coupled Euler-Maruyama simulation over L steps of size T/L.

    Diverged trajectories (non-finite or above the guard's hard cap) are
    flagged and frozen. ``noise`` as in
    :func:`depthflow.resnet.resnet_forward`: for the fully i.i.d. law with
    2N <= D the shared-noise term is drawn from its exact joint Gaussian
    law given the states (D x min(N, D) normals per step); otherwise, or
    with ``noise="materialized"``, the full D x D weight noise is drawn.
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
    sqdt = np.sqrt(dt)
    mode = choose_sampler(law, N, D, noise)

    keep = _store_plan(L, store_stride)
    states = np.empty((n_draws, N, keep.size, D))
    diverged = np.zeros((n_draws, N), dtype=bool)

    for start in range(0, n_draws, DRAW_CHUNK):
        stop = min(start + DRAW_CHUNK, n_draws)
        chunk = stop - start
        rep = start // DRAW_CHUNK
        x = np.broadcast_to(x0_batch, (chunk, N, D)).copy()
        div = np.zeros((chunk, N), dtype=bool)
        kpos = 0
        if keep[0] == 0:
            states[start:stop, :, 0, :] = x
            kpos = 1
        for l in range(L):
            rng = make_rng(seed.with_stream(replicate=rep, layer=l))
            with np.errstate(over="ignore", invalid="ignore"):
                px = coeffs.psi(x)
                drift = _batched_drift(coeffs, px, x.shape)
                if mode == "materialized":
                    epsW = rng.standard_normal((chunk, D, D))
                    epsb = rng.standard_normal((chunk, D))
                    term = _scaled_noise_term(law, px, epsW, epsb)
                else:
                    term = _projected_term(law, rng,
                                           _batched_psd_factor(px))
                x_new = x + drift * dt + coeffs.phi.dphi0 * term * sqdt
            x, div = _freeze_diverged(x_new, x, div, cap=guard.hard_cap)
            if kpos < keep.size and keep[kpos] == l + 1:
                states[start:stop, :, kpos, :] = x
                kpos += 1
        diverged[start:stop] = div

    times = keep * dt
    return PathBatch(times=times, states=states, diverged=diverged)


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
