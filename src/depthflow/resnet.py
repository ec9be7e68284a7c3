"""Discrete-depth forward propagation.

Implements the identity-ResNet recursion with depth-scaled random
parameters, the generic shallow residual block, and the i.i.d. feedforward
edge-of-chaos baseline. All samplers are chunked over draws with one noise
stream per (chunk, layer), so results are reproducible and independent of
how work is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .activations import Activation
from .config import ModelConfig, SeedSpec, make_rng
from .errors import ConfigError, SolverError
from .laws import FullyIidLaw, ParamIncrement, sample_eps, scale_eps

# Draws are processed in fixed-size chunks; the chunk index is the
# replicate component of the noise stream id, so the constant is part of
# the reproducibility contract.
DRAW_CHUNK = 256

# Norm above which a trajectory counts as exploded and is frozen; the
# residual sampler always uses it, the SDE sampler by default.
HARD_CAP = 1e6


@dataclass(frozen=True)
class PathBatch:
    """Monte Carlo trajectories for N inputs over a shared time grid.

    ``states`` has shape (n_draws, n_inputs, n_stored, D) where the stored
    time points are ``times``. ``diverged`` flags (draw, input) pairs whose
    trajectory hit a non-finite value or the explosion cap; their states
    are frozen at the last finite value.
    """

    times: np.ndarray
    states: np.ndarray
    diverged: np.ndarray

    @property
    def n_draws(self) -> int:
        return self.states.shape[0]

    @property
    def x0(self) -> np.ndarray:
        return self.states[:, :, 0, :]

    @property
    def xT(self) -> np.ndarray:
        return self.states[:, :, -1, :]

    @property
    def explosive_fraction(self) -> float:
        return float(self.diverged.any(axis=1).mean())


@dataclass(frozen=True)
class FeedforwardConfig:
    """Plain feedforward net with i.i.d. Gaussian parameters per layer."""

    depth: int
    width: int
    sigma_w2: float
    sigma_b2: float
    activation: Activation

    def __post_init__(self):
        if self.depth < 1 or self.width < 1:
            raise ConfigError("depth and width must be >= 1")
        if self.sigma_w2 < 0 or self.sigma_b2 < 0:
            raise ConfigError("variances must be nonnegative")


def shallow_block_step(phi: Activation, psi: Activation, A: np.ndarray,
                       a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One residual block: x + phi(A psi(x) + a), activations element-wise."""
    A = np.asarray(A, dtype=float)
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    return x + phi(A @ psi(x) + a)


def _store_plan(L: int, store_stride: int | None):
    """Indices of the stored time steps (always includes 0 and L)."""
    if store_stride is None:
        idx = [0, L] if L > 0 else [0]
    else:
        if store_stride < 1:
            raise ConfigError("store_stride must be >= 1")
        idx = list(range(0, L, store_stride)) + [L]
    return np.unique(np.asarray(idx, dtype=int))


@dataclass(frozen=True)
class ExplosionGuard:
    """Flags trajectories whose norm exceeds the hard cap or goes non-finite."""

    hard_cap: float = HARD_CAP


def _freeze_diverged(x_new, x_old, diverged, cap=None):
    """Flag rows that went non-finite (or over the cap) and freeze them.

    One test covers both cases: the row's sum of squares is NaN or inf for
    any non-finite entry, and fails ``<= cap**2`` when the norm passes the
    cap. Without a cap, rows whose squares overflow while every entry is
    finite are not flagged. Flagged rows keep their last accepted value.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("...d,...d->...", x_new, x_new)
    if cap is not None:
        bad = ~(sq <= cap * cap)
    else:
        bad = ~np.isfinite(sq)
        if bad.any():
            bad[bad] = ~np.isfinite(x_new[bad]).all(axis=-1)
    diverged = diverged | bad
    if not diverged.any():
        return x_new, diverged
    return np.where(diverged[..., None], x_old, x_new), diverged


def _batched_psd_factor(psi_x: np.ndarray) -> np.ndarray:
    """Triangular factors R with R^T R = psi_x psi_x^T, one per draw.

    ``psi_x`` is (chunk, N, D); R is (chunk, min(N, D), N), from the thin
    QR factorization psi_x^T = Q R. Rank-deficient inputs need no special
    case: the trailing rows of R are then zero up to rounding.
    """
    return np.linalg.qr(np.swapaxes(psi_x, -1, -2), mode="r")


def _projected_term(law: FullyIidLaw, rng: np.random.Generator,
                    R: np.ndarray) -> np.ndarray:
    """Shared-noise term (sigma_w/sqrt(D)) epsW psi(x) + sigma_b epsb.

    ``R`` is :func:`_batched_psd_factor` of the (chunk, N, D) states
    psi(x); the result has their shape. Given the states the term is
    Gaussian with covariance fixed by the Gram matrix R^T R, so it is
    drawn as Z R from D x min(N, D) standard normals Z instead of the full
    D x D weight noise.
    """
    epsW, epsb = sample_eps(law, rng, R.shape[0], cols=R.shape[-2])
    sW, sb = scale_eps(law, epsW, epsb)
    return np.swapaxes(sW @ R, -1, -2) + sb[:, None, :]


def choose_sampler(law, n_inputs: int, width: int, noise: str = "auto") -> str:
    """Pick the noise sampler for N inputs at width D.

    ``"projected"`` draws the pre-activations from their exact joint law
    (:func:`_projected_term`); it needs the fully i.i.d. law. ``"auto"``
    takes it when 2N <= D and the draw of the full D x D weight noise
    (``"materialized"``) otherwise. Per step the two cost the same near
    N = 0.7 D at D = 64 (chunk 256) and N = 0.55 D at D = 500 (chunk 32).
    """
    if noise == "auto":
        return ("projected" if isinstance(law, FullyIidLaw)
                and 2 * n_inputs <= width else "materialized")
    if noise == "projected" and not isinstance(law, FullyIidLaw):
        raise ConfigError("projected noise requires the fully i.i.d. law")
    if noise not in ("materialized", "projected"):
        raise ConfigError(f"unknown noise mode {noise!r}")
    return noise


def resnet_forward(config: ModelConfig, x0_batch: np.ndarray, n_draws: int,
                   seed: SeedSpec, store_stride: int | None = None,
                   noise: str = "auto",
                   increments: list[ParamIncrement] | None = None) -> PathBatch:
    """Propagate N inputs jointly through the residual recursion.

    Within a draw one shared parameter sequence drives all inputs, which is
    what couples their trajectories. ``noise`` selects the sampler:

    * ``"materialized"`` draws the full D x D weight and D bias increments;
    * ``"projected"`` (fully i.i.d. law only) draws the pre-activations
      directly from their exact joint Gaussian law given the states:
      D x min(N, D) weight normals times the triangular factor of
      psi(x) psi(x)^T;
    * ``"auto"`` (see :func:`choose_sampler`) takes ``projected`` for the
      fully i.i.d. law when 2N <= D, where it is the cheaper draw, and
      ``materialized`` otherwise.

    Both samplers produce the same trajectory law; they consume different
    random streams. Draws that go non-finite or whose norm passes
    ``HARD_CAP`` are flagged and frozen.
    """
    x0_batch = np.atleast_2d(np.asarray(x0_batch, dtype=float))
    N, D = x0_batch.shape
    if D != config.width:
        raise ConfigError(f"x0 rows have length {D}, model width is {config.width}")
    if n_draws < 1:
        raise ConfigError("n_draws must be >= 1")
    L = config.depth
    dt = config.dt
    law = config.law
    phi, psi = config.phi, config.psi

    if increments is not None:
        if len(increments) != L:
            raise ConfigError(f"need {L} increments, got {len(increments)}")
        mode = "forced"
    else:
        mode = choose_sampler(law, N, D, noise)
    centred = isinstance(law, FullyIidLaw)

    keep = _store_plan(L, store_stride)
    states = np.empty((n_draws, N, keep.size, D))
    diverged = np.zeros((n_draws, N), dtype=bool)
    sqdt = np.sqrt(dt)

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
            if mode == "forced":
                inc = increments[l]
                h = np.einsum("de,cne->cnd", inc.dW, psi(x)) + inc.db
            elif mode == "materialized":
                rng = make_rng(seed.with_stream(replicate=rep, layer=l))
                epsW, epsb = sample_eps(law, rng, chunk)
                sW, sb = scale_eps(law, epsW, epsb)
                dW = sW * sqdt
                db = sb * sqdt
                if not centred:
                    dW += law.mean_W * dt
                    db += law.mean_b * dt
                h = psi(x) @ np.swapaxes(dW, 1, 2) + db[:, None, :]
            else:  # projected
                rng = make_rng(seed.with_stream(replicate=rep, layer=l))
                R = _batched_psd_factor(psi(x))
                h = sqdt * _projected_term(law, rng, R)
            with np.errstate(over="ignore", invalid="ignore"):
                x_new = x + phi(h)
            x, div = _freeze_diverged(x_new, x, div, cap=HARD_CAP)
            if kpos < keep.size and keep[kpos] == l + 1:
                states[start:stop, :, kpos, :] = x
                kpos += 1
        diverged[start:stop] = div

    times = keep * dt
    return PathBatch(times=times, states=states, diverged=diverged)


def feedforward_forward(cfg: FeedforwardConfig, x0_batch: np.ndarray,
                        n_draws: int, seed: SeedSpec,
                        noise: str = "auto") -> PathBatch:
    """Propagate inputs through the i.i.d. feedforward baseline.

    Recursion x_{l+1} = phi(A_l x_l + a_l) with A entries
    N(0, sigma_w2/width) and a entries N(0, sigma_b2); parameters are
    shared across the batch within a draw. The stored final state is the
    last layer's pre-activation A_L x_{L-1} + a_L (the quantity whose
    depth-correlation structure the critical initialization preserves);
    only the input and that final layer are stored. ``noise`` as in
    :func:`resnet_forward`; only non-finite draws are flagged.
    """
    x0_batch = np.atleast_2d(np.asarray(x0_batch, dtype=float))
    N, D = x0_batch.shape
    if D != cfg.width:
        raise ConfigError(f"x0 rows have length {D}, width is {cfg.width}")
    L = cfg.depth
    phi = cfg.activation
    sw = np.sqrt(cfg.sigma_w2 / D)
    sb = np.sqrt(cfg.sigma_b2)
    law = FullyIidLaw(sigma_w=np.sqrt(cfg.sigma_w2), sigma_b=sb, dim=D)
    mode = choose_sampler(law, N, D, noise)

    states = np.empty((n_draws, N, 2, D))
    diverged = np.zeros((n_draws, N), dtype=bool)

    for start in range(0, n_draws, DRAW_CHUNK):
        stop = min(start + DRAW_CHUNK, n_draws)
        chunk = stop - start
        rep = start // DRAW_CHUNK
        x = np.broadcast_to(x0_batch, (chunk, N, D)).copy()
        div = np.zeros((chunk, N), dtype=bool)
        states[start:stop, :, 0, :] = x
        hlast = np.zeros_like(x)
        for l in range(L):
            rng = make_rng(seed.with_stream(replicate=rep, layer=l))
            if mode == "materialized":
                A = sw * rng.standard_normal((chunk, D, D))
                a = sb * rng.standard_normal((chunk, D))
                h = x @ np.swapaxes(A, 1, 2) + a[:, None, :]
            else:
                h = _projected_term(law, rng, _batched_psd_factor(x))
            with np.errstate(over="ignore", invalid="ignore"):
                x_new = phi(h)
            x, div = _freeze_diverged(x_new, x, div)
            hlast = np.where(div[..., None], hlast, h)
        states[start:stop, :, 1, :] = hlast
        diverged[start:stop] = div

    times = np.array([0.0, float(L)])
    return PathBatch(times=times, states=states, diverged=diverged)


@lru_cache(maxsize=1)
def _gauss_hermite():
    """64-point Gauss-Hermite nodes and weights, computed once."""
    return np.polynomial.hermite.hermgauss(64)


def _expect_phi2(activation: Activation, q: float) -> float:
    """E[phi(sqrt(q) Z)^2] for standard normal Z."""
    if activation.name == "relu":
        return 0.5 * q
    x, w = _gauss_hermite()
    vals = activation(np.sqrt(2.0 * q) * x) ** 2
    return float((w * vals).sum() / np.sqrt(np.pi))


def _expect_dphi2(activation: Activation, q: float) -> float:
    """E[phi'(sqrt(q) Z)^2] for standard normal Z."""
    if activation.name == "relu":
        # phi' is an indicator; quadrature of a step function is poor, and
        # the half-Gaussian value is exact.
        return 0.5
    if activation.name != "tanh":
        raise ConfigError("eoc_solve supports tanh and relu only")
    x, w = _gauss_hermite()
    vals = (1.0 - np.tanh(np.sqrt(2.0 * q) * x) ** 2) ** 2
    return float((w * vals).sum() / np.sqrt(np.pi))


def _variance_fixed_point(activation: Activation, sigma_w2: float,
                          sigma_b2: float) -> float:
    """Fixed point of q -> sigma_b2 + sigma_w2 * E[phi(sqrt(q) Z)^2]."""
    def g(q):
        return sigma_b2 + sigma_w2 * _expect_phi2(activation, q) - q

    lo, hi = 0.0, max(1.0, sigma_b2 + sigma_w2)
    g_lo = g(lo)
    if g_lo <= 0.0:
        return lo
    while g(hi) > 0.0:
        hi *= 2.0
        if hi > 1e8:
            raise SolverError("variance map has no fixed point below 1e8")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def eoc_solve(activation: Activation, sigma_b2: float) -> float:
    """Weight variance putting the network on the edge of chaos.

    Returns sigma_w2 such that chi = sigma_w2 * E[phi'(sqrt(q*) Z)^2] = 1
    at the fixed point q* of the layer-to-layer variance map.
    """
    if activation.name not in ("tanh", "relu"):
        raise ConfigError("eoc_solve supports tanh and relu only")
    if sigma_b2 < 0:
        raise ConfigError("sigma_b2 must be nonnegative")

    def chi(sigma_w2):
        q = _variance_fixed_point(activation, sigma_w2, sigma_b2)
        return sigma_w2 * _expect_dphi2(activation, q)

    lo = 1e-4
    if chi(lo) > 1.0:
        raise SolverError("no edge-of-chaos root in [1e-4, 1e4]")
    # grow the bracket from a moderate start; quadrature degrades for very
    # large fixed-point variances, so the cap doubles up instead of probing
    # 1e4 directly
    hi = 1.0
    while chi(hi) < 1.0:
        hi *= 2.0
        if hi > 1e4:
            raise SolverError("no edge-of-chaos root in [1e-4, 1e4]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        c = chi(mid)
        if abs(c - 1.0) <= 1e-10:
            return mid
        if c < 1.0:
            lo = mid
        else:
            hi = mid
    raise SolverError("edge-of-chaos bisection did not reach |chi - 1| <= 1e-10")
