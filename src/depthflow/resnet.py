"""Discrete-depth forward propagation.

Implements the identity-ResNet recursion with depth-scaled random
parameters and the i.i.d. feedforward edge-of-chaos baseline. Both, and the
SDE sampler in :mod:`depthflow.sde`, run on one propagation kernel
(:func:`_propagate`), chunked over draws with one noise stream per
(chunk, layer), so results are reproducible and independent of how work is
scheduled. A layer's noise is drawn independently of the state it drives,
so the kernel draws the next (chunk, layer)'s noise on a worker thread
while the current layer computes; the outputs are those of the serial
loop, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .activations import Activation
from .config import ModelConfig, SeedSpec, make_rng
from .errors import ConfigError, SolverError
from .laws import FullyIidLaw, sample_eps, scale_eps

# Draws are processed in fixed-size chunks; the chunk index is the
# replicate component of the noise stream id, so the constant is part of
# the reproducibility contract.
DRAW_CHUNK = 256

# Norm above which a trajectory counts as exploded and is frozen, in both
# the residual and the SDE sampler.
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


def _store_plan(L: int, store_stride: int | None):
    """Indices of the stored time steps (always includes 0 and L)."""
    if store_stride is None:
        idx = [0, L] if L > 0 else [0]
    else:
        if store_stride < 1:
            raise ConfigError("store_stride must be >= 1")
        idx = list(range(0, L, store_stride)) + [L]
    return np.unique(np.asarray(idx, dtype=int))


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


def _layer_increment(law, eps, px: np.ndarray, mode: str,
                     dt: float) -> np.ndarray:
    """One layer's increment h = psi(x) dW^T + db for every input.

    ``px`` holds the (chunk, N, D) states psi(x) and ``eps`` the layer's
    raw noise pair from :func:`depthflow.laws.sample_eps`; the parameters
    (dW, db) = mean dt + sqrt(dt) noise are shared by the N inputs of a
    draw, and h has the shape of ``px``. ``mode`` is
    :func:`choose_sampler`'s: ``"materialized"`` takes the full D x D
    weight noise; ``"projected"`` (fully i.i.d. law) draws h from its exact
    Gaussian law given the states, as Z R with R =
    :func:`_batched_psd_factor` of ``px`` and Z the D x min(N, D) normal.
    """
    sqdt = np.sqrt(dt)
    sW, sb = scale_eps(law, *eps)
    if mode == "projected":
        R = _batched_psd_factor(px)
        # R^T Z^T comes out in h's own C-contiguous layout, with no
        # (chunk, D, N) temporary: the SDE step builds its next state in
        # this buffer, and the drift's einsum over it sums in a
        # layout-dependent order
        h = np.swapaxes(R, -1, -2) @ np.swapaxes(sW, -1, -2)
        h += sb[:, None, :]
        h *= sqdt
        return h
    # in place, here and below: a fresh (chunk, D, D) or (chunk, N, D)
    # temporary per operation costs page faults and time at large
    # chunk x N x D
    sW *= sqdt
    sb *= sqdt
    if not isinstance(law, FullyIidLaw):
        sW += law.mean_W * dt
        sb += law.mean_b * dt
    h = px @ np.swapaxes(sW, 1, 2)
    h += sb[:, None, :]
    return h


def choose_sampler(law, n_inputs: int, width: int, noise: str = "auto") -> str:
    """Pick the noise sampler of :func:`_layer_increment` for N inputs at
    width D.

    ``"auto"`` takes ``"projected"`` for the fully i.i.d. law when
    2N <= D and ``"materialized"`` otherwise; ``noise="materialized"`` is
    the one override. Per step the two cost the same near N = 0.7 D at
    D = 64 (chunk 256) and N = 0.55 D at D = 500 (chunk 32).
    """
    if noise == "materialized":
        return noise
    if noise != "auto":
        raise ConfigError(f"unknown noise mode {noise!r}")
    return ("projected" if isinstance(law, FullyIidLaw)
            and 2 * n_inputs <= width else "materialized")


def _propagate(x0: np.ndarray, n_draws: int, seed: SeedSpec, depth: int,
               dt: float, step, law, mode: str, cap: float | None = None,
               store_stride: int | None = None) -> PathBatch:
    """Run ``depth`` steps of ``step`` on N inputs for ``n_draws`` draws.

    ``x0`` is the (N, D) initial state shared by every draw. Draws run in
    chunks of ``DRAW_CHUNK``; layer ``l`` of chunk ``c`` reads its noise
    from the stream ``seed.with_stream(replicate=c, layer=l)``, drawn by
    :func:`depthflow.laws.sample_eps` for ``law`` (the projected shape when
    ``mode`` is ``"projected"``), so the trajectories of a whole chunk do
    not depend on how many draws run. ``step(x, eps, l)`` maps the
    (chunk, N, D) states to the next ones given that noise pair, with
    overflow and invalid-value warnings off; rows that go non-finite or
    whose norm passes ``cap`` are flagged and frozen
    (:func:`_freeze_diverged`). States are stored at step 0, every
    ``store_stride`` steps and the last step, at times ``step * dt``.

    The noise of a layer does not depend on the states it drives, so one
    worker thread draws the next (chunk, layer)'s noise while this one
    computes. Each stream is drawn by the same call as in a serial loop,
    so the output does not change; the worker is gone on return.
    """
    if n_draws < 1:
        raise ConfigError("n_draws must be >= 1")
    # imported here: the module costs about 10 ms, paid by the first run
    # instead of every start-up
    from concurrent.futures import ThreadPoolExecutor

    N, D = x0.shape
    cols = min(N, D) if mode == "projected" else None
    keep = _store_plan(depth, store_stride)
    states = np.empty((n_draws, N, keep.size, D))
    diverged = np.zeros((n_draws, N), dtype=bool)

    def draw(start, l):
        rng = make_rng(seed.with_stream(replicate=start // DRAW_CHUNK,
                                        layer=l))
        # warning state is per thread; the draw keeps the step's
        with np.errstate(over="ignore", invalid="ignore"):
            return sample_eps(law, rng, min(DRAW_CHUNK, n_draws - start),
                              cols)

    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = pool.submit(draw, 0, 0)
        for start in range(0, n_draws, DRAW_CHUNK):
            stop = min(start + DRAW_CHUNK, n_draws)
            x = np.broadcast_to(x0, (stop - start, N, D)).copy()
            div = np.zeros((stop - start, N), dtype=bool)
            states[start:stop, :, 0, :] = x
            kpos = 1
            for l in range(depth):
                eps = ahead.result()
                following = ((start, l + 1) if l + 1 < depth
                             else (start + DRAW_CHUNK, 0))
                if following[0] < n_draws:
                    ahead = pool.submit(draw, *following)
                with np.errstate(over="ignore", invalid="ignore"):
                    x_new = step(x, eps, l)
                x, div = _freeze_diverged(x_new, x, div, cap=cap)
                if kpos < keep.size and keep[kpos] == l + 1:
                    states[start:stop, :, kpos, :] = x
                    kpos += 1
            diverged[start:stop] = div

    return PathBatch(times=keep * dt, states=states, diverged=diverged)


def resnet_forward(config: ModelConfig, x0_batch: np.ndarray, n_draws: int,
                   seed: SeedSpec, store_stride: int | None = None,
                   noise: str = "auto") -> PathBatch:
    """Propagate N inputs jointly through the residual recursion.

    Each layer maps x to x + phi(h), h the layer increment of
    :func:`_layer_increment`. Within a draw one shared parameter sequence
    drives all inputs, which is what couples their trajectories.
    ``noise="auto"`` lets :func:`choose_sampler` pick the draw: projected
    (D x min(N, D) normals per layer) for the fully i.i.d. law when
    2N <= D, where it is the cheaper one, and the full D x D weight noise
    otherwise; ``noise="materialized"`` forces the latter. Both give the
    same trajectory law from different random streams. Draws that go
    non-finite or whose norm passes ``HARD_CAP`` are flagged and frozen.
    """
    x0_batch = np.atleast_2d(np.asarray(x0_batch, dtype=float))
    N, D = x0_batch.shape
    if D != config.width:
        raise ConfigError(f"x0 rows have length {D}, model width is {config.width}")
    law, dt = config.law, config.dt
    phi, psi = config.phi, config.psi
    mode = choose_sampler(law, N, D, noise)

    def step(x, eps, l):
        y = phi(_layer_increment(law, eps, psi(x), mode, dt))
        y += x
        return y

    return _propagate(x0_batch, n_draws, seed, config.depth, dt, step, law,
                      mode, cap=HARD_CAP, store_stride=store_stride)


def feedforward_forward(cfg: FeedforwardConfig, x0_batch: np.ndarray,
                        n_draws: int, seed: SeedSpec,
                        noise: str = "auto") -> PathBatch:
    """Propagate inputs through the i.i.d. feedforward baseline.

    Recursion h_{l+1} = A_l phi(h_l) + a_l from h_0 = x_0 (the first layer
    reads the input itself), with A entries N(0, sigma_w2/width) and a
    entries N(0, sigma_b2): the layer increment of :func:`_layer_increment`
    at dt = 1. Parameters are shared across the batch within a draw. The
    stored final state is the last layer's pre-activation (the quantity
    whose depth-correlation structure the critical initialization
    preserves); only the input and that final layer are stored, at times
    0 and depth. ``noise`` as in :func:`resnet_forward`. A draw is flagged
    when its pre-activation goes non-finite, and then stores its last
    finite one.
    """
    x0_batch = np.atleast_2d(np.asarray(x0_batch, dtype=float))
    N, D = x0_batch.shape
    if D != cfg.width:
        raise ConfigError(f"x0 rows have length {D}, width is {cfg.width}")
    phi = cfg.activation
    law = FullyIidLaw(sigma_w=np.sqrt(cfg.sigma_w2),
                      sigma_b=np.sqrt(cfg.sigma_b2), dim=D)
    mode = choose_sampler(law, N, D, noise)

    def step(h, eps, l):
        return _layer_increment(law, eps, h if l == 0 else phi(h), mode, 1.0)

    return _propagate(x0_batch, n_draws, seed, cfg.depth, 1.0, step, law,
                      mode)


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
