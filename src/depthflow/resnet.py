"""Discrete-depth forward propagation.

Implements the identity-ResNet recursion with depth-scaled random
parameters and the i.i.d. feedforward edge-of-chaos baseline. Both, the
SDE sampler in :mod:`depthflow.sde` and the two ABC passes run on one
propagation kernel (:func:`_propagate`), chunked over draws. Each caller
passes its step and its noise, read from streams keyed by (chunk, layer),
so results are reproducible and independent of how work is scheduled; it
also picks the draws that run, their initial states and the coordinates
stored. A layer's noise is drawn independently of the state it drives,
so the kernel draws the next (chunk, layer)'s noise on a worker thread
while the current layer computes. A chunk whose state holds more numbers
than its layer noise is compute-bound, and a large one has its rows
stepped in blocks, one per available CPU, at once; every operation of a
step acts on each draw alone, so the split is exact. The outputs are
those of the serial loop, bit for bit.
"""

from __future__ import annotations

import os
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

# Fewest state numbers (rows x N x D) in a row block of its own. On 2
# vCPUs, splitting broke even at 1e5 to 2e5 numbers per block (N = 400
# at D = 64, N = 404 at D = 32): the hand-off to a thread and back, and
# the contention with the draw thread, cost what the split saved. At the
# desk sizes it keeps ABC's second pass whole, whose draw makes far more
# numbers than it returns, and cuts function_space's chunks in two.
ROW_BLOCK_MIN = 1 << 18


@dataclass(frozen=True)
class PathBatch:
    """Monte Carlo trajectories for N inputs over a shared time grid.

    ``states`` has shape (n_draws, n_inputs, n_stored, D) where the stored
    time points are ``times`` (fewer than D coordinates if the kernel was
    asked to store fewer). ``diverged`` flags (draw, input) pairs whose
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


def _stream_draw(seed: SeedSpec, law, mode: str, n_inputs: int,
                 n_draws: int):
    """The residual, SDE and feedforward samplers' ``draw(c, l)``: chunk c's
    layer-l noise pair for all its draws, drawn by
    :func:`depthflow.laws.sample_eps` for ``law`` (projected when ``mode``
    says so) from the stream ``seed.with_stream(replicate=c, layer=l)``."""
    cols = min(n_inputs, law.dim) if mode == "projected" else None

    def draw(c, l):
        rng = make_rng(seed.with_stream(replicate=c, layer=l))
        return sample_eps(law, rng, min(DRAW_CHUNK, n_draws - c * DRAW_CHUNK),
                          cols)

    return draw


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _propagate(x0: np.ndarray, n_draws: int, depth: int, dt: float, step,
               draw, cap: float | None = None,
               store_stride: int | None = None, rows: dict | None = None,
               coords: list | None = None) -> PathBatch:
    """Run ``depth`` steps of ``step`` on N inputs, in chunks of
    ``DRAW_CHUNK`` draws.

    ``draw(c, l)`` returns chunk ``c``'s noise for layer ``l``: a tuple of
    arrays (or None) whose first axis runs over the draws of the chunk
    that run. ``step(x, eps, l)`` maps their (rows, N, D) states to the
    next ones given that noise, with overflow and invalid-value warnings
    off. Rows that go non-finite or whose norm passes ``cap`` are flagged
    and frozen (:func:`_freeze_diverged`).

    ``rows`` maps a chunk to how many of its draws run, in the order the
    chunks run; by default all ``n_draws`` run, chunk by chunk. ``x0`` is the
    (N, D) initial state of every draw, or one (N, D) state per draw that
    runs, in that order. States are stored at step 0, every
    ``store_stride`` steps and the last step, at times ``step * dt``: the
    coordinates ``coords``, or all of them.

    The noise of a layer does not depend on the states it drives: ``draw``
    sees only (c, l). So one worker thread draws the next (chunk, layer)'s
    noise while this one computes. It makes the calls a serial loop makes,
    in the same order. A chunk whose state holds more numbers than its
    layer-0 noise is compute-bound: its rows are split into one block per
    available CPU, each of at least ``ROW_BLOCK_MIN`` state numbers. A
    chunk with more noise is draw-bound, and blocks would only take CPU
    from the draw. Each block keeps its own state for the whole chunk,
    and each layer steps the blocks at once, one on this thread and the
    others on a pool. Every operation of a step and of the guard acts on
    each draw alone, so neither changes the output: it is the serial
    loop's, bit for bit. The workers are gone on return, and an exception
    raised in ``draw`` or in a block's step comes out of this call.
    """
    if n_draws < 1:
        raise ConfigError("n_draws must be >= 1")
    # imported here: the module costs about 10 ms, paid by the first run
    # instead of every start-up
    from concurrent.futures import ThreadPoolExecutor

    N, D = x0.shape[-2:]
    if rows is None:
        rows = {c: min(DRAW_CHUNK, n_draws - c * DRAW_CHUNK)
                for c in range(-(-n_draws // DRAW_CHUNK))}
    pairs = [(c, l) for c in rows for l in range(depth)]
    store = slice(None) if coords is None else coords
    keep = _store_plan(depth, store_stride)
    states = np.empty((sum(rows.values()), N, keep.size,
                       D if coords is None else len(coords)))
    diverged = np.zeros(states.shape[:2], dtype=bool)
    cpus = _available_cpus()

    # warning state is per thread; the draw and the blocks keep the step's
    quiet = np.errstate(over="ignore", invalid="ignore")
    noise = quiet(draw)

    @quiet
    def advance(x, div, eps, l):
        return _freeze_diverged(step(x, eps, l), x, div, cap=cap)

    # one thread makes every draw, in order; the blocks have their own pool
    with ThreadPoolExecutor(1) as drawer, \
            ThreadPoolExecutor(max(1, cpus - 1)) as pool:
        ahead = drawer.submit(noise, *pairs[0]) if pairs else None
        start, k = 0, 0
        for c, n in rows.items():
            first = x0[start:start + n] if x0.ndim == 3 else x0
            x = np.broadcast_to(first, (n, N, D))
            states[start:start + n, :, 0] = x[..., store]
            eps = ahead.result() if depth else ()
            noise_size = sum(e.size for e in eps if e is not None)
            P = max(1, min(cpus, n, x.size // ROW_BLOCK_MIN)) \
                if x.size > noise_size else 1
            cuts = [n * i // P for i in range(P + 1)]
            blocks = list(zip(cuts, cuts[1:]))
            xs = [x[a:b].copy() for a, b in blocks]
            divs = [np.zeros((b - a, N), dtype=bool) for a, b in blocks]
            kpos = 1
            for l in range(depth):
                eps = ahead.result()
                # rebound before the next draw starts, so the last layer's
                # noise is freed first and the drawer reuses its memory
                parts = [tuple(e if e is None else e[a:b] for e in eps)
                         for a, b in blocks]
                k += 1
                if k < len(pairs):
                    ahead = drawer.submit(noise, *pairs[k])
                running = [pool.submit(advance, xs[i], divs[i], parts[i], l)
                           for i in range(1, P)]
                xs[0], divs[0] = advance(xs[0], divs[0], parts[0], l)
                for i, future in enumerate(running, 1):
                    xs[i], divs[i] = future.result()
                if kpos < keep.size and keep[kpos] == l + 1:
                    for (a, b), xb in zip(blocks, xs):
                        states[start + a:start + b, :, kpos] = xb[..., store]
                    kpos += 1
            for (a, b), div in zip(blocks, divs):
                diverged[start + a:start + b] = div
            start += n

    return PathBatch(times=keep * dt, states=states, diverged=diverged)


def resnet_forward(config: ModelConfig, x0_batch: np.ndarray, n_draws: int,
                   seed: SeedSpec, store_stride: int | None = None,
                   noise: str = "auto",
                   coords: list | None = None) -> PathBatch:
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
    Only the coordinates ``coords`` are stored, or all of them.
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

    return _propagate(x0_batch, n_draws, config.depth, dt, step,
                      _stream_draw(seed, law, mode, N, n_draws),
                      cap=HARD_CAP, store_stride=store_stride, coords=coords)


def feedforward_forward(cfg: FeedforwardConfig, x0_batch: np.ndarray,
                        n_draws: int, seed: SeedSpec, noise: str = "auto",
                        coords: list | None = None) -> PathBatch:
    """Propagate inputs through the i.i.d. feedforward baseline.

    Recursion h_{l+1} = A_l phi(h_l) + a_l from h_0 = x_0 (the first layer
    reads the input itself), with A entries N(0, sigma_w2/width) and a
    entries N(0, sigma_b2): the layer increment of :func:`_layer_increment`
    at dt = 1. Parameters are shared across the batch within a draw. The
    stored final state is the last layer's pre-activation (the quantity
    whose depth-correlation structure the critical initialization
    preserves); only the input and that final layer are stored, at times
    0 and depth. ``noise`` and ``coords`` as in :func:`resnet_forward`. A
    draw is flagged when its pre-activation goes non-finite, and then
    stores its last finite one.
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

    return _propagate(x0_batch, n_draws, cfg.depth, 1.0, step,
                      _stream_draw(seed, law, mode, N, n_draws), coords=coords)


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
