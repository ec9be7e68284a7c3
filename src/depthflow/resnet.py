"""Discrete-depth forward propagation.

Implements the identity-ResNet recursion with depth-scaled random
parameters and the i.i.d. feedforward edge-of-chaos baseline. Both, the
SDE sampler in :mod:`depthflow.sde` and the two ABC passes run on one
propagation kernel (:func:`_propagate`). Each caller names the draws that
run, chunk by chunk, and passes each chunk's initial states, its step,
its noise, read from streams keyed by (chunk, layer), and the coordinates
stored. So the output does not depend on how the kernel schedules the
work (README): it is a serial loop's, bit for bit.
"""

from __future__ import annotations

import math
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

# Norm above which a trajectory counts as exploded and is frozen: the one
# explosion guard of every sampler (residual, SDE, feedforward and both
# ABC arms), so the two sides of each comparison count divergence alike.
HARD_CAP = 1e6

# Most state numbers (rows x N x D) in a row tile, 1 MiB of float64, so a
# step's temporaries stay in cache.
ROW_TILE = 1 << 17


@dataclass(frozen=True)
class PathBatch:
    """Monte Carlo trajectories for N inputs over a shared time grid.

    ``states`` has shape (n_draws, n_inputs, n_stored, D) where the stored
    time points are ``times`` (fewer than D coordinates if the kernel was
    asked to store fewer). ``diverged`` flags (draw, input) pairs whose
    trajectory went non-finite or whose norm passed ``HARD_CAP``; their
    states are frozen at the last accepted value.
    """

    times: np.ndarray
    states: np.ndarray
    diverged: np.ndarray

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


def _freeze_diverged(x_new, x_old, diverged):
    """Flag rows that went non-finite or whose norm passed ``HARD_CAP``,
    and freeze them.

    One test covers both: the row's sum of squares is NaN or inf for any
    non-finite entry, and fails ``<= HARD_CAP**2`` when the norm passes
    the cap. Flagged rows keep their last accepted value.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("...d,...d->...", x_new, x_new)
    diverged = diverged | ~(sq <= HARD_CAP * HARD_CAP)
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
    Gaussian law given the states, as R^T Z with R =
    :func:`_batched_psd_factor` of ``px`` and Z the min(N, D) x D normal.
    """
    sqdt = np.sqrt(dt)
    sW, sb = scale_eps(law, *eps)
    if mode == "projected":
        h = np.swapaxes(_batched_psd_factor(px), -1, -2) @ sW
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


def choose_sampler(law, n_inputs: int, width: int) -> str:
    """Pick the noise sampler of :func:`_layer_increment` for N inputs at
    width D: ``"projected"`` for the fully i.i.d. law when 2N <= D, and
    ``"materialized"`` otherwise. Per step the two cost the same near
    N = 0.7 D at D = 64 (chunk 256) and N = 0.55 D at D = 500 (chunk 32).
    """
    return ("projected" if isinstance(law, FullyIidLaw)
            and 2 * n_inputs <= width else "materialized")


def _chunks(n_draws: int) -> dict:
    """The ``rows`` of a run of ``n_draws`` draws: stream chunk -> its
    draw count, every chunk full but the last."""
    if n_draws < 1:
        raise ConfigError("n_draws must be >= 1")
    return {c: min(DRAW_CHUNK, n_draws - c * DRAW_CHUNK)
            for c in range(-(-n_draws // DRAW_CHUNK))}


def _stream_draw(seed: SeedSpec, law, mode: str, n_inputs: int, rows: dict):
    """The samplers' ``draw(c, l, a, b)``: rows a:b of chunk c's layer-l
    noise pair, drawn by :func:`depthflow.laws.sample_eps` for ``law``
    (projected when ``mode`` says so) from the stream
    ``seed.with_stream(replicate=c, layer=l)``, whose generator is kept
    until row ``rows[c]``. Read in pieces, in row order, they are the rows
    of one whole call, bit for bit."""
    cols = min(n_inputs, law.dim) if mode == "projected" else None
    live = {}

    def draw(c, l, a, b):
        rng = live.pop((c, l), None) or make_rng(
            seed.with_stream(replicate=c, layer=l))
        if b < rows[c]:
            live[c, l] = rng
        return sample_eps(law, rng, b - a, cols)

    return draw


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _memory_limit() -> int | None:
    """Bytes of physical memory, or None where ``sysconf`` cannot tell.

    The page cache counts as free: a run may evict it, so the available
    page count would reject runs that fit.
    """
    try:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return limit if limit > 0 else None


def _propagate(start, shape: tuple, rows: dict, depth: int, dt: float,
               step, draw, store_stride: int | None = None,
               coords: list | None = None) -> PathBatch:
    """Run ``depth`` steps of ``step`` for the draws ``rows`` names, from
    the initial states ``start`` gives.

    ``rows`` maps each stream chunk that runs to how many of its first
    draws run, in the order the chunks run. ``start(c, a, b)`` returns rows
    a:b of chunk c's initial states, (b - a, N, D) or an (N, D) array that
    broadcasts, with ``shape`` = (N, D). ``draw(c, l, a, b)`` returns rows
    a:b of chunk c's layer-l noise: a tuple of arrays (or None), the first
    axis over the draws. ``step(x, eps, l)`` maps (rows, N, D) states to
    the next ones given their noise, with overflow and invalid-value
    warnings off. Rows that go non-finite or whose norm passes
    ``HARD_CAP`` are flagged and frozen (:func:`_freeze_diverged`). States
    are stored at step 0, every ``store_stride`` steps and the last step,
    at times ``step * dt``: the coordinates ``coords``, or all of them.

    ``start`` and ``draw`` are called on worker threads. The calls for one
    chunk (``start``) or one (chunk, layer) (``draw``) come in row order:
    the first at row 0, each next one where the last ended, the last
    ending at ``rows[c]``. The output is, bit for bit, a serial loop's
    over ``rows`` that calls ``start(c, 0, n)`` and then
    ``draw(c, l, 0, n)`` and ``step`` per layer. An exception raised in
    ``start``, ``draw`` or ``step`` comes out of this call, and the
    workers are gone on return.

    Before it calls ``start`` or ``draw`` or allocates anything, the kernel
    estimates the least the run holds at once. A run that would not fit
    in physical memory is refused with a :class:`ConfigError` that states
    both numbers.
    """
    # imported here: only the kernel starts threads
    import threading

    N, D = shape
    store = slice(None) if coords is None else coords
    keep = _store_plan(depth, store_stride)
    total = sum(rows.values())
    stored = (total, N, keep.size, D if coords is None else len(coords))
    cpus = _available_cpus()
    # rows per tile: at most ROW_TILE state numbers, in as few rounds of
    # one tile per worker as that allows, the tiles of a round alike
    rounds = max(1, -(-total // (cpus * max(1, ROW_TILE // (N * D)))))
    size = -(-total // (cpus * rounds))
    # [(c, a, b), ...] per tile: the rows of ``rows`` in order, cut every
    # ``size`` rows, so a tile may hold rows of several consecutive chunks
    tiles, row = [], 0
    for c, n in rows.items():
        a = 0
        while a < n:
            if row % size == 0:
                tiles.append([])
            b = min(n, a + size - row % size)
            tiles[-1].append((c, a, b))
            row += b - a
            a = b
    workers = min(cpus, len(tiles))
    # float64 numbers held at once, at least: the stored states and, per
    # worker, four tile-sized arrays (state, increment, step output, guard
    # copy) and the tile's noise, at least the projected draw's
    need = 8 * (math.prod(stored)
                + workers * size * (4 * N * D + (min(N, D) + 1) * D))
    limit = _memory_limit()
    if limit is not None and need > limit:
        raise ConfigError(
            f"the run would hold at least {need} bytes at once, more than "
            f"the {limit} bytes of physical memory; use fewer draws, "
            f"inputs, stored steps or a smaller width")
    states = np.empty(stored)
    diverged = np.zeros(stored[:2], dtype=bool)
    stored_at = {k: i for i, k in enumerate(keep.tolist())}
    # calls made per tile, the tiles not taken, and the first failure
    made, order, failed = [0] * len(tiles), iter(range(len(tiles))), []
    turn = threading.Condition()

    def run(t):
        # call k of a tile is its start (k = 0) or its layer k - 1 draw. A
        # tile whose first rows continue a chunk of the tile before makes
        # each call once that tile has made it, so each stream is read in
        # row order
        at = slice(t * size, min(total, (t + 1) * size))
        div = np.zeros((at.stop - at.start, N), dtype=bool)
        for k in range(depth + 1):
            with turn:
                while t and tiles[t][0][1] and made[t - 1] <= k \
                        and not failed:
                    turn.wait()
                if failed:
                    return
            parts = [draw(c, k - 1, a, b) if k else start(c, a, b)
                     for c, a, b in tiles[t]]
            with turn:
                made[t] = k + 1
                turn.notify_all()
            if k:
                eps = parts[0] if len(parts) == 1 else tuple(
                    None if e[0] is None else np.concatenate(e)
                    for e in zip(*parts))
                x, div = _freeze_diverged(step(x, eps, k - 1), x, div)
            else:
                x = np.concatenate([np.broadcast_to(p, (b - a, N, D))
                                    for p, (_, a, b) in zip(parts, tiles[t])])
            if k in stored_at:
                states[at, :, stored_at[k]] = x[..., store]
        diverged[at] = div

    @np.errstate(over="ignore", invalid="ignore")
    def work():
        # each worker takes the next tile and steps it through every layer
        while True:
            with turn:
                t = None if failed else next(order, None)
            if t is None:
                return
            try:
                run(t)
            except BaseException as error:
                with turn:
                    failed.append(error)
                    turn.notify_all()

    threads = [threading.Thread(target=work) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failed:
        raise failed[0]
    return PathBatch(times=keep * dt, states=states, diverged=diverged)


def resnet_forward(config: ModelConfig, x0_batch: np.ndarray, n_draws: int,
                   seed: SeedSpec, store_stride: int | None = None,
                   coords: list | None = None) -> PathBatch:
    """Propagate N inputs jointly through the residual recursion.

    Each layer maps x to x + phi(h), h the layer increment of
    :func:`_layer_increment`. Within a draw one shared parameter sequence
    drives all inputs, which is what couples their trajectories.
    :func:`choose_sampler` picks the draw, projected or materialized; both
    give the same trajectory law from different random streams. Draws that
    go non-finite or whose norm passes ``HARD_CAP`` are flagged and frozen.
    Only the coordinates ``coords`` are stored, or all of them.
    """
    x0_batch = np.atleast_2d(np.asarray(x0_batch, dtype=float))
    N, D = x0_batch.shape
    if D != config.width:
        raise ConfigError(f"x0 rows have length {D}, model width is {config.width}")
    law, dt = config.law, config.dt
    phi, psi = config.phi, config.psi
    mode = choose_sampler(law, N, D)

    def step(x, eps, l):
        y = phi(_layer_increment(law, eps, psi(x), mode, dt))
        y += x
        return y

    rows = _chunks(n_draws)
    return _propagate(lambda c, a, b: x0_batch, (N, D), rows, config.depth, dt,
                      step, _stream_draw(seed, law, mode, N, rows),
                      store_stride=store_stride, coords=coords)


def feedforward_forward(cfg: FeedforwardConfig, x0_batch: np.ndarray,
                        n_draws: int, seed: SeedSpec,
                        coords: list | None = None) -> PathBatch:
    """Propagate inputs through the i.i.d. feedforward baseline.

    Recursion h_{l+1} = A_l phi(h_l) + a_l from h_0 = x_0 (the first layer
    reads the input itself), with A entries N(0, sigma_w2/width) and a
    entries N(0, sigma_b2): the layer increment of :func:`_layer_increment`
    at dt = 1. Parameters are shared across the batch within a draw. The
    stored final state is the last layer's pre-activation (the quantity
    whose depth-correlation structure the critical initialization
    preserves); only the input and that final layer are stored, at times
    0 and depth. The sampler and ``coords`` as in :func:`resnet_forward`. A
    draw is flagged when its pre-activation goes non-finite or its norm
    passes ``HARD_CAP``, as in the residual and SDE samplers, and then
    stores its last accepted one. So a net far off the critical point,
    whose pre-activation legitimately passes 1e6, is flagged too.
    """
    x0_batch = np.atleast_2d(np.asarray(x0_batch, dtype=float))
    N, D = x0_batch.shape
    if D != cfg.width:
        raise ConfigError(f"x0 rows have length {D}, width is {cfg.width}")
    phi = cfg.activation
    law = FullyIidLaw(sigma_w=np.sqrt(cfg.sigma_w2),
                      sigma_b=np.sqrt(cfg.sigma_b2), dim=D)
    mode = choose_sampler(law, N, D)

    def step(h, eps, l):
        return _layer_increment(law, eps, h if l == 0 else phi(h), mode, 1.0)

    rows = _chunks(n_draws)
    return _propagate(lambda c, a, b: x0_batch, (N, D), rows, cfg.depth, 1.0,
                      step, _stream_draw(seed, law, mode, N, rows),
                      coords=coords)


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
