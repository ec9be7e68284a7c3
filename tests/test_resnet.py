import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from depthflow import (FeedforwardConfig, FullyIidLaw, GeneralGaussianLaw,
                       MatrixNormalLaw, ModelConfig, SdeCoefficients,
                       SeedSpec, eoc_solve, feedforward_forward,
                       ks_two_sample, resnet_forward, simulate_paths)
from depthflow.activations import IDENTITY, RELU, SWISH, TANH
from depthflow.config import make_rng
from depthflow.errors import ConfigError
from depthflow.laws import sample_eps, scale_eps
from depthflow.resnet import (DRAW_CHUNK, HARD_CAP, ROW_TILE, PathBatch,
                              _batched_psd_factor, _chunks, _freeze_diverged,
                              _layer_increment, _propagate, _store_plan,
                              _stream_draw, choose_sampler)


def iid_model(depth, width, sigma_w=1.0, sigma_b=1.0, phi=TANH, psi=IDENTITY,
              horizon=1.0):
    law = FullyIidLaw(sigma_w=sigma_w, sigma_b=sigma_b, dim=width)
    return ModelConfig(depth=depth, width=width, horizon=horizon, phi=phi,
                       psi=psi, law=law)


def iid_twin(law):
    """The fully i.i.d. law written as a matrix-normal one: the same
    parameter law, which the sampler rule always draws materialized. Its
    draws are the i.i.d. law's materialized draws, bit for bit."""
    D = law.dim
    return MatrixNormalLaw(muW=np.zeros((D, D)), mub=np.zeros(D),
                           sigmaWO=law.sigma_w / np.sqrt(D) * np.eye(D),
                           sigmaWI=np.eye(D), sigmab=law.sigma_b * np.eye(D))


def one_block_step(phi, psi, W, b, x):
    """x + phi(W psi(x) + b): a depth-1, unit-horizon net whose law is
    the point mass at (W, b)."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    b = np.asarray(b, dtype=float)
    zero = np.zeros_like(W)
    law = MatrixNormalLaw(muW=W, mub=b, sigmaWO=zero, sigmaWI=zero,
                          sigmab=zero)
    model = ModelConfig(depth=1, width=b.shape[0], horizon=1.0, phi=phi,
                        psi=psi, law=law)
    batch = resnet_forward(model, np.asarray(x, dtype=float)[None, :], 1,
                           SeedSpec(0))
    return batch.xT[0, 0]


class TestShallowBlock:
    def test_zero_parameters_fixed_point(self):
        x = np.array([0.3, -1.2])
        out = one_block_step(TANH, IDENTITY, np.zeros((2, 2)), np.zeros(2), x)
        assert np.array_equal(out, x)

    def test_identity_doubling(self):
        x = np.array([1.5, -2.0])
        out = one_block_step(IDENTITY, IDENTITY, np.eye(2), np.zeros(2), x)
        assert np.allclose(out, 2 * x)

    def test_scalar_tanh(self):
        out = one_block_step(TANH, IDENTITY, np.array([[1.0]]),
                             np.array([0.0]), np.array([0.5]))
        assert out[0] == pytest.approx(0.5 + np.tanh(0.5), abs=1e-14)


class TestResnetForward:
    def test_zero_increments_identity(self):
        # a zero-variance law draws zero increments, and tanh(0) = 0
        model = iid_model(5, 3, sigma_w=0.0, sigma_b=0.0)
        x0 = np.array([[0.2, -0.4, 1.0]])
        assert choose_sampler(model.law, 1, 3) == "projected"
        for law in (iid_twin(model.law), model.law):
            batch = resnet_forward(replace(model, law=law), x0, 3,
                                   SeedSpec(0), store_stride=1)
            assert np.array_equal(batch.states,
                                  np.broadcast_to(x0[:, None],
                                                  batch.states.shape))
            assert not batch.diverged.any()

    def test_forced_linear_step(self):
        w, b = 0.7, -0.3
        out = one_block_step(IDENTITY, IDENTITY, [[w]], [b], [2.0])
        assert out[0] == pytest.approx(2.0 + w * 2.0 + b)

    @pytest.mark.parametrize("law_kind, phi, psi", [
        ("iid", TANH, IDENTITY), ("iid", SWISH, TANH),
        ("matrix_normal", IDENTITY, IDENTITY)],
        ids=["tanh", "swish-tanh", "matrix-normal"])
    def test_one_layer_matches_stream_oracle(self, law_kind, phi, psi):
        # x + phi(psi(x) dW^T + db), with dW and db recomputed from the
        # stream of chunk 0, layer 0
        D, horizon = 3, 0.3
        if law_kind == "iid":
            law = FullyIidLaw(sigma_w=1.3, sigma_b=0.7, dim=D)
        else:
            rng = np.random.default_rng(3)
            law = MatrixNormalLaw(muW=rng.standard_normal((D, D)),
                                  mub=rng.standard_normal(D),
                                  sigmaWO=np.eye(D) + 0.2, sigmaWI=np.eye(D),
                                  sigmab=0.5 * np.eye(D))
        model = ModelConfig(depth=1, width=D, horizon=horizon, phi=phi,
                            psi=psi, law=law)
        x0 = np.array([[0.5, -1.0, 2.0], [0.0, 0.3, -0.7]])
        seed = SeedSpec(21, "oracle")
        # 2N > D: the rule draws the full weight noise for both laws
        assert choose_sampler(law, 2, D) == "materialized"
        batch = resnet_forward(model, x0, 7, seed)

        rng = make_rng(seed.with_stream(replicate=0, layer=0))
        sW, sb = scale_eps(law, *sample_eps(law, rng, 7))
        dW = law.mean_W * horizon + sW * np.sqrt(horizon)
        db = law.mean_b * horizon + sb * np.sqrt(horizon)
        x = np.broadcast_to(x0, (7, 2, D))
        want = x + phi(psi(x) @ np.swapaxes(dW, 1, 2) + db[:, None, :])
        assert np.array_equal(batch.xT, want)
        assert np.array_equal(batch.times, [0.0, horizon])

    def test_initial_states_stored_exactly(self):
        model = iid_model(4, 2)
        x0 = np.array([[0.1, 0.2], [3.0, -1.0]])
        batch = resnet_forward(model, x0, 3, SeedSpec(5, "store"))
        assert np.array_equal(batch.x0[1], x0)

    def test_coupling_identical_inputs_bitwise(self):
        model = iid_model(10, 4)
        model = replace(model, law=iid_twin(model.law))
        x0 = np.array([[0.5, -0.5, 1.0, 0.0], [0.5, -0.5, 1.0, 0.0]])
        batch = resnet_forward(model, x0, 8, SeedSpec(9, "couple"),
                               store_stride=1)
        assert np.array_equal(batch.states[:, 0], batch.states[:, 1])

    def test_deterministic_given_seed(self):
        model = iid_model(6, 3)
        x0 = np.array([[1.0, 1.0, 1.0]])
        a = resnet_forward(model, x0, 5, SeedSpec(7, "det"))
        b = resnet_forward(model, x0, 5, SeedSpec(7, "det"))
        assert np.array_equal(a.states, b.states)

    def test_symmetry_at_zero_input(self):
        # tanh odd + zero-mean noise + z=0 makes x_{T,1} symmetric about 0
        model = iid_model(64, 64)
        x0 = np.zeros((1, 64))
        batch = resnet_forward(model, x0, 2_000, SeedSpec(3, "sym"))
        first = batch.xT[:, 0, 0]
        se = first.std(ddof=1) / np.sqrt(first.size)
        assert abs(first.mean()) <= 4 * se

    def test_exchangeable_marginals(self):
        model = iid_model(32, 8)
        batch = resnet_forward(model, np.full((1, 8), 0.7), 4_000,
                               SeedSpec(13, "exch"))
        xT = batch.xT[:, 0, :]
        means = xT.mean(axis=0)
        ses = xT.std(axis=0, ddof=1) / np.sqrt(xT.shape[0])
        grand = means.mean()
        assert (np.abs(means - grand) <= 4 * ses).all()
        vars_ = xT.var(axis=0, ddof=1)
        se_v = vars_ * np.sqrt(2 / xT.shape[0])
        assert (np.abs(vars_ - vars_.mean()) <= 4 * se_v).all()

    def test_increment_scale_halves_with_doubled_depth(self):
        msq = {}
        for L in (100, 200):
            model = iid_model(L, 8)
            batch = resnet_forward(model, np.full((1, 8), 0.5), 200,
                                   SeedSpec(17, "scale"), store_stride=1)
            inc = np.diff(batch.states[:, 0, :, :], axis=1)
            msq[L] = float((inc ** 2).mean())
        assert msq[200] / msq[100] == pytest.approx(0.5, rel=0.1)

    # (21, 64) is the corr_heatmap shape; its z * 1 inputs make the layer-0
    # Gram matrix rank one
    @pytest.mark.parametrize("N, D, depth", [(2, 32, 32), (21, 64, 16)])
    def test_projected_matches_materialized_in_law(self, N, D, depth):
        model = iid_model(depth, D)
        x0 = np.repeat(np.linspace(0.0, 1.0, N)[:, None], D, axis=1)
        a = resnet_forward(replace(model, law=iid_twin(model.law)), x0,
                           4_000, SeedSpec(23, "proj"))
        assert choose_sampler(model.law, N, D) == "projected"
        b = resnet_forward(model, x0, 4_000, SeedSpec(29, "projb"))
        for n in range(N):
            stat, thr = ks_two_sample(a.xT[:, n, 0], b.xT[:, n, 0])
            assert stat <= thr
        # the gap between the extreme inputs depends on their coupling
        stat, thr = ks_two_sample(a.xT[:, -1, 0] - a.xT[:, 0, 0],
                                  b.xT[:, -1, 0] - b.xT[:, 0, 0])
        assert stat <= thr

    def test_width_mismatch_rejected(self):
        model = iid_model(2, 3)
        with pytest.raises(ConfigError):
            resnet_forward(model, np.zeros((1, 2)), 1, SeedSpec(0))


class TestSamplerChoice:
    def test_iid_law_with_few_inputs_is_projected(self):
        law = FullyIidLaw(1.0, 1.0, dim=64)
        assert choose_sampler(law, 2, 64) == "projected"
        assert choose_sampler(law, 21, 64) == "projected"
        assert choose_sampler(law, 32, 64) == "projected"

    def test_many_inputs_are_materialized(self):
        law = FullyIidLaw(1.0, 1.0, dim=64)
        assert choose_sampler(law, 33, 64) == "materialized"
        assert choose_sampler(law, 400, 64) == "materialized"

    def test_non_iid_laws_are_materialized(self):
        D = 4
        laws = [
            MatrixNormalLaw(np.zeros((D, D)), np.zeros(D), np.eye(D),
                            np.eye(D), np.eye(D)),
            GeneralGaussianLaw(np.zeros((D, D)), np.zeros(D),
                               np.eye(D * D), np.eye(D)),
        ]
        for law in laws:
            for n in (1, 2, 3):
                assert choose_sampler(law, n, D) == "materialized"

    @pytest.mark.parametrize("N, D, phi", [
        (5, 8, TANH), (3, 4, SWISH), (40, 64, TANH)],
        ids=["5-8-tanh", "3-4-swish", "40-64-tanh"])
    def test_iid_twin_draws_the_same_bits(self, N, D, phi):
        # at 2N > D both laws are drawn materialized, from the same normals
        model = iid_model(6, D, sigma_w=1.3, sigma_b=0.7, phi=phi)
        twin = iid_twin(model.law)
        assert choose_sampler(model.law, N, D) == "materialized"
        x0 = np.random.default_rng(N).standard_normal((N, D))
        a = resnet_forward(model, x0, 300, SeedSpec(31, "twin"),
                           store_stride=1)
        b = resnet_forward(replace(model, law=twin), x0, 300,
                           SeedSpec(31, "twin"), store_stride=1)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.diverged, b.diverged)


class TestProjectedFactor:
    # R^T R reproduces the Gram matrix to rounding: QR is backward stable,
    # so the error is a small multiple of eps * |G|
    RTOL = 1e-12

    def check(self, px):
        R = _batched_psd_factor(px)
        N, D = px.shape[-2:]
        assert R.shape == px.shape[:-2] + (min(N, D), N)
        G = px @ np.swapaxes(px, -1, -2)
        RtR = np.swapaxes(R, -1, -2) @ R
        scale = max(1.0, float(np.abs(G).max()))
        assert np.abs(RtR - G).max() <= self.RTOL * scale

    @pytest.mark.parametrize("N", [1, 2, 21, 48, 63])
    def test_random_states(self, N):
        rng = np.random.default_rng(N)
        self.check(np.tanh(rng.standard_normal((5, N, 64))))

    def test_zero_row(self):
        px = np.random.default_rng(1).standard_normal((3, 4, 16))
        px[:, 2] = 0.0
        self.check(px)

    def test_collinear_inputs(self):
        # the embedded scalar inputs z * 1: rank one
        z = np.linspace(-2.0, 2.0, 21)
        px = np.repeat(z[:, None], 64, axis=1)[None]
        self.check(px)
        self.check(np.tanh(px))

    def test_all_zero_states(self):
        self.check(np.zeros((2, 3, 8)))

    def test_more_inputs_than_width(self):
        self.check(np.random.default_rng(2).standard_normal((2, 10, 4)))


def _old_freeze_diverged(x_new, x_old, diverged, cap):
    """The guard before it moved to one sum-of-squares test."""
    bad = ~np.isfinite(x_new).all(axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        bad |= np.linalg.norm(np.nan_to_num(x_new, nan=np.inf, posinf=np.inf,
                                            neginf=-np.inf), axis=-1) > cap
    diverged = diverged | bad
    out = np.where(diverged[..., None], x_old, x_new)
    return out, diverged


class TestExplosionGuard:
    def states(self):
        rng = np.random.default_rng(5)
        x_old = rng.standard_normal((6, 5, 8))
        x_new = x_old + rng.standard_normal((6, 5, 8))
        x_new[0, 0, 3] = np.nan
        x_new[0, 1, 0] = np.inf
        x_new[1, 2, 7] = -np.inf
        x_new[1, 3, :] = [np.inf, -np.inf, np.nan, 0, 1, 2, 3, 4]
        x_new[2, 0, 1] = 2e6          # finite, over the default cap
        x_new[2, 4, :] = 4e5          # norm 1.13e6: over by the sum only
        x_new[3, 1, :] = 1e200        # finite, squares overflow
        x_new[3, 2, 0] = -1e300
        x_new[4, 3, :] = 3e5          # norm 8.5e5: under the cap
        diverged = np.zeros((6, 5), dtype=bool)
        diverged[5, 0] = True         # flagged at an earlier layer
        diverged[0, 0] = True
        return x_new, x_old, diverged

    @pytest.mark.parametrize("cap", [HARD_CAP, 10.0])
    def test_matches_old_guard(self, monkeypatch, cap):
        monkeypatch.setattr("depthflow.resnet.HARD_CAP", cap)
        x_new, x_old, diverged = self.states()
        want, want_div = _old_freeze_diverged(x_new.copy(), x_old, diverged,
                                              cap)
        before = diverged.copy()
        got, got_div = _freeze_diverged(x_new.copy(), x_old, diverged)
        assert np.array_equal(got_div, want_div)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(diverged, before)

    def test_nothing_flagged_returns_new_states(self):
        x = np.ones((2, 3, 4))
        out, div = _freeze_diverged(x, np.zeros_like(x),
                                    np.zeros((2, 3), dtype=bool))
        assert out is x and not div.any()

    def test_resnet_and_sde_count_the_same_events(self):
        # swish grows super-linearly: over a long horizon both samplers
        # pass the default cap, and each flags and freezes the draws that
        # do, so no stored state lies above it
        model = iid_model(16, 8, sigma_w=4.0, sigma_b=4.0, phi=SWISH,
                          horizon=4.0)
        x0 = np.full((1, 8), 2.0)
        net = resnet_forward(model, x0, 300, SeedSpec(41, "guard/net"),
                             store_stride=1)
        sde = simulate_paths(SdeCoefficients(model.law, SWISH, IDENTITY),
                             x0, 16, 4.0, 300, SeedSpec(41, "guard/sde"),
                             store_stride=1)
        for batch in (net, sde):
            assert batch.diverged.any()
            norms = np.linalg.norm(batch.states, axis=-1)
            assert (norms <= HARD_CAP).all()


class TestPropagationKernel:
    """The chunked kernel behind the residual, SDE and feedforward samplers."""

    @staticmethod
    def run(sampler, mode, n_draws):
        # N = 2 inputs at D = 8 take the projected draw; the i.i.d. law's
        # matrix-normal twin, or the feedforward net at N = 5, the
        # materialized one
        D = 8
        x0 = np.vstack([np.full(D, -0.5), np.full(D, 1.0)])
        law = FullyIidLaw(1.0, 1.0, D)
        if mode == "materialized":
            if sampler == "feedforward":
                x0 = np.vstack([x0, np.outer([0.25, -1.0, 2.0], np.ones(D))])
            else:
                law = iid_twin(law)
        assert choose_sampler(law, x0.shape[0], D) == mode
        seed = SeedSpec(43, f"prefix/{sampler}")
        if sampler == "resnet":
            return resnet_forward(replace(iid_model(4, D), law=law), x0,
                                  n_draws, seed, store_stride=2)
        if sampler == "sde":
            return simulate_paths(SdeCoefficients(law, SWISH, IDENTITY),
                                  x0, 4, 1.0, n_draws, seed, store_stride=2)
        cfg = FeedforwardConfig(depth=4, width=D, sigma_w2=1.5, sigma_b2=0.1,
                                activation=TANH)
        return feedforward_forward(cfg, x0, n_draws, seed)

    @pytest.mark.parametrize("mode", ["materialized", "projected"])
    @pytest.mark.parametrize("sampler", ["resnet", "sde", "feedforward"])
    def test_chunk_prefix_invariance(self, sampler, mode):
        # a 600-draw run spans chunks [0, 256), [256, 512), [512, 600); its
        # draws are the same, bit for bit, in a shorter run, a partial
        # chunk's leading draws included: each sampler draws one block per
        # (chunk, layer), draw by draw.
        full = self.run(sampler, mode, 600)
        for n in (300, 512):
            part = self.run(sampler, mode, n)
            assert np.array_equal(full.states[:n], part.states)
            assert np.array_equal(full.diverged[:n], part.diverged)
            assert np.array_equal(full.times, part.times)
        # and each chunk reads its own streams
        assert not np.array_equal(full.xT[DRAW_CHUNK:DRAW_CHUNK + 10],
                                  full.xT[:10])

    def test_feedforward_flags_on_the_pre_activation(self, monkeypatch):
        # at sigma_w2 = 100 the pre-activation of some draws passes the cap
        # within 10 layers and that of others does not. relu zeroes the
        # negative coordinates, so a pre-activation can pass the cap while
        # its activation stays under it; the guard reads the former. A
        # flagged draw stays flagged and stores its last accepted
        # pre-activation, which is the output of the shallower net
        # (streams are keyed by layer) at the deepest depth where that draw
        # was still unflagged
        # (3 inputs at D = 4 take the materialized draw)
        D, L, n = 4, 10, 200
        x0 = np.vstack([np.full(D, 1.0), np.full(D, -0.5), np.full(D, 0.25)])

        def run(depth):
            cfg = FeedforwardConfig(depth=depth, width=D, sigma_w2=100.0,
                                    sigma_b2=1.0, activation=RELU)
            return feedforward_forward(cfg, x0, n, SeedSpec(47, "ffflag"))

        runs = {k: run(k) for k in range(1, L + 1)}
        deep = runs[L]
        assert deep.diverged.any() and not deep.diverged.all()
        # the unguarded pre-activations h[k - 1] at depth k
        monkeypatch.setattr("depthflow.resnet.HARD_CAP", np.inf)
        free = [run(k) for k in range(1, L + 1)]
        assert not any(b.diverged.any() for b in free)
        h = np.stack([b.xT for b in free])
        over = np.logical_or.accumulate(
            np.linalg.norm(h, axis=-1) > HARD_CAP)
        post = np.logical_or.accumulate(
            np.linalg.norm(np.maximum(h, 0.0), axis=-1) > HARD_CAP)
        assert (over[-1] != post[-1]).any()
        for k in range(1, L + 1):
            assert np.array_equal(runs[k].diverged, over[k - 1])
            assert (np.linalg.norm(runs[k].states, axis=-1) <= HARD_CAP).all()
        for k in range(1, L):
            assert not (runs[k].diverged & ~runs[k + 1].diverged).any()
        for d, i in zip(*np.nonzero(deep.diverged)):
            last = max((k for k in runs if not runs[k].diverged[d, i]),
                       default=0)
            want = x0[i] if last == 0 else runs[last].xT[d, i]
            assert np.array_equal(deep.xT[d, i], want)


def serial_propagate(start, shape, rows, depth, dt, step, draw,
                     store_stride=None, coords=None):
    """The propagation kernel as a plain loop: for each chunk, take its
    initial states, then for each layer draw its noise and take the
    step."""
    N, D = shape
    store = slice(None) if coords is None else coords
    keep = _store_plan(depth, store_stride)
    states, diverged = [], []
    for c, n in rows.items():
        x = np.broadcast_to(start(c, 0, n), (n, N, D)).copy()
        div = np.zeros((n, N), dtype=bool)
        trail = [x]
        for l in range(depth):
            eps = draw(c, l, 0, n)
            with np.errstate(over="ignore", invalid="ignore"):
                x_new = step(x, eps, l)
            x, div = _freeze_diverged(x_new, x, div)
            trail.append(x)
        states.append(np.stack(trail, axis=2)[:, :, keep][..., store])
        diverged.append(div)
    return PathBatch(times=keep * dt, states=np.concatenate(states),
                     diverged=np.concatenate(diverged))


def meeting_spy(fn, threads):
    """``fn``, recording in ``threads`` the threads that call it. A
    thread's first call waits, for up to 10 s, until a second thread has
    called too, so workers that share the tiles show at least two threads
    however the host schedules them."""
    lock, met = threading.Lock(), threading.Event()

    def spy(*args, **kwargs):
        with lock:
            first = threading.get_ident() not in threads
            threads.add(threading.get_ident())
            if len(threads) > 1:
                met.set()
        if first:
            met.wait(10)
        return fn(*args, **kwargs)

    return spy


def starts_from(x0, rows):
    """A ``start`` that hands out the (draws, N, D) rows of ``x0`` to the
    chunks of ``rows``, in their order."""
    offset = dict(zip(rows, np.cumsum([0, *rows.values()]).tolist()))
    return lambda c, a, b: x0[offset[c] + a:offset[c] + b]


class TestNoiseLookahead:
    """Each worker draws its own tile's noise before each step, so the
    draws and steps of different tiles overlap."""

    @staticmethod
    def run(sampler, noise, law_kind="iid"):
        # 600 draws: two whole chunks and a partial one. At these scales
        # some draws but not all pass the cap (swish, and relu at
        # sigma_w2 = 3000), so the flags are compared too. ``noise`` is
        # the draw the rule must pick: "materialized" takes the i.i.d.
        # law's matrix-normal twin, or 5 feedforward inputs at D = 8
        D, depth = 8, 4
        x0 = np.vstack([np.full(D, -0.5), np.full(D, 1.0)])
        seed = SeedSpec(53, f"ahead/{sampler}")
        if sampler == "feedforward":
            if noise == "materialized":
                x0 = np.vstack([x0, np.outer([0.25, -1.0, 2.0], np.ones(D))])
            cfg = FeedforwardConfig(depth=depth, width=D, sigma_w2=3000.0,
                                    sigma_b2=1.0, activation=RELU)
            assert (choose_sampler(FullyIidLaw(1.0, 1.0, D), x0.shape[0], D)
                    == ("projected" if noise == "auto" else noise))
            return feedforward_forward(cfg, x0, 600, seed)
        scale, horizon = (4.0, 2.0) if sampler == "sde" else (16.0, 16.0)
        if law_kind == "iid":
            law = FullyIidLaw(sigma_w=scale, sigma_b=scale, dim=D)
        else:
            rng = np.random.default_rng(5)
            law = MatrixNormalLaw(muW=rng.standard_normal((D, D)),
                                  mub=rng.standard_normal(D),
                                  sigmaWO=scale / 2 * np.eye(D) + 0.2,
                                  sigmaWI=np.eye(D), sigmab=np.eye(D))
        if noise == "materialized":
            law = iid_twin(law)
        if sampler == "sde":
            return simulate_paths(SdeCoefficients(law, SWISH, IDENTITY), x0,
                                  depth, horizon, 600, seed, store_stride=1)
        model = ModelConfig(depth=depth, width=D, horizon=horizon, phi=SWISH,
                            psi=IDENTITY, law=law)
        return resnet_forward(model, x0, 600, seed, store_stride=1)

    @pytest.mark.parametrize("sampler, noise, law_kind", [
        ("resnet", "auto", "iid"), ("resnet", "materialized", "iid"),
        ("sde", "auto", "iid"), ("sde", "materialized", "iid"),
        ("feedforward", "auto", "iid"),
        ("feedforward", "materialized", "iid"),
        # its sample_eps runs matmuls on the worker
        ("resnet", "auto", "matrix_normal")])
    def test_matches_serial_loop(self, monkeypatch, sampler, noise,
                                 law_kind):
        got = self.run(sampler, noise, law_kind)
        monkeypatch.setattr("depthflow.resnet._propagate", serial_propagate)
        monkeypatch.setattr("depthflow.sde._propagate", serial_propagate)
        want = self.run(sampler, noise, law_kind)
        assert want.diverged.any() and not want.diverged.all()
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.diverged, want.diverged)
        assert np.array_equal(got.times, want.times)

    def test_rows_inputs_and_coords_match_serial_loop(self):
        # some draws of two chunks run, chunk 2 first, each from its own
        # initial state, and two of the D coordinates are stored
        D, depth = 6, 5
        rows = {2: 30, 0: 7}
        x0 = np.random.default_rng(3).standard_normal((37, 3, D)) * 4.0
        law = FullyIidLaw(sigma_w=16.0, sigma_b=16.0, dim=D)
        draw = _stream_draw(SeedSpec(71, "ahead/rows"), law, "projected", 3,
                            rows)

        def step(x, eps, l):
            return x + SWISH(_layer_increment(law, eps, x, "projected", 1.0))

        args = (starts_from(x0, rows), (3, D), rows, depth, 1.0, step, draw,
                2, [0, 4])
        got, want = _propagate(*args), serial_propagate(*args)
        assert got.states.shape == (37, 3, 4, 2)
        assert want.diverged.any() and not want.diverged.all()
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.diverged, want.diverged)
        assert np.array_equal(got.times, want.times)
        # chunk 2's draws come first, and start where x0 says
        assert np.array_equal(got.x0, x0[..., [0, 4]])

    def test_draw_failure_raised_and_worker_stopped(self, monkeypatch):
        monkeypatch.setattr("depthflow.resnet._available_cpus", lambda: 3)
        model = iid_model(4, 8)
        x0 = np.ones((2, 8))
        before = threading.active_count()
        drawers, layer_of = set(), {}
        error = RuntimeError("draw failed at layer 2")

        def tagged_rng(seed):
            rng = make_rng(seed)
            layer_of[id(rng)] = seed.layer
            return rng

        def failing_draw(law, rng, n, cols=None):
            drawers.add(threading.current_thread())
            if layer_of[id(rng)] == 2:
                raise error
            return sample_eps(law, rng, n, cols)

        monkeypatch.setattr("depthflow.resnet.make_rng", tagged_rng)
        monkeypatch.setattr("depthflow.resnet.sample_eps", failing_draw)
        with pytest.raises(RuntimeError) as info:
            resnet_forward(model, x0, 300, SeedSpec(59, "ahead/fail"))
        assert info.value is error
        assert threading.active_count() == before
        # the workers made the draws, off the calling thread
        assert 1 <= len(drawers) <= 3
        assert threading.current_thread() not in drawers

        monkeypatch.undo()
        resnet_forward(model, x0, 300, SeedSpec(59, "ahead/fail"))
        assert threading.active_count() == before

    def test_draw_keeps_the_step_warning_state(self):
        # the weight noise overflows inside sample_eps, on the worker; as
        # in the step, that is counted as divergence, not warned about
        D = 4
        law = MatrixNormalLaw(muW=np.zeros((D, D)), mub=np.zeros(D),
                              sigmaWO=1e308 * np.eye(D), sigmaWI=np.eye(D),
                              sigmab=np.eye(D))
        model = ModelConfig(depth=2, width=D, horizon=1.0, phi=TANH,
                            psi=IDENTITY, law=law)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batch = resnet_forward(model, np.ones((1, D)), 20,
                                   SeedSpec(67, "ahead/warn"))
        assert batch.diverged.any()

    def test_step_failure_stops_worker(self, monkeypatch):
        before = threading.active_count()

        def failing_guard(*args, **kwargs):
            raise FloatingPointError("guard")

        monkeypatch.setattr("depthflow.resnet._freeze_diverged",
                            failing_guard)
        with pytest.raises(FloatingPointError):
            resnet_forward(iid_model(4, 8), np.ones((2, 8)), 300,
                           SeedSpec(61, "ahead/step"))
        assert threading.active_count() == before


class TestRowBlocks:
    """The rows are cut into tiles, at least one per worker when the rows
    allow, and one worker per CPU steps them at once; the CPU count is 3
    here, so the tiles run on several threads on any host."""

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr("depthflow.resnet._available_cpus", lambda: 3)

    @pytest.fixture
    def step_threads(self, monkeypatch):
        """The threads that ran a layer increment, in each step."""
        seen = set()
        spy = meeting_spy(_layer_increment, seen)
        monkeypatch.setattr("depthflow.resnet._layer_increment", spy)
        monkeypatch.setattr("depthflow.sde._layer_increment", spy)
        return seen

    @staticmethod
    def run(sampler, N, D):
        # 600 draws: two whole chunks and a partial one, cut into tiles of
        # at most 200 rows. At these scales some draws but not all pass
        # the cap (swish, and relu at sigma_w2 = 3000).
        x0 = np.linspace(-1.0, 1.0, N)[:, None] * np.ones(D)
        seed = SeedSpec(73, f"blocks/{sampler}")
        if sampler == "feedforward":
            cfg = FeedforwardConfig(depth=4, width=D, sigma_w2=3000.0,
                                    sigma_b2=1.0, activation=RELU)
            return feedforward_forward(cfg, x0, 600, seed)
        if sampler == "sde":
            law = FullyIidLaw(sigma_w=4.0, sigma_b=4.0, dim=D)
            return simulate_paths(SdeCoefficients(law, SWISH, IDENTITY), x0,
                                  4, 2.0, 600, seed, store_stride=1)
        law = FullyIidLaw(sigma_w=16.0, sigma_b=16.0, dim=D)
        model = ModelConfig(depth=4, width=D, horizon=16.0, phi=SWISH,
                            psi=IDENTITY, law=law)
        return resnet_forward(model, x0, 600, seed, store_stride=1)

    @pytest.mark.parametrize("sampler", ["resnet", "sde", "feedforward"])
    def test_blocks_match_serial_loop(self, monkeypatch, step_threads,
                                      sampler):
        # 30 tiles of 20 rows. The threads switch often, so a tile that
        # read or wrote another's rows, or read a stream out of row order,
        # would show.
        monkeypatch.setattr("depthflow.resnet.ROW_TILE", 20 * 9 * 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = self.run(sampler, 9, 4)
        finally:
            sys.setswitchinterval(interval)
        assert len(step_threads) > 1
        monkeypatch.setattr("depthflow.resnet._propagate", serial_propagate)
        monkeypatch.setattr("depthflow.sde._propagate", serial_propagate)
        want = self.run(sampler, 9, 4)
        assert want.diverged.any() and not want.diverged.all()
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.diverged, want.diverged)
        assert np.array_equal(got.times, want.times)

    @pytest.mark.parametrize("sampler", ["resnet", "sde", "feedforward"])
    def test_projected_layers_are_not_split(self, monkeypatch, sampler):
        # N = 2 at D = 8 is projected; 3 tiles of 200 rows, two of which
        # span a chunk boundary. No layer of a tile is split between calls
        # or threads: a worker draws each layer for all the tile's rows and
        # takes the tile through all 4 layers before it takes the next
        calls = []

        def stream_spy(*args):
            draw = _stream_draw(*args)

            def spy(c, l, a, b):
                calls.append((threading.get_ident(), l, (c, a, b)))
                return draw(c, l, a, b)

            return spy

        monkeypatch.setattr("depthflow.resnet._stream_draw", stream_spy)
        monkeypatch.setattr("depthflow.sde._stream_draw", stream_spy)
        self.run(sampler, 2, 8)
        assert threading.get_ident() not in {t for t, _, _ in calls}
        tiles = []
        for thread in {t for t, _, _ in calls}:
            layers = {}
            for t, l, piece in calls:
                if t != thread:
                    continue
                if layers and l < max(layers):
                    tiles.append(layers)
                    layers = {}
                layers.setdefault(l, []).append(piece)
            tiles.append(layers)
        for layers in tiles:
            assert list(layers) == [0, 1, 2, 3]
            assert all(layers[l] == layers[0] for l in layers)
        assert sorted(layers[0] for layers in tiles) == [
            [(0, 0, 200)], [(0, 200, 256), (1, 0, 144)],
            [(1, 144, 256), (2, 0, 88)]]

    @pytest.mark.parametrize("rows, N, D, tiles", [
        (DRAW_CHUNK, 2, 64, [128] * 2),        # sanity_check, projected
        (DRAW_CHUNK, 21, 64, [64] * 4),        # corr_heatmap
        # ABC's pass 2 at desk scale, one packed batch: 30 prior functions
        # and 10 kept draws
        (40, 404, 32, [10] * 4),
        (128, 400, 64, [5] * 25 + [3]),        # function_space
    ], ids=["sanity", "corr", "abc", "fspace"])
    def test_block_floor_at_desk_shapes(self, monkeypatch, rows, N, D,
                                        tiles):
        # The plan's floor: on 2 CPUs each worker gets a tile at least, so
        # sanity's chunk is cut although one tile would hold its 256 rows.
        # Beyond it, a tile holds at most ROW_TILE state numbers, in as few
        # rounds of 2 tiles as that allows: corr's 97 rows a tile take 2
        # rounds, so 4 tiles of 64. Each layer steps every tile once, off
        # this thread.
        monkeypatch.setattr("depthflow.resnet._available_cpus", lambda: 2)
        threads, steps = set(), []

        def step(x, eps, l):
            threads.add(threading.get_ident())
            steps.append((l, x.shape[0]))
            return x

        _propagate(lambda c, a, b: np.zeros((N, D)), (N, D), {0: rows}, 2,
                   1.0, step, lambda c, l, a, b: ())
        assert 1 <= len(threads) <= 2
        assert threading.get_ident() not in threads
        for l in range(2):
            assert sorted(n for k, n in steps if k == l) == sorted(tiles)

    @staticmethod
    def propagate(step):
        # one noise number per draw; tiles of at most 200 rows
        rows = _chunks(600)

        def draw(c, l, a, b):
            return (np.full((b - a, 1, 1), float(l)),)

        return _propagate(lambda c, a, b: np.ones((3, 2)), (3, 2), rows, 4,
                          1.0, step, draw)

    def test_block_failure_raised_and_workers_stopped(self):
        before = threading.active_count()
        error = RuntimeError("tile failed at layer 2")

        def step(x, eps, l):
            if l == 2:
                raise error
            return x + eps[0]

        with pytest.raises(RuntimeError) as info:
            self.propagate(step)
        assert info.value is error
        assert threading.active_count() == before

    def test_blocks_keep_the_step_warning_state(self):
        # the step overflows in every block; as on this thread, that is
        # counted as divergence, not warned about
        threads = set()

        def step(x, eps, l):
            threads.add(threading.get_ident())
            return x * 1e300 * 1e300

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batch = self.propagate(step)
        assert threads - {threading.get_ident()}
        assert batch.diverged.all()
        assert np.array_equal(batch.xT, np.ones((600, 3, 2)))


class TestRowTiles:
    """A tile holds at most ROW_TILE state numbers, and the kernel holds
    no state but its tiles' and the stored states."""

    @pytest.fixture
    def small_tiles(self, monkeypatch):
        # 250 numbers: 6 rows at N = 9, D = 4, so 600 rows are 100 tiles
        # and tiles 42 and 85 span a chunk boundary; 40 rows of 41 at
        # N = 3, D = 2 on 3 CPUs (15 tiles, 5 rounds)
        monkeypatch.setattr("depthflow.resnet.ROW_TILE", 250)

    @pytest.fixture
    def tile_rows(self, monkeypatch):
        """The rows of each tile the kernel stepped, in any order."""
        seen = []

        def spy(x_new, *args, **kwargs):
            seen.append(x_new.shape[0])
            return _freeze_diverged(x_new, *args, **kwargs)

        monkeypatch.setattr("depthflow.resnet._freeze_diverged", spy)
        return seen

    @pytest.mark.parametrize("cpus", [3, 1])
    @pytest.mark.parametrize("sampler", ["resnet", "sde", "feedforward"])
    def test_tiles_match_serial_loop(self, monkeypatch, small_tiles,
                                     tile_rows, sampler, cpus):
        monkeypatch.setattr("depthflow.resnet._available_cpus", lambda: cpus)
        got = TestRowBlocks.run(sampler, 9, 4)
        assert tile_rows == [6] * 4 * 100
        monkeypatch.setattr("depthflow.resnet._propagate", serial_propagate)
        monkeypatch.setattr("depthflow.sde._propagate", serial_propagate)
        want = TestRowBlocks.run(sampler, 9, 4)
        assert want.diverged.any() and not want.diverged.all()
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.diverged, want.diverged)
        assert np.array_equal(got.times, want.times)

    @pytest.mark.parametrize("sampler", ["resnet", "sde", "feedforward"])
    def test_projected_chunks_are_cut_into_tiles(self, monkeypatch,
                                                 small_tiles, tile_rows,
                                                 sampler):
        # N = 2 at D = 8 is projected, and its rows are cut like any
        # other's: 15 rows of 16 state numbers a tile, so 600 rows are 40
        # tiles, 14 rounds of 3 tiles at most
        monkeypatch.setattr("depthflow.resnet._available_cpus", lambda: 3)
        TestRowBlocks.run(sampler, 2, 8)
        assert tile_rows == [15] * 4 * 40

    def test_abc_pass_two_tiles_match_serial_loop(self, monkeypatch,
                                                  small_tiles, tile_rows):
        from test_abc import SWISH_CAP, select_all, serial_abc_outputs

        from depthflow.experiments import _abc_outputs

        # 22 inputs of width 8: 1 row per tile
        monkeypatch.setattr("depthflow.resnet._available_cpus", lambda: 3)
        z, seed = np.array([2.0]), SeedSpec(41, "abc")
        grid = np.linspace(-2.0, 2.0, 21)
        got = _abc_outputs(SWISH_CAP, z, seed, 600, select=select_all(600),
                           z_grid=grid)
        assert max(tile_rows) == 1
        assert np.array_equal(got, serial_abc_outputs(
            SWISH_CAP, z, seed, 600, select=select_all(600), z_grid=grid))

    def test_tile_failure_raised_and_workers_stopped(self, monkeypatch,
                                                     small_tiles):
        # a tile that spans two chunks (rows 240:280 or 480:520) fails at
        # layer 2; each chunk starts from its own state, so the tile's rows
        # differ
        monkeypatch.setattr("depthflow.resnet._available_cpus", lambda: 3)
        before = threading.active_count()
        error = RuntimeError("tile failed at layer 2")
        tiles = []

        def step(x, eps, l):
            tiles.append(x.shape[0])
            if l == 2 and x.min() != x.max():
                raise error
            return x + eps[0]

        def draw(c, l, a, b):
            return (np.full((b - a, 1, 1), float(l)),)

        with pytest.raises(RuntimeError) as info:
            _propagate(lambda c, a, b: np.full((3, 2), float(c)), (3, 2),
                       _chunks(600), 4, 1.0, step, draw)
        assert info.value is error
        assert set(tiles) == {40}
        assert threading.active_count() == before

    def test_peak_memory_at_fspace_chunk(self, monkeypatch):
        # function_space's chunk on 2 CPUs. Beyond the stored states the
        # kernel holds a few tile-sized arrays on each worker (the state,
        # the increment, the step's output) and the tile's noise; the
        # chunk's state alone would add 26 MB.
        monkeypatch.setattr("depthflow.resnet._available_cpus", lambda: 2)
        rows, N, D = 128, 400, 64
        x0 = np.linspace(-2.0, 2.0, N)[:, None] * np.ones(D)
        # the kernel's first run imports modules; keep them out of the peak
        resnet_forward(iid_model(2, D), x0[:2], 2, SeedSpec(79, "warm"))
        tracemalloc.start()
        try:
            resnet_forward(iid_model(2, D), x0, rows,
                           SeedSpec(79, "tiles/memory"), coords=[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stored = rows * N * 2 * 8
        assert peak < stored + 2 * 5 * ROW_TILE * 8

    def test_memory_estimate_counts_tiles(self, monkeypatch):
        # an fspace-shaped run on 2 CPUs: the kernel counts the stored
        # states and each worker's tile, about 9.3 MB, not the whole
        # chunk's state (35.2 MB when it did), so a 20 MB limit lets it run
        monkeypatch.setattr("depthflow.resnet._available_cpus", lambda: 2)
        monkeypatch.setattr("depthflow.resnet._memory_limit",
                            lambda: 20_000_000)
        rows, N, D = 128, 400, 64
        x0 = np.linspace(-2.0, 2.0, N)[:, None] * np.ones(D)
        batch = resnet_forward(iid_model(1, D), x0, rows,
                               SeedSpec(79, "tiles/limit"), coords=[0])
        assert batch.states.shape == (rows, N, 2, 1)
        monkeypatch.setattr("depthflow.resnet._memory_limit",
                            lambda: 9_000_000)
        with pytest.raises(ConfigError, match="the 9000000 bytes"):
            resnet_forward(iid_model(1, D), x0, rows,
                           SeedSpec(79, "tiles/limit"), coords=[0])


class TestBatchPacking:
    """Consecutive chunks of ``rows`` are packed into one tile while it
    holds at most ROW_TILE state numbers. One CPU here, so the plan needs
    no tile per worker."""

    @pytest.fixture(autouse=True)
    def one_cpu(self, monkeypatch):
        monkeypatch.setattr("depthflow.resnet._available_cpus", lambda: 1)

    @pytest.fixture
    def batch_rows(self, monkeypatch):
        """The rows of each (layer, tile) the kernel stepped, in order."""
        seen = []

        def spy(x_new, *args, **kwargs):
            seen.append(x_new.shape[0])
            return _freeze_diverged(x_new, *args, **kwargs)

        monkeypatch.setattr("depthflow.resnet._freeze_diverged", spy)
        return seen

    def test_packed_batches_match_serial_loop(self, batch_rows):
        # 30 + 2 + 250 + 7 draws of 18 state numbers fill one tile. The
        # draw's last entry is None, as in ABC's first pass.
        D, depth = 6, 5
        rows = {0: 30, 1: 2, 2: 250, 3: 7}
        x0 = np.random.default_rng(5).standard_normal((289, 3, D)) * 4.0
        law = FullyIidLaw(sigma_w=16.0, sigma_b=16.0, dim=D)
        full = _stream_draw(SeedSpec(83, "pack/rows"), law, "projected", 3,
                            rows)

        def draw(c, l, a, b):
            return (*full(c, l, a, b), None)

        def step(x, eps, l):
            return x + SWISH(_layer_increment(law, eps[:2], x, "projected",
                                              1.0))

        args = (starts_from(x0, rows), (3, D), rows, depth, 1.0, step, draw,
                1)
        got = _propagate(*args)
        assert batch_rows == [289] * depth
        want = serial_propagate(*args)
        assert want.diverged.any() and not want.diverged.all()
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.diverged, want.diverged)
        assert np.array_equal(got.times, want.times)

    def test_abc_pass_two_is_one_batch_per_layer(self, monkeypatch,
                                                 batch_rows):
        from test_abc import serial_abc_outputs

        from depthflow.experiments import ModelSpec, _abc_outputs

        # the shipped abc_regression model, at depth 3, and grid at 1280
        # prior draws: 30 prior functions and 10 kept draws over 5 chunks,
        # all in one tile
        monkeypatch.setattr("depthflow.resnet.ROW_TILE", 1 << 30)
        spec = ModelSpec(kind="diffusion", activation="tanh", sigma_w2=10.0,
                         sigma_b2=10.0, depth=3, width=32)
        z, seed = np.array([-1.0, 0.0, 1.0]), SeedSpec(89, "abc")
        grid = np.linspace(-2.0, 2.0, 401)
        select = {0: [*range(30), 200], 1: [17, 140], 2: [5, 77, 250],
                  3: [0, 9], 4: [33, 101]}
        got = _abc_outputs(spec, z, seed, 1280, select=select, z_grid=grid)
        assert batch_rows == [40] * 3
        assert np.array_equal(got, serial_abc_outputs(
            spec, z, seed, 1280, select=select, z_grid=grid))


class TestInitialStates:
    """A tile asks ``start(c, a, b)`` for its rows of each chunk as it
    starts, and drops them once its state holds copies."""

    def test_start_is_called_as_each_batch_starts(self, monkeypatch):
        # the packing of TestBatchPacking on one CPU, in tiles of at most
        # 100 rows: 3 tiles of 97 rows at most, [0: 30, 1: 2, 2: 0..65],
        # [2: 65..162] and [2: 162..250, 3: 7], so chunk 2 is read in
        # three pieces. Chunk 1 starts its
        # draws from one (N, D) state, the others each draw from its own.
        # A tile draws each layer's noise for its rows, then steps it.
        monkeypatch.setattr("depthflow.resnet.ROW_TILE", 100 * 3 * 6)
        monkeypatch.setattr("depthflow.resnet._available_cpus", lambda: 1)
        D, depth = 6, 5
        rows = {0: 30, 1: 2, 2: 250, 3: 7}
        law = FullyIidLaw(sigma_w=16.0, sigma_b=16.0, dim=D)
        noise = _stream_draw(SeedSpec(97, "start/rows"), law, "projected", 3,
                             rows)
        events, refs, held, streams = [], [], [], {}

        def start(c, a, b):
            # each chunk's states come from its own stream, read in pieces
            events.append(("start", c, a, b))
            rng = streams.setdefault(c, np.random.default_rng(c))
            x = rng.standard_normal((3, D) if c == 1 else (b - a, 3, D)) * 4.0
            refs.append(weakref.ref(x))
            return x

        def draw(c, l, a, b):
            events.append(("draw", c, l, a, b))
            return noise(c, l, a, b)

        def step(x, eps, l):
            events.append(("step", l, x.shape[0]))
            held.append(sum(ref() is not None for ref in refs))
            return x + SWISH(_layer_increment(law, eps, x, "projected", 1.0))

        args = (start, (3, D), rows, depth, 1.0, step, draw, 1)
        got = _propagate(*args)
        layers = range(depth)
        assert events == [
            ("start", 0, 0, 30), ("start", 1, 0, 2), ("start", 2, 0, 65),
            *[e for l in layers for e in (("draw", 0, l, 0, 30),
                                          ("draw", 1, l, 0, 2),
                                          ("draw", 2, l, 0, 65),
                                          ("step", l, 97))],
            ("start", 2, 65, 162),
            *[e for l in layers for e in (("draw", 2, l, 65, 162),
                                          ("step", l, 97))],
            ("start", 2, 162, 250), ("start", 3, 0, 7),
            *[e for l in layers for e in (("draw", 2, l, 162, 250),
                                          ("draw", 3, l, 0, 7),
                                          ("step", l, 95))]]
        # no start array outlives the copy its tile takes
        assert held == [0] * 3 * depth
        streams.clear()
        want = serial_propagate(*args)
        assert want.diverged.any() and not want.diverged.all()
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.diverged, want.diverged)
        assert np.array_equal(got.times, want.times)

    def test_start_failure_raised_and_workers_stopped(self):
        # chunk 1's start fails, while chunk 0's tiles step
        before = threading.active_count()
        error = RuntimeError("start failed at chunk 1")

        def start(c, a, b):
            if c == 1:
                raise error
            return np.ones((3, 2))

        with pytest.raises(RuntimeError) as info:
            _propagate(start, (3, 2), _chunks(600), 4, 1.0,
                       lambda x, eps, l: x, lambda c, l, a, b: ())
        assert info.value is error
        assert threading.active_count() == before


class TestTileStreams:
    """The tiles of one chunk read its (chunk, layer) streams in turn, in
    row order, so one chunk runs on several workers at once."""

    @staticmethod
    def run(sampler, law_kind):
        # 250 draws, one chunk: in tiles of 10 rows below, 25 tiles. Some
        # draws but not all pass the cap (swish, and relu at sigma_w2 =
        # 3000). "materialized" takes the i.i.d. law's matrix-normal twin,
        # or 5 feedforward inputs at D = 8
        D, depth, n = 8, 4, 250
        x0 = np.vstack([np.full(D, -0.5), np.full(D, 1.0)])
        seed = SeedSpec(103, f"tiles/{sampler}/{law_kind}")
        if sampler == "feedforward":
            if law_kind == "materialized":
                x0 = np.vstack([x0, np.outer([0.25, -1.0, 2.0], np.ones(D))])
            cfg = FeedforwardConfig(depth=depth, width=D, sigma_w2=3000.0,
                                    sigma_b2=1.0, activation=RELU)
            return feedforward_forward(cfg, x0, n, seed)
        scale, horizon = (4.0, 2.0) if sampler == "sde" else (16.0, 16.0)
        law = FullyIidLaw(sigma_w=scale, sigma_b=scale, dim=D)
        if law_kind == "materialized":
            law = iid_twin(law)
        elif law_kind == "general":
            # the twin's covariance, with a mean drift: D^2 x D^2 factors
            twin = iid_twin(law)
            rng = np.random.default_rng(7)
            law = GeneralGaussianLaw(
                muW=rng.standard_normal((D, D)), mub=rng.standard_normal(D),
                SigmaW=np.kron(twin.SigmaWI, twin.SigmaWO),
                Sigmab=twin.Sigmab)
        if sampler == "sde":
            return simulate_paths(SdeCoefficients(law, SWISH, IDENTITY), x0,
                                  depth, horizon, n, seed, store_stride=1)
        model = ModelConfig(depth=depth, width=D, horizon=horizon, phi=SWISH,
                            psi=IDENTITY, law=law)
        return resnet_forward(model, x0, n, seed, store_stride=1)

    @pytest.mark.parametrize("sampler, law_kind", [
        ("resnet", "projected"), ("resnet", "materialized"),
        ("resnet", "general"), ("sde", "projected"),
        ("sde", "materialized"), ("sde", "general"),
        ("feedforward", "projected"), ("feedforward", "materialized")])
    def test_tiles_of_one_chunk_match_serial_loop(self, monkeypatch,
                                                  sampler, law_kind):
        # 3 workers on tiles of 10 rows; the threads switch often, so a
        # tile that read a stream out of turn would show
        monkeypatch.setattr("depthflow.resnet._available_cpus", lambda: 3)
        N = 5 if (sampler, law_kind) == ("feedforward", "materialized") \
            else 2
        monkeypatch.setattr("depthflow.resnet.ROW_TILE", 10 * N * 8)
        threads, tiles = set(), []

        def spy(x_new, *args, **kwargs):
            tiles.append(x_new.shape[0])
            return _freeze_diverged(x_new, *args, **kwargs)

        monkeypatch.setattr("depthflow.resnet._freeze_diverged",
                            meeting_spy(spy, threads))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = self.run(sampler, law_kind)
        finally:
            sys.setswitchinterval(interval)
        assert len(threads) > 1
        assert tiles == [10] * 100
        monkeypatch.setattr("depthflow.resnet._propagate", serial_propagate)
        monkeypatch.setattr("depthflow.sde._propagate", serial_propagate)
        want = self.run(sampler, law_kind)
        assert want.diverged.any() and not want.diverged.all()
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.diverged, want.diverged)
        assert np.array_equal(got.times, want.times)

    def test_failure_while_the_next_tile_waits(self, monkeypatch):
        # one chunk of 6 rows, in tiles of one row on 3 workers. Tile 1
        # fails in its layer-2 step once tile 2 has stepped layer 2 and so
        # waits for tile 1's layer-3 draw, which never comes
        monkeypatch.setattr("depthflow.resnet._available_cpus", lambda: 3)
        monkeypatch.setattr("depthflow.resnet.ROW_TILE", 1)
        before = threading.active_count()
        error = RuntimeError("tile 1 failed at layer 2")
        waiting, raised = threading.Event(), []

        def draw(c, l, a, b):
            return (np.full((b - a, 1, 1), float(a)),)

        def step(x, eps, l):
            tile = eps[0][0, 0, 0]
            if (l, tile) == (2, 2.0):
                waiting.set()
            if (l, tile) == (2, 1.0):
                assert waiting.wait(10)
                time.sleep(0.05)
                raise error
            return x

        def call():
            try:
                _propagate(lambda c, a, b: np.zeros((1, 1)), (1, 1), {0: 6},
                           5, 1.0, step, draw)
            except RuntimeError as failure:
                raised.append(failure)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(30)
        assert not caller.is_alive()
        assert raised == [error]
        assert threading.active_count() == before


class TestDrawCount:
    @pytest.mark.parametrize("sampler", ["resnet", "sde", "feedforward"])
    def test_no_draws_refused(self, sampler):
        # one check, in _chunks, for every sampler
        x0, seed = np.ones((2, 4)), SeedSpec(101, "count")
        with pytest.raises(ConfigError, match="n_draws must be >= 1") as info:
            if sampler == "resnet":
                resnet_forward(iid_model(2, 4), x0, 0, seed)
            elif sampler == "sde":
                law = FullyIidLaw(sigma_w=1.0, sigma_b=1.0, dim=4)
                simulate_paths(SdeCoefficients(law, TANH, IDENTITY), x0, 2,
                               1.0, 0, seed)
            else:
                cfg = FeedforwardConfig(depth=2, width=4, sigma_w2=1.0,
                                        sigma_b2=1.0, activation=TANH)
                feedforward_forward(cfg, x0, 0, seed)
        assert info.traceback[-1].name == "_chunks"


class TestFeedforward:
    def test_zero_variances_collapse_to_zero(self):
        cfg = FeedforwardConfig(depth=1, width=4, sigma_w2=0.0, sigma_b2=0.0,
                                activation=TANH)
        batch = feedforward_forward(cfg, np.ones((2, 4)), 3, SeedSpec(0))
        assert np.array_equal(batch.xT, np.zeros_like(batch.xT))

    def test_relu_eoc_preserves_squared_norm(self):
        width = 500
        cfg = FeedforwardConfig(depth=10, width=width, sigma_w2=2.0,
                                sigma_b2=0.0, activation=RELU)
        x0 = np.random.default_rng(0).standard_normal((1, width))
        batch = feedforward_forward(cfg, x0, 200, SeedSpec(31, "eoc"))
        # at the critical pair the pre-activation second moment is constant
        # across layers at sigma_w2 * E[relu(h)^2] = sigma_w2 * q0
        q0 = float((x0 ** 2).mean())
        qT = float((batch.xT[:, 0, :] ** 2).mean())
        assert qT == pytest.approx(2.0 * q0, rel=0.1)

    def test_tanh_eoc_outputs_strongly_correlated(self):
        width, depth = 128, 128
        sw2 = eoc_solve(TANH, 0.05)
        cfg = FeedforwardConfig(depth=depth, width=width, sigma_w2=sw2,
                                sigma_b2=0.05, activation=TANH)
        x0 = np.vstack([np.full(width, -2.0), np.full(width, 2.0)])
        batch = feedforward_forward(cfg, x0, 500, SeedSpec(37, "corr"))
        finals = batch.xT[:, :, 0]
        rho = np.corrcoef(finals[:, 0], finals[:, 1])[0, 1]
        assert rho > 0.8


class TestEocSolve:
    def test_relu_analytic(self):
        assert eoc_solve(RELU, 0.0) == pytest.approx(2.0, abs=1e-9)

    def test_tanh_degenerate(self):
        assert eoc_solve(TANH, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_tanh_against_dense_grid_oracle(self):
        # independent oracle: trapezoid quadrature on a dense grid plus its
        # own bisections
        z = np.linspace(-12.0, 12.0, 200_001)
        pdf = np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)

        def e_phi2(q):
            return np.trapezoid(np.tanh(np.sqrt(q) * z) ** 2 * pdf, z)

        def e_dphi2(q):
            return np.trapezoid((1 - np.tanh(np.sqrt(q) * z) ** 2) ** 2 * pdf, z)

        sigma_b2 = 0.05

        def qstar(sw2):
            lo, hi = 0.0, sigma_b2 + sw2
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if sigma_b2 + sw2 * e_phi2(mid) - mid > 0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        lo, hi = 0.5, 4.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid * e_dphi2(qstar(mid)) < 1.0:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert eoc_solve(TANH, sigma_b2) == pytest.approx(oracle, abs=1e-6)

    def test_swish_rejected(self):
        with pytest.raises(ConfigError):
            eoc_solve(SWISH, 0.0)
