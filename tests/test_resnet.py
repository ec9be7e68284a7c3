import threading
import warnings

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
from depthflow.resnet import (DRAW_CHUNK, HARD_CAP, PathBatch,
                              _batched_psd_factor, _freeze_diverged,
                              _store_plan, choose_sampler)


def iid_model(depth, width, sigma_w=1.0, sigma_b=1.0, phi=TANH, psi=IDENTITY,
              horizon=1.0):
    law = FullyIidLaw(sigma_w=sigma_w, sigma_b=sigma_b, dim=width)
    return ModelConfig(depth=depth, width=width, horizon=horizon, phi=phi,
                       psi=psi, law=law)


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
                           SeedSpec(0), noise="materialized")
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
        for noise in ("materialized", "auto"):
            batch = resnet_forward(model, x0, 3, SeedSpec(0), store_stride=1,
                                   noise=noise)
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
        batch = resnet_forward(model, x0, 7, seed, noise="materialized")

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
        x0 = np.array([[0.5, -0.5, 1.0, 0.0], [0.5, -0.5, 1.0, 0.0]])
        batch = resnet_forward(model, x0, 8, SeedSpec(9, "couple"),
                               noise="materialized", store_stride=1)
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
        a = resnet_forward(model, x0, 4_000, SeedSpec(23, "proj"),
                           noise="materialized")
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

    def test_explicit_override_kept(self):
        law = FullyIidLaw(1.0, 1.0, dim=64)
        # materialized is the one override; projected is auto's to choose
        assert choose_sampler(law, 2, 64, "materialized") == "materialized"
        for noise in ("projected", "eigh"):
            with pytest.raises(ConfigError):
                choose_sampler(law, 2, 64, noise)


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


def _old_freeze_diverged(x_new, x_old, diverged, cap=None):
    """The guard before it moved to one sum-of-squares test."""
    bad = ~np.isfinite(x_new).all(axis=-1)
    if cap is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            bad |= np.linalg.norm(np.nan_to_num(x_new, nan=np.inf,
                                                posinf=np.inf,
                                                neginf=-np.inf),
                                  axis=-1) > cap
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

    @pytest.mark.parametrize("cap", [None, 1e6, 10.0])
    def test_matches_old_guard(self, cap):
        x_new, x_old, diverged = self.states()
        want, want_div = _old_freeze_diverged(x_new.copy(), x_old, diverged,
                                              cap)
        before = diverged.copy()
        got, got_div = _freeze_diverged(x_new.copy(), x_old, diverged, cap)
        assert np.array_equal(got_div, want_div)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(diverged, before)

    def test_uncapped_ignores_overflowing_finite_rows(self):
        x_new, x_old, diverged = self.states()
        _, div = _freeze_diverged(x_new, x_old, diverged)
        assert not div[3, 1] and not div[3, 2] and not div[2, 0]
        assert div[0, 1] and div[1, 2] and div[1, 3]

    def test_nothing_flagged_returns_new_states(self):
        x = np.ones((2, 3, 4))
        out, div = _freeze_diverged(x, np.zeros_like(x),
                                    np.zeros((2, 3), dtype=bool), cap=1e6)
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
        # N = 2 inputs at D = 8: auto picks the projected draw
        D = 8
        noise = "auto" if mode == "projected" else mode
        x0 = np.vstack([np.full(D, -0.5), np.full(D, 1.0)])
        assert choose_sampler(FullyIidLaw(1.0, 1.0, D), 2, D, noise) == mode
        seed = SeedSpec(43, f"prefix/{sampler}")
        if sampler == "resnet":
            return resnet_forward(iid_model(4, D), x0, n_draws, seed,
                                  noise=noise, store_stride=2)
        if sampler == "sde":
            return simulate_paths(SdeCoefficients(FullyIidLaw(1.0, 1.0, D),
                                                  SWISH, IDENTITY),
                                  x0, 4, 1.0, n_draws, seed, noise=noise,
                                  store_stride=2)
        cfg = FeedforwardConfig(depth=4, width=D, sigma_w2=1.5, sigma_b2=0.1,
                                activation=TANH)
        return feedforward_forward(cfg, x0, n_draws, seed, noise=noise)

    @pytest.mark.parametrize("mode", ["materialized", "projected"])
    @pytest.mark.parametrize("sampler", ["resnet", "sde", "feedforward"])
    def test_chunk_prefix_invariance(self, sampler, mode):
        # a 600-draw run spans chunks [0, 256), [256, 512), [512, 600); its
        # whole chunks are the same draws, bit for bit, in a shorter run.
        # The projected draw, one (chunk, D, K + 1) block per layer, keeps
        # a partial chunk's leading draws too; the materialized draw reads
        # the bias normals after all chunk x D x D weight normals, so its
        # partial chunks depend on their size.
        full = self.run(sampler, mode, 600)
        for n in (300, 512):
            part = self.run(sampler, mode, n)
            same = n if mode == "projected" else n - n % DRAW_CHUNK
            assert same >= DRAW_CHUNK
            assert np.array_equal(full.states[:same], part.states[:same])
            assert np.array_equal(full.diverged[:same], part.diverged[:same])
            assert np.array_equal(full.times, part.times)
        # and each chunk reads its own streams
        assert not np.array_equal(full.xT[DRAW_CHUNK:DRAW_CHUNK + 10],
                                  full.xT[:10])

    def test_feedforward_flags_on_the_pre_activation(self):
        # relu maps -inf to 0, so only the pre-activation shows the overflow:
        # no stored pre-activation is non-finite at any depth, and a flagged
        # draw stores its last finite one, which is the output of the
        # shallower net (streams are keyed by layer) at the deepest depth
        # where that draw was still unflagged
        D, L, n = 4, 10, 200
        x0 = np.vstack([np.full(D, 1.0), np.full(D, -0.5)])

        def run(depth):
            cfg = FeedforwardConfig(depth=depth, width=D, sigma_w2=1e100,
                                    sigma_b2=1.0, activation=RELU)
            return feedforward_forward(cfg, x0, n, SeedSpec(47, "ffflag"),
                                       noise="materialized")

        runs = {k: run(k) for k in range(1, L + 1)}
        deep = runs[L]
        assert deep.diverged.any() and not deep.diverged.all()
        for k in range(1, L + 1):
            assert np.isfinite(runs[k].states).all()
        for k in range(1, L):
            assert not (runs[k].diverged & ~runs[k + 1].diverged).any()
        for d, i in zip(*np.nonzero(deep.diverged)):
            last = max((k for k in runs if not runs[k].diverged[d, i]),
                       default=0)
            want = x0[i] if last == 0 else runs[last].xT[d, i]
            assert np.array_equal(deep.xT[d, i], want)


def serial_propagate(x0, n_draws, seed, depth, dt, step, law, mode, cap=None,
                     store_stride=None):
    """The propagation kernel as a plain loop: for each (chunk, layer),
    build the stream's generator, draw its noise, then take the step."""
    N, D = x0.shape
    cols = min(N, D) if mode == "projected" else None
    keep = _store_plan(depth, store_stride)
    states = np.empty((n_draws, N, keep.size, D))
    diverged = np.zeros((n_draws, N), dtype=bool)
    for start in range(0, n_draws, DRAW_CHUNK):
        n = min(DRAW_CHUNK, n_draws - start)
        x = np.broadcast_to(x0, (n, N, D)).copy()
        div = np.zeros((n, N), dtype=bool)
        trail = [x]
        for l in range(depth):
            rng = make_rng(seed.with_stream(replicate=start // DRAW_CHUNK,
                                            layer=l))
            eps = sample_eps(law, rng, n, cols)
            with np.errstate(over="ignore", invalid="ignore"):
                x_new = step(x, eps, l)
            x, div = _freeze_diverged(x_new, x, div, cap=cap)
            trail.append(x)
        states[start:start + n] = np.stack(trail, axis=2)[:, :, keep]
        diverged[start:start + n] = div
    return PathBatch(times=keep * dt, states=states, diverged=diverged)


class TestNoiseLookahead:
    """The kernel draws the next (chunk, layer)'s noise on a worker thread
    while the current layer computes."""

    @staticmethod
    def run(sampler, noise, law_kind="iid"):
        # 600 draws: two whole chunks and a partial one. At these scales
        # some draws but not all pass the cap (swish) or overflow (relu at
        # sigma_w2 = 1e200), so the flags are compared too.
        D, depth = 8, 4
        x0 = np.vstack([np.full(D, -0.5), np.full(D, 1.0)])
        seed = SeedSpec(53, f"ahead/{sampler}")
        if sampler == "feedforward":
            cfg = FeedforwardConfig(depth=depth, width=D, sigma_w2=1e200,
                                    sigma_b2=1.0, activation=RELU)
            return feedforward_forward(cfg, x0, 600, seed, noise=noise)
        scale, horizon = (4.0, 2.0) if sampler == "sde" else (16.0, 16.0)
        if law_kind == "iid":
            law = FullyIidLaw(sigma_w=scale, sigma_b=scale, dim=D)
        else:
            rng = np.random.default_rng(5)
            law = MatrixNormalLaw(muW=rng.standard_normal((D, D)),
                                  mub=rng.standard_normal(D),
                                  sigmaWO=scale / 2 * np.eye(D) + 0.2,
                                  sigmaWI=np.eye(D), sigmab=np.eye(D))
        if sampler == "sde":
            return simulate_paths(SdeCoefficients(law, SWISH, IDENTITY), x0,
                                  depth, horizon, 600, seed, store_stride=1,
                                  noise=noise)
        model = ModelConfig(depth=depth, width=D, horizon=horizon, phi=SWISH,
                            psi=IDENTITY, law=law)
        return resnet_forward(model, x0, 600, seed, store_stride=1,
                              noise=noise)

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

    def test_draw_failure_raised_and_worker_stopped(self, monkeypatch):
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
        # one worker made every draw, off the calling thread
        assert len(drawers) == 1
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
