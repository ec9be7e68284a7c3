import numpy as np
import pytest

from depthflow import (ExplosionGuard, FeedforwardConfig, FullyIidLaw,
                       GeneralGaussianLaw, MatrixNormalLaw, ModelConfig,
                       SdeCoefficients, SeedSpec, eoc_solve,
                       feedforward_forward, ks_two_sample, resnet_forward,
                       shallow_block_step, simulate_paths)
from depthflow.activations import IDENTITY, RELU, SWISH, TANH
from depthflow.errors import ConfigError
from depthflow.laws import ParamIncrement
from depthflow.resnet import (HARD_CAP, _batched_psd_factor,
                              _freeze_diverged, choose_sampler)


def iid_model(depth, width, sigma_w=1.0, sigma_b=1.0, phi=TANH, psi=IDENTITY,
              horizon=1.0):
    law = FullyIidLaw(sigma_w=sigma_w, sigma_b=sigma_b, dim=width)
    return ModelConfig(depth=depth, width=width, horizon=horizon, phi=phi,
                       psi=psi, law=law)


def zero_increments(L, D):
    z = np.zeros((D, D))
    return [ParamIncrement(dW=z, db=np.zeros(D), epsW=z, epsb=np.zeros(D))
            for _ in range(L)]


class TestShallowBlock:
    def test_zero_parameters_fixed_point(self):
        x = np.array([0.3, -1.2])
        out = shallow_block_step(TANH, IDENTITY, np.zeros((2, 2)),
                                 np.zeros(2), x)
        assert np.array_equal(out, x)

    def test_identity_doubling(self):
        x = np.array([1.5, -2.0])
        out = shallow_block_step(IDENTITY, IDENTITY, np.eye(2), np.zeros(2), x)
        assert np.allclose(out, 2 * x)

    def test_scalar_tanh(self):
        out = shallow_block_step(TANH, IDENTITY, np.array([[1.0]]),
                                 np.array([0.0]), np.array([0.5]))
        assert out[0] == pytest.approx(0.5 + np.tanh(0.5), abs=1e-14)


class TestResnetForward:
    def test_zero_increments_identity(self):
        model = iid_model(5, 3)
        x0 = np.array([[0.2, -0.4, 1.0]])
        batch = resnet_forward(model, x0, 1, SeedSpec(0),
                               increments=zero_increments(5, 3))
        assert np.array_equal(batch.xT[0, 0], x0[0])

    def test_forced_linear_step(self):
        model = iid_model(1, 1, phi=IDENTITY, psi=IDENTITY)
        w, b = 0.7, -0.3
        inc = [ParamIncrement(dW=np.array([[w]]), db=np.array([b]),
                              epsW=np.zeros((1, 1)), epsb=np.zeros(1))]
        batch = resnet_forward(model, np.array([[2.0]]), 1, SeedSpec(0),
                               increments=inc)
        assert batch.xT[0, 0, 0] == pytest.approx(2.0 + w * 2.0 + b)

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
        b = resnet_forward(model, x0, 4_000, SeedSpec(29, "projb"),
                           noise="projected")
        for n in range(N):
            stat, thr = ks_two_sample(a.xT[:, n, 0], b.xT[:, n, 0])
            assert stat <= thr
        # the gap between the extreme inputs depends on their coupling
        stat, thr = ks_two_sample(a.xT[:, -1, 0] - a.xT[:, 0, 0],
                                  b.xT[:, -1, 0] - b.xT[:, 0, 0])
        assert stat <= thr

    def test_projected_requires_iid_law(self):
        law = MatrixNormalLaw(np.zeros((2, 2)), np.zeros(2), np.eye(2),
                              np.eye(2), np.eye(2))
        model = ModelConfig(depth=2, width=2, horizon=1.0, phi=TANH,
                            psi=IDENTITY, law=law)
        with pytest.raises(ConfigError):
            resnet_forward(model, np.zeros((1, 2)), 1, SeedSpec(0),
                           noise="projected")

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
        assert choose_sampler(law, 2, 64, "materialized") == "materialized"
        assert choose_sampler(law, 400, 64, "projected") == "projected"
        with pytest.raises(ConfigError):
            choose_sampler(law, 2, 64, "eigh")


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
        assert ExplosionGuard().hard_cap == HARD_CAP
        for batch in (net, sde):
            assert batch.diverged.any()
            norms = np.linalg.norm(batch.states, axis=-1)
            assert (norms <= HARD_CAP).all()


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
