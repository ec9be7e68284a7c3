import numpy as np
import pytest

from depthflow import (ExplosionGuard, FullyIidLaw, GeneralGaussianLaw,
                       MatrixNormalLaw, ModelConfig, SdeCoefficients,
                       SeedSpec, conditional_variance, cross_covariance,
                       diffusion_eval, drift_eval, euler_step_coupled,
                       euler_step_decoupled, ks_two_sample,
                       linear_growth_check, resnet_forward, simulate_paths,
                       time_change_rescale)
from depthflow.activations import IDENTITY, RELU, SWISH, TANH
from depthflow.config import make_rng
from depthflow.errors import ConfigError
from depthflow.laws import sample_eps
from depthflow.sde import generate_noise_plan


def iid_coeffs(D, sigma_w=1.0, sigma_b=1.0, phi=TANH, psi=IDENTITY):
    return SdeCoefficients(law=FullyIidLaw(sigma_w, sigma_b, dim=D),
                           phi=phi, psi=psi)


def random_general_law(seed, D=2, with_mean=True):
    rng = np.random.default_rng(seed)
    BW = rng.standard_normal((D * D, D * D)) / np.sqrt(D)
    Bb = rng.standard_normal((D, D))
    return GeneralGaussianLaw(
        muW=0.4 * rng.standard_normal((D, D)) if with_mean else np.zeros((D, D)),
        mub=0.4 * rng.standard_normal(D) if with_mean else np.zeros(D),
        SigmaW=BW @ BW.T,
        Sigmab=Bb @ Bb.T,
    )


class TestCoefficients:
    def test_tanh_iid_drift_vanishes(self):
        coeffs = iid_coeffs(3, sigma_w=1.7, sigma_b=0.5)
        assert np.array_equal(drift_eval(coeffs, np.array([1.0, -2.0, 0.3])),
                              np.zeros(3))

    def test_swish_iid_drift_example(self):
        coeffs = iid_coeffs(2, phi=SWISH)
        d = drift_eval(coeffs, np.array([1.0, 1.0]))
        assert np.allclose(d, [0.5, 0.5])

    def test_iid_tanh_diffusion_example(self):
        coeffs = iid_coeffs(2)
        S = diffusion_eval(coeffs, np.array([1.0, 1.0]))
        assert np.allclose(S, np.sqrt(2.0) * np.eye(2))

    def test_bias_only_noise_at_origin(self):
        law = MatrixNormalLaw(np.zeros((2, 2)), np.zeros(2),
                              np.diag([0.7, 1.3]), np.eye(2), np.eye(2))
        coeffs = SdeCoefficients(law=law, phi=SWISH, psi=IDENTITY)
        S = diffusion_eval(coeffs, np.zeros(2))
        assert np.allclose(S, SWISH.dphi0 * np.eye(2))

    def test_relu_rejected_in_diffusion_mode(self):
        with pytest.raises(ConfigError):
            iid_coeffs(2, phi=RELU)

    def test_factor_consistency_all_laws(self):
        laws = [
            FullyIidLaw(1.2, 0.7, dim=2),
            MatrixNormalLaw(np.zeros((2, 2)), np.zeros(2),
                            np.array([[1.0, 0.2], [0.0, 0.8]]),
                            np.array([[0.9, 0.0], [0.3, 1.1]]), np.eye(2)),
            random_general_law(41),
        ]
        rng = np.random.default_rng(1)
        for law in laws:
            coeffs = SdeCoefficients(law=law, phi=SWISH, psi=TANH)
            for _ in range(5):
                x = rng.standard_normal(2)
                S = diffusion_eval(coeffs, x)
                V = conditional_variance(law, TANH(x))
                target = SWISH.dphi0 ** 2 * V
                err = np.linalg.norm(S @ S.T - target)
                assert err <= 1e-8 * (1 + np.linalg.norm(target))

    def test_general_law_drift_against_one_step_oracle(self):
        # conditional-mean oracle: E[dx | x] / dt from one ResNet step at
        # tiny dt
        law = random_general_law(7)
        coeffs = SdeCoefficients(law=law, phi=SWISH, psi=IDENTITY)
        x = np.array([0.4, -0.8])
        dt = 1e-6
        model = ModelConfig(depth=1, width=2, horizon=dt, phi=SWISH,
                            psi=IDENTITY, law=law)
        batch = resnet_forward(model, x[None, :], 400_000, SeedSpec(2, "dmc"))
        inc = (batch.xT[:, 0, :] - x) / dt
        se = inc.std(axis=0, ddof=1) / np.sqrt(inc.shape[0])
        assert (np.abs(inc.mean(axis=0) - drift_eval(coeffs, x))
                <= 4 * se).all()

    def test_general_law_diffusion_against_one_step_oracle(self):
        law = random_general_law(19, with_mean=False)
        coeffs = SdeCoefficients(law=law, phi=TANH, psi=IDENTITY)
        x = np.array([0.9, 0.2])
        dt = 1e-6
        model = ModelConfig(depth=1, width=2, horizon=dt, phi=TANH,
                            psi=IDENTITY, law=law)
        batch = resnet_forward(model, x[None, :], 400_000, SeedSpec(3, "smc"))
        inc = batch.xT[:, 0, :] - x
        inc_c = inc - inc.mean(axis=0)
        prods = inc_c[:, :, None] * inc_c[:, None, :] / dt
        emp = prods.mean(axis=0)
        se = prods.std(axis=0, ddof=1) / np.sqrt(prods.shape[0])
        S = diffusion_eval(coeffs, x)
        assert (np.abs(emp - S @ S.T) <= 4 * se).all()


class TestSteppers:
    def test_degenerate_law_keeps_state(self):
        coeffs = iid_coeffs(2, sigma_w=0.0, sigma_b=0.0)
        x = np.array([0.4, -0.1])
        out = euler_step_decoupled(coeffs, x, 0.1, np.array([1.0, -1.0]))
        assert np.array_equal(out, x)

    def test_euler_on_pure_drift(self):
        law = GeneralGaussianLaw(np.zeros((2, 2)), np.array([2.0, -1.0]),
                                 np.zeros((4, 4)), np.zeros((2, 2)))
        coeffs = SdeCoefficients(law=law, phi=TANH, psi=IDENTITY)
        x = np.zeros(2)
        out = euler_step_decoupled(coeffs, x, 0.5, np.zeros(2))
        assert np.allclose(out, [1.0, -0.5])

    def test_one_step_variance_from_origin(self):
        # exact one-step Gaussian oracle: psi(0) = 0 kills the weight term
        coeffs = iid_coeffs(4)
        dt = 1.0 / 500
        rng = make_rng(SeedSpec(4, "1step"))
        zeta = rng.standard_normal((100_000, 4))
        S = coeffs.diffusion_factor(np.zeros(4))
        stepped = (S @ zeta.T).T * np.sqrt(dt)
        v = stepped[:, 0].var(ddof=1)
        target = coeffs.phi.dphi0 ** 2 * 1.0 * dt
        assert abs(v - target) <= 4 * target * np.sqrt(2 / zeta.shape[0])
        assert target == pytest.approx(0.002)

    def test_coupled_identical_rows_bitwise(self):
        coeffs = iid_coeffs(3)
        states = np.array([[0.3, -0.5, 1.0], [0.3, -0.5, 1.0]])
        rng = make_rng(SeedSpec(5, "bit"))
        epsW, epsb = rng.standard_normal((3, 3)), rng.standard_normal(3)
        out = euler_step_coupled(coeffs, states, 0.01, epsW, epsb)
        assert np.array_equal(out[0], out[1])

    def test_coupled_orthogonal_states_cross_covariance(self):
        coeffs = iid_coeffs(8)
        dt = 0.01
        states = np.zeros((2, 8))
        states[0, 0] = 1.0
        states[1, 1] = 1.0
        rng = make_rng(SeedSpec(6, "cross"))
        n = 100_000
        epsW = rng.standard_normal((n, 8, 8))
        epsb = rng.standard_normal((n, 8))
        # vectorized replica of the coupled step's noise term
        from depthflow.sde import _scaled_noise_term
        px = np.broadcast_to(states, (n, 2, 8))
        term = coeffs.phi.dphi0 * _scaled_noise_term(coeffs.law, px, epsW,
                                                     epsb) * np.sqrt(dt)
        prods = term[:, 0, :, None] * term[:, 1, None, :]
        emp = prods.mean(axis=0)
        se = prods.std(axis=0, ddof=1) / np.sqrt(n)
        target = dt * np.eye(8)  # phi'(0)^2 sigma_b^2 dt I
        assert (np.abs(emp - target) <= 4 * se).all()

    def test_coupled_marginal_matches_decoupled(self):
        coeffs = iid_coeffs(4)
        x0 = np.array([0.5, -0.5, 1.0, 0.0])
        n = 10_000
        batch = simulate_paths(coeffs, x0[None, :], 1, 0.01, n,
                               SeedSpec(7, "marg"), noise="materialized")
        coupled = batch.xT[:, 0, 0]
        rng = make_rng(SeedSpec(8, "margd"))
        zeta = rng.standard_normal((n, 4))
        S = coeffs.diffusion_factor(x0)
        decoupled = (x0 + (S @ zeta.T).T * np.sqrt(0.01))[:, 0]
        stat, _ = ks_two_sample(coupled, decoupled)
        assert stat <= 0.0275


class TestSimulatePaths:
    def test_degenerate_law_constant_paths(self):
        coeffs = iid_coeffs(3, sigma_w=0.0, sigma_b=0.0)
        x0 = np.array([[1.0, 2.0, 3.0]])
        batch = simulate_paths(coeffs, x0, 16, 1.0, 10, SeedSpec(9, "const"),
                               store_stride=4)
        assert np.array_equal(batch.states,
                              np.broadcast_to(x0, batch.states.shape))

    def test_martingale_mean_conservation(self):
        coeffs = iid_coeffs(16)
        x0 = np.full((1, 16), 0.8)
        batch = simulate_paths(coeffs, x0, 64, 1.0, 5_000,
                               SeedSpec(10, "mart"))
        first = batch.xT[:, 0, 0]
        se = first.std(ddof=1) / np.sqrt(first.size)
        assert abs(first.mean() - 0.8) <= 4 * se

    def test_swish_explosive_fraction_reported(self):
        coeffs = iid_coeffs(32, phi=SWISH)
        batch = simulate_paths(coeffs, np.full((1, 32), 1.0), 100, 1.0, 2_000,
                               SeedSpec(11, "boom"))
        assert batch.explosive_fraction <= 10 / 2_000

    def test_diverged_paths_frozen_not_crashed(self):
        # brutal drift via a large-mean general law forces the cap quickly
        law = GeneralGaussianLaw(np.zeros((2, 2)), np.full(2, 1e8),
                                 np.zeros((4, 4)), np.zeros((2, 2)))
        coeffs = SdeCoefficients(law=law, phi=TANH, psi=IDENTITY)
        batch = simulate_paths(coeffs, np.zeros((1, 2)), 8, 1.0, 3,
                               SeedSpec(12, "cap"),
                               guard=ExplosionGuard(hard_cap=10.0))
        assert batch.diverged.all()
        assert np.isfinite(batch.states).all()

    def test_time_change_invariance_small(self):
        coeffs = iid_coeffs(16)
        x0 = np.full((1, 16), 0.5)
        base = simulate_paths(coeffs, x0, 64, 1.0, 4_000, SeedSpec(13, "tc"))
        law2 = time_change_rescale(coeffs.law, 2.0)
        coeffs2 = SdeCoefficients(law=law2, phi=TANH, psi=IDENTITY)
        resc = simulate_paths(coeffs2, x0, 32, 0.5, 4_000, SeedSpec(14, "tc2"))
        stat, _ = ks_two_sample(base.xT[:, 0, 0], resc.xT[:, 0, 0])
        assert stat <= 0.05

    # (21, 64) is the corr_heatmap shape, from rank-one z * 1 inputs
    @pytest.mark.parametrize("N, D, L", [(2, 32, 32), (21, 64, 16)])
    def test_projected_matches_materialized_in_law(self, N, D, L):
        coeffs = iid_coeffs(D)
        x0 = np.repeat(np.linspace(0.0, 1.0, N)[:, None], D, axis=1)
        a = simulate_paths(coeffs, x0, L, 1.0, 4_000, SeedSpec(15, "pm"),
                           noise="materialized")
        b = simulate_paths(coeffs, x0, L, 1.0, 4_000, SeedSpec(16, "pm2"),
                           noise="projected")
        for n in range(N):
            stat, thr = ks_two_sample(a.xT[:, n, 0], b.xT[:, n, 0])
            assert stat <= thr
        stat, thr = ks_two_sample(a.xT[:, -1, 0] - a.xT[:, 0, 0],
                                  b.xT[:, -1, 0] - b.xT[:, 0, 0])
        assert stat <= thr


class TestQuadraticCovariation:
    def test_coupled_pair_consistent_with_model_rate(self):
        from depthflow import quad_covariation
        coeffs = iid_coeffs(8)
        L, n_draws = 4_000, 30
        x0 = np.vstack([np.full(8, -0.5), np.full(8, 1.0)])
        batch = simulate_paths(coeffs, x0, L, 1.0, n_draws,
                               SeedSpec(17, "qc"), store_stride=1,
                               noise="materialized")
        dt = 1.0 / L
        realized = np.zeros((8, 8))
        model = np.zeros((8, 8))
        for k in range(n_draws):
            pi = batch.states[k, 0]
            pj = batch.states[k, 1]
            rate = np.empty((L, 8, 8))
            scal = coeffs.law.sigma_b ** 2 + (
                coeffs.law.sigma_w ** 2 / 8) * np.einsum(
                    "ld,ld->l", pi[:-1], pj[:-1])
            rate[:] = scal[:, None, None] * np.eye(8)
            est = quad_covariation(pi, pj, rate, dt)
            realized += est.realized / n_draws
            model += est.model / n_draws
        err = np.linalg.norm(realized - model) / np.linalg.norm(model)
        assert err <= 0.10


class TestLinearGrowth:
    def test_bounded_inner_activation_satisfies(self):
        ok, _ = linear_growth_check(iid_coeffs(4, phi=TANH, psi=TANH))
        assert ok

    def test_tanh_identity_satisfies(self):
        ok, _ = linear_growth_check(iid_coeffs(4, phi=TANH, psi=IDENTITY))
        assert ok

    def test_swish_identity_violates(self):
        ok, c = linear_growth_check(iid_coeffs(4, phi=SWISH, psi=IDENTITY))
        assert not ok
        assert c > 0


def test_noise_plan_reproducible():
    a = generate_noise_plan(3, 5, SeedSpec(1, "plan"))
    b = generate_noise_plan(3, 5, SeedSpec(1, "plan"))
    assert np.array_equal(a.epsW, b.epsW)
    assert np.array_equal(a.zeta, b.zeta)
    assert a.epsW.shape == (5, 3, 3)
