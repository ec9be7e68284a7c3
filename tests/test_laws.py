import numpy as np
import pytest

from depthflow import (FullyIidLaw, GeneralGaussianLaw, MatrixNormalLaw,
                       SeedSpec, conditional_variance, cross_covariance,
                       psd_sqrt, time_change_rescale)
from depthflow.config import make_rng
from depthflow.errors import ConfigError, NotPsdError
from depthflow.laws import sample_eps, scale_eps


def random_psd(rng, n):
    B = rng.standard_normal((n, n))
    return B @ B.T


def make_general_law(seed=7, D=2):
    rng = np.random.default_rng(seed)
    return GeneralGaussianLaw(
        muW=np.zeros((D, D)),
        mub=np.zeros(D),
        SigmaW=random_psd(rng, D * D),
        Sigmab=random_psd(rng, D),
    )


class TestPsdSqrt:
    def test_identity(self):
        assert np.array_equal(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        R = psd_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(R, np.diag([2.0, 3.0]))

    def test_random_psd_reconstructs(self):
        rng = np.random.default_rng(0)
        A = random_psd(rng, 5)
        R = psd_sqrt(A)
        assert np.linalg.norm(R @ R - A) / np.linalg.norm(A) <= 1e-10
        assert np.allclose(R, R.T)

    def test_small_negative_eigenvalues_clamped(self):
        A = np.eye(2) * 1.0
        A[1, 1] = -1e-10
        R = psd_sqrt(A)
        assert R[1, 1] == 0.0

    def test_not_psd_rejected(self):
        with pytest.raises(NotPsdError):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ConfigError):
            psd_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestSampling:
    def test_iid_unit_variance_at_d1(self):
        law = FullyIidLaw(sigma_w=1.0, sigma_b=1.0, dim=1)
        rng = make_rng(SeedSpec(11, "var"))
        epsW, epsb = sample_eps(law, rng, 100_000)
        # D=1, dt=1: dW = epsW, SE of the variance estimate ~ sqrt(2/n)
        for v in (epsW.ravel().var(ddof=1), epsb.ravel().var(ddof=1)):
            assert abs(v - 1.0) < 3 * np.sqrt(2 / 100_000)

    def test_iid_column_count(self):
        law = FullyIidLaw(sigma_w=1.0, sigma_b=1.0, dim=6)
        epsW, epsb = sample_eps(law, make_rng(SeedSpec(12, "cols")), 4,
                                cols=3)
        # rows first: each draw's K weight rows, then its bias row
        assert epsW.shape == (4, 3, 6) and epsb.shape == (4, 6)
        mn = make_general_law()
        with pytest.raises(ConfigError):
            sample_eps(mn, make_rng(SeedSpec(12, "cols")), 4, cols=1)

    def test_matrix_normal_diagonal_factors(self):
        law = MatrixNormalLaw(
            muW=np.zeros((2, 2)), mub=np.zeros(2),
            sigmaWO=np.diag([1.0, 2.0]), sigmaWI=np.eye(2),
            sigmab=np.zeros((2, 2)),
        )
        rng = make_rng(SeedSpec(3, "mn"))
        epsW, _ = sample_eps(law, rng, 200_000)
        v = epsW[:, 1, 0]
        assert abs(v.var(ddof=1) - 4.0) < 4 * 4.0 * np.sqrt(2 / v.size)
        c = np.cov(epsW[:, 0, 0], epsW[:, 1, 0])[0, 1]
        assert abs(c) < 4 * 2.0 / np.sqrt(v.size)

    def test_matrix_normal_covariance_factorizes(self):
        D = 3
        rng0 = np.random.default_rng(5)
        law = MatrixNormalLaw(
            muW=np.zeros((D, D)), mub=np.zeros(D),
            sigmaWO=rng0.standard_normal((D, D)),
            sigmaWI=rng0.standard_normal((D, D)),
            sigmab=np.eye(D),
        )
        rng = make_rng(SeedSpec(4, "mnfact"))
        n = 200_000
        epsW, _ = sample_eps(law, rng, n)
        flat = epsW.reshape(n, D * D)
        emp = np.cov(flat, rowvar=False)
        model = np.einsum("oq,ij->oiqj", law.SigmaWO, law.SigmaWI)
        model = model.reshape(D * D, D * D)
        # SE of a covariance entry from the empirical product spread
        prods = flat[:, :, None] * flat[:, None, :]
        se = prods.std(axis=0, ddof=1) / np.sqrt(n)
        assert (np.abs(emp - model) <= 4 * se + 1e-12).all()

    def test_general_law_vec_covariance(self):
        law = make_general_law(seed=9, D=2)
        rng = make_rng(SeedSpec(8, "gen"))
        n = 200_000
        epsW, epsb = sample_eps(law, rng, n)
        # vec stacks columns: flat index d + i*D
        vec = epsW.transpose(0, 2, 1).reshape(n, 4)
        emp = np.cov(vec, rowvar=False)
        prods = vec[:, :, None] * vec[:, None, :]
        se = prods.std(axis=0, ddof=1) / np.sqrt(n)
        assert (np.abs(emp - law.SigmaW) <= 4 * se).all()
        empb = np.cov(epsb, rowvar=False)
        prodsb = epsb[:, :, None] * epsb[:, None, :]
        seb = prodsb.std(axis=0, ddof=1) / np.sqrt(n)
        assert (np.abs(empb - law.Sigmab) <= 4 * seb).all()

    def test_bit_reproducible(self):
        law = FullyIidLaw(sigma_w=1.0, sigma_b=1.0, dim=3)
        seed = SeedSpec(42, "repro", 2)
        a = sample_eps(law, make_rng(seed), 4)
        b = sample_eps(law, make_rng(seed), 4)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        c = sample_eps(law, make_rng(seed.with_stream(replicate=3)), 4)
        assert not np.array_equal(a[0], c[0])
        assert not np.array_equal(a[1], c[1])

    def test_stream_contract_pinned(self):
        # make_rng seeds SFC64 with the spec's SHA-256 and every sampler
        # reads it through standard_normal: a numpy that changes either
        # fails here by name, not only through shifted criteria
        z = make_rng(SeedSpec(0, "pin")).standard_normal(4)
        assert z.tolist() == [1.1158077105472488, 1.5012524994915304,
                              0.0606502456557607, -0.09694462778580255]

    def test_layers_independent_streams(self):
        law = FullyIidLaw(sigma_w=1.0, sigma_b=1.0, dim=2)
        seed = SeedSpec(0, "ind")
        l0, l1 = (sample_eps(law, make_rng(seed.with_stream(layer=l)), 1)
                  for l in (0, 1))
        assert not np.array_equal(l0[0], l1[0])
        assert not np.array_equal(l0[1], l1[1])

    @pytest.mark.parametrize("law_kind, D, cols", [
        ("iid", 32, 3),            # projected
        ("iid", 32, None),         # materialized
        ("matrix_normal", 32, None),
        ("general", 4, None)])
    def test_rows_drawn_in_pieces_are_one_call(self, law_kind, D, cols):
        # the kernel's tiles read a (chunk, layer) stream in pieces, in
        # row order, from one generator; every law must give the bits of
        # one whole call
        rng = np.random.default_rng(11)
        if law_kind == "iid":
            law = FullyIidLaw(sigma_w=1.3, sigma_b=0.7, dim=D)
        elif law_kind == "matrix_normal":
            law = MatrixNormalLaw(
                muW=np.zeros((D, D)), mub=np.zeros(D),
                sigmaWO=rng.standard_normal((D, D)),
                sigmaWI=rng.standard_normal((D, D)),
                sigmab=rng.standard_normal((D, D)))
        else:
            law = make_general_law(D=D)
        seed = SeedSpec(0, "pieces")
        whole = sample_eps(law, make_rng(seed), 256, cols)
        stream = make_rng(seed)
        pieces = [sample_eps(law, stream, n, cols) for n in (5, 1, 250)]
        for k in range(2):
            assert np.array_equal(whole[k],
                                  np.concatenate([p[k] for p in pieces]))

    @pytest.mark.parametrize("law_kind, cols", [
        ("iid", None),
        # the projected draw's two arrays are views into one block
        ("iid", 2),
        # the covariance is baked into the noise: a scale of 1
        ("matrix_normal", None)])
    def test_scale_eps_scales_in_place(self, law_kind, cols):
        if law_kind == "iid":
            law = FullyIidLaw(sigma_w=1.3, sigma_b=0.7, dim=5)
            cw, cb = 1.3 / np.sqrt(5), 0.7
        else:
            law = MatrixNormalLaw(muW=np.zeros((5, 5)), mub=np.zeros(5),
                                  sigmaWO=2 * np.eye(5), sigmaWI=np.eye(5),
                                  sigmab=np.eye(5))
            cw, cb = 1.0, 1.0
        epsW, epsb = sample_eps(law, make_rng(SeedSpec(13, "scale")), 3,
                                cols)
        want = (cw * epsW, cb * epsb)
        got = scale_eps(law, epsW, epsb)
        assert got[0] is epsW and got[1] is epsb
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


class TestConditionalVariance:
    def test_iid_example(self):
        law = FullyIidLaw(sigma_w=1.0, sigma_b=1.0, dim=2)
        V = conditional_variance(law, np.array([1.0, 1.0]))
        assert np.allclose(V, 2.0 * np.eye(2))

    def test_matrix_normal_example(self):
        law = MatrixNormalLaw(
            muW=np.zeros((2, 2)), mub=np.zeros(2),
            sigmaWO=np.eye(2), sigmaWI=np.eye(2), sigmab=np.zeros((2, 2)),
        )
        V = conditional_variance(law, np.array([3.0, 4.0]))
        assert np.allclose(V, 25.0 * np.eye(2))

    def test_general_law_against_monte_carlo(self):
        law = make_general_law(seed=13, D=2)
        psi_x = np.array([0.7, -1.1])
        rng = make_rng(SeedSpec(21, "cvmc"))
        n = 200_000
        epsW, epsb = sample_eps(law, rng, n)
        y = epsW @ psi_x + epsb
        emp = np.cov(y, rowvar=False)
        prods = y[:, :, None] * y[:, None, :]
        se = prods.std(axis=0, ddof=1) / np.sqrt(n)
        V = conditional_variance(law, psi_x)
        assert (np.abs(emp - V) <= 4 * se).all()

    def test_iid_depends_only_on_norm(self):
        law = FullyIidLaw(sigma_w=1.3, sigma_b=0.4, dim=3)
        v = np.array([0.3, -1.2, 2.0])
        V1 = conditional_variance(law, v)
        V2 = conditional_variance(law, v[[2, 0, 1]])
        assert np.array_equal(V1, V2)

    def test_output_symmetric_psd(self):
        for law in (make_general_law(seed=3, D=3),
                    FullyIidLaw(1.0, 1.0, dim=3)):
            if isinstance(law, GeneralGaussianLaw):
                D = 3
                law = GeneralGaussianLaw(np.zeros((D, D)), np.zeros(D),
                                         random_psd(np.random.default_rng(3),
                                                    D * D),
                                         random_psd(np.random.default_rng(4),
                                                    D))
            V = conditional_variance(law, np.array([1.0, -2.0, 0.5]))
            assert np.allclose(V, V.T)
            psd_sqrt(V)  # raises if not PSD


class TestCrossCovariance:
    def test_iid_orthogonal_states(self):
        law = FullyIidLaw(sigma_w=1.0, sigma_b=1.0, dim=2)
        C = cross_covariance(law, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.allclose(C, np.eye(2))

    def test_degenerates_to_conditional_variance(self):
        laws = [
            FullyIidLaw(0.8, 1.4, dim=2),
            make_general_law(seed=17, D=2),
            MatrixNormalLaw(np.zeros((2, 2)), np.zeros(2),
                            np.diag([1.0, 0.5]), np.eye(2), np.eye(2)),
        ]
        v = np.array([0.4, -0.9])
        for law in laws:
            assert np.allclose(cross_covariance(law, v, v),
                               conditional_variance(law, v))

    def test_general_law_against_monte_carlo(self):
        law = make_general_law(seed=23, D=2)
        a = np.array([1.0, 0.3])
        b = np.array([-0.5, 0.8])
        rng = make_rng(SeedSpec(31, "ccmc"))
        n = 200_000
        epsW, epsb = sample_eps(law, rng, n)
        ya = epsW @ a + epsb
        yb = epsW @ b + epsb
        ya_c = ya - ya.mean(axis=0)
        yb_c = yb - yb.mean(axis=0)
        prods = ya_c[:, :, None] * yb_c[:, None, :]
        emp = prods.mean(axis=0)
        se = prods.std(axis=0, ddof=1) / np.sqrt(n)
        C = cross_covariance(law, a, b)
        assert (np.abs(emp - C) <= 4 * se).all()

    def test_dimension_mismatch(self):
        law = FullyIidLaw(1.0, 1.0, dim=3)
        with pytest.raises(ConfigError):
            cross_covariance(law, np.ones(2), np.ones(3))


class TestTimeChange:
    def test_identity_at_c1(self):
        law = FullyIidLaw(1.0, 1.0, dim=2)
        assert time_change_rescale(law, 1.0) == law

    def test_iid_scales_by_sqrt_c(self):
        law = FullyIidLaw(1.0, 1.0, dim=2)
        scaled = time_change_rescale(law, 4.0)
        assert scaled.sigma_w == 2.0 and scaled.sigma_b == 2.0

    def test_general_covariances_scale_linearly(self):
        law = make_general_law(seed=2, D=2)
        scaled = time_change_rescale(law, 3.0)
        assert np.allclose(scaled.SigmaW, 3.0 * law.SigmaW)
        assert np.allclose(scaled.Sigmab, 3.0 * law.Sigmab)


def test_general_law_width_cap():
    D = 65
    with pytest.raises(ConfigError):
        GeneralGaussianLaw(np.zeros((D, D)), np.zeros(D),
                           np.eye(D * D), np.eye(D))
