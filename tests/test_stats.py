import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthflow import (corr_over_inputs, kde1d, ks_two_sample,
                       quad_covariation, summarize)
from depthflow.errors import (ConfigError, DegenerateDistributionError,
                              InsufficientDataError)


class TestSummarize:
    def test_median(self):
        s = summarize(np.array([1.0, 2.0, 3.0]), levels=(0.5,))
        assert s.quantiles[0.5][0] == 2.0

    def test_constant_sample(self):
        s = summarize(np.full(50, 3.0))
        assert s.variance[0] == 0.0

    def test_normal_quantile(self):
        rng = np.random.default_rng(0)
        s = summarize(rng.standard_normal(100_000), levels=(0.95,))
        assert s.quantiles[0.95][0] == pytest.approx(1.6449, abs=0.02)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            summarize(np.array([1.0]))

    def test_quantiles_monotone_and_bracketed(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(500)
        levels = (0.05, 0.25, 0.5, 0.75, 0.95)
        s = summarize(x, levels=levels)
        vals = [s.quantiles[lv][0] for lv in levels]
        assert vals == sorted(vals)
        assert x.min() <= vals[0] and vals[-1] <= x.max()


class TestKs:
    def test_identical_samples(self):
        x = np.linspace(0, 1, 100)
        stat, _ = ks_two_sample(x, x)
        assert stat == 0.0

    def test_disjoint_samples(self):
        stat, _ = ks_two_sample(np.linspace(0, 1, 50), np.linspace(2, 3, 50))
        assert stat == 1.0

    def test_null_distribution_respects_threshold(self):
        rng = np.random.default_rng(2)
        rejections = 0
        for _ in range(20):
            a = rng.standard_normal(10_000)
            b = rng.standard_normal(10_000)
            stat, thr = ks_two_sample(a, b)
            assert thr == pytest.approx(1.949 * np.sqrt(2 / 10_000))
            rejections += stat > 0.0275
        assert rejections == 0

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_symmetric_and_monotone_invariant(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(60)
        b = rng.standard_normal(80) + 0.3
        s1, _ = ks_two_sample(a, b)
        s2, _ = ks_two_sample(b, a)
        assert s1 == pytest.approx(s2)
        s3, _ = ks_two_sample(np.exp(a), np.exp(b))
        assert s1 == pytest.approx(s3)


class TestKde:
    def test_normal_density_at_zero(self):
        rng = np.random.default_rng(3)
        k = kde1d(rng.standard_normal(100_000), np.array([0.0]))
        assert k.density[0] == pytest.approx(0.3989, abs=0.02)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(500)
        grid = np.linspace(-3, 3, 101)
        k1 = kde1d(x, grid)
        k2 = kde1d(x + 5.0, grid + 5.0)
        assert np.allclose(k1.density, k2.density)

    def test_bandwidth_positive(self):
        k = kde1d(np.arange(20, dtype=float), np.array([0.0]))
        assert k.bandwidth > 0

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateDistributionError):
            kde1d(np.full(100, 2.0), np.array([0.0]))

    def test_blocks_keep_the_bits_of_the_whole_grid(self):
        # the grid is evaluated a block of points at a time; each point's
        # density is the whole (grid x samples) product's, bit for bit
        rng = np.random.default_rng(6)
        x = rng.standard_normal(1024)
        grid = np.linspace(-3, 3, 256)
        k = kde1d(x, grid)
        z = (grid[:, None] - x[None, :]) / k.bandwidth
        whole = np.exp(-0.5 * z * z).sum(axis=1) / (
            x.size * k.bandwidth * np.sqrt(2 * np.pi))
        assert np.array_equal(k.density, whole)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2_000)
        grid = np.linspace(-8, 8, 2001)
        k = kde1d(x, grid)
        assert np.trapezoid(k.density, grid) == pytest.approx(1.0, abs=1e-3)


class TestCorr:
    def test_duplicated_columns(self):
        rng = np.random.default_rng(6)
        col = rng.standard_normal(200)
        corr = corr_over_inputs(np.column_stack([col, col]))
        assert corr[0, 1] == pytest.approx(1.0)

    def test_independent_columns(self):
        rng = np.random.default_rng(7)
        corr = corr_over_inputs(rng.standard_normal((10_000, 3)))
        off = corr[~np.eye(3, dtype=bool)]
        assert (np.abs(off) <= 0.05).all()

    def test_shape_and_bounds(self):
        rng = np.random.default_rng(8)
        corr = corr_over_inputs(rng.standard_normal((100, 4)))
        assert np.allclose(corr, corr.T)
        assert np.array_equal(np.diag(corr), np.ones(4))
        assert (np.abs(corr) <= 1.0).all()

    def test_one_input_is_one_by_one(self):
        x = np.random.default_rng(10).standard_normal((50, 1))
        corr = corr_over_inputs(x)
        assert corr.shape == (1, 1) and corr[0, 0] == 1.0

    def test_degenerate_column_named(self):
        x = np.random.default_rng(9).standard_normal((50, 3))
        x[:, 1] = 7.0
        with pytest.raises(DegenerateDistributionError, match="1"):
            corr_over_inputs(x)


class TestQuadCovariation:
    def test_pure_drift_vanishes(self):
        L = 10_000
        t = np.linspace(0, 1, L + 1)
        path = np.column_stack([2 * t, -t])
        est = quad_covariation(path, path, np.zeros((L, 2, 2)), 1.0 / L)
        assert np.linalg.norm(est.realized) <= 1e-3

    def test_brownian_motion_realized_variation(self):
        L = 10_000
        rng = np.random.default_rng(10)
        misses = 0
        for _ in range(40):
            path = np.concatenate(
                [[0.0], np.cumsum(rng.standard_normal(L) / np.sqrt(L))]
            )[:, None]
            est = quad_covariation(path, path, np.ones((L, 1, 1)), 1.0 / L)
            misses += abs(est.realized[0, 0] - 1.0) > 0.05
        assert misses <= 4  # 95% of seeds within 5%

    def test_bilinear_in_increments(self):
        L = 50
        rng = np.random.default_rng(11)
        p1 = rng.standard_normal((L + 1, 2))
        p2 = rng.standard_normal((L + 1, 2))
        p3 = rng.standard_normal((L + 1, 2))
        rate = np.zeros((L, 2, 2))
        a = quad_covariation(p1, p3, rate, 0.1).realized
        b = quad_covariation(p2, p3, rate, 0.1).realized
        both = quad_covariation(
            p1 + p2 - p1[0] - p2[0], p3, rate, 0.1).realized
        assert np.allclose(both, a + b)

    def test_grid_mismatch(self):
        with pytest.raises(ConfigError):
            quad_covariation(np.zeros((5, 2)), np.zeros((6, 2)),
                             np.zeros((4, 2, 2)), 0.1)

    def test_diagonal_nonnegative_for_self(self):
        rng = np.random.default_rng(12)
        p = rng.standard_normal((100, 3))
        est = quad_covariation(p, p, np.zeros((99, 3, 3)), 0.01)
        assert (np.diag(est.realized) >= 0).all()
