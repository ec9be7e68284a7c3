"""Estimators and distances used by the verification experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DegenerateDistributionError,
                     InsufficientDataError)

# Asymptotic two-sample KS critical coefficient at alpha = 0.001.
KS_C_ALPHA_001 = 1.949


@dataclass(frozen=True)
class SampleSummary:
    n: int
    mean: np.ndarray
    variance: np.ndarray
    quantiles: dict
    sem: np.ndarray


@dataclass(frozen=True)
class Kde1d:
    grid: np.ndarray
    density: np.ndarray
    bandwidth: float


@dataclass(frozen=True)
class QuadCovEstimate:
    realized: np.ndarray
    model: np.ndarray
    rel_frobenius_error: float


def summarize(samples: np.ndarray, levels=(0.05, 0.5, 0.95)) -> SampleSummary:
    """Per-column moments and interpolated quantiles of an n x k sample."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    n = samples.shape[0]
    if n < 2:
        raise InsufficientDataError(f"need at least 2 samples, got {n}")
    mean = samples.mean(axis=0)
    var = samples.var(axis=0, ddof=1)
    quants = {float(lv): np.quantile(samples, lv, axis=0) for lv in levels}
    sem = np.sqrt(var / n)
    return SampleSummary(n=n, mean=mean, variance=var, quantiles=quants, sem=sem)


def ks_two_sample(a: np.ndarray, b: np.ndarray, alpha: float = 0.001):
    """Two-sample Kolmogorov-Smirnov statistic and critical threshold.

    The statistic is the sup over pooled points of the ECDF gap; the
    threshold is the asymptotic critical value c(alpha)*sqrt((n+m)/(n*m)).
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    n, m = a.size, b.size
    if n < 10 or m < 10:
        raise InsufficientDataError("KS test needs at least 10 samples per side")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / n
    cdf_b = np.searchsorted(b, pooled, side="right") / m
    stat = float(np.abs(cdf_a - cdf_b).max())
    if alpha == 0.001:
        c = KS_C_ALPHA_001
    else:
        c = float(np.sqrt(-0.5 * np.log(alpha / 2.0)))
    threshold = c * np.sqrt((n + m) / (n * m))
    return stat, float(threshold)


def kde1d(samples: np.ndarray, grid: np.ndarray) -> Kde1d:
    """Gaussian-kernel density estimate with the Silverman bandwidth."""
    samples = np.asarray(samples, dtype=float).ravel()
    grid = np.asarray(grid, dtype=float)
    if samples.size < 10:
        raise InsufficientDataError("KDE needs at least 10 samples")
    sd = samples.std(ddof=1)
    if sd == 0:
        raise DegenerateDistributionError("KDE of a zero-variance sample")
    bw = 1.06 * sd * samples.size ** (-0.2)
    # 16 grid points at a time, not a (grid x samples) temporary three
    # times over; each point's sum is the same in any block
    density = np.empty(grid.shape)
    for lo in range(0, grid.size, 16):
        z = (grid[lo:lo + 16, None] - samples[None, :]) / bw
        density[lo:lo + 16] = np.exp(-0.5 * z * z).sum(axis=1)
    density /= samples.size * bw * np.sqrt(2 * np.pi)
    return Kde1d(grid=grid, density=density, bandwidth=float(bw))


def corr_over_inputs(finals: np.ndarray) -> np.ndarray:
    """Pearson correlation matrix of a (draws x inputs) array of outputs."""
    finals = np.asarray(finals, dtype=float)
    if finals.ndim != 2 or finals.shape[0] < 2:
        raise InsufficientDataError("need a (draws >= 2) x inputs array")
    var = finals.var(axis=0, ddof=1)
    dead = np.flatnonzero(var <= 0)
    if dead.size:
        raise DegenerateDistributionError(
            f"zero output variance for input index(es) {dead.tolist()}"
        )
    # one input gives a 0-d corrcoef; the result is (inputs x inputs)
    corr = np.atleast_2d(np.corrcoef(finals, rowvar=False))
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return corr


def quad_covariation(path_i: np.ndarray, path_j: np.ndarray,
                     model_rate: np.ndarray, dt: float) -> QuadCovEstimate:
    """Realized quadratic covariation of two paths vs. a model integral.

    ``path_i``/``path_j`` are (L+1) x D states on a shared grid;
    ``model_rate`` is the per-step D x D covariation rate evaluated at the
    left endpoint of each step (L x D x D).
    """
    path_i = np.asarray(path_i, dtype=float)
    path_j = np.asarray(path_j, dtype=float)
    model_rate = np.asarray(model_rate, dtype=float)
    if path_i.shape != path_j.shape:
        raise ConfigError("paths must share the time grid")
    L = path_i.shape[0] - 1
    if model_rate.shape[0] != L:
        raise ConfigError(
            f"model_rate must have {L} steps, got {model_rate.shape[0]}"
        )
    di = np.diff(path_i, axis=0)
    dj = np.diff(path_j, axis=0)
    realized = np.einsum("ld,lu->du", di, dj)
    model = model_rate.sum(axis=0) * dt
    denom = np.linalg.norm(model)
    err = np.linalg.norm(realized - model) / denom if denom > 0 \
        else np.linalg.norm(realized)
    return QuadCovEstimate(realized=realized, model=model,
                           rel_frobenius_error=float(err))
