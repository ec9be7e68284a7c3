"""Parameter-distribution regimes for depth-scaled residual blocks.

Three regimes are supported, in decreasing order of generality:

* :class:`GeneralGaussianLaw` -- arbitrary Gaussian layer parameters with a
  full covariance over the vectorized weight noise (O(D^4) storage; the
  width is capped in this mode).
* :class:`MatrixNormalLaw` -- matrix-normal weight noise whose covariance
  factorizes into a row (output) factor and a column (input) factor.
* :class:`FullyIidLaw` -- centered i.i.d. entries with the 1/sqrt(D)
  scaling on the weights.

The vectorization convention is fixed once and for all: ``vec`` stacks
columns, so the flat index of weight entry (row d, column i) is ``d + i*D``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# make_rng is unused here; perfbench/test_selftest.py looks it up here
from .config import make_rng  # noqa: F401
from .errors import ConfigError, NotPsdError

GENERAL_LAW_WIDTH_CAP = 64


def psd_sqrt(V: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in ``[-tol, 0)`` with ``tol = 1e-8 * spectral_norm`` are
    clamped to zero; anything below ``-tol`` raises :class:`NotPsdError`.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise ConfigError(f"psd_sqrt expects a square matrix, got shape {V.shape}")
    norm = np.abs(V).max(initial=0.0)
    if norm > 0 and np.abs(V - V.T).max() > 1e-10 * norm:
        raise ConfigError("psd_sqrt expects a symmetric matrix")
    w, Q = np.linalg.eigh(V)
    spectral = np.abs(w).max(initial=0.0)
    tol = 1e-8 * spectral
    if w.min(initial=0.0) < -tol:
        raise NotPsdError(
            f"matrix is not PSD: min eigenvalue {w.min():.3e} < -{tol:.3e}"
        )
    w = np.clip(w, 0.0, None)
    return (Q * np.sqrt(w)) @ Q.T


def _check_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    norm = np.abs(M).max(initial=0.0)
    if norm > 0 and np.abs(M - M.T).max() > 1e-10 * norm:
        raise ConfigError(f"{name} must be symmetric")
    return M


@dataclass(frozen=True)
class GeneralGaussianLaw:
    """Arbitrary Gaussian layer parameters.

    ``SigmaW`` is the D^2 x D^2 covariance of the column-stacked weight
    noise, ``Sigmab`` the D x D covariance of the bias noise. ``muW`` and
    ``mub`` are drifts per unit time.
    """

    muW: np.ndarray
    mub: np.ndarray
    SigmaW: np.ndarray
    Sigmab: np.ndarray

    def __post_init__(self):
        muW = np.asarray(self.muW, dtype=float)
        mub = np.asarray(self.mub, dtype=float)
        D = mub.shape[0]
        if muW.shape != (D, D):
            raise ConfigError(f"muW must be {D}x{D}, got {muW.shape}")
        if D > GENERAL_LAW_WIDTH_CAP:
            raise ConfigError(
                f"general-law width {D} exceeds the cap {GENERAL_LAW_WIDTH_CAP} "
                "(O(D^4) parametrization)"
            )
        SigmaW = _check_symmetric(self.SigmaW, "SigmaW")
        Sigmab = _check_symmetric(self.Sigmab, "Sigmab")
        if SigmaW.shape != (D * D, D * D):
            raise ConfigError(f"SigmaW must be {D * D}x{D * D}, got {SigmaW.shape}")
        if Sigmab.shape != (D, D):
            raise ConfigError(f"Sigmab must be {D}x{D}, got {Sigmab.shape}")
        object.__setattr__(self, "muW", muW)
        object.__setattr__(self, "mub", mub)
        object.__setattr__(self, "SigmaW", SigmaW)
        object.__setattr__(self, "Sigmab", Sigmab)

    @property
    def dim(self) -> int:
        return self.mub.shape[0]

    @cached_property
    def weight_factor(self) -> np.ndarray:
        """Canonical (symmetric) factor of SigmaW."""
        return psd_sqrt(self.SigmaW)

    @cached_property
    def bias_factor(self) -> np.ndarray:
        return psd_sqrt(self.Sigmab)

    @cached_property
    def _sigma_w4(self) -> np.ndarray:
        # SigmaW reshaped so that entry [d, i, u, j] is Cov(W_{d,i}, W_{u,j})
        # under the column-stacking convention.
        D = self.dim
        return self.SigmaW.reshape(D, D, D, D, order="F")

    @property
    def mean_W(self) -> np.ndarray:
        return self.muW

    @property
    def mean_b(self) -> np.ndarray:
        return self.mub


@dataclass(frozen=True)
class MatrixNormalLaw:
    """Matrix-normal weight noise: eps_W ~ MN(0, Sigma_WO, Sigma_WI).

    ``sigmaWO`` is the row factor (Sigma_WO = sigmaWO sigmaWO^T), ``sigmaWI``
    the column factor (Sigma_WI = sigmaWI^T sigmaWI), ``sigmab`` a factor of
    the bias covariance.
    """

    muW: np.ndarray
    mub: np.ndarray
    sigmaWO: np.ndarray
    sigmaWI: np.ndarray
    sigmab: np.ndarray

    def __post_init__(self):
        mub = np.asarray(self.mub, dtype=float)
        D = mub.shape[0]
        for name in ("muW", "sigmaWO", "sigmaWI", "sigmab"):
            M = np.asarray(getattr(self, name), dtype=float)
            if M.shape != (D, D):
                raise ConfigError(f"{name} must be {D}x{D}, got {M.shape}")
            object.__setattr__(self, name, M)
        object.__setattr__(self, "mub", mub)

    @property
    def dim(self) -> int:
        return self.mub.shape[0]

    @cached_property
    def SigmaWO(self) -> np.ndarray:
        return self.sigmaWO @ self.sigmaWO.T

    @cached_property
    def SigmaWI(self) -> np.ndarray:
        return self.sigmaWI.T @ self.sigmaWI

    @cached_property
    def Sigmab(self) -> np.ndarray:
        return self.sigmab @ self.sigmab.T

    @property
    def mean_W(self) -> np.ndarray:
        return self.muW

    @property
    def mean_b(self) -> np.ndarray:
        return self.mub


@dataclass(frozen=True)
class FullyIidLaw:
    """Centered i.i.d. parameters with the 1/sqrt(D) weight scaling.

    The scaling is applied inside the samplers and coefficient evaluators,
    so ``sigma_w`` and ``sigma_b`` are the per-unit-time scales of the
    driving noise before scaling.
    """

    sigma_w: float
    sigma_b: float
    dim: int

    def __post_init__(self):
        if not self.sigma_w >= 0 or not self.sigma_b >= 0:
            raise ConfigError("sigma_w and sigma_b must be nonnegative")
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")

    @property
    def mean_W(self) -> np.ndarray:
        return np.zeros((self.dim, self.dim))

    @property
    def mean_b(self) -> np.ndarray:
        return np.zeros(self.dim)


ParamLaw = GeneralGaussianLaw | MatrixNormalLaw | FullyIidLaw


def sample_eps(law: ParamLaw, rng: np.random.Generator, n: int,
               cols: int | None = None):
    """Draw ``n`` independent (epsW, epsb) noise pairs for one layer stream.

    Shapes: epsW (n, D, D), epsb (n, D). For the general and matrix-normal
    laws the returned noises already carry their configured covariance; for
    the fully i.i.d. law they are standard normal, and ``cols`` asks for
    the projected sampler's noise instead: epsW (n, D, cols) and epsb, read
    from one (n, D, cols + 1) draw whose last column is the bias.
    """
    D = law.dim
    if isinstance(law, FullyIidLaw):
        if cols is not None:
            z = rng.standard_normal((n, D, cols + 1))
            return z[..., :cols], z[..., cols]
        epsW = rng.standard_normal((n, D, D))
        epsb = rng.standard_normal((n, D))
        return epsW, epsb
    if cols is not None:
        raise ConfigError("only the fully i.i.d. law draws projected noise")
    if isinstance(law, MatrixNormalLaw):
        Z = rng.standard_normal((n, D, D))
        zb = rng.standard_normal((n, D))
        epsW = law.sigmaWO @ Z @ law.sigmaWI
        epsb = zb @ law.sigmab.T
        return epsW, epsb
    if isinstance(law, GeneralGaussianLaw):
        z = rng.standard_normal((n, D * D))
        zb = rng.standard_normal((n, D))
        vec = z @ law.weight_factor.T
        # invert column stacking: flat index d + i*D -> entry (d, i)
        epsW = vec.reshape(n, D, D).transpose(0, 2, 1)
        epsb = zb @ law.bias_factor.T
        return epsW, epsb
    raise ConfigError(f"unknown parameter law {type(law).__name__}")


def scale_eps(law: ParamLaw, epsW: np.ndarray, epsb: np.ndarray):
    """Apply the law's deterministic scaling to raw noises, in place.

    Only the fully i.i.d. law scales here (sigma_w/sqrt(D) on weights,
    sigma_b on biases); the other laws bake the covariance into the noise.
    Returns the two arrays it was given.
    """
    if isinstance(law, FullyIidLaw):
        epsW *= law.sigma_w / np.sqrt(law.dim)
        epsb *= law.sigma_b
    return epsW, epsb


def _check_vector(v, D: int, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (D,):
        raise ConfigError(f"{name} must have length {D}, got shape {v.shape}")
    return v


def conditional_variance(law: ParamLaw, psi_x: np.ndarray) -> np.ndarray:
    """Covariance of ``epsW @ psi_x + epsb`` given the state.

    This is the V(x) entering both the drift correction and the diffusion
    factor of the limiting dynamics.
    """
    return cross_covariance(law, psi_x, psi_x)


def cross_covariance(law: ParamLaw, psi_xi: np.ndarray,
                     psi_xj: np.ndarray) -> np.ndarray:
    """Cross-covariance of the weight-bias noise applied to two states.

    Returns the instantaneous cross-covariation rate divided by phi'(0)^2.
    """
    D = law.dim
    a = _check_vector(psi_xi, D, "psi_xi")
    b = _check_vector(psi_xj, D, "psi_xj")
    if isinstance(law, FullyIidLaw):
        rate = law.sigma_b ** 2 + (law.sigma_w ** 2 / D) * float(a @ b)
        return rate * np.eye(D)
    if isinstance(law, MatrixNormalLaw):
        return law.Sigmab + law.SigmaWO * float(a @ law.SigmaWI @ b)
    if isinstance(law, GeneralGaussianLaw):
        M = np.einsum("i,j,diuj->du", a, b, law._sigma_w4)
        return law.Sigmab + M
    raise ConfigError(f"unknown parameter law {type(law).__name__}")


def time_change_rescale(law: ParamLaw, c: float) -> ParamLaw:
    """Rescale a law so that horizon T/c reproduces the original on T.

    Means scale by ``c`` and covariances by ``c`` (factors by sqrt(c)).
    """
    if not c > 0:
        raise ConfigError(f"time-change factor must be > 0, got {c}")
    r = np.sqrt(c)
    if isinstance(law, FullyIidLaw):
        return dataclasses.replace(law, sigma_w=law.sigma_w * r,
                                   sigma_b=law.sigma_b * r)
    if isinstance(law, MatrixNormalLaw):
        return dataclasses.replace(law, muW=law.muW * c, mub=law.mub * c,
                                   sigmaWO=law.sigmaWO * r,
                                   sigmab=law.sigmab * r)
    if isinstance(law, GeneralGaussianLaw):
        return dataclasses.replace(law, muW=law.muW * c, mub=law.mub * c,
                                   SigmaW=law.SigmaW * c,
                                   Sigmab=law.Sigmab * c)
    raise ConfigError(f"unknown parameter law {type(law).__name__}")
