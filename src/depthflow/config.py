"""Model configuration and the deterministic random-stream contract.

Noise streams are keyed: a stream is identified by the triple
(experiment, replicate, layer), hashed together with the master seed into
the seed of its own SFC64 generator. Identical ``SeedSpec`` values
therefore yield bit-identical noise regardless of evaluation order.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

import numpy as np

from .activations import Activation
from .errors import ConfigError


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a (experiment, replicate, layer) stream id."""

    master: int
    experiment: str = ""
    replicate: int = 0
    layer: int = 0

    def with_stream(self, *, experiment: str | None = None,
                    replicate: int | None = None,
                    layer: int | None = None) -> "SeedSpec":
        changes = {}
        if experiment is not None:
            changes["experiment"] = experiment
        if replicate is not None:
            changes["replicate"] = replicate
        if layer is not None:
            changes["layer"] = layer
        return dataclasses.replace(self, **changes)


def make_rng(seed: SeedSpec) -> np.random.Generator:
    """Build the generator for one stream.

    The SFC64 seed is the first 128 bits of SHA-256 over the canonical
    encoding of the spec, read little-endian, so streams with distinct ids
    are independent and the mapping is stable across platforms. A numpy
    release that changed SFC64's seeding or the normal sampler would change
    every stream; ``tests/test_laws.py`` pins the first normals of one.
    """
    payload = f"{seed.master}|{seed.experiment}|{seed.replicate}|{seed.layer}"
    digest = hashlib.sha256(payload.encode()).digest()
    return np.random.Generator(
        np.random.SFC64(int.from_bytes(digest[:16], "little")))


@dataclass(frozen=True)
class ModelConfig:
    """Depth/width/horizon of one residual model plus its parameter law.

    ``law`` is one of the parameter-law dataclasses from
    :mod:`depthflow.laws`; ``dt`` is always ``horizon / depth``.
    """

    depth: int
    width: int
    horizon: float
    phi: Activation
    psi: Activation
    law: object

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.width < 1:
            raise ConfigError(f"width must be >= 1, got {self.width}")
        if not self.horizon > 0:
            raise ConfigError(f"horizon must be > 0, got {self.horizon}")

    @property
    def dt(self) -> float:
        return self.horizon / self.depth
