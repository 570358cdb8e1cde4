"""Random reduced-form parameter draws with a stateless (seed, index) contract."""

from __future__ import annotations

import numpy as np

from .linalg import _Record
from .model import ModelDims, ReducedFormParams


class SamplerConfig(_Record):
    """How to draw reduced-form points.

    Sigma is built as L L' from a random lower-triangular L with standard
    normal entries below the diagonal and |standard normal| + diag_floor on
    it, which keeps every draw safely positive definite; B entries are
    standard normal.
    """

    dims: ModelDims
    diag_floor: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.diag_floor < np.inf:
            raise ValueError(f"diag_floor must be positive and finite, got {self.diag_floor!r}")


def stream_key(seed: int, index: int) -> int:
    """Scalar generator key for draw `index` of stream `seed`.

    The key both seeds the generator and appears in reports, so any reported
    draw can be reproduced from the report alone.
    """
    if index < 0:
        raise ValueError("index must be nonnegative")
    seq = np.random.SeedSequence(entropy=seed % 2**64, spawn_key=(index,))
    return int(seq.generate_state(1, np.uint64)[0])


def _draw_stack(cfg: SamplerConfig, keys) -> tuple[np.ndarray, np.ndarray]:
    """The draws with generator keys `keys` (see stream_key), stacked: B
    (M, m, n) and Sigma (M, n, n).  Each key seeds its own generator, so
    every draw is the one draw_reduced_form gives for its index."""
    n, m = cfg.dims.n, cfg.dims.m
    z, b = np.empty((len(keys), n, n)), np.empty((len(keys), m, n))
    for i, key in enumerate(keys):
        rng = np.random.default_rng(key)
        rng.standard_normal(out=z[i])
        rng.standard_normal(out=b[i])
    low = np.tril(z, -1)
    diag = np.s_[:, ::n + 1]  # the diagonals, with each matrix flattened
    low.reshape(len(keys), -1)[diag] = np.abs(z.reshape(len(keys), -1)[diag]) + cfg.diag_floor
    sigma = low @ low.swapaxes(1, 2)
    sigma = (sigma + sigma.swapaxes(1, 2)) / 2.0
    return b, sigma


def draw_reduced_form(cfg: SamplerConfig, index: int) -> ReducedFormParams:
    """Deterministic draw number `index` from the stream defined by cfg.seed."""
    b, sigma = _draw_stack(cfg, [stream_key(cfg.seed, index)])
    return ReducedFormParams(cfg.dims, b[0], sigma[0])
