"""Reduced-form draw stream: determinism, key derivation, positive definiteness."""

from __future__ import annotations

import numpy as np
import pytest

from svarident.model import ModelDims, baseline_structural
from svarident.sampler import SamplerConfig, draw_reduced_form, stream_key


def test_config_validation():
    dims = ModelDims(3, 1)
    with pytest.raises(ValueError):
        SamplerConfig(dims=dims, diag_floor=0.0)


@pytest.mark.parametrize("field", ["diag_floor"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite(field, value):
    # refused at construction, naming the field, not later as a Sigma with
    # non-finite entries that names no draw
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
        SamplerConfig(dims=ModelDims(3, 1), **{field: value})


def test_stream_key_deterministic_and_distinct():
    assert stream_key(0, 0) == stream_key(0, 0)
    keys = {stream_key(42, i) for i in range(10_000)}
    assert len(keys) == 10_000
    assert stream_key(42, 0) != stream_key(43, 0)
    with pytest.raises(ValueError):
        stream_key(0, -1)


def test_stream_key_accepts_negative_seed():
    assert stream_key(-1, 0) == stream_key(-1 % 2**64, 0)


def test_draws_deterministic():
    cfg = SamplerConfig(dims=ModelDims(3, 2), seed=7)
    a = draw_reduced_form(cfg, 4)
    b = draw_reduced_form(cfg, 4)
    assert np.array_equal(a.B, b.B)
    assert np.array_equal(a.Sigma, b.Sigma)
    c = draw_reduced_form(cfg, 5)
    assert not np.array_equal(a.Sigma, c.Sigma)
    d = draw_reduced_form(SamplerConfig(dims=ModelDims(3, 2), seed=8), 4)
    assert not np.array_equal(a.Sigma, d.Sigma)


def test_draw_shapes():
    for p in (0, 1, 3):
        dims = ModelDims(4, p)
        r = draw_reduced_form(SamplerConfig(dims=dims), 0)
        assert r.B.shape == (dims.m, 4)
        assert r.Sigma.shape == (4, 4)


def test_sigma_exactly_symmetric_and_spd():
    cfg = SamplerConfig(dims=ModelDims(4, 1), seed=17)
    worst = np.inf
    for idx in range(1000):
        r = draw_reduced_form(cfg, idx)
        assert np.array_equal(r.Sigma, r.Sigma.T)
        worst = min(worst, float(np.linalg.eigvalsh(r.Sigma)[0]))
    assert worst > 0.0


def test_every_draw_factors():
    # the diagonal floor keeps Cholesky away from zero pivots
    cfg = SamplerConfig(dims=ModelDims(5, 1), seed=19, diag_floor=0.1)
    for idx in range(200):
        s = baseline_structural(draw_reduced_form(cfg, idx))
        assert np.all(np.isfinite(s.A0))
