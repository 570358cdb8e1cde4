"""The stacked front end of a check: draws, baseline points and f for a
whole batch, against the per-point arithmetic it replaces, and the error
for the first draw that does not factor; a rank cutoff decides the walk,
not whether a draw's A0 is invertible."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from svarident.cli import main
from svarident.errors import NotPositiveDefiniteError, SvarIdentError
from svarident.fixtures import COUNTEREXAMPLE
from svarident.identify import Verdict, _front, _points, check_exact_identification, theorem6_check
from svarident.linalg import RankTolerance, numerical_rank
from svarident.model import baseline_structural, ir_horizon
from svarident.restrictions import assemble_f, compile_spec, parse_spec, restriction_residual
from svarident.sampler import SamplerConfig, draw_reduced_form, stream_key

from helpers import one_point_responses, recursive_spec_text, spec_text_from_cells


def reference_draw(cfg, index):
    """(B, Sigma) of one draw, computed on its own as the sampler did
    before draws were stacked."""
    rng = np.random.default_rng(stream_key(cfg.seed, index))
    n, m = cfg.dims.n, cfg.dims.m
    z = rng.standard_normal((n, n))
    low = np.tril(z, -1)
    np.fill_diagonal(low, np.abs(np.diag(z)) + cfg.diag_floor)
    sigma = low @ low.T
    sigma = (sigma + sigma.T) / 2.0
    return rng.standard_normal((m, n)), sigma


def reference_f(b, sigma, spec):
    """Baseline A0, Aplus and f of one point, each impulse-response block
    computed on its own: its own inverse of A0, B and moving-average
    recursion, as before they were shared."""
    n, p = spec.dims.n, spec.dims.p
    a0 = np.linalg.inv(np.linalg.cholesky(sigma).T)
    aplus = b @ a0
    parts = []
    for block, _ in spec.blocks:
        if block.kind == "A0":
            parts.append(a0)
        elif block.kind == "LAG":
            parts.append(aplus[(block.index - 1) * n:block.index * n])
        elif block.index == 0:
            parts.append(np.linalg.inv(a0).T)
        elif p == 0:
            parts.append(np.zeros((n, n)))
        else:
            parts.append(one_point_responses(a0, aplus, p, block.index))
    return a0, aplus, np.vstack(parts)


@pytest.mark.parametrize("n, p, draws", [(3, 0, 4), (4, 1, 6), (6, 4, 5), (20, 1, 21), (30, 4, 9)])
def test_stacked_front_end_is_bit_identical_to_each_point_alone(n, p, draws):
    # n = 20 walks batches of 20 and n = 30 batches of 8, so the last draw
    # of each case sits alone in a batch of its own
    labels = ["A0", *(f"LAG{lag}" for lag in sorted({1, p}) if p), "IR0", "IR1", "IR5", "IR12"]
    spec = parse_spec(spec_text_from_cells(n, p, {label: {(1, 2)} for label in labels}))
    cfg = SamplerConfig(dims=spec.dims, seed=n + p, diag_floor=1.0 if n >= 20 else 0.1)
    c = compile_spec(spec)
    seeds, batches = _points(c, cfg=cfg, draws=draws)
    done = 0
    for b, sigma in batches:
        a0, aplus, f = _front(b, sigma, c)
        for i in range(len(b)):
            ref_b, ref_sigma = reference_draw(cfg, done + i)
            ref = reference_f(ref_b, ref_sigma, spec)
            assert np.array_equal(b[i], ref_b) and np.array_equal(sigma[i], ref_sigma)
            assert all(np.array_equal(x[i], y) for x, y in zip((a0, aplus, f), ref)), done + i
            # the one-point functions are the same arithmetic
            r = draw_reduced_form(cfg, done + i)
            s = baseline_structural(r)
            assert np.array_equal(r.B, ref_b) and np.array_equal(r.Sigma, ref_sigma)
            assert np.array_equal(s.A0, ref[0]) and np.array_equal(s.Aplus, ref[1])
            assert np.array_equal(assemble_f(s, spec), ref[2])
        done += len(b)
    assert done == draws == len(seeds)


# Default-sampler draws at n = 40 often fail to factor (ROADMAP item 2).
# With seed 29, draw 5 factors and draws 6 and 7 do not; all three are in
# the second batch of 5 (8000 // 40**2).
FAILING_SEED = 29


def test_first_draw_that_does_not_factor_is_named(tmp_path, capsys):
    spec = parse_spec(recursive_spec_text(40, 1))
    cfg = SamplerConfig(dims=spec.dims, seed=FAILING_SEED)

    def factors(i):
        try:
            baseline_structural(draw_reduced_form(cfg, i))
        except NotPositiveDefiniteError:
            return False
        return True

    first = next(i for i in range(10) if not factors(i))
    assert first % 5 and not factors(first + 1)  # not first in its batch, nor alone
    named = rf"draw {first} \(seed {stream_key(FAILING_SEED, first)}\): .*not positive definite"
    with pytest.raises(NotPositiveDefiniteError, match=named):
        check_exact_identification(spec, config=cfg, draws=10)

    path = tmp_path / "rec40.spec"
    path.write_text(recursive_spec_text(40, 1), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", "--spec", str(path), "--seed", str(FAILING_SEED), "--draws", "10"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("svar-ident: error: ")
    assert f"draw {first} (seed {stream_key(FAILING_SEED, first)})" in err
    assert "not positive definite" in err


def test_the_cutoff_does_not_decide_whether_a0_is_invertible(tmp_path, capsys):
    # an absolute cutoff of 0.5 lies above the smallest singular value of A0
    # at draws 1, 3 and 4 of seed 0; it decides the walk's ranks, not whether
    # a Cholesky factor's inverse is invertible, so every draw is walked
    spec = parse_spec(COUNTEREXAMPLE)
    tol = RankTolerance(0.5)
    cfg = SamplerConfig(dims=spec.dims, seed=0)
    below = [i for i in range(5)
             if numerical_rank(baseline_structural(draw_reduced_form(cfg, i)).A0, tol) < 3]
    assert below[0] > 0 and len(below) > 1
    report = check_exact_identification(spec, config=cfg, draws=5, tol=tol)
    assert len(report.draws) == 5
    assert report.verdict is Verdict.NOT_IDENTIFIED_REDUNDANCY
    path = tmp_path / "counterexample.spec"
    path.write_text(COUNTEREXAMPLE, encoding="utf-8")
    capsys.readouterr()
    assert main(["check", "--spec", str(path), "--tol", "0.5"]) == 2
    assert capsys.readouterr().err == ""


def test_an_overflowing_f_names_its_draw_without_numpy_warnings(tmp_path, capsys):
    # an impulse response 5000 steps out of an explosive B overflows: the
    # draw's f is refused, not walked into an SVD that does not converge
    text = spec_text_from_cells(3, 1, {"A0": {(2, 1), (3, 1), (3, 2)}, "IR5000": set()})
    path = tmp_path / "ir5000.spec"
    path.write_text(text, encoding="utf-8")
    message = f"draw 0 (seed {stream_key(0, 0)}): f is not finite: an impulse-response block overflows"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
        with pytest.raises(SvarIdentError) as err:
            check_exact_identification(parse_spec(text), draws=5)
        assert str(err.value) == message
        capsys.readouterr()
        assert main(["check", "--spec", str(path)]) == 4
    assert capsys.readouterr() == ("", f"svar-ident: error: {message}\n")


def test_an_overflowing_impulse_response_is_refused_where_it_is_computed():
    # the refusal lives where the responses are computed, so every function
    # that assembles f refuses that draw's f, without a numpy warning; before,
    # restriction_residual read the all-inf/nan f as satisfied (0.0)
    spec = parse_spec(spec_text_from_cells(3, 1, {"A0": {(2, 1), (3, 1), (3, 2)}, "IR5000": set()}))
    c = compile_spec(spec)
    s = baseline_structural(draw_reduced_form(SamplerConfig(spec.dims, seed=0), 0))
    calls = {
        "assemble_f": lambda: assemble_f(s, spec),
        "ir_horizon": lambda: ir_horizon(s, 5000),
        "restriction_residual": lambda: restriction_residual(s, c, spec),
        "theorem6_check": lambda: theorem6_check(s, c, spec),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
        for name, call in calls.items():
            with pytest.raises(SvarIdentError) as err:
                call()
            assert type(err.value) is SvarIdentError, name
            assert str(err.value) == "f is not finite: an impulse-response block overflows", name
        assert np.isfinite(ir_horizon(s, 20)).all()
