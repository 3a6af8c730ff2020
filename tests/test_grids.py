import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.signal import fftconvolve

from renyi_lab import (AliasingError, ChainTooLongError, ExperimentConfig,
                       GridConfig, GridDensity, GridTooNarrowError, ModelSpec,
                       TailDominanceError, convolve, discretize, entropy,
                       entropy_power, gaussian_grid, gaussian_smooth,
                       grid_from_binary, grid_from_csv, grid_to_binary,
                       grid_to_csv, kl, laplace_eval, make_model,
                       moment_summary, normalized_sum_density,
                       pointwise_density_bound_check, run_experiment,
                       sum_chain, wasserstein2)
from renyi_lab import grids
from conftest import SKEWED, model_of, pn_of

SQRT3 = math.sqrt(3.0)


def test_grid_geometry(uniform_grid):
    p = uniform_grid
    x = p.x
    # midpoint grid is exactly symmetric about zero
    assert np.max(np.abs(x + x[::-1])) == 0.0
    assert abs(p.mass - 1.0) < 1e-12


def test_uniform_moments(uniform_grid):
    m = moment_summary(uniform_grid)
    assert abs(m.mean) < 1e-12
    # cell averaging adds step^2/12 of variance jitter, nothing more
    assert abs(m.variance - 1.0) < 1e-6
    assert abs(m.alpha3) < 1e-12
    assert abs(m.alpha4 - 9.0 / 5.0) < 1e-5


def test_discretize_needs_power_of_two(uniform_model):
    with pytest.raises(ValueError):
        discretize(uniform_model, 12.0, 1000)


def test_too_narrow_window():
    model = model_of({"kind": "normal", "params": {"sigma2": 1.0}})
    with pytest.raises(GridTooNarrowError):
        discretize(model, 0.5, 64)


def test_convolve_gaussians(normal_grid):
    c = convolve(normal_grid, normal_grid)
    m = moment_summary(c)
    assert abs(m.variance - 2.0) < 1e-8
    x = c.x
    ref = np.exp(-0.25 * x * x) / math.sqrt(4.0 * math.pi)
    assert np.max(np.abs(c.values - ref)) < 1e-8


def test_normalized_sum_identity(uniform_grid):
    p1 = pn_of("uniform", 1)
    assert np.array_equal(p1.values, uniform_grid.values)


def test_normalized_sum_variance():
    for n in (2, 8):
        p = pn_of("uniform", n)
        m = moment_summary(p)
        assert abs(m.mean) < 1e-9
        assert abs(m.variance - 1.0) < 1e-6


def _reference_convolve(p, q):
    vals = np.maximum(fftconvolve(p.values, q.values), 0.0) * p.step
    x0 = (p.origin + 0.5 * p.step) + (q.origin + 0.5 * q.step)
    return GridDensity(x0 - 0.5 * p.step, p.step, vals / (p.step * vals.sum()))


def _reference_sum_density(model, n, cfg=GridConfig()):
    """p_n by the per-n path: repeated squaring with fftconvolve, then a
    cubic spline through every node of the chain."""
    work = grids._trimmed(discretize(model, cfg.half_width, cfg.points))
    acc = None
    m = n
    while m:
        if m & 1:
            acc = work if acc is None else _reference_convolve(acc, work)
        m >>= 1
        if m:
            work = _reference_convolve(work, work)
    root_n = math.sqrt(n)
    xs = acc.x
    step = 2.0 * cfg.half_width / cfg.points
    arg = root_n * (-cfg.half_width + step * (np.arange(cfg.points) + 0.5))
    vals = np.where((arg >= xs[0]) & (arg <= xs[-1]),
                    CubicSpline(xs, acc.values)(arg), 0.0)
    vals = np.maximum(vals, 0.0) * root_n
    vals[vals < 1e-13 * vals.max()] = 0.0
    return vals / (step * vals.sum())


@pytest.mark.parametrize("spec", ["uniform", SKEWED,
                                  {"kind": "power_density", "params": {"d": 1}}],
                         ids=["uniform", "skewed", "power_density"])
def test_sum_density_bitwise_reference(spec):
    model = model_of(spec)
    # at n = 33 power_density keeps mass at the window edge, where a spline
    # margin of 16 nodes already changes the last bits
    for n in (2, 3, 5, 8, 12, 33, 64):
        assert np.array_equal(pn_of(spec, n).values,
                              _reference_sum_density(model, n)), n


def test_shared_chain_matches_single_n(skewed_model, capsys):
    ns = (6, 12, 20)
    chain = sum_chain(skewed_model, ns[-1])
    rows = run_experiment(ExperimentConfig(ModelSpec(**SKEWED), "kl", ns))
    capsys.readouterr()
    for n, row in zip(ns, rows):
        p = normalized_sum_density(skewed_model, n)
        assert np.array_equal(chain.density(n).values, p.values)
        assert row[1] == kl(p, gaussian_grid(p))


def test_chain_diagnostics(skewed_model):
    chain = sum_chain(skewed_model, 20)
    assert chain.density(1).meta["conv_count"] == 0
    for n in (6, 12, 20):
        meta = chain.density(n).meta
        assert meta == normalized_sum_density(skewed_model, n).meta
        # squarings up to the top bit, then one product per further set bit
        assert meta["conv_count"] == n.bit_length() + bin(n).count("1") - 2
        assert len(meta["conv_mass_drifts"]) == meta["conv_count"]
        assert max(abs(d) for d in meta["conv_mass_drifts"]) < 1e-12
        # the skewed base keeps its whole grid, so p_n's array is n*(16384-1)+1
        assert meta["chain_max_len"] == n * 16383 + 1
    with pytest.raises(ValueError):
        chain.density(32)


class _ConvolutionStarted(Exception):
    pass


def test_chain_length_cap(skewed_model, monkeypatch):
    def refuse(p, q):
        raise _ConvolutionStarted
    monkeypatch.setattr(grids, "convolve", refuse)
    # n = 4096 needs ~67M points: refused before the first convolution
    with pytest.raises(ChainTooLongError):
        normalized_sum_density(skewed_model, 4096)
    # n = 2048 needs 33552385 <= 2^25 points: the chain starts
    with pytest.raises(_ConvolutionStarted):
        sum_chain(skewed_model, 2048)


def test_aliasing_guard():
    model = model_of({"kind": "normal", "params": {"sigma2": 4.0}})
    with pytest.raises(AliasingError):
        normalized_sum_density(model, 2, GridConfig(half_width=8.0, points=1 << 10))


def test_entropy_normal(normal_grid):
    target = 0.5 * math.log(2.0 * math.pi * math.e)
    assert abs(entropy(normal_grid) - target) < 1e-9
    assert abs(entropy_power(normal_grid) - 2.0 * math.pi * math.e) < 1e-6


def test_entropy_uniform(uniform_grid):
    # the two partially covered boundary cells contribute O(step) error
    assert abs(entropy(uniform_grid) - math.log(2.0 * SQRT3)) < 5e-4


def test_entropy_monotone_in_n():
    # entropy of Z_n is nondecreasing along the powers of two
    h = [entropy(pn_of("uniform", n)) for n in (1, 2, 4, 8, 16)]
    assert all(b >= a - 1e-10 for a, b in zip(h, h[1:]))
    assert h[-1] <= 0.5 * math.log(2.0 * math.pi * math.e) + 1e-8


def test_entropy_power_inequality():
    # N(X+Y) >= N(X) + N(Y) for i.i.d. X, Y uniform
    p1 = pn_of("uniform", 1)
    s = convolve(p1, p1)
    assert entropy_power(s) >= 2.0 * entropy_power(p1) - 1e-9


def test_laplace_eval_uniform(uniform_grid):
    target = math.sinh(SQRT3) / SQRT3  # 1.5805862...
    assert abs(laplace_eval(uniform_grid, 1.0) - target) < 1e-6
    assert abs(target - 1.580586563566668) < 1e-12


def test_laplace_decay_gate(normal_grid):
    with pytest.raises(TailDominanceError):
        laplace_eval(normal_grid, 25.0)


def test_wasserstein_shift(normal_grid):
    shifted = gaussian_grid(normal_grid, mean=0.7)
    assert abs(wasserstein2(normal_grid, shifted) - 0.7) < 1e-4
    assert wasserstein2(normal_grid, normal_grid) < 1e-9


def _w2_reference(p, q, subdiv=1 << 20):
    """The midpoint rule term by term: interpolate both quantiles at every
    u_i = (i + 1/2)/subdiv."""
    cp, xp = grids._quantile_table(p)
    cq, xq = grids._quantile_table(q)
    u = (np.arange(subdiv) + 0.5) / subdiv
    d = np.interp(u, cp, xp) - np.interp(u, cq, xq)
    return float(math.sqrt(np.mean(d * d)))


W2_MODELS = {"skewed": SKEWED, "uniform": "uniform",
             "power_density": {"kind": "power_density", "params": {"d": 1}},
             "mixture": {"kind": "gauss_scale_mixture",
                         "params": {"atoms": [[0.5, 0.6], [0.5, 1.4]]}}}


@pytest.mark.parametrize("spec", list(W2_MODELS.values()), ids=list(W2_MODELS))
def test_wasserstein2_matches_midpoint_reference(spec):
    for n in (1, 2, 4, 8):
        p = pn_of(spec, n)
        q = gaussian_grid(p)
        w2, ref = wasserstein2(p, q), _w2_reference(p, q)
        assert abs(w2 - ref) <= 1e-12 * ref, n
        assert wasserstein2(q, p) == w2
        assert wasserstein2(p, p) == 0.0


# small integer masses put quantile knots on dyadic levels, where the
# midpoints of small or power-of-two subdivisions land exactly
_masses = st.lists(st.one_of(st.integers(0, 4).map(float),
                             st.floats(0.0, 1.0, allow_subnormal=False)),
                   min_size=1, max_size=40).filter(lambda v: sum(v) > 0)
_grid_densities = st.builds(GridDensity, st.floats(-5.0, 5.0),
                            st.floats(0.01, 2.0), _masses)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_grid_densities, _grid_densities,
       st.one_of(st.integers(1, 5000), st.sampled_from([1 << k for k in range(21)])))
def test_wasserstein2_property(p, q, subdiv):
    w2 = wasserstein2(p, q, subdiv)
    # nearly equal tables leave a reference made of rounding noise
    scale = max(abs(p.origin), abs(p.origin + p.n * p.step),
                abs(q.origin), abs(q.origin + q.n * q.step))
    assert math.isclose(w2, _w2_reference(p, q, subdiv),
                        rel_tol=1e-12, abs_tol=1e-14 * scale)
    assert wasserstein2(q, p, subdiv) == w2
    assert wasserstein2(p, p, subdiv) == 0.0


def test_gaussian_smooth_moments(uniform_grid):
    for t in (0.25, 0.5, 0.9):
        g = gaussian_smooth(uniform_grid, t)
        m = moment_summary(g)
        assert abs(m.mean) < 1e-9
        # cubic resampling of the kinky density costs a few 1e-5
        assert abs(m.variance - 1.0) < 1e-4
        # fourth moment interpolates: E X_t^4 = 3 + t^2 (alpha4 - 3)
        assert abs(m.alpha4 - (3.0 + t * t * (9.0 / 5.0 - 3.0))) < 1e-3


def test_gaussian_smooth_endpoints(uniform_grid):
    assert gaussian_smooth(uniform_grid, 1.0) is uniform_grid
    g0 = gaussian_smooth(uniform_grid, 0.0)
    assert np.max(np.abs(g0.values - gaussian_grid(uniform_grid).values)) < 1e-12


def test_pointwise_density_bound_uniform():
    report = pointwise_density_bound_check(model_of("uniform"), n=8,
                                           sigma2=1.0, M=1.0 / (2.0 * SQRT3))
    assert report.holds


def test_csv_roundtrip(tmp_path, uniform_grid):
    path = tmp_path / "grid.csv"
    grid_to_csv(uniform_grid, path)
    back = grid_from_csv(path)
    # 12 significant digits round-trip the step only approximately
    assert abs(back.step - uniform_grid.step) < 1e-9
    assert np.max(np.abs(back.values - uniform_grid.values)) < 1e-10


def test_binary_roundtrip(tmp_path, uniform_grid):
    path = tmp_path / "grid.bin"
    grid_to_binary(uniform_grid, path)
    back = grid_from_binary(path)
    assert back.origin == uniform_grid.origin
    assert back.step == uniform_grid.step
    assert np.array_equal(back.values, uniform_grid.values)
