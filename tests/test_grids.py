import dataclasses
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.interpolate import CubicSpline
from scipy.signal import fftconvolve

from renyi_lab import (AliasingError, ChainTooLongError,
                       GridConfig, GridDensity, GridTooNarrowError,
                       TailDominanceError, convolve, discretize, entropy,
                       entropy_power, gaussian_grid, gaussian_smooth, kl,
                       laplace_eval, make_model,
                       moment_summary, normalized_sum_density,
                       pointwise_density_bound_check, run_experiment,
                       sum_densities, wasserstein2)
from renyi_lab import grids
from conftest import SKEWED, model_of, pn_of, same_bits

SQRT3 = math.sqrt(3.0)


def test_grid_geometry(uniform_grid):
    p = uniform_grid
    x = p.x
    # midpoint grid is exactly symmetric about zero
    assert np.max(np.abs(x + x[::-1])) == 0.0
    assert abs(p.mass - 1.0) < 1e-12
    # the window's own step and midpoints are the density's, bit for bit
    for cfg in (GridConfig(), GridConfig(20.0, 1 << 15), GridConfig(0.3, 16)):
        q = GridDensity(-cfg.half_width, cfg.step, np.ones(cfg.points))
        assert cfg.step == 2.0 * cfg.half_width / cfg.points and same_bits(cfg.x, q.x)
    assert same_bits(GridConfig().x, x)


def test_grid_x_is_cached_and_read_only(uniform_grid):
    p = GridDensity(uniform_grid.origin, uniform_grid.step, uniform_grid.values)
    assert "x" not in vars(p)  # lazy: a chain power never gets a second array
    x = p.x
    assert p.x is x
    assert np.array_equal(x, p.origin + p.step * (np.arange(p.n) + 0.5))
    with pytest.raises(ValueError):
        x[0] = 0.0


def test_grid_log_values_are_cached_and_read_only():
    p = GridDensity(0.0, 0.5, [0.0, 0.5, 1.5, 0.0])
    assert "log_values" not in vars(p)
    lv = p.log_values
    assert p.log_values is lv
    assert np.array_equal(lv, [-np.inf, math.log(0.5), math.log(1.5), -np.inf])
    with pytest.raises(ValueError):
        lv[1] = 0.0


@pytest.mark.parametrize("bad", [-1e-300, np.nan])
def test_grid_density_refuses_negative_and_nan(bad):
    with pytest.raises(ValueError):
        GridDensity(0.0, 0.1, [0.5, bad, 0.5])


def test_uniform_moments(uniform_grid):
    m = moment_summary(uniform_grid)
    assert abs(m.mean) < 1e-12
    # cell averaging adds step^2/12 of variance jitter, nothing more
    assert abs(m.variance - 1.0) < 1e-6
    assert abs(m.alpha3) < 1e-12
    assert abs(m.alpha4 - 9.0 / 5.0) < 1e-5


@pytest.mark.parametrize("origin, step", [(np.nan, 0.1), (-np.inf, 0.1), (0.0, np.nan),
                                          (0.0, np.inf)])
def test_grid_density_refuses_non_finite_origin_and_step(origin, step):
    with pytest.raises(ValueError, match="finite"):
        GridDensity(origin, step, [0.5, 0.5])


def test_discretize_needs_power_of_two(uniform_model):
    with pytest.raises(ValueError):
        discretize(uniform_model, GridConfig(12.0, 1000))


@pytest.mark.parametrize("half_width, points, phrase", [
    (12.0, 16384.0, "points must be a power of two"),
    (12.0, "16384", "points must be a power of two"),
    ("12", 16384, "half_width must be positive and finite"),
    (None, 16384, "half_width must be positive and finite"),
])
def test_grid_config_refuses_a_window_of_the_wrong_type(half_width, points, phrase):
    with pytest.raises(ValueError, match=phrase):
        GridConfig(half_width, points)


def test_grid_config_takes_numpy_numbers():
    cfg = GridConfig(np.float64(12.0), np.int64(1 << 14))
    assert cfg.step == GridConfig().step and same_bits(cfg.x, GridConfig().x)


@pytest.mark.parametrize("half_width", [np.nan, np.inf])
def test_discretize_refuses_non_finite_half_width(uniform_model, half_width):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="half_width must be positive and finite"):
            discretize(uniform_model, GridConfig(half_width, 1 << 14))


def test_each_n_of_a_sum_samples_the_base_once():
    base = make_model(SKEWED)
    calls = []
    model = grids.AnalyticModel(name="counted", cdf=lambda x: calls.append(1) or base.cdf(x),
                                cumulants=base.cumulants)
    cfg = GridConfig(half_width=10.0, points=1024)
    first = discretize(model, cfg)
    first.values[:] = 0.0  # a caller's copy: the next call must not see this
    again = discretize(model, cfg)
    fresh = discretize(make_model(SKEWED), cfg)
    assert same_bits(again.values, fresh.values) and again.values.flags.writeable
    for n in (2, 4):
        normalized_sum_density(model, n, cfg)
    # a copy with another name and log-Laplace samples the same functions
    twin = dataclasses.replace(model, name="twin", log_laplace=base.log_laplace)
    assert same_bits(discretize(twin, cfg).values, again.values)
    assert len(calls) == 1
    discretize(model, GridConfig(cfg.half_width, 2 * cfg.points))
    assert len(calls) == 2


def test_too_narrow_window():
    model = model_of({"kind": "normal", "params": {"sigma2": 1.0}})
    with pytest.raises(GridTooNarrowError):
        discretize(model, GridConfig(0.5, 64))


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


def _reference_window(p, half):
    """p cut to |x| <= half, the same number of cells from each end."""
    drop = min(math.floor((-p.origin - half) / p.step), (p.n - 1) // 2)
    if drop <= 0:
        return p
    return GridDensity(p.origin + drop * p.step, p.step, p.values[drop:p.n - drop])


def _reference_product(model, n, cfg=GridConfig()):
    """base^n by the per-n path: repeated squaring with fftconvolve, each
    product cut to 40 standard deviations of the sum it holds."""
    base = discretize(model, cfg)
    sd = math.sqrt(base.step * float(np.sum(base.x ** 2 * base.values)))
    work, k_work = grids._trimmed(base), 1
    acc, k_acc = None, 0
    m = n
    while m:
        if m & 1:
            k_acc += k_work
            acc = (work if acc is None else
                   _reference_window(_reference_convolve(acc, work), 40 * sd * math.sqrt(k_acc)))
        m >>= 1
        if m:
            k_work *= 2
            work = _reference_window(_reference_convolve(work, work),
                                     40 * sd * math.sqrt(k_work))
    return acc


def _reference_sum_density(model, n, cfg=GridConfig()):
    """p_n by the per-n path: `_reference_product`, then a cubic spline
    through every node of the chain."""
    acc = _reference_product(model, n, cfg)
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
    # p_n against the per-n path with scipy's CubicSpline through every
    # chain node, to 1e-13 of the peak; at n = 33 power_density keeps
    # mass at the window edge, where the spline margin matters
    model = model_of(spec)
    for n in (2, 3, 5, 8, 12, 33, 64):
        ours, ref = pn_of(spec, n).values, _reference_sum_density(model, n)
        assert np.max(np.abs(ours - ref)) <= 1e-13 * np.max(ref), n


def test_good_size_matches_scipy():
    assert all(grids._good_size(n) == next_fast_len(n, real=True)
               for n in range(1, (1 << 16) + 1))
    rng = np.random.default_rng(0)
    large = [int(n) for n in rng.integers(1 << 16, 1 << 40, 500)]
    large += [m + d for m in (1 << 25, 3 ** 15, 5 ** 11, 2 ** 10 * 3 ** 5 * 5 ** 3)
              for d in (-1, 0, 1)]
    for n in large:
        assert grids._good_size(n) == next_fast_len(n, real=True), n


def _spy_fftconvolve(monkeypatch):
    """Check every _fftconvolve and _fftsquare call against
    scipy.signal.fftconvolve and record its transform length."""
    calls = []
    real, real_square = grids._fftconvolve, grids._fftsquare

    def spy(a, b):
        out = real(a, b)
        assert np.array_equal(out, fftconvolve(a, b)), (len(a), len(b))
        calls.append(grids._good_size(len(a) + len(b) - 1))
        return out

    def spy_square(held):
        a = held[0]
        out = real_square(held)
        assert not held
        assert np.array_equal(out, fftconvolve(a, a)), len(a)
        calls.append(grids._good_size(2 * len(a) - 1))
        return out
    monkeypatch.setattr(grids, "_fftconvolve", spy)
    monkeypatch.setattr(grids, "_fftsquare", spy_square)
    return calls


def test_fftconvolve_matches_scipy_on_chain_products(monkeypatch):
    calls = _spy_fftconvolve(monkeypatch)
    # uniform trims to its support (2366 points); n = 13 multiplies the
    # unequal powers 1, 4 and 8 after three squarings
    normalized_sum_density(model_of("uniform"), 13)
    assert len(calls) == 3 + 2
    assert all(m & (m - 1) for m in calls)  # no power-of-two transform


def test_fftconvolve_matches_scipy_in_gaussian_smooth(monkeypatch, uniform_grid):
    calls = _spy_fftconvolve(monkeypatch)
    for t in (0.05, 0.5, 0.9):
        gaussian_smooth(uniform_grid, t)
    assert len(calls) == 3 and all(m & (m - 1) for m in calls)


# sizes 4 ... 2^17: the two end modes couple up to 64 nodes, and the
# 81-tap filter is longer than the system below 81 nodes
_SIZES = st.one_of(st.integers(4, 300), st.sampled_from(
    [255, 256, 257, 4099, 1 << 14, (1 << 14) + 66, 1 << 17]))


def _assert_spline_close(ours, ref, t, u):
    """The spline through y at x0 + i h, taken at t, within 1e-13 of
    scipy's through y at i, taken at t's offset u from x0 in steps,
    relative to its largest magnitude; NaN exactly where scipy gives NaN."""
    r, o = ref(u), ours(t)
    nan = np.isnan(r)
    assert np.array_equal(np.isnan(o), nan)
    assert np.max(np.abs(o[~nan] - r[~nan])) <= 1e-13 * np.max(np.abs(r[~nan]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_SIZES, st.integers(-10, 3), st.integers(-1000, 1000), st.integers(0, 2 ** 32 - 1))
def test_spline_matches_scipy_cubic_spline(n, k, start, seed):
    # uniform dyadic nodes, so (t - x0)/h is t's exact offset
    rng = np.random.default_rng(seed)
    h = 2.0 ** k
    x = h * (start + np.arange(n))
    y = rng.uniform(-1e3, 1e3, n)
    # extrapolation beyond both ends, every node, midpoints and NaN
    out = rng.uniform(x[0] - 10.0 * h, x[-1] + 10.0 * h, 50)
    t = np.concatenate([out, x, 0.5 * (x[1:] + x[:-1]), [np.nan]])
    ours = grids._spline(x[0], h, y)
    _assert_spline_close(ours, CubicSpline(np.arange(n), y), t, (t - x[0]) / h)
    scalar = ours(float(t[0]))
    assert scalar.shape == () and scalar == ours(t[:1])[0]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_SIZES, st.integers(0, 2 ** 32 - 1), st.booleans())
def test_spline_solve_matches_scipy_on_zero_runs_and_decimal_steps(n, seed, dyadic):
    # zero runs: the slopes decay through the subnormals.  A decimal step
    # from 997 rounds every node x0 + i h, so each point's offset is taken
    # from the node that starts its piece, as the spline takes it
    rng = np.random.default_rng(seed)
    h = 2.0 ** -7 if dyadic else 0.01
    u = h * (np.arange(n) + 0.5)
    x0 = (-3.0 if dyadic else 997.0) + u[0]
    y = np.exp(-0.5 * (u - 3.0) ** 2) * (1.0 + 0.1 * np.sin(7.0 * u))
    for _ in range(3):
        lo = int(rng.integers(0, n))
        y[lo:lo + int(rng.integers(1, 3000))] = 0.0
    t = x0 + h * np.concatenate([np.arange(n), np.arange(n - 1) + 0.5])  # nodes, midpoints
    piece = np.concatenate([np.arange(n - 1), [n - 2], np.arange(n - 1)])
    offsets = piece + (t - (x0 + h * piece)) / h
    _assert_spline_close(grids._spline(x0, h, y), CubicSpline(np.arange(n), y), t, offsets)


# x is the node layout (x0, h) of the values y
@pytest.mark.parametrize("x, y", [
    ((0.0, 1.0), np.ones(3)),                       # fewer than four nodes
    ((0.0, 1.0), np.ones((2, 4))),                  # not one row of values
    ((0.0, -1.0), np.ones(4)),                      # decreasing nodes
    ((0.0, 1.0), np.array([1.0, np.inf, 0.0, 1.0])),
    ((0.0, 1.0), np.array([1.0, np.nan, 0.0, 1.0])),
    ((0.0, 0.0), np.ones(4)),                       # coincident nodes
    ((np.nan, 1.0), np.ones(4)),                    # a non-finite origin or step
    ((-np.inf, 1.0), np.ones(4)),
    ((0.0, np.nan), np.ones(4)),
    ((0.0, np.inf), np.ones(4))])
def test_spline_refuses_bad_nodes(x, y):
    with pytest.raises(ValueError):
        grids._spline(*x, y)


def test_shared_chain_matches_single_n(skewed_model):
    ns = (6, 12, 20)
    stream = {p.meta["n"]: p for p in sum_densities(skewed_model, ns)}
    rows = run_experiment(SKEWED, "kl", ns)
    for n, row in zip(ns, rows):
        p = normalized_sum_density(skewed_model, n)
        assert np.array_equal(stream[n].values, p.values)
        assert row[1] == kl(p, gaussian_grid(p))


@pytest.mark.parametrize("spec", ["uniform", SKEWED])
def test_stream_of_mixed_ns_matches_single_n(spec):
    model = model_of(spec)
    ns = (1, 3, 5, 8, 13, 33)
    stream = list(sum_densities(model, ns))
    assert [p.meta["n"] for p in stream] == list(ns)
    for n, p in zip(ns, stream):
        single = normalized_sum_density(model, n)
        assert np.array_equal(p.values, single.values), n
        assert p.meta == single.meta
        assert p.meta["conv_count"] == n.bit_length() + bin(n).count("1") - 2


def test_stream_releases_powers(monkeypatch):
    powers = []  # weakrefs to the values of the powers squared so far
    live = []    # how many of the earlier ones are alive at each inverse transform
    real_irfft, real_square = np.fft.irfft, grids._fftsquare

    def irfft(*args, **kwargs):
        live.append(sum(r() is not None for r in powers))
        return real_irfft(*args, **kwargs)

    def square(held):
        out = real_square(held)
        powers.append(weakref.ref(out))
        return out
    monkeypatch.setattr(np.fft, "irfft", irfft)
    monkeypatch.setattr(grids, "_fftsquare", square)
    # every n is a power of two, so no pending product holds a power; the
    # uniform chain is below its window until m ~ 533, so each power's
    # values are the squaring's output itself
    stream = sum_densities(model_of("uniform"), (1, 2, 4, 8, 16, 32))
    assert len(list(stream)) == 6
    # each squaring has dropped its input before its inverse transform
    assert live == [0] * 5
    assert len(powers) == 5 and all(r() is None for r in powers)


def test_taken_halving_frees_what_it_replaces(skewed_model, monkeypatch):
    replaced = []  # weakrefs to the values of every array a halving replaced
    stale = []     # how many of them are alive at each forward transform
    real_rfft, real_halved = np.fft.rfft, grids._halved

    def rfft(*args, **kwargs):
        stale.append(sum(r() is not None for r in replaced))
        return real_rfft(*args, **kwargs)

    def halved(p):
        replaced.append(weakref.ref(p.values))
        return real_halved(p)
    monkeypatch.setattr(np.fft, "rfft", rfft)
    monkeypatch.setattr(grids, "_halved", halved)
    # the m = 256 and m = 1024 squarings each halve the power
    steps = [p.meta["chain_step"] for p in sum_densities(skewed_model, (256, 1024))]
    assert steps == [2 * 24.0 / 16384, 4 * 24.0 / 16384]
    assert len(replaced) == 2
    # ten squarings and no product; no replaced array reaches a later one
    assert stale == [0] * 10


def test_declined_halving_keeps_no_power(monkeypatch):
    inputs = []  # weakrefs to the values each squaring was given
    dead = []    # whether that input is freed at the squaring's inverse transform
    real_irfft, real_square = np.fft.irfft, grids._fftsquare

    def irfft(*args, **kwargs):
        dead.append(inputs[-1]() is None)
        return real_irfft(*args, **kwargs)

    def square(held):
        inputs.append(weakref.ref(held[0]))
        return real_square(held)
    monkeypatch.setattr(np.fft, "irfft", irfft)
    monkeypatch.setattr(grids, "_fftsquare", square)
    # on this fine grid the chain declines the halving at m = 2, whose
    # triangle density has kinks, and takes three after; n = 2 and 16 are
    # powers of two, so no pending product holds a power
    stream = sum_densities(model_of("uniform"), (2, 16), GridConfig(12.0, 262144))
    assert len(list(stream)) == 2
    assert dead == [True] * 4


def test_stream_standardizes_by_sigma():
    # S_n/(sigma sqrt(n)) is the resample of the same product base^n;
    # n = 1 resamples the base itself
    model = model_of({"kind": "power_density", "params": {"d": 1}})
    ns = (1, 3, 8)
    for n, p in zip(ns, sum_densities(model, ns, sigma=SQRT3)):
        ref = grids._resample_sum(_reference_product(model, n), n, GridConfig(), SQRT3)
        assert same_bits(p.values, ref.values), n
        assert p.meta["n"] == n


def test_chain_diagnostics(skewed_model):
    stream = {p.meta["n"]: p for p in sum_densities(skewed_model, (1, 6, 12, 20))}
    assert stream[1].meta["conv_count"] == 0
    assert stream[1].meta["chain_step"] == 24.0 / 16384
    for n in (6, 12, 20):
        meta = stream[n].meta
        assert meta == normalized_sum_density(skewed_model, n).meta
        # squarings up to the top bit, then one product per further set bit
        assert meta["conv_count"] == n.bit_length() + bin(n).count("1") - 2
        assert len(meta["conv_mass_drifts"]) == meta["conv_count"]
        assert max(abs(d) for d in meta["conv_mass_drifts"]) < 1e-12
        # the skewed base keeps its whole grid, so p_n's array is
        # n*(16384-1)+1 long, 12n a side, until the window (40 sd, sd ~ 1,
        # so 40 sqrt(n) a side) is the narrower: from n = 12 on
        assert meta["chain_max_len"] == _reference_product(skewed_model, n).n
        step = 24.0 / 16384
        assert meta["chain_step"] == step  # no halving below m = 256
        if n == 6:
            assert meta["chain_max_len"] == n * 16383 + 1
        else:
            assert 0.0 <= 0.5 * step * meta["chain_max_len"] - 40.0 * math.sqrt(n) < 2 * step
    for ns in ((), (0, 4), (6, 6), (12, 6)):
        with pytest.raises(ValueError):
            next(sum_densities(skewed_model, ns))


class _TransformStarted(Exception):
    pass


def test_chain_length_cap(skewed_model, monkeypatch):
    def refuse(*args, **kwargs):
        raise _TransformStarted
    monkeypatch.setattr(np.fft, "rfft", refuse)
    # halved arrays stay bounded, so n = 2^18 on the default grid starts
    with pytest.raises(_TransformStarted):
        next(sum_densities(skewed_model, (1 << 18,)))
    # on a 12x65536 grid the first squaring outputs 131071 points: over a
    # 2^16 cap it is refused before the first transform, also when
    # smaller n come first
    monkeypatch.setattr(grids, "CHAIN_MAX_POINTS", 1 << 16)
    fine = GridConfig(12.0, 1 << 16)
    with pytest.raises(ChainTooLongError, match="131071 points"):
        normalized_sum_density(skewed_model, 2, fine)
    with pytest.raises(ChainTooLongError, match="n = 64 needs"):
        next(sum_densities(skewed_model, (1, 3, 64), fine))


@pytest.mark.parametrize("spec, ns", [(SKEWED, (3, 12, 20, 64)), ("uniform", (5, 600)),
                                      ({"kind": "power_density", "params": {"d": 1}}, (96,))],
                         ids=["skewed", "uniform", "power_density"])
def test_chain_length_cap_is_the_longest_array(spec, ns, monkeypatch):
    # the cap is checked against the longest convolution output the pass
    # allocates, a squaring's before its cut included: a cap at that
    # length lets the pass run, one point less refuses it
    model = model_of(spec)
    lengths = []

    def recorded(transform):
        def spy(*args):
            out = transform(*args)
            lengths.append(len(out))
            return out
        return spy
    monkeypatch.setattr(grids, "_fftsquare", recorded(grids._fftsquare))
    monkeypatch.setattr(grids, "_fftconvolve", recorded(grids._fftconvolve))
    products = [p.meta["chain_max_len"] for p in sum_densities(model, ns)]
    assert max(products) < max(lengths)
    monkeypatch.setattr(grids, "CHAIN_MAX_POINTS", max(lengths))
    assert [p.meta["chain_max_len"] for p in sum_densities(model, ns)] == products
    monkeypatch.setattr(grids, "CHAIN_MAX_POINTS", max(lengths) - 1)
    with pytest.raises(ChainTooLongError, match=f"{max(lengths)} points"):
        next(sum_densities(model, ns))


def test_chain_window_guard(skewed_model, monkeypatch):
    # a 3-sd window would cut real mass: refused, naming the model and m
    monkeypatch.setattr(grids, "_WINDOW_SD", 3.0)
    with pytest.raises(AliasingError, match=r"bernoulli_gauss.*m = 2\b"):
        normalized_sum_density(skewed_model, 16)


@pytest.mark.parametrize("spec", [
    SKEWED, {"kind": "power_density", "params": {"d": 1}},
    {"kind": "gauss_scale_mixture", "params": {"atoms": [[0.5, 0.6], [0.5, 1.6]]}}],
    ids=["skewed", "power_density", "mixture"])
def test_chain_window_drops_only_round_off(spec, monkeypatch):
    # the window against no window: a cell at the resample's 1e-13 floor
    # may flip, hence 2e-13 of the peak
    model = model_of(spec)
    ns = (16, 64, 256)
    windowed = list(sum_densities(model, ns))
    monkeypatch.setattr(grids, "_WINDOW_SD", math.inf)
    for n, p, q in zip(ns, windowed, sum_densities(model, ns)):
        assert n == 16 or p.meta["chain_max_len"] < q.meta["chain_max_len"]  # it binds
        assert np.max(np.abs(p.values - q.values)) <= 2e-13 * np.max(q.values), n
        ref = kl(q, gaussian_grid(q))
        assert abs(kl(p, gaussian_grid(p)) - ref) <= 1e-10 * ref, n


@pytest.mark.parametrize("spec", [
    SKEWED, "uniform", {"kind": "power_density", "params": {"d": 1}},
    {"kind": "gauss_scale_mixture", "params": {"atoms": [[0.5, 0.6], [0.5, 1.6]]}}],
    ids=["skewed", "uniform", "power_density", "mixture"])
def test_chain_halving_drops_only_round_off(spec, monkeypatch):
    # the halved chain against the chain at the base step: a cell at the
    # resample's 1e-13 floor may flip, hence 2e-13 of the peak
    model = model_of(spec)
    ns = (256, 1000, 1024)
    halved = list(sum_densities(model, ns))
    monkeypatch.setattr(grids, "_NODES_PER_SD", math.inf)
    for n, p, q in zip(ns, halved, sum_densities(model, ns)):
        assert p.meta["chain_step"] > q.meta["chain_step"], n  # it halves
        assert p.meta["chain_max_len"] < q.meta["chain_max_len"], n
        assert np.max(np.abs(p.values - q.values)) <= 2e-13 * np.max(q.values), n
        ref = kl(q, gaussian_grid(q))
        assert abs(kl(p, gaussian_grid(p)) - ref) <= max(1e-10 * ref, 1e-15), n


def test_chain_arrays_are_bounded(skewed_model):
    # the sd of each sum spans at most 2 * 4096 chain nodes, so the
    # +-40 sd window holds at most 80 * 8192 of them at any n; the step
    # doubles at m = 256 and 1024 (sd ~ 1, so 683 sqrt(m) nodes per sd)
    step = 24.0 / 16384
    stream = {p.meta["n"]: p for p in sum_densities(skewed_model, (1024, 1 << 14, 1 << 20))}
    assert [p.meta["chain_step"] / step for p in stream.values()] == [4.0, 16.0, 128.0]
    assert all(p.meta["chain_max_len"] <= 80 * 8192 + 1 for p in stream.values())
    p = stream[1 << 20]
    n_kl = (1 << 20) * kl(p, gaussian_grid(p))
    gamma3 = moment_summary(discretize(skewed_model, GridConfig(12.0, 1 << 14))).alpha3
    assert abs(n_kl / (gamma3 ** 2 / 12.0) - 1.0) < 1e-4


def test_chain_halving_declines(monkeypatch):
    # on a 12x262144 grid the sd of S_2 spans ~15,400 nodes, but the kink
    # of uniform's triangle is off the 4-point cubic by ~8e-7 of the
    # peak: the pass keeps its step there and halves later, where the sum
    # is smooth; skewed halves at once
    fine = GridConfig(12.0, 1 << 18)
    step = 24.0 / (1 << 18)
    ns = (2, 16, 64)
    uniform = list(sum_densities(model_of("uniform"), ns, fine))
    assert [p.meta["chain_step"] / step for p in uniform] == [1.0, 8.0, 16.0]
    skewed = list(sum_densities(model_of(SKEWED), ns, fine))
    assert [p.meta["chain_step"] / step for p in skewed] == [2.0, 8.0, 16.0]
    with monkeypatch.context() as m:
        m.setattr(grids, "_NODES_PER_SD", math.inf)
        for n, p, q in zip(ns, uniform, sum_densities(model_of("uniform"), ns, fine)):
            assert np.max(np.abs(p.values - q.values)) <= 2e-13 * np.max(q.values), n
    # a declined halving leaves the m = 4 squaring 4 points longer than
    # the plan, so a cap between the two is met by that transform's own
    # check, after p_2 is out
    monkeypatch.setattr(grids, "CHAIN_MAX_POINTS", 151348)
    stream = sum_densities(model_of("uniform"), (2, 16), fine)
    assert next(stream).meta["n"] == 2
    with pytest.raises(ChainTooLongError, match="convolution array of 151349 points"):
        next(stream)


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
    # the error names the edge that failed the gate
    for t, edge in ((25.0, "right"), (-25.0, "left")):
        with pytest.raises(TailDominanceError) as info:
            laplace_eval(normal_grid, t)
        assert info.value.edge == edge


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


@pytest.mark.parametrize("points", [1 << 12, 1 << 14])
@pytest.mark.parametrize("t", [0.05, 0.5, 0.9])
def test_gaussian_smooth_exact_lattice_moments(points, t):
    # the smoothed density is X_t = sqrt(t) X + sqrt(1-t) Z for X the
    # grid's own lattice law, so its moments follow from the grid's
    p = pn_of("uniform", 1, points=points)
    m, g = moment_summary(p), moment_summary(gaussian_smooth(p, t))
    m2 = m.variance + m.mean ** 2
    assert abs(g.variance - (t * m.variance + 1.0 - t)) < 1e-9
    alpha4 = t * t * m.alpha4 + 6.0 * t * (1.0 - t) * m2 + 3.0 * (1.0 - t) ** 2
    assert abs(g.alpha4 - alpha4) < 1e-8


def test_gaussian_smooth_records_mass_drift(uniform_grid):
    g = gaussian_smooth(uniform_grid, 0.5)
    assert g.meta["t"] == 0.5
    assert abs(g.meta["mass_drift"]) < 1e-12
    assert abs(g.mass - 1.0) < 1e-12


def test_gaussian_smooth_refuses_mass_leaving_the_window():
    # flat on the whole window: at t = 0.9 about 3e-4 of X_t's mass lies
    # beyond +-12, which is refused rather than renormalized away
    flat = GridDensity(-12.0, 24.0 / 4096, np.full(4096, 1.0 / 24.0))
    with pytest.raises(AliasingError, match="mass 0.9997"):
        gaussian_smooth(flat, 0.9)


def test_gaussian_smooth_refuses_long_lattice_before_any_transform(monkeypatch, uniform_grid):
    def no_transform(*args, **kwargs):
        raise AssertionError("a transform ran")
    with monkeypatch.context() as m:
        m.setattr(np.fft, "rfft", no_transform)
        # the default cap: the lattice at t = 1e-6 has about 2^25.3 points
        with pytest.raises(ChainTooLongError):
            gaussian_smooth(uniform_grid, 1e-6)
        m.setattr(grids, "CHAIN_MAX_POINTS", 1 << 16)
        with pytest.raises(ChainTooLongError, match="t = 0.05"):
            gaussian_smooth(uniform_grid, 0.05)
    monkeypatch.setattr(grids, "CHAIN_MAX_POINTS", 1 << 16)
    gaussian_smooth(uniform_grid, 0.9)  # a lattice of 34,592 points fits


def test_gaussian_smooth_one_convolution_one_spline(monkeypatch, uniform_grid):
    counts = {"_spline": 0, "_fftconvolve": 0, "_fftsquare": 0}
    for name in counts:
        def spy(*args, _real=getattr(grids, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(grids, name, spy)
    for t in (0.05, 0.5, 0.9):
        gaussian_smooth(uniform_grid, t)
    assert counts == {"_spline": 3, "_fftconvolve": 3, "_fftsquare": 0}


def test_laplace_eval_overflow_off_the_support(uniform_grid):
    # e^(60 x) overflows beyond x = 11.8, where the uniform grid is 0:
    # those cells are 0 rather than 0 * inf = NaN
    a = 60.0 * SQRT3
    assert math.isclose(laplace_eval(uniform_grid, 60.0), math.sinh(a) / a, rel_tol=1e-3)
    assert math.isclose(laplace_eval(uniform_grid, -60.0), math.sinh(a) / a, rel_tol=1e-3)


def test_laplace_eval_overflow_on_the_support_names_the_edge():
    # skewed is positive down to x = -12, where e^(720) overflows
    p = pn_of(SKEWED, 1)
    with pytest.raises(TailDominanceError, match="overflows") as info:
        laplace_eval(p, -60.0)
    assert info.value.edge == "left"


def test_laplace_eval_refuses_nan_t(uniform_grid):
    # e^(NaN x) is NaN on every cell: an argument error, not an overflow
    with pytest.raises(ValueError, match="NaN"):
        laplace_eval(uniform_grid, math.nan)


def test_pointwise_density_bound_uniform():
    report = pointwise_density_bound_check(model_of("uniform"), n=8,
                                           sigma2=1.0, M=1.0 / (2.0 * SQRT3))
    assert report.holds
    # a level M under p_2's: the five leftmost failing cells are the witnesses
    low = pointwise_density_bound_check(model_of("uniform"), n=2, sigma2=1.0, M=0.05)
    assert low.verdict == "fails" and len(low.witnesses) == 5
    xs, margins = zip(*low.witnesses)
    assert abs(xs[0] + 2.3196) < 1e-4 and abs(margins[0] + 1.7617e-4) < 1e-7
    assert list(xs) == sorted(xs) and max(margins) < -low.tolerances["margin_tol"]
