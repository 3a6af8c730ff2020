import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renyi_lab import (GridDensity, NormalMomentVector, SeriesError,
                       TailDominanceError, chi2_from_normal_moments,
                       gaussian_grid, gaussian_smooth, hermite_coefficients,
                       hermite_eval, normal_moments, pearson_vajda)
from renyi_lab import hermite
from conftest import SKEWED, model_of, pn_of, same_bits


def test_recurrence_small_orders():
    x = np.linspace(-4, 4, 17)
    assert np.allclose(hermite_eval(2, x), x ** 2 - 1.0)
    assert np.allclose(hermite_eval(3, x), x ** 3 - 3.0 * x)
    assert np.allclose(hermite_eval(4, x), x ** 4 - 6.0 * x ** 2 + 3.0)
    assert hermite_eval(0, 1.7) == 1.0


def test_coefficients_match_eval():
    x = np.linspace(-3, 3, 11)
    for k in (5, 8, 13):
        coeffs = hermite_coefficients(k)
        direct = sum(c * x ** d for d, c in enumerate(coeffs))
        assert np.max(np.abs(direct - hermite_eval(k, x))) < 1e-8 * np.max(
            np.abs(direct))


def test_orthogonality():
    # E H_j(Z) H_k(Z) = k! delta_jk by wide-window quadrature
    q = gaussian_grid(pn_of("uniform", 1, half_width=20.0, points=1 << 15))
    w = q.step * q.values
    for j in range(0, 13):
        hj = hermite_eval(j, q.x)
        for k in range(j, 13):
            inner = float(np.sum(w * hj * hermite_eval(k, q.x)))
            target = math.factorial(k) if j == k else 0.0
            assert abs(inner - target) < 1e-9 * max(1.0, math.factorial(k)), (j, k)


def test_power_density_normal_moments():
    c = normal_moments(model_of({"kind": "power_density", "params": {"d": 1}}), K=12)
    assert abs(c[2] - 2.0) < 1e-10
    others = [abs(c[k]) for k in range(1, 13) if k != 2]
    assert max(others) < 1e-8
    assert abs(chi2_from_normal_moments(c).value - 2.0) < 1e-8


def test_parseval_smooth_members():
    specs = [
        {"kind": "power_density", "params": {"d": 2}},
        {"kind": "gauss_scale_mixture", "params": {"atoms": [[0.5, 0.7], [0.5, 1.3]]}},
        {"kind": "sin_power", "params": {"m": 4}},
    ]
    for spec in specs:
        p = pn_of(spec, 1)
        grid_chi2 = pearson_vajda(p, gaussian_grid(p), 2.0)
        series = chi2_from_normal_moments(normal_moments(model_of(spec), K=40))
        assert abs(series.value - grid_chi2) < 1e-5, spec["kind"]


def test_parseval_uniform_honest_about_tail():
    # the uniform's Parseval series decays only like K^(-1/2): the
    # partial sum at K = 40 is short of the true chi-square by ~0.09.
    # Acceptable outcomes: the convergence gate refuses, or the value
    # comes back with a tail bound that covers the deficit.
    chi2_exact = 0.3285566972797267  # closed-form quadrature of p^2/phi - 1
    c = normal_moments(model_of("uniform"), K=40)
    try:
        res = chi2_from_normal_moments(c)
    except SeriesError:
        return
    assert res.value < chi2_exact
    assert abs(res.value - chi2_exact) < res.tail_bound


def _smoothed_uniform_model(t):
    """Exact density of sqrt(t) U + sqrt(1-t) Z for U uniform."""
    from scipy.special import ndtr
    from renyi_lab import AnalyticModel
    a = math.sqrt(3.0 * t)
    s = math.sqrt(1.0 - t)

    def density(x):
        x = np.asarray(x, dtype=float)
        return (ndtr((x + a) / s) - ndtr((x - a) / s)) / (2.0 * a)

    return AnalyticModel(name=f"smoothed_uniform({t})", density=density)


def test_heat_flow_chi2():
    # chi^2(sqrt(t) X + sqrt(1-t) Z, Z) = sum t^k c_k^2 / k!
    c = normal_moments(model_of("uniform"), K=40)
    for t in (0.3, 0.5, 0.6):
        pt = pn_of("uniform", 1)
        pt = gaussian_smooth(pt, t)
        lhs = pearson_vajda(pt, gaussian_grid(pt), 2.0)
        rhs = chi2_from_normal_moments(c, t=t)
        assert abs(lhs - rhs.value) < 1e-5 + rhs.tail_bound, t


def test_heat_flow_monotone_in_t():
    c = normal_moments(model_of("uniform"), K=40)
    vals = [chi2_from_normal_moments(c, t=t).value
            for t in (0.0, 0.2, 0.4, 0.6, 0.8)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] == 0.0


def test_smoothing_scales_normal_moments():
    # c_k(aX + bZ) = a^k c_k(X) when a^2 + b^2 = 1
    t = 0.49
    base = normal_moments(model_of("uniform"), K=10)
    smoothed = normal_moments(_smoothed_uniform_model(t), K=10)
    a = math.sqrt(t)
    for k in range(1, 11):
        assert abs(smoothed[k] - a ** k * base[k]) < 1e-6, k


def test_moment_recovery_uniform():
    # E X^k = k! sum_j c_{k-2j} / ((k-2j)! j! 2^j)
    c = normal_moments(model_of("uniform"), K=10)
    f = math.factorial
    raw = [f(k) * sum(c[k - 2 * j] / (f(k - 2 * j) * f(j) * 2.0 ** j) for j in range(k // 2 + 1))
           for k in range(len(c))]
    assert abs(raw[1]) < 1e-10
    assert abs(raw[2] - raw[1] ** 2 - 1.0) < 1e-8
    assert abs(raw[4] - 9.0 / 5.0) < 1e-7
    # E X^6 = 27/7, E X^8 = 9 for the unit-variance uniform
    assert abs(raw[6] - 27.0 / 7.0) < 1e-6
    assert abs(raw[8] - 9.0) < 1e-5


def _per_k_normal_moments(model, K):
    """normal_moments with one hermite_eval call per k, the O(K^2 N) form."""
    if model.support_radius is not None:
        r = float(model.support_radius)
        nodes, wts = np.polynomial.legendre.leggauss(max(64, 2 * K))
        x = r * nodes
        dens = np.asarray(model.density(x), dtype=float)
        cs = [1.0] + [float(r * np.sum(wts * dens * hermite_eval(k, x)))
                      for k in range(1, K + 1)]
        total = float(r * np.sum(wts * dens))
        return tuple(c / total for c in cs)
    half, points = hermite._MOMENT_GRID
    step = 2.0 * half / points
    x = -half + step * (np.arange(points) + 0.5)
    vals = np.maximum(np.asarray(model.density(x), dtype=float), 0.0)
    p = GridDensity(-half, step, vals / (step * vals.sum()))
    w = p.step * p.values
    return (1.0,) + tuple(float(np.sum(w * hermite_eval(k, p.x)))
                          for k in range(1, K + 1))


@pytest.mark.parametrize("spec, K", [
    ("uniform", 40),                                       # Gauss-Legendre
    (SKEWED, 120),                                         # grid
    ({"kind": "power_density", "params": {"d": 1}}, 60),   # grid
])
def test_one_pass_recurrence_bitwise(spec, K):
    model = model_of(spec)
    assert normal_moments(model, K).values == _per_k_normal_moments(model, K)


def test_series_refuses_non_finite_moments():
    # H_k overflows on the |x| <= 20 moment grid from k = 266 on
    with pytest.raises(SeriesError, match="c_266 "):
        normal_moments(model_of({"kind": "power_density", "params": {"d": 2}}), K=300)
    for bad in (math.nan, math.inf):
        with pytest.raises(SeriesError, match="c_2 "):
            chi2_from_normal_moments(NormalMomentVector((1.0, 0.0, bad, 0.0)))


def test_normal_moments_refuses_a_negative_order():
    uniform = model_of("uniform")
    for p in (uniform, model_of("normal"), pn_of("uniform", 1)):
        with pytest.raises(ValueError, match="non-negative"):
            normal_moments(p, K=-1)
        c = normal_moments(p, K=0)
        assert len(c) == 1 and abs(c[0] - 1.0) < 1e-12


def test_series_divergence_gate():
    # N(0, lam): c_2m = (lam-1)^m (2m-1)!!; term ratio -> (lam-1)^2,
    # so lam = 2 (infinite chi^2) trips the gate while lam = 1.5 converges
    def c_of(lam, K=40):
        vals = [1.0]
        for k in range(1, K + 1):
            if k % 2:
                vals.append(0.0)
            else:
                m = k // 2
                vals.append((lam - 1.0) ** m * math.prod(range(2 * m - 1, 0, -2)))
        return NormalMomentVector(tuple(vals))

    good = chi2_from_normal_moments(c_of(1.5))
    target = 1.0 / math.sqrt(1.5 * (2.0 - 1.5)) - 1.0
    assert abs(good.value - target) < 1e-9 + good.tail_bound
    with pytest.raises(SeriesError):
        chi2_from_normal_moments(c_of(2.0))


def test_legendre_rule_is_capped(monkeypatch):
    # no c_k above 301 is finite, so K = 2000 builds a 1024-node rule,
    # not one of 4000 nodes, and fails at c_302 as any rule does
    leggauss, sizes = np.polynomial.legendre.leggauss, []

    def spy(n):
        sizes.append(n)
        if n > 1024:
            raise AssertionError(f"a {n}-node Gauss-Legendre rule")
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", spy)
    with pytest.raises(SeriesError, match="c_302 "):
        normal_moments(model_of("uniform"), K=2000)
    assert sizes == [1024]


def test_tail_dominance_gate():
    # K = 40 on a half-width-6 grid: H_40 phi has not decayed at the edge
    from renyi_lab import GridConfig, discretize
    narrow = discretize(model_of("normal"), GridConfig(6.0, 1 << 12))
    with pytest.raises(TailDominanceError):
        normal_moments(narrow, K=40)


def _full_gate_moments(p, K):
    """normal_moments on a grid with the full |H_k| p pass at every order,
    as it gated before the probe bound: c_0.. up to the first order that
    fails the gate, and that order (None if every order passes)."""
    w = p.step * p.values
    cs = [1.0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k, hk in enumerate(hermite._hermite_seq(K, p.x), start=1):
            integ = np.abs(hk) * p.values
            peak = integ.max()
            if peak > 0 and max(integ[0], integ[-1]) > 1e-12 * peak:
                return cs, k
            cs.append(float(np.sum(w * hk)))
    return cs, None


@st.composite
def _edge_gated_grids(draw):
    """A narrow bump whose peak lies between two probe cells, with edge
    cells within a factor 2 of 1e-12 of the peak of |H_k| p at a drawn k."""
    n = draw(st.integers(512, 4096))
    half = draw(st.floats(3.0, 9.0))
    stride = n // hermite._PROBES
    centre = stride * draw(st.integers(16, hermite._PROBES - 16)) + draw(st.integers(1, stride - 1))
    width = draw(st.floats(0.2, 40.0))
    i = np.arange(n)
    v = np.exp(-0.5 * ((i - centre) / width) ** 2)
    p = GridDensity(-half, 2.0 * half / n, v)
    K = draw(st.integers(1, 40))
    h = np.abs(hermite_eval(draw(st.integers(1, K)), p.x))
    peak = float(np.max(h * v))
    for edge in (0, -1):
        if draw(st.booleans()):
            v[edge] = draw(st.floats(0.5, 2.0)) * 1e-12 * peak / h[edge]
    return GridDensity(p.origin, p.step, v), K


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_edge_gated_grids())
def test_normal_moments_probe_gate_matches_full_pass(case):
    p, K = case
    want, failed_at = _full_gate_moments(p, K)
    if failed_at is None:
        assert same_bits(normal_moments(p, K).values, want)
    else:
        with pytest.raises(TailDominanceError, match=re.escape(f"H_{failed_at} p ")):
            normal_moments(p, K)


def test_binomial_identity():
    # H_k(ax + by) = sum_i C(k,i) a^i b^(k-i) H_i(x) H_{k-i}(y) when a^2 + b^2 = 1
    x, y = np.random.default_rng(0).uniform(-3.0, 3.0, size=(100, 2)).T
    for a in (0.6, 1.0 / math.sqrt(2.0), 0.28):
        b = math.sqrt(1.0 - a * a)
        for k in (2, 3, 5, 8):
            rhs = sum(math.comb(k, i) * a ** i * b ** (k - i) * hermite_eval(i, x)
                      * hermite_eval(k - i, y) for i in range(k + 1))
            assert np.max(np.abs(hermite_eval(k, a * x + b * y) - rhs)) < 1e-8


def _hermite_loop(k, x):
    """The three-term loop hermite_eval ran on its own."""
    x = np.asarray(x, dtype=float)
    h0 = np.ones_like(x)
    if k == 0:
        return h0 if h0.ndim else float(h0)
    h1 = x.copy()
    for j in range(1, k):
        h0, h1 = h1, x * h1 - j * h0
    return h1 if h1.ndim else float(h1)


def test_hermite_eval_matches_its_loop_bitwise():
    xs = np.linspace(-9.0, 9.0, 101)
    for k in range(61):
        assert same_bits(hermite_eval(k, xs), _hermite_loop(k, xs)), k
        for x in (0.0, -1.7, 3.25, np.float64(8.5)):
            ours = hermite_eval(k, x)
            assert type(ours) is float and same_bits(ours, _hermite_loop(k, x)), (k, x)
    assert same_bits(hermite_eval(0, xs), np.ones_like(xs))
    h1 = hermite_eval(1, xs)
    assert not np.shares_memory(h1, xs)
    h1[0] = 0.0  # the caller's array is untouched
    assert xs[0] == -9.0
