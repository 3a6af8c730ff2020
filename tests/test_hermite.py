import itertools
import math

import numpy as np
import pytest

from renyi_lab import (GridDensity, NormalMomentVector, SeriesError,
                       TailDominanceError, chi2_from_normal_moments,
                       exponential_series_eval, gaussian_grid, gaussian_smooth,
                       hermite_binomial_check, hermite_coefficients,
                       hermite_eval, moments_from_normal_moments,
                       normal_moments, pearson_vajda)
from renyi_lab import hermite
from conftest import SKEWED, model_of, pn_of


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
    c = normal_moments(model_of("uniform"), K=10)
    m = moments_from_normal_moments(c)
    assert abs(m.mean) < 1e-10
    assert abs(m.variance - 1.0) < 1e-8
    assert abs(m.alpha4 - 9.0 / 5.0) < 1e-7
    # E X^6 = 27/7, E X^8 = 9 for the unit-variance uniform
    raw = m.raw_moments()
    assert abs(raw[6] - 27.0 / 7.0) < 1e-6
    assert abs(raw[8] - 9.0) < 1e-5


def test_exponential_series_reconstruction():
    c = NormalMomentVector((1.0, 0.0, 2.0) + (0.0,) * 8)
    for x in (-1.5, 0.0, 0.7, 2.0):
        target = x * x * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        assert abs(exponential_series_eval(c, x) - target) < 1e-12


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
    half, points = hermite._MOMENT_GRID_HALF_WIDTH, hermite._MOMENT_GRID_POINTS
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
    c = normal_moments(model, K)
    assert c.values == _per_k_normal_moments(model, K)
    for x in (-1.3, 0.0, 0.7, 2.5):
        partials = list(itertools.accumulate(
            c[k] * hermite_eval(k, x) / math.factorial(k) for k in range(len(c))))
        window = partials[-5:]
        if max(window) - min(window) > 1e-6 * (1.0 + abs(window[-1])):
            with pytest.raises(SeriesError):  # the uniform's jumps
                exponential_series_eval(c, x)
            continue
        phi = math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        assert exponential_series_eval(c, x) == phi * partials[-1], x


def test_series_refuses_non_finite_moments():
    # H_k overflows on the |x| <= 20 moment grid from k = 266 on
    with pytest.raises(SeriesError, match="c_266 "):
        normal_moments(model_of({"kind": "power_density", "params": {"d": 2}}), K=300)
    for bad in (math.nan, math.inf):
        with pytest.raises(SeriesError, match="c_2 "):
            chi2_from_normal_moments(NormalMomentVector((1.0, 0.0, bad, 0.0)))


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


def test_tail_dominance_gate():
    # K = 40 on a half-width-6 grid: H_40 phi has not decayed at the edge
    from renyi_lab import discretize
    narrow = discretize(model_of("normal"), 6.0, 1 << 12)
    with pytest.raises(TailDominanceError):
        normal_moments(narrow, K=40)


def test_pointwise_series_gate():
    # c_k ~ sqrt(k!) keeps the partial sums oscillating at O(1)
    c = NormalMomentVector(tuple(math.sqrt(math.factorial(k)) for k in range(41)))
    with pytest.raises(SeriesError):
        exponential_series_eval(c, 3.0)


def test_binomial_identity():
    for a in (0.6, 1.0 / math.sqrt(2.0), 0.28):
        b = math.sqrt(1.0 - a * a)
        for k in (2, 3, 5, 8):
            assert hermite_binomial_check(a, b, k) < 1e-8
    with pytest.raises(ValueError):
        hermite_binomial_check(0.5, 0.5, 3)
