import math
import re
import warnings
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import ndtr, roots_legendre

from renyi_lab import (ConstraintError, MODEL_DOCS, bernoulli_log_laplace,
                       bernoulli_subgauss_constant, gaussian_grid, make_model,
                       mixture_chi2, pearson_vajda, sin_power_coefficients)
from renyi_lab import models
from renyi_lab.models import TrigPolynomial, minimize_bounded
from conftest import model_of, pn_of, same_bits


def test_make_model_kinds_and_errors():
    assert make_model({"kind": "uniform"}).name == "uniform"
    assert make_model({"kind": "normal", "params": {"sigma2": 1.3}}).name == "normal(sigma2=1.3)"
    with pytest.raises(ValueError):
        make_model({"kind": "cauchy"})
    assert set(MODEL_DOCS) == {
        "normal", "uniform", "bernoulli_sym", "bernoulli_asym", "bernoulli_sum",
        "gauss_scale_mixture", "power_density", "bernoulli_gauss",
        "trig_periodic", "sin_power", "counterexample_30_4"}
    # the catalogue lives apart from the constructors, for `zoo list`
    assert MODEL_DOCS is models.MODEL_DOCS
    assert set(MODEL_DOCS) == set(models._CONSTRUCTORS)


def test_make_model_takes_any_mapping_and_refuses_other_specs():
    spec = MappingProxyType({"kind": "normal", "params": MappingProxyType({"sigma2": 1.3})})
    assert make_model(spec).name == "normal(sigma2=1.3)"
    # a kind name is the spec of its defaults, as `--model uniform` is
    assert make_model("uniform").name == "uniform"
    assert make_model("normal").name == make_model({"kind": "normal"}).name
    for bad in (["uniform", {}], None, b"uniform"):
        with pytest.raises(ValueError, match=re.escape("a kind name or a {'kind', 'params'} "
                                                       "mapping, not " + type(bad).__name__)):
            make_model(bad)
    # a kind that is not a name, such as a JSON list, is an unknown kind
    with pytest.raises(ValueError, match=re.escape("unknown model kind [1]")):
        make_model({"kind": [1]})


def test_uniform_model_basics(uniform_model):
    assert abs(uniform_model.support_radius - math.sqrt(3.0)) < 1e-15
    assert uniform_model.cdf(-2.0) == 0.0 and uniform_model.cdf(2.0) == 1.0
    assert abs(float(uniform_model.cdf(0.0)) - 0.5) < 1e-15
    # K at moderate and large arguments against the defining integral
    for t in (0.3, 2.0, 40.0, 400.0):
        direct = math.log(math.sinh(math.sqrt(3.0) * t) / (math.sqrt(3.0) * t))
        assert abs(float(uniform_model.log_laplace(t)) - direct) < 1e-12 * max(
            1.0, direct), t


def test_density_models_normalized_with_unit_moments():
    specs = ["uniform",
             {"kind": "power_density", "params": {"d": 2}},
             {"kind": "gauss_scale_mixture", "params": {"atoms": [[0.3, 0.5], [0.7, 1.1]]}},
             {"kind": "sin_power", "params": {"m": 4}},
             "counterexample_30_4"]
    for spec in specs:
        model = model_of(spec)
        r = model.support_radius
        pts = [-r, r] if r else None
        mass, _ = quad(model.density, -14, 14, limit=300, points=pts)
        var, _ = quad(lambda x: x * x * model.density(x), -14, 14, limit=300,
                      points=pts)
        mean, _ = quad(lambda x: x * model.density(x), -14, 14, limit=300,
                       points=pts)
        assert abs(mass - 1.0) < 1e-9, spec
        assert abs(mean) < 1e-9, spec
        assert abs(var - model.cumulants[1]) < 1e-8, spec


def test_power_density_even_moments():
    # E X^{2k} = (2k + 2d - 1)!! / (2d - 1)!!
    for d in (1, 2, 3):
        model = model_of({"kind": "power_density", "params": {"d": d}})
        df = math.prod(range(2 * d - 1, 0, -2))
        for k in (1, 2, 3):
            target = math.prod(range(2 * k + 2 * d - 1, 0, -2)) / df
            val, _ = quad(lambda x: x ** (2 * k) * model.density(x), -14, 14,
                          limit=300)
            assert abs(val - target) < 1e-8 * target, (d, k)


def test_bernoulli_sum_approaches_uniform():
    # weights sqrt(3)/2^k: the series sums to the uniform on [-sqrt3, sqrt3]
    w = [math.sqrt(3.0) * 0.5 ** k for k in range(1, 41)]
    model = model_of({"kind": "bernoulli_sum", "params": {"weights": w}})
    uni = model_of("uniform")
    ts = np.linspace(-4.0, 4.0, 33)
    assert np.max(np.abs(model.log_laplace(ts) - uni.log_laplace(ts))) < 1e-7
    assert abs(model.cumulants[1] - 1.0) < 1e-12


def test_gauss_scale_mixture_kappa_path():
    # kappa = 1 makes the mixing density constant, so the quadrature is exact
    model = model_of({"kind": "gauss_scale_mixture",
                      "params": {"kappa": 1.0, "upper": 1.0}})
    assert abs(model.cumulants[1] - 0.5) < 1e-10
    mass, _ = quad(model.density, -10, 10, limit=200)
    assert abs(mass - 1.0) < 1e-9
    # singular mixing density (kappa < 1) still yields a proper density
    sing = model_of({"kind": "gauss_scale_mixture",
                     "params": {"kappa": 0.5, "upper": 1.0}})
    mass, _ = quad(sing.density, -10, 10, limit=200)
    assert abs(mass - 1.0) < 1e-9
    with pytest.raises(ValueError):
        model_of({"kind": "gauss_scale_mixture", "params": {"kappa": 0.5, "upper": 2.5}})
    with pytest.raises(ValueError):
        model_of({"kind": "gauss_scale_mixture", "params": {}})
    with pytest.raises(ValueError):
        model_of({"kind": "gauss_scale_mixture", "params": {"atoms": [[1.0, 2.0]]}})


def test_bernoulli_gauss_tangency():
    model = model_of({"kind": "bernoulli_gauss", "params": {"p": 0.2, "beta": 1.127}})
    a, b = model.meta["a"], model.meta["b"]
    beta, t_star = model.meta["beta"], model.meta["t_star"]
    assert abs(a * a + b * b * 1.0 - (a * a + b * b)) < 1e-15
    assert abs(model.cumulants[2] - a ** 3 * 0.2 * 0.8 * 0.6 / (0.2 * 0.8) ** 1.5
               * (0.2 * 0.8) ** 1.5) < 1e-12  # gamma3 = a^3 p q (q - p)
    # K touches beta t^2/2 exactly at t*, stays strictly below elsewhere
    gap = lambda t: 0.5 * beta * t * t - float(model.log_laplace(t))
    assert abs(gap(t_star)) < 1e-12
    # equality also holds trivially at t = 0; strict everywhere else
    ts = np.linspace(-8.0, 8.0, 1001)
    gaps = 0.5 * beta * ts * ts - model.log_laplace(ts)
    away = (np.abs(ts - t_star) > 0.05) & (np.abs(ts) > 0.05)
    assert np.all(gaps[away] > 0.0)


def _legendre_atoms(kappa, upper, rule=np.polynomial.legendre.leggauss):
    """The kappa mixture's atoms (weight, s2), before normalization."""
    nodes, wts = rule(64)
    at = []
    for j in range(8):
        lo, hi = upper * j / 8.0, upper * (j + 1) / 8.0
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        at += [(w * half * kappa * (mid + half * z) ** (kappa - 1.0) / upper ** kappa,
                mid + half * z) for z, w in zip(nodes, wts)]
    return at


def test_normal_mixtures_keep_the_closed_form_bits():
    # every chain starts from these values, so the mixture core must give
    # the closed forms written out term by term, bit for bit
    phi, ndtr_ = models._phi, models._ndtr
    x = np.concatenate([np.linspace(-40.0, 40.0, 4001), np.linspace(-12.0, 12.0, 2049),
                        [-0.0, 1e-300, -37.5]])
    t = np.linspace(-40.0, 40.0, 8001)
    cases = []
    for s2 in (1.0, 0.7):
        cases.append(({"kind": "normal", "params": {"sigma2": s2}},
                      phi(x, s2), ndtr_(x / math.sqrt(s2))))
    for params, at in (({"atoms": [[0.5, 0.6], [0.5, 1.4]]}, [(0.5, 0.6), (0.5, 1.4)]),
                       ({"kappa": 1.5, "upper": 1.0}, _legendre_atoms(1.5, 1.0))):
        total = sum(w for w, _ in at)
        ws = np.array([w / total for w, _ in at])
        s2s = np.array([s2 for _, s2 in at])
        cases.append(({"kind": "gauss_scale_mixture", "params": params},
                      np.sum(ws * phi(x[:, None], s2s), axis=-1),
                      np.sum(ws * ndtr_(x[:, None] / np.sqrt(s2s)), axis=-1)))
    for p, beta in ((0.2, 1.127), (0.3, 1.05)):
        q, sg = 1.0 - p, bernoulli_subgauss_constant(p)
        a = math.sqrt((beta - 1.0) / (sg - p * q))
        b2 = (sg - beta * p * q) / (sg - p * q)
        b = math.sqrt(b2)
        spec = {"kind": "bernoulli_gauss", "params": {"p": p, "beta": beta}}
        cases.append((spec, p * phi(x - a * q, b2) + q * phi(x + a * p, b2),
                      p * ndtr_((x - a * q) / b) + q * ndtr_((x + a * p) / b)))
        # K is one logsumexp over the two atoms, within round-off of the
        # Bernoulli transform at a t plus the Gaussian b^2 t^2 / 2
        bern = bernoulli_log_laplace(p)(a * t) + 0.5 * b2 * t ** 2
        assert np.all(np.abs(make_model(spec).log_laplace(t) - bern) <= 1e-13 * np.abs(bern))
    for spec, density, cdf in cases:
        model = make_model(spec)
        assert same_bits(model.density(x), density), spec
        assert same_bits(model.cdf(x), cdf), spec


@pytest.mark.parametrize("spec", [
    {"kind": "normal"},
    {"kind": "normal", "params": {"sigma2": 0.7}},
    {"kind": "gauss_scale_mixture", "params": {"atoms": [[0.5, 0.6], [0.5, 1.4]]}},
    {"kind": "gauss_scale_mixture", "params": {"kappa": 1.5, "upper": 1.0}},
    {"kind": "bernoulli_gauss", "params": {"p": 0.2, "beta": 1.127}},
], ids=["normal", "normal-0.7", "atoms", "kappa", "bernoulli_gauss"])
def test_normal_mixture_log_laplace_is_inf_past_the_doubles(spec):
    # every atom has s2 > 0, so K grows without bound: +inf where t * t
    # overflows or t is infinite, with no warning; a NaN t stays NaN
    K = make_model(spec).log_laplace
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = K([math.inf, -math.inf, 1e160, -1e160, math.nan, 40.0])
        assert K(math.inf) == math.inf and math.isnan(K(math.nan))
    assert list(k[:4]) == [math.inf] * 4 and math.isnan(k[4])
    assert same_bits(k[5], K(40.0)) and math.isfinite(k[5])


def test_bernoulli_gauss_infeasible():
    with pytest.raises(ConstraintError):
        model_of({"kind": "bernoulli_gauss", "params": {"p": 0.5, "beta": 1.1}})
    with pytest.raises(ValueError):
        model_of({"kind": "bernoulli_gauss", "params": {"p": 0.2, "beta": 0.9}})


def test_sin_power_coefficients_identity():
    ts = np.linspace(0.0, 2.0 * math.pi, 97)
    for m in (4, 6, 8):
        a0, a = sin_power_coefficients(m)
        rec = a0 + sum(ak * np.cos(k * ts) for k, ak in enumerate(a, 1) if ak)
        assert np.max(np.abs(rec - np.sin(ts) ** m)) < 1e-12, m
    a0, a = sin_power_coefficients(4)
    assert (a0, a[1], a[3]) == (3.0 / 8.0, -0.5, 1.0 / 8.0)
    with pytest.raises(ValueError):
        sin_power_coefficients(3)


def test_sin_power_model_psi_and_cmax():
    model = model_of({"kind": "sin_power", "params": {"m": 4}})
    a0, a, b, c = model.meta["trig"]
    c_max = 8.0 / (3.0 + 4.0 * math.exp(2.0) + math.exp(8.0))
    assert abs(model.meta["c_max"] - c_max) < 1e-12 * c_max
    assert abs(c - 0.5 * c_max) < 1e-12 * c_max
    assert model.meta["period"] == math.pi
    # psi = e^{K - t^2/2} equals 1 - c sin^4 and repeats over three periods
    ts = np.linspace(-1.5 * math.pi, 1.5 * math.pi, 301)
    psi = np.exp(model.log_laplace(ts) - 0.5 * ts * ts)
    assert np.max(np.abs(psi - (1.0 - c * np.sin(ts) ** 4))) < 1e-9
    assert np.max(np.abs(psi - np.exp(
        model.log_laplace(ts + 3.0 * math.pi) - 0.5 * (ts + 3.0 * math.pi) ** 2))) < 1e-9


def test_sin_power_m2_violates_constraints():
    with pytest.raises(ConstraintError):
        model_of({"kind": "sin_power", "params": {"m": 2}})


def test_trig_periodic_c_too_large():
    with pytest.raises(ConstraintError):
        model_of({"kind": "sin_power", "params": {"m": 4, "c": 1.0}})


def test_counterexample_structure():
    model = model_of("counterexample_30_4")
    a0, a, b, c = model.meta["trig"]
    assert not any(b)
    assert (a0, tuple(a)) == (9.0 / 4.0, (0.0, -15.0 / 4.0, 0.0, 17.0 / 8.0,
                                          0.0, -3.0 / 4.0, 0.0, 1.0 / 8.0))
    ts = np.linspace(0.0, math.pi, 181)
    p = a0 + sum(ak * np.cos(k * ts) for k, ak in enumerate(a, 1) if ak)
    target = (1.0 - 4.0 * np.sin(ts) ** 2) ** 2 * np.sin(ts) ** 4
    assert np.max(np.abs(p - target)) < 1e-12
    assert model.meta["period"] == math.pi
    assert model.cumulants[2] == 0.0
    g4 = -c * sum(k ** 4 * ak for k, ak in enumerate(a, 1))
    assert abs(model.cumulants[3] - g4) < 1e-15


def test_mixture_chi2_examples():
    # point mass at 1/2: 1 + chi^2 = (3/4)^{-1/2}
    assert abs(mixture_chi2([[1.0, 0.5]]) - (2.0 / math.sqrt(3.0) - 1.0)) < 1e-14
    assert abs(mixture_chi2([[1.0, 1.0]])) < 1e-15
    atoms = [[0.5, 0.7], [0.5, 1.3]]
    p = pn_of({"kind": "gauss_scale_mixture", "params": {"atoms": atoms}}, 1)
    grid = pearson_vajda(p, gaussian_grid(p), 2.0)
    assert abs(mixture_chi2(atoms) - grid) < 1e-5
    with pytest.raises(ValueError):
        mixture_chi2([[1.0, 2.0]])
    with pytest.raises(ValueError):
        mixture_chi2({"kappa": 0.5})
    # the weights are checked as gauss_scale_mixture checks them
    for atoms in ([[0.0, 0.5]], [], [[1.0, 0.5], [math.nan, 0.8]], [[-1.0, 0.5], [2.0, 0.8]]):
        with pytest.raises(ValueError, match="mixing"):
            mixture_chi2(atoms)


def test_make_model_names_bad_parameters():
    with pytest.raises(ValueError, match=r"'bernoulli_asym' needs parameter 'p'"):
        make_model({"kind": "bernoulli_asym"})
    with pytest.raises(ValueError, match=r"'normal' has no parameter 'sigma'"):
        make_model({"kind": "normal", "params": {"sigma": 2.0}})
    with pytest.raises(ValueError, match=r"'normal': params must be a mapping"):
        make_model({"kind": "normal", "params": [1.0]})
    # any mapping binds, as it did before the parameter check
    params = MappingProxyType({"sigma2": 2.0})
    assert make_model({"kind": "normal", "params": params}).cumulants == (0.0, 2.0)


def test_ndtr_matches_scipy_bitwise():
    # a dense grid, and each branch edge of Cephes ndtr with its neighbours:
    # |a| = 1 (erf / erfc), sqrt 2 (erfc's own erf branch), 8 sqrt 2 (the
    # second rational), and the underflow of exp(-a^2 / 2)
    edges = np.array([0.0, 1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0),
                      math.sqrt(2.0 * models._MAXLOG), 40.0, 1e300])
    edges = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
    a = np.concatenate([np.linspace(-40.0, 40.0, 400001), edges, -edges,
                        [np.inf, -np.inf, np.nan, -0.0]])
    assert same_bits(models._ndtr(a), ndtr(a))
    block = a[:256].reshape(64, 4)
    assert same_bits(models._ndtr(block), ndtr(block))
    assert type(models._ndtr(0.3)) is np.float64 and models._ndtr(0.3) == ndtr(0.3)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50))
def test_ndtr_property(values):
    a = np.asarray(values)
    assert same_bits(models._ndtr(a), ndtr(a))


def _scipy_bounded(f, lo, hi, xatol):
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    return res.x, res.fun


def test_minimize_bounded_matches_scipy_on_trig_components():
    # the three searches of the package: the maximum of the weighted
    # component (c_max), and zeros of P and of A(t) = t^2/2 - K(t)
    polys = [TrigPolynomial(*sin_power_coefficients(m), []) for m in (2, 4, 6, 8)]
    polys += [TrigPolynomial(*model_of(k).meta["trig"][:3])
              for k in ("counterexample_30_4", {"kind": "trig_periodic",
                                                "params": {"a": [4.0, -1.0]}})]
    K = model_of("counterexample_30_4").log_laplace
    for poly in polys:
        weighted = poly.weighted()
        ts = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        i = int(np.argmax(weighted(ts)))
        span = 2.0 * math.pi / 4096
        searches = [(lambda x: -float(weighted(x)), ts[i] - span, ts[i] + span, 1e-12)]
        for lo, hi in ((0.4, 0.7), (1.2, 1.9), (2.5, 2.7)):
            searches += [(lambda t: float(poly(t)), lo, hi, 1e-12),
                         (lambda t: float(0.5 * t * t - K(t)), lo, hi, 1e-11)]
        for args in searches:
            assert same_bits(minimize_bounded(*args), _scipy_bounded(*args))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4), st.floats(-10.0, 10.0),
       st.floats(1e-9, 20.0), st.floats(-14.0, -2.0))
def test_minimize_bounded_property(c, lo, width, log_tol):
    f = lambda x: float(c[0] * np.sin(c[1] * x) + c[2] * (x - c[3]) ** 2 + 0.1 * x ** 3)
    args = (lo, lo + width, 10.0 ** log_tol)
    assert same_bits(minimize_bounded(f, *args), _scipy_bounded(f, *args))


def test_kappa_mixture_moves_by_the_rule_only():
    # the 64-point Gauss-Legendre rule comes from numpy; scipy's nodes and
    # weights differ from it by ~1e-12, and so does the mixture
    model = model_of({"kind": "gauss_scale_mixture", "params": {"kappa": 1.5, "upper": 1.0}})
    at = _legendre_atoms(1.5, 1.0, rule=roots_legendre)
    ref = make_model({"kind": "gauss_scale_mixture", "params": {"atoms": at}})
    x = np.linspace(-8.0, 8.0, 161)
    assert np.allclose(model.cdf(x), ref.cdf(x), rtol=1e-11, atol=1e-14)
    assert np.allclose(model.density(x), ref.density(x), rtol=1e-11, atol=1e-14)
