import math

import numpy as np
import pytest

from renyi_lab import (CumulantVector, edgeworth_density, expansion_constants,
                       fit_leading_constant, moment_summary, q_polynomial,
                       truncated_tsallis)
from conftest import model_of, pn_of


def test_q1_closed_form():
    g = CumulantVector((0.0, 1.0, 0.6))
    q1 = q_polynomial(1, g)
    # q_1 = (gamma3/6) H_3 = (gamma3/6)(x^3 - 3x)
    assert abs(q1.coefficients[3] - 0.1) < 1e-15
    assert abs(q1.coefficients[1] + 0.3) < 1e-15
    assert q1.degree == 3


def test_q2_closed_form():
    g3, g4 = 0.5, -1.2
    g = CumulantVector((0.0, 1.0, g3, g4))
    q2 = q_polynomial(2, g)
    # q_2 = (gamma4/24) H_4 + (gamma3^2/72) H_6
    expect = {6: g3 * g3 / 72.0,
              4: g4 / 24.0 - 15.0 * g3 * g3 / 72.0,
              2: -6.0 * g4 / 24.0 + 45.0 * g3 * g3 / 72.0,
              0: 3.0 * g4 / 24.0 - 15.0 * g3 * g3 / 72.0}
    for d, v in expect.items():
        assert abs(q2.coefficients.get(d, 0.0) - v) < 1e-14, d
    assert q2.degree == 6


def test_q_parity_symmetric():
    g = CumulantVector((0.0, 1.0, 0.0, -1.2, 0.0, 48.0 / 7.0))
    for nu in (2, 4):
        q = q_polynomial(nu, g)
        odd = [d for d, c in q.coefficients.items() if d % 2 and c != 0.0]
        assert not odd, nu
    # and odd nu vanishes entirely when all odd cumulants do
    q3 = q_polynomial(3, g)
    assert all(c == 0.0 for c in q3.coefficients.values())


def test_q_degree_cap():
    g = CumulantVector((0.0, 1.0) + (0.5,) * 8)
    for nu in (1, 2, 3, 4):
        assert q_polynomial(nu, g).degree <= 3 * nu


def test_cumulant_moment_roundtrip_skewed(skewed_model):
    # the model is standardized: gamma_3 = alpha_3 and gamma_4 = alpha_4 - 3
    p = pn_of({"kind": "bernoulli_gauss", "params": {"p": 0.2, "beta": 1.127}}, 1)
    m = moment_summary(p)
    assert abs(m.alpha3 - skewed_model.cumulants[2]) < 1e-6
    assert abs(m.alpha4 - 3.0 - skewed_model.cumulants[3]) < 1e-5


def test_edgeworth_density_improves_on_normal(uniform_model):
    n = 16
    p = pn_of("uniform", n)
    g = CumulantVector(uniform_model.cumulants[:4])
    x = p.x
    window = np.abs(x) <= 3.0
    phi = np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    corrected = edgeworth_density(x, n, g, m=4)
    err_phi = np.max(np.abs(p.values - phi)[window])
    err_edge = np.max(np.abs(p.values - corrected)[window])
    assert err_edge < 0.2 * err_phi


def test_edgeworth_density_normalized(uniform_model):
    p = pn_of("uniform", 16)
    g = CumulantVector(uniform_model.cumulants[:4])
    vals = edgeworth_density(p.x, 16, g, m=4)
    assert abs(p.step * vals.sum() - 1.0) < 1e-8


def test_expansion_constants():
    sym = expansion_constants(CumulantVector((0.0, 1.0, 0.0, -1.2)))
    assert sym["entropy_c1"] == 0.0
    assert abs(sym["entropy_c2"] - 1.44 / 48.0) < 1e-15
    assert abs(sym["chi2_c2"] - 0.06) < 1e-15
    assert sym["chi2_c2_valid"] and sym["entropy_c2_valid"]
    skew = expansion_constants(CumulantVector((0.0, 1.0, 0.6, 0.5)))
    assert abs(skew["entropy_c1"] - 0.03) < 1e-15
    assert abs(skew["chi2_c1"] - 0.06) < 1e-15
    assert not skew["chi2_c2_valid"]


def test_truncated_tsallis_matches_leading_term(uniform_model):
    alpha, s, n = 1.5, 4, 64
    p = pn_of("uniform", n)
    val = truncated_tsallis(p, alpha, s, n)
    # alpha (alpha-1) gamma_s^2 / (2 s!) n^-(s-2), all lower cumulants vanishing
    gamma_s = uniform_model.cumulants[3]
    lead = alpha * (alpha - 1.0) * gamma_s ** 2 / (2.0 * math.factorial(s)) * n ** (-(s - 2.0))
    assert abs(val - lead) < 0.15 * abs(lead)


def test_truncated_tsallis_narrow_grid(uniform_model):
    p = pn_of("uniform", 8)
    with pytest.raises(ValueError):
        # M = sqrt(2*39*log 8) ~ 12.7 exceeds the half-width-12 window
        truncated_tsallis(p, 2.0, 40, 8)


def test_fit_leading_constant():
    ns = [8, 16, 32, 64]
    vals = [0.05 / n + 0.3 / n ** 2 for n in ns]
    fitted, plain = fit_leading_constant(ns, vals, 1.0)
    assert abs(fitted - 0.05) < 1e-12
    assert abs(plain - (0.05 + 0.3 / 64.0)) < 1e-12


def test_q_polynomial_errors():
    g = CumulantVector((0.0, 1.0, 0.5))
    with pytest.raises(ValueError):
        q_polynomial(2, g)  # needs gamma_4
    with pytest.raises(ValueError):
        q_polynomial(0, g)
    with pytest.raises(ValueError):
        q_polynomial(9, CumulantVector((0.0, 1.0) + (0.1,) * 10))
