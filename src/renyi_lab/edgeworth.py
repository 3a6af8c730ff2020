"""Cumulants, Edgeworth correction polynomials, corrected densities,
truncated Tsallis integrals, and the closed-form leading constants of
the chi-square and entropy expansion rate laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .hermite import hermite_coefficients

if TYPE_CHECKING:
    from .grids import GridDensity


@dataclass(frozen=True)
class CumulantVector:
    """Ordered cumulants gamma_1..gamma_m (gamma_1=0, gamma_2=1 when standardized)."""
    gammas: tuple

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))

    def gamma(self, k: int) -> float:
        if k < 1 or k > len(self.gammas):
            raise IndexError(f"cumulant gamma_{k} not available")
        return self.gammas[k - 1]

    def __len__(self):
        return len(self.gammas)


@dataclass(frozen=True)
class EdgeworthPolynomial:
    """q_nu in the monomial basis: coefficients maps degree -> coefficient."""
    nu: int
    coefficients: dict

    @property
    def degree(self) -> int:
        return max((d for d, c in self.coefficients.items() if c != 0.0), default=0)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for d, c in self.coefficients.items():
            if c != 0.0:
                out = out + c * x ** d
        return out if out.ndim else float(out)


def _compositions(total: int):
    """All (k_1..k_total) with sum r*k_r = total, as sparse {r: k_r} dicts."""
    def rec(r, remaining, acc):
        if r > remaining:
            if remaining == 0:
                yield dict(acc)
            return
        for k in range(remaining // r + 1):
            if k:
                acc[r] = k
            yield from rec(r + 1, remaining - r * k, acc)
            acc.pop(r, None)
    yield from rec(1, total, {})


def q_polynomial(nu: int, gamma: CumulantVector) -> EdgeworthPolynomial:
    """The order-nu Edgeworth correction polynomial.

    q_nu = sum over nonnegative solutions of k_1 + 2 k_2 + ... + nu k_nu = nu
    of H_{nu+2l} * prod_r (1/k_r!) (gamma_{r+2}/(r+2)!)^{k_r}, l = sum k_r.
    """
    if nu < 1:
        raise ValueError("nu must be at least 1")
    if len(gamma) < nu + 2:
        raise ValueError(f"cumulants up to gamma_{nu + 2} required")
    if nu > 8:
        raise ValueError("nu > 8 not supported (degree cap 24)")
    coeffs: dict = {}
    for sol in _compositions(nu):
        l = sum(sol.values())
        c = 1.0
        for r, kr in sol.items():
            c *= (gamma.gamma(r + 2) / math.factorial(r + 2)) ** kr / math.factorial(kr)
        if c == 0.0:
            continue
        for d, hc in enumerate(hermite_coefficients(nu + 2 * l)):
            if hc:
                coeffs[d] = coeffs.get(d, 0.0) + c * hc
    return EdgeworthPolynomial(nu, coeffs)


def edgeworth_density(x, n: int, gamma: CumulantVector, m: int):
    """phi_m(x) = phi(x) [1 + sum_{nu=1}^{m-2} q_nu(x) / n^(nu/2)].

    May go negative in the far tails; callers window their integrals.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    x = np.asarray(x, dtype=float)
    corr = np.ones_like(x)
    for nu in range(1, m - 1):
        corr = corr + q_polynomial(nu, gamma)(x) / n ** (nu / 2.0)
    phi = np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    out = phi * corr
    return out if out.ndim else float(out)


def expansion_constants(gamma: CumulantVector) -> dict:
    """Leading rate constants of the entropy and chi-square expansions.

    entropy: n D(Z_n||Z) -> gamma3^2/12, with gamma4^2/48 the next
    coefficient when gamma3 = 0; chi-square: n chi^2 -> gamma3^2/6 with
    (gamma4)^2/24 next when gamma3 = 0 (gamma4 here is the excess
    kurtosis alpha4 - 3).
    """
    g3 = gamma.gamma(3) if len(gamma) >= 3 else 0.0
    g4 = gamma.gamma(4) if len(gamma) >= 4 else 0.0
    symmetric = abs(g3) < 1e-12
    return {
        "entropy_c1": g3 * g3 / 12.0,
        "entropy_c2": g4 * g4 / 48.0,
        "entropy_c2_valid": symmetric,
        "chi2_c1": g3 * g3 / 6.0,
        "chi2_c2": g4 * g4 / 24.0,
        "chi2_c2_valid": symmetric,
    }


def truncated_tsallis(p_n: GridDensity, alpha: float, s: int, n: int) -> float:
    """I_alpha(M) = int_{|x| <= M} (p_n/phi)^alpha phi - 1 with
    M = sqrt(2 (s-1) log n), the truncation window of the expansion;
    +inf when the integrand fails the gates of the full-window integrals.
    """
    from .divergences import _power_ratio, _support, _window_radius
    from .grids import gaussian_grid
    if s < 2 or n < 2:
        raise ValueError("need s >= 2 and n >= 2")
    m_cut = math.sqrt(2.0 * (s - 1) * math.log(n))
    if _window_radius(p_n) < m_cut:
        raise ValueError(f"grid too narrow: needs |x| up to {m_cut:.3g}")
    g = _power_ratio(_support(p_n.values, gaussian_grid(p_n).values,
                              keep=np.abs(p_n.x) <= m_cut), alpha)
    if g is None:
        return math.inf
    return float(p_n.step * g.sum() - 1.0)


def fit_leading_constant(ns, values, power: float):
    """Fit n^power * value = c + b/n; returns (c, plain ratio at max n).

    Richardson-style extrapolation in 1/n over at least three n values;
    with fewer points the plain scaled value at the largest n is used.
    """
    ns = np.asarray(ns, dtype=float)
    vals = np.asarray(values, dtype=float)
    scaled = ns ** power * vals
    plain = float(scaled[-1])
    if len(ns) < 3:
        return plain, plain
    slope, intercept = np.polyfit(1.0 / ns, scaled, 1)
    return float(intercept), plain
