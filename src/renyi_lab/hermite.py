"""Chebyshev-Hermite polynomials and the normal-moment calculus.

Probabilists' convention throughout: H_{k+1}(x) = x H_k(x) - k H_{k-1}(x),
orthogonal under the standard normal weight with E H_k(Z)^2 = k!.  The
normal moments c_k = E H_k(X) give Parseval's identity
chi^2(X, Z) = sum_{k>=1} c_k^2 / k! and its heat-flow deformation with
t^k weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SeriesError, TailDominanceError
from .grids import AnalyticModel, GridDensity, MomentSummary

_MOMENT_GRID_HALF_WIDTH = 20.0
_MOMENT_GRID_POINTS = 1 << 15


def hermite_eval(k: int, x):
    """H_k(x) by the three-term recurrence; vectorized over x."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    x = np.asarray(x, dtype=float)
    h0 = np.ones_like(x)
    if k == 0:
        return h0 if h0.ndim else float(h0)
    h1 = x.copy()
    for j in range(1, k):
        h0, h1 = h1, x * h1 - j * h0
    return h1 if h1.ndim else float(h1)


def _hermite_seq(K: int, x):
    """Yield H_1(x), ..., H_K(x): the recurrence of hermite_eval, run once.

    The yielded arrays feed the recurrence and must not be modified.
    """
    if K < 1:
        return
    h0, h1 = 1.0, x
    yield h1
    for j in range(1, K):
        h0, h1 = h1, x * h1 - j * h0
        yield h1


def _finite_moment(k: int, v: float) -> float:
    if not math.isfinite(v):
        raise SeriesError(f"normal moment c_{k} = {v} is not finite "
                          f"(H_k overflows); use a smaller K")
    return v


def _require_finite(cs) -> None:
    for k, v in enumerate(cs):
        _finite_moment(k, v)


@lru_cache(maxsize=None)
def hermite_coefficients(k: int) -> tuple:
    """Monomial coefficients of H_k, degree 0..k, exact integers."""
    if k == 0:
        return (1,)
    if k == 1:
        return (0, 1)
    prev2, prev = hermite_coefficients(k - 2), hermite_coefficients(k - 1)
    out = [0] * (k + 1)
    for d, c in enumerate(prev):
        out[d + 1] += c
    for d, c in enumerate(prev2):
        out[d] -= (k - 1) * c
    return tuple(out)


@dataclass(frozen=True)
class NormalMomentVector:
    """c_0..c_K with c_k = E H_k(X); c_0 = 1 always."""
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def __len__(self):
        return len(self.values)

    def __getitem__(self, k):
        return self.values[k]


def normal_moments(p, K: int = 40) -> NormalMomentVector:
    """Normal moments by quadrature.

    Compactly supported analytic densities are integrated by
    Gauss-Legendre on their support, which is exact for polynomial
    integrands against a polynomial density; other analytic models are
    sampled at midpoints of a wide window (half_width 20) so that the
    truncation boundary term H_{K-1}(W) phi(W) stays far below 1e-8 up
    to K = 40.  The first non-finite c_k (H_k overflowing at large K)
    raises SeriesError; no later order is evaluated.
    """
    if isinstance(p, AnalyticModel):
        if p.density is None:
            raise ValueError(f"model {p.name!r} has no density")
        if p.support_radius is not None:
            r = float(p.support_radius)
            nodes, wts = np.polynomial.legendre.leggauss(max(64, 2 * K))
            x = r * nodes
            wd = wts * np.asarray(p.density(x), dtype=float)
            total = float(r * np.sum(wd))
            cs = [1.0 / total]
            with np.errstate(over="ignore", invalid="ignore"):
                for k, hk in enumerate(_hermite_seq(K, x), start=1):
                    cs.append(_finite_moment(k, float(r * np.sum(wd * hk)) / total))
            return NormalMomentVector(tuple(cs))
        step = 2.0 * _MOMENT_GRID_HALF_WIDTH / _MOMENT_GRID_POINTS
        xg = -_MOMENT_GRID_HALF_WIDTH + step * (np.arange(_MOMENT_GRID_POINTS) + 0.5)
        vals = np.maximum(np.asarray(p.density(xg), dtype=float), 0.0)
        p = GridDensity(-_MOMENT_GRID_HALF_WIDTH, step, vals / (step * vals.sum()))
    if not isinstance(p, GridDensity):
        raise TypeError("expected a GridDensity or AnalyticModel")
    x = p.x
    w = p.step * p.values
    cs = [1.0]
    # H_k overflows at large k; the first non-finite c_k raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for k, hk in enumerate(_hermite_seq(K, x), start=1):
            integ = np.abs(hk) * p.values
            peak = integ.max()
            if peak > 0 and max(integ[0], integ[-1]) > 1e-12 * peak:
                raise TailDominanceError(
                    f"H_{k} p not decayed at the window edge; moments unreliable")
            cs.append(_finite_moment(k, float(np.sum(w * hk))))
    return NormalMomentVector(tuple(cs))


@dataclass(frozen=True)
class SeriesValue:
    value: float
    tail_bound: float

    def __float__(self):
        return self.value


def chi2_from_normal_moments(c: NormalMomentVector, t: float = 1.0) -> SeriesValue:
    """sum_{k>=1} t^k c_k^2 / k!, the Parseval/heat-flow chi-square.

    Terms are formed in log space.  Convergence gate: the per-step
    envelope ratio over the last two five-term blocks must stay below
    0.9.  The envelope (block maximum) is what decays geometrically for
    well-behaved inputs; individual term ratios spike when the c_k
    oscillate through near-zeros, so they are not used directly.  A
    non-finite c_k raises SeriesError.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    _require_finite(c.values)
    terms = []
    for k in range(1, len(c)):
        ck = c[k]
        if ck == 0.0 or t == 0.0:
            terms.append(0.0)
            continue
        lg = k * math.log(t) if t < 1.0 else 0.0
        lg += 2.0 * math.log(abs(ck)) - math.lgamma(k + 1)
        terms.append(math.exp(lg))
    peak = max(terms, default=0.0)
    nz = [v for v in terms if v > 1e-15 * peak]
    tail = 0.0
    if len(nz) >= 11:
        m1 = max(nz[-5:])
        m0 = max(nz[-10:-5])
        r = (m1 / m0) ** 0.2 if m0 > 0 else 0.0
        if r >= 0.9:
            raise SeriesError("series tail not decreasing; increase K or chi2 infinite")
        tail = 5.0 * m1 * r / (1.0 - r)
    return SeriesValue(float(sum(terms)), tail)


def moments_from_normal_moments(c: NormalMomentVector) -> MomentSummary:
    """Raw moments E X^k = k! sum_j c_{k-2j} / ((k-2j)! j! 2^j)."""
    if len(c) < 5:
        raise ValueError("need normal moments at least up to order 4")
    raw = []
    for k in range(1, len(c)):
        s = 0.0
        for j in range(k // 2 + 1):
            s += c[k - 2 * j] / (math.factorial(k - 2 * j) * math.factorial(j) * 2.0 ** j)
        raw.append(math.factorial(k) * s)
    return MomentSummary(mean=raw[0], variance=raw[1] - raw[0] ** 2,
                         alpha3=raw[2], alpha4=raw[3],
                         higher_moments=tuple(raw[4:]))


def exponential_series_eval(c: NormalMomentVector, x: float) -> float:
    """phi(x) sum_k c_k H_k(x) / k!, with a partial-sum stabilization gate.

    Pointwise convergence of this series is delicate; the gate requires
    the last five partial sums to agree to 1e-6 relative, else a
    SeriesError is raised.
    """
    x = float(x)
    hs = [1.0, *_hermite_seq(len(c) - 1, x)]
    partials = []
    s = 0.0
    for k in range(len(c)):
        s += c[k] * hs[k] / math.factorial(k)
        partials.append(s)
    if len(partials) >= 5:
        window = partials[-5:]
        spread = max(window) - min(window)
        if spread > 1e-6 * (1.0 + abs(window[-1])):
            raise SeriesError(f"series not pointwise convergent at x = {x:g}")
    phi = math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    return phi * s


def hermite_binomial_check(a: float, b: float, k: int, n_points: int = 100,
                           seed: int = 0) -> float:
    """Max residual of H_k(ax+by) = sum_i C(k,i) a^i b^(k-i) H_i(x) H_{k-i}(y).

    Requires a^2 + b^2 = 1; returns the worst absolute residual over a
    deterministic sample of (x, y) pairs.
    """
    if abs(a * a + b * b - 1.0) > 1e-12:
        raise ValueError("requires a^2 + b^2 = 1")
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-3.0, 3.0, size=(n_points, 2))
    x, y = xy[:, 0], xy[:, 1]
    lhs = hermite_eval(k, a * x + b * y)
    rhs = np.zeros_like(x)
    for i in range(k + 1):
        rhs += (math.comb(k, i) * a ** i * b ** (k - i)
                * hermite_eval(i, x) * hermite_eval(k - i, y))
    return float(np.max(np.abs(lhs - rhs)))
