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
from itertools import islice

import numpy as np

from .errors import SeriesError, TailDominanceError
from .reports import DivergenceResult
from .zoo import AnalyticModel

# half-width and points of the grid that samples a model without compact support
_MOMENT_GRID = (20.0, 1 << 15)
# Gauss-Legendre nodes of the compact-support rule are 2 K, at least 64
# and at most 2 _LEGENDRE_MAX_K: H_k(x) near 0 is about (k - 1)!!, which
# overflows from k = 302, so no c_k above 301 is finite however many
# nodes the rule has, and a larger rule only costs O(nodes^2) memory
_LEGENDRE_MAX_K = 512
# about this many evenly spaced cells bound the peak of |H_k| p from below
_PROBES = 256


def hermite_eval(k: int, x):
    """H_k(x) by `_hermite_seq`'s recurrence, vectorized over x (never x itself)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    x = np.asarray(x, dtype=float)
    h = np.ones_like(x) if k == 0 else x.copy()
    for h in islice(_hermite_seq(k, x), 1, None):
        pass
    return h if h.ndim else float(h)


def _hermite_seq(K: int, x):
    """Yield H_1(x), ..., H_K(x) by the three-term recurrence, run once.

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
    Gauss-Legendre on their support, with 2 K nodes (at least 64, at
    most 2 _LEGENDRE_MAX_K), which is exact for polynomial integrands
    against a polynomial density; other analytic models are
    sampled at midpoints of a wide window (half_width 20) so that the
    truncation boundary term H_{K-1}(W) phi(W) stays far below 1e-8 up
    to K = 40.  The first non-finite c_k (H_k overflowing at large K)
    raises SeriesError; no later order is evaluated.

    On a grid, an order whose |H_k| p has not decayed to 1e-12 of its
    peak at a window edge raises TailDominanceError.  The gate reads the
    two edge cells first and holds them against the peak over ~256
    evenly spaced probe cells, a lower bound of the peak; the full
    |H_k| p pass runs only when that bound cannot pass the edges, so
    every decision is the one the full pass makes.
    """
    if K < 0:
        raise ValueError(f"K must be a non-negative order, not {K}")
    if isinstance(p, AnalyticModel) and p.density is None:
        raise ValueError(f"model {p.name!r} has no density")
    if isinstance(p, AnalyticModel) and p.support_radius is not None:
        r = float(p.support_radius)
        nodes, wts = np.polynomial.legendre.leggauss(max(64, 2 * min(K, _LEGENDRE_MAX_K)))
        x = r * nodes
        w = wts * np.asarray(p.density(x), dtype=float)
        total = float(r * np.sum(w))
        v = probe = None
    else:
        from .grids import GridConfig, GridDensity
        if isinstance(p, AnalyticModel):
            cfg = GridConfig(*_MOMENT_GRID)
            vals = np.maximum(np.asarray(p.density(cfg.x), dtype=float), 0.0)
            p = GridDensity(-cfg.half_width, cfg.step, vals / (cfg.step * vals.sum()))
        if not isinstance(p, GridDensity):
            raise TypeError("expected a GridDensity or AnalyticModel")
        x, v = p.x, p.values
        w = p.step * v
        r = total = 1.0  # exact: c_k = sum(w H_k) to the bit
        probe = slice(None, None, max(1, len(v) // _PROBES))
    cs = [1.0 / total]
    # H_k overflows at large k; the first non-finite c_k raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for k, hk in enumerate(_hermite_seq(K, x), start=1):
            if probe is not None and not _decayed(hk, v, probe):
                raise TailDominanceError(
                    f"H_{k} p not decayed at the window edge; moments unreliable")
            cs.append(_finite_moment(k, float(r * np.sum(w * hk)) / total))
    return NormalMomentVector(tuple(cs))


def _decayed(hk, v, probe) -> bool:
    """The decay gate of |H_k| p: False iff its peak is positive and an
    edge cell exceeds 1e-12 of the peak.

    The peak of |H_k| p over the probe cells is a lower bound of the
    peak, with the same bits at those cells, and 1e-12 times it rounds
    no higher than 1e-12 times the peak.  So edges at or below that
    bound pass, as they would against the peak, and only edges above it,
    or a NaN, cost the full |H_k| p pass."""
    edge = max(abs(hk[0]) * v[0], abs(hk[-1]) * v[-1])
    if edge <= 1e-12 * (np.abs(hk[probe]) * v[probe]).max():
        return True
    integ = np.abs(hk) * v
    peak = integ.max()
    return not (peak > 0 and max(integ[0], integ[-1]) > 1e-12 * peak)


def chi2_from_normal_moments(c: NormalMomentVector, t: float = 1.0) -> DivergenceResult:
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
    for k, v in enumerate(c.values):
        _finite_moment(k, v)
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
    return DivergenceResult(float(sum(terms)), tail)
