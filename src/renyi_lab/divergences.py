"""Distances between grid densities: Renyi/Tsallis, KL, TV, Hellinger,
Pearson-Vajda, infinite-order variants and relative Fisher information.

Integrals with the exploding weight q^(1-alpha) (alpha > 1) are computed
on the grid window with an explicit decay gate at the boundary; a
non-decayed integrand yields the +inf sentinel rather than a silently
truncated number.  Results carry a geometric tail estimate.
"""

from __future__ import annotations

import math
import weakref
from typing import NamedTuple

import numpy as np

from .errors import OscillationError
from .grids import GridDensity
from .reports import DivergenceResult

_HUGE = 1e290
_LOG_HUGE = math.log(_HUGE)
_Q_FLOOR = 1e-300    # reference values at or below it count as q-null in `infinite_order`
_DECAY_REL = 1e-10
# the GridDensity attribute where renyi_tsallis keeps a pair's support
_PAIR_SLOT = "_power_ratio_support"


def _window_radius(p: GridDensity) -> float:
    # |x| at the first and last sample, the same float operations as p.x
    first = p.origin + p.step * 0.5
    last = p.origin + p.step * ((p.n - 1) + 0.5)
    return float(max(abs(first), abs(last)))


def _same_grid(p: GridDensity, q: GridDensity) -> None:
    """Refuse a pair on different grids, whose values the integrals would
    pair cell by cell; origin and step may differ by 1e-12 of p's step,
    as `grids.convolve` allows for the step."""
    tol = 1e-12 * p.step
    for what, a, b, off in (("length", p.n, q.n, 0), ("step", p.step, q.step, tol),
                            ("origin", p.origin, q.origin, tol)):
        if abs(a - b) > off:
            raise ValueError(f"grids differ in {what}: {a!r} and {b!r}")


def _tail_estimate(g: np.ndarray, step: float) -> float:
    """Geometric extrapolation of the integrand beyond the window."""
    tb = 0.0
    for edge in (g[:8], g[-8:][::-1]):
        ge = float(edge[0])
        if ge <= 0.0:
            continue
        inner = float(edge[1])
        r = ge / inner if inner > ge > 0 else 0.9
        tb += step * ge * r / (1.0 - r) if r < 1 else step * ge * 10.0
    return tb


class _Support(NamedTuple):
    """The order-free part of the power-ratio integrand of w against q."""
    size: int             # length of the window
    # where w > 0 and q > 0 (and `keep`); a slice a:b when they are one run
    cells: np.ndarray | slice
    q_null: bool          # w charges a cell where q == 0
    log_w: np.ndarray     # log w on `cells`
    log_q: np.ndarray     # log q on `cells`


def _support(w, q, keep=None, logs=None) -> _Support:
    """The cells, q-null flag and logs that `_power_ratio` needs for every
    order.  `logs`, when given, holds log w and log q over the whole
    window, which are then indexed instead of taken afresh."""
    pos = w > 0.0 if keep is None else keep & (w > 0.0)
    cells = np.flatnonzero(pos & (q > 0.0))
    if len(cells) and cells[-1] - cells[0] == len(cells) - 1:
        cells = slice(int(cells[0]), int(cells[-1]) + 1)
    log_w, log_q = ((np.log(w[cells]), np.log(q[cells])) if logs is None
                    else (logs[0][cells], logs[1][cells]))
    return _Support(len(w), cells, bool(np.any(pos & (q == 0.0))), log_w, log_q)


def _power_ratio(s: _Support, alpha):
    """g = w^alpha q^(1-alpha) on the support's cells, zero elsewhere and
    full length, so that every caller's sum groups alike; None if
    alpha > 1 and w charges a q-null cell, if a log g exceeds log _HUGE,
    or if g has not decayed at a window edge.  Only the order-dependent
    work is done here, so one support serves a whole order scan.

    When the cells are one run a:b, log g is written straight into
    g[a:b] and exponentiated there, so the scan builds no full-length
    temporary and scatters nothing; the operations, and so the bits, are
    those of the gapped path, which gathers log g and scatters e^(log g).
    """
    if alpha > 1 and s.q_null:
        return None
    g = np.zeros(s.size)
    run = isinstance(s.cells, slice)
    if run:
        lg = g[s.cells]
        np.multiply(s.log_w, alpha, out=lg)
        lg += (1.0 - alpha) * s.log_q
    else:
        lg = alpha * s.log_w + (1.0 - alpha) * s.log_q
    if lg.size == 0:
        return g
    # the logs are finite, so the largest log g decides the gate
    if lg.max() > _LOG_HUGE:
        return None
    np.exp(lg, out=lg)
    if not run:
        g[s.cells] = lg
    # g is 0 off the cells and e^(log g) >= 0 on them
    peak = lg.max()
    if peak > 0 and max(g[0], g[-1]) > _DECAY_REL * peak:
        return None
    return g


def _pair_support(p: GridDensity, q: GridDensity) -> _Support:
    """The support of p against q, kept on p for the last q it was paired
    with.  The pair is matched by identity, as `GridDensity.log_values`
    is; the slot holds q only through a weak reference, so neither
    density lives longer for it.  A pair on different grids raises
    ValueError."""
    _same_grid(p, q)
    slot = vars(p).get(_PAIR_SLOT)
    if slot is not None and slot[0]() is q:
        return slot[1]
    s = _support(p.values, q.values, logs=(p.log_values, q.log_values))
    vars(p)[_PAIR_SLOT] = (weakref.ref(q), s)
    return s


def _finite_order(alpha) -> None:
    if not math.isfinite(alpha):
        hint = "; D_inf and T_inf come from infinite_order" if alpha == math.inf else ""
        raise ValueError(f"alpha must be finite, got {alpha}{hint}")


def renyi_tsallis(p: GridDensity, q: GridDensity, alpha: float):
    """Renyi divergence D_alpha and Tsallis distance T_alpha of p from q.

    Returns a pair of DivergenceResult.  D = log(I)/(alpha-1) and
    T = (I-1)/(alpha-1) with I = int (p/q)^alpha q; when no cell charges
    both p and q, I = 0 for alpha < 1, so D = +inf and T = 1/(1-alpha),
    each with bound 0.  The order-free part
    of the integrand (the cells where p > 0 and q > 0, whether p charges
    a q-null cell, and log p and log q on the cells) is built once per
    (p, q) pair and reused by every later order on the same pair, so an
    order scan pays only the order-dependent arithmetic.
    """
    _finite_order(alpha)
    if alpha <= 0 or alpha == 1.0:
        raise ValueError("alpha must be positive and different from 1")
    s = _pair_support(p, q)
    g = _power_ratio(s, alpha)
    if g is None:
        res = DivergenceResult(math.inf, math.inf)
        return res, res
    if alpha < 1 and not s.log_w.size:
        return DivergenceResult(math.inf, 0.0), DivergenceResult(1.0 / (1.0 - alpha), 0.0)
    integral = float(p.step * g.sum())
    tail = _tail_estimate(g, p.step)
    inv = 1.0 / (alpha - 1.0)
    d = DivergenceResult(max(inv * math.log(integral), 0.0),
                         abs(inv) * tail / max(integral, 1e-300))
    t = DivergenceResult(max(inv * (integral - 1.0), 0.0), abs(inv) * tail)
    return d, t


def kl(p: GridDensity, q: GridDensity) -> float:
    """Relative entropy int p log(p/q); +inf if p charges a q-null region.
    The cells and logs are the pair's support, which a later order scan
    on the same pair reuses."""
    s = _pair_support(p, q)
    if s.q_null:
        return math.inf
    return float(p.step * np.sum(p.values[s.cells] * (s.log_w - s.log_q)))


def tv_hellinger(p: GridDensity, q: GridDensity):
    """Total variation int |p-q| (in [0,2]) and the Hellinger distance."""
    _same_grid(p, q)
    tv = float(p.step * np.sum(np.abs(p.values - q.values)))
    h2 = 0.5 * float(p.step * np.sum((np.sqrt(p.values) - np.sqrt(q.values)) ** 2))
    return tv, math.sqrt(max(h2, 0.0))


def pearson_vajda_result(p: GridDensity, q: GridDensity, alpha: float) -> DivergenceResult:
    """chi_alpha with the geometric tail estimate of its integrand
    |p - q|^alpha q^(1-alpha) beyond the window; inf with bound inf
    where the integrand is not resolved.  Where q = 0 the integrand is
    +inf for alpha > 1 and, with 0^0 = 1, p for alpha = 1 (the q-null
    part f'(inf) P(q = 0) of the f-divergence with f(t) = |t - 1|)."""
    _finite_order(alpha)
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    _same_grid(p, q)
    w = np.abs(p.values - q.values)
    s = _support(w, q.values)
    g = _power_ratio(s, alpha)
    if g is None:
        return DivergenceResult(math.inf, math.inf)
    if s.q_null:  # alpha = 1, as alpha > 1 gave None
        g = np.where(q.values == 0.0, w, g)
    return DivergenceResult(float(p.step * g.sum()), _tail_estimate(g, p.step))


def pearson_vajda(p: GridDensity, q: GridDensity, alpha: float) -> float:
    """chi_alpha = int |p/q - 1|^alpha q for alpha >= 1; chi_1 equals TV."""
    return pearson_vajda_result(p, q, alpha).value


def infinite_order(p: GridDensity, q: GridDensity):
    """D_inf = log sup(p/q) and T_inf = sup((p-q)/q) over grid nodes.

    The sup is taken over the grid window only, and no bound is reported
    for the tails beyond it.  For compactly supported p against the
    normal the sup is attained inside the support; otherwise p/q may peak
    outside the window, and the value is then only the window's sup.
    """
    _same_grid(p, q)
    m = q.values > _Q_FLOOR
    if not np.any(m):
        raise ValueError("reference density vanishes on the whole window")
    sup = float(np.max(p.values[m] / q.values[m]))
    if np.any(p.values[~m] > 0.0):
        return math.inf, math.inf
    sup = max(sup, 0.0)
    if sup == 0.0:
        return -math.inf, -1.0
    return math.log(sup), sup - 1.0


def relative_fisher(p: GridDensity, q: GridDensity) -> float:
    """int |(log p)' - (log q)'|^2 p by 4th-order central differences.

    Restricted to the window where p is above a relative floor, shrunk
    by two points per side; raises OscillationError when the 2nd- and
    4th-order derivative estimates disagree (rough data).
    """
    _same_grid(p, q)
    pv, qv = p.values, q.values
    floor = 1e-10 * pv.max()
    idx = np.nonzero(pv > floor)[0]
    lo, hi = int(idx[0]) + 2, int(idx[-1]) - 1
    if hi - lo < 9:
        raise ValueError("window too small for Fisher information")
    if np.any(qv[lo:hi] <= 0.0):
        raise ValueError("reference density vanishes inside the window")
    f = p.log_values[lo:hi] - q.log_values[lo:hi]
    h = p.step
    d4 = (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12 * h)
    d2 = (f[3:-1] - f[1:-3]) / (2 * h)
    w = pv[lo + 2:hi - 2]
    denom = float(np.sum(w * d4 * d4)) + 1e-30
    if float(np.sum(w * (d4 - d2) ** 2)) > 0.05 * denom + 1e-12:
        raise OscillationError("derivative estimates disagree on the window")
    return float(h * np.sum(w * d4 * d4))
