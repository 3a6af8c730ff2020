"""Grid densities and the operations that live on them.

A density is represented by its values on a uniform midpoint grid: the
left endpoint is `origin`, the sample locations are
origin + (i + 1/2) * step.  With a symmetric window the grid is then
exactly symmetric about zero.  All integrals are midpoint-rule sums,
which for smooth decaying integrands on a uniform grid are spectrally
accurate.

The density of the normalized sum Z_n = (X_1 + ... + X_n)/sqrt(n) comes
from a `SumChain`: the binary powers base^(2^j) of the trimmed base
density, each the self-convolution of the one before (real FFTs of
zero-padded expanding arrays, one forward transform per squaring).  p_n
multiplies the powers of n's set bits in ascending order and is then
resampled onto the requested grid by a cubic spline fitted on the chain
nodes around the target window.  One chain serves every n of a sweep,
and a chain longer than CHAIN_MAX_POINTS is refused before any
convolution runs.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (AliasingError, ChainTooLongError, GridTooNarrowError,
                     TailDominanceError)
from .reports import FAILS, HOLDS, CheckReport

MASS_TOL = 1e-8
ALIAS_TOL = 1e-14
_TRIM_FLOOR = 1e-280
_ENTROPY_FLOOR = 1e-300

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# longest array a convolution chain may produce (2^25 doubles = 256 MiB)
CHAIN_MAX_POINTS = 1 << 25
# chain nodes kept on each side of the resample window; 64 reproduces the
# spline through every node to the last bit, 16 does not
_SPLINE_MARGIN = 64


def _phi(x):
    return INV_SQRT_2PI * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2)


@dataclass(frozen=True)
class GridConfig:
    half_width: float = 12.0
    points: int = 1 << 14


@dataclass(frozen=True)
class GridDensity:
    origin: float          # left endpoint of the window
    step: float
    values: np.ndarray     # midpoint samples, nonnegative
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if self.step <= 0:
            raise ValueError("step must be positive")
        if np.any(v < 0):
            raise ValueError("density values must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def x(self) -> np.ndarray:
        return self.origin + self.step * (np.arange(self.n) + 0.5)

    @property
    def mass(self) -> float:
        return float(self.step * self.values.sum())


@dataclass(frozen=True)
class MomentSummary:
    """Raw moments of a distribution: alpha_k = E X^k."""
    mean: float
    variance: float
    alpha3: float
    alpha4: float
    higher_moments: tuple = ()

    def raw_moments(self) -> list:
        m2 = self.variance + self.mean ** 2
        return [1.0, self.mean, m2, self.alpha3, self.alpha4, *self.higher_moments]


@dataclass(frozen=True)
class AnalyticModel:
    """Capability record for a 1-D distribution.

    density/cdf/log_laplace/char_fn are optional callbacks; cumulants is
    the ordered sequence (gamma_1, gamma_2, ...) when known in closed
    form.  Purely discrete members (Bernoulli variants) carry no density
    and only participate through their log-Laplace transform.
    """
    name: str
    density: Optional[Callable] = None
    log_laplace: Optional[Callable] = None
    char_fn: Optional[Callable] = None
    cumulants: Optional[tuple] = None
    support_radius: Optional[float] = None
    cdf: Optional[Callable] = None
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def variance(self) -> Optional[float]:
        if self.cumulants is not None and len(self.cumulants) >= 2:
            return float(self.cumulants[1])
        return self.meta.get("variance")


def discretize(model: AnalyticModel, half_width: float, points: int,
               mass_tol: float = MASS_TOL) -> GridDensity:
    """Sample a model onto a symmetric midpoint grid and renormalize.

    Uses exact cell averages (F(b)-F(a))/step when the model has a
    closed-form CDF, which is what makes densities with jumps (uniform)
    behave; otherwise midpoint sampling.
    """
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    if points < 16 or points & (points - 1):
        raise ValueError("points must be a power of two, at least 16")
    if model.density is None and model.cdf is None:
        raise ValueError(f"model {model.name!r} has no density")
    step = 2.0 * half_width / points
    if model.cdf is not None:
        edges = -half_width + step * np.arange(points + 1)
        vals = np.diff(np.asarray(model.cdf(edges), dtype=float)) / step
    else:
        x = -half_width + step * (np.arange(points) + 0.5)
        vals = np.asarray(model.density(x), dtype=float)
    if np.any(vals < -1e-12 * max(1.0, np.max(np.abs(vals)))):
        raise ValueError(f"model {model.name!r} produced negative density samples")
    vals = np.maximum(vals, 0.0)
    mass = step * vals.sum()
    if mass < 1.0 - 1e-3:
        raise GridTooNarrowError(
            f"grid too narrow for {model.name!r}: mass {mass:.6g} before renormalization")
    out = GridDensity(-half_width, step, vals / mass,
                      meta={"renorm": 1.0 / mass, "mass_deficit": 1.0 - mass,
                            "model": model.name})
    return out


def gaussian_grid(like: GridDensity, mean: float = 0.0, var: float = 1.0) -> GridDensity:
    """Standard (or shifted/scaled) normal density on the same grid."""
    x = like.x
    v = np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)
    return GridDensity(like.origin, like.step, v / (like.step * v.sum()))


def _fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real arrays by real FFTs.

    Same transform length and arithmetic as scipy.signal.fftconvolve; a
    square (b is a) transforms once.
    """
    from scipy.fft import irfft, next_fast_len, rfft
    size = len(a) + len(b) - 1
    nfft = next_fast_len(size, real=True)
    fa = rfft(a, nfft)
    fa *= fa if b is a else rfft(b, nfft)
    return irfft(fa, nfft)[:size]


def convolve(p: GridDensity, q: GridDensity) -> GridDensity:
    """Density of the sum of independent variables with densities p, q."""
    if abs(p.step - q.step) > 1e-12 * p.step:
        raise ValueError("grids must share the same step")
    vals = _fftconvolve(p.values, q.values)
    np.maximum(vals, 0.0, out=vals)
    vals *= p.step
    mass = p.step * vals.sum()
    vals /= mass
    x0 = (p.origin + 0.5 * p.step) + (q.origin + 0.5 * q.step)
    return GridDensity(x0 - 0.5 * p.step, p.step, vals,
                       meta={"mass_drift": mass - 1.0})


def _trimmed(p: GridDensity) -> GridDensity:
    v = p.values
    keep = np.nonzero(v > v.max() * _TRIM_FLOOR)[0]
    lo, hi = int(keep[0]), int(keep[-1]) + 1
    # keep the trim symmetric so symmetric inputs stay symmetric
    lo = min(lo, p.n - hi)
    hi = p.n - lo
    if lo == 0 and hi == p.n:
        return p
    return GridDensity(p.origin + lo * p.step, p.step, v[lo:hi], meta=dict(p.meta))


@dataclass(frozen=True)
class SumChain:
    """Binary convolution powers of one model's base density on one grid.

    `powers[j]` is the trimmed base convolved with itself 2^j times; the
    chain gives p_n for every n below 2^len(powers).
    """
    model: str
    grid: GridConfig
    base: GridDensity      # p_1, untrimmed
    powers: tuple

    def density(self, n: int) -> GridDensity:
        """p_n on the chain's grid."""
        if n == 1:
            return self.base
        if not 1 < n < 1 << len(self.powers):
            raise ValueError(f"n = {n} is beyond this chain")
        bits = [j for j in range(n.bit_length()) if n >> j & 1]
        drifts = [p.meta["mass_drift"] for p in self.powers[1:bits[-1] + 1]]
        acc = self.powers[bits[0]]
        for j in bits[1:]:
            acc = convolve(acc, self.powers[j])
            drifts.append(acc.meta["mass_drift"])
        p = _resample_sum(acc, n, self.grid)
        p.meta.update(model=self.model, n=n, chain_max_len=acc.n,
                      conv_count=len(drifts), conv_mass_drifts=tuple(drifts))
        return p


def sum_chain(model: AnalyticModel, n_max: int,
              grid_cfg: GridConfig | None = None) -> SumChain:
    """Square the base density up to the top bit of n_max.

    Raises ChainTooLongError before any convolution when p_n for n_max,
    the longest array of the chain, would exceed CHAIN_MAX_POINTS.
    """
    if n_max < 1:
        raise ValueError("n must be at least 1")
    cfg = grid_cfg or GridConfig()
    base = discretize(model, cfg.half_width, cfg.points)
    if base.values[0] > ALIAS_TOL or base.values[-1] > ALIAS_TOL:
        raise AliasingError(
            f"density of {model.name!r} not decayed at |x| = {cfg.half_width}; "
            f"try half_width >= {1.5 * cfg.half_width:g}")
    work = _trimmed(base)
    base.meta.update(n=1, chain_max_len=base.n, conv_count=0, conv_mass_drifts=())
    longest = n_max * (work.n - 1) + 1
    if n_max > 1 and longest > CHAIN_MAX_POINTS:
        raise ChainTooLongError(
            f"p_n for n = {n_max} needs a convolution array of {longest} points "
            f"(cap {CHAIN_MAX_POINTS}); use a smaller n or a coarser grid")
    powers = [work]
    for _ in range(n_max.bit_length() - 1):
        powers.append(convolve(powers[-1], powers[-1]))
    return SumChain(model.name, cfg, base, tuple(powers))


def _resample_sum(acc: GridDensity, n: int, cfg: GridConfig) -> GridDensity:
    """Rescale x -> x*sqrt(n) by cubic resampling onto the requested grid.

    The spline is fitted only on the nodes spanning the target arguments
    plus _SPLINE_MARGIN on each side.
    """
    from scipy.interpolate import CubicSpline
    root_n = math.sqrt(n)
    step = 2.0 * cfg.half_width / cfg.points
    y = -cfg.half_width + step * (np.arange(cfg.points) + 0.5)
    arg = y * root_n
    x_first = acc.origin + acc.step * 0.5
    x_last = acc.origin + acc.step * ((acc.n - 1) + 0.5)
    inside = (arg >= x_first) & (arg <= x_last)
    vals = np.zeros_like(arg)
    if inside.any():
        a = arg[inside]
        lo = max(0, int((a[0] - x_first) / acc.step) - _SPLINE_MARGIN)
        hi = min(acc.n, int((a[-1] - x_first) / acc.step) + 2 + _SPLINE_MARGIN)
        xs = acc.origin + acc.step * (np.arange(lo, hi) + 0.5)
        vals[inside] = CubicSpline(xs, acc.values[lo:hi])(a)
    vals = np.maximum(vals, 0.0) * root_n
    # values below the FFT noise floor of the convolution chain are
    # meaningless; keeping them poisons ratio integrands in the far tail
    vals[vals < 1e-13 * vals.max()] = 0.0
    mass = step * vals.sum()
    if abs(mass - 1.0) > 1e-6:
        raise AliasingError(
            f"p_n mass {mass:.8g} on the target window; widen half_width")
    return GridDensity(-cfg.half_width, step, vals / mass,
                       meta={"mass_drift": mass - 1.0})


def normalized_sum_density(model: AnalyticModel, n: int,
                           grid_cfg: GridConfig | None = None,
                           chain: SumChain | None = None) -> GridDensity:
    """Density p_n of Z_n = (X_1 + ... + X_n)/sqrt(n) on the target grid.

    `chain`, built by `sum_chain` for this model and grid, lets a sweep
    over n share one set of powers; without it a chain for n alone is
    built.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if chain is None:
        chain = sum_chain(model, n, grid_cfg)
    return chain.density(n)


def entropy(p: GridDensity) -> float:
    """Differential entropy -int p log p with the 0 log 0 = 0 convention."""
    v = p.values
    pos = v > _ENTROPY_FLOOR
    return float(-p.step * np.sum(v[pos] * np.log(v[pos])))


def entropy_power(p: GridDensity) -> float:
    return math.exp(2.0 * entropy(p))


def laplace_eval(p: GridDensity, t: float) -> float:
    """E e^{tX} by quadrature, with a decay check at the window edge."""
    w = p.values * np.exp(float(t) * p.x)
    peak = w.max()
    if peak > 0 and max(w[0], w[-1]) > 1e-12 * peak:
        raise TailDominanceError(
            f"e^(tx) p(x) not decayed at the boundary for t = {t:g}")
    return float(p.step * w.sum())


def _quantile_table(p: GridDensity):
    c = np.concatenate([[0.0], np.cumsum(p.values) * p.step])
    c /= c[-1]
    edges = p.origin + p.step * np.arange(p.n + 1)
    keep = np.diff(c, prepend=-1.0) > 0  # ties resolved to the leftmost edge
    return c[keep], edges[keep]


def _quantile_at(c, x, a, u):
    """Value at u and slope of the piece of the piecewise-linear quantile
    (c, x) that contains a; u must lie in the same piece."""
    j = np.searchsorted(c, a, side="right") - 1
    slope = (x[j + 1] - x[j]) / (c[j + 1] - c[j])
    return slope * (u - c[j]) + x[j], slope


def wasserstein2(p: GridDensity, q: GridDensity, subdiv: int = 1 << 20) -> float:
    """Quadratic Wasserstein distance via piecewise-linear quantile coupling.

    W_2^2 = int_0^1 (Q_p(u) - Q_q(u))^2 du by the midpoint rule on the
    S = subdiv points u_i = (i + 1/2)/S.  Between consecutive knots a < b
    of the union of the two quantile tables, d = Q_p - Q_q is linear with
    slope beta.  The c = ceil(bS - 1/2) - ceil(aS - 1/2) midpoints in
    [a, b) are equally spaced around their mean u*, so they contribute
    c d(u*)^2 + beta^2 c (c^2 - 1) / (12 S^2): two nonnegative terms, no
    cancellation.  O(len(p) + len(q)) work, no subdiv-length arrays.
    """
    cp, xp = _quantile_table(p)
    cq, xq = _quantile_table(q)
    knots = np.union1d(cp, cq)  # 0 and 1 are knots of both tables
    first = np.ceil(knots * subdiv - 0.5)  # index of the first midpoint >= knot
    count = np.diff(first)
    live = count > 0
    a, c = knots[:-1][live], count[live]
    u = (first[:-1][live] + 0.5 * c) / subdiv  # mean of the piece's midpoints
    qp, sp = _quantile_at(cp, xp, a, u)
    qq, sq = _quantile_at(cq, xq, a, u)
    d, beta = qp - qq, sp - sq
    spread = np.sum(beta * beta * (c * (c * c - 1.0))) / (12.0 * subdiv * subdiv)
    return float(math.sqrt((np.sum(c * d * d) + spread) / subdiv))


def gaussian_smooth(p: GridDensity, t: float) -> GridDensity:
    """Density of sqrt(t) X + sqrt(1-t) Z for X distributed as p.

    The heat-flow interpolation between p (t = 1) and the standard
    normal (t = 0), resampled back onto p's grid.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if t == 1.0:
        return p
    if t == 0.0:
        return gaussian_grid(p)
    s1, s2 = math.sqrt(t), math.sqrt(1.0 - t)
    step = p.step
    if s2 < 5.0 * step:
        raise ValueError("smoothing scale below grid resolution")
    from scipy.interpolate import CubicSpline
    # scaled copy of p on the same step
    spline = CubicSpline(p.x, p.values)
    half1 = s1 * max(abs(p.origin), abs(p.origin + p.n * step))
    m1 = int(math.ceil(half1 / step)) + 2
    y1 = step * (np.arange(-m1, m1) + 0.5)
    arg = y1 / s1
    g1 = np.where((arg >= p.x[0]) & (arg <= p.x[-1]), spline(arg), 0.0) / s1
    g1 = np.maximum(g1, 0.0)
    # gaussian kernel of scale s2
    mk = int(math.ceil(min(40.0 * s2, 30.0) / step)) + 1
    yk = step * (np.arange(-mk, mk) + 0.5)
    ker = np.exp(-0.5 * (yk / s2) ** 2) / (s2 * math.sqrt(2 * math.pi))
    conv = np.maximum(_fftconvolve(g1, ker), 0.0) * step
    x0 = (y1[0]) + (yk[0])  # first sample of the convolution
    xs = x0 + step * np.arange(len(conv))
    out_spline = CubicSpline(xs, conv)
    vals = np.where((p.x >= xs[0]) & (p.x <= xs[-1]), out_spline(p.x), 0.0)
    vals = np.maximum(vals, 0.0)
    vals[vals < 1e-13 * vals.max()] = 0.0  # FFT noise floor, as in the sum path
    mass = step * vals.sum()
    return GridDensity(p.origin, step, vals / mass, meta={"t": t})


def moment_summary(p: GridDensity, order: int = 8) -> MomentSummary:
    """Raw moments of a grid density up to the given order."""
    if order < 4:
        raise ValueError("order must be at least 4")
    x = p.x
    w = p.step * p.values
    raw = [float(np.sum(w * x ** k)) for k in range(1, order + 1)]
    return MomentSummary(mean=raw[0], variance=raw[1] - raw[0] ** 2,
                         alpha3=raw[2], alpha4=raw[3],
                         higher_moments=tuple(raw[4:]))


def pointwise_density_bound_check(model: AnalyticModel, n: int, sigma2: float,
                                  M: float, grid_cfg: GridConfig | None = None) -> CheckReport:
    """Check p_n(x) <= e^(1/2) M exp(-(n-1) x^2 / (2 n sigma2)) on the grid."""
    if sigma2 <= 0 or M <= 0:
        raise ValueError("sigma2 and M must be positive")
    p_n = normalized_sum_density(model, n, grid_cfg)
    x = p_n.x
    bound = math.exp(0.5) * M * np.exp(-(n - 1) * x * x / (2.0 * n * sigma2))
    margin = bound - p_n.values
    tol = 1e-9 * max(1.0, M)
    worst = int(np.argmin(margin))
    verdict = HOLDS if margin[worst] >= -tol else FAILS
    witnesses = [(float(x[worst]), float(margin[worst]))]
    if verdict == FAILS:
        bad = np.nonzero(margin < -tol)[0]
        witnesses = [(float(x[i]), float(margin[i])) for i in bad[:5]]
    return CheckReport(verdict=verdict, witnesses=witnesses,
                       tolerances={"margin_tol": tol},
                       detail={"n": n, "sigma2": sigma2, "M": M})


def grid_to_csv(p: GridDensity, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "value"])
        for xi, vi in zip(p.x, p.values):
            w.writerow([f"{xi:.12g}", f"{vi:.12g}"])


def grid_from_csv(path) -> GridDensity:
    xs, vs = [], []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        next(r)
        for row in r:
            xs.append(float(row[0]))
            vs.append(float(row[1]))
    xs = np.asarray(xs)
    step = float(xs[1] - xs[0])
    return GridDensity(float(xs[0]) - 0.5 * step, step, np.asarray(vs))


def grid_to_binary(p: GridDensity, path) -> None:
    """origin, step, then the values, all little-endian 64-bit floats."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<dd", p.origin, p.step))
        fh.write(np.asarray(p.values, dtype="<f8").tobytes())


def grid_from_binary(path) -> GridDensity:
    with open(path, "rb") as fh:
        origin, step = struct.unpack("<dd", fh.read(16))
        vals = np.frombuffer(fh.read(), dtype="<f8")
    return GridDensity(origin, step, vals.copy())
