"""Grid densities and the operations that live on them.

A density is represented by its values on a uniform midpoint grid: the
left endpoint is `origin`, the sample locations are
origin + (i + 1/2) * step.  With a symmetric window the grid is then
exactly symmetric about zero.  All integrals are midpoint-rule sums,
which for smooth decaying integrands on a uniform grid are spectrally
accurate.

The density of the normalized sum Z_n = (X_1 + ... + X_n)/sqrt(n) comes
from `sum_densities`, one streaming pass over the binary powers
base^(2^j) of the trimmed base density, each the self-convolution of the
one before (real FFTs of zero-padded expanding arrays, one forward
transform per squaring).  The pass multiplies each new power into every
pending n with that bit set, lowest bit first, and resamples and yields
p_n as soon as its top bit is in; a squaring drops its input after the
forward transform, so a power lives only while a pending product needs
it.  Each squaring and each product is cut to
|x| <= 40 sd sqrt(m), m the summands it holds and sd the base's standard
deviation: beyond that a Gaussian-type tail is below the smallest double,
so the cells hold only the transforms' round-off.  A cut that would drop
a value above ALIAS_TOL of the array's peak raises AliasingError.  While
the sd of a squaring's sum spans more than 2 _NODES_PER_SD nodes, the
chain keeps every other node at twice the step, if every live array is
smooth enough to follow, so the arrays stay bounded at any n.  p_n (like
`gaussian_smooth`'s lattice) is resampled onto the requested grid by a
cubic spline fitted on the nodes around the target window.  A pass whose
longest convolution output, a squaring's before its cut included, would
exceed CHAIN_MAX_POINTS with every halving taken is refused before any
transform runs; since a halving may decline, each transform checks its
own length as well.

The transforms are numpy.fft's, which reproduce scipy.fft bit for bit.
The spline is `_spline(x0, h, y)`, scipy's not-a-knot CubicSpline on the
uniform nodes x0 + i h, whose slope system a short filter solves
(`_uniform_solve`); it keeps the values and slopes and forms a piece's
coefficients only where it is evaluated.  The module imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import (AliasingError, ChainTooLongError, GridTooNarrowError,
                     TailDominanceError)
from .reports import FAILS, HOLDS, CheckReport
from .zoo import AnalyticModel, MomentSummary  # re-exported beside the grid records

ALIAS_TOL = 1e-14
_TRIM_FLOOR = 1e-280
_ENTROPY_FLOOR = 1e-300

# longest array a convolution chain may produce (2^25 doubles = 256 MiB)
CHAIN_MAX_POINTS = 1 << 25
# half-width of a chain array's window, in standard deviations of the sum
# it holds: a Gaussian-type tail at 40 sd is e^-800, below the smallest
# double, so the cut drops only the transforms' round-off
_WINDOW_SD = 40.0
# the chain keeps every other node, at twice the step, while the sd of
# the sum a squaring holds spans more than 2 _NODES_PER_SD nodes: the
# default step would give the sum of m = 1024 some 22,000 nodes per sd.
# Against the unhalved chain, 4096 moves the skewed `rate` relative gap
# by 4e-7 of itself and 1024 by 1.1e-6.  Each dropped interior node must
# lie within _HALVING_TOL of the array's peak of the 4-point cubic
# through its kept neighbours, else the pass keeps its step
_NODES_PER_SD = 4096
_HALVING_TOL = 1e-12
# chain nodes kept on each side of the resample window: the spline's
# end conditions reach a node i places inside only through r^i (see
# _SPLINE_TAPS), so 64 nodes bound the end effect by r^64 ~ 1e-37
_SPLINE_MARGIN = 64
# On uniform nodes of step h the not-a-knot slope system is h (1, 4, 1)
# inside.  Its bi-infinite inverse is the cubic B-spline prefilter
# (-r)^|k| / (2 sqrt(3) h), r = 2 - sqrt(3) (Unser, Aldroubi & Eden, IEEE
# Trans. Signal Process. 41, 1993); r^40 ~ 1e-23 cuts it at 81 taps.
_R = 2.0 - math.sqrt(3.0)
_SPLINE_TAPS = (-_R) ** np.abs(np.arange(-40, 41)) / (2.0 * math.sqrt(3.0))
_SPLINE_END = (-_R) ** np.arange(_SPLINE_MARGIN) / (math.sqrt(3.0) * _R)
# `_laplace_walk` tilts afresh every _WALK_ANCHOR nodes, so its cells
# drift from the exact tilt by about 1e-13 of themselves; its fast gate
# holds the edges against every _WALK_PROBE-th cell at laplace_eval's
# 1e-12 less 1e-9 of it, a band far wider than the drift
_WALK_ANCHOR = 32
_WALK_PROBE = 64
_WALK_GATE = 1e-12 * (1.0 - 1e-9)


def _check_grid(half_width: float, points: int) -> None:
    """Refuse a window that is not positive and finite, or a point count
    that is not a power of two of at least 16."""
    if not (math.isfinite(half_width) and half_width > 0):
        raise ValueError("half_width must be positive and finite")
    if points < 16 or points & (points - 1):
        raise ValueError("points must be a power of two, at least 16")


@dataclass(frozen=True)
class GridConfig:
    half_width: float = 12.0
    points: int = 1 << 14

    def __post_init__(self):
        _check_grid(self.half_width, self.points)


@dataclass(frozen=True)
class GridDensity:
    origin: float          # left endpoint of the window
    step: float
    values: np.ndarray     # midpoint samples, nonnegative
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if not (math.isfinite(self.origin) and math.isfinite(self.step)):
            raise ValueError("origin and step must be finite")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if not np.all(v >= 0):  # NaN fails too
            raise ValueError("density values must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def x(self) -> np.ndarray:
        """Sample locations, computed on first use and read-only."""
        x = self.origin + self.step * (np.arange(self.n) + 0.5)
        x.flags.writeable = False
        return x

    @cached_property
    def log_values(self) -> np.ndarray:
        """log of the values, -inf where a value is 0; computed on first
        use and read-only."""
        with np.errstate(divide="ignore"):
            lv = np.log(self.values)
        lv.flags.writeable = False
        return lv

    @property
    def mass(self) -> float:
        return float(self.step * self.values.sum())


@lru_cache(maxsize=4)
def _samples(density: Callable | None, cdf: Callable | None, half_width: float,
             points: int) -> np.ndarray:
    """`discretize`'s raw cell averages or midpoint values, read-only.
    Cached on what is sampled, not on the model, as every n of a sum
    starts from the same base, a model copied with another log_laplace
    has the same one, and each sampling is a CDF or density pass over the
    whole grid."""
    step = 2.0 * half_width / points
    if cdf is not None:
        edges = -half_width + step * np.arange(points + 1)
        vals = np.diff(np.asarray(cdf(edges), dtype=float)) / step
    else:
        x = -half_width + step * (np.arange(points) + 0.5)
        vals = np.array(density(x), dtype=float)
    vals.flags.writeable = False
    return vals


def discretize(model: AnalyticModel, half_width: float, points: int) -> GridDensity:
    """Sample a model onto a symmetric midpoint grid and renormalize.

    Uses exact cell averages (F(b)-F(a))/step when the model has a
    closed-form CDF, which is what makes densities with jumps (uniform)
    behave; otherwise midpoint sampling.
    """
    _check_grid(half_width, points)
    if model.density is None and model.cdf is None:
        raise ValueError(f"model {model.name!r} has no density")
    step = 2.0 * half_width / points
    vals = _samples(model.density, model.cdf, half_width, points)
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


def _good_size(n: int) -> int:
    """Smallest 2*3*5-smooth integer >= n: pocketfft's fast real-transform
    length, the value of scipy.fft.next_fast_len(n, real=True)."""
    best = 2 * n
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            x = f35 << (-(-n // f35) - 1).bit_length()  # least f35 * 2^k >= n
            if x < best:
                best = x
            f35 *= 3
        f5 *= 5
    return best


def _fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real arrays by real FFTs.

    Same transform length and arithmetic as scipy.signal.fftconvolve
    (numpy >= 2 runs the same C++ pocketfft, and pads inside the
    transform instead of copying the input); a square (b is a)
    transforms once, as `_fftsquare` does.
    """
    if b is a:
        return _fftsquare([a])
    size = len(a) + len(b) - 1
    nfft = _good_size(size)
    fa = np.fft.rfft(a, nfft)
    fa *= np.fft.rfft(b, nfft)
    return np.fft.irfft(fa, nfft)[:size]


def _fftsquare(held: list) -> np.ndarray:
    """_fftconvolve(a, a) for the array a in the one-item list `held`.

    The list is emptied by the forward transform, so when it held the
    only reference, a is freed before the inverse transform allocates
    its output.
    """
    size = 2 * len(held[0]) - 1
    nfft = _good_size(size)
    fa = np.fft.rfft(held.pop(), nfft)
    fa *= fa
    return np.fft.irfft(fa, nfft)[:size]


@dataclass(frozen=True)
class _UniformCubic:
    """The cubic spline with nodes x0 + i h, node values y and node slopes s.

    A piece's coefficients are formed when a point asks for it, by
    scipy's CubicSpline arithmetic, and summed as scipy's PPoly sums
    them: from the constant up, with s^k built by repeated multiplication
    (Horner rounds differently).  A point uses the piece of the last node
    at or below it, the last piece is closed on the right, points outside
    the nodes use the end pieces and NaN gives NaN.
    """
    x0: float
    h: float
    y: np.ndarray
    s: np.ndarray

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        x0, h, y, s, last = self.x0, self.h, self.y, self.s, len(self.y) - 2
        i = np.clip(np.nan_to_num(np.floor((flat - x0) / h)), 0, last).astype(np.intp)
        # the quotient's rounding can put t one piece off the last node <= t
        i -= (x0 + i * h > flat) & (i > 0)
        i += (x0 + (i + 1) * h <= flat) & (i < last)
        ds = flat - (x0 + i * h)
        slope = (y[i + 1] - y[i]) / h
        hc3 = (s[i] + s[i + 1] - 2 * slope) / h  # h times the cubic coefficient
        coefs = (hc3 / h, (slope - s[i]) / h - hc3, s[i], y[i])
        out, power = coefs[-1], 1.0
        for c in coefs[-2::-1]:
            power = power * ds
            out = out + c * power
        return out.reshape(t.shape)


def _uniform_solve(g: np.ndarray) -> np.ndarray:
    """s with U s = g, U the not-a-knot slope system on unit steps: rows
    (1, 2), then (1, 4, 1) inside, then (2, 1); len(g) >= 4.
    The filter satisfies every inner row, and so does the mode
    (-r)^i / (sqrt(3) r), i nodes from an end, cut at _SPLINE_MARGIN
    nodes.  It moves that end's row by 1 and the other end's by
    c = (2 (-r)^(n-2) + (-r)^(n-1)) / (sqrt(3) r) while the cut mode
    reaches it, else 0; the two end amplitudes solve the 2x2 system of
    the end rows' residuals."""
    n = len(g)
    m = min(n, _SPLINE_MARGIN)
    s = np.convolve(g, _SPLINE_TAPS)[40:40 + n]
    c = 2.0 * _SPLINE_END[n - 2] + _SPLINE_END[n - 1] if n <= m else 0.0
    e0, e1 = g[0] - s[0] - 2.0 * s[1], g[-1] - 2.0 * s[-2] - s[-1]
    s[:m] += (e0 - c * e1) / (1.0 - c * c) * _SPLINE_END[:m]
    s[-m:] += (e1 - c * e0) / (1.0 - c * c) * _SPLINE_END[m - 1::-1]
    return s


def _spline(x0: float, h: float, y: np.ndarray) -> _UniformCubic:
    """Not-a-knot cubic spline through the values y at the nodes x0 + i h.

    scipy.interpolate.CubicSpline's tridiagonal system for the node
    slopes, with every step h, solved by `_uniform_solve` at any size.
    Only y and the slopes are kept: each piece's coefficients are formed
    when evaluated.
    """
    y = np.asarray(y, dtype=float)
    n = len(y) if y.ndim == 1 else 0
    if n < 4:
        raise ValueError("a not-a-knot spline needs at least 4 node values")
    if not (math.isfinite(x0) and math.isfinite(h) and h > 0):
        raise ValueError("spline origin and step must be finite, the step positive")
    if not np.all(np.isfinite(y)):
        raise ValueError("spline node values must be finite")
    slope = np.diff(y) / h
    # not-a-knot: the third derivative is continuous at the second and
    # the last but one node
    b = np.empty(n)
    b[1:-1] = 3 * (h * slope[:-1] + h * slope[1:])
    b[0] = ((h + 4 * h) * h * slope[0] + h ** 2 * slope[1]) / (2 * h)
    b[-1] = (h ** 2 * slope[-2] + (4 * h + h) * h * slope[-1]) / (2 * h)
    del slope
    return _UniformCubic(float(x0), float(h), y, _uniform_solve(b) / h)


def _sum_origin(a: float, b: float, step: float) -> float:
    """Left endpoint of the convolution of two grids of the given step
    whose left endpoints are a and b."""
    return ((a + 0.5 * step) + (b + 0.5 * step)) - 0.5 * step


def _sum_density(vals: np.ndarray, origin: float, step: float) -> GridDensity:
    """A convolution's raw values as a density: clipped at zero, scaled by
    the step and renormalized in place; the renormalization goes to meta."""
    np.maximum(vals, 0.0, out=vals)
    vals *= step
    mass = step * vals.sum()
    vals /= mass
    return GridDensity(origin, step, vals, meta={"mass_drift": mass - 1.0})


def convolve(p: GridDensity, q: GridDensity) -> GridDensity:
    """Density of the sum of independent variables with densities p, q."""
    if abs(p.step - q.step) > 1e-12 * p.step:
        raise ValueError("grids must share the same step")
    return _sum_density(_fftconvolve(p.values, q.values),
                        _sum_origin(p.origin, q.origin, p.step), p.step)


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


def _window_drop(origin: float, step: float, n: int, half: float) -> int:
    """Cells cut from each end of a chain array of n cells from `origin`
    to keep |x| <= half; the same count a side keeps a symmetric array
    symmetric, and at least the middle cell stays."""
    edge = (-origin - half) / step
    return min(math.floor(edge), (n - 1) // 2) if edge >= 1 else 0


def _windowed(p: GridDensity, half: float, model: str, m: int) -> GridDensity:
    """The chain array p of a sum of m summands cut to |x| <= half.
    A cut that would drop a value above ALIAS_TOL of p's peak raises
    AliasingError."""
    drop = _window_drop(p.origin, p.step, p.n, half)
    if not drop:
        return p
    v = p.values
    cut = max(v[:drop].max(), v[-drop:].max())
    if cut > ALIAS_TOL * v.max():
        raise AliasingError(
            f"the {_WINDOW_SD:g}-sd chain window of {model!r} at m = {m} would cut "
            f"{cut / v.max():.3g} of the peak")
    return GridDensity(p.origin + drop * p.step, p.step, v[drop:p.n - drop].copy(), meta=p.meta)


def _halving_start(n: int) -> int:
    """First node a halving of an n-node array keeps: the centre node's
    parity for odd n, so a symmetric array stays symmetric."""
    return (n - 1) // 2 % 2 if n % 2 else 0


def _follows_halving(p: GridDensity) -> bool:
    """Whether the 4-point cubic (9 (k1 + k2) - (k0 + k3)) / 16 of the
    nodes a halving of p keeps predicts every dropped interior node to
    _HALVING_TOL of p's peak."""
    start = _halving_start(p.n)
    kept, dropped = p.values[start::2], p.values[start + 1::2]
    guess = (9.0 * (kept[1:-2] + kept[2:-1]) - (kept[:-3] + kept[3:])) / 16.0
    miss = np.abs(guess - dropped[1:len(kept) - 2])
    return len(miss) > 0 and miss.max() <= _HALVING_TOL * p.values.max()


def _halved(p: GridDensity) -> GridDensity:
    """p on every other node at twice the step, the centre node's parity
    kept; the values are copied, not renormalized."""
    start = _halving_start(p.n)
    return GridDensity(p.origin + (start - 0.5) * p.step, 2.0 * p.step,
                       p.values[start::2].copy(), meta=p.meta)


def _halving(power: GridDensity, acc: dict) -> tuple:
    """One halving attempt of a `sum_densities` pass: (power, acc, True)
    with power and every pending product of acc halved, an array that
    several products share halved once, or the arguments and False when
    one of them does not follow the halving.

    Every check frees its temporaries before the first copy.  The
    attempt's own references die with the call, so once the caller
    rebinds power and acc, taken or not, nothing holds an array the pass
    no longer needs.
    """
    live = {id(a): a for a in (power, *acc.values())}
    if not all(map(_follows_halving, live.values())):
        return power, acc, False
    halved = {k: _halved(a) for k, a in live.items()}
    return halved[id(power)], {n: halved[id(a)] for n, a in acc.items()}, True


def _halves(sd: float, m: int, step: float) -> bool:
    """Whether the sd of a sum of m summands spans more than
    2 _NODES_PER_SD nodes of the given step."""
    return sd * math.sqrt(m) / step > 2 * _NODES_PER_SD


def _check_chain_length(size: int, n_max: int) -> None:
    """Refuse a convolution output of `size` points over CHAIN_MAX_POINTS
    in a pass up to n_max."""
    if size > CHAIN_MAX_POINTS:
        raise ChainTooLongError(
            f"p_n for n = {n_max} needs a convolution array of {size} points "
            f"(cap {CHAIN_MAX_POINTS}); use a smaller n or a coarser grid")


def _chain_longest(power: GridDensity, ns: list, half: Callable, sd: float) -> int:
    """Longest convolution output, before its cut, of the `sum_densities`
    pass over ns from the power-0 grid `power` when every halving is
    taken: the pass's geometry without its arithmetic."""
    step, longest = power.step, 0

    def cut(origin, n, m):
        nonlocal longest
        longest = max(longest, n)
        drop = _window_drop(origin, step, n, half(m))
        return origin + drop * step, n - 2 * drop

    def halve(origin, n):
        start = _halving_start(n)
        return origin + (start - 0.5) * step, (n - start + 1) // 2

    pw, acc = (power.origin, power.n), {}
    for j in range(ns[-1].bit_length()):
        if j:
            pw = cut(_sum_origin(pw[0], pw[0], step), 2 * pw[1] - 1, 1 << j)
            while _halves(sd, 1 << j, step):
                pw, acc = halve(*pw), {n: halve(*a) for n, a in acc.items()}
                step *= 2.0
        for n in ns:
            if n >> j & 1:
                acc[n] = (cut(_sum_origin(acc[n][0], pw[0], step), acc[n][1] + pw[1] - 1,
                              n & ((2 << j) - 1)) if n in acc else pw)
    return longest


def sum_densities(model: AnalyticModel, ns: Iterable[int], grid_cfg: GridConfig | None = None,
                  sigma: float = 1.0) -> Iterator[GridDensity]:
    """Yield the density of S_n/(sigma sqrt(n)) on the requested grid for
    each n of the strictly increasing ns: p_n for the default sigma = 1,
    the standardized sum for sigma^2 the model's variance.  p_n's meta
    holds the chain diagnostics; for n = 1 and sigma = 1 p_n is the
    untrimmed base itself.

    One pass squares the trimmed base up to the top bit of max(ns).  Each
    new power 2^j is multiplied into every pending n with bit j set, in
    ascending bit order, which fixes every p_n to the bit whatever the
    other ns are; n's product is resampled and yielded as soon as its top
    bit is in, so the consumer measures p_n before the pass squares on.  A
    squaring drops its input after the forward transform, so no power
    outlives the pending products that use it.

    Every squaring and every product is cut to |x| <= _WINDOW_SD sd
    sqrt(m), m the summands it holds and sd the root second moment of the
    untrimmed base, after its renormalization; the window grows like
    sqrt(m) while the support grows like m, so it binds once m is large
    enough (from m ~ 12 for skewed, m ~ 533 for uniform).  The window is
    centred on 0, the mean of every zoo model.  A cut that would drop a
    value above ALIAS_TOL of the array's peak raises AliasingError naming
    the model and m, so a mean that carries S_m out of the window is
    refused, not cut.

    After each squaring's cut, while sd sqrt(m) / step > 2 _NODES_PER_SD
    (from m = 256 on the default grid), the power and every pending
    product keep every other node, the centre node's parity, at twice the
    step; the values are not renormalized, and the pass keeps one step for
    all its arrays.  A halving is taken only if each of them follows it:
    the 4-point cubic of its kept nodes predicts every dropped interior
    node to _HALVING_TOL of its peak.  Otherwise the pass keeps its step
    until the next squaring.  A halving, taken or declined, leaves the pass
    holding only the arrays it still needs, the power and the pending
    products, so an array it replaces is freed at once.  p_n's
    meta["chain_step"] is the step of the array it was resampled from.

    Raises ChainTooLongError before any transform when the longest
    convolution output of the pass with every halving taken, a squaring's
    before its cut included, would exceed CHAIN_MAX_POINTS, and before a
    transform whose own output would, which a declined halving can cause.
    """
    ns = [int(n) for n in ns]
    if not ns or ns[0] < 1 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n values must be at least 1 and strictly increasing")
    cfg = grid_cfg or GridConfig()
    base = discretize(model, cfg.half_width, cfg.points)
    if base.values[0] > ALIAS_TOL or base.values[-1] > ALIAS_TOL:
        raise AliasingError(
            f"density of {model.name!r} not decayed at |x| = {cfg.half_width}; "
            f"try half_width >= {1.5 * cfg.half_width:g}")
    sd = math.sqrt(base.step * float(np.sum(base.x ** 2 * base.values)))
    def half(m):
        return _WINDOW_SD * sd * math.sqrt(m)
    power = _trimmed(base)
    n_max = ns[-1]
    _check_chain_length(_chain_longest(power, ns, half, sd), n_max)
    if ns[0] == 1:
        p = base if sigma == 1.0 else _resample_sum(base, 1, cfg, sigma)
        p.meta.update(model=model.name, n=1, chain_max_len=base.n, chain_step=base.step,
                      conv_count=0, conv_mass_drifts=())
        yield p
        ns = ns[1:]
    del base
    acc = {}                          # n -> product of its powers so far
    drifts = {n: [] for n in ns}      # mass drift of each of n's products
    squared = []                      # mass drift of power j at index j - 1
    for j in range(n_max.bit_length()):
        if j:
            _check_chain_length(2 * power.n - 1, n_max)
            held, origin, step = [power.values], power.origin, power.step
            power = None  # held now has the pass's only reference
            power = _sum_density(_fftsquare(held), _sum_origin(origin, origin, step), step)
            squared.append(power.meta["mass_drift"])
            power = _windowed(power, half(1 << j), model.name, 1 << j)
            taken = True
            while taken and _halves(sd, 1 << j, power.step):
                power, acc, taken = _halving(power, acc)
        for n in ns:
            if not n >> j & 1:
                continue
            if n in acc:
                _check_chain_length(acc[n].n + power.n - 1, n_max)
                m = n & ((2 << j) - 1)  # the summands acc[n] now holds
                acc[n] = _windowed(convolve(acc[n], power), half(m), model.name, m)
                drifts[n].append(acc[n].meta["mass_drift"])
            else:
                acc[n] = power
            if n >> j == 1:  # j is n's top bit
                d = squared[:j] + drifts.pop(n)
                p = _resample_sum(acc[n], n, cfg, sigma)
                p.meta.update(model=model.name, n=n, chain_max_len=acc[n].n,
                              chain_step=acc.pop(n).step, conv_count=len(d),
                              conv_mass_drifts=tuple(d))
                yield p


def _spline_at(src: GridDensity, points: np.ndarray) -> np.ndarray:
    """src at the sorted points by the cubic spline through the nodes that span
    them plus _SPLINE_MARGIN a side; 0 outside src's nodes, clipped at 0."""
    x_first = src.origin + src.step * 0.5
    x_last = src.origin + src.step * ((src.n - 1) + 0.5)
    inside = (points >= x_first) & (points <= x_last)
    vals = np.zeros_like(points)
    if inside.any():
        a = points[inside]
        lo = max(0, int((a[0] - x_first) / src.step) - _SPLINE_MARGIN)
        hi = min(src.n, int((a[-1] - x_first) / src.step) + 2 + _SPLINE_MARGIN)
        x0 = src.origin + src.step * (lo + 0.5)
        vals[inside] = _spline(x0, src.step, src.values[lo:hi])(a)
    return np.maximum(vals, 0.0)


def _floored_density(vals: np.ndarray, origin: float, step: float) -> GridDensity:
    """Resampled values as a density: values under the FFT noise floor,
    which would poison far-tail ratio integrands, are zeroed, and a mass
    off 1 by more than 1e-6 is refused; meta["mass_drift"] records it."""
    vals[vals < 1e-13 * vals.max()] = 0.0
    mass = step * vals.sum()
    if abs(mass - 1.0) > 1e-6:
        raise AliasingError(f"mass {mass:.8g} on the target window; widen half_width")
    return GridDensity(origin, step, vals / mass, meta={"mass_drift": mass - 1.0})


def _resample_sum(acc: GridDensity, n: int, cfg: GridConfig,
                  sigma: float = 1.0) -> GridDensity:
    """Rescale x -> x*sigma*sqrt(n) by cubic resampling onto the requested grid."""
    scale = math.sqrt(n) * sigma
    step = 2.0 * cfg.half_width / cfg.points
    y = -cfg.half_width + step * (np.arange(cfg.points) + 0.5)
    return _floored_density(_spline_at(acc, y * scale) * scale, -cfg.half_width, step)


def normalized_sum_density(model: AnalyticModel, n: int,
                           grid_cfg: GridConfig | None = None) -> GridDensity:
    """Density p_n of Z_n = (X_1 + ... + X_n)/sqrt(n) on the target grid:
    the one-n case of `sum_densities`."""
    [p] = sum_densities(model, (n,), grid_cfg)
    return p


def entropy(p: GridDensity) -> float:
    """Differential entropy -int p log p with the 0 log 0 = 0 convention."""
    v = p.values
    pos = v > _ENTROPY_FLOOR
    return float(-p.step * np.sum(v[pos] * np.log(v[pos])))


def entropy_power(p: GridDensity) -> float:
    return math.exp(2.0 * entropy(p))


def _tilt(p: GridDensity, t: float):
    """p e^{tx} on p's grid and its largest value.  Where e^{tx} overflows,
    cells with p = 0 are 0, not 0 * inf = NaN; an overflowing positive
    cell raises TailDominanceError naming its edge, a NaN t ValueError."""
    if math.isnan(t):
        raise ValueError("tilt t must not be NaN")
    # t x, e^(tx) and p e^(tx) are formed in one buffer
    w = np.multiply(p.x, float(t))
    with np.errstate(over="ignore", invalid="ignore"):
        np.exp(w, out=w)
        w *= p.values
    peak = w.max()
    if not math.isfinite(peak):
        w = np.where(p.values > 0, w, 0.0)
        peak = w.max()
        if not math.isfinite(peak):
            raise TailDominanceError(f"e^(tx) p(x) overflows on the window for t = {t:g}",
                                     edge="right" if t > 0 else "left")
    return w, peak


def _gated_tilt(p: GridDensity, t: float):
    """`_tilt`'s p e^{tx} and the window edge where it fails the decay
    gate, an edge cell above 1e-12 of the peak: "left", "right", "both",
    or None when it passes."""
    w, peak = _tilt(p, t)
    gate = 1e-12 * peak
    if peak > 0 and max(w[0], w[-1]) > gate:
        left, right = bool(w[0] > gate), bool(w[-1] > gate)
        return w, "both" if left and right else "left" if left else "right"
    return w, None


def laplace_eval(p: GridDensity, t: float) -> float:
    """E e^{tX} by quadrature, with a decay check at the window edge; the
    TailDominanceError names the edge that failed it."""
    w, edge = _gated_tilt(p, t)
    if edge is not None:
        raise TailDominanceError(f"e^(tx) p(x) not decayed at the boundary for t = {t:g}",
                                 edge=edge)
    return float(p.step * w.sum())


def _laplace_walk(p: GridDensity, ts: np.ndarray) -> Iterator[float]:
    """`laplace_eval` at ts[1], ts[2], ... in turn, stopping before the
    first node that fails; ts must be evenly spaced and ts[0] must pass.

    Esscher tilts compose, e^{(t + d) x} p = e^{d x} e^{t x} p, so each
    node's p e^{tx} is the last one times e^{dx}, one multiply per cell,
    and every _WALK_ANCHOR nodes it is tilted afresh.  The decay gate
    first holds the two edge cells against the peak over every
    _WALK_PROBE-th cell, a lower bound of the peak, at _WALK_GATE; a
    node that does not pass so is tilted afresh and gated as
    `laplace_eval` gates it.  Every node thus passes or fails as under
    `laplace_eval`, and its value is within about 1e-13 of it.
    """
    if len(ts) < 2:
        return
    w, _ = _tilt(p, float(ts[0]))
    factor = np.exp(p.x * ((ts[-1] - ts[0]) / (len(ts) - 1)))
    for j in range(1, len(ts)):
        passed = False
        if j % _WALK_ANCHOR:
            w *= factor
            bound, total = w[::_WALK_PROBE].max(), w.sum()
            # the bound argument needs every cell finite and a bound above 0
            passed = 0 < bound and total < math.inf and max(w[0], w[-1]) <= _WALK_GATE * bound
        if not passed:
            try:
                w, edge = _gated_tilt(p, float(ts[j]))
            except TailDominanceError:
                return
            if edge is not None:
                return
            total = w.sum()
        yield float(p.step * total)


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
    # the union of the knots (0 and 1 are knots of both tables), as
    # np.union1d forms it; np.unique would import numpy.ma on first use
    knots = np.sort(np.concatenate((cp, cq)))
    knots = knots[np.concatenate(([True], knots[1:] != knots[:-1]))]
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
    """Density of sqrt(t) X + sqrt(1-t) Z for X distributed as p: the
    heat flow from the standard normal (t = 0) to p (t = 1).

    On the lattice sqrt(t) x_i + j sqrt(t) step it is exactly the sum
    sum_i step p_i phi_s(y - sqrt(t) x_i), s = sqrt(1-t): one convolution,
    resampled onto p's grid as p_n is.  A lattice over CHAIN_MAX_POINTS
    is refused before any transform runs.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if t == 1.0:
        return p
    if t == 0.0:
        return gaussian_grid(p)
    s1, s2 = math.sqrt(t), math.sqrt(1.0 - t)
    if s2 < 5.0 * p.step:
        raise ValueError("smoothing scale below grid resolution")
    h = s1 * p.step
    mk = int(math.ceil(min(40.0 * s2, 30.0) / h)) + 1
    size = p.n + 2 * mk
    if size > CHAIN_MAX_POINTS:
        raise ChainTooLongError(f"smoothing at t = {t:g} needs a lattice of {size} points "
                                f"(cap {CHAIN_MAX_POINTS}); use a larger t or a coarser grid")
    ker = np.exp(-0.5 * (h * np.arange(-mk, mk + 1) / s2) ** 2) / (s2 * math.sqrt(2 * math.pi))
    conv = _fftconvolve(p.values, ker) * p.step
    lattice = GridDensity(s1 * p.x[0] - (mk + 0.5) * h, h, np.maximum(conv, 0.0))
    out = _floored_density(_spline_at(lattice, p.x), p.origin, p.step)
    out.meta["t"] = t
    return out


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
