"""Constructors for the worked-example distributions.

Each constructor returns an AnalyticModel carrying a density (when one
exists), a closed-form log-Laplace transform where available, known
cumulants, and tail metadata used by the profile-based checkers.
All continuous members are standardized (mean 0, variance 1) except
power_density, which keeps its natural variance 2d+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintError
from .grids import AnalyticModel
from .subgauss import bernoulli_log_laplace, bernoulli_subgauss_constant

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    params: dict = field(default_factory=dict)


def _phi(x, var=1.0):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x / var) / np.sqrt(2.0 * math.pi * var)


def _ndtr(x):
    """Standard normal CDF; scipy.special loads on the first call, not
    when a model is built."""
    from scipy.special import ndtr
    return ndtr(x)


def _log_sinh_ratio(u):
    """log(sinh(u)/u), stable at 0 and for large |u|."""
    u = np.abs(np.asarray(u, dtype=float))
    out = np.empty_like(u)
    small = u < 0.5
    us = u[small] ** 2
    out[small] = us / 6.0 - us ** 2 / 180.0 + us ** 3 / 2835.0
    ub = u[~small]
    out[~small] = ub + np.log1p(-np.exp(-2.0 * ub)) - np.log(2.0 * ub)
    return out


def _log_cosh(u):
    u = np.abs(np.asarray(u, dtype=float))
    return u + np.log1p(np.exp(-2.0 * u)) - math.log(2.0)


def normal_model(sigma2: float = 1.0) -> AnalyticModel:
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    s = math.sqrt(sigma2)
    return AnalyticModel(
        name=f"normal(sigma2={sigma2:g})",
        density=lambda x: _phi(x, sigma2),
        cdf=lambda x: _ndtr(np.asarray(x, dtype=float) / s),
        log_laplace=lambda t: 0.5 * sigma2 * np.asarray(t, dtype=float) ** 2,
        char_fn=lambda t: np.exp(-0.5 * sigma2 * np.asarray(t) ** 2),
        cumulants=(0.0, sigma2),
        meta={"psi_tail": "constant" if sigma2 == 1.0 else "unknown"})


def uniform_model() -> AnalyticModel:
    """Uniform on [-sqrt(3), sqrt(3)]: mean 0, variance 1."""
    a = SQRT3

    def density(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= a, 1.0 / (2.0 * a), 0.0)

    def cdf(x):
        return np.clip((np.asarray(x, dtype=float) + a) / (2.0 * a), 0.0, 1.0)

    return AnalyticModel(
        name="uniform", density=density, cdf=cdf,
        log_laplace=lambda t: _log_sinh_ratio(a * np.asarray(t, dtype=float)),
        char_fn=lambda t: np.sinc(a * np.asarray(t) / math.pi),
        cumulants=(0.0, 1.0, 0.0, -6.0 / 5.0, 0.0, 48.0 / 7.0, 0.0, -432.0 / 5.0),
        support_radius=a,
        meta={"psi_tail": "decaying", "bound_M": 1.0 / (2.0 * a)})


def bernoulli_sym_model() -> AnalyticModel:
    """Symmetric Bernoulli on {-1, +1}; discrete, so profile-only."""
    return AnalyticModel(
        name="bernoulli_sym",
        log_laplace=lambda t: _log_cosh(np.asarray(t, dtype=float)),
        char_fn=lambda t: np.cos(np.asarray(t, dtype=float)),
        cumulants=(0.0, 1.0, 0.0, -2.0, 0.0, 16.0),
        support_radius=1.0,
        meta={"psi_tail": "decaying"})


def bernoulli_asym_model(p: float) -> AnalyticModel:
    """Standardized asymmetric Bernoulli: (xi - E xi)/sd; profile-only."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    q = 1.0 - p
    sd = math.sqrt(p * q)
    base = bernoulli_log_laplace(p)
    return AnalyticModel(
        name=f"bernoulli_asym(p={p:g})",
        log_laplace=lambda t: base(np.asarray(t, dtype=float) / sd),
        cumulants=(0.0, 1.0, (q - p) / sd, (1.0 - 6.0 * p * q) / (p * q)),
        meta={"psi_tail": "decaying"})


def bernoulli_sum_model(weights) -> AnalyticModel:
    """sum_k w_k xi_k with independent symmetric Bernoulli xi_k; profile-only."""
    w = np.asarray(list(weights), dtype=float)
    if w.size == 0:
        raise ValueError("need at least one weight")
    var = float(np.sum(w * w))
    return AnalyticModel(
        name=f"bernoulli_sum({w.size} weights)",
        log_laplace=lambda t: np.sum(_log_cosh(np.multiply.outer(
            np.asarray(t, dtype=float), w)), axis=-1),
        cumulants=(0.0, var, 0.0, -2.0 * float(np.sum(w ** 4))),
        support_radius=float(np.sum(np.abs(w))),
        meta={"psi_tail": "decaying"})


def gauss_scale_mixture_model(atoms=None, kappa=None, upper=1.0) -> AnalyticModel:
    """Mixture of N(0, s2) over a mixing law on s2.

    Either discrete atoms [(weight, s2), ...] or the parametric tail
    F(eps) = (eps/upper)^kappa on (0, upper), integrated by 64-point
    Gauss-Legendre on eight subintervals.
    """
    if atoms is not None:
        at = [(float(w), float(s2)) for w, s2 in atoms]
        total = sum(w for w, _ in at)
        at = [(w / total, s2) for w, s2 in at]
    elif kappa is not None:
        if kappa <= 0 or not 0.0 < upper < 2.0:
            raise ValueError("need kappa > 0 and upper in (0, 2)")
        from scipy.special import roots_legendre
        nodes, wts = roots_legendre(64)
        at = []
        for j in range(8):
            lo, hi = upper * j / 8.0, upper * (j + 1) / 8.0
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            for z, w in zip(nodes, wts):
                s2 = mid + half * z
                at.append((w * half * kappa * s2 ** (kappa - 1.0) / upper ** kappa, s2))
        total = sum(w for w, _ in at)
        at = [(w / total, s2) for w, s2 in at]
    else:
        raise ValueError("specify atoms or kappa")
    if any(s2 <= 0 or s2 >= 2.0 for _, s2 in at):
        raise ValueError("mixing support must lie in (0, 2)")
    v = sum(w * s2 for w, s2 in at)
    m = sum(w * s2 * s2 for w, s2 in at)
    ws = np.asarray([w for w, _ in at])
    s2s = np.asarray([s2 for _, s2 in at])

    def density(x):
        x = np.asarray(x, dtype=float)
        return np.sum(ws * _phi(x[..., None], s2s), axis=-1)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.sum(ws * _ndtr(x[..., None] / np.sqrt(s2s)), axis=-1)

    def log_laplace(t):
        t = np.asarray(t, dtype=float)
        expo = 0.5 * np.multiply.outer(t * t, s2s)
        peak = expo.max(axis=-1, keepdims=True)
        return np.squeeze(peak, -1) + np.log(np.sum(ws * np.exp(expo - peak), axis=-1))

    s2max = max(s2 for _, s2 in at)
    tail = "decaying" if s2max < 1.0 else ("growing" if s2max > 1.0 else "unknown")
    return AnalyticModel(
        name="gauss_scale_mixture",
        density=density, cdf=cdf, log_laplace=log_laplace,
        cumulants=(0.0, v, 0.0, 3.0 * (m - v * v)),
        meta={"psi_tail": tail, "fourth_mixing_moment": m})


def power_density_model(d: int = 1) -> AnalyticModel:
    """Density x^(2d) phi(x) / (2d-1)!!; variance 2d+1, strictly subgaussian."""
    if d not in (1, 2, 3):
        raise ValueError("d must be 1, 2, or 3")
    df = float(math.prod(range(2 * d - 1, 0, -2)))  # (2d-1)!!
    # E (Z+t)^(2d) as a polynomial in t
    poly = np.zeros(2 * d + 1)
    for j in range(d + 1):
        ez = math.prod(range(2 * j - 1, 0, -2)) if j else 1
        poly[2 * j] = math.comb(2 * d, 2 * j) * ez  # coefficient of t^(2d-2j)
    poly = poly[::-1]  # ascending powers of t

    def density(x):
        x = np.asarray(x, dtype=float)
        return x ** (2 * d) * _phi(x) / df

    def log_laplace(t):
        t = np.asarray(t, dtype=float)
        acc = np.zeros_like(t)
        for k, c in enumerate(poly):
            if c:
                acc = acc + c * t ** k
        return 0.5 * t * t + np.log(acc / df)

    cdf = None
    if d == 1:
        cdf = lambda x: _ndtr(np.asarray(x, dtype=float)) - np.asarray(x, dtype=float) * _phi(x)
    var = 2.0 * d + 1.0
    return AnalyticModel(
        name=f"power_density(d={d})",
        density=density, cdf=cdf, log_laplace=log_laplace,
        cumulants=(0.0, var, 0.0, -4.0 * d * (2.0 * d + 1.0)),
        meta={"psi_tail": "decaying"})


def bernoulli_gauss_construct(p: float, beta: float) -> AnalyticModel:
    """X = a xi + b Z with the Bernoulli xi (value q w.p. p, -p w.p. q).

    a^2 = (beta-1)/(sigma^2 - pq), b^2 = (sigma^2 - beta pq)/(sigma^2 - pq)
    with sigma^2 the Bernoulli subgaussian constant, so that E X = 0,
    E X^2 = 1 and E e^{tX} <= e^{beta t^2/2} with equality exactly at
    t* = t0/a, t0 = -2 (log p - log q).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if beta <= 1.0:
        raise ValueError("beta must exceed 1")
    q = 1.0 - p
    sg = bernoulli_subgauss_constant(p)
    if not sg > beta * p * q:
        raise ConstraintError(
            f"infeasible: subgaussian constant {sg:.6g} must exceed beta*p*q = "
            f"{beta * p * q:.6g}")
    a = math.sqrt((beta - 1.0) / (sg - p * q))
    b2 = (sg - beta * p * q) / (sg - p * q)
    b = math.sqrt(b2)
    base = bernoulli_log_laplace(p)
    t0 = -2.0 * (math.log(p) - math.log(q))

    def density(x):
        x = np.asarray(x, dtype=float)
        return p * _phi(x - a * q, b2) + q * _phi(x + a * p, b2)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return p * _ndtr((x - a * q) / b) + q * _ndtr((x + a * p) / b)

    g3 = a ** 3 * p * q * (q - p)
    g4 = a ** 4 * p * q * (1.0 - 6.0 * p * q)
    return AnalyticModel(
        name=f"bernoulli_gauss(p={p:g},beta={beta:g})",
        density=density, cdf=cdf,
        log_laplace=lambda t: base(a * np.asarray(t, dtype=float)) + 0.5 * b2 * np.asarray(t, dtype=float) ** 2,
        cumulants=(0.0, 1.0, g3, g4),
        meta={"psi_tail": "decaying", "a": a, "b": b, "beta": beta,
              "t0": t0, "t_star": t0 / a})


def _trig_core(name, a0, a, b, c=None):
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    scale = abs(a0) + sum(map(abs, a)) + sum(map(abs, b))
    if scale == 0.0:
        raise ValueError("empty trigonometric component")
    if abs(a0 + sum(a)) > 1e-12 * scale:
        raise ConstraintError("moment constraints violated: P(0) != 0")
    if abs(sum(k * bk for k, bk in enumerate(b, 1))) > 1e-12 * scale:
        raise ConstraintError("moment constraints violated: sum k b_k != 0")
    if abs(sum(k * k * ak for k, ak in enumerate(a, 1))) > 1e-12 * scale:
        raise ConstraintError("moment constraints violated: sum k^2 a_k != 0")

    def p_trig(t, weighted=False):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, float(a0))
        for k, ak in enumerate(a, 1):
            if ak:
                w = math.exp(0.5 * k * k) if weighted else 1.0
                out = out + w * ak * np.cos(k * t)
        for k, bk in enumerate(b, 1):
            if bk:
                w = math.exp(0.5 * k * k) if weighted else 1.0
                out = out + w * bk * np.sin(k * t)
        return out

    # c_max = 1/max Q with Q the e^{k^2/2}-weighted component in x space
    ts = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    qv = p_trig(ts, weighted=True)
    i = int(np.argmax(qv))
    span = 2.0 * math.pi / 4096
    from scipy.optimize import minimize_scalar
    res = minimize_scalar(lambda x: -float(p_trig(x, weighted=True)),
                          bounds=(ts[i] - span, ts[i] + span), method="bounded",
                          options={"xatol": 1e-12})
    q_max = float(-res.fun)
    if q_max <= 0:
        raise ValueError("weighted component never positive; no density constraint")
    c_max = 1.0 / q_max
    if c is None:
        c = 0.5 * c_max
    if c <= 0 or c > c_max * (1.0 + 1e-12):
        raise ConstraintError(
            f"density not nonnegative: c = {c:g} exceeds c_max = {c_max:.6g}")

    active = [k for k in range(1, max(len(a), len(b)) + 1)
              if (k <= len(a) and a[k - 1]) or (k <= len(b) and b[k - 1])]
    period = 2.0 * math.pi / math.gcd(*active) if active else None

    def density(x):
        x = np.asarray(x, dtype=float)
        return np.maximum(1.0 - c * p_trig(x, weighted=True), 0.0) * _phi(x)

    def log_laplace(t):
        return 0.5 * np.asarray(t, dtype=float) ** 2 + np.log1p(-c * p_trig(t))

    g3 = c * sum(k ** 3 * bk for k, bk in enumerate(b, 1))
    g4 = -c * sum(k ** 4 * ak for k, ak in enumerate(a, 1))
    return AnalyticModel(
        name=name, density=density, log_laplace=log_laplace,
        cumulants=(0.0, 1.0, g3, g4),
        meta={"psi_tail": "periodic", "period": period,
              "trig": (float(a0), tuple(a), tuple(b), float(c)),
              "c_max": c_max})


def trig_periodic_model(a, b=(), a0=None, c=None) -> AnalyticModel:
    """Density (1 - c Q(x)) phi(x) whose psi has the periodic component
    psi(t) = 1 - c P(t), P(t) = a0 + sum a_k cos kt + b_k sin kt."""
    if a0 is None:
        a0 = -sum(float(v) for v in a)
    return _trig_core("trig_periodic", float(a0), a, b, c)


def sin_power_coefficients(m: int):
    """Cosine coefficients of sin^m t for even m: returns (a0, a) with
    sin^m t = a0 + sum_j a[2j-1] cos(2jt) (odd-index entries are zero)."""
    if m < 2 or m % 2:
        raise ValueError("m must be even and at least 2")
    a0 = math.comb(m, m // 2) / 2.0 ** m
    a = [0.0] * m
    for j in range(1, m // 2 + 1):
        a[2 * j - 1] = (-1.0) ** j * math.comb(m, m // 2 - j) / 2.0 ** (m - 1)
    return a0, a


def sin_power_model(m: int = 4, c=None) -> AnalyticModel:
    """psi(t) = 1 - c sin^m t, period pi for even m."""
    a0, a = sin_power_coefficients(m)
    model = _trig_core(f"sin_power(m={m})", a0, a, [], c)
    return model


def counterexample_30_4_model(c=None) -> AnalyticModel:
    """Periodic component P(t) = (1 - 4 sin^2 t)^2 sin^4 t = Q(t)^2.

    Strictly subgaussian, but P has interior zeros (t = pi/6 mod pi/...) with
    P'' = 2 Q'^2 = 3/2 != 0, so the CLT in D_inf fails.
    """
    parts = [(1.0, sin_power_coefficients(4)),
             (-8.0, sin_power_coefficients(6)),
             (16.0, sin_power_coefficients(8))]
    a0 = sum(w * p0 for w, (p0, _) in parts)
    a = [0.0] * 8
    for w, (_, coeffs) in parts:
        for k, v in enumerate(coeffs, 1):
            a[k - 1] += w * v
    return _trig_core("counterexample_30_4", a0, a, [], c)


_CONSTRUCTORS = {
    "normal": normal_model,
    "uniform": uniform_model,
    "bernoulli_sym": bernoulli_sym_model,
    "bernoulli_asym": bernoulli_asym_model,
    "bernoulli_sum": bernoulli_sum_model,
    "gauss_scale_mixture": gauss_scale_mixture_model,
    "power_density": power_density_model,
    "bernoulli_gauss": bernoulli_gauss_construct,
    "trig_periodic": trig_periodic_model,
    "sin_power": sin_power_model,
    "counterexample_30_4": counterexample_30_4_model,
}

MODEL_DOCS = {
    "normal": "N(0, sigma2); params: sigma2 (default 1)",
    "uniform": "uniform on [-sqrt3, sqrt3], variance 1; no params",
    "bernoulli_sym": "symmetric Bernoulli on {-1, +1}; profile-only; no params",
    "bernoulli_asym": "standardized asymmetric Bernoulli; params: p",
    "bernoulli_sum": "sum of weighted symmetric Bernoullis; params: weights",
    "gauss_scale_mixture": "N(0, s2) mixed over s2; params: atoms [[w, s2], ...] "
                           "or kappa/upper for the parametric tail",
    "power_density": "x^(2d) phi(x)/(2d-1)!!, d in {1,2,3}; params: d",
    "bernoulli_gauss": "a*xi + b*Z tangent to e^{beta t^2/2}; params: p, beta",
    "trig_periodic": "(1 - c Q(x)) phi(x) with trig component; params: a, b, a0, c",
    "sin_power": "psi = 1 - c sin^m t; params: m (even), c (default c_max/2)",
    "counterexample_30_4": "psi = 1 - c (1-4 sin^2 t)^2 sin^4 t; params: c",
}


def make_model(spec) -> AnalyticModel:
    """Build a model from a ModelSpec or a {"kind", "params"} mapping."""
    if isinstance(spec, dict):
        spec = ModelSpec(spec.get("kind", ""), spec.get("params", {}) or {})
    if spec.kind not in _CONSTRUCTORS:
        raise ValueError(f"unknown model kind {spec.kind!r}; "
                         f"available: {', '.join(sorted(_CONSTRUCTORS))}")
    return _CONSTRUCTORS[spec.kind](**spec.params)


def mixture_chi2(pi_spec) -> float:
    """chi^2(X, Z) for the Gaussian scale mixture X with mixing law pi:
    1 + chi^2 = E (xi + eta - xi eta)^{-1/2} over independent xi, eta ~ pi."""
    if isinstance(pi_spec, dict) and "atoms" not in pi_spec:
        raise ValueError("mixing law must be given as atoms [[w, s2], ...]")
    atoms = pi_spec["atoms"] if isinstance(pi_spec, dict) else pi_spec
    at = [(float(w), float(s2)) for w, s2 in atoms]
    total = sum(w for w, _ in at)
    if any(not 0.0 < s2 < 2.0 for _, s2 in at):
        raise ValueError("mixing support must lie in (0, 2)")
    acc = 0.0
    for wi, si in at:
        for wj, sj in at:
            den = si + sj - si * sj
            if den <= 0.0:
                return math.inf
            acc += wi * wj / math.sqrt(den)
    return acc / (total * total) - 1.0


def mixture_finiteness(kappa: float, delta_gap: float, n: int) -> bool:
    """Is chi^2(Z_n, Z) finite for a mixing law with F(eps) ~ eps^kappa
    near 0 and support in (0, 2 - delta_gap)?  True iff n > 1/(4 kappa).

    Cross-checked against the local exponent of the small-eps integrand
    eps^(2 n kappa - 3/2), which must exceed -1 for convergence.
    """
    if kappa <= 0 or delta_gap <= 0:
        raise ValueError("kappa and delta_gap must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    rule = n > 1.0 / (4.0 * kappa)
    expo = 2.0 * n * kappa - 1.5
    g = lambda e: expo * math.log(e)
    slope = (g(1e-8) - g(1e-6)) / (math.log(1e-8) - math.log(1e-6))
    if (slope > -1.0) != rule:
        raise RuntimeError("numeric convergence test disagrees with the rule")
    return rule
