"""Constructors for the worked-example distributions.

Each constructor returns an AnalyticModel carrying a density (when one
exists), a closed-form log-Laplace transform where available, known
cumulants, and tail metadata used by the profile-based checkers.
All continuous members are standardized (mean 0, variance 1) except
power_density, which keeps its natural variance 2d+1.  The normal, the
Gaussian scale mixtures and bernoulli_gauss take their density, CDF and
log-Laplace from one finite-normal-mixture core, `_normal_mixture`.
"""

from __future__ import annotations

import inspect
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError
from .zoo import MODEL_DOCS, AnalyticModel  # MODEL_DOCS re-exported beside the constructors

SQRT3 = math.sqrt(3.0)


def _phi(x, var=1.0):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x / var) / np.sqrt(2.0 * math.pi * var)


# Cephes ndtr.c (scipy.special.ndtr): erfc(z) = e^{-z^2} P(z)/Q(z) for
# 1 <= z < 8 and e^{-z^2} R(z)/S(z) beyond, erf(x) = x T(x^2)/U(x^2) for
# |x| <= 1; highest power first.  np.polyval rounds as Cephes polevl
# does (y = y x + c from the top down), and Cephes p1evl's implied leading
# 1 is stored, so the values equal Cephes' bit for bit
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_MAXLOG = 7.09782712893383996843E2  # log of the largest double
_SQRT1_2 = math.sqrt(0.5)


def _erf_inner(x):
    """Cephes erf for |x| <= 1."""
    return x * np.polyval(_ERF_T, x * x) / np.polyval(_ERF_U, x * x)


def _erfc_outer(z):
    """Cephes erfc for z >= 1, 0 once e^{-z^2} would underflow.  The
    exponential is libm's, which numpy's SIMD exp does not always match."""
    with np.errstate(over="ignore"):
        e = -z * z
    live = e >= -_MAXLOG
    if not live.all():
        z, e = z[live], e[live]
    y = np.fromiter(map(math.exp, memoryview(e)), float, count=len(e))
    far = z >= 8.0
    y *= np.where(far, np.polyval(_ERFC_R, z), np.polyval(_ERFC_P, z))
    y /= np.where(far, np.polyval(_ERFC_S, z), np.polyval(_ERFC_Q, z))
    if len(y) == len(live):
        return y
    out = np.zeros(len(live))
    out[live] = y
    return out


def _ndtr(a):
    """Standard normal CDF: Cephes ndtr, branch for branch, so that the
    values equal scipy.special.ndtr's bit for bit."""
    a = np.asarray(a, dtype=float)
    x = (a * _SQRT1_2).ravel()
    z = np.abs(x)
    out = np.full_like(x, np.nan)
    small = z < _SQRT1_2
    out[small] = 0.5 + 0.5 * _erf_inner(x[small])
    mid = ~small & (z < 1.0)
    out[mid] = 0.5 * (1.0 - _erf_inner(z[mid]))
    # for z >= 6, 0.5 erfc(z) < 1.1e-17 < 2^-54, so 1 - 0.5 erfc(z) rounds
    # to 1: the upper tail needs no exponential
    one = (z >= 6.0) & (x > 0.0)
    big = (z >= 1.0) & ~one
    out[big] = 0.5 * _erfc_outer(z[big])
    upper = ~small & ~one & (x > 0.0)
    out[upper] = 1.0 - out[upper]
    out[one] = 1.0
    return out.reshape(a.shape)[()]


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


def _normal_mixture(name, atoms, **fields) -> AnalyticModel:
    """The AnalyticModel of sum_i w_i N(mu_i, s2_i) over atoms (w, mu, s2).

    Density and CDF round as the closed forms written out term by term do
    (x - (-m) is x + m, a two-term sum is w1 A + w2 B, np.sqrt(s2) is
    math.sqrt's), so the grids the convolution chains start from keep
    their bits.  K is one logsumexp over the atoms; where t * t
    overflows, or t is infinite, every s2 > 0 makes it +inf.
    """
    ws, mus, s2s = (np.asarray(col, dtype=float) for col in zip(*atoms))
    sds = np.sqrt(s2s)

    def density(x):
        x = np.asarray(x, dtype=float)
        return np.sum(ws * _phi(x[..., None] - mus, s2s), axis=-1)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.sum(ws * _ndtr((x[..., None] - mus) / sds), axis=-1)

    def log_laplace(t):
        t = np.asarray(t, dtype=float)
        # an infinite peak makes expo - peak NaN, and an infinite t makes
        # t * 0 NaN: K is NaN there only, and there it is +inf
        with np.errstate(over="ignore", invalid="ignore"):
            expo = np.multiply.outer(t, mus) + 0.5 * np.multiply.outer(t * t, s2s)
            peak = expo.max(axis=-1, keepdims=True)
            k = np.squeeze(peak, -1) + np.log(np.sum(ws * np.exp(expo - peak), axis=-1))
        return np.where(np.isnan(k) & ~np.isnan(t), np.inf, k)[()]

    return AnalyticModel(name, density=density, cdf=cdf, log_laplace=log_laplace, **fields)


def normal_model(sigma2: float = 1.0) -> AnalyticModel:
    if not 0.0 < sigma2 < math.inf:
        raise ValueError("sigma2 must be positive and finite")
    return _normal_mixture(f"normal(sigma2={sigma2:g})", [(1.0, 0.0, sigma2)],
                           cumulants=(0.0, sigma2),
                           meta={"psi_tail": "constant"})


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
        cumulants=(0.0, 1.0, 0.0, -6.0 / 5.0, 0.0, 48.0 / 7.0, 0.0, -432.0 / 5.0),
        support_radius=a,
        meta={"psi_tail": "decaying", "bound_M": 1.0 / (2.0 * a)})


def bernoulli_sym_model() -> AnalyticModel:
    """Symmetric Bernoulli on {-1, +1}; discrete, so profile-only."""
    return AnalyticModel(
        name="bernoulli_sym",
        log_laplace=lambda t: _log_cosh(np.asarray(t, dtype=float)),
        cumulants=(0.0, 1.0, 0.0, -2.0, 0.0, 16.0),
        support_radius=1.0,
        meta={"psi_tail": "decaying"})


def bernoulli_subgauss_constant(p: float) -> float:
    """sigma^2(p) = (p - q) / (2 (log p - log q)), q = 1 - p; 1/4 at p = 1/2.

    Near p = 1/2 the ratio is evaluated by the series
    1 / (4 (1 + d^2/3 + d^4/5 + d^6/7)), d = p - q, to avoid 0/0.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    d = 2.0 * p - 1.0
    if abs(d) < 1e-4:
        return 0.25 / (1.0 + d * d / 3.0 + d ** 4 / 5.0 + d ** 6 / 7.0)
    return d / (4.0 * math.atanh(d))


def bernoulli_log_laplace(p: float):
    """K(t) of the centered Bernoulli: +q with prob p, -p with prob q."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    q = 1.0 - p

    def K(t):
        t = np.asarray(t, dtype=float)
        # log(p e^{qt} + q e^{-pt}) computed stably via the larger exponent
        hi = np.maximum(q * t, -p * t)
        return hi + np.log(p * np.exp(q * t - hi) + q * np.exp(-p * t - hi))

    return K


def bernoulli_asym_model(p: float) -> AnalyticModel:
    """Standardized asymmetric Bernoulli: (xi - E xi)/sd; profile-only."""
    base = bernoulli_log_laplace(p)
    q = 1.0 - p
    sd = math.sqrt(p * q)
    return AnalyticModel(
        name=f"bernoulli_asym(p={p:g})",
        log_laplace=lambda t: base(np.asarray(t, dtype=float) / sd),
        cumulants=(0.0, 1.0, (q - p) / sd, (1.0 - 6.0 * p * q) / (p * q)),
        meta={"psi_tail": "decaying"})


def bernoulli_sum_model(weights) -> AnalyticModel:
    """sum_k w_k xi_k with independent symmetric Bernoulli xi_k; profile-only."""
    w = np.asarray(list(weights), dtype=float)
    if w.size == 0 or not np.isfinite(w).all():
        raise ValueError("need at least one weight, all finite")
    var = float(np.sum(w * w))
    return AnalyticModel(
        name=f"bernoulli_sum({w.size} weights)",
        log_laplace=lambda t: np.sum(_log_cosh(np.multiply.outer(
            np.asarray(t, dtype=float), w)), axis=-1),
        cumulants=(0.0, var, 0.0, -2.0 * float(np.sum(w ** 4))),
        support_radius=float(np.sum(np.abs(w))),
        meta={"psi_tail": "decaying"})


def _mixing_atoms(atoms) -> list:
    """Atoms [(w, s2), ...] of a mixing law on s2, weights divided by
    their sum: at least one atom, positive weights with a finite sum,
    and every s2 in (0, 2)."""
    try:
        at = [(float(w), float(s2)) for w, s2 in atoms]
    except (TypeError, ValueError):
        raise ValueError("mixing atoms must be pairs [weight, s2]") from None
    total = sum(w for w, _ in at)
    if not (all(w > 0.0 for w, _ in at) and 0.0 < total < math.inf):
        raise ValueError("need mixing atoms with positive weights of finite sum")
    if any(not 0.0 < s2 < 2.0 for _, s2 in at):
        raise ValueError("mixing support must lie in (0, 2)")
    return [(w / total, s2) for w, s2 in at]


def gauss_scale_mixture_model(atoms=None, kappa=None, upper=1.0) -> AnalyticModel:
    """Mixture of N(0, s2) over a mixing law on s2.

    Either discrete atoms [(weight, s2), ...] or the parametric tail
    F(eps) = (eps/upper)^kappa on (0, upper), integrated by 64-point
    Gauss-Legendre on eight subintervals.
    """
    if atoms is not None:
        at = _mixing_atoms(atoms)
    elif kappa is not None:
        if not (kappa > 0 and 0.0 < upper < 2.0):
            raise ValueError("need kappa > 0 and upper in (0, 2)")
        from numpy.polynomial.legendre import leggauss
        nodes, wts = leggauss(64)
        at = []
        for j in range(8):
            lo, hi = upper * j / 8.0, upper * (j + 1) / 8.0
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            for z, w in zip(nodes, wts):
                s2 = mid + half * z
                at.append((w * half * kappa * s2 ** (kappa - 1.0) / upper ** kappa, s2))
        at = _mixing_atoms(at)
    else:
        raise ValueError("specify atoms or kappa")
    v = sum(w * s2 for w, s2 in at)
    m = sum(w * s2 * s2 for w, s2 in at)
    s2max = max(s2 for _, s2 in at)
    tail = "decaying" if s2max < 1.0 else ("growing" if s2max > 1.0 else "unknown")
    return _normal_mixture(
        "gauss_scale_mixture", [(w, 0.0, s2) for w, s2 in at],
        cumulants=(0.0, v, 0.0, 3.0 * (m - v * v)),
        meta={"psi_tail": tail, "fourth_mixing_moment": m})


def power_density_model(d: int = 1) -> AnalyticModel:
    """Density x^(2d) phi(x) / (2d-1)!!; variance 2d+1, strictly subgaussian."""
    if not isinstance(d, int) or d not in (1, 2, 3):
        raise ValueError("d must be the integer 1, 2, or 3")
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
    sg = bernoulli_subgauss_constant(p)
    if beta <= 1.0:
        raise ValueError("beta must exceed 1")
    q = 1.0 - p
    if not sg > beta * p * q:
        raise ConstraintError(
            f"infeasible: subgaussian constant {sg:.6g} must exceed beta*p*q = "
            f"{beta * p * q:.6g}")
    a = math.sqrt((beta - 1.0) / (sg - p * q))
    b2 = (sg - beta * p * q) / (sg - p * q)
    t0 = -2.0 * (math.log(p) - math.log(q))
    g3 = a ** 3 * p * q * (q - p)
    g4 = a ** 4 * p * q * (1.0 - 6.0 * p * q)
    return _normal_mixture(
        f"bernoulli_gauss(p={p:g},beta={beta:g})", [(p, a * q, b2), (q, -(a * p), b2)],
        cumulants=(0.0, 1.0, g3, g4),
        meta={"psi_tail": "decaying", "a": a, "b": math.sqrt(b2), "beta": beta,
              "t0": t0, "t_star": t0 / a})


@dataclass(frozen=True)
class TrigPolynomial:
    """P(t) = a0 + sum_k a_k cos kt + b_k sin kt, k = 1, 2, ..."""
    a0: float
    a: tuple
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "a0", float(self.a0))
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))

    @property
    def scale(self) -> float:
        return abs(self.a0) + sum(map(abs, self.a)) + sum(map(abs, self.b))

    @property
    def period(self):
        """2 pi / gcd of the k with a nonzero a_k or b_k; None for a constant."""
        active = {k for c in (self.a, self.b) for k, ck in enumerate(c, 1) if ck}
        return 2.0 * math.pi / math.gcd(*active) if active else None

    def check_moments(self) -> None:
        """P(0) = P'(0) = P''(0) = 0, the constraints that make
        psi = 1 - c P a valid perturbation of the normal law."""
        scale = self.scale
        if not 0.0 < scale < math.inf:
            raise ValueError("the trigonometric component needs finite coefficients, not all 0")
        if abs(self.a0 + sum(self.a)) > 1e-12 * scale:
            raise ConstraintError("moment constraints violated: P(0) != 0")
        if abs(sum(k * bk for k, bk in enumerate(self.b, 1))) > 1e-12 * scale:
            raise ConstraintError("moment constraints violated: sum k b_k != 0")
        if abs(sum(k * k * ak for k, ak in enumerate(self.a, 1))) > 1e-12 * scale:
            raise ConstraintError("moment constraints violated: sum k^2 a_k != 0")

    def __call__(self, t, deriv: int = 0):
        """P(t), or P''(t) for deriv = 2; zero coefficients are skipped."""
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, self.a0 if deriv == 0 else 0.0)
        for coeffs, wave in ((self.a, np.cos), (self.b, np.sin)):
            for k, ck in enumerate(coeffs, 1):
                if ck:
                    out = out + (ck if deriv == 0 else -(ck * k * k)) * wave(k * t)
        return out

    def weighted(self) -> "TrigPolynomial":
        """Q with a_k, b_k scaled by e^{k^2/2}: (1 - c Q(x)) phi(x) is the
        density whose psi has the periodic component P."""
        return TrigPolynomial(
            self.a0, [math.exp(0.5 * k * k) * ak for k, ak in enumerate(self.a, 1)],
            [math.exp(0.5 * k * k) * bk for k, bk in enumerate(self.b, 1)])


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_BRENT_MAXITER = 500  # evaluations of f, scipy's default


def minimize_bounded(f, lo: float, hi: float, xatol: float):
    """Minimize the scalar function f on [lo, hi] by Brent's bounded
    search (Brent 1973, ch. 5): golden-section steps and parabolic
    interpolation through the three best points.  Returns (x, f(x)).

    The arithmetic is scipy.optimize.minimize_scalar(method="bounded")'s
    (`_minimize_scalar_bounded`), np.sign included, so x and f(x) are its
    to the bit.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r, e = e, rat
            if np.abs(p) < np.abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _BRENT_MAXITER:
            break
    return xf, fx


def _trig_core(name, a0, a, b, c=None):
    poly = TrigPolynomial(a0, a, b)
    poly.check_moments()
    weighted = poly.weighted()
    # c_max = 1/max Q with Q the e^{k^2/2}-weighted component in x space
    ts = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    qv = weighted(ts)
    i = int(np.argmax(qv))
    span = 2.0 * math.pi / 4096
    _, neg_max = minimize_bounded(lambda x: -float(weighted(x)),
                                  ts[i] - span, ts[i] + span, xatol=1e-12)
    q_max = float(-neg_max)
    if q_max <= 0:
        raise ValueError("weighted component never positive; no density constraint")
    c_max = 1.0 / q_max
    if c is None:
        c = 0.5 * c_max
    if not c > 0:
        raise ValueError(f"c must be positive, not {c:g}")
    if c > c_max * (1.0 + 1e-12):
        raise ConstraintError(
            f"density not nonnegative: c = {c:g} exceeds c_max = {c_max:.6g}")

    def density(x):
        return np.maximum(1.0 - c * weighted(x), 0.0) * _phi(x)

    def log_laplace(t):
        return 0.5 * np.asarray(t, dtype=float) ** 2 + np.log1p(-c * poly(t))

    g3 = c * sum(k ** 3 * bk for k, bk in enumerate(poly.b, 1))
    g4 = -c * sum(k ** 4 * ak for k, ak in enumerate(poly.a, 1))
    return AnalyticModel(
        name=name, density=density, log_laplace=log_laplace,
        cumulants=(0.0, 1.0, g3, g4),
        meta={"psi_tail": "periodic", "period": poly.period,
              "trig": (poly.a0, poly.a, poly.b, float(c)),
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
    if not isinstance(m, int) or m < 2 or m % 2:
        raise ValueError("m must be an even integer, at least 2")
    a0 = math.comb(m, m // 2) / 2.0 ** m
    a = [0.0] * m
    for j in range(1, m // 2 + 1):
        a[2 * j - 1] = (-1.0) ** j * math.comb(m, m // 2 - j) / 2.0 ** (m - 1)
    return a0, a


def sin_power_model(m: int = 4, c=None) -> AnalyticModel:
    """psi(t) = 1 - c sin^m t, period pi for even m."""
    a0, a = sin_power_coefficients(m)
    return _trig_core(f"sin_power(m={m})", a0, a, [], c)


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


def _refused(value) -> bool:
    """Whether a parameter value holds a string, a boolean or a mapping
    anywhere: no constructor takes one."""
    if isinstance(value, (str, bool, Mapping)):
        return True
    return isinstance(value, (list, tuple)) and any(map(_refused, value))


def make_model(spec) -> AnalyticModel:
    """Build a model from a kind name or a {"kind", "params"} mapping.

    A parameter given as None (JSON null) takes its default; one that
    holds a string, a boolean or a mapping anywhere is refused, and so
    is one of a shape its constructor cannot take."""
    if isinstance(spec, str):
        spec = {"kind": spec}
    elif not isinstance(spec, Mapping):
        raise ValueError("a model spec is a kind name or a {'kind', 'params'} mapping, "
                         f"not {type(spec).__name__}")
    kind, values = spec.get("kind", ""), spec.get("params", {}) or {}
    if not isinstance(kind, str) or kind not in _CONSTRUCTORS:
        raise ValueError(f"unknown model kind {kind!r}; "
                         f"available: {', '.join(sorted(_CONSTRUCTORS))}")
    build = _CONSTRUCTORS[kind]
    if not isinstance(values, Mapping):
        raise ValueError(f"model {kind!r}: params must be a mapping of names to values")
    params = inspect.signature(build).parameters
    for name in values:
        if name not in params:
            raise ValueError(f"model {kind!r} has no parameter {name!r}; "
                             f"its parameters: {', '.join(params) or 'none'}")
    given = {name: value for name, value in values.items() if value is not None}
    for name, param in params.items():
        if param.default is param.empty and name not in given:
            raise ValueError(f"model {kind!r} needs parameter {name!r}")
    for name, value in given.items():
        if _refused(value):
            raise ValueError(f"model {kind!r}: parameter {name!r} must be numbers, "
                             "not strings, booleans or mappings")
    try:
        return build(**given)
    except TypeError as exc:  # a list where a number goes, or the reverse
        raise ValueError(f"model {kind!r}: a parameter has the wrong shape ({exc})") from None


def mixture_chi2(pi_spec) -> float:
    """chi^2(X, Z) for the Gaussian scale mixture X with mixing law pi:
    1 + chi^2 = E (xi + eta - xi eta)^{-1/2} over independent xi, eta ~ pi."""
    if isinstance(pi_spec, dict) and "atoms" not in pi_spec:
        raise ValueError("mixing law must be given as atoms [[w, s2], ...]")
    at = _mixing_atoms(pi_spec["atoms"] if isinstance(pi_spec, dict) else pi_spec)
    # si + sj - si sj = 1 - (1 - si)(1 - sj) > 0 on (0, 2)
    return sum(wi * wj / math.sqrt(si + sj - si * sj) for wi, si in at for wj, sj in at) - 1.0
