"""Log-Laplace profiles and the subgaussianity / CLT-in-D_inf checkers.

The profile of a model collects K(t) = log E e^{tX} with two derivatives,
the gap A(t) = sigma^2 t^2/2 - K(t) and psi(t) = e^{-A(t)}.  For
standardized models (sigma^2 = 1) this is the usual t^2/2 - K(t); using
the model variance keeps the margins meaningful for unstandardized zoo
members.

Strict subgaussianity asks A >= 0 everywhere; the separation property
asks sup_{|t| >= t0} psi(t) < 1 for every t0 > 0; the CLT-in-D_inf
conditions ask that A'' vanishes on the zero set of A, including along
sequences escaping to infinity.  The last part is decidable only when
the tail behavior of psi is known in closed form (decaying or periodic);
numeric-only profiles yield an inconclusive verdict.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConstraintError, TailDominanceError
from .grids import AnalyticModel, GridConfig, GridDensity, discretize, laplace_eval
from .reports import FAILS, HOLDS, INCONCLUSIVE, CheckReport

ZERO_TOL = 1e-8          # A(t) <= ZERO_TOL*(1+t^2) marks the approximate zero set
DERIV_TOL = 1e-4         # |A''| allowed on the zero set
MARGIN_BAND = 1e-9       # tolerance band for strict subgaussianity margins
_FD_H = 0.01


@dataclass(frozen=True)
class LogLaplaceProfile:
    name: str
    K: Callable
    K1: Callable
    K2: Callable
    sigma2: float
    t_min: float
    t_max: float
    closed_form: bool
    tail: str = "unknown"            # decaying | periodic | constant | growing | unknown
    period: Optional[float] = None
    trig: Optional[tuple] = None     # (a0, a, b, c) of the periodic component
    cumulants: Optional[tuple] = None

    def A(self, t):
        t = np.asarray(t, dtype=float)
        return 0.5 * self.sigma2 * t * t - self.K(t)

    def A2(self, t):
        return self.sigma2 - self.K2(t)

    def psi(self, t):
        return np.exp(-self.A(t))


def _fd_first(K, t, h=_FD_H):
    return (K(t + h) - K(t - h)) / (2.0 * h)


def _fd_second(K, t, h=_FD_H):
    return (-K(t + 2 * h) + 16 * K(t + h) - 30 * K(t)
            + 16 * K(t - h) - K(t - 2 * h)) / (12.0 * h * h)


def profile(model: AnalyticModel, t_range=(-40.0, 40.0),
            samples: int = 2001) -> LogLaplaceProfile:
    """Build the log-Laplace profile of a model.

    Closed-form path when the model carries log_laplace; otherwise K is
    tabulated from the grid density on the subrange of t_range where the
    tilted integrand still decays inside the window, and interpolated by
    a cubic spline (tail classification then stays "unknown").
    """
    lo, hi = float(t_range[0]), float(t_range[1])
    if lo >= hi:
        raise ValueError("empty t range")
    if model.log_laplace is not None:
        K = model.log_laplace
        sigma2 = model.variance
        if sigma2 is None:
            sigma2 = float(_fd_second(K, 0.0))
        return LogLaplaceProfile(
            name=model.name, K=K,
            K1=lambda t: _fd_first(K, np.asarray(t, dtype=float)),
            K2=lambda t: _fd_second(K, np.asarray(t, dtype=float)),
            sigma2=float(sigma2), t_min=lo, t_max=hi, closed_form=True,
            tail=model.meta.get("psi_tail", "unknown"),
            period=model.meta.get("period"),
            trig=model.meta.get("trig"),
            cumulants=model.cumulants)
    p = discretize(model, GridConfig().half_width, GridConfig().points)
    ts, ks = [], []
    for t in np.linspace(lo, hi, samples):
        try:
            ks.append(math.log(laplace_eval(p, float(t))))
            ts.append(float(t))
        except TailDominanceError:
            continue
    if len(ts) < 10:
        raise ValueError(f"Laplace transform of {model.name!r} not evaluable on range")
    from scipy.interpolate import CubicSpline
    ts = np.asarray(ts)
    ks = np.asarray(ks)
    spline = CubicSpline(ts, ks)
    sigma2 = model.variance
    if sigma2 is None:
        sigma2 = float(spline.derivative(2)(0.0))
    return LogLaplaceProfile(
        name=model.name, K=spline, K1=spline.derivative(1),
        K2=spline.derivative(2), sigma2=float(sigma2),
        t_min=float(ts[0]), t_max=float(ts[-1]), closed_form=False,
        cumulants=model.cumulants)


def _third_fourth_at_zero(K, h=0.05):
    k3 = (K(2 * h) - 2 * K(h) + 2 * K(-h) - K(-2 * h)) / (2 * h ** 3)
    k4 = (K(2 * h) - 4 * K(h) + 6 * K(0.0) - 4 * K(-h) + K(-2 * h)) / h ** 4
    return float(k3), float(k4)


def strict_subgauss_check(prof: LogLaplaceProfile, sigma2: float | None = None,
                          samples: int = 4001) -> CheckReport:
    """Is K(t) <= sigma^2 t^2 / 2 everywhere sampled?

    Also asserts the necessary moment facts E X^3 = 0 and
    E X^4 <= 3 sigma^4 (third cumulant zero, fourth cumulant <= 0).
    """
    s2 = prof.sigma2 if sigma2 is None else float(sigma2)
    t = np.linspace(prof.t_min, prof.t_max, samples)
    margin = 0.5 * s2 * t * t - prof.K(t)
    band = MARGIN_BAND * (1.0 + t * t)
    tolerances = {"margin_band": MARGIN_BAND, "moment_tol": 1e-6}
    if prof.cumulants is not None and len(prof.cumulants) >= 4:
        g3, g4 = prof.cumulants[2], prof.cumulants[3]
        mom_tol = 1e-9
    else:
        g3, g4 = _third_fourth_at_zero(prof.K)
        mom_tol = 1e-4
    bad = margin < -band
    witnesses = []
    verdict = HOLDS
    if np.any(bad):
        verdict = FAILS
        order = np.argsort(margin)
        witnesses = [(float(t[i]), float(margin[i])) for i in order[:5] if bad[i]]
    if abs(g3) > mom_tol * max(1.0, s2 ** 1.5):
        verdict = FAILS
        witnesses.append((0.0, -abs(g3)))
    if g4 > mom_tol * max(1.0, s2 ** 2):
        verdict = FAILS
        witnesses.append((0.0, -g4))
    if verdict == HOLDS and not prof.closed_form:
        if float(np.min(margin - band)) < 0.0:
            verdict = INCONCLUSIVE
    if not witnesses:
        worst = int(np.argmin(margin))
        witnesses = [(float(t[worst]), float(margin[worst]))]
    return CheckReport(verdict=verdict, witnesses=witnesses, tolerances=tolerances,
                       detail={"sigma2": s2, "gamma3": g3, "gamma4_excess": g4})


def separation_check(prof: LogLaplaceProfile, t0_list, samples: int = 8001) -> CheckReport:
    """sup_{|t| >= t0} psi(t) < 1 for each requested t0.

    Degenerate psi == 1 (the normal itself) and profiles whose tail
    cannot be classified come back inconclusive.
    """
    t = np.linspace(prof.t_min, prof.t_max, samples)
    psi = prof.psi(t)
    tolerances = {"margin_band": MARGIN_BAND}
    if float(np.max(np.abs(psi - 1.0))) < 1e-12:
        return CheckReport(INCONCLUSIVE, tolerances=tolerances,
                           detail={"reason": "psi identically 1 (normal law)"})
    witnesses = []
    verdicts = []
    for t0 in t0_list:
        if t0 <= 0:
            raise ValueError("t0 must be positive")
        region = np.abs(t) >= t0
        if not np.any(region):
            verdicts.append(INCONCLUSIVE)
            continue
        i = int(np.argmax(np.where(region, psi, -np.inf)))
        margin = 1.0 - float(psi[i])
        witnesses.append((float(t[i]), margin))
        if prof.tail == "periodic":
            verdicts.append(FAILS)  # psi returns to 1 at every period
        elif margin <= MARGIN_BAND:
            verdicts.append(FAILS)
        elif prof.tail == "decaying":
            verdicts.append(HOLDS)
        else:
            verdicts.append(INCONCLUSIVE)
    if FAILS in verdicts:
        verdict = FAILS
    elif INCONCLUSIVE in verdicts:
        verdict = INCONCLUSIVE
    else:
        verdict = HOLDS
    return CheckReport(verdict, witnesses=witnesses, tolerances=tolerances,
                       detail={"tail": prof.tail})


def _zero_clusters(ts, in_band):
    runs = []
    start = None
    for i, flag in enumerate(in_band):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(ts) - 1))
    return runs


def dinf_clt_check(prof: LogLaplaceProfile, samples: int = 8001) -> CheckReport:
    """Conditions for the CLT in D_inf (vanishing A'' on the zero set of A).

    (a) is checked at refined minimizers of A inside each cluster of the
    approximate zero set {A <= ZERO_TOL*(1+t^2)}; (b) via the closed-form
    tail: decaying psi has no zero sequence escaping to infinity, a
    periodic psi repeats the one-period analysis, anything else is
    undecidable from finite data.
    """
    tolerances = {"zero_tol": ZERO_TOL, "deriv_tol": DERIV_TOL}
    pre = strict_subgauss_check(prof)
    if pre.verdict != HOLDS:
        return CheckReport(INCONCLUSIVE, tolerances=tolerances,
                           detail={"reason": "strict subgaussianity does not hold",
                                   "precondition": pre.verdict})
    if prof.tail == "constant":
        return CheckReport(HOLDS, tolerances=tolerances,
                           detail={"reason": "A identically zero"})
    if prof.tail == "periodic" and prof.trig is not None and prof.period:
        # the zero set of A repeats with the periodic component P of psi
        # and the condition A'' = 0 there reads P'' = 0 for every
        # admissible c > 0, so judge the coefficients directly (the
        # absolute A'' tolerance is meaningless when c is tiny)
        a0, a, b, _ = prof.trig
        rep = periodic_clt_check((a0, a, b), prof.period)
        detail = dict(rep.detail)
        detail.update({"tail": "periodic", "propagated": True})
        return CheckReport(rep.verdict, witnesses=rep.witnesses,
                           tolerances={**tolerances, **rep.tolerances},
                           zero_set=rep.zero_set, detail=detail)
    if prof.tail == "periodic" and prof.period:
        lo, hi = -0.25 * prof.period, 1.25 * prof.period
        propagated = True
    elif prof.tail == "decaying":
        lo, hi = prof.t_min, prof.t_max
        propagated = True
    else:
        return CheckReport(INCONCLUSIVE, tolerances=tolerances,
                           detail={"reason": "tail behavior unclassified"})
    ts = np.linspace(lo, hi, samples)
    a_vals = prof.A(ts)
    in_band = a_vals <= ZERO_TOL * (1.0 + ts * ts)
    step = ts[1] - ts[0]
    zero_set = []
    witnesses = []
    verdict = HOLDS
    for i0, i1 in _zero_clusters(ts, in_band):
        left = ts[max(i0 - 1, 0)]
        right = ts[min(i1 + 1, len(ts) - 1)]
        from scipy.optimize import minimize_scalar
        res = minimize_scalar(lambda t: float(prof.A(t)), bounds=(left, right),
                              method="bounded", options={"xatol": 1e-11})
        t_star = float(res.x)
        if float(prof.A(t_star)) > ZERO_TOL * (1.0 + t_star * t_star):
            continue
        a2 = float(prof.A2(t_star))
        zero_set.append(t_star)
        witnesses.append((t_star, DERIV_TOL - abs(a2)))
        if abs(a2) > DERIV_TOL:
            verdict = FAILS
    detail = {"tail": prof.tail, "propagated": propagated, "scan_step": float(step)}
    if prof.tail == "periodic":
        detail["period"] = prof.period
    return CheckReport(verdict, witnesses=witnesses, tolerances=tolerances,
                       zero_set=zero_set, detail=detail)


def _trig_eval(a0, a, b, t, deriv: int = 0):
    t = np.asarray(t, dtype=float)
    out = np.full_like(t, a0 if deriv == 0 else 0.0)
    for k, ak in enumerate(a, start=1):
        if deriv == 0:
            out = out + ak * np.cos(k * t)
        elif deriv == 2:
            out = out - ak * k * k * np.cos(k * t)
    for k, bk in enumerate(b, start=1):
        if deriv == 0:
            out = out + bk * np.sin(k * t)
        elif deriv == 2:
            out = out - bk * k * k * np.sin(k * t)
    return out


def periodic_clt_check(p_coeffs, h: float, samples: int = 16384) -> CheckReport:
    """Classify a periodic component P(t) = a0 + sum a_k cos kt + b_k sin kt.

    Preconditions (checked from the coefficients): P(0) = P'(0) = P''(0) = 0
    and P >= 0 on (0, h).  Verdict "holds" with classification
    converges_with_rate (P > 0 inside), converges (all interior zeros have
    P'' = 0), or "fails" (some interior zero with P'' != 0).
    """
    a0, a, b = p_coeffs
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    scale = abs(a0) + sum(map(abs, a)) + sum(map(abs, b))
    if scale == 0.0:
        raise ValueError("P is identically zero")
    for k in range(1, max(len(a), len(b)) + 1):
        active = (k <= len(a) and a[k - 1] != 0.0) or (k <= len(b) and b[k - 1] != 0.0)
        if active and abs(math.remainder(k * h, 2.0 * math.pi)) > 1e-9:
            raise ValueError(f"h = {h:g} is not a period of the k = {k} harmonic")
    if abs(a0 + sum(a)) > 1e-12 * scale:
        raise ConstraintError("P(0) != 0: constant term does not cancel the cosines")
    if abs(sum(k * bk for k, bk in enumerate(b, start=1))) > 1e-12 * scale:
        raise ConstraintError("sum k b_k != 0 (first moment constraint violated)")
    if abs(sum(k * k * ak for k, ak in enumerate(a, start=1))) > 1e-12 * scale:
        raise ConstraintError("sum k^2 a_k != 0 (second moment constraint violated)")
    ts = np.linspace(0.0, h, samples)
    pv = _trig_eval(a0, a, b, ts)
    if float(pv.min()) < -1e-12 * scale:
        raise ConstraintError("P is negative inside the period")
    p2_tol = 1e-8 * (sum(k * k * abs(ak) for k, ak in enumerate(a, start=1))
                     + sum(k * k * abs(bk) for k, bk in enumerate(b, start=1))) + 1e-12
    in_band = pv <= 1e-6 * scale
    zero_set = []
    witnesses = []
    classification = "converges_with_rate"
    verdict = HOLDS
    for i0, i1 in _zero_clusters(ts, in_band):
        if i0 == 0 or i1 == len(ts) - 1:
            continue  # the mandatory zero at the period endpoints
        left, right = ts[i0 - 1], ts[i1 + 1]
        from scipy.optimize import minimize_scalar
        res = minimize_scalar(lambda t: float(_trig_eval(a0, a, b, t)),
                              bounds=(left, right), method="bounded",
                              options={"xatol": 1e-12})
        t_star = float(res.x)
        if float(_trig_eval(a0, a, b, t_star)) > 1e-10 * scale:
            continue
        p2 = float(_trig_eval(a0, a, b, t_star, deriv=2))
        zero_set.append(t_star)
        witnesses.append((t_star, p2))
        if abs(p2) > p2_tol:
            verdict = FAILS
            classification = "fails"
        elif classification != "fails":
            classification = "converges"
    return CheckReport(verdict, witnesses=witnesses,
                       tolerances={"p2_tol": p2_tol},
                       zero_set=zero_set,
                       detail={"classification": classification, "period": h})


def esscher(p: GridDensity, h: float) -> GridDensity:
    """Exponential tilt Q_h p = e^{hx} p(x) / L(h) on the grid.

    The renormalization hides any mass pushed off the window; the bias
    is estimated by the boundary cells and must stay below 1e-10.
    """
    w = p.values * np.exp(float(h) * p.x)
    total = p.step * w.sum()
    if total <= 0:
        raise ValueError("tilted density has no mass")
    bias = p.step * (w[0] + w[-1]) / total
    if bias > 1e-10:
        raise TailDominanceError(
            f"tilt h = {h:g} pushes mass to the window edge (bias {bias:.3g})")
    return GridDensity(p.origin, p.step, w / total, meta={"h": h, "bias": float(bias)})


def esscher_stats(prof: LogLaplaceProfile, h: float):
    """Mean and variance of the tilted law: (K'(h), K''(h))."""
    return float(prof.K1(h)), float(prof.K2(h))


def esscher_variance_lower_bound(a_of_h: float, t_inf: float) -> float:
    """sigma_h^2 >= (pi / 6 c^2) e^{-2 A(h)} with c = 1 + T_inf(p || phi)."""
    c = 1.0 + t_inf
    return math.pi / (6.0 * c * c) * math.exp(-2.0 * a_of_h)


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
    q = 1.0 - p

    def K(t):
        t = np.asarray(t, dtype=float)
        # log(p e^{qt} + q e^{-pt}) computed stably via the larger exponent
        hi = np.maximum(q * t, -p * t)
        return hi + np.log(p * np.exp(q * t - hi) + q * np.exp(-p * t - hi))

    return K


def quartic_classify(alpha: float, beta: float) -> dict:
    """Classify the quartic family f(t) = e^{-t^2/2} (1 - alpha t^2 + beta t^4).

    Characteristic-function region: for beta = 0 it is 0 <= alpha <= 1;
    for 0 < beta <= 1/3, 4b - 2 sqrt(b(1-2b)) <= alpha <= 3b + 1; for
    1/3 <= beta <= 1/2 the upper bound becomes 4b + 2 sqrt(b(1-2b));
    beta > 1/2 never qualifies.  Given a characteristic function, strict
    subgaussianity holds iff alpha >= sqrt(2 beta).  Zeros come from the
    exact root formula z^2 = (alpha +- sqrt(alpha^2 - 4 beta))/(2 beta).
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if beta == 0.0:
        is_cf = 0.0 <= alpha <= 1.0
    elif beta <= 1.0 / 3.0:
        low = 4.0 * beta - 2.0 * math.sqrt(beta * (1.0 - 2.0 * beta))
        is_cf = low <= alpha <= 3.0 * beta + 1.0
    elif beta <= 0.5:
        edge = 2.0 * math.sqrt(beta * (1.0 - 2.0 * beta))
        is_cf = 4.0 * beta - edge <= alpha <= 4.0 * beta + edge
    else:
        is_cf = False
    strictly = bool(is_cf and alpha >= math.sqrt(2.0 * beta))
    zeros = []
    if beta > 0.0:
        disc = cmath.sqrt(complex(alpha * alpha - 4.0 * beta))
        for branch in (+1, -1):
            z2 = (alpha + branch * disc) / (2.0 * beta)
            root = cmath.sqrt(z2)
            zeros.extend([root, -root])
    elif alpha > 0.0:
        root = cmath.sqrt(complex(1.0 / alpha))
        zeros.extend([root, -root])
    angles = []
    for z in zeros:
        a = abs(cmath.phase(z)) % math.pi
        angles.append(math.pi - a if a > 0.5 * math.pi else a)
    angles.sort()
    return {
        "is_characteristic_function": bool(is_cf),
        "is_strictly_subgaussian": strictly,
        "zeros": zeros,
        "zero_angles": angles,
    }
