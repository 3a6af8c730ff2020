"""Log-Laplace profiles and the subgaussianity / CLT-in-D_inf checkers.

The profile of a model collects K(t) = log E e^{tX} with its second
derivative, the gap A(t) = sigma^2 t^2/2 - K(t) and psi(t) = e^{-A(t)}.  For
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
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .errors import ConstraintError, TailDominanceError
from .models import TrigPolynomial, minimize_bounded
from .reports import FAILS, HOLDS, INCONCLUSIVE, CheckReport, worst
from .zoo import AnalyticModel

if TYPE_CHECKING:
    from .grids import GridDensity

# The grid layer is imported where a grid is built (the numeric profile
# and `esscher`): the checkers on closed-form profiles never load it.

ZERO_TOL = 1e-8          # A(t) <= ZERO_TOL*(1+t^2) marks the approximate zero set
DERIV_TOL = 1e-4         # |A''| allowed on the zero set
MARGIN_BAND = 1e-9       # tolerance band for strict subgaussianity margins
_P_BAND = 1e-12          # P >= -_P_BAND*scale over one period counts as P >= 0
_FD_H = 0.01
_T_RANGE = (-40.0, 40.0)  # t range of every profile
_PROFILE_SAMPLES = 2001  # nodes of the numeric profile over _T_RANGE
_STRICT_SAMPLES = 4001   # strict-margin scan of the profile's t range
_SCAN_SAMPLES = 8001     # separation and zero-set scans of the profile's t range
_PERIOD_SAMPLES = 16384  # sign and zero-set scans of one period of a trig component


@dataclass(frozen=True)
class LogLaplaceProfile:
    name: str
    K: Callable
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


def _fd_second(K, t, h=_FD_H):
    return (-K(t + 2 * h) + 16 * K(t + h) - 30 * K(t)
            + 16 * K(t - h) - K(t - 2 * h)) / (12.0 * h * h)


def _decayed_run(p: GridDensity, ts: np.ndarray):
    """The run of nodes of the evenly spaced ts where `laplace_eval`
    passes its decay gate, and log E e^{tX} on it (the run is one; see
    `profile`).

    The search starts at the node nearest 0, halves the candidate range
    on the side that a failed edge rules out until one node passes, then
    widens from it by `_laplace_walk`'s tilt recurrence up to the first
    failure on each side; with 0 inside a decayed range that is one
    failure per end.
    """
    from .grids import _laplace_walk, laplace_eval
    lo, hi = 0, len(ts) - 1          # the run lies inside ts[lo:hi + 1]
    i = int(np.argmin(np.abs(ts)))
    while True:
        try:
            k = laplace_eval(p, float(ts[i]))
            break
        except TailDominanceError as exc:
            edge = exc.edge
        if edge == "right":
            hi = i - 1
        elif edge == "left":
            lo = i + 1
        if edge == "both" or lo > hi:
            return ts[:0], []
        i = (lo + hi) // 2
    left = list(_laplace_walk(p, ts[lo:i + 1][::-1]))
    right = list(_laplace_walk(p, ts[i:hi + 1]))
    return (ts[i - len(left):i + len(right) + 1],
            [math.log(k) for k in (*left[::-1], k, *right)])


def profile(model: AnalyticModel) -> LogLaplaceProfile:
    """Build the log-Laplace profile of a model over _T_RANGE.

    K is the model's log_laplace when it has one (closed form).
    Otherwise K is tabulated from the grid density at the nodes of
    linspace(_T_RANGE, _PROFILE_SAMPLES) where the tilted integrand
    still decays inside the window, and interpolated by a cubic spline;
    the profile then spans those nodes and its tail stays "unknown".  The
    nodes are those that `laplace_eval` passes, and K there is within
    about 1e-13 of its log: a tilt recurrence, re-anchored every 32
    nodes, evaluates them (`grids._laplace_walk`).
    Either way K'' is the central difference `_fd_second` of K.

    Those nodes form one run.  With w_i = e^{t x_i} p_i, log(w_N / max w)
    is the minimum over i of t (x_N - x_i) + log p_N - log p_i, a minimum
    of nondecreasing functions of t (x_N >= x_i): the right-edge ratio
    never falls as t grows, and the left-edge ratio likewise never rises.
    A right-edge failure at t fails every larger t and a left-edge one
    every smaller t, so only the run and the failing node at each of its
    ends are evaluated.
    """
    lo, hi = _T_RANGE
    closed = model.log_laplace is not None
    if closed:
        K, t_min, t_max = model.log_laplace, lo, hi
    else:
        from .grids import GridConfig, _spline, discretize
        p = discretize(model, GridConfig().half_width, GridConfig().points)
        ts, ks = _decayed_run(p, np.linspace(lo, hi, _PROFILE_SAMPLES))
        if len(ts) < 10:
            raise ValueError(f"Laplace transform of {model.name!r} not evaluable on range")
        K = _spline(ts[0], (hi - lo) / (_PROFILE_SAMPLES - 1), ks)
        t_min, t_max = float(ts[0]), float(ts[-1])
    sigma2 = model.variance
    if sigma2 is None:
        sigma2 = float(_fd_second(K, 0.0))
    meta = model.meta if closed else {}
    return LogLaplaceProfile(
        name=model.name, K=K,
        K2=lambda t: _fd_second(K, np.asarray(t, dtype=float)),
        sigma2=float(sigma2), t_min=t_min, t_max=t_max, closed_form=closed,
        tail=meta.get("psi_tail", "unknown"), period=meta.get("period"),
        trig=meta.get("trig"), cumulants=model.cumulants)


def _third_fourth_at_zero(K, h=0.05):
    k3 = (K(2 * h) - 2 * K(h) + 2 * K(-h) - K(-2 * h)) / (2 * h ** 3)
    k4 = (K(2 * h) - 4 * K(h) + 6 * K(0.0) - 4 * K(-h) + K(-2 * h)) / h ** 4
    return float(k3), float(k4)


def strict_subgauss_check(prof: LogLaplaceProfile) -> CheckReport:
    """Is K(t) <= sigma^2 t^2 / 2 everywhere sampled?

    Also asserts the necessary moment facts E X^3 = 0 and
    E X^4 <= 3 sigma^4 (third cumulant zero, fourth cumulant <= 0).
    On a numeric profile a scan margin below the band reads "fails" only
    when a margin at one of the spline's nodes does too, else
    "inconclusive" with the same witnesses.  For psi = 1 - c P with a
    trigonometric P and c > 0, A = -log(1 - c P) >= 0 exactly where
    P >= 0: when the scan passes, the minimum of P over one period
    decides, on P's own scale, however small c makes A.
    """
    s2 = prof.sigma2
    t = np.linspace(prof.t_min, prof.t_max, _STRICT_SAMPLES)
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
        if not prof.closed_form:
            # the spline's interpolation error can dip below the band
            # between the nodes, where K is the quadrature's own value
            tn = prof.K.x0 + np.arange(len(prof.K.y)) * prof.K.h
            if np.all(0.5 * s2 * tn * tn - prof.K.y >= -MARGIN_BAND * (1.0 + tn * tn)):
                verdict = INCONCLUSIVE
        order = np.argsort(margin)
        witnesses = [(float(t[i]), float(margin[i])) for i in order[:5] if bad[i]]
    elif prof.trig is not None and prof.period:
        poly = TrigPolynomial(*prof.trig[:3])
        tp = np.linspace(0.0, prof.period, _PERIOD_SAMPLES)
        pv = poly(tp)
        i = int(np.argmin(pv))
        if pv[i] < -_P_BAND * poly.scale:
            verdict = FAILS
            witnesses = [(float(tp[i]), float(-np.log1p(-prof.trig[3] * pv[i])))]
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


def separation_check(prof: LogLaplaceProfile, t0_list) -> CheckReport:
    """sup_{|t| >= t0} psi(t) < 1 for each requested t0.

    Degenerate psi == 1 (the normal itself) and profiles whose tail
    cannot be classified come back inconclusive.
    """
    t = np.linspace(prof.t_min, prof.t_max, _SCAN_SAMPLES)
    psi = prof.psi(t)
    tolerances = {"margin_band": MARGIN_BAND}
    if float(np.max(np.abs(psi - 1.0))) < 1e-12:
        return CheckReport(INCONCLUSIVE, tolerances=tolerances,
                           detail={"reason": "psi identically 1 (normal law)"})
    witnesses = []
    verdicts = []
    beyond = []  # the t0 that no scanned |t| reaches
    for t0 in t0_list:
        if not t0 > 0:
            raise ValueError("t0 must be positive")
        region = np.abs(t) >= t0
        if not np.any(region):
            verdicts.append(INCONCLUSIVE)
            beyond.append(f"{t0:g}")
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
    detail = {"tail": prof.tail}
    if beyond:
        detail["reason"] = (f"no scanned |t| reaches t0 = {', '.join(beyond)}; "
                            f"the profile spans [{prof.t_min:g}, {prof.t_max:g}]")
    return CheckReport(worst(verdicts), witnesses=witnesses, tolerances=tolerances,
                       detail=detail)


def _zeros(f, ts, in_band, xatol, tol, skip_ends=False):
    """Yield one zero of f >= 0 for each run of in_band over ts: Brent's
    minimizer of f between the run's outer neighbours, kept when f there
    is at most tol(t).  With skip_ends, runs touching an end of ts are
    passed over."""
    last = len(ts) - 1
    edges = np.flatnonzero(np.diff(in_band, prepend=False, append=False))
    for i0, i1 in zip(edges[::2], edges[1::2] - 1):
        if skip_ends and (i0 == 0 or i1 == last):
            continue
        t = float(minimize_bounded(f, ts[max(i0 - 1, 0)], ts[min(i1 + 1, last)], xatol)[0])
        if f(t) > tol(t):
            continue
        yield t


def dinf_clt_check(prof: LogLaplaceProfile) -> CheckReport:
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
        rep = periodic_clt_check(prof.trig[:3], prof.period)
        return CheckReport(rep.verdict, witnesses=rep.witnesses,
                           tolerances={**tolerances, **rep.tolerances},
                           zero_set=rep.zero_set,
                           detail={**rep.detail, "tail": "periodic", "propagated": True})
    if prof.tail != "decaying":
        return CheckReport(INCONCLUSIVE, tolerances=tolerances,
                           detail={"reason": "tail behavior unclassified"})
    ts = np.linspace(prof.t_min, prof.t_max, _SCAN_SAMPLES)
    band = lambda t: ZERO_TOL * (1.0 + t * t)
    zero_set = list(_zeros(lambda t: float(prof.A(t)), ts, prof.A(ts) <= band(ts),
                           1e-11, band))
    witnesses = [(t, DERIV_TOL - abs(float(prof.A2(t)))) for t in zero_set]
    verdict = FAILS if any(m < 0.0 for _, m in witnesses) else HOLDS
    return CheckReport(verdict, witnesses=witnesses, tolerances=tolerances, zero_set=zero_set,
                       detail={"tail": prof.tail, "propagated": True,
                               "scan_step": float(ts[1] - ts[0])})


def periodic_clt_check(p_coeffs, h: float) -> CheckReport:
    """Classify a periodic component P(t) = a0 + sum a_k cos kt + b_k sin kt.

    Preconditions (checked from the coefficients): P(0) = P'(0) = P''(0) = 0
    and P >= 0 on (0, h).  Verdict "holds" with classification
    converges_with_rate (P > 0 inside), converges (all interior zeros have
    P'' = 0), or "fails" (some interior zero with P'' != 0).
    """
    poly = TrigPolynomial(*p_coeffs)
    for k in poly.harmonics:
        if abs(math.remainder(k * h, 2.0 * math.pi)) > 1e-9:
            raise ValueError(f"h = {h:g} is not a period of the k = {k} harmonic")
    poly.check_moments()
    scale = poly.scale
    ts = np.linspace(0.0, h, _PERIOD_SAMPLES)
    pv = poly(ts)
    if float(pv.min()) < -_P_BAND * scale:
        raise ConstraintError("P is negative inside the period")
    p2_tol = 1e-8 * (sum(k * k * abs(ak) for k, ak in enumerate(poly.a, start=1))
                     + sum(k * k * abs(bk) for k, bk in enumerate(poly.b, start=1))) + 1e-12
    # runs touching t = 0 or t = h hold the mandatory zero at the period's ends
    zero_set = list(_zeros(lambda t: float(poly(t)), ts, pv <= 1e-6 * scale,
                           1e-12, lambda t: 1e-10 * scale, skip_ends=True))
    witnesses = [(t, float(poly(t, deriv=2))) for t in zero_set]
    if any(abs(p2) > p2_tol for _, p2 in witnesses):
        verdict, classification = FAILS, "fails"
    else:
        verdict, classification = HOLDS, "converges" if zero_set else "converges_with_rate"
    return CheckReport(verdict, witnesses=witnesses,
                       tolerances={"p2_tol": p2_tol},
                       zero_set=zero_set,
                       detail={"classification": classification, "period": h})


def esscher(p: GridDensity, h: float) -> GridDensity:
    """Exponential tilt Q_h p = e^{hx} p(x) / L(h) on the grid.

    The renormalization hides any mass pushed off the window; the bias
    is estimated by the boundary cells and must stay below 1e-10.
    """
    from .grids import GridDensity, _tilt
    w, _ = _tilt(p, h)
    total = p.step * w.sum()
    if total <= 0:
        raise ValueError("tilted density has no mass")
    bias = p.step * (w[0] + w[-1]) / total
    if bias > 1e-10:
        raise TailDominanceError(
            f"tilt h = {h:g} pushes mass to the window edge (bias {bias:.3g})")
    return GridDensity(p.origin, p.step, w / total, meta={"h": h, "bias": float(bias)})


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
