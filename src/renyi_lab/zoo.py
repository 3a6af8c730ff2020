"""The model zoo's records and catalogue: `AnalyticModel`, the capability
record every model is, `MomentSummary`, and one line on each model kind.

It imports only the standard library: `zoo list` prints the catalogue
without numpy, and a module that takes or returns these records need not
import `grids`, which re-exports them (`models` re-exports the catalogue).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(frozen=True)
class MomentSummary:
    """Raw moments of a distribution: alpha_k = E X^k."""
    mean: float
    variance: float
    alpha3: float
    alpha4: float


@dataclass(frozen=True)
class AnalyticModel:
    """Capability record for a 1-D distribution.

    density/cdf/log_laplace are optional callbacks; cumulants is
    the ordered sequence (gamma_1, gamma_2, ...) when known in closed
    form.  Purely discrete members (Bernoulli variants) carry no density
    and only participate through their log-Laplace transform.
    """
    name: str
    density: Optional[Callable] = None
    log_laplace: Optional[Callable] = None
    cumulants: Optional[tuple] = None
    support_radius: Optional[float] = None
    cdf: Optional[Callable] = None
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def variance(self) -> Optional[float]:
        if self.cumulants is not None and len(self.cumulants) >= 2:
            return float(self.cumulants[1])
        return None


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
