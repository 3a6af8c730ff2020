"""Workload inputs generated from the benchmark seed.

Seed 0 is the reference configuration: the skewed model
bernoulli_gauss(p=0.2, beta=1.127), the listed order of the short CLI
commands, and the unshifted order scan.  Any other seed draws p from
[0.15, 0.3] with beta at the same fraction of its feasible interval
(1, sigma^2(p) / (p q)), permutes the short commands, and shifts the
order scan.  The program under test only ever sees these generated
values.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

N_SWEEP = "16,32,64,128,256,512,1024"
ALPHA_COUNT = 64
ALPHA_MAX = 8.0

REF_P, REF_BETA = 0.2, 1.127


def bernoulli_subgauss_constant(p: float) -> float:
    """sigma^2(p) = (p - q) / (2 (log p - log q)) for p != 1/2."""
    d = 2.0 * p - 1.0
    return d / (4.0 * math.atanh(d))


def beta_ceiling(p: float) -> float:
    """Upper end of the feasible beta interval, sigma^2(p) / (p q)."""
    return bernoulli_subgauss_constant(p) / (p * (1.0 - p))


BETA_FRACTION = (REF_BETA - 1.0) / (beta_ceiling(REF_P) - 1.0)


def skewed_gamma3(p: float, beta: float) -> float:
    """Third cumulant of bernoulli_gauss(p, beta): a^3 p q (q - p)."""
    q = 1.0 - p
    a2 = (beta - 1.0) / (bernoulli_subgauss_constant(p) - p * q)
    return a2 ** 1.5 * p * q * (q - p)


# Short CLI commands in their seed-0 order; "{skewed}" is replaced by
# the path of the written skewed spec.
CLI_SHORT = {
    "zoo-list": ["zoo", "list"],
    "zoo-sin_power": ["zoo", "--model", "sin_power"],
    # gamma_4 is supplied because q_2 needs it; with three cumulants the
    # command exits 1 ("cumulants up to gamma_4 required").
    "edgeworth": ["edgeworth", "--gammas", "0,1,0.6,0.4", "--m", "4"],
    "hermite-uniform": ["hermite", "--model", "uniform", "--k", "40"],
    "dist-uniform": ["dist", "--model", "uniform", "--n", "8", "--alpha", "1,2,inf"],
    "check-subgauss-skewed": ["check-subgauss", "--model", "{skewed}"],
    "clt-counterexample_30_4": ["check-clt-dinf", "--model", "counterexample_30_4"],
    "clt-sin_power": ["check-clt-dinf", "--model", "sin_power"],
}

RATE_SWEEP = {
    "rate-skewed-kl": ["rate", "--model", "{skewed}", "--distance", "kl", "--n", N_SWEEP],
    "rate-uniform-chi2": ["rate", "--model", "uniform", "--distance", "chi2", "--n", N_SWEEP],
}


@dataclass(frozen=True)
class Inputs:
    seed: int
    p: float
    beta: float
    cli_order: tuple
    alpha_shift: float

    @property
    def skewed_spec(self) -> dict:
        return {"kind": "bernoulli_gauss", "params": {"p": self.p, "beta": self.beta}}

    @property
    def alphas(self) -> list:
        """64 orders in (0, 8], midpoints of eighths shifted by the seed;
        the shift stays inside (-1/2, 1/2) so the order 1 is never hit."""
        return [(i + 0.5 + self.alpha_shift) * ALPHA_MAX / ALPHA_COUNT
                for i in range(ALPHA_COUNT)]


def make_inputs(seed: int) -> Inputs:
    if seed == 0:
        return Inputs(0, REF_P, REF_BETA, tuple(CLI_SHORT), 0.0)
    rng = random.Random(seed)
    p = rng.uniform(0.15, 0.3)
    beta = 1.0 + BETA_FRACTION * (beta_ceiling(p) - 1.0)
    order = list(CLI_SHORT)
    rng.shuffle(order)
    return Inputs(seed, p, beta, tuple(order), rng.uniform(-0.4, 0.4))
