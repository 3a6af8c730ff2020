"""Every argument guard refuses with its own exception type and message.

One row per guard, so that deleting any one of them fails its row: the
input is built to pass every other check before it, and the message
fragment names the guard, not an error that the unguarded arithmetic
would raise further on.
"""

import numpy as np
import pytest

from renyi_lab import (AnalyticModel, ConstraintError, CumulantVector, GridConfig,
                       GridDensity, NormalMomentVector, bernoulli_log_laplace,
                       chi2_from_normal_moments, convolve, discretize,
                       edgeworth_density, esscher, gaussian_smooth, hermite_eval,
                       normal_moments, pointwise_density_bound_check,
                       quartic_classify, renyi_tsallis, truncated_tsallis)
from renyi_lab.divergences import pearson_vajda_result
from renyi_lab.models import TrigPolynomial
from conftest import model_of

_FLAT = GridDensity(-1.0, 0.125, np.full(16, 0.5))
_FINE = GridDensity(-1.0, 2.0 / 1024, np.full(1024, 0.5))
_BARE = AnalyticModel(name="bare")
_NEGATIVE = AnalyticModel(name="negative", density=lambda x: -np.ones_like(x))
_CUMULANTS = CumulantVector((0.0, 1.0, 0.5, 0.2))

REFUSALS = [
    # divergences
    ("renyi_tsallis alpha = 0", lambda: renyi_tsallis(_FLAT, _FLAT, 0.0),
     ValueError, "alpha must be positive"),
    ("renyi_tsallis alpha < 0", lambda: renyi_tsallis(_FLAT, _FLAT, -0.5),
     ValueError, "alpha must be positive"),
    ("renyi_tsallis alpha = 1", lambda: renyi_tsallis(_FLAT, _FLAT, 1.0),
     ValueError, "different from 1"),
    ("pearson_vajda_result alpha < 1", lambda: pearson_vajda_result(_FLAT, _FLAT, 0.5),
     ValueError, "alpha must be at least 1"),
    # edgeworth
    ("CumulantVector.gamma above", lambda: _CUMULANTS.gamma(5),
     IndexError, "gamma_5 not available"),
    ("CumulantVector.gamma below", lambda: _CUMULANTS.gamma(0),
     IndexError, "gamma_0 not available"),
    ("edgeworth_density m < 2", lambda: edgeworth_density(0.0, 10, _CUMULANTS, 1),
     ValueError, "m must be at least 2"),
    ("truncated_tsallis s < 2", lambda: truncated_tsallis(_FLAT, 2.0, 1, 16),
     ValueError, "need s >= 2"),
    ("truncated_tsallis n < 2", lambda: truncated_tsallis(_FLAT, 2.0, 4, 1),
     ValueError, "n >= 2"),
    # grids
    ("GridDensity step = 0", lambda: GridDensity(0.0, 0.0, np.ones(4)),
     ValueError, "step must be positive"),
    ("GridDensity step < 0", lambda: GridDensity(0.0, -0.1, np.ones(4)),
     ValueError, "step must be positive"),
    ("GridDensity without mass", lambda: GridDensity(0.0, 0.1, np.zeros(4)),
     ValueError, "must not all be zero"),
    ("discretize without density or CDF", lambda: discretize(_BARE, GridConfig()),
     ValueError, "'bare' has no density"),
    ("discretize negative samples", lambda: discretize(_NEGATIVE, GridConfig()),
     ValueError, "negative density samples"),
    ("convolve mismatched steps",
     lambda: convolve(_FLAT, GridDensity(-1.0, 0.25, np.full(8, 0.5))),
     ValueError, "share the same step"),
    ("gaussian_smooth t > 1", lambda: gaussian_smooth(_FLAT, 1.5),
     ValueError, "t must lie in [0, 1]"),
    ("gaussian_smooth t < 0", lambda: gaussian_smooth(_FLAT, -0.5),
     ValueError, "t must lie in [0, 1]"),
    # sqrt(1 - t) = 0.0032 against 5 steps of 2/1024, 0.0098
    ("gaussian_smooth below resolution", lambda: gaussian_smooth(_FINE, 0.99999),
     ValueError, "below grid resolution"),
    ("pointwise bound sigma2 <= 0",
     lambda: pointwise_density_bound_check(model_of("uniform"), 4, 0.0, 1.0),
     ValueError, "sigma2 and M must be positive"),
    ("pointwise bound M <= 0",
     lambda: pointwise_density_bound_check(model_of("uniform"), 4, 1.0, -1.0),
     ValueError, "sigma2 and M must be positive"),
    # hermite
    ("hermite_eval k < 0", lambda: hermite_eval(-1, 0.5),
     ValueError, "k must be nonnegative"),
    ("normal_moments model without density", lambda: normal_moments(_BARE, 4),
     ValueError, "'bare' has no density"),
    ("normal_moments of neither type", lambda: normal_moments(np.ones(8), 4),
     TypeError, "expected a GridDensity or AnalyticModel"),
    ("chi2_from_normal_moments t > 1",
     lambda: chi2_from_normal_moments(NormalMomentVector((1.0, 0.0)), 1.5),
     ValueError, "t must lie in [0, 1]"),
    ("chi2_from_normal_moments t < 0",
     lambda: chi2_from_normal_moments(NormalMomentVector((1.0, 0.0)), -0.5),
     ValueError, "t must lie in [0, 1]"),
    # models
    ("bernoulli_log_laplace p = 0", lambda: bernoulli_log_laplace(0.0),
     ValueError, "p must lie in (0, 1)"),
    ("bernoulli_log_laplace p > 1", lambda: bernoulli_log_laplace(1.5),
     ValueError, "p must lie in (0, 1)"),
    ("check_moments sum k b_k", lambda: TrigPolynomial(0.0, (), (1.0,)).check_moments(),
     ConstraintError, "sum k b_k != 0"),
    # subgauss
    # one unit cell at x = 0.75, where e^(hx) underflows
    ("esscher without tilted mass", lambda: esscher(GridDensity(0.0, 0.1, np.eye(8)[7]), -1e4),
     ValueError, "tilted density has no mass"),
    ("quartic_classify beta < 0", lambda: quartic_classify(0.5, -1.0),
     ValueError, "beta must be nonnegative"),
]


@pytest.mark.parametrize("call, exc, fragment",
                         [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_guard_refuses(call, exc, fragment):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc
    assert fragment in str(info.value)
