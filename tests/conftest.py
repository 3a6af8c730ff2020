import json
from functools import lru_cache

import numpy as np
import pytest

from renyi_lab import (GridConfig, discretize, gaussian_grid, make_model,
                       normalized_sum_density)

# The skewed reference model used across the KL-rate tests: a Bernoulli
# plus Gaussian blend with gamma3 ~ 0.324.
SKEWED = {"kind": "bernoulli_gauss", "params": {"p": 0.2, "beta": 1.127}}


@lru_cache(maxsize=None)
def _model(key):
    return make_model(json.loads(key))


@lru_cache(maxsize=None)
def _pn(key, n, half_width, points):
    return normalized_sum_density(_model(key), n,
                                  GridConfig(half_width, points))


def same_bits(a, b):
    """Equal shapes and equal doubles bit for bit (NaN payloads and the
    sign of zero included)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def model_of(spec):
    if isinstance(spec, str):
        spec = {"kind": spec, "params": {}}
    return _model(json.dumps(spec, sort_keys=True))


def pn_of(spec, n, half_width=12.0, points=1 << 14):
    if isinstance(spec, str):
        spec = {"kind": spec, "params": {}}
    return _pn(json.dumps(spec, sort_keys=True), n, half_width, points)


@pytest.fixture(scope="session")
def uniform_model():
    return model_of("uniform")


@pytest.fixture(scope="session")
def uniform_grid():
    return pn_of("uniform", 1)


@pytest.fixture(scope="session")
def normal_grid(uniform_grid):
    return gaussian_grid(uniform_grid)


@pytest.fixture(scope="session")
def skewed_model():
    return model_of(SKEWED)
