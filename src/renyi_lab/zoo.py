"""The model zoo's catalogue: one line on each model kind and its params.

It imports nothing, so `renyi-lab zoo list` prints it without loading
numpy or the models it describes; `models` re-exports it beside the
constructors.
"""

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
