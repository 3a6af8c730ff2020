"""Numerical laboratory for distances between normalized sums and the
standard normal law: Renyi/Tsallis divergences, Edgeworth corrections,
rate-constant reproduction, and subgaussianity checkers.

The package runs on numpy and the standard library alone; scipy is a
test dependency, the reference its ports are checked against.
Importing the package loads only `errors` and `reports`: the first
access of any other public name loads the whole API at once (numpy and
every numeric module), so a caller pays the import in one place.  The
CLI module (`renyi_lab.cli`) is not imported with the package;
`run_experiment` loads it on first access, and each of its commands
imports only the modules it runs."""

from .errors import (AliasingError, ChainTooLongError, ConstraintError,
                     GridTooNarrowError, LabError, OscillationError,
                     SeriesError, TailDominanceError)
from .reports import FAILS, HOLDS, INCONCLUSIVE, CheckReport, DivergenceResult

__version__ = "0.1.0"


def _api() -> dict:
    """Import the numeric modules; returns the public names they export."""
    from .grids import (AnalyticModel, GridConfig, GridDensity, MomentSummary,
                        convolve, discretize, entropy, entropy_power,
                        gaussian_grid, gaussian_smooth, laplace_eval,
                        moment_summary, normalized_sum_density,
                        pointwise_density_bound_check, sum_densities, wasserstein2)
    from .divergences import (infinite_order, kl, pearson_vajda, relative_fisher,
                              renyi_tsallis, truncated_tsallis, tv_hellinger)
    from .hermite import (NormalMomentVector, chi2_from_normal_moments,
                          hermite_coefficients, hermite_eval, normal_moments)
    from .edgeworth import (CumulantVector, EdgeworthPolynomial, edgeworth_density,
                            expansion_constants, fit_leading_constant, q_polynomial)
    from .subgauss import (LogLaplaceProfile, dinf_clt_check, esscher,
                           periodic_clt_check, profile, quartic_classify,
                           separation_check, strict_subgauss_check)
    from .models import (MODEL_DOCS, bernoulli_gauss_construct,
                         bernoulli_log_laplace, bernoulli_subgauss_constant,
                         make_model, mixture_chi2, sin_power_coefficients)
    return locals()


def __getattr__(name):
    # the CLI module is loaded on first use, so that `python -m
    # renyi_lab.cli` does not find it already imported
    if name == "run_experiment":
        from . import cli
        return getattr(cli, name)
    # `from . import cli` asks for the attribute before importing the
    # submodule; that probe must not load the API
    if name != "cli" and not name.startswith("_"):
        globals().update(_api())
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
