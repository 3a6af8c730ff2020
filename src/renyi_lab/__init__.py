"""Numerical laboratory for distances between normalized sums and the
standard normal law: Renyi/Tsallis divergences, Edgeworth corrections,
rate-constant reproduction, and subgaussianity checkers.

scipy is imported inside the functions that call it, so importing the
package, and CLI commands that never call it, load no scipy module.
The CLI module (`renyi_lab.cli`) is not imported with the package;
`ExperimentConfig` and `run_experiment` load it on first access."""

from .errors import (AliasingError, ChainTooLongError, ConstraintError,
                     GridTooNarrowError, LabError, OscillationError,
                     SeriesError, TailDominanceError)
from .reports import FAILS, HOLDS, INCONCLUSIVE, CheckReport
from .grids import (AnalyticModel, GridConfig, GridDensity, MomentSummary,
                    SumChain, convolve, discretize, entropy, entropy_power,
                    gaussian_grid, gaussian_smooth, grid_from_binary,
                    grid_from_csv, grid_to_binary, grid_to_csv, laplace_eval,
                    moment_summary, normalized_sum_density,
                    pointwise_density_bound_check, sum_chain, wasserstein2)
from .divergences import (DivergenceResult, entropy_young,
                          gaussian_relative_entropy, infinite_order, kl,
                          orlicz_norm, pearson_vajda, relative_fisher,
                          renyi_tsallis, tv_hellinger)
from .hermite import (NormalMomentVector, SeriesValue,
                      chi2_from_normal_moments, exponential_series_eval,
                      hermite_binomial_check, hermite_coefficients,
                      hermite_eval, moments_from_normal_moments,
                      normal_moments)
from .edgeworth import (CumulantVector, EdgeworthPolynomial,
                        cumulants_from_moments, edgeworth_density,
                        expansion_constants, fit_leading_constant,
                        lyapunov_ratio, q_polynomial, truncated_tsallis,
                        truncated_tsallis_leading_term)
from .subgauss import (LogLaplaceProfile, bernoulli_log_laplace,
                       bernoulli_subgauss_constant, dinf_clt_check, esscher,
                       esscher_stats, esscher_variance_lower_bound,
                       periodic_clt_check, profile, quartic_classify,
                       separation_check, strict_subgauss_check)
from .models import (MODEL_DOCS, ModelSpec, bernoulli_gauss_construct,
                     make_model, mixture_chi2, mixture_finiteness,
                     sin_power_coefficients)

__version__ = "0.1.0"


def __getattr__(name):
    # the CLI module is loaded on first use, so that `python -m
    # renyi_lab.cli` does not find it already imported
    if name in ("ExperimentConfig", "run_experiment"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
