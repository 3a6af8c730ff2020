"""The `analytics` workload body: one fresh process calling renyi_lab.

Usage: python3 perfbench/analytics.py '<inputs JSON>'

Set-up imports the package and builds the models; the timed pass then
computes p_n for small n with every divergence on it, the normal-moment
series, the subgaussian and D_inf-CLT checkers and the Edgeworth
polynomials.  The last line of stdout is one JSON object with
setup_s, pass_s and the computed values.
"""

from __future__ import annotations

import json
import sys
import time

PN_MODELS = ("skewed", "uniform", "power_density", "mixture")
PN_SIZES = (1, 2, 4, 8)
MIXTURE_ATOMS = [[0.5, 0.6], [0.5, 1.4]]
MOMENT_ORDERS = (("uniform", 40), ("skewed", 120), ("power_density", 60))
CHECKED_MODELS = ("uniform", "skewed", "sin_power", "counterexample_30_4", "skewed_numeric")
SEPARATION_T0 = (0.5, 1.0, 2.0)
TSALLIS_ALPHA, TSALLIS_S = 2.0, 4


def setup(inputs: dict):
    """Import the package and build every model the pass uses."""
    import dataclasses
    import renyi_lab as rl
    specs = {
        "skewed": inputs["skewed_spec"],
        "uniform": {"kind": "uniform"},
        "power_density": {"kind": "power_density", "params": {"d": 1}},
        "mixture": {"kind": "gauss_scale_mixture", "params": {"atoms": MIXTURE_ATOMS}},
        "sin_power": {"kind": "sin_power"},
        "counterexample_30_4": {"kind": "counterexample_30_4"},
    }
    models = {name: rl.make_model(spec) for name, spec in specs.items()}
    # without log_laplace the profile is tabulated from the grid density
    models["skewed_numeric"] = dataclasses.replace(models["skewed"], log_laplace=None)
    return rl, models


def _divergences(rl, p, n, alphas):
    q = rl.gaussian_grid(p)
    kl = rl.kl(p, q)
    d_alpha = [rl.renyi_tsallis(p, q, a)[0].value for a in alphas]
    d2, t2 = rl.renyi_tsallis(p, q, 2.0)
    d_inf, t_inf = rl.infinite_order(p, q)
    tv, hellinger = rl.tv_hellinger(p, q)
    out = {
        "kl": kl, "D_alpha": d_alpha, "D_2": d2.value, "T_2": t2.value,
        "chi2": rl.pearson_vajda(p, q, 2.0), "D_inf": d_inf, "T_inf": t_inf,
        "tv": tv, "hellinger": hellinger,
        "fisher": rl.relative_fisher(p, q), "w2": rl.wasserstein2(p, q),
    }
    if n >= 2:
        out["trunc_tsallis"] = rl.truncated_tsallis(p, TSALLIS_ALPHA, TSALLIS_S, n)
    return out


def _report(rep):
    return {"verdict": rep.verdict, "witnesses": rep.witnesses, "zero_set": rep.zero_set}


def run_pass(rl, models, inputs: dict) -> dict:
    alphas = inputs["alphas"]
    pn = {}
    for name in PN_MODELS:
        for n in PN_SIZES:
            p = rl.normalized_sum_density(models[name], n)
            pn[f"{name}.n{n}"] = _divergences(rl, p, n, alphas)
    moments = {}
    for name, order in MOMENT_ORDERS:
        c = rl.normal_moments(models[name], K=order)
        try:
            s = rl.chi2_from_normal_moments(c)
            series = {"chi2": s.value, "tail_bound": s.tail_bound}
        except rl.SeriesError as exc:
            series = {"error": str(exc)}
        moments[name] = {"c": list(c.values), **series}
    checkers = {}
    for name in CHECKED_MODELS:
        prof = rl.profile(models[name])
        checkers[name] = {
            "strict": _report(rl.strict_subgauss_check(prof)),
            "separation": _report(rl.separation_check(prof, SEPARATION_T0)),
            "dinf": _report(rl.dinf_clt_check(prof)),
        }
    gam = rl.CumulantVector(models["uniform"].cumulants)
    q_poly = {str(nu): {str(d): c for d, c in sorted(rl.q_polynomial(nu, gam).coefficients.items())}
              for nu in range(1, 7)}
    return {"pn": pn, "moments": moments, "checkers": checkers, "q_polynomial": q_poly,
            "mixture_chi2": rl.mixture_chi2(MIXTURE_ATOMS)}


def main(argv) -> int:
    inputs = json.loads(argv[1])
    t0 = time.perf_counter()
    rl, models = setup(inputs)
    t1 = time.perf_counter()
    values = run_pass(rl, models, inputs)
    t2 = time.perf_counter()
    sys.stdout.write(json.dumps({"setup_s": t1 - t0, "pass_s": t2 - t1,
                                 "values": values}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
