"""Correctness gate: every check counts as attempted, and a check that
does not hold counts as failed.

Two kinds of checks run:
- invariants that hold for every seed (exit codes, verdicts fixed by
  construction, closed forms, identities between divergences);
- for seed 0, agreement of every number in every output with the
  outputs recorded at the seed commit (baseline_seed0.json).  Numbers
  are compared as parsed floats within RTOL/ATOL and the surrounding
  text must match exactly, so a legitimate last-digit change passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

from analytics import MIXTURE_ATOMS
from inputs import N_SWEEP, skewed_gamma3

RTOL, ATOL = 1e-6, 1e-12
GAP_TOL = 2e-3          # rate: |fitted - predicted| / predicted
CLOSED_FORM_RTOL = 1e-5  # grid value against a closed form or series
ORDER_RTOL = 1e-9        # slack for orderings and identities of grid sums

ZOO_KINDS = sorted([
    "normal", "uniform", "bernoulli_sym", "bernoulli_asym", "bernoulli_sum",
    "gauss_scale_mixture", "power_density", "bernoulli_gauss", "trig_periodic",
    "sin_power", "counterexample_30_4"])

EXPECTED_EXIT = {"check-subgauss-skewed": 1, "clt-counterexample_30_4": 1}

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)


def _close(a, b, rel, abs_tol=0.0) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)


def same_numbers(gate: Gate, label: str, expected: str, actual: str) -> None:
    """Text identical outside numbers; numbers equal within RTOL/ATOL."""
    e_nums, a_nums = _NUMBER.findall(expected), _NUMBER.findall(actual)
    if _NUMBER.sub("#", expected) != _NUMBER.sub("#", actual) or len(e_nums) != len(a_nums):
        gate.check(False, f"{label}: output layout differs from the seed-0 baseline")
        return
    for i, (e, a) in enumerate(zip(e_nums, a_nums)):
        if not _close(e, a, RTOL, ATOL):
            gate.check(False, f"{label}: number #{i} is {a}, baseline {e}")
            return
    gate.check(True, label)


def canonical_json(values) -> str:
    return json.dumps(values, sort_keys=True)


def _rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------- rate

def check_rate(gate: Gate, key: str, stdout: str, inputs) -> None:
    rows = _rows(stdout)
    ns = [int(r["n"]) for r in rows]
    if not gate.check(ns == [int(n) for n in N_SWEEP.split(",")], f"{key}: n column {ns}"):
        return
    vals = [float(r["value"]) for r in rows]
    gate.check(all(math.isfinite(v) and v > 0 for v in vals), f"{key}: nonpositive value")
    gate.check(all(b < a for a, b in zip(vals, vals[1:])), f"{key}: values not decreasing in n")
    gap = float(rows[0]["relative_gap"])
    gate.check(gap <= GAP_TOL, f"{key}: relative_gap {gap:g} > {GAP_TOL:g}")
    if key == "rate-skewed-kl":
        predicted = skewed_gamma3(inputs.p, inputs.beta) ** 2 / 12.0
    else:
        predicted = (6.0 / 5.0) ** 2 / 24.0   # uniform: gamma4^2 / 24
    got = float(rows[0]["predicted_constant"])
    gate.check(_close(got, predicted, 1e-10), f"{key}: predicted constant {got!r} != {predicted!r}")


# ----------------------------------------------------------- cli-short

def _zoo_list(gate, key, out, inputs):
    kinds = [line.split(":", 1)[0] for line in out.splitlines()]
    gate.check(kinds == ZOO_KINDS, f"{key}: kinds {kinds}")


def _zoo_sin_power(gate, key, out, inputs):
    info = json.loads(out)
    gate.check(info["name"] == "sin_power(m=4)" and info["has_density"]
               and info["has_log_laplace"], f"{key}: {info['name']}")
    meta = info["meta"]
    gate.check(_close(meta["period"], math.pi, 1e-12), f"{key}: period {meta['period']}")
    gate.check(_close(meta["trig"][3], 0.5 * meta["c_max"], 1e-12), f"{key}: c != c_max/2")


def _edgeworth(gate, key, out, inputs):
    coef = {(int(r["nu"]), int(r["degree"])): float(r["coefficient"]) for r in _rows(out)}
    g3, g4 = 0.6, 0.4
    # q_1 = g3/6 H_3, q_2 = g4/24 H_4 + g3^2/72 H_6
    expected = {(1, 3): g3 / 6, (1, 1): -g3 / 2, (2, 6): g3 * g3 / 72,
                (2, 4): g4 / 24 - 15 * g3 * g3 / 72}
    for k, v in expected.items():
        gate.check(k in coef and _close(coef[k], v, 1e-10), f"{key}: q_{k[0]} x^{k[1]}")


def _hermite_uniform(gate, key, out, inputs):
    c = [float(r["c_k"]) for r in _rows(out)]
    if not gate.check(len(c) == 41, f"{key}: {len(c)} rows"):
        return
    gate.check(c[0] == 1.0 and abs(c[2]) < 1e-12, f"{key}: c_0, c_2")
    gate.check(_close(c[4], -1.2, 1e-9), f"{key}: c_4 = {c[4]} (gamma_4 = -6/5)")
    odd_ok = all(abs(c[k]) <= 1e-9 * (1 + abs(c[k - 1]) + abs(c[k + 1])) for k in range(1, 40, 2))
    gate.check(odd_ok, f"{key}: odd normal moments of a symmetric law not ~0")


def _dist_uniform(gate, key, out, inputs):
    rows = {r["alpha"]: r for r in _rows(out)}
    if not gate.check(set(rows) == {"1", "2", "inf"}, f"{key}: orders {sorted(rows)}"):
        return
    d = {a: float(r["D_alpha"]) for a, r in rows.items()}
    t = {a: float(r["T_alpha"]) for a, r in rows.items()}
    gate.check(all(math.isfinite(v) and v > 0 for v in d.values()), f"{key}: D not finite positive")
    gate.check(d["1"] <= d["2"] <= d["inf"], f"{key}: D_alpha not nondecreasing {d}")
    for a in ("2", "inf"):
        gate.check(_close(t[a], math.expm1(d[a]), 1e-8), f"{key}: T_{a} != exp(D_{a}) - 1")


def _subgauss_skewed(gate, key, out, inputs):
    rep = json.loads(out)
    gate.check(rep["verdict"] == "fails", f"{key}: verdict {rep['verdict']}")
    g3 = skewed_gamma3(inputs.p, inputs.beta)
    gate.check(_close(rep["detail"]["gamma3"], g3, 1e-9), f"{key}: gamma3 {rep['detail']['gamma3']}")


def _clt_counterexample(gate, key, out, inputs):
    rep = json.loads(out)
    gate.check(rep["verdict"] == "fails", f"{key}: verdict {rep['verdict']}")
    zs = rep["zero_set"]
    gate.check(len(zs) == 2 and abs(zs[0] - math.pi / 6) < 1e-6 and abs(zs[1] - 5 * math.pi / 6) < 1e-6,
               f"{key}: zero set {zs}")
    gate.check(all(_close(m, 1.5, 1e-5) for _, m in rep["witnesses"]), f"{key}: P'' at the zeros")


def _clt_sin_power(gate, key, out, inputs):
    rep = json.loads(out)
    gate.check(rep["verdict"] == "holds"
               and rep["detail"]["classification"] == "converges_with_rate",
               f"{key}: {rep['verdict']} {rep['detail'].get('classification')}")


CLI_CHECKS = {
    "zoo-list": _zoo_list,
    "zoo-sin_power": _zoo_sin_power,
    "edgeworth": _edgeworth,
    "hermite-uniform": _hermite_uniform,
    "dist-uniform": _dist_uniform,
    "check-subgauss-skewed": _subgauss_skewed,
    "clt-counterexample_30_4": _clt_counterexample,
    "clt-sin_power": _clt_sin_power,
    "rate-skewed-kl": check_rate,
    "rate-uniform-chi2": check_rate,
}


def check_command(gate: Gate, key: str, returncode: int, stdout: str, inputs) -> None:
    want = EXPECTED_EXIT.get(key, 0)
    if gate.check(returncode == want, f"{key}: exit code {returncode}, expected {want}"):
        try:
            CLI_CHECKS[key](gate, key, stdout, inputs)
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            gate.check(False, f"{key}: unparseable output ({exc!r})")


# ----------------------------------------------------------- analytics

def mixture_chi2_closed_form(atoms) -> float:
    """1 + chi^2 = sum_ij w_i w_j (s_i + s_j - s_i s_j)^(-1/2)."""
    return sum(wi * wj / math.sqrt(si + sj - si * sj)
               for wi, si in atoms for wj, sj in atoms) - 1.0


def _le(a, b) -> bool:
    """a <= b up to the rounding of grid sums."""
    return a <= b + ORDER_RTOL * abs(b) + 1e-15


def check_analytics(gate: Gate, values: dict, inputs) -> None:
    alphas = inputs.alphas
    for label, r in values["pn"].items():
        d = r["D_alpha"]
        gate.check(all(_le(a, b) for a, b in zip(d, d[1:])), f"{label}: D_alpha decreases in alpha")
        below = [v for a, v in zip(alphas, d) if a < 1]
        above = [v for a, v in zip(alphas, d) if a > 1]
        gate.check(_le(max(below), r["kl"]) and _le(r["kl"], min(above)),
                   f"{label}: KL outside [D_alpha<1, D_alpha>1]")
        gate.check(_le(r["kl"], r["D_2"]), f"{label}: KL > D_2")
    chi2_pd = values["pn"]["power_density.n1"]["chi2"]
    gate.check(_close(chi2_pd, 2.0, CLOSED_FORM_RTOL), f"power_density chi2 {chi2_pd} != 2")
    chi2_mix = values["pn"]["mixture.n1"]["chi2"]
    lib = values["mixture_chi2"]
    gate.check(_close(lib, mixture_chi2_closed_form(MIXTURE_ATOMS), 1e-12), f"mixture_chi2 {lib}")
    gate.check(_close(chi2_mix, lib, CLOSED_FORM_RTOL), f"mixture grid chi2 {chi2_mix} != {lib}")
    m = values["moments"]
    parseval = m["skewed"].get("chi2", math.nan)
    grid = values["pn"]["skewed.n1"]["chi2"]
    gate.check(_close(parseval, grid, CLOSED_FORM_RTOL), f"skewed Parseval chi2 {parseval} != grid {grid}")
    gate.check(_close(m["uniform"]["c"][4], -1.2, 1e-9), "uniform c_4 != -6/5")
    gate.check(_close(m["skewed"]["c"][3], skewed_gamma3(inputs.p, inputs.beta), 1e-6),
               "skewed c_3 != gamma_3")
    gate.check(_close(m["power_density"].get("chi2", math.nan), 2.0, 1e-9), "power_density Parseval chi2 != 2")
    verdicts = {(name, chk): rep["verdict"] for name, reps in values["checkers"].items()
                for chk, rep in reps.items()}
    fixed = {("uniform", "strict"): "holds", ("uniform", "separation"): "holds",
             ("uniform", "dinf"): "holds", ("skewed", "strict"): "fails",
             ("skewed_numeric", "strict"): "fails",
             ("counterexample_30_4", "dinf"): "fails", ("sin_power", "dinf"): "holds"}
    for k, want in fixed.items():
        gate.check(verdicts.get(k) == want, f"{k[0]} {k[1]}: verdict {verdicts.get(k)}, expected {want}")
    q2 = values["q_polynomial"]["2"]
    gate.check(_close(q2["4"], -1.2 / 24, 1e-12), "q_2 x^4 != gamma_4/24")
