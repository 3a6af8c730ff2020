import dataclasses
import math

import numpy as np
import pytest

from renyi_lab import (AnalyticModel, ConstraintError, TailDominanceError,
                       bernoulli_log_laplace, bernoulli_subgauss_constant,
                       convolve, dinf_clt_check, discretize, esscher,
                       infinite_order, gaussian_grid, laplace_eval, moment_summary,
                       periodic_clt_check, profile, quartic_classify,
                       renyi_tsallis, separation_check, sin_power_coefficients,
                       strict_subgauss_check)
from renyi_lab.grids import _spline
from renyi_lab.subgauss import MARGIN_BAND, _decayed_run
from conftest import SKEWED, model_of, pn_of, same_bits

STRICT_MODELS = [
    "normal",
    "uniform",
    "bernoulli_sym",
    {"kind": "bernoulli_sum", "params": {"weights": [0.8, 0.6]}},
    {"kind": "power_density", "params": {"d": 1}},
    {"kind": "power_density", "params": {"d": 3}},
    {"kind": "sin_power", "params": {"m": 4}},
    {"kind": "sin_power", "params": {"m": 6}},
    "counterexample_30_4",
    {"kind": "power_density", "params": {"d": 2}},
    {"kind": "bernoulli_sum", "params": {"weights": [0.6, 0.48, 0.64]}},
]


def test_profile_closed_form(uniform_model):
    prof = profile(uniform_model)
    assert prof.closed_form and prof.tail == "decaying"
    assert abs(prof.sigma2 - 1.0) < 1e-12
    t = np.linspace(-5, 5, 101)
    assert np.all(prof.A(t) >= -1e-12)
    assert abs(float(prof.K2(0.0)) - 1.0) < 1e-8


def test_strict_subgauss_zoo():
    for spec in STRICT_MODELS:
        report = strict_subgauss_check(profile(model_of(spec)))
        assert report.holds, (spec, report.verdict, report.witnesses[:2])


def test_strict_subgauss_moment_facts():
    # E X^3 = 0 and excess kurtosis <= 0 wherever the check holds
    for spec in STRICT_MODELS:
        model = model_of(spec)
        if model.cumulants is None or len(model.cumulants) < 4:
            continue
        s2 = model.cumulants[1]
        assert abs(model.cumulants[2]) < 1e-12, spec
        assert model.cumulants[3] <= 1e-12 * s2 * s2, spec


def test_strict_subgauss_failures():
    skew = profile(model_of({"kind": "bernoulli_asym", "params": {"p": 0.2}}))
    assert strict_subgauss_check(skew).verdict == "fails"
    heavy = profile(model_of({"kind": "gauss_scale_mixture",
                              "params": {"atoms": [[0.5, 0.5], [0.5, 1.5]]}}))
    assert strict_subgauss_check(heavy).verdict == "fails"
    # on a numeric profile only a margin at a spline node fails: skewed's
    # do, while the power densities (strict in closed form) dip below the
    # band between the nodes alone
    numeric = lambda spec: profile(dataclasses.replace(model_of(spec), log_laplace=None))
    assert strict_subgauss_check(numeric(SKEWED)).verdict == "fails"
    for d in (1, 2):
        report = strict_subgauss_check(numeric({"kind": "power_density", "params": {"d": d}}))
        assert report.verdict == "inconclusive", d
        assert report.witnesses and all(m < -MARGIN_BAND for _, m in report.witnesses), d


@pytest.mark.parametrize("c", [1e-11, 1e-9, 1e-8])
def test_strict_subgauss_decides_a_trig_model_from_its_period(c):
    # P(t) = sin^4 t cos t = cos t/8 - 3 cos 3t/16 + cos 5t/16 has minimum
    # -16/(25 sqrt 5), and A = -log(1 - cP) < 0 wherever P < 0, however
    # small c is; its margins here lie inside the scan's band
    prof = profile(model_of({"kind": "trig_periodic", "params": {
        "a": [0.125, 0.0, -0.1875, 0.0, 0.0625], "a0": 0.0, "c": c}}))
    report = strict_subgauss_check(prof)
    assert report.verdict == "fails"
    [(t, margin)] = report.witnesses
    assert 0.0 <= t <= 2.0 * math.pi
    assert abs(margin / (-c * 16.0 / (25.0 * math.sqrt(5.0))) - 1.0) < 1e-6
    clt = dinf_clt_check(prof)
    assert clt.verdict == "inconclusive" and clt.detail["precondition"] == "fails"


def test_separation_checks():
    uni = profile(model_of("uniform"))
    assert separation_check(uni, [0.5, 2.0, 10.0]).holds
    norm = profile(model_of("normal"))
    assert separation_check(norm, [1.0]).verdict == "inconclusive"
    per = profile(model_of("sin_power"))
    assert separation_check(per, [1.0]).verdict == "fails"


@pytest.mark.parametrize("t0", [0.0, -1.0, math.nan])
def test_separation_refuses_a_non_positive_t0(t0):
    with pytest.raises(ValueError, match="t0 must be positive"):
        separation_check(profile(model_of("uniform")), [1.0, t0])


def test_separation_says_which_t0_lies_beyond_the_profile():
    prof = profile(model_of(SKEWED))
    assert (prof.t_min, prof.t_max) == (-40.0, 40.0)
    report = separation_check(prof, [5.0, 50.0, 60.0])
    assert report.verdict == "inconclusive"
    assert len(report.witnesses) == 1  # t0 = 5 alone is scanned
    assert report.detail == {
        "tail": "decaying",
        "reason": "no scanned |t| reaches t0 = 50, 60; the profile spans [-40, 40]"}
    # a t0 inside the range gives no reason
    inside = separation_check(prof, [5.0])
    assert inside.verdict == "holds" and inside.detail == {"tail": "decaying"}


def test_dinf_clt_dichotomy():
    for spec in ("uniform", "bernoulli_sym",
                 {"kind": "power_density", "params": {"d": 1}},
                 {"kind": "sin_power", "params": {"m": 4}}):
        assert dinf_clt_check(profile(model_of(spec))).holds, spec
    bad = dinf_clt_check(profile(model_of("counterexample_30_4")))
    assert bad.verdict == "fails"
    assert any(abs(t - math.pi / 6.0) < 1e-6 for t in bad.zero_set)
    # P'' at the witness equals 2 Q'(pi/6)^2 = 3/2
    wit = min(bad.witnesses, key=lambda w: abs(w[0] - math.pi / 6.0))
    assert abs(wit[1] - 1.5) < 1e-6


def test_dinf_numeric_only_inconclusive():
    base = model_of({"kind": "power_density", "params": {"d": 1}})
    stripped = AnalyticModel(name="numeric-only", density=base.density,
                             cumulants=base.cumulants)
    report = dinf_clt_check(profile(stripped))
    assert report.verdict == "inconclusive"
    # a periodic tail without its trig component is as undecidable
    untrigged = dataclasses.replace(profile(model_of("sin_power")), trig=None)
    report = dinf_clt_check(untrigged)
    assert (report.verdict, report.detail["reason"]) == ("inconclusive",
                                                         "tail behavior unclassified")


# every zoo member with a density
DENSITY_ZOO = [
    "normal", "uniform", SKEWED, "sin_power", "counterexample_30_4",
    {"kind": "gauss_scale_mixture", "params": {"atoms": [[0.5, 0.6], [0.5, 1.4]]}},
    {"kind": "gauss_scale_mixture", "params": {"kappa": 1.5, "upper": 1.0}},
    {"kind": "power_density", "params": {"d": 1}},
    {"kind": "power_density", "params": {"d": 2}},
    {"kind": "power_density", "params": {"d": 3}},
    {"kind": "trig_periodic", "params": {"a": [4.0, -1.0]}},
]


def _full_scan(p, t_range, samples=2001):
    """The node table of the numeric profile as a scan of every t builds
    it: the nodes whose Laplace transform passes the decay gate."""
    ts, ks = [], []
    for t in np.linspace(*t_range, samples):
        try:
            ks.append(math.log(laplace_eval(p, float(t))))
            ts.append(float(t))
        except TailDominanceError:
            continue
    return np.asarray(ts), np.asarray(ks)


# a normal centred at 8 has not decayed at the right edge at t = 0: the
# search must bisect towards t < 0 before it finds the decayed run
SHIFTED = AnalyticModel(name="shifted normal",
                        density=lambda x: np.exp(-0.5 * (x - 8.0) ** 2) / math.sqrt(2 * math.pi))
# the default range on every member, ranges without 0, and ranges on
# which fewer than ten nodes pass
PROFILE_CASES = ([(spec, (-40.0, 40.0)) for spec in [*DENSITY_ZOO, SHIFTED]]
                 + [(spec, t_range) for spec in (SKEWED, {"kind": "power_density", "params": {"d": 2}})
                    for t_range in ((2.0, 30.0), (-35.0, -0.7), (5.0, 30.0))]
                 + [(SHIFTED, (-30.0, -2.0)), (SHIFTED, (-1.0, 30.0))])


def _case_id(v):
    if isinstance(v, tuple):
        return "{:g},{:g}".format(*v)
    return v if isinstance(v, str) else getattr(v, "name", None) or v["kind"]


@pytest.mark.parametrize("spec, t_range", PROFILE_CASES, ids=_case_id)
def test_numeric_profile_matches_full_scan(spec, t_range):
    # the walk's tilt recurrence keeps every node's gate decision and
    # moves K by rounding only: 1.4e-14 of max(1, |K|) over these cases
    model = spec if isinstance(spec, AnalyticModel) else model_of(spec)
    model = dataclasses.replace(model, log_laplace=None)
    p = discretize(model, 12.0, 1 << 14)
    ref_ts, ref_ks = _full_scan(p, t_range)
    ts, ks = _decayed_run(p, np.linspace(*t_range, 2001))
    assert same_bits(ts, ref_ts)
    tol = 1e-12 * np.maximum(1.0, np.abs(ref_ks))
    assert np.all(np.abs(np.asarray(ks) - ref_ks) <= tol)
    if t_range != (-40.0, 40.0):
        return  # profile scans the default range only
    spline = profile(model).K
    ref = _spline(ref_ts[0], 80.0 / 2000, ref_ks)
    assert spline.x0 == ref.x0 and spline.h == ref.h
    assert np.all(np.abs(spline.y - ref.y) <= tol)
    assert np.all(np.abs(spline.s - ref.s) <= tol.max() / ref.h)


def test_numeric_profile_evaluates_the_decayed_run_only(monkeypatch):
    # the numeric path imports the grid layer when it runs, so it reads
    # grids._gated_tilt, the exact tilt and decay gate, at the call
    import renyi_lab.grids as grids
    exact = grids._gated_tilt
    calls = []  # (t, the edge that failed the gate or None)

    def counted(p, t):
        w, edge = exact(p, t)
        calls.append((t, edge))
        return w, edge

    monkeypatch.setattr(grids, "_gated_tilt", counted)
    prof = profile(dataclasses.replace(model_of(SKEWED), log_laplace=None))
    # the run reaches the range's right end, so only its left end, the
    # node before the run's 1225, fails
    assert prof.t_max == 40.0 and len(prof.K.y) == 1225
    ts = np.linspace(-40.0, 40.0, 2001)
    assert [t for t, edge in calls if edge is not None] == [ts[2000 - 1225]]
    # one exact tilt for the search, one per 32 walked nodes and the
    # failing end: the recurrence carries every other node
    assert len(calls) == 1 + 1000 // 32 + 224 // 32 + 1


def test_numeric_profile_refuses_undecayed_density():
    # a flat density peaks at both window edges, so no t passes the gate
    flat = AnalyticModel(name="flat", density=lambda x: np.full_like(x, 1.0 / 24.0))
    p = discretize(flat, 12.0, 1 << 14)
    assert len(_full_scan(p, (-40.0, 40.0))[0]) == 0
    with pytest.raises(TailDominanceError) as info:
        laplace_eval(p, 0.0)
    assert info.value.edge == "both"
    with pytest.raises(ValueError, match="not evaluable on range"):
        profile(flat)


def test_periodic_clt_check_sin4():
    a0, a = sin_power_coefficients(4)
    rep = periodic_clt_check((a0, a, []), math.pi)
    assert rep.holds
    assert rep.detail["classification"] == "converges_with_rate"


def test_periodic_clt_check_counterexample():
    ce = model_of("counterexample_30_4")
    a0, a, b, _ = ce.meta["trig"]
    rep = periodic_clt_check((a0, list(a), list(b)), math.pi)
    assert rep.verdict == "fails"
    assert rep.detail["classification"] == "fails"
    ts = sorted(rep.zero_set)
    assert abs(ts[0] - math.pi / 6.0) < 1e-6
    assert abs(ts[1] - 5.0 * math.pi / 6.0) < 1e-6
    # the witness is P'' at each zero: 2 Q'^2 = 3/2 for P = Q^2
    assert [w for _, w in sorted(rep.witnesses)] == pytest.approx([1.5, 1.5], abs=1e-5)


def test_periodic_clt_check_constraints():
    a0, a = sin_power_coefficients(4)
    with pytest.raises(ValueError):
        periodic_clt_check((a0, a, []), 1.0)          # not a period
    with pytest.raises(ConstraintError):
        periodic_clt_check((a0 + 0.1, a, []), math.pi)  # P(0) != 0
    a0_2, a_2 = sin_power_coefficients(2)
    with pytest.raises(ConstraintError):
        periodic_clt_check((a0_2, a_2, []), math.pi)  # sum k^2 a_k != 0
    with pytest.raises(ConstraintError):
        periodic_clt_check((0.0, [], [1.0, -0.5]), 2.0 * math.pi)  # negative


def test_esscher_semigroup(uniform_grid):
    one = esscher(esscher(uniform_grid, 0.3), 0.4)
    two = esscher(uniform_grid, 0.7)
    assert np.max(np.abs(one.values - two.values)) < 1e-8


def test_esscher_convolution_multiplicative(uniform_grid):
    h = 0.5
    s = convolve(uniform_grid, uniform_grid)
    lhs = esscher(s, h)
    rhs = convolve(esscher(uniform_grid, h), esscher(uniform_grid, h))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-8


def test_esscher_stats_match_grid(uniform_model, uniform_grid):
    prof = profile(uniform_model)
    for h in (0.4, 1.5):
        # the tilted law's mean and variance are K'(h) and K''(h)
        mean = float((prof.K(h + 0.01) - prof.K(h - 0.01)) / 0.02)
        var = float(prof.K2(h))
        m = moment_summary(esscher(uniform_grid, h))
        # boundary-cell averaging of the uniform biases grid moments ~1e-5
        assert abs(mean - m.mean) < 1e-4, h
        assert abs(var - m.variance) < 1e-4, h


def test_esscher_shifts_gaussian(normal_grid):
    # tilting the standard normal by h is a mean shift
    tilted = esscher(normal_grid, 0.8)
    ref = gaussian_grid(normal_grid, mean=0.8)
    assert np.max(np.abs(tilted.values - ref.values)) < 1e-10


def test_esscher_tilt_bias_gate(uniform_grid):
    with pytest.raises(TailDominanceError):
        esscher(gaussian_grid(uniform_grid), 20.0)


def test_tilted_log_laplace_identity(uniform_model, uniform_grid):
    # K_h(t) = K(t+h) - K(h) for the tilted law
    prof = profile(uniform_model)
    h, t = 0.7, 0.9
    tilted = esscher(uniform_grid, h)
    lhs = math.log(laplace_eval(tilted, t))
    rhs = float(prof.K(t + h) - prof.K(h))
    assert abs(lhs - rhs) < 1e-6


def test_esscher_variance_lower_bound(uniform_model, uniform_grid):
    prof = profile(uniform_model)
    # sigma_h^2 >= (pi / 6 c^2) e^{-2 A(h)} with c = 1 + T_inf(p || phi)
    _, tinf = infinite_order(uniform_grid, gaussian_grid(uniform_grid))
    c = 1.0 + tinf
    for h in np.linspace(-3.0, 3.0, 13):
        var = float(prof.K2(h))
        bound = math.pi / (6.0 * c * c) * math.exp(-2.0 * float(prof.A(h)))
        assert var >= bound - 1e-9, h


def test_laplace_upper_bound_from_tsallis(uniform_model, uniform_grid):
    # E e^{tX} <= B e^{alpha* t^2/2}, B = (1 + (alpha-1) T_alpha)^(1/alpha)
    prof = profile(uniform_model)
    q = gaussian_grid(uniform_grid)
    for alpha in (1.5, 2.0, 3.0):
        _, t_a = renyi_tsallis(uniform_grid, q, alpha)
        b = (1.0 + (alpha - 1.0) * t_a.value) ** (1.0 / alpha)
        a_star = alpha / (alpha - 1.0)
        ts = np.linspace(-6.0, 6.0, 121)
        lhs = prof.K(ts)
        rhs = math.log(b) + 0.5 * a_star * ts * ts
        assert np.all(lhs <= rhs + 1e-10), alpha


def test_density_ratio_bound(uniform_model):
    # p_n(y)/phi(y) <= c sqrt(2) e^{-(n-1) A(y/sqrt n)}, c = 1 + T_inf(p||phi)
    prof = profile(uniform_model)
    p1 = pn_of("uniform", 1)
    _, tinf = infinite_order(p1, gaussian_grid(p1))
    c = 1.0 + tinf
    for n in (2, 8):
        p_n = pn_of("uniform", n)
        q = gaussian_grid(p_n)
        mask = p_n.values > 0
        ratio = p_n.values[mask] / q.values[mask]
        bound = c * math.sqrt(2.0) * np.exp(
            -(n - 1) * prof.A(p_n.x[mask] / math.sqrt(n)))
        assert np.all(ratio <= bound * (1.0 + 1e-6) + 1e-9), n


def test_tinf_uniform_bound(uniform_model):
    # T_inf(p_n || phi) <= sqrt(2)(1 + T_inf(p || phi)) - 1 for all n
    p1 = pn_of("uniform", 1)
    _, tinf1 = infinite_order(p1, gaussian_grid(p1))
    cap = math.sqrt(2.0) * (1.0 + tinf1) - 1.0
    for n in (2, 4, 8, 16):
        p_n = pn_of("uniform", n)
        _, tinf = infinite_order(p_n, gaussian_grid(p_n))
        assert tinf <= cap + 1e-9, n


def test_bernoulli_constant_closed_form():
    assert abs(bernoulli_subgauss_constant(0.5) - 0.25) < 1e-15
    for p in (0.05, 0.1, 0.3, 0.49999):
        sg = bernoulli_subgauss_constant(p)
        K = bernoulli_log_laplace(p)
        ts = np.linspace(1e-4, 60.0, 20001)
        sup = float(np.max(2.0 * K(ts) / ts ** 2))
        assert abs(sg - sup) < 1e-6, p
    with pytest.raises(ValueError):
        bernoulli_subgauss_constant(1.0)


def test_quartic_example_24_9():
    res = quartic_classify(math.sqrt(2.0 / 3.0), 1.0 / 3.0)
    assert res["is_characteristic_function"]
    assert res["is_strictly_subgaussian"]
    assert len(res["zero_angles"]) == 4
    for ang in res["zero_angles"]:
        assert abs(ang - math.pi / 8.0) < 1e-12


def test_quartic_regions():
    assert quartic_classify(0.5, 0.0)["is_characteristic_function"]
    assert not quartic_classify(1.2, 0.0)["is_characteristic_function"]
    assert not quartic_classify(0.3, 0.6)["is_characteristic_function"]
    assert not quartic_classify(0.1, 0.3)["is_characteristic_function"]
    mid = quartic_classify(0.9, 0.3)
    assert mid["is_characteristic_function"]
    assert mid["is_strictly_subgaussian"]  # 0.9 >= sqrt(0.6)
    weak = quartic_classify(0.45, 0.1)
    assert weak["is_characteristic_function"]
    assert weak["is_strictly_subgaussian"] == (0.45 >= math.sqrt(0.2))


def test_quartic_zeros_are_roots():
    for alpha, beta in ((0.9, 0.3), (math.sqrt(2.0 / 3.0), 1.0 / 3.0), (0.5, 0.0)):
        res = quartic_classify(alpha, beta)
        for z in res["zeros"]:
            val = 1.0 - alpha * z ** 2 + beta * z ** 4
            assert abs(val) < 1e-10, (alpha, beta, z)


def test_esscher_tilt_off_the_support(uniform_grid):
    # e^(60 x) overflows beyond x = 11.8, where the uniform grid is 0; the
    # tilted law's mean is K'(60) = sqrt(3) coth(60 sqrt(3)) - 1/60
    tilted = esscher(uniform_grid, 60.0)
    assert abs(tilted.mass - 1.0) < 1e-12 and tilted.meta["bias"] == 0.0
    mean = math.sqrt(3.0) / math.tanh(60.0 * math.sqrt(3.0)) - 1.0 / 60.0
    assert abs(moment_summary(tilted).mean - mean) < 1e-4


def test_esscher_overflow_on_the_support_names_the_edge():
    with pytest.raises(TailDominanceError, match="overflows") as info:
        esscher(pn_of(SKEWED, 1), -60.0)
    assert info.value.edge == "left"


def test_esscher_refuses_nan_t(uniform_grid):
    with pytest.raises(ValueError, match="NaN"):
        esscher(uniform_grid, math.nan)


def test_numeric_profile_beyond_the_exp_range(uniform_model):
    # t = +-80 overflows e^(tx) at the window's edges, off the support
    p = discretize(uniform_model, 12.0, 1 << 14)
    ts, ks = _decayed_run(p, np.linspace(-80.0, 80.0, 2001))
    assert (ts[0], ts[-1]) == (-80.0, 80.0)
    K = _spline(ts[0], 160.0 / 2000, ks)
    t = np.linspace(-80.0, 80.0, 1001)
    assert np.max(np.abs(K(t) - uniform_model.log_laplace(t))) < 1.2e-3
