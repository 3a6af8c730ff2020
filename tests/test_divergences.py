import math
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renyi_lab import (GridDensity, OscillationError, gaussian_grid, gaussian_smooth,
                       infinite_order, kl, pearson_vajda, relative_fisher,
                       renyi_tsallis, truncated_tsallis, tv_hellinger,
                       wasserstein2)
from renyi_lab.divergences import (_PAIR_SLOT, _pair_support, _power_ratio,
                                   _tail_estimate, pearson_vajda_result)
from conftest import SKEWED, model_of, pn_of, same_bits

ALPHAS = (0.5, 1.5, 2.0, 3.0)


def _gauss_pair(normal_grid, a=0.0, lam=1.0):
    return gaussian_grid(normal_grid, mean=a, var=lam), normal_grid


def smooth_zoo(normal_grid):
    """Smooth test densities paired with the standard normal grid."""
    pairs = [
        ("uniform Z_8", pn_of("uniform", 8)),
        ("power d=1", pn_of({"kind": "power_density", "params": {"d": 1}}, 1)),
        ("scale mixture", pn_of({"kind": "gauss_scale_mixture",
                                 "params": {"atoms": [[0.5, 0.7], [0.5, 1.3]]}}, 1)),
        ("sin4", pn_of("sin_power", 1)),
    ]
    return [(name, p, gaussian_grid(p)) for name, p in pairs]


def test_gaussian_kl_closed_form(normal_grid):
    # D(N(a, lam) || N(0, 1)) = a^2/2 + (lam - log lam - 1)/2
    a, lam = 0.3, 1.44
    p, q = _gauss_pair(normal_grid, a=a, lam=lam)
    target = 0.5 * a * a + 0.5 * (lam - math.log(lam) - 1.0)
    assert abs(kl(p, q) - target) < 1e-9


def test_gaussian_renyi_mean_shift(normal_grid):
    # D_alpha(N(a,1) || N(0,1)) = alpha a^2 / 2 for any order
    a = 0.4
    p, q = _gauss_pair(normal_grid, a=a)
    for alpha in ALPHAS:
        d, t = renyi_tsallis(p, q, alpha)
        assert abs(d.value - 0.5 * alpha * a * a) < 1e-9
        # T is the stated monotone transform of D
        implied = (math.exp((alpha - 1.0) * d.value) - 1.0) / (alpha - 1.0)
        assert abs(t.value - implied) < 1e-12 * (1.0 + abs(implied))


def test_kl_is_renyi_limit(normal_grid):
    p, q = _gauss_pair(normal_grid, a=0.3, lam=1.2)
    base = kl(p, q)
    d_lo, _ = renyi_tsallis(p, q, 1.0 - 1e-5)
    d_hi, _ = renyi_tsallis(p, q, 1.0 + 1e-5)
    assert d_lo.value <= base + 1e-7 <= d_hi.value + 2e-7
    assert abs(0.5 * (d_lo.value + d_hi.value) - base) < 1e-6


def test_kl_reads_the_pair_support(normal_grid):
    # kl builds the pair's support, and the order scan after it reuses it
    p, q = _fresh(pn_of("uniform", 2)), _fresh(normal_grid)
    m = p.values > 0.0
    want = float(p.step * np.sum(p.values[m] * (p.log_values[m] - q.log_values[m])))
    assert kl(p, q) == want
    slot = vars(p)[_PAIR_SLOT]
    assert slot[0]() is q
    renyi_tsallis(p, q, 2.0)
    assert vars(p)[_PAIR_SLOT][1] is slot[1]
    # p charges a cell where q is 0
    assert kl(q, p) == math.inf


def test_alpha_monotonicity(normal_grid):
    for name, p, q in smooth_zoo(normal_grid):
        vals = [renyi_tsallis(p, q, a)[0].value for a in ALPHAS]
        vals.append(infinite_order(p, q)[0])
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])), name


def test_infinite_order_transform(normal_grid):
    for name, p, q in smooth_zoo(normal_grid):
        dinf, tinf = infinite_order(p, q)
        assert abs(math.exp(dinf) - 1.0 - tinf) < 1e-12 * (1.0 + abs(tinf)), name


def test_infinite_order_degenerate_pairs(uniform_grid, normal_grid):
    # p charges cells where the narrow normal underflows below the floor
    assert infinite_order(uniform_grid, gaussian_grid(uniform_grid, var=1e-3)) == (
        math.inf, math.inf)
    null = GridDensity(uniform_grid.origin, uniform_grid.step, np.full(uniform_grid.n, 1e-310))
    with pytest.raises(ValueError, match="reference density vanishes on the whole window"):
        infinite_order(uniform_grid, null)
    # p/q underflows to 0 in every cell: D_inf = log 0 and T_inf = -1
    narrow = gaussian_grid(normal_grid, var=1e-3)
    tiny = np.zeros(normal_grid.n)
    tiny[normal_grid.n // 2] = 5e-324
    assert narrow.values[normal_grid.n // 2] > 1.0
    assert infinite_order(GridDensity(normal_grid.origin, normal_grid.step, tiny),
                          narrow) == (-math.inf, -1.0)


def test_hellinger_tsallis_half(normal_grid):
    for name, p, q in smooth_zoo(normal_grid):
        tv, h = tv_hellinger(p, q)
        _, t_half = renyi_tsallis(p, q, 0.5)
        assert abs(h * h - 0.5 * t_half.value) < 1e-10, name
        assert 0.0 <= tv <= 2.0


def _flat(lo, hi):
    """The flat density on cells lo..hi-1 of a 64-cell grid on [-1, 1]."""
    v = np.zeros(64)
    v[lo:hi] = 32.0 / (hi - lo)
    return GridDensity(-1.0, 2.0 / 64, v)


def test_chi1_equals_tv(normal_grid):
    for name, p, q in smooth_zoo(normal_grid):
        tv, _ = tv_hellinger(p, q)
        assert abs(pearson_vajda(p, q, 1.0) - tv) < 1e-12, name
    # p charges cells where q = 0: with 0^0 = 1 they add p, here mass 1/2
    p, q = _flat(16, 32), _flat(24, 40)
    tv, _ = tv_hellinger(p, q)
    assert tv == 1.0
    assert abs(pearson_vajda(p, q, 1.0) - tv) < 1e-12


@pytest.mark.parametrize("alpha", [0.5, 0.9])
def test_renyi_tsallis_mutually_singular(alpha):
    # no cell charges both: I = 0, so D = +inf and T = 1/(1 - alpha), exactly
    d, t = renyi_tsallis(_flat(16, 32), _flat(40, 56), alpha)
    assert (d.value, d.tail_bound) == (math.inf, 0.0)
    assert (t.value, t.tail_bound) == (1.0 / (1.0 - alpha), 0.0)


def test_chi_alpha_root_monotone(normal_grid):
    for name, p, q in smooth_zoo(normal_grid):
        roots = [pearson_vajda(p, q, a) ** (1.0 / a) for a in (1.0, 1.5, 2.0, 3.0)]
        assert all(b >= a - 1e-12 for a, b in zip(roots, roots[1:])), name


def test_tsallis_chi_equivalence_bounds(normal_grid):
    # upper: T_a <= ((1 + chi_a^(1/a))^a - 1)/(a-1); lower: the 3/16 and
    # a 3^-a variants on their respective alpha ranges
    for name, p, q in smooth_zoo(normal_grid):
        for alpha in (1.5, 2.0, 3.0):
            _, t = renyi_tsallis(p, q, alpha)
            chi = pearson_vajda(p, q, alpha)
            upper = ((1.0 + chi ** (1.0 / alpha)) ** alpha - 1.0) / (alpha - 1.0)
            assert t.value <= upper + 1e-10, name
            if alpha <= 2.0:
                lower = (3.0 / 16.0) * min(chi, chi ** (2.0 / alpha))
            else:
                lower = alpha * 3.0 ** (-alpha) * chi
            assert t.value >= lower - 1e-10, (name, alpha)


def test_pinsker(normal_grid):
    for name, p, q in smooth_zoo(normal_grid):
        tv, _ = tv_hellinger(p, q)
        assert kl(p, q) >= 0.5 * tv * tv - 1e-12, name


def test_gilardoni(normal_grid):
    for name, p, q in smooth_zoo(normal_grid):
        tv, _ = tv_hellinger(p, q)
        for alpha in (0.25, 0.5, 0.75):
            d, _ = renyi_tsallis(p, q, alpha)
            assert d.value >= 0.5 * alpha * tv * tv - 1e-12, name
            assert d.value <= tv / (1.0 - alpha) + 1e-12, name


def test_talagrand(normal_grid):
    for name, p, q in smooth_zoo(normal_grid):
        w2 = wasserstein2(p, q)
        assert kl(p, q) >= 0.5 * w2 * w2 - 1e-10, name


def test_log_sobolev(normal_grid):
    for name, p, q in smooth_zoo(normal_grid):
        if name == "uniform Z_8":
            continue  # support edge spoils the derivative estimates
        fisher = relative_fisher(p, q)
        assert kl(p, q) <= 0.5 * fisher + 1e-12, name


def test_relative_fisher_gaussian(normal_grid):
    p, q = _gauss_pair(normal_grid, a=0.5)
    assert abs(relative_fisher(p, q) - 0.25) < 1e-6
    p2, _ = _gauss_pair(normal_grid, lam=1.3)
    assert abs(relative_fisher(p2, q) - 0.09 / 1.3) < 1e-6


def test_relative_fisher_refusals(normal_grid):
    q = normal_grid
    spike = np.zeros(q.n)
    spike[q.n // 2 - 4:q.n // 2 + 4] = 1.0
    with pytest.raises(ValueError, match="window too small"):
        relative_fisher(GridDensity(q.origin, q.step, spike), q)
    holed = np.where(np.abs(q.x) < 0.5, 0.0, q.values)
    with pytest.raises(ValueError, match="vanishes inside the window"):
        relative_fisher(q, GridDensity(q.origin, q.step, holed))
    # every third cell 20% high: the 2nd- and 4th-order slopes disagree
    p4 = pn_of("uniform", 4)
    rough = p4.values * (1.0 + 0.2 * (np.arange(p4.n) % 3 == 0))
    with pytest.raises(OscillationError):
        relative_fisher(GridDensity(p4.origin, p4.step, rough), gaussian_grid(p4))


def test_de_bruijn(normal_grid):
    # D(X || Z) = int_0^1 I(X_t || Z) dt / (2t) along X_t = sqrt(t) X + sqrt(1-t) Z
    p = pn_of({"kind": "gauss_scale_mixture",
               "params": {"atoms": [[0.5, 0.7], [0.5, 1.3]]}}, 1)
    q = gaussian_grid(p)
    target = kl(p, q)
    ts, ws = np.polynomial.legendre.leggauss(24)
    ts = 0.5 * (ts + 1.0)
    ws = 0.5 * ws
    total = 0.0
    for t, w in zip(ts, ws):
        pt = gaussian_smooth(p, float(t)) if t < 1.0 else p
        total += w * relative_fisher(pt, q) / (2.0 * t)
    assert abs(total - target) < 0.02 * target


def test_heat_flow_contracts_divergences(normal_grid):
    p = pn_of({"kind": "power_density", "params": {"d": 1}}, 1)
    q = gaussian_grid(p)
    base_kl = kl(p, q)
    base_chi = pearson_vajda(p, q, 2.0)
    for t in (0.8, 0.5, 0.2):
        pt = gaussian_smooth(p, t)
        assert kl(pt, q) <= base_kl + 1e-10
        assert pearson_vajda(pt, q, 2.0) <= base_chi + 1e-10


def test_infinite_sentinels(normal_grid):
    # chi^2 against the normal blows up once the variance reaches 2
    p, q = _gauss_pair(normal_grid, lam=2.5)
    assert math.isinf(pearson_vajda(p, q, 2.0))
    d, t = renyi_tsallis(p, q, 2.0)
    assert math.isinf(d.value) and math.isinf(t.value)


def _gate_case(normal_grid, case):
    """(p, q) on which exactly one gate of the power-ratio integrand
    fires at alpha = 2, for renyi_tsallis and pearson_vajda alike."""
    p, q = normal_grid, normal_grid.values.copy()
    mid = len(q) // 2
    if case == "q-null cell":
        q[mid] = 0.0
    elif case == "past _HUGE":
        # 2 log p - log q = 690 > log 1e290, yet the integrand stays finite
        q[mid] = p.values[mid] ** 2 * math.exp(-690.0)
    else:  # undecayed edge: a wider normal against the standard one
        p = gaussian_grid(normal_grid, var=9.0)
    return p, GridDensity(normal_grid.origin, normal_grid.step, q)


GATE_CASES = ["q-null cell", "past _HUGE", "undecayed edge"]


@pytest.mark.parametrize("case", GATE_CASES)
@pytest.mark.parametrize("which", ["renyi_tsallis", "pearson_vajda"])
def test_power_ratio_gates(normal_grid, which, case):
    p, q = _gate_case(normal_grid, case)
    if which == "renyi_tsallis":
        d, t = renyi_tsallis(p, q, 2.0)
        assert math.isinf(d.value) and math.isinf(t.value)
        assert math.isinf(d.tail_bound)
    else:
        assert pearson_vajda(p, q, 2.0) == math.inf


def test_pearson_vajda_result_carries_its_tail(normal_grid):
    p = pn_of(SKEWED, 4)
    q = gaussian_grid(p)
    res = pearson_vajda_result(p, q, 2.0)
    assert res.value == pearson_vajda(p, q, 2.0)
    g = (p.values - q.values) ** 2 / q.values
    assert res.tail_bound > 0.0
    assert math.isclose(res.tail_bound, _tail_estimate(g, p.step), rel_tol=1e-12)
    for case in GATE_CASES:
        res = pearson_vajda_result(*_gate_case(normal_grid, case), 2.0)
        assert math.isinf(res.value) and math.isinf(res.tail_bound), case


# the 64 orders of the seed-0 D_alpha scan in perfbench's analytics pass
SCAN_ORDERS = [(i + 0.5) * 8.0 / 64 for i in range(64)]
SCAN_MODELS = [SKEWED, "uniform", {"kind": "power_density", "params": {"d": 1}},
               {"kind": "gauss_scale_mixture", "params": {"atoms": [[0.5, 0.6], [0.5, 1.4]]}}]


def _per_call_integrand(p, q, alpha):
    """renyi_tsallis's integrand as it was computed before a pair's
    support was shared across orders: masks, q-null flag and gathered
    logs on every call."""
    w, qv = p.values, q.values
    pos = w > 0.0
    if alpha > 1 and np.any(pos & (qv == 0.0)):
        return None
    m = pos & (qv > 0.0)
    lg = alpha * p.log_values[m] + (1.0 - alpha) * q.log_values[m]
    if np.any(lg > math.log(1e290)):
        return None
    g = np.zeros_like(w)
    g[m] = np.exp(lg)
    peak = g.max()
    if peak > 0 and max(g[0], g[-1]) > 1e-10 * peak:
        return None
    return g


def _assert_scan_matches_per_call(p, q, orders):
    for alpha in orders:
        ref = _per_call_integrand(p, q, alpha)
        g = _power_ratio(_pair_support(p, q), alpha)
        d, t = renyi_tsallis(p, q, alpha)
        if ref is None:
            assert g is None and math.isinf(d.value) and math.isinf(t.value)
            continue
        assert same_bits(g, ref)
        integral = float(p.step * ref.sum())
        inv = 1.0 / (alpha - 1.0)
        assert d.value == max(inv * math.log(integral), 0.0)
        assert t.value == max(inv * (integral - 1.0), 0.0)
        assert t.tail_bound == abs(inv) * _tail_estimate(ref, p.step)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("spec", SCAN_MODELS, ids=["skewed", "uniform", "power", "mixture"])
def test_order_scan_bitwise_per_call(spec, n):
    p = pn_of(spec, n)
    q = gaussian_grid(p)
    # q > 0 on the window, so the pair is scanned in place iff p's support
    # is one run (at n = 1 a cdf-sampled tail leaves isolated cells)
    support = np.flatnonzero(p.values)
    one_run = support[-1] - support[0] == len(support) - 1
    mid = int(np.argmax(p.values))
    gapped = _zeroed(p, slice(mid + 3, mid + 40))
    null_inside = _zeroed(q, slice(mid - 40, mid - 3))
    null_at_end = _zeroed(q, slice(support[-1] - 30, None))
    # an interior run of zeros, or q-null cells inside p's support, split
    # the cells, which are then scattered; q-null cells at the end of the
    # support split nothing
    for pair, run in [((p, q), one_run), ((gapped, q), False),
                      ((p, null_inside), False), ((p, null_at_end), one_run)]:
        _assert_scan_matches_per_call(*pair, SCAN_ORDERS)
        assert isinstance(_pair_support(*pair).cells, slice) == run


@pytest.mark.parametrize("case", GATE_CASES)
def test_order_scan_bitwise_per_call_on_gated_pairs(normal_grid, case):
    # each gate fires at the orders where the per-call integrand fired it,
    # with the support built by the scan's first order
    _assert_scan_matches_per_call(*_gate_case(normal_grid, case), SCAN_ORDERS)


def _fresh(g):
    return GridDensity(g.origin, g.step, g.values.copy())


def _zeroed(g, cells):
    v = g.values.copy()
    v[cells] = 0.0
    return GridDensity(g.origin, g.step, v)


def test_pair_support_follows_interleaved_pairs():
    p1 = pn_of("uniform", 2)
    p2 = pn_of({"kind": "power_density", "params": {"d": 1}}, 1)
    q1, q2 = gaussian_grid(p1), gaussian_grid(p2)
    wide = gaussian_grid(p1, var=1.2)
    for p, q in [(p1, q1), (p2, q2), (p1, q1), (p1, wide), (p1, q1), (p2, q1)]:
        for alpha in (0.5, 2.0, 3.5):
            got = renyi_tsallis(p, q, alpha)
            want = renyi_tsallis(_fresh(p), _fresh(q), alpha)
            assert got == want
        # the slot follows the pair of the last call
        assert vars(p)[_PAIR_SLOT][0]() is q


def test_pair_support_holds_no_reference(normal_grid):
    p, q = _fresh(pn_of("uniform", 2)), _fresh(normal_grid)
    before = renyi_tsallis(p, q, 2.0)
    assert _PAIR_SLOT in vars(p)
    p_ref, q_ref = weakref.ref(p), weakref.ref(q)
    del q
    assert q_ref() is None
    # a later q is never taken for the freed one, whatever its id
    q = gaussian_grid(p, var=1.1)
    assert renyi_tsallis(p, q, 2.0) == renyi_tsallis(_fresh(p), _fresh(q), 2.0)
    assert renyi_tsallis(p, q, 2.0) != before
    q_ref = weakref.ref(q)
    del p, q
    assert p_ref() is None and q_ref() is None


def test_pair_support_under_racing_threads(normal_grid):
    # threads that share p and alternate its q race on the support slot;
    # a support handed to the wrong pair changes the value
    p = pn_of("uniform", 4)
    qs = [normal_grid, gaussian_grid(p, var=1.2)]
    want = [renyi_tsallis(_fresh(p), _fresh(q), 2.5) for q in qs]

    def work(k):
        return all(renyi_tsallis(p, qs[(k + i) % 2], 2.5) == want[(k + i) % 2]
                   for i in range(200))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(work, k) for k in range(8)]
            done, pending = wait(futures, timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not pending and all(f.result() for f in done)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_non_finite_orders_raise(normal_grid, alpha):
    p = pn_of("uniform", 2)
    for fn in (renyi_tsallis, pearson_vajda):
        with pytest.raises(ValueError, match="finite") as info:
            fn(p, normal_grid, alpha)
        assert ("infinite_order" in str(info.value)) == (alpha == math.inf)


_PAIRINGS = {"renyi_tsallis": lambda p, q: renyi_tsallis(p, q, 2.0), "kl": kl,
             "tv_hellinger": tv_hellinger,
             "pearson_vajda_result": lambda p, q: pearson_vajda_result(p, q, 2.0),
             "infinite_order": infinite_order, "relative_fisher": relative_fisher}


@pytest.mark.parametrize("name", sorted(_PAIRINGS))
@pytest.mark.parametrize("differ", ["origin", "step", "length"])
def test_mismatched_grids_raise(name, differ):
    # the integrals pair the two densities cell by cell: a q on another
    # grid is refused, one off by less than 1e-12 of the step is not
    fn, p = _PAIRINGS[name], pn_of("uniform", 8)
    q = gaussian_grid(p)
    other = {"origin": GridDensity(q.origin + 1.0, q.step, q.values),
             "step": GridDensity(q.origin, q.step * (1.0 + 1e-9), q.values),
             "length": GridDensity(q.origin, q.step, q.values[:-1])}[differ]
    with pytest.raises(ValueError, match=f"grids differ in {differ}"):
        fn(p, other)
    near = GridDensity(q.origin + 0.5e-12 * q.step, q.step * (1.0 + 0.5e-12), q.values)
    assert fn(p, near) == fn(p, q)


def test_truncated_tsallis_ignores_q_null_outside_window():
    # on a +-45 window the normal underflows to 0 beyond |x| ~ 38.6, where
    # this wider normal is still positive; the |x| <= M window excludes it
    p = gaussian_grid(GridDensity(-45.0, 90.0 / 4096, np.ones(4096)), var=9.0)
    q = gaussian_grid(p)
    assert np.any((q.values == 0.0) & (p.values > 0.0))
    assert math.isinf(renyi_tsallis(p, q, 2.0)[1].value)
    window = np.abs(p.x) <= math.sqrt(2.0 * 3 * math.log(16))
    ref = p.step * np.sum(p.values[window] ** 2 / q.values[window]) - 1.0
    assert truncated_tsallis(p, 2.0, 4, 16) == pytest.approx(ref, rel=1e-12)
    # M = sqrt(2 * 99 * log 2000) = 38.79 reaches cells where q underflows
    assert math.isinf(truncated_tsallis(p, 2.0, 100, 2000))
