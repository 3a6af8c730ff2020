"""Command-line front door: wires models to the distance computations,
runs rate experiments over n, and emits machine-readable reports.

Exit codes: 0 success (or "holds" for checkers), 1 failure, 2
inconclusive, 3 argument error (a --model spec that cannot be read included).
"""

from __future__ import annotations

import argparse
import atexit
import csv
import functools
import gc
import io
import json
import math
import sys
from typing import TYPE_CHECKING

from .errors import LabError
from .reports import FAILS, HOLDS, INCONCLUSIVE, worst

if TYPE_CHECKING:
    from .grids import GridConfig

# Each command imports the numeric modules it runs at its top, in the main
# thread: `--help` or an unknown command loads no numpy, and `zoo` no divergence.

_EXIT = {HOLDS: 0, FAILS: 1, INCONCLUSIVE: 2}
# rate's distances: each is dist's T column at its Renyi order, None
# for renyi's own --alpha-value
_ORDERS = {"kl": 1.0, "chi2": 2.0, "renyi": None, "tinf": math.inf}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _parse_model(text: str):
    """--model's type: a kind name, or a JSON object given inline or as
    @file; an unreadable file or bad JSON is an argument error."""
    try:
        if text.startswith("@"):
            with open(text[1:]) as fh:
                text = fh.read()
        text = text.strip()
        return json.loads(text) if text.startswith("{") else text
    except (OSError, ValueError) as exc:  # bad JSON or bad UTF-8 is a ValueError
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_grid(text: str) -> GridConfig:
    w, _, n = text.partition("x")
    try:
        half_width, points = float(w), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError("grid must be WxN, e.g. 8x4096") from None
    from .grids import GridConfig
    try:
        return GridConfig(half_width, points)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _values(convert, what: str, ok=lambda v: True, many=False):
    """An argparse type for `what`: one value read by convert or, with
    many, a non-empty comma-separated list of them (empty items are
    skipped), each passing ok."""
    def parse(text: str):
        try:
            vals = [convert(v) for v in (text.split(",") if many else [text]) if v]
        except ValueError:
            vals = []
        if not vals or not all(map(ok, vals)):
            raise argparse.ArgumentTypeError(f"expected {what}; got {text!r}")
        return vals if many else vals[0]
    return parse


def _order_ok(alpha: float) -> bool:
    return not alpha <= 0  # inf passes, and NaN, which the divergences refuse (exit 1)


def _emit(rows, header, args):
    """Write rows as args.format, CSV (12 significant digits) or JSON, to
    args.out or stdout."""
    if args.format == "json":
        payload = [dict(zip(header, r)) for r in rows]
        text = json.dumps(payload, indent=2, default=float) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(header)
        for r in rows:
            w.writerow([_fmt(v) if isinstance(v, float) else v for v in r])
        text = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise LabError(f"cannot write {args.out!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _orders(p, q, alpha, chi2=False):
    """D_alpha, T_alpha and the tail bound of p from q; alpha = 1 is KL
    (D = T) and alpha = inf is D_inf, T_inf.  With chi2 (rate's chi2 row),
    T_2 is chi_2 = int (p - q)^2/q itself, which does not cancel as
    I_2 - 1 does, and D is not formed."""
    from .divergences import infinite_order, kl, pearson_vajda_result, renyi_tsallis
    if chi2:
        t = pearson_vajda_result(p, q, 2.0)
        return None, t.value, t.tail_bound
    if alpha == 1.0:
        d = kl(p, q)
        return d, d, 0.0
    if math.isinf(alpha):
        d, t = infinite_order(p, q)
        return d, t, 0.0
    d, t = renyi_tsallis(p, q, alpha)
    return d.value, t.value, t.tail_bound


def _cmd_dist(args) -> int:
    from .grids import gaussian_grid, normalized_sum_density
    from .models import make_model
    model = make_model(args.model)
    p = normalized_sum_density(model, args.n, args.grid)
    q = gaussian_grid(p)
    rows = [(alpha, *_orders(p, q, alpha)) for alpha in args.alpha]
    _emit(rows, ["alpha", "D_alpha", "T_alpha", "tail_bound"], args)
    return 0


def run_experiment(model, distance, n_values, grid=None, alpha=2.0) -> list:
    """One row per n of `distance` (a key of _ORDERS; renyi's order is
    alpha) for the model spec on the grid (None is GridConfig()): value,
    tail_bound, fitted constant, predicted constant, relative gap.

    The distances are those of S_n/(sigma sqrt(n)), sigma^2 the model's
    variance, and the constants are predicted from the standardized
    cumulants kappa_k/sigma^k.  One streaming pass of the convolution
    chain serves every n; each n's distance is taken as soon as its
    density is complete, before the pass squares on."""
    ns = tuple(int(n) for n in n_values)
    if any(b <= a for a, b in zip(ns, ns[1:])) or not ns:
        raise ValueError("n_values must be nonempty and strictly increasing")
    if distance not in _ORDERS:
        raise ValueError(f"unknown distance {distance!r}")
    if math.isnan(alpha):
        raise ValueError("alpha must not be NaN")
    from .models import make_model
    from .edgeworth import CumulantVector, expansion_constants, fit_leading_constant
    from .grids import gaussian_grid, sum_densities
    model = make_model(model)
    var = model.variance
    if var is None or not var > 0:
        raise LabError(f"model {model.name!r} has no positive variance to standardize by")
    order = _ORDERS[distance] or alpha
    results = [_orders(p, gaussian_grid(p), order, distance == "chi2")[1:]
               for p in sum_densities(model, ns, grid, math.sqrt(var))]
    values = [v for v, _ in results]
    gam = tuple(c / var ** (k / 2) for k, c in enumerate(model.cumulants, 1))
    const = expansion_constants(CumulantVector(gam))
    # T_alpha ~ (alpha/2) chi^2, and n chi^2 -> chi2_c1, or n^2 chi^2 ->
    # chi2_c2 when gamma_3 = 0; T_inf has no expansion constant
    if math.isinf(order):
        power, predicted = 0.0, math.nan
    else:
        power = 2.0 if const["chi2_c2_valid"] else 1.0
        predicted = 0.5 * order * const["chi2_c2" if power == 2.0 else "chi2_c1"]
    if all(math.isfinite(v) for v in values):
        fitted, _ = fit_leading_constant(ns, values, power)
    else:
        fitted = math.nan
    gap = abs(fitted - predicted) / abs(predicted) if predicted else math.nan
    return [(n, v, tb, fitted, predicted, gap)
            for n, (v, tb) in zip(ns, results)]


def _cmd_rate(args) -> int:
    rows = run_experiment(args.model, args.distance, args.n, args.grid, args.alpha_value)
    _emit(rows, ["n", "value", "tail_bound", "fitted_constant", "predicted_constant",
                 "relative_gap"], args)
    return 0


def _cmd_hermite(args) -> int:
    from .hermite import normal_moments
    from .models import make_model
    model = make_model(args.model)
    c = normal_moments(model, K=args.k)
    rows = [(k, c[k]) for k in range(len(c))]
    _emit(rows, ["k", "c_k"], args)
    return 0


def _cmd_edgeworth(args) -> int:
    from .edgeworth import CumulantVector, q_polynomial
    if args.model:
        from .models import make_model
        gam = CumulantVector(make_model(args.model).cumulants)
    else:
        gam = CumulantVector(tuple(args.gammas))
    rows = []
    for nu in range(1, args.m - 1):
        poly = q_polynomial(nu, gam)
        for deg in sorted(poly.coefficients):
            co = poly.coefficients[deg]
            if co:
                rows.append((nu, deg, co))
    _emit(rows, ["nu", "degree", "coefficient"], args)
    return 0


def _check_report(args, which) -> int:
    from .models import make_model
    from .subgauss import dinf_clt_check, profile, separation_check, strict_subgauss_check
    model = make_model(args.model)
    prof = profile(model)
    if which == "subgauss":
        report = strict_subgauss_check(prof)
        if args.t0:
            sep = separation_check(prof, args.t0)
            verdict = worst((report.verdict, sep.verdict))
            payload = {"strict": report.to_dict(), "separation": sep.to_dict(),
                       "verdict": verdict}
            sys.stdout.write(json.dumps(payload, indent=2, default=float) + "\n")
            return _EXIT[verdict]
    else:
        report = dinf_clt_check(prof)
    sys.stdout.write(json.dumps(report.to_dict(), indent=2, default=float) + "\n")
    return _EXIT[report.verdict]


def _cmd_zoo(args) -> int:
    if args.action == "list" and not args.model:
        from .zoo import MODEL_DOCS
        for kind in sorted(MODEL_DOCS):
            print(f"{kind}: {MODEL_DOCS[kind]}")
        return 0
    from .models import make_model
    model = make_model(args.model)
    info = {"name": model.name,
            "cumulants": list(model.cumulants) if model.cumulants else None,
            "has_density": model.density is not None,
            "has_log_laplace": model.log_laplace is not None,
            "meta": {k: v for k, v in model.meta.items()
                     if isinstance(v, (int, float, str, tuple, list))}}
    sys.stdout.write(json.dumps(info, indent=2, default=str) + "\n")
    return 0


def _add_common(sub, grid=False):
    if grid:
        sub.add_argument("--grid", type=_parse_grid, default=None,
                         help="window as WxN, e.g. 8x4096")
    sub.add_argument("--out", default=None)
    sub.add_argument("--format", default="csv", choices=["csv", "json"])
    sub.add_argument("--json", action="store_const", dest="format", const="json",
                     help="shortcut for --format json")


def build_parser() -> _Parser:
    ap = _Parser(prog="renyi-lab", description=__doc__)
    sp = ap.add_subparsers(dest="command", required=True)

    d = sp.add_parser("dist", help="divergences of Z_n from the standard normal")
    d.add_argument("--model", type=_parse_model, required=True)
    d.add_argument("--alpha", type=_values(float, "comma-separated positive numbers, e.g. "
                                           "1,2,inf", _order_ok, many=True),
                   default="2", help="comma-separated orders; 1 means KL, inf allowed")
    d.add_argument("--n", type=_values(int, "a positive integer", lambda n: n > 0), default=1)
    _add_common(d, grid=True)
    d.set_defaults(fn=_cmd_dist)

    r = sp.add_parser("rate", help="distance decay over a list of n")
    r.add_argument("--model", type=_parse_model, required=True)
    r.add_argument("--distance", default="chi2", choices=list(_ORDERS))
    r.add_argument("--alpha-value", type=_values(float, "a positive number", _order_ok),
                   default=2.0)
    r.add_argument("--n", type=_values(int, "comma-separated positive integers, e.g. 16,32,64",
                                       lambda n: n > 0, many=True),
                   default="16,32,64", help="comma-separated, strictly increasing")
    _add_common(r, grid=True)
    r.set_defaults(fn=_cmd_rate)

    h = sp.add_parser("hermite", help="normal moments c_k = E H_k(X)")
    h.add_argument("--model", type=_parse_model, required=True)
    h.add_argument("--k", type=_values(int, "a non-negative integer", lambda k: k >= 0),
                   default=40)
    _add_common(h)
    h.set_defaults(fn=_cmd_hermite)

    e = sp.add_parser("edgeworth", help="correction polynomial coefficients")
    source = e.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", type=_parse_model)
    source.add_argument("--gammas", type=_values(float, "comma-separated numbers, e.g. 0,1,0.6",
                                                 many=True),
                        help="comma-separated cumulants gamma_1,...")
    e.add_argument("--m", type=_values(int, "an integer of at least 3", lambda m: m >= 3),
                   default=4, help="expansion order, at least 3 (emits q_1..q_{m-2})")
    _add_common(e)
    e.set_defaults(fn=_cmd_edgeworth)

    cs = sp.add_parser("check-subgauss", help="strict subgaussianity checker")
    cs.add_argument("--model", type=_parse_model, required=True)
    cs.add_argument("--t0", type=_values(float, "comma-separated positive finite numbers, "
                                         "e.g. 0.5,1,2", lambda t: 0 < t < math.inf, many=True),
                    default=None, help="also run the separation check at these t0")
    cs.set_defaults(fn=lambda a: _check_report(a, "subgauss"))

    cd = sp.add_parser("check-clt-dinf", help="CLT-in-D_inf condition checker")
    cd.add_argument("--model", type=_parse_model, required=True)
    cd.set_defaults(fn=lambda a: _check_report(a, "dinf"))

    z = sp.add_parser("zoo", help="list models or describe one")
    z.add_argument("action", nargs="?", default="list", choices=["list", "describe"])
    z.add_argument("--model", type=_parse_model, default=None)
    z.set_defaults(fn=_cmd_zoo)
    return ap


@functools.cache
def _freeze_heap_at_exit() -> None:
    """Interpreter shutdown runs full collections over a heap that the
    process frees anyway; frozen at exit, that heap is skipped.  Once
    per process, and the collector is left alone until then."""
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_heap_at_exit()
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "zoo" and args.model is None and args.action != "list":
        ap.exit(3, f"renyi-lab: error: zoo {args.action} needs --model\n")
    try:
        return args.fn(args)
    except (LabError, ValueError) as exc:
        print(f"renyi-lab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
