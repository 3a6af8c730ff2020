"""Per-layer metrics from the spans of a traced pass.

A span is (name, thread id, start, end, parent index, info) as written
by trace_shim.py.  Busy time (`.s`) sums span durations over all
threads; self time (`.self_s`) is a span's duration minus the union of
its children's intervals, children in pool threads included.
"""

from __future__ import annotations

# (module, function) wrapped by the shim; the span name is "module.function"
TRACED = [
    ("grids", "convolve"), ("grids", "normalized_sum_density"),
    ("grids", "discretize"), ("grids", "wasserstein2"), ("grids", "laplace_eval"),
    ("divergences", "renyi_tsallis"), ("divergences", "kl"),
    ("divergences", "pearson_vajda"), ("divergences", "infinite_order"),
    ("divergences", "relative_fisher"),
    ("hermite", "normal_moments"), ("hermite", "hermite_eval"),
    ("hermite", "chi2_from_normal_moments"),
    ("edgeworth", "q_polynomial"), ("edgeworth", "truncated_tsallis"),
    ("edgeworth", "fit_leading_constant"),
    ("subgauss", "profile"), ("subgauss", "strict_subgauss_check"),
    ("subgauss", "separation_check"), ("subgauss", "dinf_clt_check"),
    ("models", "make_model"),
    ("cli", "main"), ("cli", "run_experiment"),
]

CHECKERS = ("subgauss.strict_subgauss_check", "subgauss.separation_check",
            "subgauss.dinf_clt_check")

# spans reported by their busy time only
_BUSY = ["grids.discretize", "grids.wasserstein2", "divergences.kl",
         "divergences.pearson_vajda", "divergences.infinite_order",
         "divergences.relative_fisher", "hermite.chi2_from_normal_moments",
         "edgeworth.q_polynomial", "edgeworth.truncated_tsallis",
         "edgeworth.fit_leading_constant", "subgauss.profile",
         "subgauss.strict_subgauss_check", "subgauss.separation_check",
         "subgauss.dinf_clt_check", "models.make_model", "cli.main"]

IMPORT_MODULES = ("scipy.signal", "scipy.interpolate", "scipy.optimize", "scipy.special")

# every per-layer metric, in the order the runner reports them
PER_LAYER = [
    "grids.convolve.s", "grids.convolve.calls", "grids.convolve.max_len", "grids.convolve.bytes",
    "grids.normalized_sum_density.s", "grids.normalized_sum_density.calls",
    "grids.normalized_sum_density.self_s", "grids.discretize.s", "grids.wasserstein2.s",
    "divergences.renyi_tsallis.s", "divergences.renyi_tsallis.calls",
    "divergences.renyi_tsallis.inf", "divergences.kl.s", "divergences.pearson_vajda.s",
    "divergences.infinite_order.s", "divergences.relative_fisher.s",
    "hermite.normal_moments.s", "hermite.normal_moments.calls", "hermite.hermite_eval.calls",
    "hermite.chi2_from_normal_moments.s", "hermite.chi2_from_normal_moments.series_errors",
    "edgeworth.q_polynomial.s", "edgeworth.truncated_tsallis.s",
    "edgeworth.fit_leading_constant.s",
    "subgauss.profile.s", "subgauss.laplace_eval.calls", "subgauss.strict_subgauss_check.s",
    "subgauss.separation_check.s", "subgauss.dinf_clt_check.s", "subgauss.inconclusive",
    "models.make_model.s",
    "cli.import_s", "cli.import.scipy_signal_s", "cli.import.scipy_interpolate_s",
    "cli.import.scipy_optimize_s", "cli.import.scipy_special_s",
    "cli.main.s", "cli.run_experiment.self_s", "cli.cpu_s", "trace.overhead_s",
]


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def span_metrics(spans: list) -> dict:
    """Per-layer statistics of one traced pass (spans of all its processes).

    Span indices are local to a process, so each process's spans come as
    a separate list.
    """
    busy, calls, self_s = {}, {}, {}
    conv_max_len = conv_bytes = renyi_inf = series_errors = inconclusive = 0
    for proc_spans in spans:
        children = {}
        proc_spans = [s if s is not None else ("open", 0, 0.0, 0.0, None, {}) for s in proc_spans]
        for name, _tid, t0, t1, parent, info in proc_spans:
            if parent is not None:
                children.setdefault(parent, []).append((t0, t1))
        for idx, (name, _tid, t0, t1, parent, info) in enumerate(proc_spans):
            busy[name] = busy.get(name, 0.0) + (t1 - t0)
            calls[name] = calls.get(name, 0) + 1
            covered = _union_length([(max(a, t0), min(b, t1)) for a, b in children.get(idx, [])
                                     if b > t0 and a < t1])
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - covered
            if name == "grids.convolve":
                conv_max_len = max(conv_max_len, info.get("out_len", 0))
                conv_bytes += info.get("bytes", 0)
            elif name == "divergences.renyi_tsallis" and info.get("inf"):
                renyi_inf += 1
            elif name == "hermite.chi2_from_normal_moments" and info.get("error") == "SeriesError":
                series_errors += 1
            elif name in CHECKERS and info.get("verdict") == "inconclusive":
                inconclusive += 1
    out = {
        "grids.convolve.s": (busy.get("grids.convolve", 0.0), "s"),
        "grids.convolve.calls": (calls.get("grids.convolve", 0), "count"),
        "grids.convolve.max_len": (conv_max_len, "points"),
        "grids.convolve.bytes": (conv_bytes, "bytes_computed"),
        "grids.normalized_sum_density.s": (busy.get("grids.normalized_sum_density", 0.0), "s"),
        "grids.normalized_sum_density.calls": (calls.get("grids.normalized_sum_density", 0), "count"),
        "grids.normalized_sum_density.self_s": (self_s.get("grids.normalized_sum_density", 0.0), "s"),
        "divergences.renyi_tsallis.s": (busy.get("divergences.renyi_tsallis", 0.0), "s"),
        "divergences.renyi_tsallis.calls": (calls.get("divergences.renyi_tsallis", 0), "count"),
        "divergences.renyi_tsallis.inf": (renyi_inf, "count"),
        "hermite.normal_moments.s": (busy.get("hermite.normal_moments", 0.0), "s"),
        "hermite.normal_moments.calls": (calls.get("hermite.normal_moments", 0), "count"),
        "hermite.hermite_eval.calls": (calls.get("hermite.hermite_eval", 0), "count"),
        "hermite.chi2_from_normal_moments.series_errors": (series_errors, "count"),
        "subgauss.laplace_eval.calls": (calls.get("grids.laplace_eval", 0), "count"),
        "subgauss.inconclusive": (inconclusive, "count"),
        "cli.run_experiment.self_s": (self_s.get("cli.run_experiment", 0.0), "s"),
    }
    for name in _BUSY:
        out[name + ".s"] = (busy.get(name, 0.0), "s")
    return out


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds of `renyi_lab*` top-level entries and of the
    scipy submodules, from `python -X importtime` output."""
    total, found = 0.0, {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        seconds = int(cumulative) * 1e-6
        level = (len(name) - len(name.lstrip()) - 1) // 2
        mod = name.strip()
        if level == 0 and (mod == "renyi_lab" or mod.startswith("renyi_lab.")):
            total += seconds
        if mod in IMPORT_MODULES and mod not in found:
            found[mod] = seconds
    out = {"cli.import_s": total}
    for mod in IMPORT_MODULES:
        out["cli.import." + mod.replace(".", "_") + "_s"] = found.get(mod, 0.0)
    return out
