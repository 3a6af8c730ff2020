"""renyi-lab benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload rate-sweep|cli-short|analytics|all
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--record-baseline]

Run from the repository root.  The program is used from outside only:
`renyi-lab` commands run as fresh interpreters on the checkout's `src/`
(the console-script entry point `renyi_lab.cli:main`), and the analytics
workload is a fresh process that imports `renyi_lab`.  One client sends
one command or call at a time (closed loop).  RENYI_LAB_THREADS is set
to the number of usable cores.

With --trace 0 the run measures for about --seconds seconds (whole
passes, at least one) and reports wall_s, setup_s and peak_rss_mb, and
prints cmd_p50_s.  With --trace 1 it runs untraced and traced passes
alternately and reports the per-layer metrics (see README.md).  Outputs are checked
in both modes; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import layers
from inputs import CLI_SHORT, RATE_SWEEP, make_inputs

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
BASELINE = BENCH / "baseline_seed0.json"
PYTHON = sys.executable
ENTRY = "import sys; from renyi_lab.cli import main; sys.exit(main())"
RESOLVE = "import renyi_lab.cli as c; print(c.__file__); print(callable(c.main))"

WORKLOADS = ("rate-sweep", "cli-short", "analytics")
SETUP_REPEATS = 3        # set-ups per run of a subprocess workload
MIN_PASSES = {"rate-sweep": 1, "cli-short": 1, "analytics": 3}
RUN_LIMIT_S = 170.0      # a run never starts a process it could not finish by then
IMPORT_REPEATS = 3
TRACE_PAIRS = {"rate-sweep": 2, "cli-short": 2, "analytics": 4}  # untraced/traced pass pairs

class SetupError(Exception):
    """The checkout cannot run the benchmark (no program, wrong import)."""


@dataclass
class Proc:
    key: str
    returncode: int
    stdout: str
    wall_s: float
    maxrss_mb: float
    cpu_s: float


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def provenance() -> dict:
    info = {"nproc": _usable_cores(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "platform": platform.platform()}
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = None
    try:
        with open("/proc/meminfo") as fh:
            info["mem_total_kb"] = next(int(line.split()[1]) for line in fh
                                        if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        info["mem_total_kb"] = None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}_{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches_cpu0"] = caches
    info["git_commit"] = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if res.returncode == 0:
            info["git_commit"] = res.stdout.strip()
    return info


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, record: bool):
        self.workload = workload
        self.inputs = make_inputs(seed)
        self.gate = checks.Gate()
        self.t_start = time.perf_counter()
        self.outputs = {}
        self.compare = None
        if seed == 0 and not record:
            try:
                self.compare = json.loads(BASELINE.read_text())["outputs"]
            except (OSError, ValueError, KeyError):
                self.gate.check(False, f"seed-0 baseline {BASELINE.name} missing or unreadable")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        env["RENYI_LAB_THREADS"] = str(_usable_cores())
        self.env = env
        self.spec_path = OUT / "skewed.json"

    # -- processes ---------------------------------------------------------

    def spawn(self, key: str, argv: list) -> Proc:
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.t_start)
        if remaining < 1.0:
            raise TimeoutError(f"no time left to run {key}")
        with open(OUT / f"{key}.stdout", "w+") as out, open(OUT / f"{key}.stderr", "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            text = out.read()
        return Proc(key, proc.returncode, text, wall, usage.ru_maxrss / 1024.0,
                    usage.ru_utime + usage.ru_stime)

    def _cli_argv(self, args: list, spans: Path | None) -> list:
        args = [a.replace("{skewed}", "@" + str(self.spec_path.relative_to(ROOT))) for a in args]
        if spans is None:
            return [PYTHON, "-c", ENTRY, *args]
        return [PYTHON, str(BENCH / "trace_shim.py"), str(spans), "cli", *args]

    # -- set-up ------------------------------------------------------------

    def setup_subprocess(self) -> float:
        """Write the model specs and resolve the entry point in a fresh
        interpreter, checking that it is the checkout's own package."""
        t0 = time.perf_counter()
        self.spec_path.write_text(json.dumps(self.inputs.skewed_spec) + "\n")
        proc = self.spawn("resolve-entry-point", [PYTHON, "-c", RESOLVE])
        lines = proc.stdout.split()
        want = ROOT / "src" / "renyi_lab" / "cli.py"
        if proc.returncode != 0 or lines != [str(want), "True"]:
            raise SetupError(f"renyi_lab.cli does not resolve to {want}: {proc.stdout.strip()!r}")
        return time.perf_counter() - t0

    # -- passes ------------------------------------------------------------

    def _check(self, key: str, proc: Proc) -> None:
        checks.check_command(self.gate, key, proc.returncode, proc.stdout, self.inputs)
        self.outputs[key] = proc.stdout
        if self.compare is not None:
            checks.same_numbers(self.gate, key, self.compare.get(key, ""), proc.stdout)

    def pass_commands(self, traced: bool) -> dict:
        table = RATE_SWEEP if self.workload == "rate-sweep" else CLI_SHORT
        order = list(table) if self.workload == "rate-sweep" else self.inputs.cli_order
        procs, spans = [], []
        t0 = time.perf_counter()
        for key in order:
            span_file = OUT / f"spans-{key}.json" if traced else None
            proc = self.spawn(key, self._cli_argv(table[key], span_file))
            procs.append(proc)
            self._check(key, proc)
            if traced:
                spans.append(_read_spans(span_file))
        return {"wall_s": time.perf_counter() - t0, "procs": procs, "spans": spans, "setups": []}

    def pass_analytics(self, traced: bool) -> dict:
        payload = json.dumps({"skewed_spec": self.inputs.skewed_spec, "alphas": self.inputs.alphas})
        span_file = OUT / "spans-analytics.json"
        if traced:
            argv = [PYTHON, str(BENCH / "trace_shim.py"), str(span_file), "analytics", payload]
        else:
            argv = [PYTHON, str(BENCH / "analytics.py"), payload]
        proc = self.spawn("analytics", argv)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise SetupError(f"analytics process exited with {proc.returncode}; "
                             f"see {OUT / 'analytics.stderr'}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        values = result["values"]
        try:
            checks.check_analytics(self.gate, values, self.inputs)
        except (KeyError, TypeError, ValueError) as exc:
            self.gate.check(False, f"analytics: unexpected values ({exc!r})")
        text = checks.canonical_json(values)
        self.outputs["analytics"] = text
        if self.compare is not None:
            checks.same_numbers(self.gate, "analytics", self.compare.get("analytics", ""), text)
        return {"wall_s": result["pass_s"], "procs": [proc],
                "spans": [_read_spans(span_file)] if traced else [], "setups": [result["setup_s"]]}

    def one_pass(self, traced: bool = False) -> dict:
        if self.workload == "analytics":
            return self.pass_analytics(traced)
        return self.pass_commands(traced)

    # -- runs --------------------------------------------------------------

    def preflight(self) -> list:
        if not (ROOT / "src" / "renyi_lab" / "__init__.py").is_file():
            raise SetupError(f"no renyi_lab package under {ROOT / 'src'}")
        OUT.mkdir(parents=True, exist_ok=True)
        if self.workload == "analytics":
            return []   # set-up happens inside each analytics process
        return [self.setup_subprocess() for _ in range(SETUP_REPEATS)]

    def timed(self, seconds: float) -> tuple:
        setups = self.preflight()
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(self.one_pass())
            elapsed = time.perf_counter() - t0
            per_pass = elapsed / len(passes)
            since_start = time.perf_counter() - self.t_start
            if since_start + per_pass > RUN_LIMIT_S - 10.0:
                break
            if len(passes) >= MIN_PASSES[self.workload] and elapsed + per_pass > seconds:
                break
        setups += [s for p in passes for s in p["setups"]]
        procs = [proc for p in passes for proc in p["procs"]]
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (max(proc.maxrss_mb for proc in procs), "MB"),
        }
        samples = {"passes": len(passes), "setups": len(setups), "processes": len(procs),
                   "cmd_p50_s": statistics.median(proc.wall_s for proc in procs)}
        return metrics, samples, passes

    def traced(self) -> tuple:
        """Untraced and traced passes in ABBA order, so a steady drift of
        the machine's speed cancels; per-layer values are medians over the
        traced passes (counts repeat exactly), the overhead a difference
        of medians."""
        self.preflight()
        plain, traced = [], []
        for i in range(TRACE_PAIRS[self.workload]):
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                (traced if with_trace else plain).append(self.one_pass(traced=with_trace))
        per_pass = [layers.span_metrics(p["spans"]) for p in traced]
        metrics = {k: (statistics.median(m[k][0] for m in per_pass) if unit == "s"
                       else statistics.median_low(m[k][0] for m in per_pass), unit)
                   for k, (_v, unit) in per_pass[0].items()}
        metrics.update({k: (v, "s") for k, v in self.import_times().items()})
        metrics["cli.cpu_s"] = (statistics.median(sum(proc.cpu_s for proc in p["procs"])
                                                  for p in plain), "s")
        plain_wall = statistics.median(p["wall_s"] for p in plain)
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        samples = {"pairs": len(plain), "untraced_wall_s": plain_wall,
                   "traced_wall_s": traced_wall, "import_repeats": IMPORT_REPEATS}
        return {name: metrics[name] for name in layers.PER_LAYER}, samples, plain + traced

    def import_times(self) -> dict:
        """-X importtime of `import renyi_lab.cli` in fresh interpreters,
        after one warm-up import so bytecode compilation is not timed."""
        self.spawn("import-warmup", [PYTHON, "-c", "import renyi_lab.cli"])
        reps = []
        for i in range(IMPORT_REPEATS):
            key = f"importtime-{i}"
            self.spawn(key, [PYTHON, "-X", "importtime", "-c", "import renyi_lab.cli"])
            reps.append(layers.parse_importtime((OUT / f"{key}.stderr").read_text()))
        return {k: statistics.median(r[k] for r in reps) for k in reps[0]}


def _read_spans(path: Path) -> list:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return []


def run_workload(workload: str, seed: int, seconds: float, trace: bool, record: bool = False):
    run = Run(workload, seed, record)
    metrics, samples, passes = run.traced() if trace else run.timed(seconds)
    result = {
        "correct": run.gate.failed == 0,
        "attempted": run.gate.attempted,
        "failed": run.gate.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    detail = {
        "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
        "inputs": {"p": run.inputs.p, "beta": run.inputs.beta, "cli_order": run.inputs.cli_order,
                   "alpha_shift": run.inputs.alpha_shift},
        "provenance": provenance(), "samples": samples,
        "fail_frac": run.gate.failed / max(1, run.gate.attempted),
        "failures": run.gate.failures,
        "processes": [{"key": p.key, "returncode": p.returncode, "wall_s": p.wall_s,
                       "maxrss_mb": p.maxrss_mb, "cpu_s": p.cpu_s}
                      for ps in passes for p in ps["procs"]],
        "result": result,
    }
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    return result, detail, run.outputs


def print_summary(result: dict, detail: dict) -> None:
    s = detail["samples"]
    print(f"# {detail['workload']} seed={detail['seed']} trace={detail['trace']} samples={s}")
    for name, m in result["metrics"].items():
        print(f"{detail['workload']:>10}  {name:<48} {m['value']:>16.6g} {m['unit']}")
    if "cmd_p50_s" in s:
        print(f"{detail['workload']:>10}  {'cmd_p50_s':<48} {s['cmd_p50_s']:>16.6g} s "
              f"(median of {s['processes']} processes; not bounded)")
    print(f"{detail['workload']:>10}  {'fail_frac':<48} {detail['fail_frac']:>16.6g} "
          f"({result['failed']}/{result['attempted']} checks)")
    for failure in detail["failures"]:
        print(f"# FAILED: {failure}")


def record_baseline(seconds: float) -> int:
    """Record the seed-0 outputs and metrics of this commit as the baseline."""
    outputs, metrics = {}, {}
    for workload in WORKLOADS:
        for trace in (False, True):
            result, detail, outs = run_workload(workload, 0, seconds, trace, record=True)
            print_summary(result, detail)
            if trace:
                metrics[workload + ".per_layer"] = result["metrics"]
            else:
                outputs.update(outs)
                metrics[workload] = result["metrics"]
            if not result["correct"]:
                return 1
    BASELINE.write_text(json.dumps({"provenance": provenance(), "metrics": metrics,
                                    "outputs": outputs}, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-baseline", action="store_true",
                    help="write baseline_seed0.json from seed-0 runs of every workload")
    args = ap.parse_args(argv)
    try:
        if args.record_baseline:
            return record_baseline(args.seconds)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in workloads:
            result, detail, _ = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print_summary(result, detail)
            results[workload] = result
    except (SetupError, TimeoutError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
