"""Run one renyi_lab command or the analytics body with its public
functions wrapped by timing and counting spans.

Usage:
    python3 perfbench/trace_shim.py SPANS.json cli <renyi-lab arguments>
    python3 perfbench/trace_shim.py SPANS.json analytics '<inputs JSON>'

Each wrapped function is replaced under every name that refers to it in
any renyi_lab module (cli holds its own normalized_sum_density, subgauss
its own discretize and laplace_eval, and so on).  Spans are linked to
their parent per thread; work submitted to cli's thread pool is linked
to the span that submitted it.  The spans are written to SPANS.json
when the command returns.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from layers import CHECKERS, TRACED


def _convolve_info(args, out):
    p, q = args[0], args[1]
    return {"out_len": len(out.values), "bytes": 8 * (len(p.values) + len(q.values) + len(out.values))}


def _renyi_info(args, out):
    return {"inf": math.isinf(out[0].value)}


def _verdict_info(args, out):
    return {"verdict": out.verdict}


INFO = {"grids.convolve": _convolve_info, "divergences.renyi_tsallis": _renyi_info}
INFO.update({name: _verdict_info for name in CHECKERS})


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [getattr(self._local, "parent", None)]
        return stack

    def wrap(self, name, fn):
        info_fn = INFO.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1]
            with self._lock:
                idx = len(self.spans)
                self.spans.append(None)
            stack.append(idx)
            info = {}
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                info["error"] = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans[idx] = (name, threading.get_ident(), t0, t1, parent, info)
            if info_fn is not None:
                info.update(info_fn(args, out))
            return out

        return traced

    def run_under(self, parent, fn, *args, **kwargs):
        """Run fn in a pool thread with `parent` as its root span."""
        self._local.parent = parent
        self._local.stack = None
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.parent = None
            self._local.stack = None


def install(tracer: Tracer) -> None:
    import renyi_lab
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "renyi_lab" or name.startswith("renyi_lab."))]
    for mod_name, fn_name in TRACED:
        original = getattr(importlib.import_module("renyi_lab." + mod_name), fn_name)
        wrapped = tracer.wrap(f"{mod_name}.{fn_name}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)

    class TracedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.run_under, tracer._stack()[-1], fn, *args, **kwargs)

    renyi_lab.cli.ThreadPoolExecutor = TracedPool


def main(argv) -> int:
    spans_path, mode, rest = argv[1], argv[2], argv[3:]
    tracer = Tracer()
    install(tracer)
    try:
        if mode == "cli":
            import renyi_lab.cli
            code = renyi_lab.cli.main(rest)
        else:
            import analytics
            code = analytics.main([mode, *rest])
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
