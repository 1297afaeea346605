"""Run one ``biplot`` CLI invocation with a span around every call into a
public function of the cli, data, linalg, engine, baselines and report
modules, then write the spans as JSON.

    python3 tracer.py SPANS_OUT MEM ARG...

ARG... are the CLI arguments. With MEM=1 tracemalloc runs and each span
records the peak traced memory above its entry level; such a run is for
memory only, because tracemalloc slows the traced code several-fold.
No file of the program is changed: the wrappers replace the functions in
every module namespace that binds them, so ``cli`` calling
``parse_table`` or ``baselines`` calling ``pca_scores`` are seen too.
"""

import importlib
import inspect
import json
import sys
import time
import tracemalloc

MODULES = ("cli", "data", "linalg", "engine", "baselines", "report")


def _cells(args, kwargs, out):
    shape = getattr(args[0], "shape", None) if args else None
    return {"cells": int(shape[0] * shape[1])} if shape is not None and len(shape) == 2 else {}


def _n(args, kwargs, out):
    return {"n": len(args[0])} if args else {}


def _bytes(args, kwargs, out):
    return {"bytes": len(out.encode("utf-8"))}


# Counters recorded at the boundary where the work happens.
COUNTERS = {"linalg.svd": _cells, "baselines.classical_mds": _n,
            "report.to_json": _bytes, "report.render_svg": _bytes}


class Tracer:
    def __init__(self, mem: bool):
        self.mem = mem
        self.spans = []   # [name, start, end, parent, counters, peak_bytes]
        self.stack = []   # indices of the open spans
        self.peaks = []   # with mem: the peak seen so far in each open span

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, 0.0, 0.0, parent, {}, 0]
            self.spans.append(span)
            self.stack.append(idx)
            if self.mem:
                base, peak = tracemalloc.get_traced_memory()
                if self.peaks:  # fold the enclosing span's peak so far
                    self.peaks[-1] = max(self.peaks[-1], peak)
                self.peaks.append(base)
                tracemalloc.reset_peak()
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
                if self.mem:
                    top = max(self.peaks.pop(), tracemalloc.get_traced_memory()[1])
                    span[5] = top - base
                    if self.peaks:  # the enclosing span saw this peak too
                        self.peaks[-1] = max(self.peaks[-1], top)
                    tracemalloc.reset_peak()
            if counter is not None:
                span[4] = counter(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer, package, modules: dict) -> None:
    namespaces = [package, *modules.values()]
    for short, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != mod.__name__:
                continue
            wrapped = tracer.wrap(f"{short}.{attr}", fn)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapped)
    cls = modules["report"].AnalysisReport
    cls.to_json = tracer.wrap("report.to_json", cls.to_json)


def main() -> int:
    out_path, mem, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t0 = time.perf_counter()
    package = importlib.import_module("biplot")
    modules = {m: importlib.import_module(f"biplot.{m}") for m in MODULES}
    t1 = time.perf_counter()
    tracer = Tracer(mem)
    install(tracer, package, modules)
    if mem:
        tracemalloc.start()
    try:
        rc = modules["cli"].main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import": [t0, t1], "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
