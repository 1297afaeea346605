"""Cold-CLI benchmark of the ``biplot`` command-line tool.

Every invocation runs the real CLI in a fresh child process, as a user
pays for it: interpreter start, ``import biplot``, the first OpenBLAS
call, the analysis and writing the artifacts. Invocations run in a
closed loop, one client with no think time: the next one starts when the
previous one has exited. Each invocation's artifacts are checked by the
output oracle (oracle.py) and must be byte-identical to those of the
first timed invocation of the same command in the run.

    python3 perfbench/run.py --workload large --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

A workload cycles through one or more commands. Its timings are the
median of each command's invocations, averaged over the commands, so a
mixed cycle does not flip between the commands' clusters. They are
given in seconds at the reference host's speed (hostspeed.py): a probe
process timed between invocations measures how fast the shared host
runs during the run. The unscaled figures are printed beside them.

--trace 0 prints the end-to-end metrics; --trace 1 alternates plain and
traced invocations (tracer.py) and prints the per-module metrics, then
runs one tracemalloc pass per command for the ``*.peak_mb`` metrics, so
tracemalloc never slows a timed invocation. --smoke runs every workload
once at tiny shapes and checks the metric names, units and the oracle.
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import os

# Set before numpy loads, in this process and in every child. One thread
# keeps timings steady: with two OpenBLAS threads on a 2-vCPU machine the
# first sizable LAPACK call of a process sometimes stalls for ~0.9 s.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from hostspeed import REFERENCE_S, HostSpeed
from workloads import NAMES, Invocation, Workload, generate, read_csv, workload, write_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# What the ``biplot`` console script runs, plus an exit hook that writes
# the process's own peak resident set (VmHWM) to HWM_FILE in the work
# directory. ru_maxrss from wait4 would not do: a forked child starts with
# the parent's resident set as its high-water mark, which hides a small
# program's own peak under the benchmark's.
HWM_FILE = "vmhwm.txt"
ENTRY = f"""import atexit, sys
def _hwm():
    with open("/proc/self/status") as status, open("../{HWM_FILE}", "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")))
atexit.register(_hwm)
from biplot.cli import main
sys.exit(main())
"""
SETUPS = 3
CHILD_TIMEOUT_S = 120.0

E2E = {"setup_s": "s", "wall_s_p50": "s", "cells_per_s": "cells/s",
       "cpu_s_p50": "s", "peak_rss_mb": "MB", "failed_frac": "ratio"}
# failed_frac is 0 on a correct program, so it is reported here and
# through ``attempted``/``failed`` but is not a bounded metric.
BOUNDED_E2E = ("setup_s", "wall_s_p50", "cells_per_s", "cpu_s_p50", "peak_rss_mb")

SPAN_METRICS = (
    ("cli.main", "self_s"),
    ("data.parse_table", "self_s"), ("data.preprocess", "self_s"),
    ("data.preprocess", "calls"),
    ("linalg.svd", "self_s"), ("linalg.svd", "calls"), ("linalg.svd", "cells"),
    ("linalg.sign_normalize", "self_s"),
    ("engine.fit_biplot", "self_s"), ("engine.quality", "self_s"),
    ("engine.pearson", "self_s"), ("engine.column_cosines", "self_s"),
    ("baselines.classical_mds", "self_s"), ("baselines.classical_mds", "n"),
    ("baselines.correspondence_analysis", "self_s"), ("baselines.pca_map", "self_s"),
    ("report.build_report", "self_s"), ("report.to_json", "self_s"),
    ("report.to_json", "bytes"), ("report.render_svg", "self_s"),
    ("report.render_svg", "bytes"), ("report.render_scatter_svg", "self_s"),
)
FIELD_UNITS = {"self_s": "s", "calls": "count", "cells": "cells", "n": "count", "bytes": "B"}
MODULES = ("cli", "data", "linalg", "engine", "baselines", "report")
# Counts that repeat exactly from run to run, printed for each command.
EXACT_COUNTS = ("linalg.svd.calls", "data.preprocess.calls", "baselines.classical_mds.n")
LAYER = {"cli.import_s": "s", "cli.bytes_written": "B",
         **{f"{span}.{f}": FIELD_UNITS[f] for span, f in SPAN_METRICS},
         **{f"{m}.peak_mb": "MB" for m in MODULES},
         "trace.overhead_s": "s", "trace.unaccounted_s": "s"}

CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": BLAS_THREADS,
             "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


@dataclass
class Sample:
    """One finished invocation."""

    slot: int               # index of the command in the workload's cycle
    mode: str               # plain | trace | mem
    wall_s: float
    cpu_s: float
    rss_mb: float
    cells: int
    problems: list[str]
    bytes_written: int = 0
    trace: dict | None = None


def failures(samples: list[Sample]) -> int:
    return sum(1 for s in samples if s.problems)


def of_mode(samples: list[Sample], mode: str) -> list[Sample]:
    return [s for s in samples if s.mode == mode]


class Runner:
    """Spawns invocations of one workload inside its work directory and
    judges their artifacts."""

    def __init__(self, wl: Workload, work: Path):
        self.wl, self.work = wl, work
        self.out = work / "out"
        self.refs: dict[str, oracle.Reference] = {}
        self.shapes: dict[str, tuple[int, int]] = {}
        self.first_digests: dict[int, tuple] = {}
        self.verdicts: dict[tuple, list[str]] = {}
        self.host = HostSpeed()

    def spawn(self, argv: tuple[str, ...], mode: str = "plain"):
        """Run one CLI call with a fresh output directory; returns
        (wall_s, cpu_s, rss_mb, exit code, trace or None)."""
        if self.out.exists():
            shutil.rmtree(self.out)
        self.out.mkdir()
        spans = self.work / "spans.json"
        hwm = self.work / HWM_FILE
        hwm.unlink(missing_ok=True)
        if mode == "plain":
            cmd = [sys.executable, "-c", ENTRY, *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans),
                   "1" if mode == "mem" else "0", *argv]
        with open(self.work / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.out, env=CHILD_ENV, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        trace = None
        if mode != "plain" and rc == 0:
            trace = json.loads(spans.read_text(encoding="utf-8"))
        # Without the exit hook's record (a traced call), ru_maxrss is an upper bound.
        rss_mb = int(hwm.read_text().split()[1]) / 1024.0 if hwm.exists() else usage.ru_maxrss / 1024.0
        return wall, usage.ru_utime + usage.ru_stime, rss_mb, rc, trace

    def judge(self, slot: int, inv: Invocation, rc: int) -> tuple[list[str], int]:
        """Problems with the artifacts now in the output directory, and
        their total size. The oracle's verdict is a function of the bytes,
        so it is computed once per distinct set of artifacts."""
        if rc != 0:
            return [f"exit code {rc}: {self._stderr_tail()}"], 0
        files = sorted(p for p in self.out.iterdir() if p.is_file())
        blobs = {p.name: p.read_bytes() for p in files}
        digests = tuple((name, hashlib.sha256(b).hexdigest()) for name, b in blobs.items())
        problems = []
        if self.first_digests.setdefault(slot, digests) != digests:
            problems.append("artifacts differ from the first timed invocation")
        if digests not in self.verdicts:
            self.verdicts[digests] = oracle.check(inv, self.out, self.refs[inv.table])
        return problems + self.verdicts[digests], sum(map(len, blobs.values()))

    def _stderr_tail(self) -> str:
        return (self.work / "stderr.txt").read_text(errors="replace").strip()[-300:]

    def sample(self, slot: int, mode: str = "plain") -> Sample:
        inv = self.wl.cycle[slot]
        self.host.maybe_probe()
        wall, cpu, rss, rc, trace = self.spawn(inv.argv, mode)
        problems, size = self.judge(slot, inv, rc)
        n, p = self.shapes[inv.table]
        return Sample(slot, mode, wall, cpu, rss, n * p, problems, size, trace)

    def setup(self, seed: int) -> float:
        """Write the seeded inputs and make one untimed warm-up call;
        returns the seconds this took."""
        self.host.probe()
        t0 = time.perf_counter()
        if self.wl.tables:
            for table, shape in self.wl.tables.items():
                write_csv(self.work / table, generate(*shape, seed))
        else:
            for k in (1, 2, 3):
                self._require_ok(("case", str(k), "--dump-csv", f"../case{k}.csv"))
        self._require_ok(self.wl.cycle[0].argv)
        elapsed = time.perf_counter() - t0
        for inv in self.wl.cycle:
            if inv.table not in self.refs:
                x = read_csv(self.work / inv.table)
                self.refs[inv.table] = oracle.reference(x)
                self.shapes[inv.table] = x.shape
        return elapsed

    def _require_ok(self, argv: tuple[str, ...]) -> None:
        rc = self.spawn(argv)[3]
        if rc != 0:
            raise RuntimeError(f"set-up call {' '.join(argv)} exited {rc}: "
                               f"{self._stderr_tail()}")


def measure(runner: Runner, seconds: float, trace: bool) -> list[Sample]:
    """Closed loop over whole cycles of the workload's commands until
    ``seconds`` have passed. With ``trace`` each plain call is followed
    by a traced one, and a tracemalloc pass ends the run."""
    samples = []
    slots = range(len(runner.wl.cycle))
    deadline = time.perf_counter() + seconds
    while True:
        for slot in slots:
            samples.append(runner.sample(slot))
            if trace:
                samples.append(runner.sample(slot, "trace"))
        if time.perf_counter() >= deadline:
            break
    if trace:
        samples += [runner.sample(slot, "mem") for slot in slots]
    return samples


def end_to_end(samples: list[Sample], setups: list[float], factor: float) -> dict[str, float]:
    """The end-to-end metrics, with every time multiplied by ``factor``:
    the host-speed factor of the run, or 1 for the unscaled figures."""
    plain = of_mode(samples, "plain")
    return {
        "setup_s": statistics.median(setups) * factor,
        "wall_s_p50": _per_command(plain, lambda s: s.wall_s) * factor,
        "cells_per_s": sum(s.cells for s in plain) / sum(s.wall_s for s in plain) / factor,
        "cpu_s_p50": _per_command(plain, lambda s: s.cpu_s) * factor,
        "peak_rss_mb": max(s.rss_mb for s in plain),
        "failed_frac": failures(samples) / len(samples),
    }


def _span_stats(trace: dict) -> dict[str, float]:
    """Per-invocation totals of each span name: self time, calls and
    counters."""
    spans = trace["spans"]
    child_s = [0.0] * len(spans)
    for name, start, end, parent, counters, peak in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, parent, counters, peak), inner in zip(spans, child_s):
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start) - inner
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        for key, value in counters.items():
            out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
    return out


def _import_s(trace: dict) -> float:
    return trace["import"][1] - trace["import"][0]


def _root_s(trace: dict) -> float:
    _, start, end, *_ = next(s for s in trace["spans"] if s[0] == "cli.main")
    return end - start


def _per_command(samples: list[Sample], value) -> float:
    """Median of ``value`` over the invocations of each command of the
    cycle, averaged over the commands. For a one-command workload this is
    the median; for a mixed cycle it does not flip between the commands'
    clusters."""
    by_slot: dict[int, list[float]] = {}
    for s in samples:
        by_slot.setdefault(s.slot, []).append(value(s))
    if not by_slot:
        raise RuntimeError("no invocation to take a median of")
    return statistics.fmean(statistics.median(v) for v in by_slot.values())


def _module_peak_mb(trace: dict, module: str) -> float:
    return max((sp[5] for sp in trace["spans"] if sp[0].split(".")[0] == module),
               default=0) / 2**20


def per_layer(samples: list[Sample]) -> dict[str, float]:
    traced = [s for s in of_mode(samples, "trace") if s.trace is not None]
    mem = [s for s in of_mode(samples, "mem") if s.trace is not None]
    metrics = {key: _per_command(traced, lambda s, key=key: _span_stats(s.trace).get(key, 0))
               for key in (f"{span}.{f}" for span, f in SPAN_METRICS)}
    metrics["cli.import_s"] = _per_command(traced, lambda s: _import_s(s.trace))
    metrics["cli.bytes_written"] = _per_command(traced, lambda s: s.bytes_written)
    for m in MODULES:
        metrics[f"{m}.peak_mb"] = _per_command(mem, lambda s, m=m: _module_peak_mb(s.trace, m))
    metrics["trace.overhead_s"] = (_per_command(traced, lambda s: s.wall_s)
                                   - _per_command(of_mode(samples, "plain"), lambda s: s.wall_s))
    metrics["trace.unaccounted_s"] = _per_command(
        traced, lambda s: s.wall_s - _import_s(s.trace) - _root_s(s.trace))
    return {k: metrics[k] for k in LAYER}


def environment(runner: Runner, seed: int, loadavg: tuple, unscaled: dict[str, float]) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": BLAS_THREADS, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "loadavg_start": list(loadavg),
        "seed": seed, "workload": runner.wl.name,
        "shapes": {table: list(shape) for table, shape in runner.shapes.items()},
        "invocations": [["biplot", *inv.argv] for inv in runner.wl.cycle],
        "loop": "closed, 1 client, no think time",
        "determinism": "artifacts compared across invocations at one "
                       "OPENBLAS_NUM_THREADS; thread-count determinism is not covered",
        "host_speed": {"probes": len(runner.host.samples),
                       "probe_median_s": runner.host.median_s(),
                       "reference_s": REFERENCE_S, "factor": runner.host.factor()},
        "unscaled": unscaled,
    }


def report_lines(metrics: dict[str, float], units: dict[str, str], notes: dict[str, str]) -> list[str]:
    return [f"  {name:<38} {metrics[name]:>14.6g} {units[name]:<8} {notes.get(name, '')}".rstrip()
            for name in metrics]


def e2e_notes(samples: list[Sample], setups: list[float], unscaled: dict[str, float]) -> dict[str, str]:
    n = len(of_mode(samples, "plain"))
    return {"setup_s": f"median of {len(setups)} set-ups; unscaled {unscaled['setup_s']:.4f}",
            "wall_s_p50": f"n={n}; unscaled {unscaled['wall_s_p50']:.4f}",
            "cells_per_s": f"unscaled {unscaled['cells_per_s']:.6g}",
            "cpu_s_p50": f"n={n}; unscaled {unscaled['cpu_s_p50']:.4f}",
            "peak_rss_mb": "max VmHWM of the children",
            "failed_frac": f"{failures(samples)} of {len(samples)}"}


def command_lines(runner: Runner, samples: list[Sample]) -> list[str]:
    """Unscaled wall time of each command: median, quartiles and maximum."""
    lines = []
    for slot, inv in enumerate(runner.wl.cycle):
        walls = sorted(s.wall_s for s in of_mode(samples, "plain") if s.slot == slot)
        q = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
        lines.append(f"  biplot {' '.join(inv.argv)}: n={len(walls)} p50={q[1]:.4f} "
                     f"q1={q[0]:.4f} q3={q[2]:.4f} max={walls[-1]:.4f} s")
    return lines


@contextmanager
def workdir(name: str):
    path = WORK / f"{name}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    loadavg = os.getloadavg()
    wl = workload(name)
    with workdir(name) as work:
        runner = Runner(wl, work)
        setups = [runner.setup(seed) for _ in range(SETUPS)]
        samples = measure(runner, seconds, trace)
    factor = runner.host.factor()
    e2e = end_to_end(samples, setups, factor)
    unscaled = end_to_end(samples, setups, 1.0)
    print(f"workload {name}: {wl.why}")
    print(f"host-speed factor {factor:.4f} (probe median {runner.host.median_s() * 1e3:.2f} ms "
          f"over {len(runner.host.samples)}, reference {REFERENCE_S * 1e3:.2f} ms); "
          "times below are scaled by it")
    print("\n".join(report_lines(e2e, E2E, e2e_notes(samples, setups, unscaled))))
    print("unscaled wall time per command:")
    print("\n".join(command_lines(runner, samples)))
    if trace:
        layer = per_layer(samples)
        print("per-layer (unscaled; median per traced invocation of each command, "
              "averaged over the commands):")
        print("\n".join(report_lines(layer, LAYER, {})))
        print("exact counts per command:")
        for slot, inv in enumerate(wl.cycle):
            mine = [s for s in of_mode(samples, "trace") if s.slot == slot and s.trace]
            counts = " ".join(f"{k}={_per_command(mine, lambda s, k=k: _span_stats(s.trace).get(k, 0)):g}"
                              for k in EXACT_COUNTS)
            print(f"  biplot {' '.join(inv.argv)}: {counts}")
    for s in samples:
        for problem in s.problems:
            print(f"FAILED ({s.mode}): {problem}")
    print(json.dumps({"env": environment(runner, seed, loadavg, unscaled)}, sort_keys=True))
    chosen = layer if trace else {k: e2e[k] for k in BOUNDED_E2E}
    units = LAYER if trace else E2E
    failed = failures(samples)
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()}}))
    return 0


def smoke() -> int:
    """Every workload once at tiny shapes: each metric must be printed
    with its unit, and a corrupted artifact must count as a failure."""
    errors = []
    for name in NAMES:
        wl = workload(name, smoke=True)
        with workdir(f"smoke-{name}") as work:
            runner = Runner(wl, work)
            setups = [runner.setup(seed=1)]
            samples = measure(runner, 0.0, trace=True)
            text = "\n".join(report_lines(end_to_end(samples, setups, 1.0), E2E, {})
                             + report_lines(per_layer(samples), LAYER, {}))
            print(f"smoke {name}:\n{text}")
            for metric, unit in {**E2E, **LAYER}.items():
                if not any(line.split()[:1] == [metric] and line.split()[2:3] == [unit]
                           for line in text.splitlines()):
                    errors.append(f"{name}: {metric} [{unit}] not printed")
            if failures(samples):
                errors.append(f"{name}: failures on the program as is: "
                              f"{[s.problems for s in samples if s.problems]}")
            wall, cpu, rss, rc, _ = runner.spawn(wl.cycle[0].argv)
            svg = sorted(runner.out.glob("*.svg"))[0]
            svg.write_bytes(svg.read_bytes()[: svg.stat().st_size // 2])
            if not oracle.check(wl.cycle[0], runner.out, runner.refs[wl.cycle[0].table]):
                errors.append(f"{name}: the oracle accepted a truncated {svg.name}")
            problems, _ = runner.judge(0, wl.cycle[0], rc)
            samples.append(Sample(0, "plain", wall, cpu, rss, 0, problems))
            if end_to_end(samples, setups, 1.0)["failed_frac"] != 1 / len(samples):
                errors.append(f"{name}: a corrupted artifact was not counted in failed_frac")
    for e in errors:
        print(f"SMOKE FAILED: {e}")
    print(json.dumps({"smoke": "failed" if errors else "ok", "errors": len(errors)}))
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "biplot" / "cli.py").is_file():
        print(f"error: no biplot sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
