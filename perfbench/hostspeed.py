"""Host-speed probe.

On a shared host the speed of a vCPU drifts by a fifth or more over
minutes, as other tenants come and go, and every timing of the program
drifts with it. A fixed child process that does not touch the program,
timed like an invocation about every two seconds between invocations,
follows that drift. It does a small analysis of the kind the CLI does:
an interpreter start and ``import numpy``, a table of 8000 x 20 floats
formatted as CSV text and parsed back in Python, z-scored, its SVD and
that of a 500 x 250 matrix, a JSON dump, and a fresh 128 MiB array. Its
working set is larger than the caches, like the program's, so it slows
as the program does when neighbours contend for memory. The median
probe time of a run, against the probe's median on the reference host,
gives the run's host-speed factor. Timings are reported multiplied by
it, i.e. in seconds at the reference host's speed, so a change in the
program moves them and a change in the host much less. A probe never
overlaps an invocation.

    python3 hostspeed.py     # one probe: the work the parent times
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

# Median probe time on the reference host: 2 vCPU Intel Xeon at 2.1 GHz,
# Python 3.11.7, numpy 2.4.6 with OpenBLAS 0.3.31 on one thread.
REFERENCE_S = 0.55
# Seconds between the end of one probe and the start of the next; about
# a sixth of a run goes to probing.
INTERVAL_S = 2.0
PROBE_TIMEOUT_S = 60.0


def _work() -> float:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8000, 20))
    text = "\n".join(",".join(map(repr, row)) for row in x.tolist())
    y = np.array([[float(c) for c in line.split(",")] for line in text.splitlines()])
    z = (y - y.mean(axis=0)) / y.std(axis=0)
    s = np.linalg.svd(z, compute_uv=False)
    w = np.linalg.svd(rng.standard_normal((500, 250)), compute_uv=False)
    fresh = np.ones(2**24)  # 128 MiB, mapped afresh
    return len(json.dumps(z[:, :2].tolist())) + s[0] + w[0] + fresh.sum()


class HostSpeed:
    """Runs the probe child now and then and turns the run's probe times
    into a factor."""

    def __init__(self):
        self.samples: list[float] = []
        self._next = 0.0

    def probe(self) -> None:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__)],
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       check=True, timeout=PROBE_TIMEOUT_S)
        end = time.perf_counter()
        self.samples.append(end - t0)
        self._next = end + INTERVAL_S

    def maybe_probe(self) -> None:
        """Probe if ``INTERVAL_S`` has passed since the last probe."""
        if time.perf_counter() >= self._next:
            self.probe()

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def factor(self) -> float:
        """Reference-host seconds per second measured in this run."""
        return REFERENCE_S / self.median_s()


if __name__ == "__main__":
    _work()
