"""Seeded input tables and the invocation list of each workload.

The program only ever sees the CSV files written here; the seed, the
generator and the reference matrices stay in the benchmark.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Overall fit of the three case tables as published (JK, z-scored, 2 axes).
PUBLISHED_QR = {1: 0.899, 2: 0.879, 3: 0.722}
METHODS = ("jk", "pca", "mds", "ca")


@dataclass(frozen=True)
class Invocation:
    """One CLI call. It runs in an empty output directory inside the work
    directory, which holds ``table``, the input CSV the oracle checks
    against."""

    kind: str                  # "analyze" or "compare"
    argv: tuple[str, ...]
    table: str
    expect_qr: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tables: dict[str, tuple[int, int]]  # generated tables; none for the case tables
    cycle: tuple[Invocation, ...]


def _analyze(table: str) -> Invocation:
    return Invocation("analyze", ("analyze", f"../{table}", "--json", "report.json",
                                  "--svg", "plot.svg"), table)


def _compare(table: str) -> Invocation:
    return Invocation("compare", ("compare", f"../{table}", "--methods", ",".join(METHODS),
                                  "--out", "."), table)


def _case(k: int) -> Invocation:
    return Invocation("analyze", ("case", str(k), "--json", "report.json",
                                  "--svg", "plot.svg"), f"case{k}.csv", PUBLISHED_QR[k])


NAMES = ("large", "cases")
# The three large shapes, each with the command that loads it: a tall
# table (per-row paths: parse, row markers, SVG dots), a wide one (the SVD
# and the two p x p report blocks) and the compare panels (n x n MDS
# tensor, 4 SVDs, the baselines).
SHAPES = {"tall.csv": (50000, 20), "wide.csv": (1000, 400), "compare.csv": (1500, 30)}
# The smoke wide table has p > n, so it also covers a rank-deficient fit.
SMOKE_SHAPES = {"tall.csv": (300, 20), "wide.csv": (40, 60), "compare.csv": (60, 8)}

# Why each workload is here: one runs the large shapes, where the work
# grows with the table; the other the paper's tables, where it does not.
WHY = {
    "large": "analyze 50000x20 and 1000x400, compare jk,pca,mds,ca 1500x30: "
             "per-row paths, SVD and p x p blocks, MDS tensor and baselines",
    "cases": "case 1-3 and compare on each case CSV: paper-scale regression gate, "
             "where import and fixed per-call cost dominate",
}


def workload(name: str, smoke: bool = False) -> Workload:
    if name == "cases":
        cycle = []
        for k in (1, 2, 3):
            cycle += [_case(k), _compare(f"case{k}.csv")]
        return Workload(name, WHY[name], {}, tuple(cycle))
    tables = SMOKE_SHAPES if smoke else SHAPES
    cycle = (_analyze("tall.csv"), _analyze("wide.csv"), _compare("compare.csv"))
    return Workload(name, WHY[name], dict(tables), cycle)


def generate(n: int, p: int, seed: int) -> np.ndarray:
    """Rank-3 signal plus noise, shifted so every entry is >= 1 (CA needs
    a positive table)."""
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((n, 3))
    loadings = rng.standard_normal((p, 3)) * np.array([3.0, 2.0, 1.5])
    x = scores @ loadings.T + 0.5 * rng.standard_normal((n, p))
    return x - x.min(axis=0) + 1.0


def write_csv(path: Path, x: np.ndarray) -> None:
    """Labeled CSV with shortest round-trip floats, so the program parses
    back exactly ``x``. Row and column labels are unique."""
    n, p = x.shape
    w = len(str(n))
    lines = ["," + ",".join(f"v{j:03d}" for j in range(p))]
    lines += [f"r{i:0{w}d}," + ",".join(map(repr, row))
              for i, row in enumerate(x.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path: Path) -> np.ndarray:
    """The numeric block of a labeled CSV, parsed independently of the program."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r][1:]
    return np.array([[float(c) for c in r[1:]] for r in rows])
