"""Output oracle: checks one invocation's artifacts against facts the
benchmark computes itself.

The checks read only ``singular_values``, ``quality.qr_overall`` and
``row_markers`` of a report, each panel's ``share_2d`` in the compare
summary, and the number of row dots in each SVG. They do not depend on
the p x p blocks, on the report's full key set or on which rows carry
labels, so they stay valid while those parts of the output change.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import METHODS, Invocation

DIMS = 2
RTOL = 1e-9
SHARE_TOL = 1e-9
PUBLISHED_TOL = 0.03


@dataclass(frozen=True)
class Reference:
    """Singular values and 2-D fit of the z-scored input table."""

    n: int
    sigma: np.ndarray
    qr: float


def reference(x: np.ndarray) -> Reference:
    z = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
    s = np.linalg.svd(z, compute_uv=False)
    return Reference(x.shape[0], s, float(np.sum(s[:DIMS] ** 2) / np.sum(s ** 2)))


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(path: Path):
    """Parse RFC 8259 JSON: NaN and Infinity literals are errors."""
    return json.loads(path.read_bytes(), parse_constant=_reject_constant)


def _circles(path: Path) -> int:
    root = ET.fromstring(path.read_bytes())
    return sum(1 for e in root.iter() if e.tag.rsplit("}", 1)[-1] == "circle")


def _check_report(doc, ref: Reference, expect_qr, where: str) -> list[str]:
    problems = []
    sv = np.asarray(doc["singular_values"], dtype=float)
    # Singular values are accurate to a multiple of eps * sigma_max, so
    # numerically zero ones (p > n) need the absolute term.
    if sv.shape != ref.sigma.shape or not np.allclose(sv, ref.sigma, rtol=RTOL,
                                                      atol=RTOL * ref.sigma[0]):
        problems.append(f"{where}: singular_values differ from the reference SVD")
    qr = doc["quality"]["qr_overall"]
    if not math.isclose(qr, ref.qr, rel_tol=RTOL):
        problems.append(f"{where}: qr_overall {qr!r} != reference {ref.qr!r}")
    if expect_qr is not None and abs(qr - expect_qr) > PUBLISHED_TOL:
        problems.append(f"{where}: qr_overall {qr:.4f} is not within "
                        f"{PUBLISHED_TOL} of the published {expect_qr}")
    shape = np.shape(doc["row_markers"])
    if shape != (ref.n, DIMS):
        problems.append(f"{where}: row_markers shape {shape} != {(ref.n, DIMS)}")
    return problems


def _check_parsed(inv: Invocation, out_dir: Path, ref: Reference) -> list[str]:
    files = sorted(p for p in out_dir.iterdir() if p.suffix in (".json", ".svg"))
    docs = {p.name: strict_json(p) for p in files if p.suffix == ".json"}
    problems = [f"{p.name}: {c} circles, expected {ref.n}"
                for p in files if p.suffix == ".svg" and (c := _circles(p)) != ref.n]
    if inv.kind == "analyze":
        if "report.json" not in docs or not (out_dir / "plot.svg").exists():
            return problems + ["report.json or plot.svg missing"]
        return problems + _check_report(docs["report.json"], ref, inv.expect_qr, "report.json")

    def one(suffix):
        hits = [name for name in docs if name.endswith(suffix)]
        return hits[0] if len(hits) == 1 else None

    for m in METHODS:
        if one(f"_{m}.json") is None or not any(p.name.endswith(f"_{m}.svg") for p in files):
            problems.append(f"panel {m}: JSON or SVG missing")
    summary, jk = one("_summary.json"), one("_jk.json")
    if summary is None or jk is None:
        return problems + ["summary or jk panel missing"]
    problems += _check_report(docs[jk], ref, inv.expect_qr, jk)
    shares = {e["method"]: e["share_2d"] for e in docs[summary]["methods"]}
    dual = [shares.get(m) for m in ("jk", "pca", "mds")]
    if None in dual or max(dual) - min(dual) > SHARE_TOL:
        problems.append(f"share_2d of jk, pca and mds disagree: {dual}")
    return problems


def check(inv: Invocation, out_dir: Path, ref: Reference) -> list[str]:
    """Every problem found in the artifacts of ``inv`` in ``out_dir``;
    an empty list means the outputs are correct."""
    try:
        return _check_parsed(inv, out_dir, ref)
    except (ValueError, KeyError, TypeError, ET.ParseError, OSError) as exc:
        return [f"unreadable artifact: {type(exc).__name__}: {exc}"]
