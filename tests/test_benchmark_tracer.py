"""The benchmark's tracer (perfbench/tracer.py) wraps the program's public
functions from outside and reads what they return. These tests run it the
way the benchmark does, so a change to a wrapped function shows up here
rather than as a crashed benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

from biplot.cli import main
from biplot.data import case_csv

ROOT = Path(__file__).resolve().parents[1]


def _traced_spans(cwd: Path, *argv: str) -> list:
    spans = cwd / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans),
                           "0", *argv], cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text(encoding="utf-8"))["spans"]


def _counters(spans: list, name: str) -> list:
    return [counters for span_name, _, _, _, counters, _ in spans if span_name == name]


def test_traced_compare_writes_the_plain_artifacts(tmp_path):
    # The tracer wraps every public function and AnalysisReport.to_json; compare
    # streams its panels, so the traced run must write the bytes of a plain one.
    csv = case_csv(1)
    traced, plain = tmp_path / "traced", tmp_path / "plain"
    for out in (traced, plain):
        out.mkdir()
        (out / "case1.csv").write_text(csv, encoding="utf-8")
    _traced_spans(traced, "compare", "case1.csv", "--methods", "jk,pca,mds,ca", "--out", "p")
    assert main(["compare", str(plain / "case1.csv"), "--methods", "jk,pca,mds,ca",
                 "--out", str(plain / "p")]) == 0
    names = sorted(f.name for f in (plain / "p").iterdir())
    assert len(names) == 9 and sorted(f.name for f in (traced / "p").iterdir()) == names
    for name in names:
        assert (traced / "p" / name).read_bytes() == (plain / "p" / name).read_bytes(), name


def test_tracer_sees_the_fits_one_svd(tmp_path):
    # The fit takes the SVD of R, the triangular factor of X: 8 x 8 for case 1's 21 x 8 table.
    spans = _traced_spans(tmp_path, "case", "1", "--json", "r.json", "--svg", "p.svg")
    assert _counters(spans, "linalg.svd") == [{"cells": 64}]
