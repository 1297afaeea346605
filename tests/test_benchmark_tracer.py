"""The benchmark's tracer (perfbench/tracer.py) wraps the program's public
functions from outside and reads what they return. These tests run it the
way the benchmark does, so a change to a wrapped function shows up here
rather than as a crashed benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_tracer_sees_the_report_writers(tmp_path):
    # analyze and case stream both artifacts (AnalysisReport.json_lines and
    # report.svg_lines); compare's JK panel still calls the writers it counts.
    (tmp_path / "case1.csv").write_text(case_csv(1), encoding="utf-8")
    spans = _traced_spans(tmp_path, "compare", "case1.csv", "--methods", "jk")
    for name, artifact in (("report.to_json", "case1_jk.json"),
                           ("report.render_svg", "case1_jk.svg")):
        size = (tmp_path / artifact).stat().st_size
        assert [c["bytes"] for c in _counters(spans, name)] == [size]


def test_tracer_sees_the_fits_one_svd(tmp_path):
    # The fit takes the SVD of R, the triangular factor of X: 8 x 8 for case 1's 21 x 8 table.
    spans = _traced_spans(tmp_path, "case", "1", "--json", "r.json", "--svg", "p.svg")
    assert _counters(spans, "linalg.svd") == [{"cells": 64}]
