import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biplot.data import DataTable, load_case, preprocess
from biplot.engine import column_cosines, jk, pearson, quality, sqrt_biplot
from biplot.errors import InputError
from biplot.report import (JSON_KWARGS, AnalysisReport, PlotSpec, _json_chunks, analyze,
                           method_name, render_svg, write_json)


def fitted_case(cid=1):
    t = load_case(cid)
    m, q, _ = analyze(t)
    return t, m, q


def full_report(cid=1):
    t = load_case(cid)
    return (t, *analyze(t))


def test_report_contains_case1_fit():
    _, _, _, rep = full_report(1)
    assert abs(rep.quality["qr_overall"] - 0.899) <= 0.03


def test_report_round_trip_exact():
    _, _, _, rep = full_report(1)
    text = rep.to_json()
    back = AnalysisReport.from_json(text)
    assert back == rep
    assert back.to_json() == text


def test_report_json_is_key_sorted():
    _, _, _, rep = full_report(2)
    doc = json.loads(rep.to_json())
    assert list(doc.keys()) == sorted(doc.keys())


def test_report_completeness():
    _, _, _, rep = full_report(3)
    for field in ("dataset", "preprocess", "method", "singular_values",
                  "row_markers", "col_markers", "quality", "correlations",
                  "cosines", "warnings"):
        assert getattr(rep, field) is not None
    assert rep.quality.keys() == {"qr_rows", "qr_cols", "qr_overall",
                                  "residual_frobenius"}


def test_analyze_is_the_library_chain():
    t = load_case(3)
    m, q, rep = analyze(t, gamma=0.5, dims=3, scale="center")
    x, rec = preprocess(t, "center")
    ref = sqrt_biplot(x, 3, row_labels=t.row_labels, col_labels=t.col_labels,
                      preprocess_record=rec, name=t.name)
    ref_q = quality(ref, x)
    assert np.array_equal(m.row_markers, ref.row_markers)
    assert np.array_equal(m.col_markers, ref.col_markers)
    assert np.array_equal(q.qr_rows, ref_q.qr_rows) and q.qr_overall == ref_q.qr_overall
    assert rep.method == {"name": "sqrt", "gamma": 0.5, "dims": 3}
    assert rep.preprocess == {"mode": "center", "means": list(rec.means), "sds": list(rec.sds)}
    assert rep.quality["qr_cols"] == ref_q.qr_cols.tolist()
    assert rep.correlations == pearson(t).tolist()
    assert rep.cosines == column_cosines(ref).tolist()
    assert rep.warnings == []


def test_analyze_warns_on_zero_length_column_markers():
    t = DataTable("diag", ("a", "b", "c"), ("x", "y", "z"), np.diag([3.0, 2.0, 1.0]))
    _, _, rep = analyze(t, scale="none")
    assert np.isnan(rep.cosines[2][0])
    assert rep.warnings == ["cosines undefined for zero-length column markers"]


@pytest.mark.parametrize("gamma, name", [(1.0, "jk"), (0.0, "gh"), (0.5, "sqrt"),
                                         (0.3, "biplot")])
def test_method_name(gamma, name):
    assert method_name(gamma) == name


def test_svg_element_counts():
    rng = np.random.default_rng(1)
    from biplot.engine import fit_biplot
    x = rng.normal(size=(4, 3))
    m = fit_biplot(x, 1.0, 2)
    q = quality(m, x)
    svg = render_svg(m, q)
    assert svg.count('class="dot"') == 4
    assert svg.count('class="arrow"') == 3
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_svg_deterministic():
    _, m, q = fitted_case(1)
    assert render_svg(m, q) == render_svg(m, q)


def test_svg_contains_all_labels_and_variance_shares():
    t, m, q = fitted_case(1)
    svg = render_svg(m, q)
    for label in t.row_labels:
        assert label in svg
    for label in t.col_labels:
        assert label.replace("&", "&amp;") in svg
    assert "Axis 1 (" in svg and "Axis 2 (" in svg
    assert "vector scale" in svg


def test_svg_requires_two_dims():
    t = load_case(1)
    x, _ = preprocess(t, "zscore")
    m = jk(x, 3)
    with pytest.raises(InputError):
        render_svg(m, quality(m, x))


def test_vector_scale_changes_svg_not_report():
    t, m, q, rep1 = full_report(2)
    svg_a = render_svg(m, q, PlotSpec(vector_scale=1.0))
    svg_b = render_svg(m, q, PlotSpec(vector_scale=2.0))
    _, _, rep2 = analyze(t)
    assert svg_a != svg_b
    assert rep1 == rep2


def test_vector_scale_must_be_positive():
    _, m, q = fitted_case(1)
    with pytest.raises(InputError):
        render_svg(m, q, PlotSpec(vector_scale=0.0))


# Differential test: the chunked JSON writer against json.dumps with the
# layout it must reproduce.

_FLOATS = st.one_of(st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"),
                                                  -0.0, 5e-324]))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS,
                     _FLOATS.map(np.float64), st.text())
_ROW = st.lists(st.one_of(st.integers(), _FLOATS), min_size=1, max_size=4)


@st.composite
def _matrices(draw):
    """Lists of rows of numbers: equal-length ones (the C-encoder path) or,
    after an edit, ragged or holding a bool or a numpy scalar."""
    rows = draw(st.lists(_ROW, min_size=1, max_size=4))
    width = len(rows[0])
    rows = [(row * width)[:width] for row in rows]
    edit = draw(st.sampled_from(["none", "ragged", "bool", "numpy"]))
    if edit == "ragged":
        rows[-1] = rows[-1] + [1.5]
    elif edit != "none":
        rows[-1][0] = True if edit == "bool" else np.float64(rows[-1][0])
    return rows


_JSON = st.recursive(
    st.one_of(_SCALARS, st.lists(_FLOATS), st.lists(st.integers()), st.lists(st.text()),
              _matrices()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=500, deadline=None)
@given(_JSON)
@example({"é€": ["ü", "a,b", '"'], "": {}, "x": [], "m": [[1, 2.5], [3, 4.0]]})
def test_json_chunks_match_json_dumps(obj):
    assert "".join(_json_chunks(obj)) == json.dumps(obj, **JSON_KWARGS)


@pytest.mark.parametrize("obj", [[0.1 * i for i in range(4095)], [0.1 * i for i in range(4096)],
                                 [0.1 * i for i in range(4097)], list(range(4097)),
                                 [str(i) for i in range(4097)],
                                 np.arange(9000.0).reshape(3, 3000).tolist()],
                         ids=["4095", "4096", "4097", "ints", "strings", "3x3000"])
def test_json_chunks_across_slice_boundaries(obj):
    assert "".join(_json_chunks(obj)) == json.dumps(obj, **JSON_KWARGS)


def test_write_json_equals_to_json():
    _, _, _, rep = full_report(1)
    out = io.StringIO()
    write_json(rep, out)
    assert out.getvalue() == rep.to_json() == json.dumps(rep.__dict__, **JSON_KWARGS) + "\n"

