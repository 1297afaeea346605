import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biplot.data import load_case, preprocess
from biplot.engine import column_cosines, jk, pearson, quality
from biplot.errors import InputError
from biplot.report import (JSON_KWARGS, AnalysisReport, PlotSpec, _json_chunks, build_report,
                           render_svg, write_json)


def fitted_case(cid=1):
    t = load_case(cid)
    x, rec = preprocess(t, "zscore")
    m = jk(x, 2, row_labels=t.row_labels, col_labels=t.col_labels,
           preprocess_record=rec, name=t.name)
    q = quality(m, x)
    return t, m, q


def full_report(cid=1):
    t, m, q = fitted_case(cid)
    return t, m, q, build_report(m, q, pearson(t), column_cosines(m), [])


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


def test_build_report_rejects_mixed_models():
    t1, m1, q1 = fitted_case(1)
    t2, m2, q2 = fitted_case(2)
    with pytest.raises(InputError):
        build_report(m1, q2, pearson(t1), column_cosines(m1), [])
    with pytest.raises(InputError):
        build_report(m1, q1, pearson(t2), column_cosines(m1), [])


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
    t, m, q = fitted_case(2)
    rep1 = build_report(m, q, pearson(t), column_cosines(m), [])
    svg_a = render_svg(m, q, PlotSpec(vector_scale=1.0))
    svg_b = render_svg(m, q, PlotSpec(vector_scale=2.0))
    rep2 = build_report(m, q, pearson(t), column_cosines(m), [])
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
