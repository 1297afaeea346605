import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biplot.catalog import method_name
from biplot.data import DataTable, load_case, parse_table, preprocess, serialize_table
from biplot.engine import column_cosines, fit_biplot, jk, pearson, quality, sqrt_biplot
from biplot.errors import InputError
from biplot.report import (_BLOCK, _CX, _CY, _HALF, AnalysisReport, _escape, analyze, json_lines,
                           scatter_lines, svg_lines)

_LABELLED = 100  # rows, or columns, that carry a label in a layer


def _fmt(v: float) -> str:
    """A coordinate as every SVG panel writes it."""
    return f"{v:.3f}"


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
    assert AnalysisReport.from_json(text).to_json() == text
    assert AnalysisReport.from_json(text).schema_version == 2


def _table(n, p, seed=0):
    x = np.random.default_rng(seed).normal(size=(n, p))
    return DataTable(f"t{p}", tuple(f"r{i}" for i in range(n)),
                     tuple(f"c{j}" for j in range(p)), x)


@pytest.mark.parametrize("p", [64, 65])
def test_report_blocks_up_to_64_columns(p):
    _, _, rep = analyze(_table(150, p))
    doc = json.loads(rep.to_json())
    assert doc["schema_version"] == rep.schema_version == 2
    if p == 64:
        assert rep.correlations.shape == rep.cosines.shape == (64, 64)
        assert len(doc["correlations"]) == len(doc["cosines"]) == 64
        assert rep.warnings == []
    else:
        assert rep.correlations is None and rep.cosines is None
        assert "correlations" not in doc and "cosines" not in doc
        assert rep.warnings == ["65 columns, more than 64: correlations and cosines left out; "
                                "engine.column_correlations and engine.column_cosines compute them"]


def test_from_json_reads_schema_2_without_blocks():
    _, _, rep = analyze(_table(120, 65))
    text = rep.to_json()
    back = AnalysisReport.from_json(text)
    assert back.schema_version == 2 and back.correlations is None and back.cosines is None
    assert back.to_json() == text


def test_from_json_reads_schema_1():
    _, _, _, rep = full_report(1)
    doc = json.loads(rep.to_json())
    del doc["schema_version"]  # schema 1: no version key, the blocks always there
    back = AnalysisReport.from_json("".join(json_lines(doc)))
    assert back.schema_version == 1
    assert back.correlations == rep.correlations.tolist()
    assert back.cosines == rep.cosines.tolist()
    assert json.loads(back.to_json()) == {**doc, "schema_version": 1}


def test_report_json_is_key_sorted():
    _, _, _, rep = full_report(2)
    doc = json.loads(rep.to_json())
    assert list(doc.keys()) == sorted(doc.keys())


def test_report_completeness():
    _, _, _, rep = full_report(3)
    for field in ("dataset", "preprocess", "method", "singular_values",
                  "row_markers", "col_markers", "quality", "correlations",
                  "cosines", "warnings", "schema_version"):
        assert getattr(rep, field) is not None
    assert rep.quality.keys() == {"qr_rows", "qr_cols", "qr_overall",
                                  "residual_frobenius"}


def test_analyze_is_the_library_chain():
    t = load_case(3)
    m, q, rep = analyze(t, gamma=0.5, dims=3, scale="center")
    x, rec = preprocess(t, "center")
    ref = sqrt_biplot(x, 3, row_labels=t.row_labels, col_labels=t.col_labels)
    ref_q = quality(ref, x)
    assert np.array_equal(m.row_markers, ref.row_markers)
    assert np.array_equal(m.col_markers, ref.col_markers)
    assert np.array_equal(q.qr_rows, ref_q.qr_rows) and q.qr_overall == ref_q.qr_overall
    assert rep.method == {"name": "sqrt", "gamma": 0.5, "dims": 3}
    assert rep.preprocess == {"mode": "center", "means": list(rec.means), "sds": list(rec.sds)}
    assert np.array_equal(rep.quality["qr_cols"], ref_q.qr_cols)
    assert np.max(np.abs(rep.correlations - pearson(t))) <= 1e-12
    assert np.array_equal(rep.cosines, column_cosines(ref))
    assert rep.warnings == []


def test_analyze_warns_on_zero_length_column_markers():
    t = DataTable("diag", ("a", "b", "c"), ("x", "y", "z"), np.diag([3.0, 2.0, 1.0]))
    _, _, rep = analyze(t, scale="none")
    assert np.isnan(rep.cosines[2][0])
    assert rep.warnings == ["cosines undefined for zero-length column markers"]


def test_analyze_warns_on_quality_of_rounding_size():
    x = np.random.default_rng(2).normal(size=(6, 4)) * [1, 1, 1, 1e-16]
    t = DataTable("tiny", tuple("abcdef"), ("w", "x", "y", "z"), x)
    _, q, rep = analyze(t, scale="none")
    assert rep.warnings == ["quality is rounding noise for 1 of the rows and columns, whose "
                            "squared norm is at most 1e-9 of the matrix's; the first is "
                            "column 'z'"]
    assert np.array_equal(rep.quality["qr_cols"], q.qr_cols)
    assert q.noise_cols == ("z",)
    for cid in (1, 2, 3):
        assert analyze(load_case(cid))[2].warnings == []


@pytest.mark.parametrize("gamma, name", [(1.0, "jk"), (0.0, "gh"), (0.5, "sqrt"),
                                         (0.3, "biplot")])
def test_method_name(gamma, name):
    assert method_name(gamma) == method_name(gamma, 5) == method_name(gamma, 2, svg=True) == name
    assert method_name(gamma, np.int64(2), svg=True) == method_name(gamma, np.int32(3)) == name


@pytest.mark.parametrize("gamma", [-0.1, 1.5, math.nan, math.inf])
def test_method_name_refuses_a_gamma_outside_the_unit_interval(gamma):
    """The gamma is named first, before a non-integer dims, an SVG's axes and a dims below 1."""
    for dims, svg in [(1, False), (0, False), (3, True), (-1, True), (2.0, False), (2.0, True)]:
        with pytest.raises(InputError, match=re.escape(f"gamma must lie in [0, 1], got {gamma}")):
            method_name(gamma, dims, svg)


@pytest.mark.parametrize("dims, svg, says", [
    (0, False, "dims must be positive, got 0"), (-1, False, "dims must be positive, got -1"),
    (1, True, "SVG rendering requires a 2-D model, got dims=1"),
    (3, True, "SVG rendering requires a 2-D model, got dims=3"),
    (0, True, "SVG rendering requires a 2-D model, got dims=0"),
    (np.int64(0), False, "dims must be positive, got 0"),
    (2.0, False, "dims must be an integer, got 2.0"),
    (2.0, True, "dims must be an integer, got 2.0"),
    (0.5, False, "dims must be an integer, got 0.5"),
    (3.0, True, "dims must be an integer, got 3.0"),
])
def test_method_name_refuses_an_svg_off_two_axes_then_a_dims_below_1(dims, svg, says):
    """A ``dims`` that is no integer is named before the SVG's axes and a ``dims`` below 1."""
    with pytest.raises(InputError, match=f"^{re.escape(says)}$"):
        method_name(0.5, dims, svg)


@pytest.mark.parametrize("options, says", [
    ({"gamma": 1.5}, "gamma must lie in [0, 1], got 1.5"),
    ({"gamma": math.nan}, "gamma must lie in [0, 1], got nan"),
    ({"dims": 0}, "dims must be positive, got 0"),
    ({"dims": -1}, "dims must be positive, got -1"),
    ({"dims": 2.0}, "dims must be an integer, got 2.0"),
], ids=["1.5", "nan", "dims=0", "dims=-1", "dims=2.0"])
def test_analyze_refuses_gamma_before_it_touches_the_table(options, says):
    """A parsed table handed over with ``overwrite_table`` keeps its values, bit for bit, when
    its gamma or its dims is refused."""
    t = load_case(1)
    raw = t.values.tobytes()
    with pytest.raises(InputError, match=f"^{re.escape(says)}$"):
        analyze(t, **options, overwrite_table=True)
    assert t.values.tobytes() == raw


def test_analyze_names_an_unknown_scale_before_it_judges_the_columns():
    """A scale that is none of SCALES is named, not a constant column it would never read, and
    the table handed over with ``overwrite_table`` keeps its values, bit for bit."""
    t = parse_table(",x,y\na,1,5\nb,2,5\nc,4,5\n", "t")
    raw = t.values.tobytes()
    with pytest.raises(InputError, match="^unknown preprocessing mode 'bogus'$"):
        analyze(t, scale="bogus", overwrite_table=True)
    assert t.values.tobytes() == raw


def test_a_report_made_by_replace_is_read_only_too():
    rep = analyze(load_case(1))[2]
    other = dataclasses.replace(rep, cosines=-rep.cosines)
    assert np.array_equal(other.cosines, -rep.cosines) and not other.cosines.flags.writeable
    assert other.correlations is rep.correlations


def test_svg_refuses_a_hand_built_model_outside_two_axes_or_the_unit_interval():
    _, m, q = fitted_case(1)
    with pytest.raises(InputError, match=re.escape("requires a 2-D model, got dims=3")):
        svg_lines(dataclasses.replace(m, dims=3), q)
    with pytest.raises(InputError, match=re.escape("gamma must lie in [0, 1], got 1.5")):
        svg_lines(dataclasses.replace(m, gamma=1.5), q)
    with pytest.raises(InputError, match=re.escape("gamma must lie in [0, 1], got 1.5")):
        svg_lines(dataclasses.replace(m, gamma=1.5, dims=3), q)  # the gamma is named first


def test_svg_element_counts():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 3))
    m = fit_biplot(x, 1.0, 2)
    q = quality(m, x)
    svg = "".join(svg_lines(m, q))
    assert svg.count('class="dot"') == 4
    assert svg.count('class="arrow"') == 3
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_svg_deterministic():
    _, m, q = fitted_case(1)
    assert "".join(svg_lines(m, q)) == "".join(svg_lines(m, q))


def test_svg_contains_all_labels_and_variance_shares():
    t, m, q = fitted_case(1)
    svg = "".join(svg_lines(m, q))
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
        svg_lines(m, quality(m, x))


def test_scatter_needs_one_label_per_point():
    rows, cols = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.5, 0.5]])
    svg = "".join(scatter_lines(rows, ("a", "b"), "t", col_coords=cols, col_labels=("c",)))
    assert svg.count('class="col-dot"') == svg.count('class="col-label"') == 1
    for bad in [dict(col_coords=cols), dict(col_coords=cols, col_labels=("c", "d"))]:
        with pytest.raises(InputError, match="one label per point"):
            scatter_lines(rows, ("a", "b"), "t", **bad)
    with pytest.raises(InputError, match="one label per point"):
        scatter_lines(rows, ("a",), "t")


def test_scatter_needs_two_columns_of_coordinates():
    says = r"^scatter rendering needs n x 2 coordinates, got "
    with pytest.raises(InputError, match=says + r"\(3, 3\)$"):
        scatter_lines(np.zeros((3, 3)), ("a", "b", "c"), "t")
    with pytest.raises(InputError, match=says + r"\(2, 1\)$"):
        scatter_lines(np.zeros((3, 2)), ("a", "b", "c"), "t", col_coords=np.zeros((2, 1)),
                      col_labels=("c", "d"))


def test_scatter_needs_finite_nonempty_coordinates():
    rows, cols = np.zeros((150, 2)), np.ones((2, 2))
    rows[7, 1] = cols[1, 0] = np.nan
    with pytest.raises(InputError, match="^coords contains a non-finite entry at row 7, column 1"):
        scatter_lines(rows, tuple(map(str, range(150))), "t")
    with pytest.raises(InputError, match="^col_coords contains a non-finite entry at row 1, col"):
        scatter_lines(rows[:7], tuple("abcdefg"), "t", col_coords=cols,
                      col_labels=("c", "d"))
    with pytest.raises(InputError, match=r"^coords must be a non-empty 2-D array, got shape \(0,"):
        scatter_lines(np.zeros((0, 2)), (), "t")


# Each layer, written in blocks, against a per-point writer: one f-string
# per element, and ``_escape`` on each label drawn. A label is drawn on the
# 100 points farthest from the origin, ties in row order.

def _labelled(coords):
    """The rows of ``coords`` that carry a label."""
    far = sorted(range(len(coords)), key=lambda i: (-math.hypot(*coords[i].tolist()), i))
    return set(far[:_LABELLED])


def _reference_rows(coords, labels, *more_coords):
    """The row dots of ``coords`` as the per-row writer draws them, on the
    scale shared with ``more_coords``."""
    points = _pixels(coords, *more_coords).tolist()
    shown = _labelled(coords)
    out = []
    for i, ((x, y), label) in enumerate(zip(points, labels, strict=True)):
        out.append(f'<circle class="dot" cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="#003366"/>\n')
        if i in shown:
            out.append(f'<text class="row-label" x="{_fmt(x + 5)}" y="{_fmt(y + 3)}" '
                       f'font-size="11" fill="#003366">{_escape(label)}</text>\n')
    return "".join(out)


def _arrow_tips(model):
    """The column markers as the biplot draws them: the longest at 40% of the
    largest row coordinate."""
    B = model.col_markers
    return B * (0.4 * float(np.max(np.abs(model.row_markers)))
                / float(np.max(np.linalg.norm(B, axis=1))))


def _reference_cols(coords, labels, arrows, *more_coords):
    """The column layer of ``coords`` as the per-column writer draws it, on the
    scale shared with ``more_coords``: an arrow from the centre, or a square."""
    points = _pixels(coords, *more_coords).tolist()
    shown = _labelled(coords)
    out = []
    for i, ((x, y), label) in enumerate(zip(points, labels, strict=True)):
        if arrows:
            out.append(f'<line class="arrow" x1="{_fmt(_CX)}" y1="{_fmt(_CY)}" '
                       f'x2="{_fmt(x)}" y2="{_fmt(y)}" stroke="#cc0000" '
                       f'stroke-width="1.5" marker-end="url(#head)"/>\n')
            x, y = x + 4, y - 4
        else:
            out.append(f'<rect class="col-dot" x="{_fmt(x - 3)}" y="{_fmt(y - 3)}" '
                       f'width="6" height="6" fill="#cc0000"/>\n')
            x, y = x + 5, y + 3
        if i in shown:
            out.append(f'<text class="col-label" x="{_fmt(x)}" y="{_fmt(y)}" '
                       f'font-size="11" fill="#cc0000">{_escape(label)}</text>\n')
    return "".join(out)


def _pixels(coords, *sets):
    """``coords`` in pixels, on the scale every panel shares with ``sets``."""
    unit = _HALF / (max(float(np.max(np.abs(c))) for c in (coords, *sets)) or 1.0)
    return np.column_stack((_CX + coords[:, 0] * unit, _CY - coords[:, 1] * unit))


def _assert_row_layer(svg, reference):
    """The rows of ``svg`` are exactly ``reference``: the document holds no
    other dot, and ``reference`` runs from its first dot to the column
    squares or, without them, to the legend."""
    start = svg.index('<circle class="dot"')
    end = min(i for i in (svg.find('<rect class="col-dot"'), svg.find('<text class="legend"'))
              if i >= 0)
    assert svg[start:end] == reference
    assert svg.count("<circle") == reference.count("<circle")


@pytest.mark.parametrize("odd", [None, "&", "<", "\x01", "\ufffe"])
@pytest.mark.parametrize("gamma", [1.0, 0.0])
def test_column_layers_match_per_column_writer(gamma, odd):
    for p in (3, 101):  # at 101 columns, the one nearest the origin is unlabelled
        col_labels = (*(f"c{j}" for j in range(p - 1)), "c" if odd is None else f"x{odd}y")
        x = np.random.default_rng(5).normal(size=(30, p))
        m = fit_biplot(x, gamma, 2, col_labels=col_labels)
        svg = "".join(svg_lines(m, quality(m, x)))
        layer = svg[svg.index('<line class="arrow"'):svg.index('<circle class="dot"')]
        assert layer == _reference_cols(_arrow_tips(m), col_labels, True, m.row_markers)
        assert layer.count('class="col-label"') == min(p, _LABELLED)
        for cols in (x[:2].T * 4.0, x[:2].T / 4.0):  # the squares set the scale, then the rows
            svg = "".join(scatter_lines(x[:, :2], tuple(map(str, range(30))), "t",
                                        col_coords=cols, col_labels=col_labels))
            layer = svg[svg.index('<rect class="col-dot"'):svg.index('<text class="legend"')]
            assert layer == _reference_cols(cols, col_labels, False, x[:, :2])
            assert layer.count('class="col-label"') == min(p, _LABELLED)


@pytest.mark.parametrize("odd", [None, "&", "<", "\x01", "\ufffe"])
@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_row_blocks_match_per_row_writer(n, odd):
    labels = [f"r{i}" for i in range(n)]
    if odd is not None:
        labels[-1] = f"x{odd}y"  # the one label that needs escaping, in the last block
    x = np.random.default_rng(n).normal(size=(n, 3))
    x[-1] *= 10.0  # the last row is labelled: it lies farthest out in both panels
    m = fit_biplot(x, 1.0, 2, row_labels=tuple(labels), col_labels=("a", "b", "c"))
    svg = "".join(svg_lines(m, quality(m, x)))
    _assert_row_layer(svg, _reference_rows(m.row_markers, labels, _arrow_tips(m)))
    assert f">{_escape(labels[-1])}</text>" in svg
    cols = x[:3, 1:] * 4.0
    svg = "".join(scatter_lines(x[:, :2], tuple(labels), "t", col_coords=cols,
                                col_labels=("a", "b", "c")))
    _assert_row_layer(svg, _reference_rows(x[:, :2], labels, cols))
    assert f">{_escape(labels[-1])}</text>" in svg
    assert svg.count('class="row-label"') == _LABELLED


def test_hundred_rows_all_labelled():
    x = np.random.default_rng(3).normal(size=(100, 2))
    labels = tuple(f"r{i}" for i in range(100))
    svg = "".join(scatter_lines(x, labels, "t"))
    _assert_row_layer(svg, _reference_rows(x, labels))
    assert svg.count('class="row-label"') == 100


@pytest.mark.parametrize("n", [101, 201])
def test_more_rows_label_the_farthest_hundred(n):
    # Every row lies at distance 1 but the last, at 2: the 99 labels left
    # after it go to the first 99 rows, which win the tie by row order.
    coords = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]] * 50)[:n - 1]
    coords = np.vstack([coords, [[2.0, 0.0]]])
    labels = tuple(f"r{i}" for i in range(n))
    svg = "".join(scatter_lines(coords, labels, "t"))
    _assert_row_layer(svg, _reference_rows(coords, labels))
    assert svg.count("<circle") == n
    drawn = re.findall(r'class="row-label"[^>]*>(r\d+)</text>', svg)
    assert drawn == [f"r{i}" for i in [*range(99), n - 1]]


def test_a_tie_at_the_last_label_across_blocks_goes_to_the_earlier_row():
    # 99 rows lie at distance 2; rows 5 and _BLOCK + 5, in different blocks, tie at 1 for
    # the hundredth label, and the earlier one takes it.
    n = 2 * _BLOCK
    coords = np.full((n, 2), 0.5)
    coords[_BLOCK + 10:_BLOCK + 109] = [2.0, 0.0]
    coords[[5, _BLOCK + 5]] = [[0.0, 1.0], [1.0, 0.0]]
    labels = tuple(f"r{i}" for i in range(n))
    svg = "".join(scatter_lines(coords, labels, "t"))
    _assert_row_layer(svg, _reference_rows(coords, labels))
    drawn = re.findall(r'class="row-label"[^>]*>(r\d+)</text>', svg)
    assert drawn == ["r5", *(f"r{i}" for i in range(_BLOCK + 10, _BLOCK + 109))]


@pytest.mark.parametrize("first", [1e307, 1.3e308])
def test_rows_farther_out_than_the_largest_float_are_ranked_without_overflow(first):
    # From row 125 on (from row 0 when first is 1.3e308), hypot of the raw coordinates
    # overflows to inf; the labels still go to the 100 rows farthest out, not by row order.
    coords = np.repeat(np.linspace(first, 1.5e308, 150)[:, None], 2, axis=1)
    labels = tuple(f"r{i}" for i in range(150))
    # pytest turns a RuntimeWarning into an error
    svg = "".join(scatter_lines(coords, labels, "t"))
    assert svg.count("<circle") == 150
    drawn = re.findall(r'class="row-label"[^>]*>(r\d+)</text>', svg)
    assert drawn == [f"r{i}" for i in range(50, 150)]


_COORD = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_COORD, _COORD, st.text()), min_size=1, max_size=12))
def test_row_layer_matches_per_row_writer(rows):
    coords = np.array([r[:2] for r in rows], dtype=float)
    labels = tuple(r[2] for r in rows)
    extent = float(np.max(np.abs(coords))) or 1.0
    if not math.isfinite(_HALF / extent):  # a subnormal largest coordinate: no pixel scale
        with pytest.raises(InputError, match=r"^the largest \|coordinate\|, .* has no finite"):
            scatter_lines(coords, labels, "t")
        return
    _assert_row_layer("".join(scatter_lines(coords, labels, "t")),
                      _reference_rows(coords, labels))


def test_coordinates_too_small_for_a_pixel_scale_are_refused():
    tiny = np.array([[5e-324, 0.0], [0.0, 1e-320]])
    with pytest.raises(InputError, match=r"^the largest \|coordinate\|, 1e-320, has no finite"):
        scatter_lines(tiny, ("a", "b"), "t")
    m = fit_biplot(tiny, 1.0, 2)
    with pytest.raises(InputError, match=r"^the largest \|coordinate\|, .* has no finite"):
        svg_lines(m, quality(m, tiny))


# The JSON writer: strict JSON that reads back to the document, with
# non-finite floats as null.

_FLOATS = st.one_of(st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"),
                                                  -0.0, 5e-324]))
_INTS = st.integers(-2 ** 63, 2 ** 63 - 1)
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)))
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _TEXT)
_JSON = st.recursive(
    st.one_of(_SCALARS, st.lists(_FLOATS), st.lists(_INTS), st.lists(_TEXT),
              st.lists(st.lists(_FLOATS, min_size=2, max_size=2))),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=20)


def _finite_or_none(doc):
    if isinstance(doc, float) and not math.isfinite(doc):
        return None
    if isinstance(doc, list):
        return [_finite_or_none(v) for v in doc]
    if isinstance(doc, dict):
        return {k: _finite_or_none(v) for k, v in doc.items()}
    return doc


def _refuse(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=500, deadline=None)
@given(_JSON)
def test_dumps_reads_back_as_strict_json(doc):
    text = "".join(json_lines(doc))
    assert text.endswith("\n")
    assert json.loads(text, parse_constant=_refuse) == _finite_or_none(doc)


def _one_orjson_call(doc) -> str:
    """The reference the JSON writer keeps the bytes of: the whole document
    through one ``orjson.dumps``."""
    return orjson.dumps(doc, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS
                        | orjson.OPT_APPEND_NEWLINE | orjson.OPT_SERIALIZE_NUMPY).decode()


@settings(max_examples=500, deadline=None)
@given(_JSON, st.sampled_from([1, 2]))
def test_dumps_in_blocks_equals_one_orjson_call(doc, block):
    # A block of one or two items splits every list the strategy draws, at every depth.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("biplot.report._BLOCK", block)
        assert "".join(json_lines(doc)) == _one_orjson_call(doc)


@pytest.mark.parametrize("n, p", [(_BLOCK, 3), (_BLOCK + 1, 3), (3 * _BLOCK + 5, 3),
                                  (_BLOCK + 1, 65)])
def test_streamed_report_equals_one_orjson_call(n, p):
    labels = tuple(f"r{i}" for i in range(n - 1)) + ('Zürich "Ω" \\ \x01',)
    t = DataTable("t", labels, tuple(f"c{j}" for j in range(p)),
                  np.random.default_rng(n + p).normal(size=(n, p)))
    rep = analyze(t)[2]
    if rep.cosines is not None:
        rep = dataclasses.replace(rep, cosines=np.where(np.eye(p) > 0, np.nan, rep.cosines))
    pieces = list(rep.json_lines())
    text = "".join(pieces)
    doc = {k: v for k, v in rep.__dict__.items() if v is not None}
    assert text == rep.to_json() == "".join(json_lines(doc)) == _one_orjson_call(doc)
    assert ('Zürich \\"Ω\\" \\\\ \\u0001' in text) and (("null" in text) == (p <= 64))
    # No piece holds more than one block of row markers, of four lines per row.
    assert max(piece.count("\n") for piece in pieces) <= 4 * _BLOCK + 1


def test_dumps_layout():
    doc = {"b": [1.5, float("nan"), 1e16], "a": {"é": "ü", "z": [], "y": {}}, "": 1e-05}
    assert "".join(json_lines(doc)) == (
        '{\n  "": 0.00001,\n  "a": {\n    "y": {},\n    "z": [],\n'
        '    "é": "ü"\n  },\n  "b": [\n    1.5,\n    null,\n    1e16\n  ]\n}\n')


def test_analyze_holds_one_matrix_beside_the_table():
    """numpy reports its buffers to tracemalloc (LAPACK's own copies it does
    not see): beyond the table, analyze holds the z-scored copy, row blocks
    and n x dims arrays, under 2x the table's bytes in all."""
    n, p = 40000, 20
    t = DataTable("tall", tuple(f"r{i}" for i in range(n)), tuple(f"c{j}" for j in range(p)),
                  np.random.default_rng(0).normal(size=(n, p)))
    analyze(t)  # warm-up: first calls allocate caches of their own
    tracemalloc.start()
    try:
        analyze(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * t.values.nbytes


def test_analyze_in_a_handed_over_table_holds_no_second_matrix():
    """With the parsed table handed over, the z-score takes its buffer: beyond
    it analyze holds row blocks and n x dims arrays, under half its bytes."""
    n, p = 40000, 20
    t = DataTable("tall", tuple(f"r{i}" for i in range(n)), tuple(f"c{j}" for j in range(p)),
                  np.random.default_rng(0).normal(size=(n, p)))
    parsed = parse_table(serialize_table(t), "tall")
    analyze(t)  # warm-up
    tracemalloc.start()
    try:
        analyze(parsed, overwrite_table=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * t.values.nbytes


def test_svg_rows_take_one_block_of_memory():
    """Beyond the model, iterating svg_lines holds a block of rows at a time:
    its peak at 100 000 rows is that at 25 000, to within 10%."""
    peaks = []
    for n in (25000, 100000):
        x = np.random.default_rng(0).normal(size=(n, 3))
        m = fit_biplot(x, 1.0, 2)
        q = quality(m, x)
        tracemalloc.start()
        try:
            for _ in svg_lines(m, q):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


@pytest.mark.parametrize("scale", ["zscore", "center", "none"])
def test_overwrite_table_reuses_only_a_parsed_tables_buffer(scale):
    x = np.random.default_rng(4).normal(size=(50, 4))
    raw = x.copy()
    t = DataTable("t", tuple(f"r{i}" for i in range(50)), ("a", "b", "c", "d"), x)
    expected = analyze(t, scale=scale)[2].to_json()
    assert np.array_equal(t.values, raw)
    # A library caller's table is copied, handed over or not.
    assert analyze(t, scale=scale, overwrite_table=True)[2].to_json() == expected
    assert np.array_equal(t.values, raw) and not t.values.flags.writeable
    # A parsed table's buffer takes the preprocessed matrix.
    parsed = parse_table(serialize_table(t), "t")
    z = preprocess(t, scale)[0]
    assert analyze(parsed, scale=scale, overwrite_table=True)[2].to_json() == expected
    if scale != "none":  # analyze centers X after the fit under "none"
        assert np.array_equal(parsed.values, z)
    assert not parsed.values.flags.writeable
    # A table made from another by replace() owns no buffer.
    parsed = parse_table(serialize_table(t), "t")
    other = dataclasses.replace(parsed, values=raw.copy())
    assert np.shares_memory(preprocess(parsed, scale, overwrite_table=True)[0], parsed.values)
    assert not np.shares_memory(preprocess(other, scale, overwrite_table=True)[0], other.values)
    assert np.array_equal(other.values, raw)
