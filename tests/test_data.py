import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biplot.data import (DataTable, _parse_reference, apply_record, case_csv, load_case,
                         parse_table, preprocess, serialize_table)
from biplot.errors import InputError

MINIMAL = ",a,b\nr1,1,2\nr2,3,4\nr3,5,6\n"


def test_parse_minimal_shape():
    t = parse_table(MINIMAL, "mini")
    assert t.shape == (3, 2)
    assert t.row_labels == ("r1", "r2", "r3")
    assert t.col_labels == ("a", "b")


def test_parse_rejects_text_in_numeric_field():
    bad = ",a,b\nr1,1,2\nr2,x,4\nr3,5,6\n"
    with pytest.raises(InputError, match="'x'.*'r2'.*'a'"):
        parse_table(bad, "bad")


def test_parse_rejects_ragged_row():
    bad = ",a,b\nr1,1,2\nr2,3\nr3,5,6\n"
    with pytest.raises(InputError, match="r2"):
        parse_table(bad, "bad")


def test_parse_rejects_duplicate_labels():
    with pytest.raises(InputError, match="duplicate row"):
        parse_table(",a,b\nr1,1,2\nr1,3,4\nr3,5,6\n", "bad")
    with pytest.raises(InputError, match="duplicate column"):
        parse_table(",a,a\nr1,1,2\nr2,3,4\nr3,5,6\n", "bad")


def test_parse_rejects_too_small():
    with pytest.raises(InputError):
        parse_table(",a,b\nr1,1,2\nr2,3,4\n", "bad")  # n < 3
    with pytest.raises(InputError):
        parse_table(",a\nr1,1\nr2,3\nr3,5\n", "bad")  # p < 2


def test_roundtrip_serialize_reparse():
    t = parse_table(MINIMAL, "mini")
    t2 = parse_table(serialize_table(t), "mini")
    assert t2.row_labels == t.row_labels
    assert t2.col_labels == t.col_labels
    assert np.array_equal(t2.values, t.values)
    # and for a table with awkward floats
    t3 = load_case(3)
    t4 = parse_table(serialize_table(t3), t3.name)
    assert np.array_equal(t4.values, t3.values)


def test_overlong_csv_field_raises_input_error_naming_the_row():
    big = "x" * 200_000  # over csv's default field limit of 131072
    with pytest.raises(InputError, match=r"row 1: field larger than field limit"):
        parse_table(f",{big},b\nr1,1,2\nr2,3,4\nr3,5,6\n", "t")
    # 1_000 sends the table to the per-cell parser, which meets the long label
    with pytest.raises(InputError, match=r"row 3: field larger than field limit"):
        parse_table(f",a,b\nr1,1,2\n{big},1_000,2\nr3,5,6\n", "t")


_LABEL = st.text(min_size=1, max_size=6).filter(lambda s: s == s.strip())


@st.composite
def _tables(draw):
    """Tables with unique, non-empty labels without outer whitespace and
    finite values."""
    n, p = draw(st.integers(3, 5)), draw(st.integers(2, 4))
    labels = st.lists(_LABEL, min_size=n + p, max_size=n + p, unique=True)
    rows = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=p, max_size=p)
    names = draw(labels)
    return DataTable("t", tuple(names[:n]), tuple(names[n:]),
                     np.array(draw(st.lists(rows, min_size=n, max_size=n))))


@settings(max_examples=300, deadline=None)
@given(_tables())
@example(DataTable("t", ("r1", "r2", "r3"), ("0\r0", "b"), np.ones((3, 2))))
def test_serialize_table_parses_back(t):
    back = parse_table(serialize_table(t), "t")
    assert (back.row_labels, back.col_labels) == (t.row_labels, t.col_labels)
    assert back.values.tobytes() == t.values.tobytes()


def test_preprocess_center():
    t = parse_table(",a,b\nr1,1,2\nr2,3,4\nr3,2,3\n", "m")
    x, rec = preprocess(t, "center")
    assert rec.mode == "center"
    assert np.allclose(x.mean(axis=0), 0.0, atol=1e-12)
    # two-point symmetry on the classic example
    two = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(two - two.mean(0), [[-1, -1], [1, 1]])


def test_preprocess_zscore():
    t = parse_table(",a,b\nr1,1,2\nr2,3,4\nr3,5,6\n", "m")
    x, rec = preprocess(t, "zscore")
    assert np.allclose(x.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(x.std(axis=0, ddof=1), 1.0, atol=1e-12)
    assert all(sd > 0 for sd in rec.sds)


def test_preprocess_none_passthrough():
    t = parse_table(MINIMAL, "m")
    x, rec = preprocess(t, "none")
    assert np.array_equal(x, t.values)
    assert rec.mode == "none"


def test_preprocess_zscore_rejects_constant_column():
    t = parse_table(",a,b\nr1,5,2\nr2,5,4\nr3,5,6\n", "m")
    with pytest.raises(InputError, match="'a'"):
        preprocess(t, "zscore")


def test_apply_record_reproduces_preprocessed_matrix():
    t = load_case(2)
    for mode in ("none", "center", "zscore"):
        x, rec = preprocess(t, mode)
        assert np.array_equal(apply_record(t.values, rec), x)


def test_centering_is_idempotent():
    t = load_case(1)
    x, _ = preprocess(t, "center")
    again = x - x.mean(axis=0)
    assert np.max(np.abs(again - x)) <= 1e-12 * np.max(np.abs(t.values))


def test_case1_fixture():
    t = load_case(1)
    assert t.shape == (21, 8)
    germany = t.values[t.row_labels.index("Germany")]
    assert np.array_equal(germany, [69810, 2.82, 484566, 44.8, 119216, 228773, 1.76, 1.36])
    bulgaria = t.values[t.row_labels.index("Bulgaria")]
    assert np.array_equal(bulgaria, [214, 0.6, 14699, 31.6, 3293, 2285, 0.68, 0.74])


def test_case2_fixture():
    t = load_case(2)
    assert t.shape == (25, 4)
    harvard = t.values[t.row_labels.index("Harvard University")]
    assert np.array_equal(harvard, [95.8, 67.5, 97.4, 99.8])


def test_case3_fixture():
    t = load_case(3)
    assert t.shape == (12, 6)
    assert t.col_labels == ("NDOC", "NCIT", "H-Index", "%Q1", "ACIT", "TOPCIT")
    physics = t.values[t.row_labels.index("Physics")]
    assert np.array_equal(physics, [0.374, 0.577, 0.560, 0.793, 1.000, 0.662])


def test_bad_case_id():
    with pytest.raises(InputError):
        load_case(4)
    with pytest.raises(InputError):
        case_csv(0)


def test_case_csv_parses_to_same_table():
    for cid in (1, 2, 3):
        t = load_case(cid)
        t2 = parse_table(case_csv(cid), t.name)
        assert np.array_equal(t2.values, t.values)
        assert t2.row_labels == t.row_labels


def test_datatable_rejects_nonfinite():
    with pytest.raises(InputError, match="non-finite"):
        DataTable("t", ("a", "b", "c"), ("x", "y"),
                  np.array([[1.0, 2.0], [np.nan, 4.0], [5.0, 6.0]]))


# Differential test: parse_table (numpy's C reader with a fallback) against
# the per-cell csv + float() reference parser on generated CSV text.

_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.integers(-10**6, 10**6).map(str))
# Cells on which the two readers may disagree.
_ODD_NUMBERS = st.sampled_from([
    # float() reads these as finite numbers,
    "1_000", " 2.5 ", "\t3", "5.", "+.5", "-0", "1e-400", "١٢", "１", "\xa04",
    '"7"', '"8"9', '" 6 "', '"1\n"',
    # and rejects these or reads them as non-finite.
    "", " ", "x", "1.2.3", "\x1c1", "1\x1f", '"1,5"', "0x10", "nan", "-nan", "inf",
    "-Infinity", "1e400", '"1"2"'])
_DECOR = st.text(alphabet=' #",\n\r\tab', max_size=3)


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


def _pick(draw, percent: int) -> bool:
    return draw(st.integers(0, 99)) < percent


@st.composite
def _csv_text(draw):
    """A labeled table of numbers with a few odd cells: quoted labels with
    commas, quotes, line breaks, a leading '#' or an ASCII separator, blank
    and whitespace-only lines, mixed line endings; ``messy`` tables add
    unquoted labels, ragged rows and trailing commas."""
    messy = draw(st.booleans())
    p = draw(st.integers(2, 4))
    cols = [f"c{j}" for j in range(p)]
    if draw(st.booleans()):
        cols[0] = _quote(f" a,{draw(_DECOR)}")
    lines = ["," + ",".join(cols)]
    for i in range(draw(st.integers(0 if messy else 3, 6))):
        if _pick(draw, 20):
            lines.append(draw(st.sampled_from(["", "", "   ", "\t", '""'] + [","] * messy)))
        label = f"{draw(_DECOR)}r{i}{draw(_DECOR)}" + "\x1c" * _pick(draw, 5)
        if not (messy and _pick(draw, 30)):
            label = _quote(label)
        if messy and _pick(draw, 10):
            label = " " + label
        count = p + (draw(st.sampled_from([-1, 1])) if messy and _pick(draw, 10) else 0)
        cells = [draw(_ODD_NUMBERS if _pick(draw, 6) else _NUMBERS) for _ in range(count)]
        trail = "," if messy and _pick(draw, 10) else ""
        lines.append(",".join([label] + cells) + trail)
    return "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)


def _outcome(parse, source):
    try:
        t = parse(source, "t")
    except InputError as exc:
        return "InputError", str(exc)
    return t.row_labels, t.col_labels, t.values.shape, t.values.tobytes()


@settings(max_examples=400, deadline=None)
@given(_csv_text(), st.sampled_from(["str", "bytes", "file"]))
@example(",a,b\nr1,\x1c1,2\nr2,3,4\nr3,5,6\n", "file")
@example(",a,b\r\nr1,1_000,2\r\n \r\nr2,١٢,4\r\nr3,5,6\r\n", "bytes")
@example(',a,b\n"#r1\n",1,2\n"r,""2",3,4\nr3,5,6,\n', "str")
# Row labels over csv's field size limit, on one line and across a quoted
# line break, a number over it, and a line over it whose fields are short.
@example(",a,b\nr1,1,2\n" + "x" * 200_000 + ",3,4\nr3,5,6\n", "str")
@example(',a,b\nr1,1,2\n"' + "x" * 100_000 + "\n" + "x" * 100_000 + '",3,4\nr3,5,6\n', "file")
@example(",a,b\nr1," + "0" * 200_000 + "1,2\nr2,3,4\nr3,5,6\n", "str")
@example("".join(f",c{j}" for j in range(70_000)) + "\n"
         + "".join(f"r{i}" + ",1" * 70_000 + "\n" for i in range(3)), "bytes")
def test_parse_table_matches_reference_parser(text, kind):
    source = {"str": text, "bytes": text.encode("utf-8"),
              "file": io.TextIOWrapper(io.BytesIO(text.encode("utf-8")),
                                       encoding="utf-8", newline="")}[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(parse_table, source) == _outcome(_parse_reference, text)
