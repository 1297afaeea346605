import io
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import biplot.data
from biplot.data import (DataTable, _parse_reference, case_csv, load_case, parse_table,
                         preprocess, serialize_table)
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
    with pytest.raises(InputError, match="^table 'bad' has duplicate row label 'r1'$"):
        parse_table(",a,b\nr1,1,2\nr1,3,4\nr3,5,6\n", "bad")
    with pytest.raises(InputError, match="^table 'bad' has duplicate column label 'a'$"):
        parse_table(",a,a\nr1,1,2\nr2,3,4\nr3,5,6\n", "bad")
    # The first label that repeats an earlier one, not the first that is repeated.
    with pytest.raises(InputError, match="^table 'bad' has duplicate row label 'y'$"):
        parse_table(",a,b\nx,1,2\ny,3,4\ny,5,6\nx,7,8\n", "bad")
    with pytest.raises(InputError, match="^table 'bad' has duplicate column label 'v'$"):
        DataTable("bad", ("r1", "r2", "r3"), ("u", "v", "v", "u"), np.ones((3, 4)))


@pytest.mark.parametrize("parse", [parse_table, _parse_reference])
def test_parse_rejects_too_small(parse):
    # DataTable alone holds the size rule, so both parsers give its message
    with pytest.raises(InputError, match=r"^table 'bad' needs at least 3 rows and 2 columns, "
                                         r"got 2x2$"):
        parse(",a,b\nr1,1,2\nr2,3,4\n", "bad")
    with pytest.raises(InputError, match=r"^table 'bad' needs at least 3 rows and 2 columns, "
                                         r"got 3x1$"):
        parse(",a\nr1,1\nr2,3\nr3,5\n", "bad")


def test_table_locks_a_view_not_the_callers_array():
    x = np.arange(6.0).reshape(3, 2)
    t = DataTable("t", ("a", "b", "c"), ("u", "v"), x)
    x[0, 0] = 7.0  # the caller's array stays writeable; the table sees the write
    assert t.values[0, 0] == 7.0
    assert not t.values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        t.values[0, 0] = 1.0


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


@pytest.mark.parametrize("parse", [parse_table, _parse_reference])
@pytest.mark.parametrize("sep", ["\x1c", "\x1f"])
def test_labels_keep_information_separators(parse, sep):
    t = parse(f",a\x01, b{sep}\n r1{sep},1,2\n\"r2{sep} \",3,4\nr3\xa0,5,6\n", "t")
    assert t.col_labels == ("a\x01", f"b{sep}")
    assert t.row_labels == (f"r1{sep}", f"r2{sep}", "r3")


def test_label_whitespace_is_unicode_white_space():
    separators = "\x1c\x1d\x1e\x1f"
    ws = "".join(c for c in map(chr, range(0x110000)) if c.isspace() and c not in separators)
    assert biplot.data._WHITESPACE == ws


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


@pytest.mark.parametrize("mode", ["none", "center", "zscore"])
def test_preprocess_record_holds_python_floats(mode):
    _, rec = preprocess(parse_table(MINIMAL, "m"), mode)
    assert {type(v) for v in rec.means + rec.sds} == {float}


@pytest.mark.parametrize("value", [5.0, 0.1])
def test_preprocess_zscore_rejects_constant_column(value):
    # The mean of 80 cells of 0.1 is not 0.1, so their sample sd is rounding, not 0.
    x = np.random.default_rng(0).normal(size=(80, 2))
    x[:, 0] = value
    t = DataTable("m", tuple(f"r{i}" for i in range(80)), ("a", "b"), x)
    with pytest.raises(InputError, match="^column 'a' is constant; zscore undefined$"):
        preprocess(t, "zscore")


def test_apply_record_reproduces_preprocessed_matrix():
    t = load_case(2)
    for mode in ("none", "center", "zscore"):
        x, rec = preprocess(t, mode)
        assert np.array_equal((t.values - np.array(rec.means)) / np.array(rec.sds), x)


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


def test_datatable_rejects_values_of_the_wrong_shape():
    with pytest.raises(InputError, match=r"^table 't' values must be 3x2, got \(2, 3\)$"):
        DataTable("t", ("a", "b", "c"), ("x", "y"), np.ones((2, 3)))


@pytest.mark.parametrize("parse", [parse_table, _parse_reference])
@pytest.mark.parametrize("text", ["", b"", "\n\n", " \t\n"])
def test_empty_input_asks_for_a_header(parse, text):
    with pytest.raises(InputError, match="^'t': empty input, expected a header row$"):
        parse(text, "t")


def test_preprocess_rejects_an_unknown_mode():
    with pytest.raises(InputError, match="^unknown preprocessing mode 'whiten'$"):
        preprocess(parse_table(MINIMAL, "m"), "whiten")


# Differential test: parse_table (orjson's reader in chunks, with a
# fallback) against the per-cell csv + float() reference parser on
# generated CSV text.

_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.integers(-10**6, 10**6).map(str))
# Cells on which the two readers may disagree.
_ODD_NUMBERS = st.sampled_from([
    # float() reads these as finite numbers,
    "1_000", " 2.5 ", "\t3", "5.", "+.5", "-0", "-0.0", "1e-400", "-1e-400", "١٢", "１",
    "\xa04", '"7"', '"8"9', '" 6 "', '"1\n"', "2.2250738585072011e-308", "4.9e-324",
    "9007199254740993", "1.234567890123456789012345e-5", "1E5", "1e05", "1e-0", "-0e0",
    "-00",
    # and rejects these or reads them as non-finite.
    "", " ", "x", "1.2.3", "\x1c1", "1\x1f", '"1,5"', "0x10", "nan", "-nan", "inf",
    "-Infinity", "1e400", '"1"2"', "true", "null", "[1]", "{}"])
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
# An integer -0 (orjson reads 0) late in a table, JSON values that are not
# numbers, and brackets that give as many JSON rows as lines, one a number.
@example(",a,b\nr1,1,2\nr2,0,4\nr3,5,-0\n", "file")
@example(",a,b\nr1,[1],2\nr2,true,4\nr3,5,6\n", "str")
@example(',a,b\nr1,{},2\nr2,null,"4"\nr3,5,6\n', "str")
@example(",a,b\nr1,1],5,[2\nr2,3,[4\nr3,5]\nr4,6,[7\nr5,8]\n", "str")
# Row labels over csv's field size limit, on one line and across a quoted
# line break, numbers over it, on one line and across a quoted line break,
# and a line over it whose fields are short.
@example(",a,b\nr1,1,2\n" + "x" * 200_000 + ",3,4\nr3,5,6\n", "str")
@example(',a,b\nr1,1,2\n"' + "x" * 100_000 + "\n" + "x" * 100_000 + '",3,4\nr3,5,6\n', "file")
@example(",a,b\nr1," + "0" * 200_000 + "1,2\nr2,3,4\nr3,5,6\n", "str")
@example(',a,b\nr1,"' + " " * 100_000 + "\n" + " " * 100_000 + '1",2\nr2,3,4\nr3,5,6\n', "str")
@example("".join(f",c{j}" for j in range(70_000)) + "\n"
         + "".join(f"r{i}" + ",1" * 70_000 + "\n" for i in range(3)), "bytes")
def test_parse_table_matches_reference_parser(text, kind):
    source = {"str": text, "bytes": text.encode("utf-8"),
              "file": io.TextIOWrapper(io.BytesIO(text.encode("utf-8")),
                                       encoding="utf-8", newline="")}[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(parse_table, source) == _outcome(_parse_reference, text)


def test_non_seekable_stream_takes_the_fallback():
    text = ",a,b\nr1,1_000,2\nr2,3,4\nr3,5,6\n"
    read_fd, write_fd = os.pipe()
    with open(write_fd, "w", encoding="utf-8") as w:
        w.write(text)
    with open(read_fd, encoding="utf-8", newline="") as fh:
        assert not fh.seekable()
        assert _outcome(parse_table, fh) == _outcome(_parse_reference, text)


def test_stream_without_universal_newlines_takes_the_fallback():
    # csv ends the row at the bare \r; the line as read holds it.
    text = ",a,b\nr1,1\r,2\nr2,3,4\nr3,5,6\n"

    def stream():
        return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8",
                                newline="\n")

    assert _outcome(parse_table, stream()) == _outcome(_parse_reference, stream())
    assert "new-line character" in _outcome(parse_table, stream())[1]


@pytest.fixture
def no_fallback(monkeypatch):
    """The reference parser, with ``parse_table``'s fallback to it made to
    fail, so a test sees the fast path's own result."""
    reference = _parse_reference

    def refuse(source, name):
        raise AssertionError("parse_table fell back to the reference parser")

    monkeypatch.setattr(biplot.data, "_parse_reference", refuse)
    return reference


def test_random_float_bit_patterns_parse_exactly(no_fallback):
    bits = np.random.default_rng(9).integers(0, 2**64, size=101_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:100_000].reshape(-1, 10)
    for fmt in (repr, "{:.25e}".format):
        text = "".join(f"r{i}," + ",".join(map(fmt, row)) + "\n"
                       for i, row in enumerate(values.tolist()))
        t = parse_table(",a,b,c,d,e,f,g,h,i,j\n" + text, "bits")
        cells = [c for line in text.splitlines() for c in line.split(",")[1:]]
        expect = np.array([float(c) for c in cells]).reshape(values.shape)
        assert t.values.tobytes() == expect.tobytes()


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_ordinary_tables_take_the_fast_path(no_fallback, monkeypatch, newline):
    monkeypatch.setattr(biplot.data, "CHUNK_CHARS", 40)  # many chunks
    lines = [',a,"b, c",d', 'r1,1,-2.5,3e-7', '"r ""2""",-0.0,1E5,-7',
             "", "r3 ,0,12345678901234567890,-1.5e+300", '"r,4",2.5e-320,-0.5,1e05',
             " r5,  1 ,\t2\t, 3 ", "r6,0,-0.25,-0E5", "r7,1e-05,-0e0,-10"]
    text = newline.join(lines) + newline
    ref = no_fallback(text, "t")
    assert ref.row_labels == ("r1", 'r "2"', "r3", "r,4", "r5", "r6", "r7")
    assert ref.col_labels == ("a", "b, c", "d")
    for source in (text, text.encode("utf-8"),
                   io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8",
                                    newline="")):
        t = parse_table(source, "t")
        assert (t.row_labels, t.col_labels) == (ref.row_labels, ref.col_labels)
        assert t.values.tobytes() == ref.values.tobytes()


def test_bad_cell_in_the_last_chunk_names_row_and_column():
    rows = [f"r{i},{i}.25,-{i}e-3\n" for i in range(100_000)]
    rows[-2] = "r99998,1.5,2..5\n"
    text = ",a,b\n" + "".join(rows)
    assert len(text) > 2 * biplot.data.CHUNK_CHARS
    with pytest.raises(InputError, match=r"non-numeric value '2\.\.5' at row 'r99998', "
                                         r"column 'b'"):
        parse_table(text, "t")


# Lines the fast path skips (blank ones) or leaves to the chunk's field-count
# check (a line without fields), and cells that are JSON but not numbers: the
# fast path gives the reference parser's table or the same error text. The
# "n" scan of _parse_fast must stay: without it np.fromiter reads orjson's
# None for ``null`` as NaN, and the table is refused as "non-finite" where
# the reference parser names a "non-numeric value".
_FORTY = [f"r{i},{i}.25,-{i}e-3" for i in range(40)]


def _assert_parsed_as_reference(text: str):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(parse_table, text) == _outcome(_parse_reference, text)


@pytest.mark.parametrize("at", [-1, 0, 20, 40], ids=["header", "start", "middle", "end"])
@pytest.mark.parametrize("line", ["", "  ", "\t", "r9", "x,", ","])
def test_a_line_without_fields_parses_as_the_reference(line, at):
    lines = [",a,b", *_FORTY]
    lines.insert(at + 1, line)  # at -1, before the header
    text = "\n".join(lines) + "\n"
    _assert_parsed_as_reference(text)
    if not line.strip():  # a blank line, before the header too, is skipped
        assert parse_table(text, "t").shape == (40, 2)


@pytest.mark.parametrize("blank", ["\n", " \n", "\r\n"])
def test_blank_lines_longer_than_a_chunk_parse_as_the_reference(blank):
    run = blank * (biplot.data.CHUNK_CHARS // len(blank) + 10)
    text = ",a,b\n" + "\n".join(_FORTY[:20]) + "\n" + run + "\n".join(_FORTY[20:]) + "\n"
    _assert_parsed_as_reference(text)
    assert parse_table(text, "t").shape == (40, 2)


@pytest.mark.parametrize("cell", ["null", "{}", "true", "NaN"])
def test_json_values_that_are_not_numbers_parse_as_the_reference(cell):
    rows = _FORTY[:20] + [f"x,{cell},1"] + _FORTY[20:]
    _assert_parsed_as_reference(",a,b\n" + "\n".join(rows) + "\n")
    kind = "non-finite value" if cell == "NaN" else f"non-numeric value {cell!r} at row 'x'"
    assert kind in _outcome(parse_table, ",a,b\n" + "\n".join(rows) + "\n")[1]
