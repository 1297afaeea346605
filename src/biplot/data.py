"""Labeled indicator tables: CSV parsing, centering/standardization and
the three embedded case-study datasets."""

from __future__ import annotations

import csv
import io
import itertools
import re
from dataclasses import dataclass, field

import numpy as np
import orjson

from .errors import InputError

MIN_ROWS = 3
MIN_COLS = 2


@dataclass(frozen=True)
class DataTable:
    """Labeled n x p real matrix, held row-major; rows are cases, columns are variables."""

    name: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        n, p = len(self.row_labels), len(self.col_labels)
        if n < MIN_ROWS or p < MIN_COLS:
            raise InputError(f"table {self.name!r} needs at least {MIN_ROWS} rows and "
                             f"{MIN_COLS} columns, got {n}x{p}")
        if len(set(self.row_labels)) != n:
            raise InputError(f"table {self.name!r} has duplicate row labels")
        if len(set(self.col_labels)) != p:
            raise InputError(f"table {self.name!r} has duplicate column labels")
        v = np.ascontiguousarray(self.values, dtype=float)
        if v.shape != (n, p):
            raise InputError(f"table {self.name!r} values must be {n}x{p}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            bad = np.argwhere(~np.isfinite(v))[0]
            raise InputError(f"table {self.name!r} has a non-finite value at "
                             f"row {self.row_labels[bad[0]]!r}, column {self.col_labels[bad[1]]!r}")
        object.__setattr__(self, "values", v)
        v.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class PreprocessRecord:
    """What was done to the raw table before factorization.

    Reapplying ``(values - means) / sds`` to the original table reproduces
    the preprocessed matrix exactly; for mode "none" and "center" the sds
    are all 1. Means and sds are Python floats, never numpy scalars.
    """

    mode: str  # none | center | zscore
    means: tuple[float, ...] = field(default=())
    sds: tuple[float, ...] = field(default=())


def parse_table(source, name: str) -> DataTable:
    """Parse a labeled CSV table from a str, UTF-8 bytes or a text file
    object (best opened with ``newline=""``).

    The first header cell is ignored; remaining header cells are column
    labels. Each data row is a row label followed by numeric fields with a
    '.' decimal point, in the grammar of Python's ``float()``. Errors name
    the first offending row or cell.

    The body is read in chunks of about ``CHUNK_CHARS`` characters of whole
    lines: each line's label is split off, and the chunk's numbers are read
    as one JSON array by orjson, whose float reader rounds exactly as
    ``float()`` does. Only one chunk's text and Python numbers are held at
    a time; the values go into one growing float64 buffer. Whatever that
    stricter reader does not read exactly as ``float()`` would (``1_000``,
    ``+1``, ``.5``, ``nan``, non-ASCII digits, an integer ``-0``, malformed
    rows, a quoted label across a line break, a quote in a number, lines
    over csv's field size limit, a stream that does not report universal
    newlines) is parsed again from the start by the per-cell ``csv`` +
    ``float()`` parser, which accepts it or raises the error that names
    the row or cell.
    """
    source = _text_stream(source)
    start = source.tell()
    try:
        return _parse_fast(source, name)
    except (InputError, UnicodeDecodeError):
        raise
    except ValueError:
        source.seek(start)
        return _parse_reference(source, name)


def _text_stream(source):
    """A seekable text stream over a str, UTF-8 bytes or a text file object."""
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        return io.StringIO(source, newline="")
    if source.seekable():
        return source
    return io.StringIO(source.read(), newline="")


def _records(reader, name: str):
    """The ``(row number, cells)`` pairs of a ``csv`` reader, counted from 1
    at the header. A ``csv.Error`` (such as a field over csv's size limit)
    becomes an InputError naming the row."""
    row = 0
    try:
        for row, cells in enumerate(reader, start=1):
            yield row, cells
    except csv.Error as exc:
        raise InputError(f"{name!r}: row {row + 1}: {exc}") from None


# Unicode White_Space: what str.strip() removes, less the information
# separators U+001C-U+001F, which it also counts as whitespace.
_WHITESPACE = ("\t\n\x0b\x0c\r \x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200b)))
               + "\u2028\u2029\u202f\u205f\u3000")


def _strip_label(text: str) -> str:
    """``text`` without surrounding Unicode whitespace."""
    return text.strip(_WHITESPACE)


def _read_header(records, name: str) -> list[str]:
    try:
        _, header = next(records)
    except StopIteration:
        raise InputError(f"{name!r}: empty input, expected a header row") from None
    return [_strip_label(c) for c in header[1:]]


# Characters of lines read per chunk of the body. The chunk's line, number
# and list objects are freed but stay resident, as do the pages orjson's
# reader touched, so larger chunks raise the peak RSS of the whole run; on
# a 50000x20 table 8K and 16K chunks measured higher too. From 16K to 1M
# characters the parse time is flat.
CHUNK_CHARS = 1 << 15
# A quoted label and its delimiter: csv's quoting with "" for a quote.
_QUOTED_LABEL = re.compile(r'"([^"]*(?:""[^"]*)*)",')
# An integer -0, which orjson reads as 0 and float() as -0.0. It also
# finds the exponent of 1e-0, which then takes the reference parser.
_INT_NEG_ZERO = re.compile(r"-0(?![.eE\d])")


def _parse_fast(fh, name: str) -> DataTable:
    """Header through ``csv``, then the body in chunks of ``CHUNK_CHARS``:
    each line's label is split off, and the chunk's numeric text is read
    as one JSON array of rows by orjson, whose float reader rounds exactly
    as ``float()`` does. Raises ValueError for any input it does not read
    exactly as ``_parse_reference`` would."""
    col_labels = _read_header(_records(csv.reader(iter(fh.readline, "")), name), name)
    # A stream that does not report universal newlines may hold a line
    # break inside a line, which csv reads as the end of a row.
    if getattr(fh, "newlines", None) is None:
        raise ValueError("stream does not split lines at every line break")
    p = len(col_labels)
    limit = csv.field_size_limit()
    labels: list[str] = []
    values = bytearray()
    while lines := fh.readlines(CHUNK_CHARS):
        if max(map(len, lines)) > limit:
            raise ValueError("line longer than csv's field size limit")
        rests = []
        for line in lines:
            label, comma, rest = line.partition(",")
            if label[:1] == '"':
                quoted = _QUOTED_LABEL.match(line)
                if quoted is None:
                    raise ValueError("quoted label not closed before a comma on its line")
                label, rest = quoted[1].replace('""', '"'), line[quoted.end():]
            elif not comma:
                if _strip_label(line):
                    raise ValueError("row without fields")
                continue
            labels.append(label)
            rests.append(rest)
        if not rests:
            continue
        text = "[[" + "],[".join(rests) + "]]"
        # Numbers only: no string, true, false, null or object here, and
        # fromiter refuses a row that is not an array or a nested array.
        if '"' in text or "t" in text or "f" in text or "n" in text or "{" in text:
            raise ValueError("a cell that is not a JSON number")
        if _INT_NEG_ZERO.search(text):
            raise ValueError("integer -0, which orjson reads as 0")
        rows = orjson.loads(text)
        try:
            values += np.fromiter(itertools.chain.from_iterable(rows), float).data
        except TypeError:
            raise ValueError("a cell that is not a number") from None
        if len(rows) != len(rests) or set(map(len, rows)) != {p}:
            raise ValueError("row count or field count needs the reference parser")
    return DataTable(name, tuple(map(_strip_label, labels)), tuple(col_labels),
                     np.frombuffer(values).reshape(len(labels), p))


def _parse_reference(source, name: str) -> DataTable:
    """Per-cell ``csv`` + ``float()`` parser: the fallback of
    ``parse_table`` and the reference its tests compare against."""
    records = _records(csv.reader(_text_stream(source)), name)
    col_labels = _read_header(records, name)
    row_labels: list[str] = []
    rows: list[list[float]] = []
    for lineno, cells in records:
        if not cells or (len(cells) == 1 and not _strip_label(cells[0])):
            continue
        if len(cells) != len(col_labels) + 1:
            raise InputError(f"{name!r}: row {lineno} ({cells[0]!r}) has {len(cells) - 1} "
                             f"fields, expected {len(col_labels)}")
        label = _strip_label(cells[0])
        parsed = []
        for j, cell in enumerate(cells[1:]):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise InputError(f"{name!r}: non-numeric value {cell!r} at row {label!r}, "
                                 f"column {col_labels[j]!r}") from None
        row_labels.append(label)
        rows.append(parsed)
    return DataTable(name, tuple(row_labels), tuple(col_labels), np.array(rows))


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted when it holds a comma, a quote or a
    line break. ``csv.writer`` with ``lineterminator="\\n"`` leaves a bare
    ``\\r`` unquoted, which the parser reads as the end of a line."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def serialize_table(t: DataTable) -> str:
    """Render a DataTable as CSV that ``parse_table`` reads back exactly;
    numbers use shortest round-trip repr."""
    lines = [",".join(map(_csv_field, ("",) + t.col_labels))]
    for label, row in zip(t.row_labels, t.values.tolist()):
        lines.append(",".join([_csv_field(label)] + list(map(repr, row))))
    return "\n".join(lines) + "\n"


def refuse_unusable_column(t: DataTable, undefined: str) -> None:
    """Raise InputError naming the first column of ``t`` whose values are all
    equal, for which ``undefined`` (such as "zscore") is not defined, else the
    first with a magnitude above ``sqrt(max float / (4 n p))``, below which no
    sum of squares of the table, its centered copy or their Gram matrices
    overflows. It reads the raw values: centering 80 cells of 0.1 leaves a sd
    of rounding, not 0."""
    hi, lo = t.values.max(axis=0), t.values.min(axis=0)
    constant = np.flatnonzero(hi == lo)
    if constant.size:
        raise InputError(f"column {t.col_labels[constant[0]]!r} is constant; "
                         f"{undefined} undefined")
    size, bound = np.maximum(hi, -lo), np.sqrt(np.finfo(float).max / (4 * t.values.size))
    j = int(np.argmax(size > bound))
    if size[j] > bound:
        raise InputError(f"column {t.col_labels[j]!r} holds a value of magnitude {size[j]:.3g}, "
                         f"above {bound:.3g}, where its sums of squares would overflow")


def preprocess(t: DataTable, mode: str = "zscore") -> tuple[np.ndarray, PreprocessRecord]:
    """Column-wise preprocessing: none, center, or zscore (sample sd, n-1).
    The result is the one n x p matrix made: zscore divides the centered
    copy in place by sds from ``np.einsum``'s column sums of squares, the
    bits of ``x.std(axis=0, ddof=1)`` on the row-major table."""
    x = t.values
    ones = (1.0,) * x.shape[1]
    if mode == "none":
        return x.copy(), PreprocessRecord("none", (0.0,) * x.shape[1], ones)
    means = x.mean(axis=0)
    if mode == "center":
        return x - means, PreprocessRecord("center", tuple(means.tolist()), ones)
    if mode == "zscore":
        refuse_unusable_column(t, "zscore")
        z = x - means
        sds = np.sqrt(np.einsum("ij,ij->j", z, z) / (x.shape[0] - 1))
        z /= sds
        return z, PreprocessRecord("zscore", tuple(means.tolist()), tuple(sds.tolist()))
    raise InputError(f"unknown preprocessing mode {mode!r}")


# Case-study fixtures. Values are kept verbatim as published.

_CASE1_CSV = """\
,MILL €,GDP,RES,%HR,DOC,CIT,CAVG,NCIT
Germany,69810,2.82,484566,44.8,119216,228773,1.76,1.36
France,43633,2.26,295696,43.9,87430,148995,1.57,1.39
United Kingdom,30071,1.77,385489,45.1,123756,253482,1.81,1.42
Italy,19539,1.26,149314,33.8,67459,118043,1.6,1.23
Spain,14588,1.39,221314,39,59642,96368,1.48,1.10
Sweden,11869,3.42,72692,50.8,25257,54567,2.03,1.39
Netherlands,10769,1.83,54505,51.9,39499,96134,2.22,1.66
Austria,7890,2.76,59341,39.2,15476,31879,1.9,1.23
Denmark,7208,3.06,52568,51.9,15042,38504,2.38,1.60
Belgium,7047,1.99,55858,49.3,21978,46169,1.95,1.44
Finland,6971,3.87,55797,50.6,13308,25310,1.81,1.26
Norway,5342,1.71,44762,51.5,12755,22401,1.62,1.39
Ireland,2796,1.79,21393,45.9,9499,17728,1.73,1.24
Portugal,2747,1.59,86369,23.9,12957,16756,1.22,1.05
Poland,2607,0.74,98165,36.3,26057,23729,0.88,0.64
Czech Republic,2334,1.56,43092,37.8,13790,17005,1.18,0.77
Hungary,1126,1.16,35267,33,7542,10648,1.34,0.91
Slovenia,745,2.11,10444,40.8,4104,4697,1.1,1.05
Romania,572,0.47,30645,24.4,10897,6254,0.56,0.73
Slovakia,416,0.63,21832,33.5,4195,4043,0.93,0.72
Bulgaria,214,0.6,14699,31.6,3293,2285,0.68,0.74
"""

_CASE2_CSV = """\
,Teaching,International Outlook,Research,Citations
ETH Zürich,79.1,97.5,85.8,87.2
Imperial College London,88.8,92.2,88.7,93.9
University of Oxford,89.5,91.9,96.6,97.9
University College London,77.8,91.8,84.3,89
University of British Columbia,68.6,88.7,78.6,85.2
University of Cambridge,90.5,85.3,94.2,97.3
Massachusetts Institute of Technology,92.7,79.2,87.4,100
University of Toronto,76.9,69,87.4,86.5
Columbia University,89.1,67.6,81.8,97.8
Harvard University,95.8,67.5,97.4,99.8
Georgia Institute of Technology,66.6,65,73.8,91.9
Johns Hopkins University,78.9,59.9,86.5,97.3
University of Chicago,89.4,58.8,90.8,99.4
Stanford University,94.8,57.2,98.9,99.8
California Institute of Technology,95.7,56,98.2,99.9
Yale University,92.3,55.5,91.2,96.7
Carnegie Mellon University,65.7,55,79.5,97.4
Cornell University,70.4,53.4,87.2,93.5
University of California Berkeley,82.8,50.4,99.4,99.4
Princeton University,91.5,49.6,99.1,100
University of Michigan,75.4,47.2,90,94.3
Duke University,62.6,46.9,77.9,97.4
University of California Los Angeles,85.9,41,92.5,97.3
University of Washington,70.8,36.9,74,98.2
University of Pennsylvania,87,34.3,86.1,97.9
"""

# Case 3 keeps the six normalized indicator columns.
_CASE3_CSV = """\
,NDOC,NCIT,H-Index,%Q1,ACIT,TOPCIT
Agricultural Sciences,0.352,0.408,0.737,0.885,0.854,0.733
Biological Sciences,0.329,0.244,0.622,0.548,0.543,0.385
Earth Sciences,0.729,0.577,0.742,0.891,0.658,0.579
Economics & Business,0.350,0.300,0.571,0.275,0.677,0.961
Physics,0.374,0.577,0.560,0.793,1.000,0.662
Engineering,0.320,0.381,0.733,0.844,0.465,0.643
Mathematics,0.860,0.798,0.762,0.638,0.525,0.523
Medicine & Pharmacy,0.270,0.171,0.452,0.653,0.628,0.650
Social Sciences,0.809,0.652,0.917,0.523,0.584,0.315
Psychology,0.911,0.652,0.800,0.376,0.456,0.335
Chemistry,0.376,0.262,0.591,0.813,0.534,0.379
Inf. Technology,0.584,1.000,1.000,0.689,0.891,0.942
"""

_CASES = {
    1: ("Science & Bibliometrics for European Countries", _CASE1_CSV),
    2: ("Top 25 universities (THE Ranking)", _CASE2_CSV),
    3: ("Bibliometric Indicators of the University of Granada", _CASE3_CSV),
}


def load_case(case_id: int) -> DataTable:
    """Return one of the three embedded case-study tables."""
    return parse_table(case_csv(case_id), _CASES[case_id][0])


def case_csv(case_id: int) -> str:
    """Raw CSV text of an embedded case table (as published)."""
    if case_id not in _CASES:
        raise InputError(f"unknown case id {case_id!r}, expected 1, 2 or 3")
    return _CASES[case_id][1]
