"""Labeled indicator tables: CSV parsing, centering/standardization and
loading the embedded case-study tables of ``catalog``."""

from __future__ import annotations

import csv
import io
import itertools
import re
from dataclasses import dataclass, field

import numpy as np
import orjson

from .catalog import CASES, SCALES, case_csv
from .errors import InputError

MIN_ROWS = 3
MIN_COLS = 2


@dataclass(frozen=True)
class DataTable:
    """Labeled n x p real matrix, held row-major; rows are cases, columns are variables.
    ``values`` is a read-only view of a C-order float64 array given: its writes show through."""

    name: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    values: np.ndarray
    # The fast parser's own writeable buffer under ``values``, for ``preprocess`` to reuse.
    _buffer: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n, p = len(self.row_labels), len(self.col_labels)
        if n < MIN_ROWS or p < MIN_COLS:
            raise InputError(f"table {self.name!r} needs at least {MIN_ROWS} rows and "
                             f"{MIN_COLS} columns, got {n}x{p}")
        for kind, labels in (("row", self.row_labels), ("column", self.col_labels)):
            if len(set(labels)) != len(labels):  # then one pass finds the first repeat
                seen = set()
                label = next(x for x in labels if x in seen or seen.add(x))
                raise InputError(f"table {self.name!r} has duplicate {kind} label {label!r}")
        v = np.ascontiguousarray(self.values, dtype=float)
        if v.shape != (n, p):
            raise InputError(f"table {self.name!r} values must be {n}x{p}, got {v.shape}")
        if not (np.isfinite(v.min()) and np.isfinite(v.max())):  # as ``linalg.as_matrix``: no mask
            bad = np.argwhere(~np.isfinite(v))[0]
            raise InputError(f"table {self.name!r} has a non-finite value at "
                             f"row {self.row_labels[bad[0]]!r}, column {self.col_labels[bad[1]]!r}")
        object.__setattr__(self, "values", v.view())
        self.values.flags.writeable = False

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
    lines: each line's label is split off, and the chunk's numbers are read as
    one JSON array by orjson, whose float reader rounds exactly as ``float()``
    does. Only one chunk's text and Python numbers are held at a time; the
    values go into one growing float64 buffer. Whatever that stricter reader
    does not read exactly as ``float()`` would (``1_000``, ``+1``, ``.5``,
    ``nan``, non-ASCII digits, an integer ``-0``, malformed rows, a run of
    blank lines longer than a chunk, a quoted label across a line break, a
    quote in a number, lines over csv's field size limit, a stream that does
    not report universal newlines) is parsed again from the start by the
    per-cell ``csv`` + ``float()`` parser, which accepts it or raises the error
    that names the row or cell.
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
    """The ``(row number, cells)`` pairs of a ``csv`` reader, counted from 1 at
    the first line, without the blank ones (empty or whitespace only). A
    ``csv.Error`` (such as a field over csv's size limit) becomes an InputError naming the row."""
    row = 0
    try:
        for row, cells in enumerate(reader, start=1):
            if cells and (len(cells) > 1 or _strip_label(cells[0])):
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
            elif not (comma or _strip_label(line)):
                continue  # a blank line; one without fields fails the field count below
            labels.append(label)
            rests.append(rest)
        text = "[[" + "],[".join(rests) + "]]"
        # Numbers only: no string, true, false or null (fromiter reads it as NaN) here;
        # fromiter refuses an object or array cell, and the counts below an object row.
        if '"' in text or "t" in text or "f" in text or "n" in text:
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
    x = np.frombuffer(values).reshape(len(labels), p)
    t = DataTable(name, tuple(map(_strip_label, labels)), tuple(col_labels), x)
    object.__setattr__(t, "_buffer", x)  # values is a read-only view of x
    return t


def _parse_reference(source, name: str) -> DataTable:
    """Per-cell ``csv`` + ``float()`` parser: the fallback of
    ``parse_table`` and the reference its tests compare against."""
    records = _records(csv.reader(_text_stream(source)), name)
    col_labels = _read_header(records, name)
    row_labels: list[str] = []
    rows: list[list[float]] = []
    for lineno, cells in records:
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
    first with a magnitude above ``sqrt(max float / (4 n p))``, where sums of
    squares of the table, its centered copy or their Gram matrices overflow,
    else with a spread below ``2 sqrt(min normal float)``, where its centered
    sums of squares underflow. It reads the raw values: centering 80 cells of
    0.1 leaves a sd of rounding, not 0."""
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
    spread, floor = hi - lo, 2 * np.sqrt(np.finfo(float).tiny)  # no overflow below the bound
    j = int(np.argmax(spread < floor))
    if spread[j] < floor:
        raise InputError(f"column {t.col_labels[j]!r} spans only {spread[j]:.3g}, below "
                         f"{floor:.3g}, where its centered sums of squares would underflow")


def preprocess(t: DataTable, mode: str = "zscore",
               overwrite_table: bool = False) -> tuple[np.ndarray, PreprocessRecord]:
    """Column-wise preprocessing: none, center, or zscore (sample sd, n-1),
    into one new n x p matrix, or with ``overwrite_table=True`` (scipy's
    ``overwrite_a``) into a parsed table's own buffer. zscore divides the
    centered matrix in place by sds from ``np.einsum``'s column sums of
    squares, the bits of ``x.std(axis=0, ddof=1)`` on the row-major table."""
    if mode not in SCALES:
        raise InputError(f"unknown preprocessing mode {mode!r}")
    x, p = t.values, t.shape[1]
    out = t._buffer if overwrite_table else None
    if mode == "none":
        return x.copy() if out is None else out, PreprocessRecord("none", (0.0,) * p, (1.0,) * p)
    if mode == "zscore":  # before any arithmetic on the values
        refuse_unusable_column(t, "zscore")
    means = x.mean(axis=0)
    z = np.subtract(x, means, out=out)
    if mode == "center":
        return z, PreprocessRecord("center", tuple(means.tolist()), (1.0,) * p)
    sds = np.sqrt(np.einsum("ij,ij->j", z, z) / (x.shape[0] - 1))
    z /= sds
    return z, PreprocessRecord("zscore", tuple(means.tolist()), tuple(sds.tolist()))


def load_case(case_id: int) -> DataTable:
    """Return one of the three embedded case-study tables."""
    return parse_table(case_csv(case_id), CASES[case_id][0])
