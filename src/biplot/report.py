"""Serializable analysis reports and deterministic SVG rendering."""

from __future__ import annotations

import json

import numpy as np
import orjson

from .catalog import method_name
from .data import DataTable, preprocess, refuse_unusable_column
from .engine import (BiplotModel, QualityReport, column_correlations, column_cosines, fit_biplot,
                     quality)
from .errors import InputError
from .linalg import as_matrix, frozen_result

# Widest table whose report holds the p x p correlations and cosines: every paper
# table fits; past it they grow into nearly all of the report, and past reading.
_BLOCKS_MAX_COLS = 64
_JSON_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY


@frozen_result
class AnalysisReport:
    """Complete, serializable result of one biplot analysis.

    A report built by ``analyze`` holds its numeric blocks (the singular
    values, both marker sets, ``qr_rows``, ``qr_cols``, the correlations
    and the cosines) as read-only numpy arrays, the model's and the quality's own;
    one read back by ``from_json`` holds them as nested lists. Both write
    the same JSON text, so compare reports by ``to_json()``, not ``==``.
    Above ``_BLOCKS_MAX_COLS`` columns the two blocks are ``None``, not in the JSON.
    """

    dataset: dict
    preprocess: dict
    method: dict
    singular_values: np.ndarray | list
    row_markers: np.ndarray | list
    col_markers: np.ndarray | list
    quality: dict
    correlations: np.ndarray | list | None
    cosines: np.ndarray | list | None
    warnings: list
    schema_version: int

    def json_lines(self):
        """The pieces of ``to_json()``, from ``json_lines``."""
        return json_lines({k: v for k, v in self.__dict__.items() if v is not None})

    def to_json(self) -> str:
        """Key-sorted JSON without the ``None`` blocks; floats keep their shortest form."""
        return "".join(self.json_lines())

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        """Read a report of either schema (schema 1 has no version key and
        always holds the blocks); json's reader also takes older ``NaN``s."""
        return cls(**{"correlations": None, "cosines": None, "schema_version": 1}
                   | json.loads(text))


def json_lines(doc):
    """Every JSON artifact in pieces, the bytes of one ``orjson.dumps`` (strict JSON, sorted keys,
    two-space indent, final newline): dicts key by key, lists of over ``_BLOCK`` items by block."""
    yield from _json_pieces(doc, 0)
    yield "\n"


def _json_pieces(value, depth: int):
    """``value`` as orjson writes it inside ``depth`` containers."""
    indent = "\n" + "  " * depth
    if isinstance(value, dict) and value:
        for i, key in enumerate(sorted(value)):
            yield ("," if i else "{") + indent + "  " + orjson.dumps(key).decode() + ": "
            yield from _json_pieces(value[key], depth + 1)
        yield indent + "}"
    elif isinstance(value, (list, np.ndarray)) and len(value) > _BLOCK:
        for i in range(0, len(value), _BLOCK):  # each block, one piece, less "[" and indent + "]"
            text = next(_json_pieces(value[i:i + _BLOCK], depth))[1:-len(indent) - 1]
            yield ("," if i else "[") + text
        yield indent + "]"
    else:  # nested in ``depth`` lists, ``value``'s lines are indented by orjson; cut the lists
        for _ in range(depth):
            value = [value]
        text = orjson.dumps(value, option=_JSON_OPTIONS).decode()
        yield text[depth * (depth + 3):len(text) - depth * (depth + 1)]


def analyze(table: DataTable, gamma: float = 1.0, dims: int = 2, scale: str = "zscore",
            overwrite_table: bool = False) -> tuple[BiplotModel, QualityReport, AnalysisReport]:
    """The analysis pipeline: preprocess ``table``, fit the rank-``dims`` biplot, judge its
    quality of representation and assemble the report; ``method_name`` judges ``gamma`` and
    ``dims`` before the table is touched; ``overwrite_table`` is for ``preprocess``."""
    name = method_name(gamma, dims)
    if scale in ("none", "center"):  # preprocess refuses a zscore table, and any other scale
        refuse_unusable_column(table, "correlation")  # at every width, before any work
    x, record = preprocess(table, scale, overwrite_table)
    model = fit_biplot(x, gamma=gamma, dims=dims, row_labels=table.row_labels,
                       col_labels=table.col_labels)
    qual = quality(model, x)
    correlations = cosines = None
    if model.shape[1] <= _BLOCKS_MAX_COLS:
        if record.mode == "none":
            x -= x.mean(axis=0)  # x is not read again, so it is centered in place
        correlations = column_correlations(x, table.col_labels)
        cosines = column_cosines(model)
    n, p = model.shape
    return model, qual, AnalysisReport(
        dataset={
            "name": table.name,
            "n_rows": n,
            "n_cols": p,
            "row_labels": list(model.row_labels),
            "col_labels": list(model.col_labels),
        },
        preprocess={
            "mode": record.mode,
            "means": list(record.means),
            "sds": list(record.sds),
        },
        method={
            "name": name,
            "gamma": model.gamma,
            "dims": model.dims,
        },
        singular_values=model.sigma_all,
        row_markers=model.row_markers,
        col_markers=model.col_markers,
        quality={
            "qr_rows": qual.qr_rows,
            "qr_cols": qual.qr_cols,
            "qr_overall": qual.qr_overall,
            "residual_frobenius": qual.residual_frobenius,
        },
        correlations=correlations,
        cosines=cosines,
        warnings=_warnings(qual, cosines, p),
        schema_version=2,
    )


def _warnings(qual: QualityReport, cosines: np.ndarray | None, p: int) -> list[str]:
    """What the report's numbers do not say by themselves."""
    out = []
    if cosines is None:
        out.append(f"{p} columns, more than {_BLOCKS_MAX_COLS}: correlations and cosines left out; "
                   "engine.column_correlations and engine.column_cosines compute them")
    elif np.isnan(cosines).any():
        out.append("cosines undefined for zero-length column markers")
    noise = [("row", label) for label in qual.noise_rows]
    noise += [("column", label) for label in qual.noise_cols]
    if noise:
        kind, label = noise[0]
        out.append(f"quality is rounding noise for {len(noise)} of the rows and columns, whose "
                   f"squared norm is at most 1e-9 of the matrix's; the first is {kind} {label!r}")
    return out


_WIDTH, _HEIGHT = 800, 600
_MARGIN = 60.0
_CX, _CY = _WIDTH / 2.0, _HEIGHT / 2.0
# Pixels from the centre to the nearest edge of the plot area.
_HALF = min(_WIDTH, _HEIGHT) / 2.0 - _MARGIN
_ARROW_HEAD = ('<defs><marker id="head" markerWidth="8" markerHeight="8" refX="6" '
               'refY="3" orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="#cc0000"/>'
               '</marker></defs>\n')
# The characters XML 1.0 forbids in a document.
_NOT_XML = dict.fromkeys([*range(0x9), 0xB, 0xC, *range(0xE, 0x20), 0xFFFE, 0xFFFF], "\ufffd")
# Rows formatted per piece by the SVG and JSON writers; ``%.3f`` writes the text of ``:.3f``.
_BLOCK = 4096
# Each mark: its template, its offset from the point's pixel position, its label's
# template and the label's offset from the mark. Every pixel position is at least
# 60, so the mark's offset is exact and the label's position is rounded once.
_DOT = ('<circle class="dot" cx="%.3f" cy="%.3f" r="3" fill="#003366"/>\n', (0, 0),
        '<text class="row-label" x="%.3f" y="%.3f" font-size="11" fill="#003366">%s</text>\n',
        (5, 3))
_COL_LABEL = '<text class="col-label" x="%.3f" y="%.3f" font-size="11" fill="#cc0000">%s</text>\n'
_ARROW = (f'<line class="arrow" x1="{_CX:.3f}" y1="{_CY:.3f}" x2="%.3f" y2="%.3f" stroke="#cc0000" '
          'stroke-width="1.5" marker-end="url(#head)"/>\n', (0, 0), _COL_LABEL, (4, -4))
_SQUARE = ('<rect class="col-dot" x="%.3f" y="%.3f" width="6" height="6" fill="#cc0000"/>\n',
           (-3, -3), _COL_LABEL, (8, 6))
# Marks labelled in a layer: more overprint into a blot, and the points farthest out
# carry the plane (Greenacre's contribution biplot); the others keep their mark.
_LABELLED = 100


def _escape(text: str) -> str:
    """``text`` as SVG character data: markup escaped and each character
    XML 1.0 forbids replaced by U+FFFD."""
    return text.translate(_NOT_XML).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _frame(shares, legend: str, *body, defs: str = ""):
    """Text of one SVG panel: header, background, both axes, the axis
    labels when ``shares`` (percent per axis) is given, the ``body`` text,
    the legend, ``defs`` and the closing tag."""
    w, h, m, cx, cy = _WIDTH, _HEIGHT, _MARGIN, _CX, _CY
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
           f'height="{h}" viewBox="0 0 {w} {h}">\n')
    yield f'<rect width="{w}" height="{h}" fill="white"/>\n'
    yield (f'<line class="axis" x1="{m:.3f}" y1="{cy:.3f}" '
           f'x2="{w - m:.3f}" y2="{cy:.3f}" stroke="#cccccc"/>\n')
    yield (f'<line class="axis" x1="{cx:.3f}" y1="{m:.3f}" '
           f'x2="{cx:.3f}" y2="{h - m:.3f}" stroke="#cccccc"/>\n')
    if shares is not None:
        yield (f'<text class="axis-label" x="{w - m:.3f}" y="{cy - 8:.3f}" '
               f'text-anchor="end" font-size="12">Axis 1 ({shares[0]:.1f}%)</text>\n')
        yield (f'<text class="axis-label" x="{cx + 8:.3f}" y="{m + 4:.3f}" '
               f'font-size="12">Axis 2 ({shares[1]:.1f}%)</text>\n')
    for lines in body:
        yield from lines
    yield (f'<text class="legend" x="{m:.3f}" y="{h - m / 2:.3f}" '
           f'font-size="12">{_escape(legend)}</text>\n')
    if defs:
        yield defs
    yield '</svg>\n'


def _extent(*coords: np.ndarray) -> float:
    """The largest |coordinate| of any of the coordinate sets, or 1.0 if they are all 0;
    InputError if the pixels to the unit that it gives, ``_HALF / extent``, are not finite."""
    extent = max(float(max(c.max(), -c.min())) for c in coords) or 1.0
    if not np.isfinite(_HALF / extent):
        raise InputError(f"the largest |coordinate|, {extent:.3g}, has no finite pixel scale")
    return extent


def _marks(mark, coords: np.ndarray, unit: float, labels):
    """``mark`` (``_DOT``, ``_ARROW`` or ``_SQUARE``) for each row of the n x 2 ``coords``,
    ``unit`` pixels to the unit from the centre, as one string per block of ``_BLOCK``
    rows; the ``_LABELLED`` rows farthest from the origin, ties in row order, have their
    label after their mark. Each pass holds one block of rows beyond the labelled ones."""
    template, offset, label, (dx, dy) = mark
    shown = range(len(coords))
    if len(coords) > _LABELLED:  # not below: a sort pages ~0.2 MB of code into the process
        far = np.empty(0, dtype=np.intp)  # the farthest rows so far, farthest first
        for i in range(0, len(coords), _BLOCK):  # far's earlier rows win ties by the stable sort
            rows = np.concatenate((far, np.arange(i, min(i + _BLOCK, len(coords)))))
            half = coords[rows] * 0.5  # an exact scale: hypot stays finite up to the largest float
            far = rows[np.argsort(-np.hypot(*half.T), kind="stable")[:_LABELLED]]
        shown = sorted(far.tolist())
    for i in range(0, len(coords), _BLOCK):
        xy = coords[i:i + _BLOCK] * [unit, -unit] + [_CX, _CY]
        xy += offset  # after the placement, in place: folded into it, the rounding would change
        xy = xy.ravel().tolist()  # x0, y0, x1, ..
        text, args, r = "", [], 0  # r: the block's rows in text and args so far
        for j in [j - i for j in shown if i <= j < i + _BLOCK]:
            text += template * (j + 1 - r) + label
            x, y = xy[2 * j:2 * j + 2]
            args += [*xy[2 * r:2 * j + 2], x + dx, y + dy, _escape(labels[i + j])]
            r = j + 1
        yield (text + template * (len(xy) // 2 - r)) % (*args, *xy[2 * r:])


def svg_lines(model: BiplotModel, quality: QualityReport):
    """Text of the deterministic 2-D biplot, line by line and each layer of
    marks in blocks: dots for rows, arrows from the origin for columns, scaled so
    that the longest is 40% of the largest row coordinate, and axes
    annotated with variance shares. The model's gamma and 2 axes, then the scale, are
    checked when this is called, before any line is generated."""
    name = method_name(model.gamma, model.dims, svg=True)
    A, B = model.row_markers, model.col_markers
    vector_scale = 0.4 * _extent(A) / (float(np.max(np.linalg.norm(B, axis=1))) or 1.0)
    B = B * vector_scale
    unit = _HALF / _extent(A, B)
    legend = (f'{name.upper()} biplot | '
              f'fit {quality.qr_overall * 100.0:.1f}% | vector scale x{vector_scale:.4g}')
    return _frame(model.axis_variance_shares() * 100.0, legend,
                  _marks(_ARROW, B, unit, model.col_labels),
                  _marks(_DOT, A, unit, model.row_labels), defs=_ARROW_HEAD)


def scatter_lines(coords: np.ndarray, labels: tuple[str, ...], title: str,
                  shares: np.ndarray | None = None, *, col_coords: np.ndarray | None = None,
                  col_labels: tuple[str, ...] = ()):
    """Text of the deterministic scatter panel for the baseline methods, as
    ``svg_lines`` gives it: the biplot's row dots without its arrows, and the
    axis labels when ``shares`` (percent per axis) is given. Column coordinates,
    if given, are drawn as squares on the same scale and labelled from
    ``col_labels`` as the rows are. The inputs are checked when this is called."""
    sets = [as_matrix(coords, "coords")]
    if col_coords is not None:
        sets.append(as_matrix(col_coords, "col_coords"))
    for pts, names in zip(sets, (labels, col_labels)):
        if pts.shape[1] != 2:
            raise InputError(f"scatter rendering needs n x 2 coordinates, got {pts.shape}")
        if len(names) != len(pts):
            raise InputError(f"scatter rendering needs one label per point, "
                             f"got {len(names)} labels for {len(pts)} points")
    unit = _HALF / _extent(*sets)
    return _frame(shares, title, _marks(_DOT, sets[0], unit, labels),
                  *(_marks(_SQUARE, c, unit, col_labels) for c in sets[1:]))
