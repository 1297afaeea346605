"""Serializable analysis reports and deterministic SVG rendering."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import orjson

from .data import DataTable, preprocess, refuse_unusable_column
from .engine import (GAMMA_BY_TYPE, BiplotModel, QualityReport, column_correlations,
                     column_cosines, fit_biplot, quality)
from .errors import InputError
from .linalg import as_matrix, one_blas_thread

# Widest table whose report holds the p x p correlations and cosines: every paper
# table fits; past it they grow into nearly all of the report, and past reading.
_BLOCKS_MAX_COLS = 64


@dataclass(frozen=True)
class AnalysisReport:
    """Complete, serializable result of one biplot analysis.

    A report built by ``analyze`` holds its numeric blocks (the singular
    values, both marker sets, ``qr_rows``, ``qr_cols``, the correlations
    and the cosines) as numpy arrays, the model's and the quality's own;
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

    def to_json(self) -> str:
        """Key-sorted JSON without the ``None`` blocks; floats keep their shortest form."""
        return dumps({k: v for k, v in self.__dict__.items() if v is not None})

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        """Read a report of either schema (schema 1 has no version key and
        always holds the blocks); json's reader also takes older ``NaN``s."""
        return cls(**{"correlations": None, "cosines": None, "schema_version": 1}
                   | json.loads(text))


def dumps(doc) -> str:
    """The text of every JSON artifact: strict JSON (NaN and infinities are
    ``null``) with sorted keys, a two-space indent and a final newline."""
    return orjson.dumps(doc, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS
                        | orjson.OPT_APPEND_NEWLINE | orjson.OPT_SERIALIZE_NUMPY).decode()


def method_name(gamma: float) -> str:
    """The biplot type of ``gamma`` (jk, gh or sqrt), else "biplot"."""
    return next((name for name, g in GAMMA_BY_TYPE.items() if g == gamma), "biplot")


def analyze(table: DataTable, gamma: float = 1.0, dims: int = 2,
            scale: str = "zscore") -> tuple[BiplotModel, QualityReport, AnalysisReport]:
    """The analysis pipeline: preprocess ``table``, fit the rank-``dims``
    biplot, judge its quality of representation and assemble the report.
    OpenBLAS runs on one thread throughout, so the results are the same
    bits at any thread count."""
    refuse_unusable_column(table, "correlation")  # at every width, before any work
    with one_blas_thread():
        x, record = preprocess(table, scale)
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
            "name": method_name(model.gamma),
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
# Rows formatted per block; ``%.3f`` writes the same text as ``_fmt``.
_BLOCK = 4096
_DOT = '<circle class="dot" cx="%.3f" cy="%.3f" r="3" fill="#003366"/>\n'
_LABEL = '<text class="row-label" x="%.3f" y="%.3f" font-size="11" fill="#003366">%s</text>\n'
# Rows labelled in a panel: more overprint into a blot, and the rows farthest out
# carry the plane (Greenacre's contribution biplot); the others keep their dot.
_LABELLED_ROWS = 100


def _fmt(v: float) -> str:
    """Fixed, locale-free coordinate formatting."""
    return f"{v:.3f}"


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
    yield (f'<line class="axis" x1="{_fmt(m)}" y1="{_fmt(cy)}" '
           f'x2="{_fmt(w - m)}" y2="{_fmt(cy)}" stroke="#cccccc"/>\n')
    yield (f'<line class="axis" x1="{_fmt(cx)}" y1="{_fmt(m)}" '
           f'x2="{_fmt(cx)}" y2="{_fmt(h - m)}" stroke="#cccccc"/>\n')
    if shares is not None:
        yield (f'<text class="axis-label" x="{_fmt(w - m)}" y="{_fmt(cy - 8)}" '
               f'text-anchor="end" font-size="12">Axis 1 ({shares[0]:.1f}%)</text>\n')
        yield (f'<text class="axis-label" x="{_fmt(cx + 8)}" y="{_fmt(m + 4)}" '
               f'font-size="12">Axis 2 ({shares[1]:.1f}%)</text>\n')
    for lines in body:
        yield from lines
    yield (f'<text class="legend" x="{_fmt(m)}" y="{_fmt(h - m / 2)}" '
           f'font-size="12">{_escape(legend)}</text>\n')
    if defs:
        yield defs
    yield '</svg>\n'


def _place(*coords: np.ndarray):
    """Pixel positions ``(x, y)``, two arrays, of n x 2 coordinate sets drawn
    on one scale, which puts the largest |coordinate| of any set ``_HALF``
    from the centre."""
    unit = _HALF / (max(float(np.max(np.abs(c))) for c in coords) or 1.0)
    return [(_CX + c[:, 0] * unit, _CY - c[:, 1] * unit) for c in coords]


def _row_dots(coords: np.ndarray, x: np.ndarray, y: np.ndarray, labels):
    """A dot at each row's pixel position ``(x, y)``, in every panel, as one string
    per block of ``_BLOCK`` rows; the ``_LABELLED_ROWS`` rows whose ``coords`` lie
    farthest from the origin, ties in row order, have their label after their dot."""
    shown, k = range(len(x)), _LABELLED_ROWS
    if len(x) > k:  # the k largest distances, without sorting them all
        d = np.hypot(coords[:, 0], coords[:, 1])
        top = np.flatnonzero(d >= np.partition(d, -k)[-k])
        shown = top[np.argsort(-d[top], kind="stable")[:k]].tolist()
    text = {j: _LABEL % (x[j] + 5, y[j] + 3, _escape(labels[j])) for j in shown}
    for i in range(0, len(x), _BLOCK):
        dots = list(map(_DOT.__mod__, zip(x[i:i + _BLOCK].tolist(), y[i:i + _BLOCK].tolist())))
        for j, label in text.items():
            if i <= j < i + _BLOCK:
                dots[j - i] += label
        yield "".join(dots)


def svg_lines(model: BiplotModel, quality: QualityReport, *, vector_scale: float | None = None):
    """Text of the deterministic 2-D biplot, line by line and the row dots
    in blocks: dots for rows, arrows from the origin for columns, axes
    annotated with variance shares.
    ``vector_scale=None`` scales the longest column marker to 40% of the
    largest row coordinate. The model and the scale are checked when this
    is called, before any line is generated."""
    if model.dims != 2:
        raise InputError(f"SVG rendering requires a 2-D model, got dims={model.dims}")
    if vector_scale is not None and not 0 < vector_scale < float("inf"):
        raise InputError(f"vector_scale must be finite and positive, got {vector_scale}")
    A, B = model.row_markers, model.col_markers
    if vector_scale is None:
        row_extent = float(np.max(np.abs(A))) or 1.0
        vector_scale = 0.4 * row_extent / (float(np.max(np.linalg.norm(B, axis=1))) or 1.0)
    rows, (cx, cy) = _place(A, B * vector_scale)

    def arrows():
        for x, y, label in zip(cx.tolist(), cy.tolist(), model.col_labels, strict=True):
            yield (f'<line class="arrow" x1="{_fmt(_CX)}" y1="{_fmt(_CY)}" '
                   f'x2="{_fmt(x)}" y2="{_fmt(y)}" stroke="#cc0000" '
                   f'stroke-width="1.5" marker-end="url(#head)"/>\n')
            yield (f'<text class="col-label" x="{_fmt(x + 4)}" y="{_fmt(y - 4)}" '
                   f'font-size="11" fill="#cc0000">{_escape(label)}</text>\n')

    legend = (f'{method_name(model.gamma).upper()} biplot | '
              f'fit {quality.qr_overall * 100.0:.1f}% | vector scale x{vector_scale:.4g}')
    return _frame(model.axis_variance_shares() * 100.0, legend,
                  arrows(), _row_dots(A, *rows, model.row_labels), defs=_ARROW_HEAD)


def render_svg(model: BiplotModel, quality: QualityReport, *,
               vector_scale: float | None = None) -> str:
    """The document of ``svg_lines(model, quality, vector_scale=...)``."""
    return "".join(svg_lines(model, quality, vector_scale=vector_scale))


def render_scatter_svg(coords: np.ndarray, labels: tuple[str, ...], title: str,
                       shares: tuple[float, float] | None = None, *,
                       col_coords: np.ndarray | None = None,
                       col_labels: tuple[str, ...] = ()) -> str:
    """Deterministic scatter panel for the baseline methods: the biplot's
    row dots without its arrows. Column coordinates, if given, are drawn
    as squares on the same scale, each labelled from ``col_labels``."""
    sets = [as_matrix(coords, "coords")]
    if col_coords is not None:
        sets.append(as_matrix(col_coords, "col_coords"))
    for pts, names in zip(sets, (labels, col_labels)):
        if pts.shape[1] != 2:
            raise InputError(f"scatter rendering needs n x 2 coordinates, got {pts.shape}")
        if len(names) != len(pts):
            raise InputError(f"scatter rendering needs one label per point, "
                             f"got {len(names)} labels for {len(pts)} points")
    rows, *cols = _place(*sets)

    def squares(cx, cy):
        for x, y, label in zip(cx.tolist(), cy.tolist(), col_labels, strict=True):
            yield (f'<rect class="col-dot" x="{_fmt(x - 3)}" y="{_fmt(y - 3)}" '
                   f'width="6" height="6" fill="#cc0000"/>\n')
            yield (f'<text class="col-label" x="{_fmt(x + 5)}" y="{_fmt(y + 3)}" '
                   f'font-size="11" fill="#cc0000">{_escape(label)}</text>\n')

    return "".join(_frame(shares, title, _row_dots(sets[0], *rows, labels),
                          *(squares(*c) for c in cols)))
