"""Serializable analysis reports and deterministic SVG rendering."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .engine import BiplotModel, QualityReport
from .errors import InputError

# The one JSON layout of every artifact: key-sorted, two-space indent.
# _json_chunks writes it; json.dumps with these arguments is its reference.
JSON_KWARGS = {"sort_keys": True, "indent": 2, "allow_nan": True}


@dataclass(frozen=True)
class AnalysisReport:
    """Complete, serializable result of one biplot analysis."""

    dataset: dict
    preprocess: dict
    method: dict
    singular_values: list
    row_markers: list
    col_markers: list
    quality: dict
    correlations: list
    cosines: list
    warnings: list

    def to_json(self) -> str:
        """Key-sorted JSON; floats keep their shortest round-trip form."""
        return "".join(_json_chunks(self.__dict__)) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        return cls(**json.loads(text))


def write_json(report: AnalysisReport, fp) -> None:
    """Write ``report.to_json()`` to the text file ``fp`` chunk by chunk,
    without building the document."""
    fp.writelines(_json_chunks(report.__dict__))
    fp.write("\n")


# json's indented layout is written by its pure-Python encoder. The C
# encoder below writes the same values without whitespace; _json_chunks
# calls it on scalars and on slices of flat arrays and re-indents them.
_ENCODE = json.JSONEncoder(allow_nan=True, separators=(",", ":")).encode
# Values per C-encoder call: enough to amortize the call, few enough that
# no array's whole text is held at once.
_SLICE = 4096
_NUMBERS = ({float}, {int}, {float, int})


def _json_chunks(obj, level: int = 0):
    """Yield ``json.dumps(obj, **JSON_KWARGS)`` in pieces; dict keys must be
    ``str``.

    A list of ``str``, a list of ``float``/``int`` and a list of
    equal-length rows of those (exact types, so ``bool`` and numpy scalars
    take the general path) are encoded by json's C encoder, up to
    ``_SLICE`` values per call, and re-indented.
    """
    pad = "\n" + "  " * level
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            yield sep + encode_basestring_ascii(key) + ": "
            yield from _json_chunks(value, level + 1)
            sep = "," + inner
        yield pad + "}"
        return
    if not isinstance(obj, (list, tuple)):
        yield _ENCODE(obj)
        return
    if not obj:
        yield "[]"
        return
    comma = "," + inner
    types = set(map(type, obj))
    if types == {str}:
        parts = ((comma.join(map(encode_basestring_ascii, obj[i:i + _SLICE])),)
                 for i in range(0, len(obj), _SLICE))
    elif types in _NUMBERS:
        parts = ((_ENCODE(obj[i:i + _SLICE])[1:-1].replace(",", comma),)
                 for i in range(0, len(obj), _SLICE))
    elif (types == {list} and obj[0] and len(set(map(len, obj))) == 1
          and set(map(type, chain.from_iterable(obj))) in _NUMBERS):
        # A slice of rows encodes as [[a,b],[c,d]]; each row becomes an
        # indented list one level down, and the rows are items of this one.
        comma_in = comma + "  "
        row_sep = inner + "]" + comma + "[" + inner + "  "
        step = max(1, _SLICE // len(obj[0]))
        parts = (("[" + inner + "  ",
                  _ENCODE(obj[i:i + step])[2:-2].replace(",", comma_in)
                  .replace("]" + comma_in + "[", row_sep),
                  inner + "]")
                 for i in range(0, len(obj), step))
    else:
        parts = (_json_chunks(item, level + 1) for item in obj)
    sep = "[" + inner
    for chunks in parts:
        yield sep
        yield from chunks
        sep = comma
    yield pad + "]"


def _listify(a: np.ndarray) -> list:
    """Nested lists of floats; NaN survives the JSON round trip via json's
    NaN literal."""
    return np.asarray(a, dtype=float).tolist()


def method_name(gamma: float) -> str:
    if gamma == 1.0:
        return "jk"
    if gamma == 0.0:
        return "gh"
    if gamma == 0.5:
        return "sqrt"
    return "biplot"


def build_report(model: BiplotModel, quality: QualityReport,
                 correlations: np.ndarray, cosines: np.ndarray,
                 warnings: list[str] | None = None) -> AnalysisReport:
    """Assemble a report; all pieces must describe the same fitted model."""
    n, p = model.shape
    if quality.qr_rows.shape != (n,) or quality.qr_cols.shape != (p,):
        raise InputError("quality report does not match the model's dimensions")
    if np.shape(correlations) != (p, p):
        raise InputError(f"correlation matrix must be {p}x{p}, "
                         f"got {np.shape(correlations)}")
    if np.shape(cosines) != (p, p):
        raise InputError(f"cosine matrix must be {p}x{p}, got {np.shape(cosines)}")
    if len(model.row_labels) != n or len(model.col_labels) != p:
        raise InputError("label lists do not match the model's dimensions")
    return AnalysisReport(
        dataset={
            "name": model.name,
            "n_rows": n,
            "n_cols": p,
            "row_labels": list(model.row_labels),
            "col_labels": list(model.col_labels),
        },
        preprocess={
            "mode": model.preprocess.mode,
            "means": list(model.preprocess.means),
            "sds": list(model.preprocess.sds),
        },
        method={
            "name": method_name(model.gamma),
            "gamma": model.gamma,
            "dims": model.dims,
        },
        singular_values=_listify(model.sigma_all),
        row_markers=_listify(model.row_markers),
        col_markers=_listify(model.col_markers),
        quality={
            "qr_rows": _listify(quality.qr_rows),
            "qr_cols": _listify(quality.qr_cols),
            "qr_overall": quality.qr_overall,
            "residual_frobenius": quality.residual_frobenius,
        },
        correlations=_listify(correlations),
        cosines=_listify(cosines),
        warnings=list(warnings or []),
    )


@dataclass(frozen=True)
class PlotSpec:
    """Rendering parameters; ``vector_scale=None`` picks a scale so the
    longest column marker spans 40% of the plot half-width."""

    width: int = 800
    height: int = 600
    vector_scale: float | None = None
    show_labels: bool = True


def _fmt(v: float) -> str:
    """Fixed, locale-free coordinate formatting."""
    return f"{v:.3f}"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


_MARGIN = 60.0
_ARROW_HEAD = ('<defs><marker id="head" markerWidth="8" markerHeight="8" refX="6" '
               'refY="3" orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="#cc0000"/>'
               '</marker></defs>\n')


def _frame(spec: PlotSpec, shares, legend: str, body, defs: str = ""):
    """Lines of one SVG panel: header, background, both axes, the axis
    labels when ``shares`` (percent per axis) is given, the ``body`` lines,
    the legend, ``defs`` and the closing tag."""
    w, h, m = spec.width, spec.height, _MARGIN
    cx, cy = w / 2.0, h / 2.0
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
    yield from body
    yield (f'<text class="legend" x="{_fmt(m)}" y="{_fmt(h - m / 2)}" '
           f'font-size="12">{_escape(legend)}</text>\n')
    if defs:
        yield defs
    yield '</svg>\n'


def _biplot_lines(model: BiplotModel, quality: QualityReport, spec: PlotSpec):
    """Check the model and the spec, lay the biplot out and return the
    generator of its SVG lines."""
    if model.dims != 2:
        raise InputError(f"SVG rendering requires a 2-D model, got dims={model.dims}")
    if spec.vector_scale is not None and not spec.vector_scale > 0:
        raise InputError(f"vector_scale must be positive, got {spec.vector_scale}")
    A = model.row_markers
    B = model.col_markers

    row_extent = float(np.max(np.abs(A))) if A.size else 1.0
    col_extent = float(np.max(np.linalg.norm(B, axis=1))) if B.size else 1.0
    row_extent = row_extent or 1.0
    col_extent = col_extent or 1.0
    scale = spec.vector_scale if spec.vector_scale is not None \
        else 0.4 * row_extent / col_extent
    Bs = B * scale

    half_w = spec.width / 2.0 - _MARGIN
    half_h = spec.height / 2.0 - _MARGIN
    extent = max(row_extent, float(np.max(np.abs(Bs))) if Bs.size else 0.0) or 1.0
    unit = min(half_w, half_h) / extent
    cx, cy = spec.width / 2.0, spec.height / 2.0

    def body():
        for (bx, by), label in zip(Bs.tolist(), model.col_labels, strict=True):
            x, y = cx + bx * unit, cy - by * unit
            yield (f'<line class="arrow" x1="{_fmt(cx)}" y1="{_fmt(cy)}" '
                   f'x2="{_fmt(x)}" y2="{_fmt(y)}" stroke="#cc0000" '
                   f'stroke-width="1.5" marker-end="url(#head)"/>\n')
            if spec.show_labels:
                yield (f'<text class="col-label" x="{_fmt(x + 4)}" y="{_fmt(y - 4)}" '
                       f'font-size="11" fill="#cc0000">{_escape(label)}</text>\n')
        for (ax, ay), label in zip(A.tolist(), model.row_labels, strict=True):
            x, y = cx + ax * unit, cy - ay * unit
            yield f'<circle class="dot" cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="#003366"/>\n'
            if spec.show_labels:
                yield (f'<text class="row-label" x="{_fmt(x + 5)}" y="{_fmt(y + 3)}" '
                       f'font-size="11" fill="#003366">{_escape(label)}</text>\n')

    shares = model.axis_variance_shares() * 100.0
    legend = (f'{method_name(model.gamma).upper()} biplot | '
              f'fit {quality.qr_overall * 100.0:.1f}% | vector scale x{scale:.4g}')
    return _frame(spec, shares, legend, body(), _ARROW_HEAD)


def render_svg(model: BiplotModel, quality: QualityReport,
               spec: PlotSpec = PlotSpec()) -> str:
    """Deterministic 2-D biplot: dots for rows, arrows from the origin for
    columns, axes annotated with variance shares."""
    return "".join(_biplot_lines(model, quality, spec))


def write_svg(model: BiplotModel, quality: QualityReport, fp,
              spec: PlotSpec = PlotSpec()) -> None:
    """Write ``render_svg(model, quality, spec)`` to the text file ``fp``
    line by line, without building the document."""
    fp.writelines(_biplot_lines(model, quality, spec))


def render_scatter_svg(coords: np.ndarray, labels: tuple[str, ...], title: str,
                       shares: tuple[float, float] | None = None,
                       spec: PlotSpec = PlotSpec(),
                       col_coords: np.ndarray | None = None,
                       col_labels: tuple[str, ...] | None = None) -> str:
    """Deterministic scatter panel for the baseline methods; an optional
    second point set (column coordinates) is drawn as squares."""
    pts = np.asarray(coords, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InputError(f"scatter rendering needs n x 2 coordinates, got {pts.shape}")
    all_pts = pts if col_coords is None else np.vstack([pts, col_coords])
    extent = float(np.max(np.abs(all_pts))) or 1.0
    unit = (min(spec.width, spec.height) / 2.0 - _MARGIN) / extent
    cx, cy = spec.width / 2.0, spec.height / 2.0

    def body():
        for (px, py), label in zip(pts.tolist(), labels, strict=True):
            x, y = cx + px * unit, cy - py * unit
            yield f'<circle class="dot" cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="#003366"/>\n'
            if spec.show_labels:
                yield (f'<text class="row-label" x="{_fmt(x + 5)}" y="{_fmt(y + 3)}" '
                       f'font-size="11" fill="#003366">{_escape(label)}</text>\n')
        if col_coords is not None:
            for j, (qx, qy) in enumerate(np.asarray(col_coords, dtype=float).tolist()):
                x, y = cx + qx * unit, cy - qy * unit
                yield (f'<rect class="col-dot" x="{_fmt(x - 3)}" y="{_fmt(y - 3)}" '
                       f'width="6" height="6" fill="#cc0000"/>\n')
                if spec.show_labels and col_labels is not None:
                    yield (f'<text class="col-label" x="{_fmt(x + 5)}" y="{_fmt(y + 3)}" '
                           f'font-size="11" fill="#cc0000">{_escape(col_labels[j])}</text>\n')

    return "".join(_frame(spec, shares, title, body()))
