"""Command line interface: analyze a CSV table, compare against baseline
methods, or run the embedded case studies."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import baselines, linalg, report
from .data import DataTable, case_csv, load_case, parse_table
from .engine import GAMMA_BY_TYPE
from .errors import InputError, NumericalError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _read_table(path: str) -> DataTable:
    """Parse the CSV file at ``path`` as it streams in."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return parse_table(fh, Path(path).stem)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None


def _write_all(artifacts) -> None:
    """Create each ``(path, write)`` artifact through ``write(fh)``. If one
    fails, remove every file this call made, so a failed command leaves no
    artifact behind. A path that cannot be written is an InputError."""
    made = []
    try:
        try:
            for path, write in artifacts:
                with open(path, "w", encoding="utf-8") as fh:
                    made.append(path)
                    write(fh)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}") from None
    except BaseException:
        for path in made:
            Path(path).unlink(missing_ok=True)
        raise


def _write_artifacts(args, model, qual, rep) -> None:
    """Stream the ``--json`` report and the ``--svg`` plot to their files."""
    _write_all([(path, write) for path, write in (
        (args.json, lambda fh: report.write_json(rep, fh)),
        (args.svg, lambda fh: report.write_svg(model, qual, fh))) if path])


def _cmd_analyze(args) -> int:
    table = _read_table(args.input)
    if args.gamma is not None:
        gamma = args.gamma
    else:
        gamma = GAMMA_BY_TYPE[args.type or "jk"]
    model, qual, rep = report.analyze(table, gamma, args.dims, args.scale)
    _write_artifacts(args, model, qual, rep)
    print(f"{table.name}: qr_overall = {qual.qr_overall:.4f} "
          f"({report.method_name(gamma)}, dims={model.dims}, scale={args.scale})")
    return EXIT_OK


# Each panel maps (table, fit) to (report JSON, SVG, 2-D share). ``fit``
# returns the table's z-scored JK analysis, computed once on first use:
# by the Torgerson duality the PCA scores and the classical MDS
# configuration of the Euclidean row distances are its row markers.

def _jk_panel(table: DataTable, fit):
    model, qual, rep = fit()
    return rep.to_json(), report.render_svg(model, qual), qual.qr_overall


def _pca_panel(table: DataTable, fit):
    model, _, _ = fit()
    scores = model.row_markers
    shares = model.axis_variance_shares()
    share = float(np.sum(shares))
    doc = {"method": "pca", "scores": scores.tolist(),
           "row_labels": list(table.row_labels), "share_2d": share}
    svg = report.render_scatter_svg(scores, table.row_labels,
                                    f"PCA | 2-D share {share * 100:.1f}%",
                                    (float(shares[0] * 100.0), float(shares[1] * 100.0)))
    return report.dumps(doc), svg, share


def _mds_panel(table: DataTable, fit):
    model, qual, _ = fit()
    coords = model.row_markers * linalg.axis_signs(model.row_markers)
    share = qual.qr_overall
    doc = {"method": "mds", "coords": coords.tolist(),
           "eigenvalues": (model.sigma_retained ** 2).tolist(),
           "row_labels": list(table.row_labels),
           "strain": 1.0 - share, "share_2d": share}
    svg = report.render_scatter_svg(coords, table.row_labels,
                                    f"Classical MDS | 2-D share {share * 100:.1f}%")
    return report.dumps(doc), svg, share


def _ca_panel(table: DataTable, fit):
    ca = baselines.correspondence_analysis(table, 2)
    share = float(np.sum(ca.inertias) / ca.total_inertia)
    doc = {"method": "ca", "row_coords": ca.row_coords.tolist(),
           "col_coords": ca.col_coords.tolist(),
           "inertias": ca.inertias.tolist(),
           "total_inertia": ca.total_inertia,
           "row_labels": list(table.row_labels),
           "col_labels": list(table.col_labels),
           "share_2d": share,
           "warnings": ["table mixes measurement units; chi-square "
                        "profiles may not be meaningful"]}
    shares = ca.inertias / ca.total_inertia * 100.0
    svg = report.render_scatter_svg(ca.row_coords, table.row_labels,
                                    f"CA (symmetric) | 2-D share {share * 100:.1f}%",
                                    (float(shares[0]), float(shares[1])),
                                    col_coords=ca.col_coords,
                                    col_labels=table.col_labels)
    return report.dumps(doc), svg, share


_PANELS = {"jk": _jk_panel, "pca": _pca_panel, "mds": _mds_panel, "ca": _ca_panel}


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name.lower()).strip("_")[:40]


def _cmd_compare(args) -> int:
    table = _read_table(args.input)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise InputError("--methods must name at least one method")
    for m in methods:
        if m not in _PANELS:
            raise InputError(f"unknown method {m!r}; choose from {', '.join(_PANELS)}")
    fit = functools.cache(lambda: report.analyze(table))
    # Every panel is built before any file is written.
    panels = [(m, *_PANELS[m](table, fit)) for m in methods]
    summary = [{"method": m, "share_2d": share} for m, _, _, share in panels]
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write {out_dir}: {exc}") from None
    slug = _slug(table.name)
    texts = [(out_dir / f"{slug}_{m}.{ext}", text) for m, doc, svg, _ in panels
             for ext, text in (("json", doc), ("svg", svg))]
    texts.append((out_dir / f"{slug}_summary.json",
                  report.dumps({"dataset": table.name, "methods": summary})))
    _write_all((path, lambda fh, text=text: fh.write(text)) for path, text in texts)
    for entry in summary:
        print(f"{entry['method']}: 2-D share = {entry['share_2d']:.4f}")
    return EXIT_OK


def _cmd_case(args) -> int:
    table = load_case(args.case_id)
    if args.dump_csv:
        _write_all([(args.dump_csv, lambda fh: fh.write(case_csv(args.case_id)))])
        print(f"wrote {args.dump_csv}")
        return EXIT_OK
    model, qual, rep = report.analyze(table)
    _write_artifacts(args, model, qual, rep)
    print(f"{table.name}: qr_overall = {qual.qr_overall:.4f} (jk, dims=2, scale=zscore)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="biplot",
                                     description="SVD-based biplot analysis of labeled tables")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="fit a biplot to a CSV table")
    p.add_argument("input")
    p.add_argument("--type", choices=("jk", "gh", "sqrt"))
    p.add_argument("--gamma", type=float)
    p.add_argument("--dims", type=int, default=2)
    p.add_argument("--scale", choices=("none", "center", "zscore"), default="zscore")
    p.add_argument("--json")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("compare", help="compare biplot with PCA/MDS/CA panels")
    p.add_argument("input")
    p.add_argument("--methods", default=",".join(_PANELS))
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("case", help="run or dump an embedded case study")
    p.add_argument("case_id", type=int, choices=(1, 2, 3))
    p.add_argument("--dump-csv")
    p.add_argument("--json")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_case)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    if args.command == "analyze" and args.type is not None and args.gamma is not None:
        print("error: --type and --gamma are mutually exclusive", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
