"""Command line interface: analyze a CSV table, compare against baseline methods, or run
the embedded case studies. numpy and the analysis modules load only once a command starts
to compute, so ``--help``, a refused request and ``case N --dump-csv`` never load them."""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

from .catalog import CASES, GAMMA_BY_TYPE, SCALES, case_csv, method_name
from .errors import InputError, NumericalError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
_METHODS = ("jk", "pca", "mds", "ca")  # compare's panels, in their default order


def _read_table(path: str):
    """Parse the CSV file at ``path`` as it streams in, named by its stem (bad UTF-8 as U+FFFD)."""
    from .data import parse_table
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return parse_table(fh, os.fsencode(Path(path).stem).decode("utf-8", "replace"))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None


def _write_all(artifacts: list) -> None:
    """Write each ``(path, lines)`` artifact, ``lines`` an iterable of str, making its parent
    first. A path whose ``os.path.realpath`` target is a regular file is written to a temporary
    file beside that file, with its mode, which replaces it once every artifact is written. If
    one fails, remove the temporary files and the targets this call created, so no path that
    was there before changes. A path that cannot be written is an InputError."""
    made, staged = [], []  # the paths to remove on a failure; (temporary file, target) pairs
    try:
        for path, lines in artifacts:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            # Judged by its target, but opened by name: /dev/stdout's realpath on a pipe is no file.
            out, created = path, not os.path.lexists(target := os.path.realpath(path))
            if os.path.isfile(target):
                fd, out = tempfile.mkstemp(dir=os.path.dirname(target))
                os.close(fd)
                made.append(out)
                staged.append((out, target))
                shutil.copymode(target, out)
            with open(out, "w", encoding="utf-8") as fh:
                if created:
                    made.append(target)
                fh.writelines(lines)
        for out, path in staged:
            os.replace(out, path)
        made.clear()  # every artifact is in place: nothing left to remove
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None
    finally:
        for path in made:
            Path(path).unlink(missing_ok=True)


def _refuse_outputs(source, outputs, made=None) -> None:
    """Refuse ``outputs`` (paths) naming one file twice, the ``source`` table or a directory
    ('' names the working one), or with no directory to go in: the parent of each, or, for
    outputs under a directory ``made`` by the write, the nearest path up from it that exists,
    a link that leads nowhere included. Each path is judged by its ``os.path.realpath``."""
    resolved = [os.path.realpath(path) for path in outputs]
    if len(set(resolved)) < len(resolved):
        raise InputError(f"two outputs name the same file, {max(resolved, key=resolved.count)}")
    if source is not None and (table := os.path.realpath(source)) in resolved:
        raise InputError(f"an output names the input table, {table}")
    if dirs := [path for path in map(Path, outputs) if os.path.isdir(path)]:
        raise InputError(f"cannot write {dirs[0]}: it is a directory")
    for path in [made] if made else map(Path, outputs):
        at = next(p for p in (path, *path.parents) if os.path.lexists(p)) if made else path.parent
        if not os.path.isdir(at):
            raise InputError(f"cannot write {path}: {at} is not a directory")


def _cmd_analyze(args) -> int:
    if args.type is not None and args.gamma is not None:
        raise InputError("--type and --gamma are mutually exclusive")
    gamma = args.gamma if args.gamma is not None else GAMMA_BY_TYPE[args.type or "jk"]
    method_name(gamma, args.dims, args.svg is not None)  # judged before the outputs and the read
    _refuse_outputs(args.input, [path for path in (args.json, args.svg) if path is not None])
    from . import report, data  # report first: the peak resident set is ~0.15 MB lower
    # Unnamed, the table and its z-scored buffer are freed when the fit returns, before the writes.
    model, qual, rep = report.analyze(data.load_case(args.case_id) if args.input is None else
                                      _read_table(args.input), gamma=gamma, dims=args.dims,
                                      scale=args.scale, overwrite_table=True)
    artifacts = []
    if args.json is not None:
        artifacts.append((args.json, rep.json_lines()))
    if args.svg is not None:
        artifacts.append((args.svg, report.svg_lines(model, qual)))
    _write_all(artifacts)
    print(f"{rep.dataset['name']}: qr_overall = {qual.qr_overall:.4f} ({rep.method['name']}, "
          f"dims={rep.method['dims']}, scale={rep.preprocess['mode']})")
    return EXIT_OK


def _panel(table, method, title, xy, share, axes=None, cols=None, /, **doc):
    """A scatter panel of ``compare`` as (JSON lines, SVG lines, 2-D share): ``doc`` with the
    method, row labels and share, and the rows ``xy``, with the column points ``cols`` and the
    axis shares ``axes`` (percent), drawn under ``title`` and the share."""
    from . import report
    doc.update(method=method, row_labels=list(table.row_labels), share_2d=share)
    svg = report.scatter_lines(xy, table.row_labels, f"{title} | 2-D share {share * 100:.1f}%",
                               axes, col_coords=cols, col_labels=table.col_labels)
    return report.json_lines(doc), svg, share


def _ca_panel(table):
    """The ``ca`` panel, from the raw values, warning when the largest column mass passes 10
    times the smallest, the sign of a table that mixes measurement units."""
    from . import baselines
    if table.shape[1] < 3:
        baselines.ca_input(table)  # whose refusal comes first, as in correspondence_analysis
        raise InputError(f"the ca panel needs at least 3 columns for its two axes, and "
                         f"{table.name!r} is {table.shape[0]}x{table.shape[1]}; "
                         "leave it out with --methods jk,pca,mds")
    ca, labels = baselines.correspondence_analysis(table, 2), table.col_labels
    masses, hi, lo = ca.col_masses, int(ca.col_masses.argmax()), int(ca.col_masses.argmin())
    warnings = [f"column {labels[hi]!r} has {masses[hi] / masses[lo]:.3g} times the mass of "
                f"column {labels[lo]!r}: the table may mix measurement units, so chi-square "
                "profiles may not be meaningful"] if masses[hi] > 10.0 * masses[lo] else []
    return _panel(table, "ca", "CA (symmetric)", ca.row_coords,
                  float(ca.inertias.sum() / ca.total_inertia),
                  ca.inertias / ca.total_inertia * 100.0, ca.col_coords,
                  row_coords=ca.row_coords, col_coords=ca.col_coords, inertias=ca.inertias,
                  total_inertia=ca.total_inertia, col_labels=list(labels), warnings=warnings)


def _cmd_compare(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise InputError("--methods must name at least one method")
    for m in methods:
        if m not in _METHODS:
            raise InputError(f"unknown method {m!r}; choose from {', '.join(_METHODS)}")
        if methods.count(m) > 1:
            raise InputError(f"method {m!r} is named more than once in --methods")
    out_dir = Path(args.out)
    # The artifacts' prefix: the table's name, the file's stem, as a slug of 40 characters.
    slug = "".join(c if c.isalnum() else "_" for c in Path(args.input).stem.lower()).strip("_")[:40]
    paths = [out_dir / f"{slug}_{m}.{ext}" for m in methods for ext in ("json", "svg")]
    paths.append(out_dir / f"{slug}_summary.json")
    _refuse_outputs(args.input, paths, out_dir)
    from . import report, data, linalg  # report first, as in _cmd_analyze
    table = _read_table(args.input)
    # Every panel checks its inputs before any file is written; each writes its own files.
    panels = {}
    if "ca" in methods:  # first: it reads the raw values, which the fit z-scores in place
        try:
            panels["ca"] = _ca_panel(table)
        except InputError:  # a table both refuse is named by the fit's column rule
            if len(methods) > 1:
                data.refuse_unusable_column(table, "zscore")
            raise
    if methods != ["ca"]:  # the z-scored JK fit's panels, each built only if asked for
        model, qual, rep = report.analyze(table, overwrite_table=True)
        rows, share = model.row_markers, qual.qr_overall
        if "jk" in methods:
            panels["jk"] = rep.json_lines(), report.svg_lines(model, qual), share
        # By the Torgerson duality, the PCA scores and the MDS coordinates are the JK row markers.
        if "pca" in methods:
            panels["pca"] = _panel(table, "pca", "PCA", rows, share,
                                   model.axis_variance_shares() * 100.0, scores=rows)
        if "mds" in methods:
            coords = rows * linalg.axis_signs(rows)  # under the sign rule of classical_mds
            panels["mds"] = _panel(table, "mds", "Classical MDS", coords, share, coords=coords,
                                   eigenvalues=model.sigma_retained ** 2, strain=1.0 - share)
    summary = [{"method": m, "share_2d": panels[m][2]} for m in methods]
    lines = [part for m in methods for part in panels[m][:2]]
    lines.append(report.json_lines({"dataset": table.name, "methods": summary}))
    _write_all(list(zip(paths, lines)))
    for entry in summary:
        print(f"{entry['method']}: 2-D share = {entry['share_2d']:.4f}")
    return EXIT_OK


def _cmd_case(args) -> int:
    if args.dump_csv is None:  # the embedded table, analyzed as analyze's defaults do
        return _cmd_analyze(args)
    if others := [f"--{key}" for key in ("json", "svg") if getattr(args, key) is not None]:
        raise InputError(f"--dump-csv cannot be combined with {' or '.join(others)}")
    _refuse_outputs(None, [args.dump_csv])
    _write_all([(args.dump_csv, [case_csv(args.case_id)])])
    print(f"wrote {args.dump_csv}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="biplot",
                                     description="SVD-based biplot analysis of labeled tables")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="fit a biplot to a CSV table")
    p.add_argument("input")
    p.add_argument("--type", choices=tuple(GAMMA_BY_TYPE))
    p.add_argument("--gamma", type=float)
    p.add_argument("--dims", type=int, default=2)
    p.add_argument("--scale", choices=SCALES, default="zscore")
    p.add_argument("--json")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("compare", help="compare biplot with PCA/MDS/CA panels")
    p.add_argument("input")
    p.add_argument("--methods", default=",".join(_METHODS))
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("case", help="run or dump an embedded case study")
    p.add_argument("case_id", type=int, choices=tuple(CASES))
    p.add_argument("--dump-csv")
    p.add_argument("--json")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_case, input=None, type=None, gamma=None, dims=2, scale="zscore")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        status = args.func(args)
        if sys.stdout is not None:  # None when fd 1 is closed
            sys.stdout.flush()  # so a reader that has gone is met here, not at exit
        return status
    except (InputError, BrokenPipeError) as exc:
        if isinstance(exc, BrokenPipeError):  # fd 1 to the null device: nothing flushes at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            exc = f"cannot write stdout: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
