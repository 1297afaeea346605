import argparse
import contextlib
import errno
import io
import json
import os
import shlex
import stat
import subprocess
import sys
import tempfile
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biplot
from biplot import cli, linalg, report
from biplot.baselines import classical_mds
from biplot.catalog import CASES, GAMMA_BY_TYPE, SCALES
from biplot.cli import build_parser, main
from biplot.data import (DataTable, case_csv, load_case, parse_table, preprocess,
                         serialize_table)
from biplot.errors import InputError
from biplot.report import analyze, svg_lines


@pytest.fixture
def case1_csv(tmp_path):
    path = tmp_path / "case1.csv"
    path.write_text(case_csv(1), encoding="utf-8")
    return path


def test_analyze_case1(tmp_path, case1_csv, capsys):
    out = tmp_path / "r.json"
    code = main(["analyze", str(case1_csv), "--type", "jk",
                 "--scale", "zscore", "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["quality"]["qr_overall"] - 0.899) <= 0.03
    assert "qr_overall" in capsys.readouterr().out


def test_analyze_ragged_csv_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(",a,b\nr1,1,2\nr2,3\nr3,5,6\n", encoding="utf-8")
    code = main(["analyze", str(bad)])
    assert code == 2
    assert "r2" in capsys.readouterr().err


def test_analyze_type_gamma_mutually_exclusive(case1_csv, capsys):
    code = main(["analyze", str(case1_csv), "--type", "jk", "--gamma", "0.3"])
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_analyze_gamma_out_of_range(case1_csv, capsys):
    assert main(["analyze", str(case1_csv), "--gamma", "1.5"]) == 2
    assert "gamma must lie in [0, 1], got 1.5" in capsys.readouterr().err


def test_the_parsers_choices_are_the_librarys_vocabularies():
    """``--type``, ``--scale`` and ``case``'s id offer what the library names, and
    ``preprocess`` takes every scale the parser offers and refuses any other."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    choices = {(command, action.dest): action.choices for command, parser in sub.choices.items()
               for action in parser._actions if action.choices is not None}
    assert choices == {("analyze", "type"): tuple(GAMMA_BY_TYPE), ("analyze", "scale"): SCALES,
                       ("case", "case_id"): tuple(CASES)}
    assert tuple(CASES) == (1, 2, 3) and SCALES == ("none", "center", "zscore")
    assert [preprocess(load_case(1), mode)[1].mode for mode in SCALES] == list(SCALES)
    with pytest.raises(InputError, match="unknown preprocessing mode 'unit'"):
        preprocess(load_case(1), "unit")


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.csv")]) == 2


@pytest.mark.parametrize("scale", ["zscore", "center", "none"])
def test_analyze_constant_column_exits_2(tmp_path, capsys, scale):
    bad = tmp_path / "const.csv"
    bad.write_text(",a,b,c\nr1,5,1,2\nr2,5,2,7\nr3,5,3,1\nr4,5,9,4\n", encoding="utf-8")
    assert main(["analyze", str(bad), "--scale", scale]) == 2
    assert capsys.readouterr().err.startswith("error: column 'a' is constant; ")


@pytest.mark.parametrize("value", [5.0, 0.1])
@pytest.mark.parametrize("scale", ["zscore", "center", "none"])
@pytest.mark.parametrize("p", [64, 65])
def test_analyze_constant_column_exits_2_at_every_width(tmp_path, capsys, scale, p, value):
    # The report holds no correlations above 64 columns; the column is refused all the same.
    # The mean of 80 cells of 0.1 is not 0.1, so centering leaves rounding in that column.
    x = np.random.default_rng(p).normal(size=(80, p))
    x[:, 40] = value
    bad = tmp_path / "const.csv"
    bad.write_text(serialize_table(DataTable("const", tuple(f"r{i}" for i in range(80)),
                                             tuple(f"c{j}" for j in range(p)), x)),
                   encoding="utf-8")
    out = tmp_path / "r.json"
    assert main(["analyze", str(bad), "--scale", scale, "--json", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: column 'c40' is constant; ")
    assert not out.exists()


def test_case_json_values(tmp_path):
    out2 = tmp_path / "c2.json"
    out3 = tmp_path / "c3.json"
    assert main(["case", "2", "--json", str(out2)]) == 0
    assert main(["case", "3", "--json", str(out3)]) == 0
    assert abs(json.loads(out2.read_text())["quality"]["qr_overall"] - 0.879) <= 0.03
    assert abs(json.loads(out3.read_text())["quality"]["qr_overall"] - 0.722) <= 0.03


def test_case_bad_id_exits_2():
    assert main(["case", "4"]) == 2


def test_case_dump_then_analyze_round_trip(tmp_path):
    dump = tmp_path / "t.csv"
    assert main(["case", "1", "--dump-csv", str(dump)]) == 0
    direct = tmp_path / "direct.json"
    via_csv = tmp_path / "via_csv.json"
    assert main(["case", "1", "--json", str(direct)]) == 0
    assert main(["analyze", str(dump), "--type", "jk", "--scale", "zscore",
                 "--json", str(via_csv)]) == 0
    a = json.loads(direct.read_text())
    b = json.loads(via_csv.read_text())
    # dataset names differ (file stem vs fixture name); numbers must not
    a["dataset"]["name"] = b["dataset"]["name"] = ""
    assert a == b


def test_cli_outputs_are_deterministic(tmp_path, case1_csv):
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
    for j, s in ((j1, s1), (j2, s2)):
        assert main(["analyze", str(case1_csv), "--type", "jk",
                     "--json", str(j), "--svg", str(s)]) == 0
    assert j1.read_bytes() == j2.read_bytes()
    assert s1.read_bytes() == s2.read_bytes()


def test_compare_all_methods(tmp_path, case1_csv, capsys):
    out = tmp_path / "panels"
    code = main(["compare", str(case1_csv), "--methods", "jk,pca,mds,ca",
                 "--out", str(out)])
    assert code == 0
    svgs = sorted(p.name for p in out.glob("*.svg"))
    assert len(svgs) == 4
    jsons = sorted(p.name for p in out.glob("*.json"))
    assert len(jsons) == 5  # four methods + summary
    summary = json.loads(next(out.glob("*_summary.json")).read_text())
    assert {m["method"] for m in summary["methods"]} == {"jk", "pca", "mds", "ca"}
    for m in summary["methods"]:
        assert 0 < m["share_2d"] <= 1


def test_compare_makes_a_nested_out_directory(tmp_path, case1_csv):
    out = tmp_path / "a" / "b" / "c"
    assert main(["compare", str(case1_csv), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"case1_{m}.{ext}" for m in ("jk", "pca", "mds", "ca") for ext in ("json", "svg")]
        + ["case1_summary.json"])


def test_compare_refuses_a_directory_artifact_before_the_read(tmp_path, capsys, monkeypatch):
    table, blocker = tmp_path / "t.csv", tmp_path / "panels" / "t_jk.json"
    table.write_text(case_csv(1), encoding="utf-8")
    blocker.mkdir(parents=True)
    monkeypatch.setattr("biplot.data.parse_table", mock.Mock(side_effect=AssertionError("read")))
    assert main(["compare", str(table), "--out", str(tmp_path / "panels")]) == 2
    assert capsys.readouterr().err == f"error: cannot write {blocker}: it is a directory\n"
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "panels", "panels/t_jk.json", "t.csv"]


@pytest.mark.parametrize("cid, warned", [(1, True), (2, False), (3, False)])
def test_ca_panel_warns_only_on_mixed_units(tmp_path, cid, warned):
    path = tmp_path / f"case{cid}.csv"
    path.write_text(case_csv(cid), encoding="utf-8")
    assert main(["compare", str(path), "--methods", "ca", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / f"case{cid}_ca.json").read_text(encoding="utf-8"))
    if warned:  # RES sums to ~9.4e4 times NCIT
        assert doc["warnings"] == ["column 'RES' has 9.43e+04 times the mass of column "
                                   "'NCIT': the table may mix measurement units, so "
                                   "chi-square profiles may not be meaningful"]
    else:
        assert doc["warnings"] == []


def test_compare_jk_only_matches_analyze(tmp_path, case1_csv):
    out = tmp_path / "only"
    assert main(["compare", str(case1_csv), "--methods", "jk",
                 "--out", str(out)]) == 0
    jk_json = next(p for p in out.glob("*.json") if "summary" not in p.name)
    direct = tmp_path / "direct.json"
    assert main(["analyze", str(case1_csv), "--type", "jk",
                 "--json", str(direct)]) == 0
    assert json.loads(jk_json.read_text()) == json.loads(direct.read_text())


def test_compare_unknown_method_exits_2(case1_csv, capsys):
    assert main(["compare", str(case1_csv), "--methods", "jk,tsne"]) == 2
    assert "tsne" in capsys.readouterr().err


def test_compare_repeated_method_exits_2(case1_csv, tmp_path, capsys):
    out = tmp_path / "panels"
    assert main(["compare", str(case1_csv), "--methods", "jk,pca, jk", "--out", str(out)]) == 2
    assert "'jk'" in capsys.readouterr().err
    assert not out.exists()


def test_compare_ca_on_negative_table_exits_2(tmp_path, capsys):
    bad = tmp_path / "neg.csv"
    bad.write_text(",a,b\nr1,1,2\nr2,3,-1\nr3,5,6\n", encoding="utf-8")
    assert main(["compare", str(bad), "--methods", "ca", "--out", str(tmp_path)]) == 2
    assert "nonnegative" in capsys.readouterr().err


def test_compare_two_columns_refuses_the_ca_panel_before_any_work(tmp_path, capsys):
    path, out = tmp_path / "two.csv", tmp_path / "panels"
    path.write_text(",a,b\nr1,1,2\nr2,3,1\nr3,5,6\nr4,2,2\n", encoding="utf-8")
    with mock.patch.object(report, "analyze", side_effect=AssertionError("fitted")):
        assert main(["compare", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ca panel" in err and "4x2" in err and "3 columns" in err
    assert "--methods jk,pca,mds" in err and not out.exists()
    assert main(["compare", str(path), "--methods", "jk,pca,mds", "--out", str(out)]) == 0
    assert len(list(out.iterdir())) == 7


def _compare_docs(tmp_path, csv_path, methods):
    out = tmp_path / "panels"
    assert main(["compare", str(csv_path), "--methods", methods, "--out", str(out)]) == 0
    return {p.stem.rsplit("_", 1)[1]: json.loads(p.read_text()) for p in out.glob("*.json")}


@pytest.mark.parametrize("methods, calls", [("jk,pca,mds,ca", 2), ("jk,pca,mds", 1)])
def test_compare_factors_once(tmp_path, case1_csv, monkeypatch, methods, calls):
    count = []
    real_right_svd = linalg.right_svd

    def counting_right_svd(values, dims):
        count.append(1)
        return real_right_svd(values, dims)

    monkeypatch.setattr(linalg, "right_svd", counting_right_svd)
    _compare_docs(tmp_path, case1_csv, methods)
    assert len(count) == calls


@pytest.mark.parametrize("methods, titles", [
    ("pca", ["PCA"]), ("mds,pca", ["Classical MDS", "PCA"]), ("jk", []), ("ca", ["CA (symmetric)"]),
])
def test_compare_draws_only_the_scatter_panels_asked_for(tmp_path, case1_csv, monkeypatch,
                                                         methods, titles):
    drawn, real_scatter_lines = [], report.scatter_lines

    def counting_scatter_lines(coords, labels, title, *args, **kwargs):
        drawn.append(title.split(" | ")[0])
        return real_scatter_lines(coords, labels, title, *args, **kwargs)

    monkeypatch.setattr(report, "scatter_lines", counting_scatter_lines)
    _compare_docs(tmp_path, case1_csv, methods)
    assert sorted(drawn) == titles


def test_compare_mds_panel_matches_classical_mds(tmp_path, case1_csv):
    docs = _compare_docs(tmp_path, case1_csv, "jk,mds")
    z, _ = preprocess(load_case(1), "zscore")
    d = np.sqrt(np.sum((z[:, None, :] - z[None, :, :]) ** 2, axis=2))
    oracle = classical_mds(d, 2)
    assert np.max(np.abs(np.array(docs["mds"]["coords"]) - oracle.coords)) <= 1e-9
    assert np.allclose(docs["mds"]["eigenvalues"], oracle.eigenvalues, rtol=1e-12)
    assert abs(docs["mds"]["strain"] - (1.0 - docs["summary"]["methods"][0]["share_2d"])) <= 1e-12
    assert abs(docs["mds"]["strain"] - oracle.strain) <= 1e-12


def test_compare_mds_on_rank1_table_exits_2(tmp_path, capsys):
    path = tmp_path / "rank1.csv"
    path.write_text(",a,b\nr1,1,2\nr2,2,4\nr3,3,6\nr4,5,10\n", encoding="utf-8")
    assert main(["compare", str(path), "--methods", "mds", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _seeded_csv(path, n, p, seed, positive=False):
    x = np.random.default_rng(seed).normal(size=(n, p))
    if positive:  # a table correspondence analysis accepts
        x = np.abs(x) + 1.0
    lines = [",".join([""] + [f"c{j}" for j in range(p)])]
    lines += [",".join([f"r{i}"] + [repr(float(v)) for v in row]) for i, row in enumerate(x)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_analyze_artifacts_identical_across_blas_threads(tmp_path):
    tall = _seeded_csv(tmp_path / "tall.csv", 3000, 40, 1)
    wide = _seeded_csv(tmp_path / "wide.csv", 300, 100, 1)
    blocks = _seeded_csv(tmp_path / "blocks.csv", 300, 64, 1)  # the widest with p x p blocks
    r_blocks = _seeded_csv(tmp_path / "r_blocks.csv", 10000, 20, 1)  # 4 row blocks of R
    panels = _seeded_csv(tmp_path / "panels.csv", 1500, 30, 1, positive=True)
    src = str(Path(biplot.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv in (["analyze", str(tall), "--json", "r.json", "--svg", "p.svg"],
                 ["analyze", str(wide), "--json", "r.json", "--svg", "p.svg"],
                 ["compare", str(panels), "--methods", "jk,pca,mds,ca"],
                 ["analyze", str(blocks), "--json", "r.json", "--svg", "p.svg"],
                 ["analyze", str(r_blocks), "--json", "r.json", "--svg", "p.svg"]):
        artifacts = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            out = tmp_path / f"{argv[0]}-{Path(argv[1]).stem}-{threads}"
            out.mkdir()
            subprocess.run([sys.executable, "-m", "biplot.cli", *argv], cwd=out,
                           env=env, check=True, capture_output=True, timeout=120)
            artifacts.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert len(artifacts[0]) in (2, 9)
        for name, blob in artifacts[0].items():
            assert blob == artifacts[1][name], f"{' '.join(argv[:2])}: {name} differs"


def test_compare_ca_panel_is_the_same_beside_the_jk_fit(tmp_path):
    # compare builds the CA panel from the raw values before the JK fit z-scores
    # the parsed table in place, on a table of more than one row block too.
    path = _seeded_csv(tmp_path / "t.csv", report._BLOCK + 1, 5, 2, positive=True)
    for methods in ("ca", "jk,ca"):
        out = tmp_path / methods.replace(",", "_")
        assert main(["compare", str(path), "--methods", methods, "--out", str(out)]) == 0
    for ext in ("json", "svg"):
        assert (tmp_path / "ca" / f"t_ca.{ext}").read_bytes() == \
            (tmp_path / "jk_ca" / f"t_ca.{ext}").read_bytes()


def test_compare_ca_panel_is_the_same_beside_the_jk_fit_across_ca_blocks(tmp_path):
    # 2000 x 100: CA forms its residuals in blocks of BLOCK_CELLS // 100 = 655 rows.
    path = _seeded_csv(tmp_path / "t.csv", 2000, 100, 3, positive=True)
    assert 2000 > 3 * (linalg.BLOCK_CELLS // 100)
    for methods in ("ca", "jk,ca"):
        out = tmp_path / methods.replace(",", "_")
        assert main(["compare", str(path), "--methods", methods, "--out", str(out)]) == 0
    for ext in ("json", "svg"):
        assert (tmp_path / "ca" / f"t_ca.{ext}").read_bytes() == \
            (tmp_path / "jk_ca" / f"t_ca.{ext}").read_bytes()


def test_a_default_compare_makes_one_column_pass(tmp_path, case1_csv, monkeypatch):
    # The fit's column rule runs once, in preprocess, after the ca panel is built.
    calls, rule = [], biplot.data.refuse_unusable_column

    def counting_rule(table, undefined):
        calls.append(undefined)
        return rule(table, undefined)

    monkeypatch.setattr("biplot.data.refuse_unusable_column", counting_rule)
    assert main(["compare", str(case1_csv), "--out", str(tmp_path / "panels")]) == 0
    assert calls == ["zscore"]
    assert len(list((tmp_path / "panels").iterdir())) == 9


def test_compare_names_the_fits_column_rule_where_the_ca_panel_refuses_too(tmp_path, capsys):
    # Two columns, one constant: the ca panel and the fit both refuse the table, and a
    # compare that asks for both names the fit's rule; the ca panel alone names its own.
    path, out = tmp_path / "two.csv", tmp_path / "panels"
    path.write_text(",a,b\nr1,1,2\nr2,3,2\nr3,5,2\nr4,2,2\n", encoding="utf-8")
    assert main(["compare", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: column 'b' is constant; zscore undefined\n"
    assert main(["compare", str(path), "--methods", "ca", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the ca panel needs at least 3 columns") and "4x2" in err
    assert not out.exists()


@pytest.mark.parametrize("methods", ["pca", "mds,ca", "ca,jk", "jk,pca,mds"])
@pytest.mark.parametrize("source", ["case1", "400x30", "150x120"])
def test_any_subset_of_methods_writes_the_panels_of_the_full_run(tmp_path, case1_csv, source,
                                                                  methods):
    # 150 x 120: more than 100 rows and columns, so every layer of dots, arrows and squares
    # labels only its 100 points farthest out.
    path = case1_csv if source == "case1" else _seeded_csv(
        tmp_path / "t.csv", *map(int, source.split("x")), 4, positive=True)
    for out, chosen in (("full", "jk,pca,mds,ca"), ("part", methods)):
        assert main(["compare", str(path), "--methods", chosen, "--out", str(tmp_path / out)]) == 0
    names = [f"{path.stem}_{m}.{ext}" for m in methods.split(",") for ext in ("json", "svg")]
    assert sorted(f.name for f in (tmp_path / "part").iterdir()) == sorted(
        names + [f"{path.stem}_summary.json"])
    for name in names:
        assert (tmp_path / "part" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()
    shares = [{e["method"]: e["share_2d"] for e in json.loads(
        (tmp_path / out / f"{path.stem}_summary.json").read_text())["methods"]}
        for out in ("full", "part")]
    assert shares[1] == {m: shares[0][m] for m in methods.split(",")}


# The CLI with an exit hook that writes its process's peak resident set
# (VmHWM, which starts afresh at exec) to stderr.
_PEAK_ENTRY = """import atexit, sys
def _hwm():
    with open("/proc/self/status") as status:
        sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
atexit.register(_hwm)
from biplot.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_analyze_peak_memory_is_bounded_by_the_table(tmp_path):
    """The tall command holds one n x p matrix, the parsed table z-scored in
    place, and writes both artifacts in pieces: its peak resident set above
    that of ``case 1`` (interpreter, numpy and a tiny table) is at most 2.5
    times the table's bytes, what the parse leaves included."""
    n, p = 50000, 20
    tall = _seeded_csv(tmp_path / "tall.csv", n, p, 1)
    src = str(Path(biplot.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def peak_kb(*argv):
        proc = subprocess.run([sys.executable, "-c", _PEAK_ENTRY, *argv], cwd=tmp_path, env=env,
                              check=True, capture_output=True, text=True, timeout=120)
        return int(proc.stderr.split()[-2])

    tall_kb = peak_kb("analyze", str(tall), "--json", "r.json", "--svg", "p.svg")
    assert (tall_kb - peak_kb("case", "1")) * 1024 <= 2.5 * n * p * 8


def test_analyze_peak_memory_after_the_fit_stays_under_twice_the_table(tmp_path):
    """After the fit, quality forms its ratios in place and the SVG writer
    places, ranks and formats the rows a block at a time: the tall command's
    peak above ``case 1``'s is at most 2.0 times the table's bytes."""
    n, p = 50000, 20
    tall = _seeded_csv(tmp_path / "tall.csv", n, p, 1)
    src = str(Path(biplot.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    peak_kb = [int(subprocess.run([sys.executable, "-c", _PEAK_ENTRY, *argv], cwd=tmp_path,
                                  env=env, check=True, capture_output=True, text=True,
                                  timeout=120).stderr.split()[-2])
               for argv in (["analyze", str(tall), "--json", "r.json", "--svg", "p.svg"],
                            ["case", "1"])]
    assert (peak_kb[0] - peak_kb[1]) * 1024 <= 2.0 * n * p * 8


def test_compare_peak_memory_stays_under_three_times_the_table(tmp_path):
    """compare builds the CA panel from the raw values, forming its residuals in
    place by row blocks, then z-scores the parsed table in place for the fit, and
    streams every panel: its peak above ``case 1``'s is at most 3.0 times the table's bytes."""
    n, p = 50000, 20
    tall = _seeded_csv(tmp_path / "tall.csv", n, p, 1, positive=True)
    src = str(Path(biplot.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    peak_kb = [int(subprocess.run([sys.executable, "-c", _PEAK_ENTRY, *argv], cwd=tmp_path,
                                  env=env, check=True, capture_output=True, text=True,
                                  timeout=120).stderr.split()[-2])
               for argv in (["compare", str(tall), "--out", "panels"], ["case", "1"])]
    assert (peak_kb[0] - peak_kb[1]) * 1024 <= 3.0 * n * p * 8


@pytest.mark.parametrize("command, options", [("analyze", []),
                                              ("compare", ["--methods", "jk"])])
def test_non_utf8_input_exits_2_naming_the_file(tmp_path, capsys, command, options):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b",a,b\nM\xfcnchen,1,2\nr2,3,4\nr3,5,7\n")
    assert main([command, str(path), *options]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read " + str(path)) and "UTF-8" in err


@pytest.mark.parametrize("source", ["1", "2", "3", "2000x30"])
def test_streamed_artifacts_equal_in_memory_ones(tmp_path, source):
    j, s = tmp_path / "report.json", tmp_path / "plot.svg"
    if source == "2000x30":
        path = _seeded_csv(tmp_path / "t.csv", 2000, 30, 7)
        table = parse_table(path.read_text(encoding="utf-8"), path.stem)
        argv = ["analyze", str(path)]
    else:
        table = load_case(int(source))
        argv = ["case", source]
    assert main(argv + ["--json", str(j), "--svg", str(s)]) == 0
    model, qual, rep = analyze(table)
    assert j.read_bytes() == rep.to_json().encode("utf-8")
    assert s.read_bytes() == "".join(svg_lines(model, qual)).encode("utf-8")


def test_failed_svg_leaves_no_partial_file(tmp_path, case1_csv, capsys):
    svg = tmp_path / "plot.svg"
    assert main(["analyze", str(case1_csv), "--dims", "3", "--svg", str(svg)]) == 2
    assert "2-D model" in capsys.readouterr().err
    assert not svg.exists()


def test_failed_svg_leaves_no_json_either(tmp_path, case1_csv, capsys):
    j, s = tmp_path / "r.json", tmp_path / "p.svg"
    assert main(["analyze", str(case1_csv), "--dims", "3", "--json", str(j),
                 "--svg", str(s)]) == 2
    assert "2-D model" in capsys.readouterr().err
    assert not j.exists() and not s.exists()


def test_failed_compare_leaves_no_panels(tmp_path, capsys):
    bad = tmp_path / "neg.csv"
    bad.write_text(",a,b\nr1,1,2\nr2,3,-1\nr3,5,6\n", encoding="utf-8")
    assert main(["compare", str(bad), "--out", str(tmp_path / "panels")]) == 2
    assert "nonnegative" in capsys.readouterr().err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [bad]


def test_undefined_cosines_are_written_as_null(tmp_path):
    path, out = tmp_path / "diag.csv", tmp_path / "r.json"
    path.write_text(",x,y,z\na,3,0,0\nb,0,2,0\nc,0,0,1\n", encoding="utf-8")
    assert main(["analyze", str(path), "--scale", "none", "--json", str(out)]) == 0

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    doc = json.loads(out.read_text(encoding="utf-8"), parse_constant=refuse)
    assert doc["cosines"][2] == [None, None, None]
    assert [row[2] for row in doc["cosines"]] == [None, None, None]
    assert doc["warnings"] == ["cosines undefined for zero-length column markers"]


@pytest.mark.parametrize("argv", [["case", "1", "--json", "r.json"], ["compare", "{csv}"]],
                         ids=["case", "compare"])
def test_svd_failure_exits_3_and_leaves_no_artifact(tmp_path, case1_csv, capsys,
                                                    monkeypatch, argv):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    monkeypatch.chdir(tmp_path)
    assert main([a.format(csv=case1_csv) for a in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: SVD did not converge") and "Traceback" not in err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [case1_csv]


@pytest.mark.parametrize("argv", [["analyze", "{csv}", "--json", "r.json", "--svg", "p.svg"],
                                  ["case", "1", "--json", "r.json", "--svg", "p.svg"],
                                  ["compare", "{csv}", "--methods", "jk,pca,mds,ca"]],
                         ids=["analyze", "case", "compare"])
def test_each_command_runs_the_pipeline_once(tmp_path, case1_csv, monkeypatch, argv):
    calls = []
    real_analyze = report.analyze

    def counting_analyze(*args, **kwargs):
        calls.append(args)
        return real_analyze(*args, **kwargs)

    monkeypatch.setattr(report, "analyze", counting_analyze)
    monkeypatch.chdir(tmp_path)
    assert main([a.format(csv=case1_csv) for a in argv]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("source", ["case1", "400x30"])
def test_compare_jk_panel_is_the_analyze_report(tmp_path, case1_csv, source):
    path = case1_csv if source == "case1" else _seeded_csv(tmp_path / "t.csv", 400, 30, 3)
    out = tmp_path / "panels"
    assert main(["compare", str(path), "--methods", "jk,pca,mds", "--out", str(out)]) == 0
    table = parse_table(path.read_text(encoding="utf-8"), path.stem)
    assert (out / f"{path.stem}_jk.json").read_bytes() == analyze(table)[2].to_json().encode()


@pytest.mark.parametrize("command", ["case", "analyze", "compare"])
def test_unwritable_artifact_path_exits_2(tmp_path, case1_csv, capsys, command):
    blocker = tmp_path / "file.txt"
    blocker.write_text("not a directory", encoding="utf-8")
    target, argv = {
        "case": (tmp_path / "no" / "such" / "r.json", ["case", "1", "--json"]),
        "analyze": (blocker / "plot.svg", ["analyze", str(case1_csv), "--svg"]),
        "compare": (blocker / "sub", ["compare", str(case1_csv), "--out"]),
    }[command]
    assert main(argv + [str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["case1.csv", "file.txt"]


@pytest.mark.parametrize("command", ["analyze", "case"])
def test_too_long_an_output_name_exits_2_without_a_traceback(tmp_path, case1_csv, capsys,
                                                             command):
    """A name past the file system's 255-byte limit passes the pre-read rules, which never
    raise, and is refused at the write."""
    target = tmp_path / ("a" * 300)
    argv = {"analyze": ["analyze", str(case1_csv), "--json"], "case": ["case", "1", "--dump-csv"]}
    assert main(argv[command] + [str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ") and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["case1.csv"]


def test_a_failed_second_write_removes_the_first_artifact(tmp_path, case1_csv, capsys):
    """The JSON report is written, then the SVG's too long a name fails: the report made
    by the same call is removed, so the command leaves nothing behind."""
    report_path, target = tmp_path / "r.json", tmp_path / ("a" * 300 + ".svg")
    assert main(["analyze", str(case1_csv), "--json", str(report_path), "--svg", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ") and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["case1.csv"]


@pytest.mark.parametrize("kind, svg", [("symlink", None), ("file", None),
                                       ("symlink", "/dev/full"), ("file", "/dev/full")],
                         ids=["symlink", "file", "symlink-dev-full", "file-dev-full"])
def test_a_failed_write_keeps_a_path_that_was_there_before(tmp_path, case1_csv, capsys, kind,
                                                           svg):
    """The report goes to a symlink or a file the user had and the SVG to too long a name, which
    fails at the open, or to ``/dev/full``, which fails after the report is written to a
    temporary file beside the user's: the user's path keeps its bytes, a link stays a link and
    the temporary file is removed."""
    keep, report_path = tmp_path / "keep.txt", tmp_path / f"{kind}.json"
    keep.write_text("kept", encoding="utf-8")
    if kind == "symlink":
        report_path.symlink_to(keep)
    else:
        report_path.write_text("kept", encoding="utf-8")
    target = svg or tmp_path / ("a" * 300 + ".svg")
    assert main(["analyze", str(case1_csv), "--json", str(report_path), "--svg", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ") and "Traceback" not in err
    assert report_path.is_symlink() == (kind == "symlink") and report_path.is_file()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["case1.csv", "keep.txt", report_path.name])
    assert keep.read_text(encoding="utf-8") == report_path.read_text(encoding="utf-8") == "kept"


def test_a_failed_write_through_a_dangling_link_leaves_nothing_at_its_target(tmp_path,
                                                                             case1_csv, capsys):
    """The report goes through a symlink to a file that is not there and the SVG to
    ``/dev/full``: the report's file, made by this call at the link's target, is removed and
    the link stays. Once the SVG can be written, the report lands at the target."""
    link, target = tmp_path / "link.json", tmp_path / "target.json"
    link.symlink_to(target.name)
    argv = ["analyze", str(case1_csv), "--json", str(link)]
    assert main([*argv, "--svg", "/dev/full"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write /dev/full: ") and "Traceback" not in err
    assert link.is_symlink() and not os.path.lexists(target)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["case1.csv", "link.json"]
    assert main([*argv, "--svg", str(tmp_path / "p.svg")]) == 0
    assert link.is_symlink() and json.loads(target.read_text(encoding="utf-8"))["dataset"]


@pytest.mark.parametrize("argv, verb", [(["analyze", "loop"], "read"),
                                        (["analyze", "t.csv", "--json", "loop"], "write"),
                                        (["compare", "t.csv", "--out", "loop"], "write")],
                         ids=["input", "json", "compare-out"])
def test_a_symlink_loop_exits_2_with_a_message(tmp_path, capsys, monkeypatch, argv, verb):
    """A symlink that leads to itself, as the input table, the report or ``compare``'s
    directory, is named in a refusal rather than raised as a traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.csv").write_text(case_csv(1), encoding="utf-8")
    (tmp_path / "loop").symlink_to("loop")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot {verb} loop: ") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["loop", "t.csv"]


@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_a_table_whose_name_is_not_utf8_is_named_with_the_replacement_character(tmp_path,
                                                                                command):
    """A file name with a byte that is no UTF-8 names the dataset with U+FFFD, which the JSON
    encoder takes, rather than with the surrogate the file system decoding gives."""
    table = tmp_path / os.fsdecode(b"\xfe.csv")
    table.write_text(case_csv(1), encoding="utf-8")
    if command == "analyze":
        out = tmp_path / "r.json"
        assert main(["analyze", str(table), "--json", str(out),
                     "--svg", str(tmp_path / "p.svg")]) == 0
        name = json.loads(out.read_text(encoding="utf-8"))["dataset"]["name"]
    else:
        out = tmp_path / "panels"
        assert main(["compare", str(table), "--out", str(out)]) == 0
        name = json.loads((out / "_summary.json").read_text(encoding="utf-8"))["dataset"]
    assert name == "\ufffd"


def test_a_pre_existing_output_is_rewritten_with_the_bytes_of_a_fresh_one(tmp_path, case1_csv):
    """A ``--json`` the user had, of mode 0640, and a new ``--svg`` are both written with the
    bytes a run into fresh paths gives; the user's file keeps its mode, and no temporary file
    is left beside it."""
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    fresh.mkdir()
    old.mkdir()
    (old / "r.json").write_text("user data", encoding="utf-8")
    (old / "r.json").chmod(0o640)
    for out in (fresh, old):
        assert main(["analyze", str(case1_csv), "--json", str(out / "r.json"),
                     "--svg", str(out / "p.svg")]) == 0
    for name in ("r.json", "p.svg"):
        assert (old / name).read_bytes() == (fresh / name).read_bytes()
    assert stat.S_IMODE((old / "r.json").stat().st_mode) == 0o640
    assert sorted(p.name for p in old.iterdir()) == ["p.svg", "r.json"]


@pytest.mark.parametrize("command", ["analyze", "case"])
def test_the_table_is_freed_before_the_writes(tmp_path, case1_csv, monkeypatch, command):
    """``analyze`` and ``case`` name no parsed table after the fit, so it and the buffer it
    was z-scored in are gone by the time the artifacts are written."""
    refs, fit, write_all = [], report.analyze, cli._write_all

    def analyze_by_ref(table, **options):
        refs.extend([weakref.ref(table), weakref.ref(table._buffer)])
        return fit(table, **options)

    def write_after_free(artifacts):
        assert [ref() for ref in refs] == [None, None]
        write_all(artifacts)

    monkeypatch.setattr(report, "analyze", analyze_by_ref)
    monkeypatch.setattr(cli, "_write_all", write_after_free)
    argv = ["analyze", str(case1_csv)] if command == "analyze" else ["case", "1"]
    assert main([*argv, "--json", str(tmp_path / "r.json")]) == 0
    assert len(refs) == 2 and (tmp_path / "r.json").is_file()


@pytest.mark.parametrize("fault",["ragged", "nonfinite", "constant", "huge", "tiny", "ca_total",
                                   "ca_row_mass", "ca_col_mass", "dims", "low_dims", "gamma",
                                   "unwritable", "no_convergence"])
@settings(max_examples=15, deadline=None)
@given(command=st.sampled_from(["analyze", "compare"]),
       scale=st.sampled_from(["zscore", "center", "none"]), n=st.integers(3, 8),
       p=st.integers(3, 6), data=st.data())
def test_bad_input_exits_2_or_3_with_a_message_and_no_artifact(fault, command, scale, n, p,
                                                                data):
    # One fault per call, in the table, the arguments, the output path or the solver.
    # Input errors exit 2 and numerical failures 3, with a message naming the fault and
    # no traceback; any exception escaping main fails the test. The table has 3 or more
    # columns, as compare's correspondence analysis needs for its 2 axes.
    rows = [[repr(v) for v in row]
            for row in (np.abs(np.random.default_rng(n * p).normal(size=(n, p))) + 1).tolist()]
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, p - 1))
    code, says, options, unwritable = 2, "", [], None
    if fault == "ragged":
        rows[i] = rows[i][:-1] if data.draw(st.booleans()) else rows[i] + ["1.0"]
        says = f"'r{i}'"
    elif fault == "nonfinite":
        rows[i][j] = data.draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity"]))
        says = f"row 'r{i}', column 'c{j}'"
    elif fault == "constant":
        value = data.draw(st.sampled_from(["5", "0.1", "0", "-2.5"]))
        for row in rows:
            row[j] = value
        says = f"column 'c{j}' is constant; "
    elif fault == "huge":  # finite, but its squares overflow
        for row in rows:
            row[j] = repr(float(row[j]) * 1e200)
        says = f"column 'c{j}' "
    elif fault == "tiny":  # finite and distinct, but its centered squares underflow
        for row in rows:
            row[j] = repr(float(row[j]) * 1e-200)
        says = f"column 'c{j}' "
    elif fault.startswith("ca_"):  # the CA's total overflows, or two of its masses underflow
        command, options, p = "compare", ["--methods", "ca"], 3
        cells, says = {
            "ca_total": ("1e308,1e307,1e307 1e307,1e308,1e307 1e307,1e307,1e308 1e308,1e308,1e307",
                         "1e+308 at row 'r0', column 'c0' is the largest"),
            "ca_row_mass": ("1e300,1,1 1,1,2 1,2,1 2,1,1", "row 'r1' has mass "),
            "ca_col_mass": ("1e-320,1,2 2e-320,3,1 3e-320,2,5", "column 'c0' has mass "),
        }[fault]
        rows = [line.split(",") for line in cells.split()]
    elif fault == "dims":
        command, says = "analyze", "dims must lie in [1, rank="
        options = ["--dims", str(data.draw(st.integers(min(n, p) + 1, min(n, p) + 3)))]
    elif fault == "low_dims":
        command, says = "analyze", "dims must be positive, got "
        options = [f"--dims={data.draw(st.integers(max_value=0))}"]
    elif fault == "gamma":
        command, says = "analyze", "gamma must lie in [0, 1], got "
        gamma = data.draw(st.floats().filter(lambda g: not 0.0 <= g <= 1.0))
        options = [f"--gamma={gamma!r}"]
    elif fault == "unwritable":  # an unwritable --svg comes after --json is written
        says, unwritable = "cannot write ", data.draw(st.sampled_from(["--json", "--svg", "--out"]))
        command = "compare" if unwritable == "--out" else "analyze"
    else:
        code, says = 3, "SVD did not converge"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        table, blocker = tmp / "t.csv", tmp / "file.txt"
        table.write_text("\n".join([",".join([""] + [f"c{k}" for k in range(p)])]
                                   + [",".join([f"r{k}"] + row) for k, row in enumerate(rows)]),
                         encoding="utf-8")
        blocker.write_text("not a directory", encoding="utf-8")
        if command == "analyze":
            argv = ["analyze", str(table), "--scale", scale, *options]
            # --svg with --dims other than 2 is a fault of its own, refused before the read,
            # so the dims faults ask for the report alone: too many axes reach the fit's rank
            # rule, and too few are refused before the read.
            outputs = (("--json", "r.json"), ("--svg", "p.svg"))[:1 if "dims" in fault else 2]
            for flag, name in outputs:
                argv += [flag, str((blocker if flag == unwritable else tmp) / name)]
        else:
            argv = ["compare", str(table), *options,
                    "--out", str((blocker if unwritable else tmp) / "out")]
        err = io.StringIO()
        solver = (mock.patch.object(np.linalg, "svd",
                                    side_effect=np.linalg.LinAlgError("SVD did not converge"))
                  if fault == "no_convergence" else contextlib.nullcontext())
        with solver, contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == code
        assert err.getvalue().startswith("error: " if code == 2 else "numerical failure: ")
        assert says in err.getvalue() and "Traceback" not in err.getvalue()
        if fault in ("huge", "tiny"):
            assert "constant" not in err.getvalue() and "non-finite" not in err.getvalue()
        assert sorted(f.name for f in tmp.rglob("*") if f.is_file()) == ["file.txt", "t.csv"]


def test_labels_with_characters_xml_forbids_give_well_formed_svgs(tmp_path):
    path = tmp_path / "ctl.csv"
    path.write_text(',a\x01,b\x1fc,d\n"r\x01x",1,2,4\nr\x1f2,3,4,1\nr3,5,7,2\nr4,2,9,3\n',
                    encoding="utf-8")
    j, s, out = tmp_path / "r.json", tmp_path / "p.svg", tmp_path / "panels"
    assert main(["analyze", str(path), "--json", str(j), "--svg", str(s)]) == 0
    assert main(["compare", str(path), "--out", str(out)]) == 0
    svgs = [s, *out.glob("*.svg")]
    assert len(svgs) == 5
    for svg in svgs:
        texts = [e.text for e in ET.parse(svg).getroot().iter() if e.tag.endswith("text")]
        assert "r\ufffdx" in texts and "r\ufffd2" in texts
    assert {"a\ufffd", "b\ufffdc"} <= set(ET.parse(s).getroot().itertext())
    dataset = json.loads(j.read_text(encoding="utf-8"))["dataset"]
    assert dataset["row_labels"][:2] == ["r\x01x", "r\x1f2"]
    assert dataset["col_labels"] == ["a\x01", "b\x1fc", "d"]


def test_analyze_dims3_json_without_svg(tmp_path, case1_csv):
    out = tmp_path / "r.json"
    assert main(["analyze", str(case1_csv), "--dims", "3", "--json", str(out)]) == 0
    markers = json.loads(out.read_text(encoding="utf-8"))["row_markers"]
    assert {len(row) for row in markers} == {3}


@pytest.mark.parametrize("case_id", [1, 2, 3])
def test_case_dump_csv_writes_the_embedded_text(tmp_path, case_id):
    out = tmp_path / "t.csv"
    assert main(["case", str(case_id), "--dump-csv", str(out)]) == 0
    assert out.read_bytes() == case_csv(case_id).encode("utf-8")


@pytest.mark.parametrize("outputs, named", [(["--json", "r.json"], "--json"),
                                            (["--svg", "p.svg"], "--svg"),
                                            (["--json", "r.json", "--svg", "p.svg"],
                                             "--json or --svg")])
def test_case_dump_csv_with_other_outputs_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                     monkeypatch, outputs, named):
    monkeypatch.chdir(tmp_path)
    assert main(["case", "1", "--dump-csv", "c1.csv", *outputs]) == 2
    assert capsys.readouterr().err == f"error: --dump-csv cannot be combined with {named}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["analyze", "case"])
def test_json_and_svg_naming_one_file_exits_2_and_writes_nothing(tmp_path, case1_csv, capsys,
                                                                 monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    argv = ["analyze", str(case1_csv)] if command == "analyze" else ["case", "1"]
    assert main([*argv, "--json", "same", "--svg", str(tmp_path / "sub" / ".." / "same")]) == 2
    same = (tmp_path / "same").resolve()
    assert capsys.readouterr().err == f"error: two outputs name the same file, {same}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["case1.csv"]


_SAME = "two outputs name the same file, {same}"
_INPUT = "an output names the input table, {table}"
# An input whose stem, cut to compare's 40-character prefix, names its summary file.
_SUMMARY = "a" * 40 + "_summary.json"
_REFUSALS = {
    "analyze-same-file": (["analyze", "t.csv", "--json", "same", "--svg", "same"], _SAME),
    "case-same-file": (["case", "1", "--json", "same", "--svg", "same"], _SAME),
    "output-is-input": (["analyze", "t.csv", "--json", "report.json", "--svg", "./t.csv"], _INPUT),
    "type-and-gamma": (["analyze", "t.csv", "--type", "jk", "--gamma", "0.3"],
                       "--type and --gamma are mutually exclusive"),
    "gamma-out-of-range": (["analyze", "t.csv", "--gamma", "1.5"],
                           "gamma must lie in [0, 1], got 1.5"),
    "gamma-nan": (["analyze", "t.csv", "--gamma", "nan"], "gamma must lie in [0, 1], got nan"),
    "svg-not-2-d": (["analyze", "t.csv", "--dims", "3", "--svg", "p.svg"],
                    "SVG rendering requires a 2-D model, got dims=3"),
    "dims-zero": (["analyze", "t.csv", "--dims", "0"], "dims must be positive, got 0"),
    "dims-negative": (["analyze", "t.csv", "--dims", "-1"], "dims must be positive, got -1"),
    # With --svg, the SVG's axes are named before a dims below 1.
    "svg-before-dims": (["analyze", "t.csv", "--dims", "0", "--svg", "p.svg"],
                        "SVG rendering requires a 2-D model, got dims=0"),
    # The library's rules on the arguments come before the output rules.
    "gamma-before-output": (["analyze", "t.csv", "--gamma", "1.5", "--json", "."],
                            "gamma must lie in [0, 1], got 1.5"),
    "dims-before-output": (["analyze", "t.csv", "--dims", "0", "--json", "."],
                           "dims must be positive, got 0"),
    "unknown-method": (["compare", "t.csv", "--methods", "jk,tsne"],
                       "unknown method 'tsne'; choose from jk, pca, mds, ca"),
    "repeated-method": (["compare", "t.csv", "--methods", "jk,pca, jk"],
                        "method 'jk' is named more than once in --methods"),
    "no-method": (["compare", "t.csv", "--methods", ","],
                  "--methods must name at least one method"),
    "summary-is-input": (["compare", _SUMMARY], _INPUT),
    # /dev/null is a file on every POSIX system, so nothing can be made under it.
    "parent-not-a-directory": (["analyze", "t.csv", "--json", "/dev/null/r.json"],
                               "cannot write /dev/null/r.json: /dev/null is not a directory"),
    "parent-missing": (["analyze", "t.csv", "--json", "no/such/r.json"],
                       "cannot write no/such/r.json: no/such is not a directory"),
    "out-under-a-file": (["compare", "t.csv", "--out", "/dev/null/panels"],
                         "cannot write /dev/null/panels: /dev/null is not a directory"),
    "output-is-a-directory": (["analyze", "t.csv", "--json", "."],
                              "cannot write .: it is a directory"),
    # An empty name is the working directory, refused rather than dropped.
    "empty-svg": (["analyze", "t.csv", "--svg", ""], "cannot write .: it is a directory"),
    "empty-dump-csv": (["case", "1", "--dump-csv", ""], "cannot write .: it is a directory"),
}


@pytest.mark.parametrize("argv, err", list(_REFUSALS.values()), ids=list(_REFUSALS))
def test_a_refused_request_reads_no_table(tmp_path, capsys, monkeypatch, argv, err):
    monkeypatch.chdir(tmp_path)
    table = tmp_path / (_SUMMARY if _SUMMARY in argv else "t.csv")
    table.write_text(case_csv(1), encoding="utf-8")
    monkeypatch.setattr("biplot.data.parse_table", mock.Mock(side_effect=AssertionError("read")))
    monkeypatch.setattr("biplot.data.load_case", mock.Mock(side_effect=AssertionError("read")))
    assert main(argv) == 2
    same, table_path = (tmp_path / "same").resolve(), table.resolve()
    assert capsys.readouterr().err == "error: " + err.format(same=same, table=table_path) + "\n"
    assert [p.name for p in tmp_path.iterdir()] == [table.name]
    assert table.read_text(encoding="utf-8") == case_csv(1)


@pytest.mark.parametrize("leads_to", ["out", "nowhere/panels"], ids=["loop", "dangling"])
def test_compare_refuses_an_out_link_to_no_directory_before_the_read(tmp_path, capsys,
                                                                      monkeypatch, leads_to):
    """A ``--out`` that is a looping symlink or one that leads nowhere is no directory to go
    in: it is refused as a file there is, before the table is read and before numpy loads."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.csv").write_text(case_csv(1), encoding="utf-8")
    (tmp_path / "out").symlink_to(leads_to)
    monkeypatch.setattr("biplot.data.parse_table", mock.Mock(side_effect=AssertionError("read")))
    argv = ["compare", "t.csv", "--out", "out"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: cannot write out: out is not a directory\n"
    assert _loaded(tmp_path, [argv], ["numpy", "biplot.data"]) == [[], [2]]
    assert (tmp_path / "out").is_symlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "t.csv"]


# Imports biplot, then runs the CLI on each argv of the JSON list in argv[1]; prints, as
# JSON, which of the modules named in the JSON list in argv[2] were loaded after the import
# and after each call, each call's list led by its exit code.
_LOADED_ENTRY = """import contextlib, io, json, sys
import biplot
loaded = lambda: sorted(set(json.loads(sys.argv[2])) & set(sys.modules))
seen = [loaded()]
from biplot.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        seen.append([main(argv), *loaded()])
print(json.dumps(seen))
"""


def _loaded(cwd, argvs, modules):
    """The lists ``_LOADED_ENTRY`` prints for ``argvs``, run in one child process in ``cwd``."""
    src = str(Path(biplot.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _LOADED_ENTRY, json.dumps(argvs),
                           json.dumps(modules)],
                          cwd=cwd, env=env, check=True, capture_output=True, text=True,
                          timeout=120)
    return json.loads(proc.stdout)


def test_requests_that_compute_nothing_load_no_numpy(tmp_path):
    """``import biplot``, ``--help``, a usage error, ``case N --dump-csv`` and every
    refusal judged from the arguments alone load neither numpy nor ``biplot.data``."""
    runs = [(["case", "1", "--dump-csv", "c1.csv"], 0), (["--help"], 0), (["analyze"], 2)]
    runs += [(argv, 2) for argv, _ in _REFUSALS.values()]
    seen = _loaded(tmp_path, [a for a, _ in runs], ["numpy", "biplot.data"])
    assert seen == [[]] + [[code] for _, code in runs]
    assert (tmp_path / "c1.csv").read_text(encoding="utf-8") == case_csv(1)


def test_analyze_and_case_never_load_the_baselines(tmp_path):
    """``case`` and ``analyze`` compute the fit without ``biplot.baselines``; ``compare``,
    whose CA panel needs it, is the control."""
    runs = [["case", "1", "--dump-csv", "c1.csv"],
            ["case", "1", "--json", "r.json", "--svg", "p.svg"],
            ["analyze", "c1.csv", "--json", "a.json", "--svg", "a.svg"],
            ["compare", "c1.csv", "--out", "panels"]]
    seen = _loaded(tmp_path, runs, ["biplot.baselines"])
    assert seen == [[], [0], [0], [0], [0, "biplot.baselines"]]
    assert (tmp_path / "panels" / "c1_summary.json").is_file()


def test_every_exported_name_resolves():
    assert [name for name in biplot.__all__ if not hasattr(biplot, name)] == []


def test_the_package_stays_within_its_line_budget():
    """``src/biplot`` has at most 1550 lines, the ceiling ROADMAP.md sets."""
    lines = {path.name: path.read_bytes().count(b"\n")
             for path in sorted(Path(biplot.__file__).parent.glob("*.py"))}
    assert sum(lines.values()) <= 1550, lines


def _cli_child(cwd, command, unbuffered=False, **popen):
    """The finished child process of ``python -m biplot.cli`` run by ``sh -c command`` in
    ``cwd``, with Python's output buffering on or off, in Python's dev mode with every warning
    an error: ResourceWarning and DeprecationWarning show, and one that cannot be raised, as
    for a file closed by the collector, is still printed to stderr."""
    src = str(Path(biplot.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(["sh", "-c", f'exec "$0" -X dev -W error -m biplot.cli {command}',
                           sys.executable], cwd=cwd, env=env, stderr=subprocess.PIPE,
                          timeout=120, **popen)


@pytest.fixture(scope="module")
def dev_mode_inputs(tmp_path_factory):
    """The tables of ``test_a_command_in_dev_mode_exits_0_with_nothing_on_stderr``."""
    inputs = tmp_path_factory.mktemp("inputs")
    (inputs / "c2.csv").write_text(case_csv(2), encoding="utf-8")
    (inputs / os.fsdecode(b"\xfe.csv")).write_text(case_csv(2), encoding="utf-8")
    # A blank and a whitespace-only line the fast parser skips, a quoted label with a comma
    # it splits off, and a 1_000 cell that sends the table to the reference parser.
    (inputs / "odd.csv").write_text(',a,b\n"r,1",1.5,2\n\nr2,1_000,4\n \t \nr3,5,6.25\nr4,2,1\n',
                                    encoding="utf-8")
    _seeded_csv(inputs / "wide.csv", 150, 120, 1, positive=True)
    _seeded_csv(inputs / "blocks.csv", 2000, 100, 1, positive=True)  # 4 of CA's row blocks
    return inputs


# The commands that must run clean in dev mode; {in} is the directory of dev_mode_inputs.
_DEV_MODE_RUNS = {
    "help": "--help",
    "case": "case 1 --json r.json --svg p.svg",
    "dump-csv": "case 2 --dump-csv c2.csv",
    "sqrt-center": "analyze {in}/c2.csv --type sqrt --scale center --json r.json --svg p.svg",
    "compare": "compare {in}/c2.csv",
    "odd-lines": "analyze {in}/odd.csv --json r.json --svg p.svg",
    "not-utf8-name": "analyze {in}/\"$(printf '\\376')\".csv --json r.json --svg p.svg",
    "150x120": "analyze {in}/wide.csv --json r.json --svg p.svg",
    "150x120-compare": "compare {in}/wide.csv",
    "150x120-ca": "compare {in}/wide.csv --methods ca",
    "150x120-mds-pca": "compare {in}/wide.csv --methods mds,pca",
    "2000x100-ca": "compare {in}/blocks.csv --methods ca",
    "2000x100-jk-ca": "compare {in}/blocks.csv --methods jk,ca",
}


@pytest.mark.parametrize("command", list(_DEV_MODE_RUNS.values()), ids=list(_DEV_MODE_RUNS))
def test_a_command_in_dev_mode_exits_0_with_nothing_on_stderr(tmp_path, dev_mode_inputs,
                                                                command):
    proc = _cli_child(tmp_path, command.replace("{in}", shlex.quote(str(dev_mode_inputs))),
                      stdout=subprocess.DEVNULL)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command, artifacts", [("case 2", 0), ("compare case2.csv", 9),
                                                ("analyze case2.csv --json /dev/stdout", 0)],
                         ids=["case", "compare", "json-stdout"])
def test_a_stdout_whose_reader_has_gone_exits_2_with_one_line(tmp_path, command, artifacts,
                                                              unbuffered):
    """A stdout pipe whose read end is closed gives exit 2 and one line on stderr, with no
    traceback and no "Exception ignored" at exit, and the artifacts written before it stay."""
    (tmp_path / "case2.csv").write_text(case_csv(2), encoding="utf-8")
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli_child(tmp_path, command, unbuffered, stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr.decode() == ("error: cannot write stdout: "
                                    f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n")
    assert len(list(tmp_path.iterdir())) == 1 + artifacts


def test_a_closed_stdout_is_no_error(tmp_path):
    """With fd 1 closed Python has no ``sys.stdout``: ``case 2`` prints nowhere and exits 0."""
    proc = _cli_child(tmp_path, "case 2 >&-")
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize("command", ["case 2", "analyze case2.csv --json /dev/stdout"],
                         ids=["case", "json-stdout"])
def test_a_full_stdout_exits_2_with_one_line(tmp_path, command):
    (tmp_path / "case2.csv").write_text(case_csv(2), encoding="utf-8")
    proc = _cli_child(tmp_path, f"{command} > /dev/full")
    assert proc.returncode == 2
    assert proc.stderr.decode() == ("error: cannot write stdout: "
                                    f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.parametrize("command, redirect", [("analyze case2.csv --json", ">"),
                                               ("analyze case2.csv --json", ">>"),
                                               ("case 1 --dump-csv", ">")],
                         ids=["json", "json-appended", "dump-csv"])
def test_an_output_that_is_the_commands_stdout_is_written_through_it(tmp_path, command,
                                                                     redirect):
    """``/dev/stdout`` as an output, with stdout sent to a file, is never replaced under the
    shell's descriptor: the file holds what it had (under ``>>``), then the artifact's bytes
    as a plain file gets them, then the summary line."""
    (tmp_path / "case2.csv").write_text(case_csv(2), encoding="utf-8")
    (tmp_path / "log").write_bytes(b"kept\n")
    procs = [_cli_child(tmp_path, f"{command} out > first"),
             _cli_child(tmp_path, f"{command} /dev/stdout {redirect} log")]
    assert [(proc.returncode, proc.stderr) for proc in procs] == [(0, b""), (0, b"")]
    summary = (tmp_path / "first").read_bytes().replace(b"wrote out", b"wrote /dev/stdout")
    kept = b"kept\n" if redirect == ">>" else b""
    assert (tmp_path / "log").read_bytes() == kept + (tmp_path / "out").read_bytes() + summary
    assert sorted(p.name for p in tmp_path.iterdir()) == ["case2.csv", "first", "log", "out"]


@pytest.mark.parametrize("output, redirect", [("/dev/stderr", "2>>"), ("/dev/fd/3", "3>>")],
                         ids=["stderr", "fd-3"])
def test_an_output_on_a_descriptor_the_shell_opened_is_written_through_it(tmp_path, output,
                                                                          redirect):
    """An output that is a file the shell opened for the command, on stderr or another
    descriptor, is written through that descriptor and never replaced under it: the file keeps
    what it had, then gets the CSV, and stdout has the summary line."""
    (tmp_path / "log").write_bytes(b"kept\n")
    proc = _cli_child(tmp_path, f"case 1 --dump-csv {output} {redirect} log",
                      stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"wrote {output}\n".encode(), b"")
    assert (tmp_path / "log").read_bytes() == b"kept\n" + case_csv(1).encode()
    assert [p.name for p in tmp_path.iterdir()] == ["log"]


def test_a_failed_write_on_a_held_descriptor_names_the_output(tmp_path):
    proc = _cli_child(tmp_path, "case 1 --dump-csv /dev/fd/3 3> /dev/full",
                      stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode() == ("error: cannot write /dev/fd/3: "
                                    f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
