import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biplot
from biplot import linalg, report
from biplot.baselines import classical_mds
from biplot.cli import main
from biplot.data import (DataTable, case_csv, load_case, parse_table, preprocess,
                         serialize_table)
from biplot.report import analyze, render_svg


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

    def counting_right_svd(values):
        count.append(1)
        return real_right_svd(values)

    monkeypatch.setattr(linalg, "right_svd", counting_right_svd)
    _compare_docs(tmp_path, case1_csv, methods)
    assert len(count) == calls


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
    assert s.read_bytes() == render_svg(model, qual).encode("utf-8")


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


@pytest.mark.parametrize("fault", ["ragged", "nonfinite", "constant", "huge", "dims", "gamma",
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
    elif fault == "dims":
        command, says = "analyze", "dims must lie in [1, rank="
        options = ["--dims", str(data.draw(st.integers(min(n, p) + 1, min(n, p) + 3)))]
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
            for flag, name in (("--json", "r.json"), ("--svg", "p.svg")):
                argv += [flag, str((blocker if flag == unwritable else tmp) / name)]
        else:
            argv = ["compare", str(table), "--out", str((blocker if unwritable else tmp) / "out")]
        err = io.StringIO()
        solver = (mock.patch.object(np.linalg, "svd",
                                    side_effect=np.linalg.LinAlgError("SVD did not converge"))
                  if fault == "no_convergence" else contextlib.nullcontext())
        with solver, contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == code
        assert err.getvalue().startswith("error: " if code == 2 else "numerical failure: ")
        assert says in err.getvalue() and "Traceback" not in err.getvalue()
        assert fault != "huge" or "constant" not in err.getvalue()
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


def test_every_exported_name_resolves():
    assert [name for name in biplot.__all__ if not hasattr(biplot, name)] == []
