import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import biplot
from biplot import linalg, report
from biplot.baselines import classical_mds
from biplot.cli import main
from biplot.data import case_csv, load_case, parse_table, preprocess
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


def test_analyze_constant_column_zscore_exits_2(tmp_path, capsys):
    bad = tmp_path / "const.csv"
    bad.write_text(",a,b\nr1,5,1\nr2,5,2\nr3,5,3\n", encoding="utf-8")
    assert main(["analyze", str(bad), "--scale", "zscore"]) == 2


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


def test_compare_ca_on_negative_table_exits_2(tmp_path, capsys):
    bad = tmp_path / "neg.csv"
    bad.write_text(",a,b\nr1,1,2\nr2,3,-1\nr3,5,6\n", encoding="utf-8")
    assert main(["compare", str(bad), "--methods", "ca", "--out", str(tmp_path)]) == 2
    assert "nonnegative" in capsys.readouterr().err


def _compare_docs(tmp_path, csv_path, methods):
    out = tmp_path / "panels"
    assert main(["compare", str(csv_path), "--methods", methods, "--out", str(out)]) == 0
    return {p.stem.rsplit("_", 1)[1]: json.loads(p.read_text()) for p in out.glob("*.json")}


@pytest.mark.parametrize("methods, calls", [("jk,pca,mds,ca", 2), ("jk,pca,mds", 1)])
def test_compare_factors_once(tmp_path, case1_csv, monkeypatch, methods, calls):
    count = []
    real_svd = linalg.svd

    def counting_svd(values):
        count.append(1)
        return real_svd(values)

    monkeypatch.setattr(linalg, "svd", counting_svd)
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


def _seeded_csv(path, n, p, seed):
    x = np.random.default_rng(seed).normal(size=(n, p))
    lines = [",".join([""] + [f"c{j}" for j in range(p)])]
    lines += [",".join([f"r{i}"] + [repr(float(v)) for v in row]) for i, row in enumerate(x)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_analyze_artifacts_identical_across_blas_threads(tmp_path):
    table = _seeded_csv(tmp_path / "t.csv", 3000, 40, 1)
    src = str(Path(biplot.__file__).resolve().parents[1])
    artifacts = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        j, s = tmp_path / f"{threads}.json", tmp_path / f"{threads}.svg"
        subprocess.run([sys.executable, "-m", "biplot.cli", "analyze", str(table),
                        "--json", str(j), "--svg", str(s)],
                       env=env, check=True, capture_output=True, timeout=120)
        artifacts.append((j.read_bytes(), s.read_bytes()))
    assert artifacts[0][0] == artifacts[1][0]
    assert artifacts[0][1] == artifacts[1][1]


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
