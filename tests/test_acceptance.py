"""Acceptance suite: one test per criterion, each printing a pass/fail
line. Quantitative targets use the embedded case tables with the default
analysis (JK, zscore, dims=2)."""

import itertools
import json

import numpy as np
import pytest

from biplot.baselines import classical_mds, correspondence_analysis
from biplot.cli import main
from biplot.data import case_csv, load_case, preprocess
from biplot.engine import (column_cosines, fit_biplot, gh, jk, pca_scores,
                           pearson, quality, reconstruct, row_distances)
from biplot.linalg import low_rank_approx, reconstruction, svd


def default_analysis(cid):
    t = load_case(cid)
    x, rec = preprocess(t, "zscore")
    m = jk(x, 2, row_labels=t.row_labels, col_labels=t.col_labels)
    return t, x, m, quality(m, x)


def finish(criterion, failures):
    status = "PASS" if not failures else "FAIL: " + "; ".join(failures)
    print(f"criterion {criterion}: {status}")
    assert not failures, f"criterion {criterion}: {failures}"


def test_criterion_01_case1_overall_fit():
    _, _, _, q = default_analysis(1)
    failures = []
    if abs(q.qr_overall - 0.899) > 0.03:
        failures.append(f"qr_overall {q.qr_overall:.4f} not within 0.899 +/- 0.03")
    finish(1, failures)


def test_criterion_02_case1_column_quality():
    t, _, _, q = default_analysis(1)
    failures = []
    gdp = q.qr_cols[t.col_labels.index("GDP")]
    if abs(gdp - 0.75) > 0.05:
        failures.append(f"GDP qr_col {gdp:.4f} not within 0.75 +/- 0.05")
    for j, label in enumerate(t.col_labels):
        if label != "GDP" and q.qr_cols[j] <= 0.90:
            failures.append(f"{label} qr_col {q.qr_cols[j]:.4f} <= 0.90")
    finish(2, failures)


def test_criterion_03_case1_row_quality():
    _, _, _, q = default_analysis(1)
    failures = []
    n_high = int(np.sum(q.qr_rows > 0.88))
    if n_high < 14:
        failures.append(f"only {n_high}/21 rows above 0.88")
    low = float(np.min(q.qr_rows))
    if low < 0.70:
        failures.append(f"minimum qr_row {low:.4f} below 0.70")
    finish(3, failures)


def test_criterion_04_case1_correlations():
    t = load_case(1)
    P = pearson(t)
    li = t.col_labels.index
    failures = []
    v = P[li("%HR"), li("DOC")]
    if abs(v - 0.198) > 0.02:
        failures.append(f"corr(%HR, DOC) {v:.4f} not within 0.198 +/- 0.02")
    v = P[li("CAVG"), li("NCIT")]
    if abs(v - 0.928) > 0.01:
        failures.append(f"corr(CAVG, NCIT) {v:.4f} not within 0.928 +/- 0.01")
    finish(4, failures)


def test_criterion_05_case2():
    t, _, _, q = default_analysis(2)
    P = pearson(t)
    li = t.col_labels.index
    failures = []
    if abs(q.qr_overall - 0.879) > 0.03:
        failures.append(f"qr_overall {q.qr_overall:.4f} not within 0.879 +/- 0.03")
    v = P[li("Teaching"), li("Research")]
    if abs(v - 0.784) > 0.01:
        failures.append(f"corr(Teaching, Research) {v:.4f} not within 0.784 +/- 0.01")
    for j, label in enumerate(t.col_labels):
        if q.qr_cols[j] <= 0.75:
            failures.append(f"{label} qr_col {q.qr_cols[j]:.4f} <= 0.75")
    finish(5, failures)


def test_criterion_06_case3():
    t, _, _, q = default_analysis(3)
    P = pearson(t)
    li = t.col_labels.index
    failures = []
    if abs(q.qr_overall - 0.722) > 0.03:
        failures.append(f"qr_overall {q.qr_overall:.4f} not within 0.722 +/- 0.03")
    v = P[li("NCIT"), li("H-Index")]
    if abs(v - 0.822) > 0.03:
        failures.append(f"corr(NCIT, H-Index) {v:.4f} not within 0.822 +/- 0.03")
    v = P[li("H-Index"), li("TOPCIT")]
    if abs(v - (-0.042)) > 0.03:
        failures.append(f"corr(H-Index, TOPCIT) {v:.4f} not within -0.042 +/- 0.03")
    q1 = q.qr_cols[li("%Q1")]
    if not q1 < 0.10:
        failures.append(f"%Q1 qr_col {q1:.4f} not below 0.10")
    econ = q.qr_rows[t.row_labels.index("Economics & Business")]
    if abs(econ - 0.47) > 0.06:
        failures.append(f"Economics & Business qr_row {econ:.4f} not within 0.47 +/- 0.06")
    finish(6, failures)


def test_criterion_07_cluster_order_checks():
    failures = []
    # Case 1: Nordic cluster tighter than any Nordic-Bulgaria distance
    t1, _, m1, _ = default_analysis(1)
    d1 = row_distances(m1)
    idx = {l: i for i, l in enumerate(t1.row_labels)}
    nordics = ["Denmark", "Sweden", "Finland", "Norway"]
    intra = [d1[idx[a], idx[b]] for a, b in itertools.combinations(nordics, 2)]
    to_bulgaria = [d1[idx[a], idx["Bulgaria"]] for a in nordics]
    if not max(intra) < min(to_bulgaria):
        failures.append(f"Nordic intra max {max(intra):.3f} not below "
                        f"Bulgaria min {min(to_bulgaria):.3f}")
    # Case 3: Information Technology has the largest nearest-neighbor distance
    t3, _, m3, _ = default_analysis(3)
    d3 = row_distances(m3).copy()
    np.fill_diagonal(d3, np.inf)
    nn = d3.min(axis=1)
    loner = t3.row_labels[int(np.argmax(nn))]
    if loner != "Inf. Technology":
        failures.append(f"most isolated field is {loner!r}, not Inf. Technology")
    finish(7, failures)


def test_criterion_08_svd_property_suite():
    rng = np.random.default_rng(2024)
    failures = []
    for i in range(200):
        n = int(rng.integers(2, 13))
        p = int(rng.integers(2, 9))
        x = rng.normal(size=(n, p))
        res = svd(x)
        r = min(n, p)
        if np.linalg.norm(x - reconstruction(res)) / np.linalg.norm(x) > 1e-10:
            failures.append(f"reconstruction failed for sample {i}")
        if np.max(np.abs(res.U.T @ res.U - np.eye(r))) > 1e-10 or \
                np.max(np.abs(res.V.T @ res.V - np.eye(r))) > 1e-10:
            failures.append(f"orthonormality failed for sample {i}")
        res2 = svd(x)
        if not (np.array_equal(res.U, res2.U) and np.array_equal(res.V, res2.V)
                and np.array_equal(res.sigma, res2.sigma)):
            failures.append(f"determinism failed for sample {i}")
        if r >= 2:
            best = np.linalg.norm(x - low_rank_approx(res, 2), "fro")
            for _ in range(50):
                comp = rng.normal(size=(n, 2)) @ rng.normal(size=(2, p))
                if best > np.linalg.norm(x - comp, "fro") + 1e-12:
                    failures.append(f"Eckart-Young dominance failed for sample {i}")
                    break
        if failures:
            break
    finish(8, failures)


def test_criterion_09_biplot_identities():
    failures = []
    rng = np.random.default_rng(77)
    x = rng.normal(size=(9, 6))
    x -= x.mean(axis=0)
    # gamma-invariance of AB'
    recons = [reconstruct(fit_biplot(x, g, 2)) for g in (0.0, 0.25, 0.5, 1.0)]
    if any(np.max(np.abs(r - recons[0])) > 1e-10 for r in recons[1:]):
        failures.append("gamma-invariance of the reconstruction violated")
    # JK row markers == pca scores
    if np.max(np.abs(jk(x, 2).row_markers - pca_scores(x, 2))) > 1e-10:
        failures.append("JK row markers differ from PCA scores")
    # GH full-rank B B' == X'X
    rank = svd(x).rank
    B = gh(x, rank).col_markers
    xtx = x.T @ x
    if np.max(np.abs(B @ B.T - xtx)) > 1e-9 * np.max(np.abs(xtx)):
        failures.append("GH column metric not preserved at full rank")
    # QR weighted-mean identity
    m = jk(x, 2)
    q = quality(m, x)
    fro2 = np.sum(x ** 2)
    if abs(np.sum(np.sum(x ** 2, axis=0) * q.qr_cols) - q.qr_overall * fro2) > 1e-9 * fro2:
        failures.append("column weighted-mean identity violated")
    # projection rule reproduces reconstruct entries
    recon = reconstruct(m)
    lengths = np.linalg.norm(m.col_markers, axis=1)
    units = m.col_markers / lengths[:, None]
    inner = (m.row_markers @ units.T) * lengths
    if np.max(np.abs(inner - recon)) > 1e-10:
        failures.append("projection rule violated")
    finish(9, failures)


def test_criterion_10_baseline_oracles():
    failures = []
    rng = np.random.default_rng(55)
    # MDS Procrustes recovery
    for i in range(10):
        pts = rng.normal(size=(6, 3))
        pts -= pts.mean(axis=0)
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt(np.sum(diff ** 2, axis=2))
        emb = classical_mds(d, 3)
        u, _, vt = np.linalg.svd(emb.coords.T @ pts)
        if np.linalg.norm(emb.coords @ (u @ vt) - pts, "fro") > 1e-8:
            failures.append(f"MDS Procrustes recovery failed on sample {i}")
            break
    # CA inertia equals chi-square / total
    t = load_case(1)
    ca = correspondence_analysis(t, 2)
    P = t.values / t.values.sum()
    E = np.outer(P.sum(axis=1), P.sum(axis=0))
    chi2_over_n = np.sum((P - E) ** 2 / E)
    if abs(ca.total_inertia - chi2_over_n) > 1e-9:
        failures.append("CA total inertia differs from chi-square / total")
    # CA transition formulas
    sigma = np.sqrt(ca.inertias)
    row_profiles = P / P.sum(axis=1)[:, None]
    col_profiles = (P / P.sum(axis=0)[None, :]).T
    if np.max(np.abs(row_profiles @ ca.col_coords / sigma - ca.row_coords)) > 1e-9 or \
            np.max(np.abs(col_profiles @ ca.row_coords / sigma - ca.col_coords)) > 1e-9:
        failures.append("CA transition formulas violated")
    # independence table has zero inertia
    table = 300.0 * np.outer([0.5, 0.3, 0.2], [0.6, 0.4])
    if correspondence_analysis(table, 1).total_inertia > 1e-12:
        failures.append("independence table yielded nonzero inertia")
    finish(10, failures)


def test_criterion_11_interface_determinism(tmp_path):
    failures = []
    src = tmp_path / "case1.csv"
    src.write_text(case_csv(1), encoding="utf-8")
    blobs = []
    for tag in ("a", "b"):
        j = tmp_path / f"{tag}.json"
        s = tmp_path / f"{tag}.svg"
        if main(["analyze", str(src), "--type", "jk", "--json", str(j),
                 "--svg", str(s)]) != 0:
            failures.append("analyze invocation failed")
        blobs.append((j.read_bytes(), s.read_bytes()))
    if blobs[0] != blobs[1]:
        failures.append("repeated analyze runs differ")
    for tag in ("c", "d"):
        j = tmp_path / f"case_{tag}.json"
        if main(["case", "2", "--json", str(j)]) != 0:
            failures.append("case invocation failed")
    if (tmp_path / "case_c.json").read_bytes() != (tmp_path / "case_d.json").read_bytes():
        failures.append("repeated case runs differ")
    # CSV dump / re-analyze round trip
    dump = tmp_path / "dump.csv"
    direct = tmp_path / "direct.json"
    via = tmp_path / "via.json"
    main(["case", "1", "--dump-csv", str(dump)])
    main(["case", "1", "--json", str(direct)])
    main(["analyze", str(dump), "--type", "jk", "--scale", "zscore",
          "--json", str(via)])
    a = json.loads(direct.read_text())
    b = json.loads(via.read_text())
    a["dataset"]["name"] = b["dataset"]["name"] = ""
    if a != b:
        failures.append("CSV dump / re-analyze reports differ")
    finish(11, failures)
