import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from biplot import linalg
from biplot.baselines import classical_mds, correspondence_analysis
from biplot.data import DataTable, load_case, parse_table, preprocess
from biplot.engine import (column_correlations, column_cosines, fit_biplot, gh, jk, pca_scores,
                           pearson, quality, reconstruct, row_distances, sqrt_biplot)
from biplot.errors import InputError, NumericalError
from biplot.linalg import BLOCK_CELLS, low_rank_approx, right_svd, svd
from biplot.report import analyze


def case_matrix(cid, mode="zscore"):
    t = load_case(cid)
    x, rec = preprocess(t, mode)
    return t, x, rec


def test_jk_of_diagonal():
    m = jk(np.diag([2.0, 1.0]), dims=2)
    assert np.allclose(np.abs(m.row_markers), np.diag([2.0, 1.0]), atol=1e-12)
    assert np.allclose(np.abs(m.col_markers), np.eye(2), atol=1e-12)


def test_gh_of_diagonal():
    m = gh(np.diag([2.0, 1.0]), dims=2)
    assert np.allclose(np.abs(m.row_markers), np.eye(2), atol=1e-12)
    assert np.allclose(np.abs(m.col_markers), np.diag([2.0, 1.0]), atol=1e-12)


def test_gamma_bounds_and_dims_checked():
    x = np.diag([2.0, 1.0])
    with pytest.raises(InputError):
        fit_biplot(x, gamma=1.5, dims=2)
    with pytest.raises(InputError):
        fit_biplot(x, gamma=-0.1, dims=2)
    with pytest.raises(InputError):
        fit_biplot(x, gamma=0.5, dims=3)


def test_fit_biplot_needs_one_label_per_row_and_column():
    x = np.diag([3.0, 2.0, 1.0])
    for labels in [dict(row_labels=("a", "b")), dict(col_labels=("a", "b", "c", "d"))]:
        with pytest.raises(InputError, match=r"^label counts \(\d, \d\) do not match matrix "
                                             r"shape \(3, 3\)$"):
            fit_biplot(x, gamma=1.0, dims=2, **labels)


def test_fit_biplot_judges_dims_and_labels_before_it_factors(monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "right_svd", lambda values, dims: calls.append(values))
    x = np.diag([3.0, 2.0, 1.0])
    for dims in (0, -1):
        with pytest.raises(InputError, match=f"^dims must be positive, got {dims}$"):
            fit_biplot(x, gamma=1.0, dims=dims)
    with pytest.raises(InputError, match=r"^dims must be an integer, got 2\.0$"):
        fit_biplot(x, gamma=1.0, dims=2.0)
    with pytest.raises(InputError, match=r"^label counts \(2, 3\) do not match"):
        fit_biplot(x, gamma=1.0, dims=2, row_labels=("a", "b"))
    assert calls == []


@pytest.mark.parametrize("x, says", [
    ([[1.0, 2.0], [np.nan, 1.0], [3.0, 0.5]], "contains a non-finite entry at row 1, column 0"),
    ([[1.0, 2.0], [2.0, 1.0], [3.0, np.inf]], "contains a non-finite entry at row 2, column 1"),
    ([1.0, 2.0, 3.0], "must be a non-empty 2-D array, got shape (3,)"),
    (np.empty((0, 2)), "must be a non-empty 2-D array, got shape (0, 2)"),
], ids=["nan", "inf", "1-d", "empty"])
def test_fit_biplot_rejects_unusable_matrices(x, says):
    with pytest.raises(InputError) as exc:
        fit_biplot(x, gamma=1.0, dims=1)
    assert str(exc.value) == f"matrix {says}"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_quality_names_a_non_finite_entry(bad):
    x = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 0.5]])
    m = jk(x, 1)
    x[1, 0] = bad
    with pytest.raises(InputError, match="^matrix contains a non-finite entry at row 1, column 0$"):
        quality(m, x)


@pytest.mark.parametrize("bad", [[[1, 2], [3, 1e200], [5, 6]], [[1e154, 0], [0, 1e154], [1, 1]]],
                         ids=["row", "sum"])
def test_quality_refuses_squares_past_the_float_range(bad):
    # Finite entries whose squares overflow: a row's, or only their sum.
    x = np.array([[1.0, 2.0], [3.0, 1.0], [5.0, 6.0]])
    m = jk(x - x.mean(axis=0), 2)
    with pytest.raises(InputError, match="^x is too large to square: overflow at row 'r1'$"):
        quality(m, np.array(bad, dtype=float))


def test_marker_orthonormality_by_gamma():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7, 5))
    mj = jk(x, 2)
    assert np.allclose(mj.col_markers.T @ mj.col_markers, np.eye(2), atol=1e-10)
    mg = gh(x, 2)
    assert np.allclose(mg.row_markers.T @ mg.row_markers, np.eye(2), atol=1e-10)
    ms = sqrt_biplot(x, 2)
    aa = ms.row_markers.T @ ms.row_markers
    bb = ms.col_markers.T @ ms.col_markers
    assert np.allclose(aa, np.diag(ms.sigma_retained), atol=1e-10)
    assert np.allclose(bb, np.diag(ms.sigma_retained), atol=1e-10)


@pytest.mark.parametrize("fit", [gh, sqrt_biplot])
def test_row_markers_orthonormal_near_the_rank_tolerance(fit):
    # A kept singular value of 1e-9: dividing X V_s by it, rather than
    # taking U_s from a QR, left max|U_s'U_s - I| at 1.2e-7.
    rng = np.random.default_rng(0)
    U, _ = np.linalg.qr(rng.normal(size=(50, 4)))
    V, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    x = U * [1.0, 1e-9, 1e-10, 1e-11] @ V.T
    m = fit(x, 2)
    u = m.row_markers / m.sigma_retained ** m.gamma
    assert np.max(np.abs(u.T @ u - np.eye(2))) <= 1e-14
    assert np.all(np.sum(u * jk(x, 2).row_markers, axis=0) > 0)  # the signs of X V_s


def test_full_rank_reconstruction_for_every_gamma():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(6, 4))
    rank = svd(x).rank
    for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
        m = fit_biplot(x, gamma=gamma, dims=rank)
        err = np.linalg.norm(x - reconstruct(m)) / np.linalg.norm(x)
        assert err <= 1e-9


def test_gamma_invariance_of_reconstruction():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(8, 5))
    for dims in (1, 2, 3):
        recons = [reconstruct(fit_biplot(x, g, dims))
                  for g in (0.0, 0.3, 0.5, 0.7, 1.0)]
        for r in recons[1:]:
            assert np.max(np.abs(r - recons[0])) <= 1e-10


def test_reconstruct_matches_low_rank_approx():
    t, x, _ = case_matrix(1)
    res = svd(x)
    for dims in (1, 2, 3):
        m = jk(x, dims)
        assert np.allclose(reconstruct(m), low_rank_approx(res, dims), atol=1e-9)


def test_quality_exact_for_low_rank_input():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 5))  # rank 2
    m = jk(x, 2)
    q = quality(m, x)
    assert np.isclose(q.qr_overall, 1.0, atol=1e-10)
    assert np.allclose(q.qr_rows, 1.0, atol=1e-9)
    assert np.allclose(q.qr_cols, 1.0, atol=1e-9)
    assert q.residual_frobenius < 1e-9


def test_quality_bounds_and_monotonicity():
    t, x, _ = case_matrix(1)
    prev = 0.0
    for dims in range(1, svd(x).rank + 1):
        m = jk(x, dims)
        q = quality(m, x)
        assert np.all((q.qr_rows >= 0) & (q.qr_rows <= 1))
        assert np.all((q.qr_cols >= 0) & (q.qr_cols <= 1))
        assert 0 <= q.qr_overall <= 1
        assert q.qr_overall >= prev - 1e-12
        prev = q.qr_overall
    assert np.isclose(prev, 1.0, atol=1e-10)


def test_quality_weighted_mean_identities():
    t, x, _ = case_matrix(1)
    m = jk(x, 2)
    q = quality(m, x)
    fro2 = np.sum(x ** 2)
    rows_lhs = np.sum(np.sum(x ** 2, axis=1) * q.qr_rows)
    cols_lhs = np.sum(np.sum(x ** 2, axis=0) * q.qr_cols)
    assert abs(rows_lhs - q.qr_overall * fro2) <= 1e-9 * fro2
    assert abs(cols_lhs - q.qr_overall * fro2) <= 1e-9 * fro2


def test_quality_residual_oracle():
    t, x, _ = case_matrix(1)
    m = jk(x, 2)
    q = quality(m, x)
    sigma = svd(x).sigma
    assert np.isclose(q.residual_frobenius, np.sqrt(np.sum(sigma[2:] ** 2)), atol=1e-9)


def test_quality_shape_mismatch():
    t, x, _ = case_matrix(1)
    m = jk(x, 2)
    with pytest.raises(InputError):
        quality(m, x[:-1])


def test_quality_rejects_a_matrix_the_model_was_not_fitted_to():
    t, x, _ = case_matrix(1)
    m = jk(x, 2, row_labels=t.row_labels, col_labels=t.col_labels)
    first = t.row_labels[int(np.argmax(quality(m, x).qr_rows > 0.25))]
    with pytest.raises(NumericalError, match=f"^row '{first}' has quality above 1"):
        quality(m, 0.5 * x)


def test_quality_clips_rounding_on_a_column_of_tiny_norm():
    # The last column's captured norm is rounding (its ratio reads ~500 on
    # OpenBLAS): clipped, not an error.
    x = np.random.default_rng(0).normal(size=(6, 4)) * [1.0, 1.0, 1.0, 1e-16]
    assert np.all(quality(jk(x, 2), x).qr_cols <= 1.0)


@pytest.mark.parametrize("seed", [0, 2])
def test_quality_labels_rows_and_columns_of_rounding_size(seed):
    # The last column's quality reads 1.0 (seed 0) or 0.72 (seed 2): noise.
    x = np.random.default_rng(seed).normal(size=(6, 4)) * [1, 1, 1, 1e-16]
    q = quality(jk(x, 2), x)
    assert (q.noise_rows, q.noise_cols) == ((), ("c3",))
    assert 0.0 <= q.qr_cols[3] <= 1.0
    assert quality(jk(x[:, :3], 2), x[:, :3]).noise_cols == ()


def _whole_array_quality(m, x):
    """quality's fields by whole-array formulas: every row at once."""
    row_sq, col_sq = np.einsum("ij,ij->i", x, x), np.einsum("ij,ij->j", x, x)
    s, tol, fields = m.sigma_retained, 1e-9 * float(np.sum(row_sq)), {}
    for kind, markers, power, sq, labels in (
            ("rows", m.row_markers, 1.0 - m.gamma, row_sq, m.row_labels),
            ("cols", m.col_markers, m.gamma, col_sq, m.col_labels)):
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.sum((markers * s ** power) ** 2, axis=1) / sq
        ratio[sq <= 0] = 1.0
        fields[f"qr_{kind}"] = np.minimum(ratio, 1.0)
        fields[f"noise_{kind}"] = tuple(labels[i] for i in np.flatnonzero(sq <= tol))
    total = float(np.sum(m.sigma_all ** 2))
    fields["qr_overall"] = float(np.sum(s ** 2) / total)
    fields["residual_frobenius"] = float(np.sqrt(np.sum(m.sigma_all[m.dims:] ** 2)))
    return fields


@pytest.mark.parametrize("gamma", [1.0, 0.5, 0.0])
def test_quality_by_row_blocks_keeps_the_bits_of_the_whole_array(gamma):
    # 64 columns: blocks of 1024 rows, so two full blocks and a partial last
    # one, with rows of rounding size in each and a column of rounding size.
    n, p = 2 * (BLOCK_CELLS // 64) + 37, 64
    rng = np.random.default_rng(8)
    x = rng.normal(size=(n, 3)) @ rng.normal(size=(3, p)) + 0.01 * rng.normal(size=(n, p))
    x[[3, 1500, 2060]] *= 1e-12
    x[:, 5] *= 1e-16
    m = fit_biplot(x, gamma, 2)
    q = quality(m, x)
    expected = _whole_array_quality(m, x)
    assert {f.name for f in dataclasses.fields(q)} == set(expected)
    for name, value in expected.items():
        assert np.array_equal(getattr(q, name), value), name
    assert (q.noise_rows, q.noise_cols) == (("r3", "r1500", "r2060"), ("c5",))
    # A row of the second block that is not the fitted one is named by its own label.
    bad = x.copy()
    bad[1200] *= 0.5
    with pytest.raises(NumericalError, match="^row 'r1200' has quality above 1"):
        quality(m, bad)


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_quality_holds_its_outputs_and_one_block(gamma):
    """numpy reports its buffers to tracemalloc: quality holds the n squared
    row norms, the n ratios and a block of linalg.BLOCK_CELLS cells at a time."""
    n, p = 100000, 20
    x = np.random.default_rng(0).normal(size=(n, p))
    m = fit_biplot(x, gamma, 3)
    quality(m, x)  # warm-up: first calls allocate caches of their own
    tracemalloc.start()
    try:
        quality(m, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (2 * n + 2 * BLOCK_CELLS) * 8


def test_jk_row_metric_preservation():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(7, 4))
    m = jk(x, 2)
    J = m.row_markers
    res = svd(x)
    xxt_trunc = (res.U[:, :2] * res.sigma[:2] ** 2) @ res.U[:, :2].T
    assert np.max(np.abs(J @ J.T - xxt_trunc)) <= 1e-9


def test_gh_column_metric_preservation_full_rank():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(7, 4))
    m = gh(x, svd(x).rank)
    B = m.col_markers
    xtx = x.T @ x
    assert np.max(np.abs(B @ B.T - xtx)) <= 1e-9 * np.max(np.abs(xtx))


def test_jk_column_markers_are_v_rows():
    rng = np.random.default_rng(29)
    x = rng.normal(size=(6, 4))
    m = jk(x, 2)
    assert np.array_equal(m.col_markers, right_svd(x, 2)[1])
    assert np.max(np.abs(m.col_markers - svd(x).V[:, :2])) <= 1e-12
    assert np.all(np.linalg.norm(m.col_markers, axis=1) <= 1.0 + 1e-12)


def test_column_cosines_duplicate_column():
    rng = np.random.default_rng(31)
    base = rng.normal(size=(6, 3))
    x = np.column_stack([base, base[:, 0]])
    x = x - x.mean(axis=0)
    m = gh(x, 2)
    C = column_cosines(m)
    assert np.isclose(C[0, 3], 1.0, atol=1e-9)
    assert np.allclose(C, C.T, equal_nan=True)
    assert np.allclose(np.diag(C), 1.0)


def test_column_cosines_of_a_zero_or_underflowing_marker_are_nan():
    """A zero marker, and one whose squares underflow though its products with others do not,
    have NaN cosines, the diagonal too; the other pairs keep theirs."""
    B = np.array([[1.0, 2.0], [0.0, -0.0], [1e-170, -1e-170], [-3.0, 1.0]])
    C = column_cosines(SimpleNamespace(col_markers=B))
    assert np.isnan(C[1:3]).all() and np.isnan(C[:, 1:3]).all()
    assert C[0, 3] == C[3, 0] and np.isclose(C[0, 3], -1.0 / np.sqrt(50.0))
    assert C[0, 0] == C[3, 3] == 1.0


def test_gh_full_rank_cosines_equal_pearson():
    t, x, _ = case_matrix(1)
    m = gh(x, svd(x).rank)
    C = column_cosines(m)
    P = pearson(t)
    assert np.max(np.abs(C - P)) <= 1e-9


def test_column_lengths():
    t, x, _ = case_matrix(1)
    n = x.shape[0]
    full = gh(x, svd(x).rank)
    # z-scored data: every column has sample sd 1, so length sqrt(n-1)
    assert np.allclose(np.linalg.norm(full.col_markers, axis=1), np.sqrt(n - 1), atol=1e-9)
    mj = jk(x, 2)
    assert np.all(np.linalg.norm(mj.col_markers, axis=1) <= 1.0 + 1e-12)


def test_gh_lengths_recover_sds_on_centered_data():
    t = load_case(2)
    x, _ = preprocess(t, "center")
    m = gh(x, svd(x).rank)
    sds = t.values.std(axis=0, ddof=1)
    lengths = np.linalg.norm(m.col_markers, axis=1)
    assert np.allclose(lengths / np.sqrt(x.shape[0] - 1), sds, atol=1e-9)


def test_row_distances_duplicate_row():
    x = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 5.0], [0.0, 7.0]])
    x = x - x.mean(axis=0)
    m = jk(x, 2)
    d = row_distances(m)
    assert np.isclose(d[0, 1], 0.0, atol=1e-12)
    assert np.allclose(d, d.T)
    assert np.allclose(np.diag(d), 0.0)


def test_row_distances_equal_the_broadcast_distances():
    A = np.random.default_rng(5).normal(size=(200, 3)) * [3.0, 1.0, 0.2]
    m = jk(A - A.mean(axis=0), 3)
    B = m.row_markers
    broadcast = np.sum((B[:, None, :] - B[None, :, :]) ** 2, axis=2)
    largest = np.max(np.sum(B * B, axis=1))
    assert np.max(np.abs(row_distances(m) ** 2 - broadcast)) <= 1e-12 * largest


def test_jk_full_rank_distances_equal_raw_distances():
    t, x, _ = case_matrix(3)
    m = jk(x, svd(x).rank)
    d = row_distances(m)
    raw = np.sqrt(np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2))
    assert np.max(np.abs(d - raw)) <= 1e-9


def test_triangle_inequality():
    t, x, _ = case_matrix(1)
    d = row_distances(jk(x, 2))
    n = d.shape[0]
    for i in range(n):
        for j in range(n):
            assert np.all(d[i, j] <= d[i, :] + d[:, j] + 1e-12)


def test_pca_scores_equal_jk_markers():
    t, x, _ = case_matrix(1)
    scores = pca_scores(x, 2)
    m = jk(x, 2)
    assert np.max(np.abs(scores - m.row_markers)) <= 1e-10


def test_pca_score_variance():
    rng = np.random.default_rng(37)
    x = rng.normal(size=(10, 2))
    x = x - x.mean(axis=0)
    scores = pca_scores(x, 2)
    s1 = svd(x).sigma[0]
    assert np.isclose(scores[:, 0].var(ddof=1), s1 ** 2 / (x.shape[0] - 1), atol=1e-10)


def test_pca_scores_requires_centered_input():
    with pytest.raises(InputError, match="centered"):
        pca_scores(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), 1)


def test_pca_scores_dims_above_the_rank_rejected():
    x = np.outer([1.0, -1.0, 0.0], [1.0, 2.0])  # centered, rank 1
    with pytest.raises(InputError, match=r"^dims must lie in \[1, rank=1\], got 2$"):
        pca_scores(x, 2)


def test_column_correlations_names_a_constant_column():
    x = np.array([[1.0, 0.0, 2.0], [-1.0, 0.0, -1.0], [0.0, 0.0, -1.0]])  # centered
    with pytest.raises(InputError, match="^column 'b' is constant; correlation undefined$"):
        column_correlations(x, ("a", "b", "c"))


def test_case1_size_axis_dominated_by_germany():
    t, x, _ = case_matrix(1)
    m = jk(x, 2)
    # component most aligned with MILL € among the retained two
    res = svd(x)
    mill = t.col_labels.index("MILL €")
    k = int(np.argmax(np.abs(res.V[mill, :2])))
    i = int(np.argmax(np.abs(m.row_markers[:, k])))
    assert t.row_labels[i] == "Germany"


def test_pearson_examples():
    t = load_case(1)
    x = np.column_stack([t.values[:, 0], t.values[:, 0]])
    tt = parse_table(
        ",a,b\n" + "\n".join(f"r{i},{v},{v}" for i, v in enumerate(t.values[:5, 0])),
        "dup")
    assert np.isclose(pearson(tt)[0, 1], 1.0, atol=1e-12)
    P = pearson(t)
    hr, doc = t.col_labels.index("%HR"), t.col_labels.index("DOC")
    cavg, ncit = t.col_labels.index("CAVG"), t.col_labels.index("NCIT")
    assert abs(P[hr, doc] - 0.198) <= 0.02
    assert abs(P[cavg, ncit] - 0.928) <= 0.01


@pytest.mark.parametrize("value", [5.0, 0.1])
def test_pearson_constant_column_rejected(value):
    x = np.random.default_rng(0).normal(size=(80, 2))
    x[:, 0] = value
    tt = DataTable("const", tuple(f"r{i}" for i in range(80)), ("a", "b"), x)
    with pytest.raises(InputError, match="^column 'a' is constant; correlation undefined$"):
        pearson(tt)


def test_projection_rule_reads_reconstruction():
    """Projecting a row marker onto a column direction and scaling by the
    column length reproduces the approximated matrix entry."""
    t, x, _ = case_matrix(2)
    for gamma in (0.0, 0.5, 1.0):
        m = fit_biplot(x, gamma, 2)
        recon = reconstruct(m)
        B = m.col_markers
        lengths = np.linalg.norm(B, axis=1)
        units = B / lengths[:, None]
        inner = (m.row_markers @ units.T) * lengths
        assert np.max(np.abs(inner - recon)) <= 1e-10


def test_rescaling_input_preserves_shape_diagnostics():
    t, x, _ = case_matrix(1)
    m1 = jk(x, 2)
    m2 = jk(3.5 * x, 2)
    q1, q2 = quality(m1, x), quality(m2, 3.5 * x)
    assert np.allclose(q1.qr_rows, q2.qr_rows, atol=1e-10)
    assert np.allclose(q1.qr_cols, q2.qr_cols, atol=1e-10)
    assert np.isclose(q1.qr_overall, q2.qr_overall, atol=1e-12)
    assert np.allclose(column_cosines(m1), column_cosines(m2), atol=1e-10)
    d1, d2 = row_distances(m1), row_distances(m2)
    iu = np.triu_indices_from(d1, 1)
    assert np.array_equal(np.argsort(d1[iu]), np.argsort(d2[iu]))


_RESULTS = {
    "svd": lambda m, x: svd(x),
    "jk": lambda m, x: m,
    "quality": lambda m, x: quality(m, x),
    "classical_mds": lambda m, x: classical_mds(row_distances(m)),
    "correspondence_analysis": lambda m, x: correspondence_analysis(load_case(1)),
    "analyze": lambda m, x: analyze(load_case(1))[2],
}


@pytest.mark.parametrize("result", list(_RESULTS.values()), ids=list(_RESULTS))
def test_every_array_of_a_result_is_read_only(result):
    _, x, _ = case_matrix(1)
    res = result(jk(x), x)
    arrays = [getattr(res, f.name) for f in dataclasses.fields(res)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert arrays
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0
