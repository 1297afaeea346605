import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from biplot import linalg
from biplot.baselines import classical_mds, correspondence_analysis
from biplot.data import load_case, preprocess
from biplot.engine import jk, pca_scores
from biplot.errors import InputError


def pairwise(coords):
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt(np.sum(diff ** 2, axis=2))


def test_mds_three_collinear_points():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    emb = classical_mds(d, 1)
    got = pairwise(emb.coords)
    assert np.max(np.abs(got - d)) <= 1e-9
    assert not emb.truncated


def test_mds_equilateral_triangle():
    d = np.ones((3, 3)) - np.eye(3)
    emb = classical_mds(d, 2)
    got = pairwise(emb.coords)
    assert np.max(np.abs(got - d)) <= 1e-9


def test_mds_coords_are_centered():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(8, 3))
    emb = classical_mds(pairwise(pts), 2)
    assert np.max(np.abs(emb.coords.mean(axis=0))) <= 1e-12 * np.max(np.abs(emb.coords))


def test_mds_procrustes_recovery():
    """Embedding distances of centered configurations recovers the
    configuration up to an orthogonal transform."""
    rng = np.random.default_rng(99)
    for _ in range(20):
        pts = rng.normal(size=(6, 3))
        pts -= pts.mean(axis=0)
        emb = classical_mds(pairwise(pts), 3)
        # orthogonal Procrustes via SVD of the cross-covariance
        u, _, vt = np.linalg.svd(emb.coords.T @ pts)
        rot = u @ vt
        residual = np.linalg.norm(emb.coords @ rot - pts, "fro")
        assert residual <= 1e-8


def test_mds_full_rank_reproduces_euclidean_distances():
    rng = np.random.default_rng(41)
    pts = rng.normal(size=(7, 4))
    d = pairwise(pts)
    emb = classical_mds(d, 7)
    assert emb.truncated  # at most n-1 positive eigenvalues
    assert np.max(np.abs(pairwise(emb.coords) - d)) <= 1e-8


def test_mds_eigenvalues_nonincreasing_and_strain():
    rng = np.random.default_rng(43)
    pts = rng.normal(size=(9, 5))
    emb = classical_mds(pairwise(pts), 2)
    assert np.all(np.diff(emb.eigenvalues) <= 1e-12)
    assert 0.0 <= emb.strain < 1.0


def test_mds_input_validation():
    with pytest.raises(InputError, match="symmetric"):
        classical_mds(np.array([[0.0, 1.0], [2.0, 0.0]]), 1)
    with pytest.raises(InputError, match="diagonal"):
        classical_mds(np.array([[1.0, 1.0], [1.0, 0.0]]), 1)
    with pytest.raises(InputError, match="nonnegative"):
        classical_mds(np.array([[0.0, -1.0], [-1.0, 0.0]]), 1)
    with pytest.raises(InputError, match=r"^distance matrix must be square, got \(3, 2\)$"):
        classical_mds(np.zeros((3, 2)), 1)
    with pytest.raises(InputError, match="^dims must be positive, got 0$"):
        classical_mds(np.array([[0.0, 1.0], [1.0, 0.0]]), 0)


def test_mds_range_rule_at_every_scale():
    tri = np.array([[0.0, 1.0, 1.5], [1.0, 0.0, 2.0], [1.5, 2.0, 0.0]])
    unit = classical_mds(tri).coords
    for scale in (1e150, 1e-7, 1e-100, 1e-150):  # the embedding scales with the distances
        assert np.allclose(classical_mds(tri * scale).coords, unit * scale, rtol=1e-12, atol=0)
    for scale, says in ((1e200, r"2e\+200"), (1e-160, "2e-160")):
        with pytest.raises(InputError, match=rf"^the largest distance, {says} at row 1, column 2,"
                                             r" is neither 0 nor in \[2.98e-154, 2.23e\+153\]"):
            classical_mds(tri * scale)
    with pytest.raises(InputError, match="no positive eigenvalues"):  # every point in one place
        classical_mds(np.zeros((3, 3)))


def test_ca_independence_table_has_zero_inertia():
    r = np.array([0.5, 0.3, 0.2])
    c = np.array([0.4, 0.35, 0.25])
    table = 200.0 * np.outer(r, c)
    ca = correspondence_analysis(table, 1)
    assert ca.total_inertia <= 1e-12


def test_ca_perfect_association_2x2():
    ca = correspondence_analysis(np.array([[10.0, 0.0], [0.0, 10.0]]), 1)
    assert np.isclose(ca.total_inertia, 1.0, atol=1e-12)
    assert np.isclose(ca.inertias[0], 1.0, atol=1e-12)


def test_ca_total_inertia_equals_chisquare_over_total():
    t = load_case(1)
    ca = correspondence_analysis(t, 2)
    X = t.values
    total = X.sum()
    P = X / total
    r, c = P.sum(axis=1), P.sum(axis=0)
    E = np.outer(r, c)
    chi2_over_n = np.sum((P - E) ** 2 / E)
    assert abs(ca.total_inertia - chi2_over_n) <= 1e-9
    assert np.all(np.diff(ca.inertias) <= 1e-12)
    assert np.isclose(ca.row_masses.sum(), 1.0) and np.isclose(ca.col_masses.sum(), 1.0)


def test_ca_transition_formulas():
    """Row coordinates are the profile-weighted barycenters of column
    coordinates scaled by 1/sigma_k, and symmetrically."""
    t = load_case(1)
    ca = correspondence_analysis(t, 2)
    X = t.values
    P = X / X.sum()
    r, c = P.sum(axis=1), P.sum(axis=0)
    sigma = np.sqrt(ca.inertias)
    row_profiles = P / r[:, None]
    col_profiles = (P / c[None, :]).T
    rows_from_cols = (row_profiles @ ca.col_coords) / sigma
    cols_from_rows = (col_profiles @ ca.row_coords) / sigma
    assert np.max(np.abs(rows_from_cols - ca.row_coords)) <= 1e-9
    assert np.max(np.abs(cols_from_rows - ca.col_coords)) <= 1e-9


def test_ca_residuals_formed_by_row_blocks_keep_the_bits_of_the_whole_matrix():
    # Two full blocks of residuals and a partial last one.
    p = 5
    X = np.abs(np.random.default_rng(4).normal(size=(2 * (linalg.BLOCK_CELLS // p) + 1, p))) + 1.0
    ca = correspondence_analysis(X, 2)
    P = X / float(X.sum())
    r, c = P.sum(axis=1), P.sum(axis=0)
    rc = np.outer(r, c)
    S = (P - rc) / np.sqrt(rc)
    sigma, V, _ = linalg.right_svd(S, 2)
    row_coords = (S @ V) / np.sqrt(r)[:, None]
    col_coords = (V * sigma[:2]) / np.sqrt(c)[:, None]
    expected = {"row_coords": row_coords, "col_coords": col_coords, "inertias": (sigma ** 2)[:2],
                "total_inertia": float(np.sum(sigma ** 2)), "row_masses": r, "col_masses": c}
    assert [f.name for f in dataclasses.fields(ca)] == list(expected)
    for name, value in expected.items():
        assert np.array_equal(getattr(ca, name), value), name


def test_ca_holds_the_correspondence_matrix_and_blocks_beside_the_table():
    """numpy reports its buffers to tracemalloc: beyond the table, CA holds
    P, with the residuals formed in it a block of linalg.BLOCK_CELLS cells at
    a time, and the copy numpy's QR takes of it, under 2.5x the table's bytes."""
    X = np.abs(np.random.default_rng(0).normal(size=(2000, 500))) + 1.0
    correspondence_analysis(X, 2)  # warm-up: first calls allocate caches of their own
    tracemalloc.start()
    try:
        correspondence_analysis(X, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * X.nbytes


def test_ca_rejects_negative_and_zero_margins():
    with pytest.raises(InputError, match="nonnegative"):
        correspondence_analysis(np.array([[1.0, -1.0], [1.0, 1.0]]), 1)
    with pytest.raises(InputError, match="all-zero"):
        correspondence_analysis(np.array([[1.0, 0.0], [1.0, 0.0]]), 1)
    # The total is 0 or could overflow: the largest entry is named.
    with pytest.raises(InputError, match="nonnegative.*0.0 at row '0', column '0' is the largest"):
        correspondence_analysis(np.zeros((3, 3)), 2)
    big = [[1e308, 1e307, 1e307], [1e307, 1e308, 1e307], [1e307, 1e307, 1e308],
           [1e308, 1e308, 1e307]]
    with pytest.raises(InputError, match="1e\\+308 at row '0', column '0' is the largest"):
        correspondence_analysis(np.array(big), 2)
    # A mass so small that its product with another underflows: the least is named.
    with pytest.raises(InputError, match="all-zero.*row '1' has mass 4e-300"):
        correspondence_analysis(np.array([[1e300, 1, 1], [1, 1, 2], [1, 2, 1], [2, 1, 1]]), 2)
    with pytest.raises(InputError, match="all-zero.*column '0' has mass 4.29e-321"):
        correspondence_analysis(np.array([[1e-320, 1, 2], [2e-320, 3, 1], [3e-320, 2, 5]]), 2)


@pytest.mark.parametrize("dims, says", [(0, "dims must be positive, got 0"),
                                        (3, "dims must lie in [1, min(5, 3) - 1 = 2], got 3")],
                         ids=["0", "3"])
def test_ca_dims_must_lie_below_the_smaller_side(dims, says):
    # A 5x3 table has min(5, 3) - 1 = 2 axes of inertia.
    X = np.arange(1.0, 16.0).reshape(5, 3)
    with pytest.raises(InputError, match=f"^{re.escape(says)}$"):
        correspondence_analysis(X, dims)


_TRIANGLE = np.array([[0.0, 1.0, 1.5], [1.0, 0.0, 2.0], [1.5, 2.0, 0.0]])
_CENTERED = np.array([[1.0, -2.0], [-3.0, 1.0], [2.0, 1.0]])


@pytest.mark.parametrize("dims", [2.0, np.float64(2.0), "2"], ids=["float", "float64", "str"])
@pytest.mark.parametrize("refuse, factors", [
    (lambda dims: correspondence_analysis(np.arange(1.0, 16.0).reshape(5, 3), dims), True),
    (lambda dims: classical_mds(_TRIANGLE, dims), True),
    (lambda dims: pca_scores(_CENTERED, dims), False),
    (lambda dims: linalg.low_rank_approx(linalg.svd(_CENTERED), dims), False),
    (lambda dims: linalg.right_svd(_CENTERED, dims), False),
], ids=["ca", "mds", "pca_scores", "low_rank_approx", "right_svd"])
def test_a_dims_that_is_no_integer_is_refused_with_a_message(monkeypatch, refuse, factors, dims):
    """Each entry point takes ``catalog.judge_dims``'s integer rule, and CA and classical MDS
    apply it before they factor."""
    calls = []
    if factors:  # any factorization is recorded, and fails
        monkeypatch.setattr(linalg, "right_svd", lambda values, dims: calls.append(values))
        monkeypatch.setattr(np.linalg, "eigh", calls.append)
    with pytest.raises(InputError, match=f"^{re.escape(f'dims must be an integer, got {dims}')}$"):
        refuse(dims)
    assert calls == []


def test_pca_map_scores_uncorrelated():
    t = load_case(1)
    scores = pca_scores(preprocess(t, "zscore")[0], 2)
    corr = np.corrcoef(scores, rowvar=False)
    assert abs(corr[0, 1]) <= 1e-9


def test_pca_map_equals_jk_row_markers():
    t = load_case(1)
    x, _ = preprocess(t, "zscore")
    m = jk(x, 2)
    assert np.max(np.abs(pca_scores(x, 2) - m.row_markers)) <= 1e-10


def test_case1_spain_italy_mutual_nearest_neighbors():
    t = load_case(1)
    scores = pca_scores(preprocess(t, "zscore")[0], 2)
    subset = ["Spain", "Italy", "Bulgaria", "Finland"]
    idx = [t.row_labels.index(s) for s in subset]
    pts = scores[idx]
    d = pairwise(pts)
    np.fill_diagonal(d, np.inf)
    assert subset[int(np.argmin(d[0]))] == "Italy"
    assert subset[int(np.argmin(d[1]))] == "Spain"


def test_case1_mds_nordic_cluster():
    t = load_case(1)
    z, _ = preprocess(t, "zscore")
    emb = classical_mds(pairwise(z), 2)
    idx = {l: i for i, l in enumerate(t.row_labels)}
    nordics = ["Denmark", "Sweden", "Finland", "Norway"]
    coords = emb.coords
    d = pairwise(coords)
    intra = max(d[idx[a], idx[b]] for a in nordics for b in nordics if a != b)
    to_bulgaria = min(d[idx[a], idx["Bulgaria"]] for a in nordics)
    assert intra < to_bulgaria
