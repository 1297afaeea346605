import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biplot import linalg
from biplot.data import DataTable, preprocess
from biplot.errors import InputError, NumericalError
from biplot.linalg import axis_signs, low_rank_approx, reconstruction, right_svd, svd


def test_identity_singular_values():
    res = svd(np.eye(2))
    assert np.allclose(res.sigma, [1.0, 1.0])
    assert np.allclose(reconstruction(res), np.eye(2), atol=1e-12)


def test_diagonal_with_negative_entry():
    res = svd([[3.0, 0.0], [0.0, -2.0]])
    assert np.allclose(res.sigma, [3.0, 2.0])
    assert np.allclose(reconstruction(res), [[3, 0], [0, -2]], atol=1e-12)


def test_rank_one_symmetric():
    res = svd([[1.0, 1.0], [1.0, 1.0]])
    assert np.allclose(res.sigma, [2.0, 0.0], atol=1e-12)
    assert res.rank == 1


def test_nonfinite_rejected():
    with pytest.raises(InputError):
        svd([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(InputError):
        svd([[np.inf, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("column, sign", [([-0.8, 0.6], -1.0), ([0.6, 0.8], 1.0),
                                          ([0.5, -0.5], 1.0)],
                         ids=["negative_pivot", "canonical_column", "tie_uses_first_index"])
def test_axis_signs(column, sign):
    assert axis_signs(np.array([column]).T).tolist() == [sign]


def _per_column_sign_rule(U, V):
    """The sign rule one column at a time: the reference for ``svd``."""
    U, V = U.copy(), V.copy()
    for k in range(V.shape[1]):
        pivot = int(np.argmax(np.abs(V[:, k])))
        if V[pivot, k] < 0:
            V[:, k] = -V[:, k]
            U[:, k] = -U[:, k]
    return U, V


_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5]),
                     st.floats(-1e3, 1e3))


@st.composite
def _sign_matrices(draw):
    """Small matrices, often with exact ties in |V| (few distinct entries),
    -0.0 entries and, with a copied column, rank deficiency."""
    n, p = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    x = np.array(draw(st.lists(_ENTRIES, min_size=n * p, max_size=n * p))).reshape(n, p)
    if p > 1 and draw(st.booleans()):
        x[:, -1] = x[:, 0]
    return x


@settings(max_examples=300, deadline=None)
@given(_sign_matrices())
@example(np.ones((2, 2)))
@example(np.array([[1.0, -1.0], [-1.0, 1.0]]))
@example(np.array([[-0.0, 1.0], [0.0, -0.0], [-1.0, -0.0]]))
@example(np.zeros((3, 2)))
def test_svd_sign_rule_matches_per_column_loop(x):
    U, s, Vt = np.linalg.svd(x, full_matrices=False)
    U_ref, V_ref = _per_column_sign_rule(U, Vt.T)
    res = svd(x)
    assert res.U.tobytes() == U_ref.tobytes()
    assert res.V.tobytes() == V_ref.tobytes()
    assert res.sigma.tobytes() == s.tobytes()
    assert res.U.flags.c_contiguous and res.V.flags.c_contiguous


def test_low_rank_exact_when_dims_equals_rank():
    x = np.array([[1.0, 2.0], [2.0, 4.0]])
    res = svd(x)
    approx = low_rank_approx(res, 1)
    assert np.linalg.norm(x - approx) < 1e-12


def test_low_rank_diagonal():
    res = svd(np.diag([3.0, 1.0]))
    approx = low_rank_approx(res, 1)
    assert np.allclose(approx, [[3.0, 0.0], [0.0, 0.0]], atol=1e-12)
    assert np.isclose(np.linalg.norm(np.diag([3.0, 1.0]) - approx), 1.0)


def test_low_rank_residual_matches_tail_singular_values():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 4))
    res = svd(x)
    approx = low_rank_approx(res, 2)
    residual = np.linalg.norm(x - approx, "fro")
    expected = np.sqrt(np.sum(res.sigma[2:] ** 2))
    assert abs(residual - expected) < 1e-9


def test_low_rank_dims_out_of_range():
    res = svd(np.eye(3))
    with pytest.raises(InputError):
        low_rank_approx(res, 4)
    with pytest.raises(InputError):
        low_rank_approx(res, 0)


def test_svd_property_suite():
    """Reconstruction, orthonormality, determinism and scale equivariance
    over random matrices of varied shapes."""
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        p = int(rng.integers(2, 9))
        x = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-2, 3)
        res = svd(x)
        r = min(n, p)
        recon = reconstruction(res)
        assert np.linalg.norm(x - recon) / np.linalg.norm(x) <= 1e-10
        assert np.max(np.abs(res.U.T @ res.U - np.eye(r))) <= 1e-10
        assert np.max(np.abs(res.V.T @ res.V - np.eye(r))) <= 1e-10
        assert np.all(np.diff(res.sigma) <= 1e-15)
        assert np.all(res.sigma >= 0)
        # determinism: bitwise-identical repeat
        res2 = svd(x)
        assert np.array_equal(res.U, res2.U)
        assert np.array_equal(res.sigma, res2.sigma)
        assert np.array_equal(res.V, res2.V)
        # scale equivariance of the spectrum
        c = float(rng.uniform(0.5, 20.0))
        assert np.allclose(svd(c * x).sigma, c * res.sigma, rtol=1e-12, atol=0)


def test_eckart_young_dominance():
    """Truncated SVD beats random rank-2 competitors in Frobenius norm."""
    rng = np.random.default_rng(123)
    for _ in range(200):
        x = rng.normal(size=(6, 4))
        res = svd(x)
        best = np.linalg.norm(x - low_rank_approx(res, 2), "fro")
        for _ in range(50):
            comp = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 4))
            assert best <= np.linalg.norm(x - comp, "fro") + 1e-12


@pytest.mark.parametrize("shape", [(40, 6), (6, 6), (5, 9), (1, 4), (4, 1)])
def test_right_svd_is_svd_without_u(shape):
    """Tall, square and wide shapes, each with a repeated column where it
    has more than two: sigma, the retained V and the rank of ``svd``."""
    x = np.random.default_rng(3).normal(size=shape)
    if shape[1] > 2:
        x[:, -1] = x[:, 0]
    sigma, V, rank = right_svd(x, shape[1])
    ref = svd(x)
    assert rank == ref.rank and V.shape == ref.V.shape and V.flags.c_contiguous
    assert np.max(np.abs(sigma - ref.sigma)) <= 1e-12 * ref.sigma[0]
    assert np.max(np.abs(V[:, :rank] - ref.V[:, :rank])) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(p=st.integers(1, 70), crossed=st.integers(0, 3), frac=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_zscore_at_any_layout_and_row_block_r_factor_equal_numpy(p, crossed, frac, seed):
    """Tables in one row block of ``r_factor`` and tables across 1, 2 and 3
    block boundaries: the z-score and its sds are ``x.std``'s bits whether the
    values come row-major, column-major or strided, a one-block R is
    ``np.linalg.qr``'s, and a blocked R gives ``svd``'s sigma and signed V."""
    rows = linalg.BLOCK_CELLS // p  # of r_factor, as 8p rows are fewer
    n = max(3, crossed * rows + 1 + int(frac * (rows - 1)))
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, p)) * 1.05 ** -np.arange(p) + rng.uniform(-3.0, 3.0, p)
    if p >= 2:
        sds = m.std(axis=0, ddof=1)
        gaps = np.zeros((2 * n, p), order="F")  # every other row of a column-major buffer
        gaps[::2] = m
        for values in (m, np.asfortranarray(m), gaps[::2]):
            t = DataTable("t", tuple(map(str, range(n))), tuple(map(str, range(p))), values)
            z, record = preprocess(t, "zscore")
            assert np.array_equal(z, (m - m.mean(axis=0)) / sds)
            assert record.sds == tuple(sds.tolist())
    if n <= rows:
        assert np.array_equal(linalg.r_factor(m), np.linalg.qr(m, mode="r"))
    else:
        sigma, V, rank = right_svd(m, p)
        ref = svd(m)
        assert rank == ref.rank == p
        assert np.max(np.abs(sigma - ref.sigma)) <= 1e-12 * ref.sigma[0]
        assert np.max(np.abs(V - ref.V)) <= 1e-10


@settings(max_examples=80, deadline=None)
@given(p=st.integers(1, 9), kind=st.sampled_from(["wide", "square", "tall"]),
       blocks=st.integers(1, 3), cells=st.sampled_from([1, 96, 400]), frac=st.floats(0.0, 1.0),
       deficient=st.booleans(), dims=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1))
@example(p=5, kind="tall", blocks=3, cells=1, frac=0.5, deficient=True, dims=2, seed=1)
@example(p=7, kind="wide", blocks=1, cells=1, frac=0.9, deficient=True, dims=3, seed=2)
@example(p=6, kind="square", blocks=1, cells=1, frac=0.0, deficient=False, dims=6, seed=3)
def test_right_svd_keeps_the_first_dims_axes_of_the_whole_matrix(p, kind, blocks, cells, frac,
                                                                  deficient, dims, seed):
    """Wide, square and tall tables, tall ones across 1, 2 and 3 row blocks of ``r_factor``
    (under a small ``BLOCK_CELLS``), rank-deficient ones included: ``right_svd(x, dims)`` has
    the sigma and rank of ``svd``, the whole matrix's oracle, orthonormal columns, and its first
    ``dims`` columns of V, signs and all, wherever the kept axes are apart from each other and
    from the next."""
    rows = max(8 * p, cells // p)  # r_factor's block under BLOCK_CELLS = cells
    n = {"wide": max(1, int(frac * (p - 1))), "square": p,  # wide is square at p = 1
         "tall": p + 1 + (blocks - 1) * rows + int(frac * (rows - p - 1))}[kind]
    rng = np.random.default_rng(seed)
    k = rng.integers(0, min(n, p)) if deficient else min(n, p)  # the rank, 0 to full
    x = rng.normal(size=(n, k)) @ rng.normal(size=(k, p)) if deficient else (
        rng.normal(size=(n, p)) * 1.05 ** -np.arange(p))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "BLOCK_CELLS", cells)
        sigma, V, rank = right_svd(x, dims)
    ref = svd(x)
    s = min(dims, n, p)
    assert rank == ref.rank and V.shape == (p, s)
    assert np.max(np.abs(sigma - ref.sigma)) <= 1e-12 * ref.sigma[0]
    assert np.max(np.abs(V.T @ V - np.eye(s))) <= 1e-12
    kept = np.append(ref.sigma, 0.0)[:s + 1]  # sigma_1 .. sigma_s, then sigma_s+1 or 0
    if ref.sigma[0] > 0 and np.min(-np.diff(kept)) > 1e-6 * ref.sigma[0]:
        assert np.max(np.abs(V - ref.V[:, :s])) <= 1e-8


def test_right_svd_is_svd_of_r_with_the_rank_at_the_shape_of_x():
    """The second singular value, 1e-10 of the first, is above the rank
    tolerance at R's 2 x 2 shape and below it at X's 1000 x 2."""
    x = np.linalg.qr(np.random.default_rng(4).normal(size=(1000, 2)))[0] * [1.0, 1e-10]
    sigma, V, rank = right_svd(x, 2)
    res = svd(linalg.r_factor(x))
    assert np.array_equal(sigma, res.sigma) and np.array_equal(V, res.V)
    assert res.rank == 2 and rank == svd(x).rank == 1


def test_right_svd_failure_is_a_numerical_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(NumericalError, match="SVD did not converge"):
        right_svd(np.eye(3), 3)
    with pytest.raises(InputError):
        right_svd([[1.0, np.nan], [0.0, 1.0]], 2)


def test_no_bundled_openblas_gives_no_thread_functions(monkeypatch):
    """Without a ``libscipy_openblas64_*`` file beside numpy the lookup gives None, and the
    SVD runs as it is."""
    monkeypatch.setattr(linalg.os, "listdir", lambda path: ["libgfortran.so"])
    assert linalg._openblas_threads() is None
    assert linalg.svd(np.eye(2)).rank == 2


def _child(code: str, threads: str) -> str:
    """The stdout of ``python -c code`` started with ``OPENBLAS_NUM_THREADS=threads``."""
    src = str(Path(linalg.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_loading_linalg_sets_openblas_to_one_thread():
    """A process started with two OpenBLAS threads runs on one once ``biplot.linalg`` loads."""
    if linalg._openblas_threads() is None:
        pytest.skip("numpy has no bundled OpenBLAS here")
    code = "from biplot import linalg\nprint(linalg._openblas_threads()[0]())"
    assert _child(code, "2").strip() == "1"


# Prints, as JSON, the sha256 of every array each public numeric entry point gives on a
# seeded, centered 600 x 300 table (CA on |x| + 1, classical MDS on its first 200 rows).
_HASHES = """import hashlib, json
import numpy as np
from biplot import baselines, engine, linalg
x = np.random.default_rng(1).normal(size=(600, 300))
x -= x.mean(axis=0)
y = x[:200, :20]
outputs = {name: (m.row_markers, m.col_markers, m.sigma_all) for name, m in
           [("jk", engine.jk(x)), ("gh", engine.gh(x)), ("sqrt_biplot", engine.sqrt_biplot(x))]}
res, ca = linalg.svd(x), baselines.correspondence_analysis(np.abs(x) + 1.0, 2)
mds = baselines.classical_mds(np.sqrt(np.sum((y[:, None] - y[None]) ** 2, axis=2)), 2)
outputs.update(svd=(res.U, res.sigma, res.V), right_svd=linalg.right_svd(x, 300)[:2],
               pca_scores=(engine.pca_scores(x),),
               column_correlations=(engine.column_correlations(x, tuple(range(300))),),
               correspondence_analysis=(ca.row_coords, ca.col_coords, ca.inertias),
               classical_mds=(mds.coords, mds.eigenvalues))
print(json.dumps({name: hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
                  for name, arrays in outputs.items()}))
"""


def test_every_numeric_entry_point_gives_the_same_bits_at_one_and_two_blas_threads():
    one, two = (json.loads(_child(_HASHES, threads)) for threads in ("1", "2"))
    assert len(one) == 9
    assert [name for name in one if one[name] != two[name]] == []
