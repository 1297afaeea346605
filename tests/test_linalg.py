import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biplot.errors import InputError
from biplot.linalg import (SvdResult, low_rank_approx, reconstruction,
                           sign_normalize, svd)


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


def test_sign_normalize_flips_negative_pivot():
    U = np.array([[1.0], [0.0]])
    V = np.array([[-0.8], [0.6]])
    out = sign_normalize(SvdResult(U, np.array([1.0]), V, 1))
    assert np.allclose(out.V[:, 0], [0.8, -0.6])
    assert np.allclose(out.U[:, 0], [-1.0, 0.0])


def test_sign_normalize_keeps_canonical_column():
    U = np.array([[1.0], [0.0]])
    V = np.array([[0.6], [0.8]])
    out = sign_normalize(SvdResult(U, np.array([1.0]), V, 1))
    assert np.allclose(out.V[:, 0], [0.6, 0.8])
    assert np.allclose(out.U[:, 0], [1.0, 0.0])


def test_sign_normalize_tie_uses_first_index():
    U = np.array([[1.0], [0.0]])
    V = np.array([[0.5], [-0.5]])
    out = sign_normalize(SvdResult(U, np.array([1.0]), V, 1))
    # index 0 already nonnegative, nothing flips
    assert np.allclose(out.V[:, 0], [0.5, -0.5])


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
