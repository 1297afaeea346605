"""Comparison methods: classical (Torgerson) MDS and correspondence
analysis with symmetric scaling."""

from __future__ import annotations

import numpy as np

from . import linalg
from .catalog import judge_dims
from .data import DataTable
from .errors import InputError


@linalg.frozen_result
class MdsEmbedding:
    """Classical MDS solution: centered coordinates, the eigenvalues they
    came from, and the share of positive eigenvalue mass dropped."""

    coords: np.ndarray       # n x s
    eigenvalues: np.ndarray  # s, nonincreasing
    strain: float
    truncated: bool = False  # fewer positive eigenvalues than requested


@linalg.frozen_result
class CaModel:
    """Correspondence analysis in symmetric (principal) coordinates."""

    row_coords: np.ndarray
    col_coords: np.ndarray
    inertias: np.ndarray
    total_inertia: float
    row_masses: np.ndarray
    col_masses: np.ndarray


def classical_mds(d, dims: int = 2) -> MdsEmbedding:
    """Torgerson scaling of a symmetric distance matrix.

    Double-centers -D^2/2, takes the top eigenpairs and scales the
    eigenvectors by the square roots of their (positive) eigenvalues. If
    fewer than ``dims`` positive eigenvalues exist the embedding has the
    achievable dimension and is flagged ``truncated``. The largest distance
    must be 0 or lie in ``[2 sqrt(min normal float), sqrt(max float / (4 n^2))]``.
    """
    D = linalg.as_matrix(d, "distance matrix")
    n, m = D.shape
    if n != m:
        raise InputError(f"distance matrix must be square, got {D.shape}")
    if not np.allclose(D, D.T, atol=1e-10 * max(1.0, float(np.max(np.abs(D))))):
        raise InputError("distance matrix must be symmetric")
    if np.any(np.abs(np.diag(D)) > 1e-12):
        raise InputError("distance matrix must have a zero diagonal")
    if np.any(D < 0):
        raise InputError("distances must be nonnegative")
    judge_dims(dims)
    i, j = np.unravel_index(np.argmax(D), D.shape)
    lo, hi = 2 * np.sqrt(np.finfo(float).tiny), np.sqrt(np.finfo(float).max / (4 * D.size))
    if not (D[i, j] == 0 or lo <= D[i, j] <= hi):
        raise InputError(f"the largest distance, {D[i, j]:.3g} at row {i}, column {j}, is neither "
                         f"0 nor in [{lo:.3g}, {hi:.3g}], where squares stay normal, sums finite")
    # double centering -H D^2 H / 2 from row, column and grand means
    D2 = D ** 2
    B = -0.5 * (D2 - D2.mean(axis=1, keepdims=True) - D2.mean(axis=0, keepdims=True)
                + D2.mean())
    evals, evecs = np.linalg.eigh(B)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    tol = float(abs(evals[0])) * n * 1e-12  # relative: the rule holds at every scale
    n_pos = int(np.count_nonzero(evals > tol))
    keep = min(dims, n_pos)
    if keep == 0:
        raise InputError("no positive eigenvalues; input is not embeddable")
    top = evals[:keep]
    coords = evecs[:, :keep] * np.sqrt(top)
    coords *= linalg.axis_signs(coords)
    pos_mass = float(np.sum(evals[evals > tol]))
    strain = float((pos_mass - np.sum(top)) / pos_mass)
    return MdsEmbedding(coords=coords, eigenvalues=top.copy(), strain=strain,
                        truncated=keep < dims)


def ca_input(t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P, the correspondence matrix of ``t`` (a DataTable or plain matrix), and
    its masses r and c; InputError names the first negative entry, else the
    largest if the total is 0 or could overflow (above ``max float / (n p)``),
    else the least row or column mass if ``min(r) min(c) < min normal float``."""
    table = isinstance(t, DataTable)
    X = t.values if table else linalg.as_matrix(t, "table")
    rows, cols = (t.row_labels, t.col_labels) if table else map(range, X.shape)
    neg, top = np.argwhere(X < 0), np.finfo(float).max / X.size
    i, j = neg[0] if neg.size else np.unravel_index(np.argmax(X), X.shape)
    if neg.size or not 0 < X[i, j] <= top:
        raise InputError(f"correspondence analysis needs nonnegative entries, not all 0, of at "
                         f"most {top:.3g} for a finite total; {X[i, j]} at row {str(rows[i])!r}, "
                         f"column {str(cols[j])!r} is {'negative' if neg.size else 'the largest'}")
    P = X / float(X.sum())
    r, c = P.sum(axis=1), P.sum(axis=0)
    i, j = np.argmin(r), np.argmin(c)
    if r[i] * c[j] < np.finfo(float).tiny:
        kind, label, mass = ("row", rows[i], r[i]) if r[i] <= c[j] else ("column", cols[j], c[j])
        raise InputError(f"correspondence analysis needs no all-zero row or column, nor masses "
                         f"whose product underflows; {kind} {str(label)!r} has mass {mass:.3g}")
    return P, r, c


def correspondence_analysis(t, dims: int = 2) -> CaModel:
    """Correspondence analysis of a nonnegative table.

    Accepts a DataTable or a plain matrix. Works on the standardized
    residuals of the correspondence matrix; the sum of squared singular
    values equals the chi-square statistic divided by the grand total.
    """
    P, r, c = ca_input(t)
    judge_dims(dims, min(len(r), len(c)) - 1, f"min({len(r)}, {len(c)}) - 1 = ")  # axes of inertia
    S = P  # the standardized residuals (P - rc) / sqrt(rc), formed in P by blocks of rows
    rows = max(1, linalg.BLOCK_CELLS // len(c))
    for i in range(0, len(S), rows):
        block, rc = S[i:i + rows], np.outer(r[i:i + rows], c)
        block -= rc
        block /= np.sqrt(rc, out=rc)
    sigma, V, _ = linalg.right_svd(S, dims)
    row_coords = (S @ V) / np.sqrt(r)[:, None]  # U_s diag(sigma_s) = S V_s
    col_coords = (V * sigma[:dims]) / np.sqrt(c)[:, None]
    inertias = sigma ** 2
    return CaModel(row_coords=row_coords, col_coords=col_coords,
                   inertias=inertias[:dims].copy(),
                   total_inertia=float(np.sum(inertias)),
                   row_masses=r.copy(), col_masses=c.copy())

