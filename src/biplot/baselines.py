"""Comparison methods: classical (Torgerson) MDS, correspondence
analysis with symmetric scaling, and a z-scored PCA map."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .data import DataTable, preprocess
from .engine import pca_scores
from .errors import InputError


@dataclass(frozen=True)
class MdsEmbedding:
    """Classical MDS solution: centered coordinates, the eigenvalues they
    came from, and the share of positive eigenvalue mass dropped."""

    coords: np.ndarray       # n x s
    eigenvalues: np.ndarray  # s, nonincreasing
    strain: float
    truncated: bool = False  # fewer positive eigenvalues than requested

    def __post_init__(self):
        self.coords.flags.writeable = False
        self.eigenvalues.flags.writeable = False


@dataclass(frozen=True)
class CaModel:
    """Correspondence analysis in symmetric (principal) coordinates."""

    row_coords: np.ndarray
    col_coords: np.ndarray
    inertias: np.ndarray
    total_inertia: float
    row_masses: np.ndarray
    col_masses: np.ndarray

    def __post_init__(self):
        for a in (self.row_coords, self.col_coords, self.inertias,
                  self.row_masses, self.col_masses):
            a.flags.writeable = False


def classical_mds(d, dims: int = 2) -> MdsEmbedding:
    """Torgerson scaling of a symmetric distance matrix.

    Double-centers -D^2/2, takes the top eigenpairs and scales the
    eigenvectors by the square roots of their (positive) eigenvalues. If
    fewer than ``dims`` positive eigenvalues exist the embedding has the
    achievable dimension and is flagged ``truncated``.
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
    if dims < 1:
        raise InputError(f"dims must be positive, got {dims}")
    # double centering -H D^2 H / 2 from row, column and grand means
    D2 = D ** 2
    B = -0.5 * (D2 - D2.mean(axis=1, keepdims=True) - D2.mean(axis=0, keepdims=True)
                + D2.mean())
    evals, evecs = np.linalg.eigh(B)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    tol = max(1.0, float(abs(evals[0]))) * n * 1e-12
    n_pos = int(np.count_nonzero(evals > tol))
    keep = min(dims, n_pos)
    if keep == 0:
        raise InputError("no positive eigenvalues; input is not embeddable")
    top = evals[:keep]
    coords = evecs[:, :keep] * np.sqrt(top)
    coords *= linalg.axis_signs(coords)
    pos_mass = float(np.sum(evals[evals > tol]))
    strain = float((pos_mass - np.sum(top)) / pos_mass) if pos_mass > 0 else 0.0
    return MdsEmbedding(coords=coords, eigenvalues=top.copy(), strain=strain,
                        truncated=keep < dims)


def correspondence_analysis(t, dims: int = 2) -> CaModel:
    """Correspondence analysis of a nonnegative table.

    Accepts a DataTable or a plain matrix. Works on the standardized
    residuals of the correspondence matrix; the sum of squared singular
    values equals the chi-square statistic divided by the grand total.
    """
    if isinstance(t, DataTable):
        X = t.values
        row_names, col_names = t.row_labels, t.col_labels
    else:
        X = linalg.as_matrix(t, "table")
        row_names = tuple(str(i) for i in range(X.shape[0]))
        col_names = tuple(str(j) for j in range(X.shape[1]))
    if np.any(X < 0):
        i, j = np.argwhere(X < 0)[0]
        raise InputError(f"correspondence analysis needs nonnegative entries; "
                         f"found {X[i, j]} at row {row_names[i]!r}, "
                         f"column {col_names[j]!r}")
    total = float(X.sum())
    if total <= 0:
        raise InputError("table sums to zero")
    P = X / total
    r = P.sum(axis=1)
    c = P.sum(axis=0)
    if np.any(r == 0) or np.any(c == 0):
        raise InputError("correspondence analysis needs no all-zero row or column")
    S = (P - np.outer(r, c)) / np.sqrt(np.outer(r, c))
    res = linalg.svd(S)
    max_axes = min(len(r), len(c)) - 1
    if not 1 <= dims <= max_axes:
        raise InputError(f"dims must lie in [1, {max_axes}] for a "
                         f"{len(r)}x{len(c)} table, got {dims}")
    s = res.sigma[:dims]
    row_coords = (res.U[:, :dims] * s) / np.sqrt(r)[:, None]
    col_coords = (res.V[:, :dims] * s) / np.sqrt(c)[:, None]
    inertias = res.sigma ** 2
    return CaModel(row_coords=row_coords, col_coords=col_coords,
                   inertias=inertias[:dims].copy(),
                   total_inertia=float(np.sum(inertias)),
                   row_masses=r.copy(), col_masses=c.copy())


def pca_map(t: DataTable, dims: int = 2) -> np.ndarray:
    """PCA scores of the z-scored table (the standard PCA panel)."""
    z, _ = preprocess(t, "zscore")
    return pca_scores(z, dims)
