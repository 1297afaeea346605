"""Gamma-parameterized biplot factorization (JK/GH/SQRT), quality of
representation and the geometric diagnostics used to read a biplot."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .data import DataTable, refuse_unusable_column
from .errors import InputError, NumericalError


@dataclass(frozen=True)
class BiplotModel:
    """Row and column markers of a rank-``dims`` biplot.

    ``row_markers = U_s diag(sigma_s)^gamma`` and
    ``col_markers = V_s diag(sigma_s)^(1-gamma)`` for the sign-normalized
    SVD of the preprocessed matrix X; the fit computes ``U_s diag(sigma_s)``
    as ``X V_s``, and for ``gamma < 1`` takes ``U_s`` from a QR of it.
    """

    gamma: float
    dims: int
    row_markers: np.ndarray     # n x s
    col_markers: np.ndarray     # p x s
    sigma_retained: np.ndarray  # s
    sigma_all: np.ndarray       # r
    rank: int
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    def __post_init__(self):
        for a in (self.row_markers, self.col_markers, self.sigma_retained, self.sigma_all):
            a.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return (self.row_markers.shape[0], self.col_markers.shape[0])

    def axis_variance_shares(self) -> np.ndarray:
        """Fraction of total squared singular values carried by each
        retained axis."""
        total = float(np.sum(self.sigma_all ** 2))
        return self.sigma_retained ** 2 / total


@dataclass(frozen=True)
class QualityReport:
    """Per-row / per-column quality of representation and overall fit.

    ``noise_rows`` and ``noise_cols`` label the rows and columns whose
    squared norm is within rounding of zero (at most 1e-9 of the whole
    matrix's), so that their quality is rounding noise.
    """

    qr_rows: np.ndarray
    qr_cols: np.ndarray
    qr_overall: float
    residual_frobenius: float
    noise_rows: tuple[str, ...]
    noise_cols: tuple[str, ...]

    def __post_init__(self):
        self.qr_rows.flags.writeable = False
        self.qr_cols.flags.writeable = False


def fit_biplot(x, gamma: float, dims: int = 2,
               row_labels: tuple[str, ...] | None = None,
               col_labels: tuple[str, ...] | None = None) -> BiplotModel:
    """Factorize an already-preprocessed matrix into biplot markers.

    The engine never re-centers; pass the output of ``data.preprocess``.
    """
    m = linalg.as_matrix(x)
    if not 0.0 <= gamma <= 1.0:
        raise InputError(f"gamma must lie in [0, 1], got {gamma}")
    sigma, V, rank = linalg.right_svd(m)
    if not 1 <= dims <= rank:
        raise InputError(f"dims must lie in [1, rank={rank}], got {dims}")
    # sigma > 0 on the retained axes, as dims <= rank
    s = sigma[:dims]
    A = m @ V[:, :dims]  # U_s diag(sigma_s), the JK rows
    if gamma < 1.0:
        Q, R = np.linalg.qr(A)  # U_s orthonormal to rounding, unlike A / s
        A = Q * np.where(np.diag(R) < 0, -1.0, 1.0) * s ** gamma
    B = np.multiply(V[:, :dims], s ** (1.0 - gamma), order="C")
    n, p = m.shape
    row_labels = tuple(row_labels) if row_labels is not None else tuple(f"r{i}" for i in range(n))
    col_labels = tuple(col_labels) if col_labels is not None else tuple(f"c{j}" for j in range(p))
    if len(row_labels) != n or len(col_labels) != p:
        raise InputError(f"label counts ({len(row_labels)}, {len(col_labels)}) do not match "
                         f"matrix shape {m.shape}")
    return BiplotModel(gamma=float(gamma), dims=int(dims),
                       row_markers=A, col_markers=B,
                       sigma_retained=s.copy(), sigma_all=sigma, rank=rank,
                       row_labels=row_labels, col_labels=col_labels)


def jk(x, dims: int = 2, **kw) -> BiplotModel:
    """Row metric preserving biplot: A = U diag(sigma), B = V."""
    return fit_biplot(x, gamma=1.0, dims=dims, **kw)


def gh(x, dims: int = 2, **kw) -> BiplotModel:
    """Column metric preserving biplot: A = U, B = V diag(sigma)."""
    return fit_biplot(x, gamma=0.0, dims=dims, **kw)


def sqrt_biplot(x, dims: int = 2, **kw) -> BiplotModel:
    """Symmetric biplot: both marker sets carry sqrt(sigma)."""
    return fit_biplot(x, gamma=0.5, dims=dims, **kw)


GAMMA_BY_TYPE = {"jk": 1.0, "gh": 0.0, "sqrt": 0.5}


def quality(model: BiplotModel, x) -> QualityReport:
    """Squared-cosine quality of representation against the fitted matrix.

    ``qr_rows[i]`` is the fraction of row i's squared norm captured by the
    retained axes, and symmetrically for columns; ``qr_overall`` is the
    variance-explained ratio of the retained singular values and
    ``residual_frobenius`` the norm of the discarded ones. ``x`` must be
    the fitted matrix: a ratio above 1 beyond rounding raises NumericalError.
    Rows and columns whose squared norm is within that rounding keep their
    ratio and are labelled in ``noise_rows`` and ``noise_cols``.
    """
    m = linalg.as_matrix(x)
    if m.shape != model.shape:
        raise InputError(f"matrix shape {m.shape} does not match model shape {model.shape}")
    s = model.sigma_retained
    # sigma_k * u_ik recovered from the markers regardless of gamma
    row_coord = model.row_markers * s ** (1.0 - model.gamma)
    col_coord = model.col_markers * s ** model.gamma
    row_sq, col_sq = np.einsum("ij,ij->i", m, m), np.einsum("ij,ij->j", m, m)
    row_cap, col_cap = np.sum(row_coord ** 2, axis=1), np.sum(col_coord ** 2, axis=1)
    # Rounding lets a captured norm pass its norm by a fraction of the whole
    # matrix's (a row of norm 1e-17 may read 100); only that much is clipped.
    tol = 1e-9 * float(np.sum(row_sq))
    noise = []
    for kind, cap, sq, labels in (("row", row_cap, row_sq, model.row_labels),
                                  ("column", col_cap, col_sq, model.col_labels)):
        over = np.flatnonzero(cap - sq > tol)
        if over.size:
            raise NumericalError(f"{kind} {labels[over[0]]!r} has quality above 1: "
                                 "x is not the matrix the model was fitted to")
        noise.append(tuple(labels[i] for i in np.flatnonzero(sq <= tol)))
    with np.errstate(invalid="ignore", divide="ignore"):
        qr_rows = np.minimum(np.where(row_sq > 0, row_cap / row_sq, 1.0), 1.0)
        qr_cols = np.minimum(np.where(col_sq > 0, col_cap / col_sq, 1.0), 1.0)
    total = float(np.sum(model.sigma_all ** 2))
    qr_overall = float(np.sum(s ** 2) / total) if total > 0 else 1.0
    # Eckart-Young: ||X - A B'||_F is the norm of the discarded singular values
    residual = float(np.sqrt(np.sum(model.sigma_all[model.dims:] ** 2)))
    return QualityReport(qr_rows=qr_rows, qr_cols=qr_cols,
                         qr_overall=qr_overall, residual_frobenius=residual,
                         noise_rows=noise[0], noise_cols=noise[1])


def reconstruct(model: BiplotModel) -> np.ndarray:
    """A B' — the rank-``dims`` approximation of the fitted matrix."""
    return model.row_markers @ model.col_markers.T


def column_cosines(model: BiplotModel) -> np.ndarray:
    """Cosines between column markers; NaN marks pairs involving a
    zero-length marker (undefined rather than an error)."""
    B = model.col_markers
    norms = np.linalg.norm(B, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        C = (B @ B.T) / np.outer(norms, norms)
    C = np.clip(C, -1.0, 1.0)
    C[norms == 0, :] = np.nan
    C[:, norms == 0] = np.nan
    np.fill_diagonal(C, np.where(norms > 0, 1.0, np.nan))
    return C


def row_distances(model: BiplotModel) -> np.ndarray:
    """Euclidean distances between row markers, from their Gram matrix:
    ``|a_i|^2 + |a_j|^2 - 2 a_i.a_j``, clipped at 0 against rounding, with a
    zero diagonal; n x n, without an n x n x s difference tensor."""
    A = model.row_markers
    sq = np.sum(A * A, axis=1)
    d = A @ A.T
    d *= -2.0
    d += sq[:, None]
    d += sq
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)
    return np.sqrt(d, out=d)


def pca_scores(x, dims: int = 2) -> np.ndarray:
    """Principal-component scores X V_s of a centered matrix.

    Identical to the JK row markers of the same matrix.
    """
    m = linalg.as_matrix(x)
    col_means = np.abs(m.mean(axis=0))
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.any(col_means > 1e-8 * scale):
        j = int(np.argmax(col_means))
        raise InputError(f"pca_scores requires centered input; column {j} has mean "
                         f"{m.mean(axis=0)[j]:.3g}")
    res = linalg.svd(m)
    if not 1 <= dims <= res.rank:
        raise InputError(f"dims must lie in [1, rank={res.rank}], got {dims}")
    return m @ res.V[:, :dims]


def column_correlations(x: np.ndarray, col_labels: tuple[str, ...]) -> np.ndarray:
    """Pearson correlation matrix of the columns of ``x``, whose columns are
    centered and may each be scaled by a positive factor: the normalized
    Gram matrix ``x'x``. A column of zeros (a constant one before
    centering) raises InputError naming it."""
    C = x.T @ x
    d = np.sqrt(np.diag(C))
    if np.any(d == 0):
        j = int(np.argmin(d))
        raise InputError(f"column {col_labels[j]!r} is constant; correlation undefined")
    C /= np.outer(d, d)
    np.clip(C, -1.0, 1.0, out=C)
    np.fill_diagonal(C, 1.0)
    return C


def pearson(t: DataTable) -> np.ndarray:
    """Sample Pearson correlation matrix of a table's columns."""
    refuse_unusable_column(t, "correlation")
    C = np.corrcoef(t.values, rowvar=False)
    C = np.clip(C, -1.0, 1.0)
    np.fill_diagonal(C, 1.0)
    return C
