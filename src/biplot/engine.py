"""Gamma-parameterized biplot factorization (JK/GH/SQRT), quality of
representation and the geometric diagnostics used to read a biplot."""

from __future__ import annotations

import numpy as np

from . import linalg
from .catalog import GAMMA_BY_TYPE, judge_dims, method_name
from .data import DataTable, refuse_unusable_column
from .errors import InputError, NumericalError


@linalg.frozen_result
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

    @property
    def shape(self) -> tuple[int, int]:
        return (self.row_markers.shape[0], self.col_markers.shape[0])

    def axis_variance_shares(self) -> np.ndarray:
        """Fraction of total squared singular values carried by each
        retained axis."""
        total = float(np.sum(self.sigma_all ** 2))
        return self.sigma_retained ** 2 / total


@linalg.frozen_result
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


def fit_biplot(x, gamma: float, dims: int = 2,
               row_labels: tuple[str, ...] | None = None,
               col_labels: tuple[str, ...] | None = None) -> BiplotModel:
    """Factorize an already-preprocessed matrix into biplot markers.

    The engine never re-centers; pass the output of ``data.preprocess``.
    """
    method_name(gamma, dims)  # refuses a gamma outside [0, 1] and a dims not an integer >= 1
    m = linalg.as_matrix(x)  # a 2-D finite matrix, before its labels are counted
    n, p = m.shape
    row_labels = tuple(row_labels) if row_labels is not None else tuple(f"r{i}" for i in range(n))
    col_labels = tuple(col_labels) if col_labels is not None else tuple(f"c{j}" for j in range(p))
    if len(row_labels) != n or len(col_labels) != p:
        raise InputError(f"label counts ({len(row_labels)}, {len(col_labels)}) do not match "
                         f"matrix shape {m.shape}")
    sigma, V, rank = linalg.right_svd(m)
    judge_dims(dims, rank, "rank=")
    # sigma > 0 on the retained axes, as dims <= rank
    s = sigma[:dims]
    A = m @ V[:, :dims]  # U_s diag(sigma_s), the JK rows
    if gamma < 1.0:
        Q, R = np.linalg.qr(A)  # U_s orthonormal to rounding, unlike A / s
        A = Q * np.where(np.diag(R) < 0, -1.0, 1.0) * s ** gamma
    B = np.multiply(V[:, :dims], s ** (1.0 - gamma), order="C")
    return BiplotModel(gamma=float(gamma), dims=int(dims),
                       row_markers=A, col_markers=B,
                       sigma_retained=s.copy(), sigma_all=sigma, rank=rank,
                       row_labels=row_labels, col_labels=col_labels)


def jk(x, dims: int = 2, **kw) -> BiplotModel:
    """Row metric preserving biplot: A = U diag(sigma), B = V."""
    return fit_biplot(x, gamma=GAMMA_BY_TYPE["jk"], dims=dims, **kw)


def gh(x, dims: int = 2, **kw) -> BiplotModel:
    """Column metric preserving biplot: A = U, B = V diag(sigma)."""
    return fit_biplot(x, gamma=GAMMA_BY_TYPE["gh"], dims=dims, **kw)


def sqrt_biplot(x, dims: int = 2, **kw) -> BiplotModel:
    """Symmetric biplot: both marker sets carry sqrt(sigma)."""
    return fit_biplot(x, gamma=GAMMA_BY_TYPE["sqrt"], dims=dims, **kw)


def quality(model: BiplotModel, x) -> QualityReport:
    """Squared-cosine quality of representation against the fitted matrix.

    ``qr_rows[i]`` is the fraction of row i's squared norm captured by the
    retained axes, and symmetrically for columns; ``qr_overall`` is the
    variance-explained ratio of the retained singular values and
    ``residual_frobenius`` the norm of the discarded ones. ``x`` must be the fitted matrix:
    a ratio above 1 beyond rounding raises NumericalError, a non-finite entry or squares
    past the float range InputError. Rows and columns whose squared norm is within that
    rounding keep their ratio and are labelled in ``noise_rows`` and ``noise_cols``.
    """
    m = np.asarray(x, dtype=float)
    if m.shape != model.shape:
        raise InputError(f"matrix shape {m.shape} does not match model shape {model.shape}")
    row_sq, col_sq = np.einsum("ij,ij->i", m, m), np.einsum("ij,ij->j", m, m)
    # Rounding lets a captured norm pass its norm by a fraction of the whole
    # matrix's (a row of norm 1e-17 may read 100); only that much is clipped.
    with np.errstate(over="ignore"):  # a sum past the float range is refused here
        tol = 1e-9 * float(np.sum(row_sq))
        if not np.isfinite(tol):  # a non-finite entry makes it, or squares past the float range
            linalg.as_matrix(m)  # which raises, naming the entry
            i = int(np.argmin(np.isfinite(np.cumsum(row_sq))))  # where the sum overflows
            raise InputError(f"x is too large to square: overflow at row {model.row_labels[i]!r}")
    s, noise, qr = model.sigma_retained, [], []
    # Rows in blocks of linalg.BLOCK_CELLS cells of x, columns in one block
    for kind, markers, power, sq, labels, rows in (
            ("row", model.row_markers, 1.0 - model.gamma, row_sq, model.row_labels,
             max(1, linalg.BLOCK_CELLS // m.shape[1])),
            ("column", model.col_markers, model.gamma, col_sq, model.col_labels, len(col_sq))):
        qr.append(np.empty(len(sq)))
        noise.append([])
        for i in range(0, len(sq), rows):
            # sigma_k u_ik (v_jk) recovered from the markers regardless of gamma, squared in place
            cap, sq_i = markers[i:i + rows] * s ** power, sq[i:i + rows]
            cap = np.sum(np.square(cap, out=cap), axis=1, out=qr[-1][i:i + rows])
            if (over := np.flatnonzero(cap - sq_i > tol)).size:
                raise NumericalError(f"{kind} {labels[i + over[0]]!r} has quality above 1: "
                                     "x is not the matrix the model was fitted to")
            noise[-1] += (labels[i + k] for k in np.flatnonzero(sq_i <= tol))
            with np.errstate(invalid="ignore", divide="ignore"):
                np.divide(cap, sq_i, out=cap)  # the ratio, written straight into the output
            cap[sq_i <= 0] = 1.0
            np.minimum(cap, 1.0, out=cap)
    total = float(np.sum(model.sigma_all ** 2))
    qr_overall = float(np.sum(s ** 2) / total) if total > 0 else 1.0
    # Eckart-Young: ||X - A B'||_F is the norm of the discarded singular values
    residual = float(np.sqrt(np.sum(model.sigma_all[model.dims:] ** 2)))
    return QualityReport(qr_rows=qr[0], qr_cols=qr[1],
                         qr_overall=qr_overall, residual_frobenius=residual,
                         noise_rows=tuple(noise[0]), noise_cols=tuple(noise[1]))


def reconstruct(model: BiplotModel) -> np.ndarray:
    """A B' — the rank-``dims`` approximation of the fitted matrix."""
    return model.row_markers @ model.col_markers.T


def column_cosines(model: BiplotModel) -> np.ndarray:
    """Cosines between column markers; NaN marks pairs involving a
    zero-length marker (undefined rather than an error)."""
    B = model.col_markers
    norms = np.linalg.norm(B, axis=1)
    norms[norms == 0] = np.nan  # also where a marker's squares underflow but its products do not
    with np.errstate(invalid="ignore", divide="ignore"):
        C = (B @ B.T) / np.outer(norms, norms)
    C = np.clip(C, -1.0, 1.0)
    np.fill_diagonal(C, np.where(norms > 0, 1.0, np.nan))
    return C


def row_distances(model: BiplotModel) -> np.ndarray:
    """Euclidean distances between row markers (n x n), from their differences."""
    A = model.row_markers
    return np.sqrt(np.sum((A[:, None, :] - A[None, :, :]) ** 2, axis=2))


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
    judge_dims(dims, res.rank, "rank=")
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
