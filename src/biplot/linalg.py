"""Dense-matrix primitives: SVD with a deterministic sign convention,
truncation and best rank-s approximation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError

RANK_TOL_FACTOR = 1e-12


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float array with finite entries."""
    m = np.asarray(values, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InputError(f"{name} must be a non-empty 2-D array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        bad = np.argwhere(~np.isfinite(m))[0]
        raise InputError(f"{name} contains a non-finite entry at row {bad[0]}, column {bad[1]}")
    return m


@dataclass(frozen=True)
class SvdResult:
    """Sign-normalized singular value decomposition.

    U is n x r column-orthonormal, sigma holds r nonincreasing nonnegative
    singular values, V is p x r column-orthonormal, and rank counts the
    singular values above ``sigma[0] * max(n, p) * 1e-12``.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    rank: int

    def __post_init__(self):
        self.U.flags.writeable = False
        self.sigma.flags.writeable = False
        self.V.flags.writeable = False


def svd(values) -> SvdResult:
    """Full SVD of a dense real matrix, sign-normalized.

    Raises InputError on non-finite input and NumericalError if the
    underlying solver fails to converge.
    """
    m = as_matrix(values)
    try:
        U, s, Vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    tol = s[0] * max(m.shape) * RANK_TOL_FACTOR if s.size else 0.0
    rank = int(np.count_nonzero(s > tol))
    return sign_normalize(SvdResult(U, s, Vt.T, rank))


def axis_signs(m: np.ndarray) -> np.ndarray:
    """Per column of ``m``: -1.0 where its largest-|entry| (first index on
    ties) is negative, else 1.0."""
    pivots = np.argmax(np.abs(m), axis=0)
    return np.where(m[pivots, np.arange(m.shape[1])] < 0, -1.0, 1.0)


def sign_normalize(res: SvdResult) -> SvdResult:
    """Resolve the SVD sign ambiguity deterministically.

    For each component k the entry of V[:, k] with the largest absolute
    value is made nonnegative (ties broken by the smallest row index);
    the matching column of U flips in tandem, so the reconstruction is
    unchanged. U and V come back as new C-contiguous arrays.
    """
    signs = axis_signs(res.V)
    return SvdResult(np.multiply(res.U, signs, order="C"), res.sigma,
                     np.multiply(res.V, signs, order="C"), res.rank)


def low_rank_approx(res: SvdResult, dims: int) -> np.ndarray:
    """Best rank-``dims`` approximation (truncated SVD reconstruction)."""
    r = res.sigma.shape[0]
    if not 1 <= dims <= r:
        raise InputError(f"dims must be in [1, {r}], got {dims}")
    return (res.U[:, :dims] * res.sigma[:dims]) @ res.V[:, :dims].T


def reconstruction(res: SvdResult) -> np.ndarray:
    """Full reconstruction U diag(sigma) V'."""
    return low_rank_approx(res, res.sigma.size)
