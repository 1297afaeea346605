"""Dense-matrix primitives: SVD with a deterministic sign convention,
the U-free factorization the analyses use, truncation, best rank-s
approximation and the triangular factor of a tall matrix over row blocks.
Loading this module sets numpy's bundled OpenBLAS to one thread for the process."""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .catalog import judge_dims
from .errors import InputError, NumericalError

RANK_TOL_FACTOR = 1e-12
# Cells in a row block of every pass over rows (512 KB of float64): r_factor's,
# quality's and correspondence_analysis's copies stay small beside a tall matrix.
BLOCK_CELLS = 1 << 16


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float array with finite entries."""
    m = np.asarray(values, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InputError(f"{name} must be a non-empty 2-D array, got shape {m.shape}")
    # min and max are NaN or infinite iff some entry is, with no n x p mask
    if not (np.isfinite(m.min()) and np.isfinite(m.max())):
        bad = np.argwhere(~np.isfinite(m))[0]
        raise InputError(f"{name} contains a non-finite entry at row {bad[0]}, column {bad[1]}")
    return m


def frozen_result(cls):
    """``cls`` as a frozen dataclass whose ndarray fields are read-only once it is built."""
    def __post_init__(self):
        for f in fields(self):
            if isinstance(a := getattr(self, f.name), np.ndarray):
                a.flags.writeable = False
    cls.__post_init__ = __post_init__
    return dataclass(frozen=True)(cls)


@frozen_result
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


def svd(values) -> SvdResult:
    """Full SVD of a dense real matrix, signed by ``axis_signs``: each column
    of V has its largest-|entry| (first index on ties) made nonnegative and
    U's matching column flips with it, so U diag(sigma) V' is unchanged.

    Raises InputError on non-finite input and NumericalError if the
    underlying solver fails to converge.
    """
    m = as_matrix(values)
    try:
        U, s, Vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    signs = axis_signs(Vt.T)
    return SvdResult(np.multiply(U, signs, order="C"), s,
                     np.multiply(Vt.T, signs, order="C"), _rank(s, m.shape))


def right_svd(values) -> tuple[np.ndarray, np.ndarray, int]:
    """``(sigma, V, rank)`` of a dense real matrix X without forming X's U:
    ``svd`` of the triangular factor R of X = QR (from ``r_factor``), which
    has X's singular values and right singular vectors (Chan's R-SVD), with
    the rank taken at X's shape. Raises as ``svd`` does."""
    m = as_matrix(values)
    res = svd(r_factor(m))
    return res.sigma, res.V, _rank(res.sigma, m.shape)


def r_factor(m: np.ndarray) -> np.ndarray:
    """The triangular factor R of ``m = QR``, up to the signs of its rows,
    taken over row blocks of at least 8p rows: each step factors the last R
    stacked on the next block (the sequential tall-skinny QR of Demmel,
    Grigori, Hoemmen and Langou 2012), so only a block is ever copied and
    the stacked rows add at most 1/8 to the work. A matrix of one block
    gets exactly ``np.linalg.qr(m, mode="r")``."""
    rows = max(8 * m.shape[1], BLOCK_CELLS // m.shape[1])
    r = np.linalg.qr(m[:rows], mode="r")
    for i in range(rows, m.shape[0], rows):
        r = np.linalg.qr(np.concatenate((r, m[i:i + rows])), mode="r")
    return r


def _rank(s: np.ndarray, shape: tuple[int, int]) -> int:
    """The number of singular values above ``s[0] * max(shape) * 1e-12``."""
    tol = s[0] * max(shape) * RANK_TOL_FACTOR if s.size else 0.0
    return int(np.count_nonzero(s > tol))


def axis_signs(m: np.ndarray) -> np.ndarray:
    """Per column of ``m``: -1.0 where its largest-|entry| (first index on
    ties) is negative, else 1.0."""
    pivots = np.argmax(np.abs(m), axis=0)
    return np.where(m[pivots, np.arange(m.shape[1])] < 0, -1.0, 1.0)


def low_rank_approx(res: SvdResult, dims: int) -> np.ndarray:
    """Best rank-``dims`` approximation (truncated SVD reconstruction)."""
    judge_dims(dims, res.sigma.size)
    return (res.U[:, :dims] * res.sigma[:dims]) @ res.V[:, :dims].T


def reconstruction(res: SvdResult) -> np.ndarray:
    """Full reconstruction U diag(sigma) V'."""
    return low_rank_approx(res, res.sigma.size)


def _openblas_threads():
    """The thread-count getter and setter of the OpenBLAS bundled with
    numpy (``numpy.libs/libscipy_openblas64_*.so``), or None without one."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    try:
        lib = ctypes.CDLL(str(libs / next(name for name in os.listdir(libs)
                                         if name.startswith("libscipy_openblas64_"))))
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (StopIteration, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


# One thread for the whole process, set once as the numeric modules load: every public
# function then gives the same bits at any OPENBLAS_NUM_THREADS. A caller who raises the
# count afterwards gives that up. Without numpy's bundled OpenBLAS this does nothing.
if (_threads := _openblas_threads()) is not None:
    _threads[1](1)
