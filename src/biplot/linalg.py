"""Dense-matrix primitives: SVD with a deterministic sign convention,
the U-free factorization the analyses use, truncation, best rank-s
approximation, the passes over a tall matrix in row blocks and the pin
of OpenBLAS to one thread."""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, NumericalError

RANK_TOL_FACTOR = 1e-12
# Cells in a row block of the blocked passes (512 KB of float64): a block's
# temporaries stay small beside a tall matrix, which is never copied whole.
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
    """``(sigma, V, rank)`` of a dense real matrix X, as ``svd`` gives them,
    without forming U: the SVD of the triangular factor R of X = QR (from
    ``r_factor``), which has X's singular values and right singular vectors
    (Chan's R-SVD).

    Raises InputError on non-finite input and NumericalError if the
    underlying solver fails to converge.
    """
    m = as_matrix(values)
    try:
        _, s, Vt = np.linalg.svd(r_factor(m), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    return s, np.multiply(Vt.T, axis_signs(Vt.T), order="C"), _rank(s, m.shape)


def row_blocks(m: np.ndarray, min_rows: int = 1):
    """``m``'s rows in order as views of ``BLOCK_CELLS`` cells, or of
    ``min_rows`` rows if that is more; the last block may be shorter."""
    rows = max(min_rows, BLOCK_CELLS // m.shape[1])
    return (m[i:i + rows] for i in range(0, m.shape[0], rows))


def column_sumsq(m: np.ndarray) -> np.ndarray:
    """``np.sum(m * m, axis=0)`` to the bit, one row block at a time: numpy
    adds the rows of a row-major matrix one after another, and so does this,
    each block's squares after the running sums. numpy sums a column-major
    matrix (or a single column) pairwise down each column, which blocks
    cannot follow, so that one is squared whole."""
    if abs(m.strides[0]) <= abs(m.strides[1]):
        return np.sum(m * m, axis=0)
    # One buffer serves every block: a new one per block is 4x slower (page faults).
    sums, buf = np.zeros(m.shape[1]), None
    for b in row_blocks(m):
        if buf is None:
            buf = np.empty((len(b) + 1, m.shape[1]))
        k = len(b) + 1
        buf[0] = sums
        np.multiply(b, b, out=buf[1:k])
        sums = np.add.reduce(buf[:k], axis=0)
    return sums


def r_factor(m: np.ndarray) -> np.ndarray:
    """The triangular factor R of ``m = QR``, up to the signs of its rows,
    taken over row blocks of at least 8p rows: each step factors the last R
    stacked on the next block (the sequential tall-skinny QR of Demmel,
    Grigori, Hoemmen and Langou 2012), so only a block is ever copied and
    the stacked rows add at most 1/8 to the work. A matrix of one block
    gets exactly ``np.linalg.qr(m, mode="r")``."""
    blocks = row_blocks(m, 8 * m.shape[1])
    r = np.linalg.qr(next(blocks), mode="r")
    for b in blocks:
        r = np.linalg.qr(np.concatenate((r, b)), mode="r")
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
    r = res.sigma.shape[0]
    if not 1 <= dims <= r:
        raise InputError(f"dims must be in [1, {r}], got {dims}")
    return (res.U[:, :dims] * res.sigma[:dims]) @ res.V[:, :dims].T


def reconstruction(res: SvdResult) -> np.ndarray:
    """Full reconstruction U diag(sigma) V'."""
    return low_rank_approx(res, res.sigma.size)


@functools.cache
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


_pin_lock = threading.Lock()
_pins = [0, 1]  # open pins, and the thread count the last one restores


@contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread, so that its results are
    the same bits at any ``OPENBLAS_NUM_THREADS``, then give back the
    caller's thread count. The pin is process-wide: blocks may nest and
    overlap across Python threads, and the count comes back when the last
    one ends. Without numpy's bundled OpenBLAS this does nothing."""
    fns = _openblas_threads()
    if fns is None:
        yield
        return
    get, set_ = fns
    with _pin_lock:
        if _pins[0] == 0:
            _pins[1] = get()
            set_(1)
        _pins[0] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pins[0] -= 1
            if _pins[0] == 0:
                set_(_pins[1])
