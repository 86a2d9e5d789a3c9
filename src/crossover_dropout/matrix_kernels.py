"""Small dense symmetric-matrix primitives.

Everything downstream (dropout coefficients, information matrices, the
optimality system) is built from a handful of kernels on small dense
matrices: centering projectors, zero-padded centering blocks, a contrast
basis, a batched symmetric pseudo-inverse and batched Schur complements, by
pseudo-inverse and by Cholesky.  The Cholesky one works on packed lower
triangles, one matrix per column of a (k(k+1)/2, batch) array, so a batch
is eliminated with contiguous row operations and no transpose.  Matrices
stay dense; orders are at most a few hundred in practice.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import ValidationError

# Relative eigenvalue cutoff below which a symmetric matrix is treated as
# rank deficient.
DEFAULT_RANK_TOL = 1e-10


def centering(k: int) -> np.ndarray:
    """Return the k x k centering projector I - J/k.

    Idempotent, symmetric, annihilates constant vectors; eigenvalues are 0
    (once) and 1 (k - 1 times).
    """
    if k < 1:
        raise ValidationError(f"centering order must be >= 1, got {k}")
    return np.eye(k) - np.full((k, k), 1.0 / k)


def padded_centering(k: int, p: int) -> np.ndarray:
    """Return the p x p matrix whose top-left k x k block is centering(k).

    All other entries are zero.  Requires 1 <= k <= p.
    """
    if not 1 <= k <= p:
        raise ValidationError(f"padded block needs 1 <= k <= p, got k={k}, p={p}")
    out = np.zeros((p, p))
    out[:k, :k] = centering(k)
    return out


def symmetrize(g: np.ndarray) -> np.ndarray:
    """Return (G + G') / 2 of one or stacked matrices, forcing exact entrywise symmetry."""
    g = np.asarray(g, dtype=float)
    return (g + np.swapaxes(g, -1, -2)) / 2.0


def contrast_basis(k: int) -> np.ndarray:
    """Orthonormal k x (k - 1) Helmert basis: H' H = I, H H' = centering(k)."""
    rows = np.arange(k)[:, None]
    j = np.arange(1, k)[None, :]
    return np.where(rows < j, 1.0, np.where(rows == j, -j, 0.0)) / np.sqrt(j * (j + 1.0))


def pinv_sym_batch(g: np.ndarray) -> np.ndarray:
    """Symmetric pseudo-inverses of stacked (..., k, k) matrices through ``eigh``.

    Eigenvalues with ``|lam| <= DEFAULT_RANK_TOL * max|lam|`` count as zero;
    0 maps to 0.
    """
    w, v = np.linalg.eigh(symmetrize(g))
    scale = np.max(np.abs(w), axis=-1, keepdims=True)
    keep = np.abs(w) > DEFAULT_RANK_TOL * np.where(scale == 0.0, 1.0, scale)
    inv = np.where(keep, 1.0 / np.where(w == 0.0, 1.0, w), 0.0)
    return symmetrize(np.einsum("...ik,...k,...jk->...ij", v, inv, v))


def pinv_schur_complement(g: np.ndarray, lead: int) -> np.ndarray:
    """Schur complements A - B G^+ B' of stacked symmetric g through ``pinv_sym_batch`` of G."""
    g_inv = pinv_sym_batch(g[:, :lead, :lead])
    return symmetrize(g[:, lead:, lead:] - g[:, lead:, :lead] @ g_inv @ g[:, :lead, lead:])


@lru_cache(maxsize=None)
def packed_layout(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-major lower packing of k x k symmetric matrices: ``(rows, cols, position)``.

    Entry e of a packed vector holds ``(rows[e], cols[e])`` with rows >= cols,
    column after column; ``position[i, j]`` is the entry of (i, j) and (j, i).
    The columns from any j on are the vector's tail, which is the packed
    trailing (k - j) x (k - j) block.
    """
    cols, rows = np.triu_indices(k)
    position = np.empty((k, k), dtype=np.intp)
    position[rows, cols] = position[cols, rows] = np.arange(len(rows))
    for a in (rows, cols, position):
        a.flags.writeable = False  # shared by every caller through the cache
    return rows, cols, position


def _order(w: np.ndarray) -> int:
    """k of packed (k(k+1)/2, batch) columns."""
    return (isqrt(8 * len(w) + 1) - 1) // 2


def pack_sym(g: np.ndarray) -> np.ndarray:
    """Stacked (batch, k, k) symmetric matrices as (k(k+1)/2, batch) packed columns."""
    rows, cols, _ = packed_layout(g.shape[-1])
    return np.ascontiguousarray(g[:, rows, cols].T)


def unpack_sym(w: np.ndarray) -> np.ndarray:
    """Stacked (batch, k, k) symmetric matrices of (k(k+1)/2, batch) packed columns."""
    return np.moveaxis(w[packed_layout(_order(w))[2]], -1, 0)


def packed_diagonal(w: np.ndarray) -> np.ndarray:
    """(k, batch) diagonals of (k(k+1)/2, batch) packed columns."""
    rows, cols, _ = packed_layout(_order(w))
    return w[rows == cols]


def schur_complement(w: np.ndarray, lead: int) -> np.ndarray:
    """Schur complements A - B G^+ B' of the leading lead x lead block G of packed matrices.

    ``w`` holds one packed lower triangle per column, (k(k+1)/2, batch) as
    laid out by ``packed_layout``, and is left unchanged; the complements come
    back packed alike.  G is eliminated by Cholesky, one column at a time for
    the whole batch, the first step writing into a fresh array.  A matrix
    with a pivot (squared Cholesky diagonal) at or below ``DEFAULT_RANK_TOL``
    times its largest diagonal of G, as when G is singular or indefinite, is
    recomputed alone through ``pinv_schur_complement``.
    """
    k = _order(w)
    start = [j * k - j * (j - 1) // 2 for j in range(k + 1)]  # column j's offset
    scale = w[start[:lead]].max(axis=0)
    fallback = np.zeros(w.shape[1], dtype=bool)
    src, out = w, np.empty_like(w)
    for j in range(lead):
        c = start[j]
        low = src[c] <= DEFAULT_RANK_TOL * scale
        fallback |= low
        col = src[c + 1 : c + k - j] / np.where(low, np.inf, src[c])
        for i in range(j + 1, k):  # rows i..k-1 of column i
            below = src[c + i - j : c + k - j] * col[i - j - 1]
            np.subtract(src[start[i] : start[i + 1]], below, out=out[start[i] : start[i + 1]])
        src = out
    s = src[start[lead] :]
    if fallback.any():
        s[:, fallback] = pack_sym(pinv_schur_complement(unpack_sym(w[:, fallback]), lead))
    return s
