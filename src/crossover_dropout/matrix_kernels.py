"""Small dense symmetric-matrix primitives.

Everything downstream (dropout coefficients, information matrices, the
optimality system) is built from a handful of kernels on small dense
matrices: centering projectors, zero-padded centering blocks, Kronecker
products, a contrast basis, a batched symmetric pseudo-inverse and batched
Schur complements, by Cholesky and by pseudo-inverse.  Matrices stay dense;
orders are at most a few hundred in practice.
"""

from __future__ import annotations

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


def kron(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(np.asarray(g1, dtype=float), np.asarray(g2, dtype=float))


def symmetrize(g: np.ndarray) -> np.ndarray:
    """Return (G + G') / 2, forcing exact entrywise symmetry."""
    g = np.asarray(g, dtype=float)
    return (g + g.T) / 2.0


def contrast_basis(k: int) -> np.ndarray:
    """Orthonormal k x (k - 1) Helmert basis: H' H = I, H H' = centering(k)."""
    rows = np.arange(k)[:, None]
    j = np.arange(1, k)[None, :]
    return np.where(rows < j, 1.0, np.where(rows == j, -j, 0.0)) / np.sqrt(j * (j + 1.0))


def pinv_sym_batch(g: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Symmetric pseudo-inverses of stacked (..., k, k) matrices through ``eigh``.

    Eigenvalues with ``|lam| <= tol * max|lam|`` count as zero; 0 maps to 0.
    """
    g = np.asarray(g, dtype=float)
    gs = (g + np.swapaxes(g, -1, -2)) / 2.0
    w, v = np.linalg.eigh(gs)
    scale = np.max(np.abs(w), axis=-1, keepdims=True)
    keep = np.abs(w) > tol * np.where(scale == 0.0, 1.0, scale)
    inv = np.where(keep, 1.0 / np.where(w == 0.0, 1.0, w), 0.0)
    out = np.einsum("...ik,...k,...jk->...ij", v, inv, v)
    return (out + np.swapaxes(out, -1, -2)) / 2.0


def pinv_schur_complement(g: np.ndarray, lead: int) -> np.ndarray:
    """Schur complements A - B G^+ B' of stacked symmetric g through ``pinv_sym_batch`` of G."""
    g_inv = pinv_sym_batch(g[:, :lead, :lead])
    s = g[:, lead:, lead:] - g[:, lead:, :lead] @ g_inv @ g[:, :lead, lead:]
    return (s + np.swapaxes(s, 1, 2)) / 2.0


def schur_complement(g: np.ndarray, lead: int) -> np.ndarray:
    """Schur complements A - B G^+ B' of the leading lead x lead block G of stacked symmetric g.

    G is eliminated by Cholesky, one column at a time for the whole batch,
    on the lower triangle.  A row with a pivot (squared Cholesky diagonal)
    at or below ``DEFAULT_RANK_TOL`` times its largest diagonal of G, as
    when G is singular or indefinite, is recomputed alone through
    ``pinv_schur_complement``.
    """
    w = np.moveaxis(g, 0, -1).copy()  # (m, m, batch)
    scale = np.einsum("iib->ib", w[:lead, :lead]).max(axis=0)
    fallback = np.zeros(g.shape[0], dtype=bool)
    for j in range(lead):
        low = w[j, j] <= DEFAULT_RANK_TOL * scale
        fallback |= low
        col = w[j + 1 :, j] / np.where(low, np.inf, w[j, j])
        for i in range(j + 1, len(w)):
            w[i, j + 1 : i + 1] -= w[i, j] * col[: i - j]
    s = np.moveaxis(w[lead:, lead:], -1, 0)
    s = np.tril(s) + np.swapaxes(np.tril(s, -1), 1, 2)
    if fallback.any():
        s[fallback] = pinv_schur_complement(g[fallback], lead)
    return s
