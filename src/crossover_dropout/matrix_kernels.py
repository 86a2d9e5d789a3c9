"""Small dense symmetric-matrix primitives.

Everything downstream (dropout coefficients, information matrices, the
optimality system) is built from a handful of kernels on small dense
matrices: centering projectors, zero-padded centering blocks, Kronecker
products, symmetric eigendecompositions and a symmetric pseudo-inverse.
Matrices stay dense; orders are at most a few hundred in practice.
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


def sym_eig(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending."""
    w, v = np.linalg.eigh(symmetrize(g))
    return w, v


def pinv_sym(g: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric matrix.

    Computed through the symmetric eigendecomposition so the result is
    itself exactly symmetric.  Eigenvalues with ``|lam| <= tol * max|lam|``
    are treated as zero; the zero matrix maps to the zero matrix.
    """
    w, v = sym_eig(g)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if scale == 0.0:
        return np.zeros_like(np.asarray(g, dtype=float))
    inv = np.zeros_like(w)
    keep = np.abs(w) > tol * scale
    inv[keep] = 1.0 / w[keep]
    return symmetrize((v * inv) @ v.T)


def pinv_sym_batch(g: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Stacked pinv_sym for an array of shape (..., k, k)."""
    g = np.asarray(g, dtype=float)
    gs = (g + np.swapaxes(g, -1, -2)) / 2.0
    w, v = np.linalg.eigh(gs)
    scale = np.max(np.abs(w), axis=-1, keepdims=True)
    keep = np.abs(w) > tol * np.where(scale == 0.0, 1.0, scale)
    inv = np.where(keep, 1.0 / np.where(w == 0.0, 1.0, w), 0.0)
    out = np.einsum("...ik,...k,...jk->...ij", v, inv, v)
    return (out + np.swapaxes(out, -1, -2)) / 2.0
