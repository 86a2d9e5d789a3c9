"""Information matrices for direct treatment effects, as the (t-1) x (t-1) S_H.

Realized matrices condition on a vector of stay lengths: the rows a subject
actually contributes are projected against the span of period and subject
effects, and the treatment/carryover components of that projection form a
2x2 block system whose Schur complement is the information matrix
S = H S_H H'.  Every criterion reads S_H alone, and S_H is what this module
returns.  The surrogate matrix takes the paper's kernel
V = I_n (x) A - J_n (x) B / n instead, without building V: with N_s
subjects on distinct sequence s, X_s = [F_s | T_s H] and
Xbar = sum_s N_s X_s, X'VX = sum_s N_s X_s' A X_s - Xbar' B Xbar / n.  V is
not the exact mean of the realized projection (the oracle
``expected_projection_kernel`` in ``tests/test_dropout_model.py`` differs;
acceptance entry 8a records the gap).

Everything is computed in orthonormal contrast bases H_k (k x (k-1)).  A
subject with sequence s who stays l periods enters only through P_l X_s, with
P_l = padded_centering(l, p) and X_s = [H_p | F_s H_t | T_s H_t]: P_l 1 = 0,
so P_l H_p spans the centered period columns, and T_s 1, F_s 1 lie in the
span of periods and subjects, so C11, C12 and C22 annihilate 1.  A
realization's Gram is its count matrix N[s, l] times a table built once per
design and set of stay lengths, which holds each X_s' P_l X_s as a packed
lower triangle; one matrix product lays a batch of Grams out as columns,
and one Schur complement of their period and carryover block, eliminated
on those columns, is S_H.  Exact and Monte Carlo evaluation share this
kernel.  The T criterion is the trace of S_H; A, D and E take its
eigenvalues.  The check blocks of the optimality system are built in
``design_search.build_system``, over a whole support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import matrix_kernels as mk
from .dropout_model import DropoutMechanism
from .errors import ValidationError
from .sequences import SequenceTuple, carryover_incidence, incidence, validate_sequence

# Eigenvalues at or below this relative threshold count as structural zeros.
EIG_ZERO_REL = 1e-9

CRITERIA = ("A", "D", "E", "T")


@dataclass(frozen=True)
class DesignMatrices:
    """Incidences of an n-subject design, held once per distinct sequence."""

    p: int
    t: int
    n: int
    sequences: tuple[SequenceTuple, ...]  # distinct, ascending
    sequence_T: np.ndarray  # (S, p, t) treatment incidence of each distinct sequence
    sequence_F: np.ndarray  # (S, p, t) carryover incidence of each distinct sequence
    subject_index: np.ndarray  # (n,) position of each subject's sequence, listing order

    @property
    def T(self) -> np.ndarray:  # (np, t), stacked in listing order
        return self.sequence_T[self.subject_index].reshape(-1, self.t)

    @property
    def F(self) -> np.ndarray:  # (np, t), stacked in listing order
        return self.sequence_F[self.subject_index].reshape(-1, self.t)


def design_matrices(sequences: Iterable[Sequence[int]], t: int) -> DesignMatrices:
    """Group an explicit subject-by-subject listing by distinct sequence."""
    seqs = tuple(validate_sequence(s, t) for s in sequences)
    if not seqs:
        raise ValidationError("design must contain at least one subject")
    p = len(seqs[0])
    if any(len(s) != p for s in seqs):
        raise ValidationError("all subject sequences must have equal length")
    pos = {s: k for k, s in enumerate(sorted(set(seqs)))}  # distinct sequences, ascending
    subject_index = np.array([pos[s] for s in seqs], dtype=np.int64)
    T = np.stack([incidence(s, t) for s in pos])
    F = np.stack([carryover_incidence(s, t) for s in pos])
    return DesignMatrices(p, t, len(seqs), tuple(pos), T, F, subject_index)


# -- realized information ----------------------------------------------------------


@dataclass(frozen=True)
class CountTables:
    """Column ``s * L + i`` of ``table``: X_s' P_l X_s at l = ``levels[i]``, packed.

    Each column is the packed lower triangle (``mk.packed_layout``) of an
    m x m Gram, m = p + 2t - 3, so ``table`` is (m(m+1)/2, S * L).
    """

    dm: DesignMatrices  # s indexes dm.sequences
    levels: np.ndarray  # (L,) tabulated stay lengths, ascending
    table: np.ndarray  # (m(m+1)/2, S * L)

    @property
    def lead(self) -> int:  # period and carryover columns of X_s
        return self.dm.p + self.dm.t - 2


def count_tables(dm: DesignMatrices, levels: np.ndarray) -> CountTables:
    """Packed contrast Gram of every distinct sequence at every stay length in ``levels``."""
    p, t = dm.p, dm.t
    h = mk.contrast_basis(t)
    periods = np.broadcast_to(mk.contrast_basis(p), (len(dm.sequences), p, p - 1))
    x = np.concatenate([periods, dm.sequence_F @ h, dm.sequence_T @ h], axis=2)
    P = np.stack([mk.padded_centering(int(l), p) for l in levels])
    gram = np.swapaxes(x, 1, 2)[:, None] @ (P[None] @ x[:, None])  # (S, L, m, m)
    table = mk.pack_sym(gram.reshape(-1, *gram.shape[2:]))
    return CountTables(dm, levels, table)


def stay_counts(tables: CountTables, bins: np.ndarray) -> np.ndarray:
    """(batch, S, L) count matrices of (batch, n) stay lengths, as positions in ``levels``."""
    batch, width = bins.shape[0], len(tables.levels)
    cells = len(tables.dm.sequences) * width
    flat = tables.dm.subject_index * width + bins + cells * np.arange(batch)[:, None]
    return np.bincount(flat.ravel(), minlength=batch * cells).reshape(batch, -1, width)


def count_grams(tables: CountTables, counts: np.ndarray) -> np.ndarray:
    """Packed contrast Grams (m(m+1)/2, batch) of stacked (batch, S, L) count matrices."""
    return tables.table @ counts.reshape(len(counts), -1).astype(float).T


def eigenvalues_batch(schur_h: np.ndarray) -> np.ndarray:
    """Rows of 0.0 (the structural zero), then the ascending eigenvalues of each S_H."""
    eigs = np.linalg.eigvalsh(schur_h)
    return np.concatenate([np.zeros((len(eigs), 1)), eigs], axis=1)


# -- surrogate information -------------------------------------------------------


def check_design_mechanism(dm: DesignMatrices, mech: DropoutMechanism) -> None:
    """Refuse a mechanism whose subjects or periods are not the design's."""
    if dm.p != mech.p or dm.n != mech.n:
        raise ValidationError(
            f"design ({dm.n} subjects x {dm.p} periods) does not match "
            f"mechanism (n={mech.n}, p={mech.p})"
        )


def _surrogate_gram(dm: DesignMatrices, mech: DropoutMechanism) -> np.ndarray:
    """The sandwich X'VX of [F | T H], one product per distinct sequence."""
    check_design_mechanism(dm, mech)
    h = mk.contrast_basis(dm.t)
    x = np.concatenate([dm.sequence_F, dm.sequence_T @ h], axis=2)  # (S, p, m)
    nx = np.bincount(dm.subject_index)[:, None, None] * x  # N_s X_s
    xbar = nx.sum(axis=0)
    g = (np.swapaxes(nx, 1, 2) @ mech.A @ x).sum(axis=0)
    return mk.symmetrize(g - xbar.T @ mech.B @ xbar / dm.n)


def surrogate_info(dm: DesignMatrices, mech: DropoutMechanism) -> np.ndarray:
    """S_H of the surrogate kernel V, from one sandwich per distinct sequence."""
    # V F 1 != 0 keeps the carryover block whole; it is indefinite, so no Cholesky
    return mk.pinv_schur_complement(_surrogate_gram(dm, mech)[None], dm.t)[0]


# -- criteria -------------------------------------------------------------------------


def criterion_values_from_eigs(eigs: np.ndarray, which: str, n: int) -> np.ndarray:
    """Criterion values for stacked eigenvalue rows, laid out as ``eigenvalues_batch``'s.

    The first entry is the structural zero and is excluded; the rest are
    ascending.  A design whose second entry is at (numerical) zero or below
    is disconnected: A, D and E report 0 there, T is unaffected.  A and D are
    scaled by lambda_max, which keeps them finite at large t and makes A, D,
    E and T equal bit for bit at t = 2.
    """
    which = which.upper()
    if which not in CRITERIA:
        raise ValidationError(f"criterion must be one of {CRITERIA}, got {which!r}")
    eigs = np.atleast_2d(np.asarray(eigs, dtype=float))
    t = eigs.shape[1]
    lam_max = eigs[:, -1]
    tail = eigs[:, 1:]  # lam_2 .. lam_t
    if which == "T":
        return tail.sum(axis=1) / (n * (t - 1))
    connected = eigs[:, 1] > EIG_ZERO_REL * np.maximum(1.0, lam_max)
    out = np.zeros(eigs.shape[0])
    if np.any(connected):
        sub = tail[connected]
        top = lam_max[connected]
        if which == "A":
            out[connected] = (t - 1) * top / (n * np.sum(top[:, None] / sub, axis=1))
        elif which == "D":
            out[connected] = top * np.exp(np.mean(np.log(sub / top[:, None]), axis=1)) / n
        elif which == "E":
            out[connected] = sub[:, 0] / n
    return out


def criterion_values(schur_h: np.ndarray, criteria: Sequence[str], n: int) -> dict[str, np.ndarray]:
    """Criterion values of packed (k(k+1)/2, batch) S_H matrices, k = t - 1.

    T is the trace over n k, so only A, D and E take eigenvalues.
    """
    criteria = [c.upper() for c in criteria]
    out = {}
    if "T" in criteria:
        diagonal = mk.packed_diagonal(schur_h)
        out["T"] = diagonal.sum(axis=0) / (n * len(diagonal))
    if set(criteria) - {"T"}:
        eigs = eigenvalues_batch(mk.unpack_sym(schur_h))
        out.update((c, criterion_values_from_eigs(eigs, c, n)) for c in criteria if c != "T")
    return out


def criterion(s_h: np.ndarray, which: str, n: int) -> float:
    """One of the A/D/E/T criterion values of one (t-1) x (t-1) S_H."""
    (values,) = criterion_values(mk.pack_sym(s_h[None]), (which,), n).values()
    return float(values[0])
