"""Information matrices for direct treatment effects.

Realized matrices condition on a vector of stay lengths: the rows a subject
actually contributes are projected against the span of period and subject
effects, and the treatment/carryover components of that projection form a
2x2 block system whose Schur complement is the information matrix.  The
surrogate matrix replaces the realized projection kernel by the paper's
surrogate kernel V of the mechanism, which turns the components into fixed
sandwiches of V.  V is not the exact mean of the realized projection: the
enumeration oracle ``expected_projection_kernel`` in
``tests/test_dropout_model.py`` differs from it, and acceptance entry 8a
records the gap.

The realized path projects out [periods | subjects] by within-subject
centering, then eliminates the centered period columns.  A subject with
sequence s who stays l periods enters only through P_l T_s and P_l F_s
(P_l = padded_centering(l, p)), so a realization is its count matrix
N[s, l] and every Gram block is N times a table built once per design;
the p x p period Gram is inverted once per distinct count of subjects per
stay length.  Exact and Monte Carlo evaluation share this kernel.
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
    """Stacked and per-subject incidence matrices of an n-subject design."""

    p: int
    t: int
    n: int
    subject_sequences: tuple[SequenceTuple, ...]
    T_blocks: np.ndarray  # (n, p, t)
    F_blocks: np.ndarray  # (n, p, t)

    @property
    def T(self) -> np.ndarray:
        return self.T_blocks.reshape(self.n * self.p, self.t)

    @property
    def F(self) -> np.ndarray:
        return self.F_blocks.reshape(self.n * self.p, self.t)


def design_matrices(sequences: Iterable[Sequence[int]], t: int) -> DesignMatrices:
    """Build incidence blocks for an explicit subject-by-subject listing."""
    seqs = tuple(validate_sequence(s, t) for s in sequences)
    if not seqs:
        raise ValidationError("design must contain at least one subject")
    p = len(seqs[0])
    if any(len(s) != p for s in seqs):
        raise ValidationError("all subject sequences must have equal length")
    T = np.stack([incidence(s, t) for s in seqs])
    F = np.stack([carryover_incidence(s, t) for s in seqs])
    return DesignMatrices(p=p, t=t, n=len(seqs), subject_sequences=seqs, T_blocks=T, F_blocks=F)


@dataclass(frozen=True)
class InfoMatrix:
    """Component blocks, Schur complement and its ascending eigenvalues."""

    c11: np.ndarray
    c12: np.ndarray
    c22: np.ndarray
    schur: np.ndarray
    eigenvalues: np.ndarray


def _info_from_components(c11: np.ndarray, c12: np.ndarray, c22: np.ndarray) -> InfoMatrix:
    schur = mk.symmetrize(c11 - c12 @ mk.pinv_sym(c22) @ c12.T)
    eigs = np.linalg.eigvalsh(schur)
    return InfoMatrix(c11=c11, c12=c12, c22=c22, schur=schur, eigenvalues=eigs)


# -- realized information ----------------------------------------------------------


@dataclass(frozen=True)
class CountTables:
    """Row ``s * p + l - 1`` of ``table``: T'P_lT, T'P_lF, F'P_lF, P_lT, P_lF of sequence s."""

    p: int
    t: int
    sequences: tuple[SequenceTuple, ...]  # distinct, ascending
    subject_index: np.ndarray  # (n,) position of each subject's sequence
    table: np.ndarray  # (S * p, 3 t^2 + 2 p t)
    centering: np.ndarray  # (p, p * p)


def count_tables(dm: DesignMatrices) -> CountTables:
    """Tabulate the Gram terms of every (distinct sequence, stay length) pair."""
    p, t = dm.p, dm.t
    seqs = tuple(sorted(set(dm.subject_sequences)))
    pos = {s: k for k, s in enumerate(seqs)}
    subject_index = np.array([pos[s] for s in dm.subject_sequences], dtype=np.int64)
    first = np.array([dm.subject_sequences.index(s) for s in seqs])
    T, F = dm.T_blocks[first], dm.F_blocks[first]  # (S, p, t)
    P = np.stack([mk.padded_centering(l, p) for l in range(1, p + 1)])
    PT, PF = (np.einsum("lqr,sru->slqu", P, X) for X in (T, F))
    blocks = [np.einsum("squ,slqv->sluv", X, Y) for X, Y in ((T, PT), (T, PF), (F, PF))]
    table = np.concatenate([b.reshape(len(seqs) * p, -1) for b in blocks + [PT, PF]], axis=1)
    return CountTables(p, t, seqs, subject_index, table, P.reshape(p, p * p))


def stay_counts(tables: CountTables, lengths: np.ndarray) -> np.ndarray:
    """Bin (batch, n) stay lengths into (batch, S, p) count matrices."""
    batch = lengths.shape[0]
    cells = len(tables.sequences) * tables.p
    flat = tables.subject_index * tables.p + lengths - 1 + cells * np.arange(batch)[:, None]
    return np.bincount(flat.ravel(), minlength=batch * cells).reshape(batch, -1, tables.p)


def count_components(
    tables: CountTables, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Component blocks (C11, C12, C22) of stacked (batch, S, p) count matrices."""
    p, t = tables.p, tables.t
    batch = counts.shape[0]
    g = counts.reshape(batch, -1) @ tables.table
    cuts = np.cumsum([t * t, t * t, t * t, p * t])
    gtt, gtf, gff, gzt, gzf = np.split(g, cuts, axis=1)
    gtt, gtf, gff = (x.reshape(batch, t, t) for x in (gtt, gtf, gff))
    gzt, gzf = gzt.reshape(batch, p, t), gzf.reshape(batch, p, t)

    levels = np.einsum("bsl->bl", counts, dtype=np.int64)
    key = np.zeros(batch, dtype=np.int64)
    for col in levels.T:  # dense row ids, re-ranked per column so they never overflow
        _, key = np.unique(key * (col.max() + 1) + col, return_inverse=True)
    _, first = np.unique(key, return_index=True)
    gzz = (levels[first] @ tables.centering).reshape(-1, p, p)
    gzz_inv = mk.pinv_sym_batch(gzz)[key]
    hzt, hzf = gzz_inv @ gzt, gzz_inv @ gzf
    gzt_t = np.swapaxes(gzt, 1, 2)
    return gtt - gzt_t @ hzt, gtf - gzt_t @ hzf, gff - np.swapaxes(gzf, 1, 2) @ hzf


def realized_components_batch(
    dm: DesignMatrices, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Component blocks (C11, C12, C22), stacked over stay-length vectors.

    ``lengths`` has shape (batch, n) with entries in 1..p.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim == 1:
        lengths = lengths[None, :]
    if lengths.shape[1] != dm.n or lengths.min() < 1 or lengths.max() > dm.p:
        raise ValidationError("stay lengths must be an (batch, n) array with entries in 1..p")
    tables = count_tables(dm)
    return count_components(tables, stay_counts(tables, lengths))


def schur_batch(c11: np.ndarray, c12: np.ndarray, c22: np.ndarray) -> np.ndarray:
    """Stacked Schur complements C11 - C12 C22^+ C21."""
    c22_inv = mk.pinv_sym_batch(c22)
    out = c11 - np.einsum("buv,bvw,bxw->bux", c12, c22_inv, c12)
    return (out + np.swapaxes(out, -1, -2)) / 2.0


def eigenvalues_batch(schur: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of stacked symmetric matrices."""
    return np.linalg.eigvalsh(schur)


def realized_info(dm: DesignMatrices, lengths: Sequence[int]) -> InfoMatrix:
    """Information matrix for one realized vector of stay lengths."""
    c11, c12, c22 = realized_components_batch(dm, np.asarray(lengths)[None, :])
    return _info_from_components(c11[0], c12[0], c22[0])


# -- surrogate information -------------------------------------------------------


def surrogate_info(dm: DesignMatrices, mech: DropoutMechanism) -> InfoMatrix:
    """Information matrix built from the surrogate kernel V (not the mean realized kernel)."""
    if dm.p != mech.p or dm.n != mech.n:
        raise ValidationError(
            f"design is {dm.n} subjects x {dm.p} periods but mechanism has "
            f"n={mech.n}, p={mech.p}"
        )
    v = mech.V
    T, F = dm.T, dm.F
    c11 = mk.symmetrize(T.T @ v @ T)
    c12 = T.T @ v @ F
    c22 = mk.symmetrize(F.T @ v @ F)
    return _info_from_components(c11, c12, c22)


# -- check matrices -----------------------------------------------------------------


def check_matrices(
    s: Sequence[int], mech: DropoutMechanism, t: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sequence check blocks (C11, C12, C22).

    Each block is ``X'(A-B)Y + (X Bt)' B (Y Bt)`` for the incidence pair
    (X, Y); summing them over a design reproduces the expected component
    blocks plus a rank-correction in the period-average direction.
    """
    seq = validate_sequence(s, t)
    if len(seq) != mech.p:
        raise ValidationError(f"sequence length {len(seq)} != mechanism periods {mech.p}")
    bt = mk.centering(t)
    T = incidence(seq, t)
    F = carryover_incidence(seq, t)
    Th, Fh = T @ bt, F @ bt
    amb = mech.A - mech.B
    c11 = T.T @ amb @ T + Th.T @ mech.B @ Th
    c12 = T.T @ amb @ F + Th.T @ mech.B @ Fh
    c22 = F.T @ amb @ F + Fh.T @ mech.B @ Fh
    return mk.symmetrize(c11), c12, mk.symmetrize(c22)


# -- criteria -------------------------------------------------------------------------


def criterion_values_from_eigs(eigs: np.ndarray, which: str, n: int) -> np.ndarray:
    """Criterion values for stacked ascending eigenvalue rows.

    The smallest eigenvalue is the structural zero and is excluded.  A
    design whose second-smallest eigenvalue is at (numerical) zero is
    disconnected: A, D and E report 0 there, T is unaffected.
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
        if which == "A":
            out[connected] = (t - 1) / (n * np.sum(1.0 / sub, axis=1))
        elif which == "D":
            out[connected] = np.exp(np.sum(np.log(sub), axis=1) / (t - 1)) / n
        elif which == "E":
            out[connected] = sub[:, 0] / n
    return out


def criterion(info: InfoMatrix, which: str, n: int) -> float:
    """One of the A/D/E/T criterion values of an information matrix."""
    return float(criterion_values_from_eigs(info.eigenvalues[None, :], which, n)[0])
