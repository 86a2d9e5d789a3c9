"""Slow reference paths kept only as test oracles.

``pinv_sym`` is the single-matrix symmetric pseudo-inverse and
``schur_batch`` the stacked t x t Schur complement C11 - C12 C22^+ C21,
both through a full symmetric eigendecomposition; ``pinv_eigenvalues``
gives the ascending eigenvalues of the latter.  ``pinv_count_components``
is the count-matrix kernel the contrast-basis Gram replaced: t x t blocks
with the centered period columns eliminated through the pseudo-inverse of
the p x p period Gram.
``proj_complement`` is the orthogonal-complement projector I - G (G'G)^+ G'.
``full_prefix_terms`` gives the per-period terms of the sequence quadratics
for every one of the t**p sequences, with no use of the relabeling symmetry.
``scalar_q_coeffs`` is the scalar quadratic formula that one row of
``q_solver.q_coeff_arrays`` replaced: a loop over periods of the exact
integer prefix counts of ``prefix_stats``.
``realized_projection`` builds the realized projection kernel by direct
projection of the full row grid.  ``masked_components_batch`` is the
per-subject realized-information kernel the count-matrix kernel replaced:
rows are masked and centered subject by subject and every Gram block is a
masked einsum.  ``product_cells`` is the row-by-row ``itertools.product``
enumeration of the collapsed exact cells.  ``mc_phi0_multi`` runs the Monte
Carlo evaluation over the same seeded draws through the per-subject kernel.
``check_matrices`` gives one sequence's check blocks, and
``loop_system_matrix`` stacks the optimality system column by column from
them, as ``design_search.build_system`` did before it took the whole
support in stacked products.  ``reference_warm_start`` runs the
projected-gradient least squares on the scaled simplex that
``design_search.exact_search`` started from before it took the symmetric
design, whose limit that start is, through ``project_scaled_simplex``.
``tuple_symmetric_weights`` builds that symmetric design as
``design_search.symmetric_solve`` did before the certificate's listing
carried each row's block: every block weight is spread over the block's
``members()`` tuples, summed per tuple, and placed by
``OptimalitySystem.column_index``.
``OrderedMoveDescent`` is the transfer descent the Gram-space engine
replaced: it forms every move vector d = x_j - x_i and scans all ordered
pairs of moves, with no pruning.  ``dense_best_pair`` is the Gram-space pair
scan before receivers were pruned by the Gram bound: every donor multiset
is scored against every receiver multiset.  ``orbit`` lists a relabeling orbit as
sorted tuples through ``itertools.permutations``, the listing the label
arrays of ``SymmetricBlock.member_array`` replaced.

These helpers left ``src/`` because no command calls them; tests use them
as subjects or references.  ``enumerate_sequences`` lists all t**p
sequences in lexicographic order, and ``apply_permutation`` relabels one
sequence.  ``surrogate_kernel`` builds the (np) x (np) kernel
V = I_n (x) A - J_n (x) B / n that ``DropoutMechanism.V`` built.
``type_h_identity_check`` checks the centering identity of a type-H
covariance block and raises ``SingularCovarianceError`` on a singular one.
``InfoMatrix`` is the information layer's old result: the t x t component
blocks C11, C12 and C22, the t x t Schur complement S = H S_H H' and S_H,
lifted from a contrast Gram by ``lift_info``.  ``realized_components_batch``
and ``realized_info`` lift the count kernel's Grams at stay lengths 1..p,
``surrogate_info_matrix`` lifts ``information._surrogate_gram``, and
``reference_surrogate_info`` is ``information.surrogate_info`` as it was
before it returned S_H alone, sandwich included, with ``info_criterion``
reading a criterion off an ``InfoMatrix``.

``incidence`` and ``carryover_incidence`` build one sequence's incidences,
the per-tuple reference for ``sequences.incidences``; ``format_sequence``
renders one sequence as text, a plain join, the reference for
``sequences.format_sequences``.  ``design_matrices`` groups a
subject-by-subject listing and keeps its order in ``subject_index``, as
``information.design_matrices`` did before it grouped a design's counts;
its ``ListingMatrices`` carry the listing's stacked incidences ``T`` and
``F``.  ``subject_sequences`` lists a design's subjects in sorted sequence
order, as ``ExactDesign.subject_sequences`` did.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product
from math import comb
from operator import itemgetter

import numpy as np

from crossover_dropout import design_search as ds
from crossover_dropout import evaluation as ev
from crossover_dropout import information as inf
from crossover_dropout import matrix_kernels as mk
from crossover_dropout.errors import (
    BudgetExceededError,
    CrossoverError,
    ValidationError,
)
from crossover_dropout.information import criterion_values_from_eigs
from crossover_dropout.q_solver import QCoefficients, q_coeffs
from crossover_dropout.sequences import (
    DEFAULT_ENUM_BUDGET,
    canonical_form,
    check_budget,
    validate_sequence,
)


def incidence(s, t):
    """p x t treatment incidence: row k has a single 1 at the period-k label."""
    seq = validate_sequence(s, t)
    out = np.zeros((len(seq), t))
    out[np.arange(len(seq)), np.array(seq) - 1] = 1.0
    return out


def carryover_incidence(s, t):
    """p x t carryover incidence: first row zero, then incidence shifted down."""
    mat = incidence(s, t)
    out = np.zeros_like(mat)
    out[1:] = mat[:-1]
    return out


def format_sequence(s, t):
    """Compact digit form for t <= 9, comma-separated labels otherwise."""
    return ("" if t <= 9 else ",").join(map(str, s))


@dataclass(frozen=True)
class ListingMatrices(inf.DesignMatrices):
    """A grouping whose ``subject_index`` keeps a listing's order, with the
    listing's stacked (np, t) incidences ``T`` and ``F``."""

    @property
    def T(self):
        return self.sequence_T[self.subject_index].reshape(-1, self.t)

    @property
    def F(self):
        return self.sequence_F[self.subject_index].reshape(-1, self.t)


def design_matrices(sequences, t):
    """Group a subject-by-subject listing, validating every subject.

    Unlike ``information.design_matrices``, which groups a design's counts,
    ``subject_index`` keeps the listing's order, so stay lengths can be
    given per listed subject.
    """
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
    group_n = np.bincount(subject_index, minlength=len(pos))
    return ListingMatrices(p, t, len(seqs), tuple(pos), T, F, group_n, subject_index)


def subject_sequences(design):
    """A design's subjects, listed in sorted sequence order."""
    return [s for s in sorted(design.counts) for _ in range(design.counts[s])]


def enumerate_sequences(t, p, budget=DEFAULT_ENUM_BUDGET):
    """All t**p sequences in lexicographic order."""
    if t < 2 or p < 2:
        raise ValidationError(f"need t >= 2 and p >= 2, got t={t}, p={p}")
    check_budget(budget)
    total = t**p
    if total > budget:
        raise BudgetExceededError(
            f"enumeration of {t}**{p} = {total} sequences exceeds budget {budget}; "
            "canonical_sequences lists one sequence per symmetric block instead"
        )
    return [tuple(int(x) + 1 for x in idx) for idx in np.ndindex(*([t] * p))]


def apply_permutation(s, sigma):
    """Relabel a sequence by sigma, where sigma[i-1] is the image of label i."""
    sigma = tuple(int(x) for x in sigma)
    if sorted(sigma) != list(range(1, len(sigma) + 1)):
        raise ValidationError(f"not a permutation of 1..{len(sigma)}: {sigma}")
    seq = validate_sequence(s, len(sigma))
    return tuple(sigma[x - 1] for x in seq)


def surrogate_kernel(mech):
    """The surrogate kernel V = I_n (x) A - J_n (x) B / n, (np) x (np)."""
    return np.kron(np.eye(mech.n), mech.A) - np.kron(np.ones((mech.n, mech.n)), mech.B) / mech.n


class SingularCovarianceError(CrossoverError, RuntimeError):
    """A covariance submatrix required to be invertible is singular."""


def type_h_identity_check(k, eta, b=0.0, tol=1e-10):
    """Check the centering identity for a type-H covariance block.

    Builds ``Sigma = I_k + eta 1' + 1 eta' + b J`` and verifies

        inv(Sigma) - inv(Sigma) J inv(Sigma) / (1' inv(Sigma) 1) == centering(k)

    entrywise within ``tol``.  Raises SingularCovarianceError when the block
    is (numerically) singular instead of returning a verdict.
    """
    if k < 1:
        raise ValidationError(f"block order must be >= 1, got {k}")
    eta = np.asarray(eta, dtype=float).reshape(-1)
    if eta.shape != (k,):
        raise ValidationError(f"eta must have length {k}, got {eta.shape}")
    ones = np.ones((k, 1))
    sigma = np.eye(k) + np.outer(eta, np.ones(k)) + np.outer(np.ones(k), eta) + b * np.ones((k, k))
    try:
        sigma_inv = np.linalg.inv(sigma)
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError(f"covariance block of order {k} is singular") from exc
    if np.linalg.cond(sigma) > 1e12:
        raise SingularCovarianceError(f"covariance block of order {k} is numerically singular")
    denom = float((ones.T @ sigma_inv @ ones).item())
    if abs(denom) < 1e-12:
        raise SingularCovarianceError("1' inv(Sigma) 1 vanishes; identity undefined")
    lhs = sigma_inv - (sigma_inv @ np.ones((k, k)) @ sigma_inv) / denom
    return bool(np.max(np.abs(lhs - mk.centering(k))) <= tol)


@dataclass(frozen=True)
class InfoMatrix:
    """Component blocks and the Schur complement S = H S_H H', with S_H."""

    c11: np.ndarray
    c12: np.ndarray
    c22: np.ndarray
    schur: np.ndarray
    schur_h: np.ndarray

    @cached_property
    def eigenvalues(self):
        """Exact 0.0, then S_H's ascending; negative where S_H is indefinite."""
        return inf.eigenvalues_batch(self.schur_h[None])[0]


def _lift(g, h, carry):
    """t x t blocks (C11, C12, C22) of stacked or single Grams of [F carry | T h]."""
    k = carry.shape[1]
    return h @ g[..., k:, k:] @ h.T, h @ g[..., k:, :k] @ carry.T, carry @ g[..., :k, :k] @ carry.T


def lift_info(g, carry, s_h):
    """InfoMatrix of the Gram g of [F carry | T H] and its (t-1) x (t-1) Schur complement s_h."""
    h = mk.contrast_basis(len(s_h) + 1)
    return InfoMatrix(*_lift(g, h, carry), mk.symmetrize(h @ s_h @ h.T), s_h)


def _realized_grams(dm, lengths):
    """Packed Grams [F H | T H]' Omega [F H | T H] of stacked (batch, n) stay lengths in 1..p."""
    lengths = np.atleast_2d(np.asarray(lengths, dtype=np.int64))
    tables = inf.count_tables(dm, np.arange(1, dm.p + 1))
    grams = inf.count_grams(tables, inf.stay_counts(tables, lengths - 1))
    return mk.schur_complement(grams, dm.p - 1)


def realized_components_batch(dm, lengths):
    """Component blocks (C11, C12, C22), stacked over (batch, n) stay-length vectors."""
    h = mk.contrast_basis(dm.t)
    return _lift(mk.unpack_sym(_realized_grams(dm, lengths)), h, h)


def realized_info(dm, lengths):
    """InfoMatrix for one realized vector of stay lengths."""
    w = _realized_grams(dm, lengths)
    s_h = mk.unpack_sym(mk.schur_complement(w, dm.t - 1))[0]
    return lift_info(mk.unpack_sym(w)[0], mk.contrast_basis(dm.t), s_h)


def surrogate_info_matrix(dm, mech):
    """InfoMatrix of the surrogate kernel: ``information._surrogate_gram``, lifted."""
    return lift_info(inf._surrogate_gram(dm, mech), np.eye(dm.t), inf.surrogate_info(dm, mech))


def reference_surrogate_info(dm, mech):
    """``information.surrogate_info`` before it returned S_H alone."""
    if dm.p != mech.p or dm.n != mech.n:
        raise ValidationError(
            f"design is {dm.n} subjects x {dm.p} periods but mechanism has "
            f"n={mech.n}, p={mech.p}"
        )
    h = mk.contrast_basis(dm.t)
    x = np.concatenate([dm.sequence_F, dm.sequence_T @ h], axis=2)  # (S, p, m)
    nx = np.bincount(dm.subject_index)[:, None, None] * x  # N_s X_s
    xbar = nx.sum(axis=0)
    g = (np.swapaxes(nx, 1, 2) @ mech.A @ x).sum(axis=0)
    g = mk.symmetrize(g - xbar.T @ mech.B @ xbar / dm.n)
    return lift_info(g, np.eye(dm.t), mk.pinv_schur_complement(g[None], dm.t)[0])


def info_criterion(info, which, n):
    """``information.criterion`` of an InfoMatrix, as it read one before it took S_H."""
    (values,) = inf.criterion_values(mk.pack_sym(info.schur_h[None]), (which,), n).values()
    return float(values[0])


def orbit(s, t):
    """All distinct relabelings of ``s``, sorted lexicographically.

    Each of the perm(t, u) injective maps of the u labels of the canonical
    form into 1..t gives one member, and distinct maps give distinct members.
    """
    rep = canonical_form(s, t)
    images = permutations(range(1, t + 1), max(rep))
    if len(rep) > 1:  # an itemgetter of one index returns the item, not a 1-tuple
        images = map(itemgetter(*(x - 1 for x in rep)), images)
    return sorted(images)


def full_prefix_terms(t, p):
    """All t**p sequences and the per-period terms of their quadratics.

    Returns (seqs, terms): seqs the (t**p, p) array of 0-based labels in
    lexicographic order, terms a (3, t**p, p) array whose rows, weighted by
    alpha, sum to q11, q12 and q22.  The prefix statistics come from label
    comparisons: f_last counts the periods up to k with period k's label,
    xi grows by 2 f_last - 1 per period, rho counts adjacent repeats.
    """
    seqs = np.indices([t] * p).reshape(p, -1).T
    f_last = np.stack(
        [(seqs[:, : k + 1] == seqs[:, k : k + 1]).sum(axis=1) for k in range(p)], axis=1
    )
    xi = np.cumsum(2 * f_last - 1, axis=1)
    rho = np.zeros_like(xi)
    rho[:, 1:] = np.cumsum(seqs[:, 1:] == seqs[:, :-1], axis=1)
    ks = np.arange(1, p + 1, dtype=float)
    terms = np.stack(
        [
            ks - xi / ks,
            (ks * rho + f_last - xi) / ks,
            (ks * t - 1.0) * (ks - 1.0) / (ks * t) - (xi - 2.0 * f_last + 1.0) / ks,
        ]
    )
    return seqs, terms


def prefix_stats(s, k, t):
    """Exact count statistics of the k-period prefix.

    Returns ``(f, xi, rho, f_last)`` where ``f[i]`` counts occurrences of
    treatment i+1 in the prefix, ``xi = sum f_i**2``, ``rho`` counts adjacent
    equal pairs inside the prefix and ``f_last`` is the count of the
    treatment applied in period k.
    """
    seq = validate_sequence(s, t)
    if not 1 <= k <= len(seq):
        raise ValidationError(f"prefix length {k} out of range for sequence of length {len(seq)}")
    prefix = seq[:k]
    f = [0] * t
    for label in prefix:
        f[label - 1] += 1
    xi = sum(c * c for c in f)
    rho = sum(1 for j in range(k - 1) if prefix[j] == prefix[j + 1])
    return tuple(f), xi, rho, f[prefix[-1] - 1]


def scalar_q_coeffs(s, mech, t):
    """Quadratic coefficients of one sequence, period by period from ``prefix_stats``."""
    seq = validate_sequence(s, t)
    q11 = q12 = q22 = 0.0
    for k in range(1, mech.p + 1):
        ak = mech.alpha[k - 1]
        if ak == 0.0:
            continue
        _, xi, rho, f_last = prefix_stats(seq, k, t)
        q11 += ak * (k - xi / k)
        q12 += ak * (k * rho + f_last - xi) / k
        q22 += ak * ((k * t - 1.0) * (k - 1.0) / (k * t) - (xi - 2.0 * f_last + 1.0) / k)
    return QCoefficients(q11, q12, q22)


def check_matrices(s, mech, t):
    """Per-sequence check blocks (C11, C12, C22).

    Each block is ``X'(A-B)Y + (X Bt)' B (Y Bt)`` for the incidence pair
    (X, Y); summing them over a design reproduces the expected component
    blocks plus a rank-correction in the period-average direction.
    """
    seq = validate_sequence(s, t)
    if len(seq) != mech.p:
        raise ValidationError(f"sequence length {len(seq)} != mechanism periods {mech.p}")
    bt = mk.centering(t)
    T, F = incidence(seq, t), carryover_incidence(seq, t)
    Th, Fh = T @ bt, F @ bt
    amb = mech.A - mech.B
    c11 = T.T @ amb @ T + Th.T @ mech.B @ Th
    c12 = T.T @ amb @ F + Th.T @ mech.B @ Fh
    c22 = F.T @ amb @ F + Fh.T @ mech.B @ Fh
    return mk.symmetrize(c11), c12, mk.symmetrize(c22)


def loop_system_matrix(cert, mech):
    """The optimality system's x, one support sequence per column."""
    bt = mk.centering(cert.t)
    cols = []
    for seq in cert.support:
        c11, c12, c22 = check_matrices(seq, mech, cert.t)
        th = incidence(seq, cert.t) @ bt
        fh = carryover_incidence(seq, cert.t) @ bt
        block1 = c11 + cert.x_star * c12 @ bt
        block2 = c12.T + cert.x_star * c22 @ bt
        block3 = mech.B @ (th + cert.x_star * fh)
        cols.append(np.concatenate([block1.ravel(), block2.ravel(), block3.ravel()]))
    return np.column_stack(cols)


def project_scaled_simplex(v, total):
    """Euclidean projection of v onto {w >= 0, sum w = total}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    ks = np.arange(1, len(v) + 1)
    cond = u - css / ks > 0
    rho = np.max(np.flatnonzero(cond)) + 1
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def reference_warm_start(x, y, n, iters=500):
    """All ``iters`` projected-gradient steps from uniform weights, with no early exit."""
    spectral = np.linalg.norm(x, 2)
    step = 1.0 / (spectral * spectral)
    w = np.full(x.shape[1], n / x.shape[1])
    for _ in range(iters):
        grad = x.T @ (x @ w - y)
        w = project_scaled_simplex(w - step * grad, float(n))
    return w


def tuple_symmetric_weights(cert, mech):
    """The symmetric design as one weight per support column, made by sequence tuple."""
    slopes = np.array(
        [q_coeffs(b.representative, mech, cert.t).derivative(cert.x_star) for b in cert.blocks]
    )
    w = ds._balanced_weights(slopes, 1e-9 * max(1.0, abs(cert.y_star)))
    weights = {}
    for wb, block in zip(w, cert.blocks):
        if wb <= 0.0:
            continue
        members = block.members()
        for s in members:
            weights[s] = weights.get(s, 0.0) + wb / len(members)
    # build_system keeps cert.support as its columns; the index needs nothing else
    system = ds.OptimalitySystem(support=cert.support, x=None, y=None, incidences=None)
    index = system.column_index()
    out = np.zeros(len(system.support))
    for seq, weight in weights.items():
        out[index[seq]] = weight
    return out


def dense_best_pair(engine, counts, g, gains, tol):
    """``design_search._TransferDescent._best_pair`` scoring every receiver multiset.

    Donor rows go in blocks of ``engine._PAIR_BLOCK`` entries, each scored
    against all m(m+1)/2 receivers, with the same donor pruning above
    ``engine._PAIR_CAP`` and the same float expression and tie order.
    """
    ua, ub = engine.ua, engine.ub
    donors = np.flatnonzero((counts[ua] >= 1) & (counts[ub] >= 1 + (ua == ub)))
    keep = max(1, engine._PAIR_CAP // ua.size)
    if donors.size > keep:
        best_out = gains.min(axis=1)
        score = best_out[ua[donors]] + best_out[ub[donors]]
        donors = np.sort(donors[np.argsort(score, kind="stable")[:keep]])
    g_pair = g[ua] + g[ub]
    h_recv, h_donor = engine.q_pair + 2.0 * g_pair, engine.q_pair - 2.0 * g_pair
    best_val, best = tol, None
    block = max(1, engine._PAIR_BLOCK // ua.size)
    for lo in range(0, donors.size, block):
        rows = donors[lo : lo + block]
        a, b, local = ua[rows], ub[rows], np.arange(rows.size)
        s = -2.0 * (engine.q[a] + engine.q[b])  # -2 x_D.x_c, inf on donor columns
        s[local, a] = s[local, b] = np.inf
        total = np.take(s, ua, axis=1)
        total += np.take(s, ub, axis=1)
        total += h_recv
        recv = total.argmin(axis=1)
        row_best = total[local, recv] + h_donor[rows]
        k = int(np.argmin(row_best))
        if row_best[k] < best_val:
            c, d = int(ua[recv[k]]), int(ub[recv[k]])
            best_val, best = float(row_best[k]), ((int(a[k]), int(b[k])), (c, d))
    return None if best is None else (best_val, *best)


def pinv_sym(g, tol=mk.DEFAULT_RANK_TOL):
    """Moore-Penrose pseudo-inverse of a symmetric matrix.

    Eigenvalues with ``|lam| <= tol * max|lam|`` are treated as zero; the
    zero matrix maps to the zero matrix.
    """
    w, v = np.linalg.eigh(mk.symmetrize(g))
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if scale == 0.0:
        return np.zeros_like(np.asarray(g, dtype=float))
    inv = np.zeros_like(w)
    keep = np.abs(w) > tol * scale
    inv[keep] = 1.0 / w[keep]
    return mk.symmetrize((v * inv) @ v.T)


def schur_batch(c11, c12, c22):
    """Stacked Schur complements C11 - C12 C22^+ C21."""
    c22_inv = mk.pinv_sym_batch(c22)
    out = c11 - np.einsum("buv,bvw,bxw->bux", c12, c22_inv, c12)
    return (out + np.swapaxes(out, -1, -2)) / 2.0


def pinv_eigenvalues(c11, c12, c22):
    """Ascending eigenvalues of the stacked t x t pinv Schur complements."""
    return np.linalg.eigvalsh(schur_batch(c11, c12, c22))


def pinv_count_components(dm, counts):
    """(C11, C12, C22) of (batch, S, p) count matrices, distinct sequences ascending.

    Every Gram block is N times a table of T'P_lT, T'P_lF, F'P_lF, P_lT and
    P_lF over (distinct sequence s, stay length l); the centered period
    columns are then eliminated through pinv of the period Gram sum_l N_l P_l.
    """
    p, t = dm.p, dm.t
    T, F = dm.sequence_T, dm.sequence_F
    P = np.stack([mk.padded_centering(l, p) for l in range(1, p + 1)])
    PT, PF = (np.einsum("lqr,sru->slqu", P, X) for X in (T, F))
    w = counts.reshape(len(counts), -1).astype(float)

    def gram(X, PY):
        return w @ np.einsum("squ,slqv->sluv", X, PY).reshape(w.shape[1], -1)

    gtt, gtf, gff = (gram(X, PY).reshape(-1, t, t) for X, PY in ((T, PT), (T, PF), (F, PF)))
    gzt, gzf = ((w @ PX.reshape(w.shape[1], -1)).reshape(-1, p, t) for PX in (PT, PF))
    gzz_inv = mk.pinv_sym_batch(np.einsum("bl,lqr->bqr", counts.sum(axis=1), P))
    hzt, hzf = gzz_inv @ gzt, gzz_inv @ gzf
    gzt_t = np.swapaxes(gzt, 1, 2)
    return gtt - gzt_t @ hzt, gtf - gzt_t @ hzf, gff - np.swapaxes(gzf, 1, 2) @ hzf


def proj_complement(g):
    """Projector onto the orthogonal complement of the column span of G.

    Returns I - G (G'G)^+ G', symmetric and idempotent for any G with at
    least one row.
    """
    g = np.atleast_2d(np.asarray(g, dtype=float))
    if g.shape[0] < 1:
        raise ValidationError("proj_complement needs a matrix with at least 1 row")
    if g.ndim == 2 and g.shape[1] == 0:
        return np.eye(g.shape[0])
    gram_inv = pinv_sym(g.T @ g)
    return mk.symmetrize(np.eye(g.shape[0]) - g @ gram_inv @ g.T)


def realized_projection(lengths, p):
    """The np x np realized projection kernel, by direct projection.

    Scatters the orthogonal-complement projector of the contributed
    [periods | subjects] columns back into the full row grid.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    n = lengths.shape[0]
    keep = (np.arange(p)[None, :] < lengths[:, None]).reshape(n * p)
    z = np.tile(np.eye(p), (n, 1))
    u = np.repeat(np.eye(n), p, axis=0)
    w = np.hstack([z, u])[keep]
    out = np.zeros((n * p, n * p))
    out[np.ix_(keep, keep)] = proj_complement(w)
    return out


def _masks(lengths, p):
    """(batch, n, p) 0/1 mask of contributed rows: first l_i per subject."""
    return (np.arange(p)[None, None, :] < lengths[:, :, None]).astype(float)


def _centered_blocks(blocks, mask, lengths):
    """Mask rows and subtract per-subject column means over contributed rows."""
    masked = mask[:, :, :, None] * blocks[None, :, :, :]
    means = masked.sum(axis=2) / lengths[:, :, None]
    return (blocks[None] - means[:, :, None, :]) * mask[:, :, :, None]


def masked_components_batch(dm, lengths):
    """(C11, C12, C22) for (batch, n) stay lengths, subject by subject."""
    lengths = np.atleast_2d(np.asarray(lengths, dtype=np.int64))
    mask = _masks(lengths, dm.p)
    lf = lengths.astype(float)
    shape = (dm.n, dm.p, dm.t)
    Tc = _centered_blocks(dm.sequence_T[dm.subject_index], mask, lf)
    Fc = _centered_blocks(dm.sequence_F[dm.subject_index], mask, lf)

    batch = mask.shape[0]
    gzz = np.zeros((batch, dm.p, dm.p))
    idx = np.arange(dm.p)
    gzz[:, idx, idx] = mask.sum(axis=1)
    gzz -= np.einsum("bip,biq,bi->bpq", mask, mask, 1.0 / lf)
    gzt = Tc.sum(axis=1)
    gzf = Fc.sum(axis=1)

    gtt = np.einsum("bipu,bipv->buv", Tc, Tc)
    gtf = np.einsum("bipu,bipv->buv", Tc, Fc)
    gff = np.einsum("bipu,bipv->buv", Fc, Fc)

    gzz_inv = mk.pinv_sym_batch(gzz)
    c11 = gtt - np.einsum("bpu,bpq,bqv->buv", gzt, gzz_inv, gzt)
    c12 = gtf - np.einsum("bpu,bpq,bqv->buv", gzt, gzz_inv, gzf)
    c22 = gff - np.einsum("bpu,bpq,bqv->buv", gzf, gzz_inv, gzf)
    return c11, c12, c22


def product_cells(design, mech):
    """Exact cells as (cells, n) stay-length rows plus weights, one row at a time.

    Each row lists the subjects grouped by distinct sequence, ascending as
    in ``design.matrices()``, with ascending stay lengths within a group.
    """
    levels = mech.stay_support
    probs = mech.a[levels - 1]
    per_group = []
    for _, group_n in sorted(design.counts.items()):
        entries = []
        for comp in ev._compositions(group_n, len(levels)):
            weight = 1.0
            remaining = group_n
            for c, pr in zip(comp, probs):
                weight *= comb(remaining, c) * pr**c
                remaining -= c
            lengths = [int(lv) for lv, c in zip(levels, comp) for _ in range(c)]
            entries.append((lengths, weight))
        per_group.append(entries)
    rows, weights = [], []
    for combo in product(*per_group):
        row = []
        w = 1.0
        for lengths, weight in combo:
            row.extend(lengths)
            w *= weight
        rows.append(row)
        weights.append(w)
    return np.asarray(rows, dtype=np.int64), np.asarray(weights)


def mc_phi0_multi(design, mech, criteria, *, seed, reps):
    """(phi0, stderr, v_phi) per criterion over the seeded draws, per-subject kernel."""
    dm = design.matrices()
    values = {c: [] for c in criteria}
    for index, lo in enumerate(range(0, reps, ev.CHUNK)):
        bins = ev._mc_chunk_bins(mech, seed, index, min(ev.CHUNK, reps - lo))
        lengths = mech.stay_support[bins]
        eigs = pinv_eigenvalues(*masked_components_batch(dm, lengths))
        for c in criteria:
            values[c].append(criterion_values_from_eigs(eigs, c, dm.n))
    out = {}
    for c in criteria:
        v = np.concatenate(values[c])
        var = float(v.var(ddof=1))
        out[c] = (float(v.mean()), float(np.sqrt(var / reps)), float(np.sqrt(var)))
    return out


class OrderedMoveDescent:
    """Transfer descent over the (M, rows) move vectors of one system.

    Move k shifts one subject from column mi[k] to mj[k], in row-major order
    over i != j; its gain is 2 d_k.r + |d_k|^2.  An ordered pair of moves
    (k1, k2) is feasible when its first donor holds a subject, a shared donor
    holds two, and the second donor holds one or is the first receiver.
    Ties break on the lowest move index, then the lowest pair index.
    """

    def __init__(self, x, y):
        self.x = x
        self.y = y
        m = x.shape[1]
        self.mi, self.mj = (a.ravel() for a in np.where(~np.eye(m, dtype=bool)))
        self.d = x[:, self.mj].T - x[:, self.mi].T
        self.dd = np.einsum("kr,kr->k", self.d, self.d)

    def single_gains(self, counts, r):
        delta = 2.0 * (self.d @ r) + self.dd
        return np.where(counts[self.mi] >= 1, delta, np.inf)

    def pair_gains(self, counts, r):
        """(M, M) gains of every ordered pair of moves; inf where infeasible."""
        mi, mj = self.mi, self.mj
        delta = self.single_gains(counts, r)
        total = delta[:, None] + delta[None, :] + 2.0 * (self.d @ self.d.T)
        donor_count = counts[mi]
        need_two = (mi[:, None] == mi[None, :]) & (donor_count[:, None] < 2)
        second_ok = (donor_count[None, :] >= 1) | (mj[:, None] == mi[None, :])
        return np.where(need_two | ~second_ok, np.inf, total)

    def best_pair(self, counts, r, obj):
        total = self.pair_gains(counts, r)
        k1, k2 = divmod(int(np.argmin(total)), total.shape[1])
        if total[k1, k2] < -1e-11 * max(1.0, obj):
            return k1, k2
        return None

    def run(self, counts):
        counts = counts.astype(np.int64).copy()
        r = self.x @ counts - self.y
        moves = 0
        while True:
            while True:
                delta = self.single_gains(counts, r)
                k = int(np.argmin(delta))
                if delta[k] >= -1e-11 * max(1.0, float(r @ r)):
                    break
                counts[self.mi[k]] -= 1
                counts[self.mj[k]] += 1
                r += self.d[k]
                moves += 1
            pair = self.best_pair(counts, r, float(r @ r))
            if pair is None:
                return counts, float(np.sqrt(max(float(r @ r), 0.0))), moves
            for k in pair:
                counts[self.mi[k]] -= 1
                counts[self.mj[k]] += 1
                r += self.d[k]
                moves += 1
