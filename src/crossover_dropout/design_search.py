"""Optimality equations, design verification and integer design search.

The equilibrium certificate turns optimality into a linear system in the
sequence weights: stacked check-matrix blocks on the left, the completely
symmetric target on the right.  ``build_system`` forms the columns of every
support sequence at once, as stacked matrix products over their incidences.
Approximate designs are verified by their Euclidean residual in that system.
Exact designs are searched by largest-remainder rounding of the symmetric
design, which solves the system exactly, then descent over single and
paired subject transfers from that rounding and from seeded restarts; pairs
matter because the good integer designs are exactly uniform on periods and
no single transfer preserves that margin.  Descent reads every gain from
X'X and X'r, and scans pairs as donor against disjoint receiver multisets;
a lower bound on the entries of X'X rules out all but a few receiver
columns per donor without changing the pair found, and above an entry cap
only the donors with the best single moves are scanned.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from math import isfinite
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import matrix_kernels as mk
from .dropout_model import DropoutMechanism
from .errors import BudgetExceededError, InfeasibleWeightsError, ValidationError, as_integers
from .information import DesignMatrices, design_matrices
from .q_solver import OptimalityCertificate, q_coeffs
from .sequences import SequenceTuple, incidences, validate_sequence


@dataclass(frozen=True)
class ExactDesign:
    """Integer replication counts per sequence, summing to n."""

    p: int
    t: int
    n: int
    counts: Mapping[SequenceTuple, int]
    name: Optional[str] = None

    def __post_init__(self):
        counts = {}
        for seq, c in self.counts.items():
            seq = validate_sequence(seq, self.t)
            if len(seq) != self.p:
                raise ValidationError(f"sequence {seq} has length != p={self.p}")
            (c,) = as_integers((c,), f"the count of sequence {seq}")
            if c < 0:
                raise ValidationError(f"negative count for sequence {seq}")
            if c > 0:
                counts[seq] = counts.get(seq, 0) + c
        if not counts:
            raise ValidationError("design must contain at least one subject")
        if sum(counts.values()) != self.n:
            raise ValidationError(f"counts sum to {sum(counts.values())} but n = {self.n}")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_sequences(
        cls, sequences: Iterable[Sequence[int]], t: int, name: Optional[str] = None
    ) -> "ExactDesign":
        counts = Counter(map(tuple, sequences))  # validated once, by __post_init__
        p = len(next(iter(counts), ()))
        return cls(p=p, t=t, n=counts.total(), counts=counts, name=name)

    def matrices(self) -> DesignMatrices:
        """The design's grouping, built from ``counts`` once and cached, read-only."""
        if "_matrices" not in self.__dict__:
            object.__setattr__(self, "_matrices", design_matrices(self.counts, self.p, self.t))
        return self._matrices


@dataclass(frozen=True)
class ApproximateDesign:
    """Nonnegative sequence weights summing to one."""

    p: int
    t: int
    weights: Mapping[SequenceTuple, float]

    def __post_init__(self):
        weights = {}
        for seq, w in self.weights.items():
            seq = validate_sequence(seq, self.t)
            if len(seq) != self.p:
                raise ValidationError(f"sequence {seq} has length != p={self.p}")
            w = float(w)
            if not -1e-12 <= w < np.inf:  # NaN fails both
                raise ValidationError(f"negative or non-finite weight {w} for sequence {seq}")
            if w > 0.0:
                weights[seq] = w
        total = sum(weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"weights sum to {total!r}, expected 1")
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class OptimalitySystem:
    """Vectorized linear optimality system over the certificate support.

    Column j stacks, for support sequence j: the first check block combined
    with x* times the cross block (t*t rows), the transposed cross block
    combined with x* times the second check block (t*t rows), and the
    period-average balance block (p*t rows).  ``y`` is the unit-mass target;
    the integer-count form scales it by n.
    """

    support: tuple[SequenceTuple, ...]
    x: np.ndarray
    y: np.ndarray
    incidences: np.ndarray  # (m, p, t) treatment incidence of each support sequence

    def y_exact(self, n: int) -> np.ndarray:
        return self.y * n

    def column_index(self) -> dict[SequenceTuple, int]:
        return {s: j for j, s in enumerate(self.support)}


def build_system(cert: OptimalityCertificate, mech: DropoutMechanism) -> OptimalitySystem:
    """Assemble the optimality system for a certificate in stacked products over the support.

    A sequence's check blocks are X'(A-B)Y + (X Bt)'B(Y Bt) for its incidence pairs (X, Y).
    """
    labels = cert.support_array
    if not len(labels):
        raise ValidationError("certificate has empty support")
    t, p, m = cert.t, mech.p, len(labels)
    if labels.shape[1] != p:
        raise ValidationError(f"sequence length {labels.shape[1]} != mechanism periods {p}")
    T, F = incidences(labels, t)
    bt = mk.centering(t)
    th, fh = T @ bt, F @ bt
    tr = lambda a: np.swapaxes(a, 1, 2)
    amb = mech.A - mech.B
    c11 = mk.symmetrize(tr(T) @ amb @ T + tr(th) @ mech.B @ th)
    c12 = tr(T) @ amb @ F + tr(th) @ mech.B @ fh
    c22 = mk.symmetrize(tr(F) @ amb @ F + tr(fh) @ mech.B @ fh)
    block1 = c11 + cert.x_star * c12 @ bt
    block2 = tr(c12) + cert.x_star * c22 @ bt
    block3 = mech.B @ (th + cert.x_star * fh)
    x = np.concatenate([b.reshape(m, -1) for b in (block1, block2, block3)], axis=1)
    x = np.ascontiguousarray(x.T)  # a transposed x takes other BLAS paths in the descent
    y = np.concatenate(
        [
            (cert.y_star / (t - 1)) * bt.ravel(),
            np.zeros(t * t),
            np.zeros(p * t),
        ]
    )
    return OptimalitySystem(support=cert.support, x=x, y=y, incidences=T)


@dataclass(frozen=True)
class ApproximateVerification:
    """Residual of the optimality system at given weights."""

    residual: float
    off_support_mass: float

    @property
    def optimal(self) -> bool:
        return self.residual <= 1e-8 and self.off_support_mass <= 1e-12


def verify_approximate(
    weights: ApproximateDesign | Mapping[SequenceTuple, float],
    cert: OptimalityCertificate,
    mech: DropoutMechanism,
) -> ApproximateVerification:
    """Euclidean residual of the unit-mass optimality system at ``weights``.

    Mass placed outside the certificate support never enters the system; it
    is reported separately as a violation in its own right.
    """
    if isinstance(weights, ApproximateDesign):
        weights = weights.weights
    system = build_system(cert, mech)
    index = system.column_index()
    w = np.zeros(len(system.support))
    off = 0.0
    for seq, value in weights.items():
        seq = validate_sequence(seq, cert.t)
        j = index.get(seq)
        if j is None:
            off += abs(float(value))
        else:
            w[j] = float(value)
    residual = float(np.linalg.norm(system.x @ w - system.y))
    return ApproximateVerification(residual=residual, off_support_mass=off)


@dataclass(frozen=True)
class SearchReport:
    residual: float
    restarts_used: int
    moves: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def _largest_remainder_round(w: np.ndarray, n: int) -> np.ndarray:
    base = np.floor(w).astype(np.int64)
    deficit = int(n - base.sum())
    if deficit > 0:
        frac = w - base
        order = np.lexsort((np.arange(len(w)), -frac))
        base[order[:deficit]] += 1
    return base


class _TransferDescent:
    """Unit-transfer descent in the Gram space of one system.

    Gains come from Q = X'X, computed once, and g = X'r, once per step:
    moving a subject i -> j changes |r|^2 by 2(g_j - g_i) + Q_ii + Q_jj -
    2Q_ij.  Descent applies the best improving single move, else the best
    improving pair, which moves a donor multiset D = {a <= b} to a disjoint
    receiver multiset R = {c <= d} with gain 2(g_R - g_D) + |x_R|^2 +
    |x_D|^2 - 2 x_D.x_R; single moves alone cannot cross the period-balance
    margins where the good integer designs live.  The pair scan covers
    every donor up to ``_PAIR_CAP`` (D, R) entries; above it, it keeps the
    donors whose best single gains out of a and b sum lowest.  From
    ``_PRUNE_FROM`` columns on, a donor is scored only against the
    receivers whose columns its Gram bound leaves (see ``_best_pair``),
    which finds the same pair; narrower supports, and donors left with half
    the columns or more, are scored against every receiver.  Ties
    break on the lowest (i, j) or (D, R) index, i.e. lexicographic sequence
    order.
    """

    _PAIR_BLOCK = 2_000_000  # scratch entries per pair-scan block
    _PAIR_CAP = 2**25  # (D, R) entries scanned before donors are pruned
    # Narrower supports scan faster densely: pruning the 6- to 24-column
    # supports of `sweep --search` too made its median job 22% slower
    # (10 paired runs, 2-core x86).
    _PRUNE_FROM = 32

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x, self.y, q = x, y, x.T @ x
        self.q, self.qd = q, np.diag(q)
        self.q_move = self.qd[:, None] + self.qd[None, :] - 2.0 * q
        np.fill_diagonal(self.q_move, np.inf)
        m = x.shape[1]
        self.ua, self.ub = np.triu_indices(m)
        self.q_pair = self.qd[self.ua] + self.qd[self.ub] + 2.0 * q[self.ua, self.ub]  # |x_a + x_b|^2
        self.q_min = float(q.min())
        self.q_abs = max(float(q.max()), -self.q_min)
        c = np.arange(m)
        self.row_start = c * (2 * m - c - 1) // 2  # triu index of (c, d) is row_start[c] + d
        self.prune = m >= self._PRUNE_FROM

    def run(self, counts: np.ndarray) -> tuple[np.ndarray, float, int]:
        counts = counts.astype(np.int64).copy()
        r = self.x @ counts - self.y
        m, moves = len(counts), 0
        while True:
            obj = float(r @ r)
            tol = -1e-11 * max(1.0, obj)
            g = self.x.T @ r
            gains = self._single_gains(counts, g)
            i, j = divmod(int(np.argmin(gains)), m)
            if gains[i, j] < tol:
                donors, receivers = (i,), (j,)
            else:
                pair = self._best_pair(counts, g, gains, tol)
                if pair is None:
                    return counts, float(np.sqrt(max(obj, 0.0))), moves
                _, donors, receivers = pair
            step = np.bincount(receivers, minlength=m) - np.bincount(donors, minlength=m)
            counts += step
            r += self.x @ step
            moves += len(donors)

    def _single_gains(self, counts, g) -> np.ndarray:
        """(m, m) gains of moving one subject i -> j; inf where infeasible."""
        gains = self.q_move + 2.0 * (g[None, :] - g[:, None])
        gains[counts < 1] = np.inf
        return gains

    def _best_pair(self, counts, g, gains, tol):
        """Best improving (gain, D, R) over disjoint multisets, or None.

        The gain of D = (a, b) -> R = (c, d) is u[c] + u[d] + 2Q_cd + h_D,
        where u[c] = Q_cc + 2g_c - 2(Q_ac + Q_bc) (inf on a and b) and
        h_D = |x_a + x_b|^2 - 2(g_a + g_b).  As Q_cd >= min Q, an improving
        R needs u[c] + u[d] < tol - h_D - 2 min Q, so only the columns with
        u[c] below that minus min u are candidates.  A slack far above the
        rounding of these sums keeps every pair whose scanned gain beats
        tol, and its ties.
        """
        ua, ub = self.ua, self.ub
        donors = np.flatnonzero((counts[ua] >= 1) & (counts[ub] >= 1 + (ua == ub)))
        keep = max(1, self._PAIR_CAP // ua.size)
        if donors.size > keep:
            best_out = gains.min(axis=1)
            score = best_out[ua[donors]] + best_out[ub[donors]]
            donors = np.sort(donors[np.argsort(score, kind="stable")[:keep]])
        g_pair = g[ua] + g[ub]
        h_recv, h_donor = self.q_pair + 2.0 * g_pair, self.q_pair - 2.0 * g_pair
        u_recv = self.qd + 2.0 * g
        # the scanned sums round off by under 1e-13 (|Q| + |g|), far inside this slack
        bound = tol + 1e-9 * (self.q_abs + float(np.abs(g).max())) - 2.0 * self.q_min
        best_val, best = tol, None
        block = max(1, self._PAIR_BLOCK // ua.size)
        for lo in range(0, donors.size, block):
            rows = donors[lo : lo + block]
            a, b, local = ua[rows], ub[rows], np.arange(rows.size)
            s = -2.0 * (self.q[a] + self.q[b])  # -2 x_D.x_c, inf on donor columns
            s[local, a] = s[local, b] = np.inf
            if self.prune:
                u = s + u_recv
                cand = u < ((bound - h_donor[rows]) - u.min(axis=1))[:, None]
                total, recv = self._pruned_rows(s, cand, h_recv)
            else:
                total, recv = self._dense_rows(s, h_recv)
            row_best = total + h_donor[rows]
            j = int(np.argmin(row_best))
            if row_best[j] < best_val:
                c, d = int(ua[recv[j]]), int(ub[recv[j]])
                best_val, best = float(row_best[j]), ((int(a[j]), int(b[j])), (c, d))
        return None if best is None else (best_val, *best)

    def _pruned_rows(self, s, cand, h_recv):
        """``_dense_rows`` for the rows with candidate columns; inf for the rest.

        Per receiver, ``_compact_rows`` holds about four times the scratch
        of ``_dense_rows`` (index arrays besides the totals).  A row with k
        of m columns left has k(k+1)/2 receivers against m(m+1)/2, so from
        2k >= m on, where 4k(k+1) > m(m+1), it is scanned densely, and a
        block's scratch stays that of the dense scan (32 MB at m = 48 and
        240 with k just under m / 2).
        """
        k = cand.sum(axis=1)
        dense = 2 * k >= s.shape[1]
        compact = (k > 0) & ~dense
        total, recv = np.full(len(s), np.inf), np.zeros(len(s), dtype=np.int64)
        if dense.any():
            total[dense], recv[dense] = self._dense_rows(s[dense], h_recv)
        if compact.any():
            total[compact], recv[compact] = self._compact_rows(s[compact], cand[compact], h_recv)
        return total, recv

    def _dense_rows(self, s, h_recv):
        """Each row's lowest receiver total over all multisets, and its index."""
        total = np.take(s, self.ua, axis=1)
        total += np.take(s, self.ub, axis=1)
        total += h_recv
        recv = total.argmin(axis=1)
        return total[np.arange(len(s)), recv], recv

    def _compact_rows(self, s, cand, h_recv):
        """``_dense_rows`` over the multisets of each row's candidate columns."""
        k = cand.sum(axis=1)
        _, cols = np.nonzero(cand)  # ascending columns within a row
        pairs = k * (k + 1) // 2
        first = np.cumsum(pairs) - pairs
        row = np.repeat(np.arange(len(s)), pairs)
        local = np.arange(row.size) - first[row]
        base = (np.cumsum(k) - k)[row]
        pair_j, pair_i = np.tril_indices(int(k.max()))  # i <= j, by j: k columns pair first
        c, d = cols[base + pair_i[local]], cols[base + pair_j[local]]
        recv = self.row_start[c] + d
        total = s[row, c] + s[row, d]
        total += h_recv[recv]
        best = np.minimum.reduceat(total, first)
        # the lowest receiver among each row's ties
        recv = np.minimum.reduceat(np.where(total == best[row], recv, len(h_recv)), first)
        return best, recv


def _margin_greedy_start(rng, incidences: np.ndarray, n: int) -> np.ndarray:
    """Period-uniform start: fill the period/treatment margins greedily.

    Good integer designs are uniform on periods; descent cannot restore
    that balance once lost, so restarts must begin inside (or near) it.
    """
    m, p, t = incidences.shape
    counts = np.zeros(m, dtype=np.int64)
    deficit = np.full((p, t), n / t)
    for _ in range(n):
        scores = np.einsum("spt,pt->s", incidences, deficit)
        ties = np.flatnonzero(scores >= scores.max() - 1e-9)
        j = int(ties[rng.integers(len(ties))])
        counts[j] += 1
        deficit -= incidences[j]
    return counts


def _restart_start(
    restart: int,
    seed: int,
    base: np.ndarray,
    w: np.ndarray,
    incidences: np.ndarray,
    n: int,
) -> np.ndarray:
    """Start counts for one restart.

    Restart 0 is the deterministic rounding; later restarts rotate through
    margin-greedy construction, uniform multinomial draws, and draws guided
    by the continuous solution.
    """
    if restart == 0:
        return base.copy()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, restart))))
    m = len(base)
    family = restart % 3
    if family == 1:
        return _margin_greedy_start(rng, incidences, n)
    if family == 2:
        probs = np.full(m, 1.0 / m)
    else:
        probs = (w / n + 1.0 / m) / 2.0
        probs = probs / probs.sum()
    return rng.multinomial(n, probs).astype(np.int64)


# The descent's dense scratch is about 28 m^2 bytes for m support columns (two
# m x m float arrays, three m(m+1)/2 triangles): 1 GiB admits m up to 6,192.
_DESCENT_SCRATCH = 2**30


def exact_search(
    n: int,
    cert: OptimalityCertificate,
    mech: DropoutMechanism,
    *,
    seed: int = 0,
    restarts: int = 8,
) -> tuple[ExactDesign, SearchReport]:
    """Integer counts on the support minimizing the system residual.

    Pipeline: the symmetric design as one weight per support column, scaled
    to n (an exact zero-residual point of the continuous system),
    largest-remainder rounding with ties to the lowest column index, i.e.
    lexicographic sequence order, then transfer descent; restarts re-run
    the descent from seeded starts that rotate through margin-greedy,
    uniform and solution-guided ones.  Deterministic for fixed (seed,
    restarts); the winner is picked by (residual, restart index), so the
    result never does worse than the descent from the plain rounding.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if min(seed, restarts) < 0:
        raise ValidationError(f"need seed, restarts >= 0, got {seed}, {restarts}")
    if cert.y_star <= 0.0:
        raise ValidationError(
            "the mechanism leaves no within-subject information (y* = 0: all mass "
            "on stay length 1), so its optimality system is zero and has no design to search"
        )
    m = sum(b.size for b in cert.blocks)  # the support's width, without listing it
    if 28 * m * m > _DESCENT_SCRATCH:
        raise BudgetExceededError(
            f"a descent over {m} support sequences needs {28 * m * m / 2**30:.3g} GiB "
            f"of scratch, over its cap of {_DESCENT_SCRATCH / 2**30:g} GiB"
        )
    system = build_system(cert, mech)
    w = n * _symmetric_weights(cert, mech)
    base = _largest_remainder_round(w, n)
    engine = _TransferDescent(system.x, system.y_exact(n))

    best_counts: Optional[np.ndarray] = None
    best_resid = np.inf
    best_moves = 0
    for restart in range(restarts + 1):
        start = _restart_start(restart, seed, base, w, system.incidences, n)
        counts, resid, moves = engine.run(start)
        if resid < best_resid - 1e-15:
            best_counts, best_resid, best_moves = counts, resid, moves

    assert best_counts is not None
    design = ExactDesign(
        p=mech.p,
        t=cert.t,
        n=n,
        counts={seq: int(c) for seq, c in zip(system.support, best_counts) if c > 0},
    )
    report = SearchReport(
        residual=best_resid, restarts_used=restarts, moves=best_moves, seed=seed
    )
    return design, report


def symmetric_solve(cert: OptimalityCertificate, mech: DropoutMechanism) -> ApproximateDesign:
    """The symmetric design of ``_symmetric_weights`` by sequence, zero weights dropped."""
    w = _symmetric_weights(cert, mech)
    return ApproximateDesign(p=mech.p, t=cert.t, weights=dict(zip(cert.support, w.tolist())))


def _symmetric_weights(cert: OptimalityCertificate, mech: DropoutMechanism) -> np.ndarray:
    """One weight per row of ``cert.support_array``: block weights w solving
    sum_b w_b * q'_b(x*) = 0 with sum_b w_b = 1 and w >= 0, each spread
    uniformly over its block's members.  Infeasible when every block slope
    lies more than 1e-9 * max(1, y*) from 0 on one side.
    """
    x = cert.x_star
    slopes = [q_coeffs(b.representative, mech, cert.t).derivative(x) for b in cert.blocks]
    w = _balanced_weights(np.array(slopes), 1e-9 * max(1.0, abs(cert.y_star)))
    return (w / [b.size for b in cert.blocks])[cert.support_block]


def _balanced_weights(slopes: np.ndarray, tol: float) -> np.ndarray:
    """Min-distance-to-uniform solution of sum w = 1, sum w*slope = 0, w >= 0.

    Slopes within ``tol`` of 0 count as 0: once every kept block's slope
    does, the kept blocks share the mass uniformly.  Weights within the
    1e-12 feasibility slack of 0 are set to 0 before renormalizing.
    """
    active = np.ones(len(slopes), dtype=bool)
    while True:
        idx = np.flatnonzero(active)
        kept = slopes[idx]
        if np.all(kept > tol) or np.all(kept < -tol):
            raise InfeasibleWeightsError(
                "all block slopes share one strict sign; the balance equation has no "
                "nonnegative solution on these blocks"
            )
        if np.all(np.abs(kept) <= tol):
            w = np.zeros(len(slopes))
            w[idx] = 1.0 / len(idx)
            return w
        a = np.vstack([np.ones(len(idx)), kept])
        b = np.array([1.0, 0.0])
        u = np.full(len(idx), 1.0 / len(idx))
        try:
            lam = np.linalg.solve(a @ a.T, a @ u - b)
        except np.linalg.LinAlgError as exc:
            raise InfeasibleWeightsError("degenerate block slopes") from exc
        w_sub = u - a.T @ lam
        if np.all(w_sub >= -1e-12):
            w = np.zeros(len(slopes))
            w[idx] = np.where(w_sub > 1e-12, w_sub, 0.0)  # clear float noise on zero weights
            w /= w.sum()
            if not isfinite(float(w @ slopes)) or abs(float(w @ slopes)) > 1e-8 * max(
                1.0, float(np.max(np.abs(slopes)))
            ):
                raise InfeasibleWeightsError("balance equation not solvable on given blocks")
            return w
        active[idx[int(np.argmin(w_sub))]] = False
