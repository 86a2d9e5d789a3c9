"""Per-sequence quadratics and the minimax optimality certificate.

Each sequence s gets a strictly convex quadratic q_s(x); the equilibrium of
the game max-over-weights / min-over-x of the weighted average determines
the optimal value y*, the equilibrium point x* and the support set of all
weight-optimal designs.  Three families of mechanisms admit closed forms
for (x*, y*, support); everything else is solved numerically by minimizing
h(x) = max_s q_s(x), which is convex and piecewise quadratic with positive
curvature.

q_s depends on s only through prefix counts, which relabeling treatments
does not change, so all of this runs over one representative per orbit and
a certificate stores its support as symmetric blocks.  When the support is
first read, the blocks' member arrays, each already sorted, are merged into
one sorted (S, p) label array, ``support_array``; the sequence tuples and
the strings of ``to_dict`` are made from that array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .dropout_model import DropoutMechanism
from .errors import BudgetExceededError, ValidationError
from .sequences import (
    DEFAULT_ENUM_BUDGET,
    SequenceTuple,
    SymmetricBlock,
    canonical_sequences,
    check_budget,
    format_sequences,
    prefix_stats,
    symmetric_block,
    validate_sequence,
)

REGIME_I = "closed_form_i"
REGIME_II = "closed_form_ii"
REGIME_II_BOUNDARY = "closed_form_ii_boundary"
REGIME_III = "closed_form_iii"
REGIME_NUMERIC = "numeric"


class QCoefficients(NamedTuple):
    """Coefficients of q_s(x) = q11 + 2 q12 x + q22 x**2."""

    q11: float
    q12: float
    q22: float

    def value(self, x: float) -> float:
        return self.q11 + 2.0 * self.q12 * x + self.q22 * x * x

    def derivative(self, x: float) -> float:
        return 2.0 * self.q12 + 2.0 * self.q22 * x


def q_coeffs(s: Sequence[int], mech: DropoutMechanism, t: int) -> QCoefficients:
    """Quadratic coefficients of one sequence under a mechanism.

    Assembled from prefix count statistics; the k-th period contributes with
    weight alpha_k.  Cross-checkable against the trace definition built on
    the mechanism matrix A (see information.check-matrices tests).
    """
    seq = validate_sequence(s, t)
    if len(seq) != mech.p:
        raise ValidationError(f"sequence length {len(seq)} != mechanism periods {mech.p}")
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


def q_derivative(s: Sequence[int], mech: DropoutMechanism, t: int, x: float) -> float:
    """d/dx of q_s at x, i.e. 2 q12 + 2 q22 x."""
    return q_coeffs(s, mech, t).derivative(x)


def q_coeff_arrays(
    mech: DropoutMechanism, t: int, budget: int = DEFAULT_ENUM_BUDGET
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized coefficients over one representative per relabeling orbit.

    Returns (seqs, q11, q12, q22) with seqs the (R, p) array of 0-based
    canonical sequences from ``canonical_sequences``, in lexicographic
    order.  Every member of an orbit has its representative's coefficients.
    """
    p = mech.p
    seqs = canonical_sequences(t, p, budget=budget)
    n_seq = seqs.shape[0]
    q11 = np.zeros(n_seq)
    q12 = np.zeros(n_seq)
    q22 = np.zeros(n_seq)
    chunk = max(1, (1 << 22) // (p * t))  # keep the one-hot tensor small
    ks = np.arange(1, p + 1, dtype=float)
    alpha = mech.alpha
    for lo in range(0, n_seq, chunk):
        sub = seqs[lo : lo + chunk]
        onehot = np.zeros((sub.shape[0], p, t))
        rows = np.arange(sub.shape[0])[:, None]
        cols = np.arange(p)[None, :]
        onehot[rows, cols, sub] = 1.0
        counts = np.cumsum(onehot, axis=1)  # f_{s_k, i}
        xi = np.sum(counts**2, axis=2)
        repeats = np.zeros_like(xi)
        repeats[:, 1:] = np.cumsum(sub[:, 1:] == sub[:, :-1], axis=1)
        f_last = np.take_along_axis(counts, sub[:, :, None], axis=2)[:, :, 0]
        per_k11 = ks - xi / ks
        per_k12 = (ks * repeats + f_last - xi) / ks
        per_k22 = (ks * t - 1.0) * (ks - 1.0) / (ks * t) - (xi - 2.0 * f_last + 1.0) / ks
        q11[lo : lo + chunk] = per_k11 @ alpha
        q12[lo : lo + chunk] = per_k12 @ alpha
        q22[lo : lo + chunk] = per_k22 @ alpha
    return seqs, q11, q12, q22


@dataclass(frozen=True)
class OptimalityCertificate:
    """Equilibrium (x*, y*) with the support of weight-optimal designs.

    The support is stored as its symmetric blocks, sorted by representative.
    """

    x_star: float
    y_star: float
    blocks: tuple[SymmetricBlock, ...]
    regime: str
    t: int
    mechanism: DropoutMechanism

    @cached_property
    def support_array(self) -> np.ndarray:
        """Every member of every block as one read-only (S, p) array of
        1-based labels, in lexicographic order."""
        out = np.concatenate([b.member_array() for b in self.blocks])
        # lexsort is exact for any p; on keys of the smallest label type each
        # of its passes is a radix sort
        out = out[np.lexsort(out.T[::-1].astype(np.min_scalar_type(self.t)))]
        out.flags.writeable = False
        return out

    @cached_property
    def support(self) -> tuple[SequenceTuple, ...]:
        """Every member of every block, in lexicographic order."""
        return tuple(map(tuple, self.support_array.tolist()))

    def to_dict(self, with_support: bool = True) -> dict:
        out = {
            "x_star": self.x_star,
            "y_star": self.y_star,
            "regime": self.regime,
            "t": self.t,
        }
        if with_support:
            out["support"] = format_sequences(self.support_array, self.t).splitlines()
        out["mechanism"] = self.mechanism.to_dict()
        return out


def _h_values(q11: np.ndarray, q12: np.ndarray, q22: np.ndarray, x: float) -> np.ndarray:
    return q11 + 2.0 * q12 * x + q22 * x * x


def _golden_section(fun, lo: float, hi: float, tol: float) -> float:
    """Minimize a strictly quasiconvex function on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


def _check_support_size(blocks: Sequence[SymmetricBlock], budget: int) -> None:
    size = sum(b.size for b in blocks)
    if size > budget:
        raise BudgetExceededError(f"the support lists {size} sequences, over budget {budget}")


def solve_minimax(
    mech: DropoutMechanism,
    t: int,
    budget: int = DEFAULT_ENUM_BUDGET,
    tol_support: Optional[float] = None,
) -> OptimalityCertificate:
    """Numeric equilibrium over one representative per relabeling orbit.

    Minimizes h(x) = max_s q_s(x) by golden-section search, then polishes
    the minimizer with exact vertex/crossing candidates from the active set.
    The support collects every orbit within ``tol_support`` of the peak.
    ``budget`` caps both the representatives enumerated and the support
    sequences the certificate would list (the sum of its block sizes).
    """
    seqs, q11, q12, q22 = q_coeff_arrays(mech, t, budget=budget)
    pos = q22 > 0
    if not pos.any():
        # No curvature anywhere: all mass drops after one period and every q_s is 0.
        best_x, best_y = 0.0, float(np.max(q11))
    else:
        x_max = 2.0 + float(np.max(np.abs(q12[pos]) / q22[pos]))

        def h(x: float) -> float:
            return float(np.max(_h_values(q11, q12, q22, x)))

        x_hat = _golden_section(h, -x_max, x_max, tol=1e-6 * max(1.0, x_max))
        width = 2e-6 * max(1.0, x_max)
        x_hat = _golden_section(
            h, x_hat - width, x_hat + width, tol=1e-15 * max(1.0, abs(x_hat))
        )
        y_hat = h(x_hat)

        # Polish: the true minimizer is either a vertex of an active parabola or
        # a crossing of two active parabolas with slopes of opposite sign.  The
        # golden-section point sits in a plateau of width ~sqrt(eps), so analytic
        # candidates matching its value within float noise are preferred.
        vals = _h_values(q11, q12, q22, x_hat)
        act_tol = 1e-6 * max(1.0, abs(y_hat))
        active = np.flatnonzero(vals >= y_hat - act_tol)
        slopes = 2.0 * q12[active] + 2.0 * q22[active] * x_hat
        order = np.argsort(slopes)
        neg_side = active[order[:16]]
        pos_side = active[order[-16:]]
        candidates: list[float] = []
        for i in active if len(active) <= 4096 else np.concatenate([neg_side, pos_side]):
            if q22[i] > 0:
                candidates.append(float(-q12[i] / q22[i]))
        for i in neg_side:
            for j in pos_side:
                if i == j:
                    continue
                a = q22[i] - q22[j]
                b = 2.0 * (q12[i] - q12[j])
                c = q11[i] - q11[j]
                if abs(a) < 1e-15:
                    if abs(b) > 1e-15:
                        candidates.append(float(-c / b))
                    continue
                disc = b * b - 4.0 * a * c
                if disc < 0:
                    continue
                root = np.sqrt(disc)
                candidates.append(float((-b + root) / (2.0 * a)))
                candidates.append(float((-b - root) / (2.0 * a)))
        candidates = sorted(x for x in set(candidates) if -x_max <= x <= x_max)
        cand_vals = [h(x) for x in candidates]
        floor = min([y_hat] + cand_vals)
        snap = 32.0 * np.finfo(float).eps * max(1.0, abs(floor))
        close = [
            (y, abs(x - x_hat), x) for x, y in zip(candidates, cand_vals) if y <= floor + snap
        ]
        if close:
            # prefer the analytic point: exact where value comparison is flat
            _, _, best_x = min(close)
            best_y = min(y_hat, h(best_x))
        else:
            best_x, best_y = x_hat, y_hat

    if tol_support is None:
        tol_support = 1e-9 * max(1.0, abs(best_y))
    vals = _h_values(q11, q12, q22, best_x)
    blocks = tuple(symmetric_block(row + 1, t) for row in seqs[vals >= best_y - tol_support])
    _check_support_size(blocks, budget)

    regime = REGIME_NUMERIC
    try:
        closed = closed_form(mech, t, budget=budget)
    except BudgetExceededError:  # a closed-form support over budget cannot be this one
        closed = None
    if (
        closed is not None
        and abs(closed.x_star - best_x) <= 1e-9
        and abs(closed.y_star - best_y) <= 1e-9 * max(1.0, abs(best_y))
        and closed.blocks == blocks
    ):
        regime = closed.regime

    # + 0.0 turns a -0.0 (whichever signed zero the candidate set kept) into 0.0
    return OptimalityCertificate(float(best_x) + 0.0, float(best_y), blocks, regime, t, mech)


# -- closed forms ---------------------------------------------------------------


def _balanced_blocks(mech: DropoutMechanism, t: int, budget: int) -> tuple[SymmetricBlock, ...]:
    """Blocks whose every prefix of length >= m has treatment counts within 1.

    Relabeling permutes the counts, so the condition holds for a whole orbit
    or for none of it.  Canonical prefixes grow one period at a time, and
    from length m on the unbalanced ones are dropped before they grow.
    """

    def balanced(prefixes: np.ndarray) -> np.ndarray:
        if prefixes.shape[1] < mech.m:
            return np.ones(len(prefixes), dtype=bool)
        counts = np.sum(prefixes[:, :, None] == np.arange(t), axis=1)
        return np.ptp(counts, axis=1) <= 1

    reps = canonical_sequences(t, mech.p, budget=budget, keep=balanced)
    return tuple(symmetric_block(row + 1, t) for row in reps)


def closed_form(
    mech: DropoutMechanism, t: int, budget: int = DEFAULT_ENUM_BUDGET
) -> Optional[OptimalityCertificate]:
    """Certificate from one of the three closed-form regimes, if any applies.

    Returns None when no regime precondition holds; that is a value, not an
    error.  ``budget`` caps, as in ``solve_minimax``, both the canonical
    prefixes grown at each length and the support sequences the certificate
    would list.  Regime tags:

    * ``closed_form_i``: equilibrium at x* = 0 with balanced-count support;
    * ``closed_form_ii``: x* = 1/(p-1), support = repeat-last + all-distinct
      blocks (boundary variant: repeat-last only);
    * ``closed_form_iii``: x* at the vertex of the repeat-last quadratic.
    """
    check_budget(budget)
    cert = _closed_form(mech, t, budget)
    if cert is not None:
        _check_support_size(cert.blocks, budget)
    return cert


def _closed_form(mech: DropoutMechanism, t: int, budget: int) -> Optional[OptimalityCertificate]:
    p, m = mech.p, mech.m
    alpha = mech.alpha

    if m > t:
        r = [(k - 1) % t + 1 for k in range(1, p + 1)]
        crit = sum(
            alpha[k - 1] * (k * (m * t - t * t + 1 - k) + t - r[k - 1] * (t - r[k - 1] + 1))
            for k in range(m, p + 1)
        )
        if crit >= -1e-12 * max(1.0, sum(abs(alpha))):
            y_star = sum(
                alpha[k - 1] * (k * (1.0 - 1.0 / t) - r[k - 1] * (t - r[k - 1]) / (k * t))
                for k in range(m, p + 1)
            )
            return OptimalityCertificate(
                0.0, float(y_star), _balanced_blocks(mech, t, budget), REGIME_I, t, mech
            )

    # Regimes (ii) and (iii) hinge on where the repeat-last quadratic has its
    # vertex x0: at or left of the kink 1/(p-1) the kink is the equilibrium
    # and the all-distinct block joins the support; inside (1/(p-1), 1/(p-2))
    # the vertex itself is the equilibrium and the support is repeat-last only.
    if p - 1 <= t and p >= 2:
        re_seq = tuple(range(1, p)) + (p - 1,)
        coeffs = q_coeffs(re_seq, mech, t)
        if coeffs.q22 > 0.0:
            x0 = -coeffs.q12 / coeffs.q22
            kink = 1.0 / (p - 1)
            boundary = abs(x0 - kink) <= 1e-12 * max(1.0, kink)
            if p <= t and (x0 <= kink or boundary):
                y_star = sum(
                    alpha[k - 1]
                    * (k - 1)
                    * (1.0 - (2.0 * p - 1.0 - k + 1.0 / t) / (k * (p - 1.0) ** 2))
                    for k in range(m, p + 1)
                )
                # repeat-last sorts before all-distinct (1, ..., p)
                blocks = (symmetric_block(re_seq, t),)
                if not boundary:
                    blocks += (symmetric_block(range(1, p + 1), t),)
                regime = REGIME_II_BOUNDARY if boundary else REGIME_II
                return OptimalityCertificate(float(kink), float(y_star), blocks, regime, t, mech)
            if p >= 3 and kink < x0 < 1.0 / (p - 2):
                return OptimalityCertificate(
                    float(x0),
                    float(coeffs.value(x0)),
                    (symmetric_block(re_seq, t),),
                    REGIME_III,
                    t,
                    mech,
                )

    return None
