"""Per-sequence quadratics and the minimax optimality certificate.

Each sequence s gets a strictly convex quadratic q_s(x); the equilibrium of
the game max-over-weights / min-over-x of the weighted average determines
the optimal value y*, the equilibrium point x* and the support set of all
weight-optimal designs.  Three families of mechanisms admit closed forms
for (x*, y*, support); everything else is solved numerically by minimizing
h(x) = max_s q_s(x), which is convex and piecewise quadratic with positive
curvature, exactly: a walk along its upper envelope from x = -inf, piece by
piece, stops at the first vertex or crossing where the slope turns >= 0.
The quadratics have one formula: ``q_coeffs`` is one row of
``q_coeff_arrays`` but for the rounding of a chunk's matrix products in the
last bit, so the symmetric design's block slopes keep ``q_coeffs``.

q_s depends on s only through prefix counts, which relabeling treatments
does not change, so all of this runs over one representative per orbit and
a certificate stores its support as symmetric blocks.  Its members are
listed by one walk over the blocks' representatives (``member_chunks``),
which yields them already sorted, a chunk at a time: ``support_array`` and
``support_block`` (each row's block position) are the chunks joined, and
``dump`` writes the JSON text chunk by chunk, so the whole listing is never
held as text (from slices of ``support_array`` once that has been read).
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence, TextIO

import numpy as np

from .dropout_model import DropoutMechanism
from .errors import BudgetExceededError, ValidationError
from .sequences import (
    CHUNK_ROWS,
    DEFAULT_ENUM_BUDGET,
    SequenceTuple,
    SymmetricBlock,
    canonical_sequences,
    check_budget,
    format_sequences,
    member_chunks,
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


def _prefix_coefficients(seqs: np.ndarray, alpha: np.ndarray, t: int) -> np.ndarray:
    """Rows (q11, q12, q22) of the quadratics of an (R, p) array of 0-based labels.

    The k-th period adds, with weight alpha_k, terms of the prefix counts of
    s[:k]: xi = sum_i f_i**2 over the treatment counts f, the adjacent
    repeats rho and the count f_last of period k's treatment.
    """
    n_seq, p = seqs.shape
    onehot = np.zeros((n_seq, p, t))
    onehot[np.arange(n_seq)[:, None], np.arange(p)[None, :], seqs] = 1.0
    counts = np.cumsum(onehot, axis=1)  # f_{s_k, i}
    xi = np.sum(counts**2, axis=2)
    rho = np.zeros_like(xi)
    rho[:, 1:] = np.cumsum(seqs[:, 1:] == seqs[:, :-1], axis=1)
    f_last = np.take_along_axis(counts, seqs[:, :, None], axis=2)[:, :, 0]
    ks = np.arange(1, p + 1, dtype=float)
    per_k11 = ks - xi / ks
    per_k12 = (ks * rho + f_last - xi) / ks
    per_k22 = (ks * t - 1.0) * (ks - 1.0) / (ks * t) - (xi - 2.0 * f_last + 1.0) / ks
    return np.stack([per_k11 @ alpha, per_k12 @ alpha, per_k22 @ alpha])


def q_coeffs(s: Sequence[int], mech: DropoutMechanism, t: int) -> QCoefficients:
    """Quadratic coefficients of one sequence: its ``q_coeff_arrays`` row but for the last bit.

    Equal to traces built on the mechanism matrix A (acceptance 8e, and the
    tests of the ``check_matrices`` oracle).
    """
    seq = validate_sequence(s, t)
    if len(seq) != mech.p:
        raise ValidationError(f"sequence length {len(seq)} != mechanism periods {mech.p}")
    q = _prefix_coefficients(np.array([seq]) - 1, mech.alpha, t)
    return QCoefficients(*map(float, q[:, 0]))


def q_coeff_arrays(
    mech: DropoutMechanism, t: int, budget: int = DEFAULT_ENUM_BUDGET
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized coefficients over one representative per relabeling orbit.

    Returns (seqs, q11, q12, q22) with seqs the (R, p) array of 0-based
    canonical sequences from ``canonical_sequences``, in lexicographic
    order.  Every member of an orbit has its representative's coefficients.
    """
    seqs = canonical_sequences(t, mech.p, budget=budget)
    chunk = max(1, (1 << 22) // (mech.p * t))  # keep the one-hot tensor small
    q = np.concatenate(
        [
            _prefix_coefficients(seqs[lo : lo + chunk], mech.alpha, t)
            for lo in range(0, len(seqs), chunk)
        ],
        axis=1,
    )
    return seqs, q[0], q[1], q[2]


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

    def _chunks(self):
        if "_listing" in self.__dict__:  # already joined: slice it rather than walk again
            rows, block = self._listing
            return ((rows[lo : lo + CHUNK_ROWS], block[lo : lo + CHUNK_ROWS])
                    for lo in range(0, len(rows), CHUNK_ROWS))
        return member_chunks([b.representative for b in self.blocks], self.t)

    @cached_property
    def _listing(self) -> tuple[np.ndarray, np.ndarray]:
        rows, block = zip(*self._chunks())
        listing = np.concatenate(rows, dtype=np.int64), np.concatenate(block)
        listing[0].flags.writeable = listing[1].flags.writeable = False
        return listing

    @property
    def support_array(self) -> np.ndarray:
        """Every block member as one read-only (S, p) array of 1-based labels, sorted."""
        return self._listing[0]

    @property
    def support_block(self) -> np.ndarray:
        """For each row of ``support_array``, its block's position in ``blocks``."""
        return self._listing[1]

    @cached_property
    def support(self) -> tuple[SequenceTuple, ...]:
        """Every member of every block, in lexicographic order."""
        return tuple(map(tuple, self.support_array.tolist()))

    def dump(self, stream: TextIO) -> None:
        """Write sorted-key JSON with a two-space indent to ``stream``; the
        support strings are rendered and written one chunk at a time."""
        payload = {"x_star": self.x_star, "y_star": self.y_star, "regime": self.regime,
                   "t": self.t, "support": [], "mechanism": self.mechanism.to_dict()}
        head, tail = json.dumps(payload, sort_keys=True, indent=2).split('"support": []')
        stream.write(head + '"support": [')
        lead = 1  # each string opens with the comma that ends the one before, but the first
        for rows, _ in self._chunks():
            stream.write(format_sequences(rows, self.t, ',\n    "', '"')[lead:])
            lead = 0
        stream.write("\n  ]" + tail)

    def dumps(self) -> str:
        """The text ``dump`` writes, as one string."""
        out = io.StringIO()
        self.dump(out)
        return out.getvalue()


def _envelope_minimizer(q11: np.ndarray, q12: np.ndarray, q22: np.ndarray) -> float:
    """Minimizer of h(x) = max_s q_s(x), by a walk along its upper envelope.

    The walk starts at x = -inf on the piece on top there: the largest q22,
    then the smallest q12, then the largest q11.  On piece i at x, piece j
    overtakes q_i at the root (-b + sqrt(disc)) / 2a of q_j - q_i, for
    either sign of a, taken in the form without cancellation.  If the vertex
    of q_i comes no later than the first such root after x, it is the
    minimizer.  Otherwise the walk moves to that root and onto the piece
    with the largest slope there, then the largest q22, among every piece
    within 1e-12 (relative) of h there, and stops if that slope is >= 0.
    x grows at every step and takes values in a finite set of roots, so the
    walk ends.
    """
    top = q22 == q22.max()
    top &= q12 == q12[top].min()
    i = int(np.flatnonzero(top)[np.argmax(q11[top])])
    x = -np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            a = q22 - q22[i]
            b = 2.0 * (q12 - q12[i])
            c = q11 - q11[i]
            root = np.sqrt(b * b - 4.0 * a * c)  # nan where q_j never reaches q_i
            up = b > 0.0
            root = np.where(up, 2.0 * c, root - b) / np.where(up, -b - root, 2.0 * a)
            cross = float(np.min(root, where=root > x, initial=np.inf))
            vertex = float(-q12[i] / q22[i])
            if vertex <= cross:
                return vertex
            x = cross
            vals = q11 + 2.0 * q12 * x + q22 * x * x
            peak = vals.max()
            near = np.flatnonzero(vals >= peak - 1e-12 * abs(peak))
            slopes = 2.0 * q12[near] + 2.0 * q22[near] * x
            pick = np.lexsort((q22[near], slopes))[-1]
            i = int(near[pick])
            if slopes[pick] >= 0.0:
                return x


def _check_support_size(blocks: Sequence[SymmetricBlock], budget: int) -> None:
    size = sum(b.size for b in blocks)
    if size > budget:
        raise BudgetExceededError(f"the support lists {size} sequences, over budget {budget}")


def solve_minimax(
    mech: DropoutMechanism, t: int, budget: int = DEFAULT_ENUM_BUDGET
) -> OptimalityCertificate:
    """Numeric equilibrium over one representative per relabeling orbit.

    h(x) = max_s q_s(x) is convex and piecewise quadratic, and
    ``_envelope_minimizer`` finds its minimizer x* exactly by a walk along
    the upper envelope; y* = h(x*).  When no q_s has curvature (all mass on
    stay length 1, where every q_s is 0) x* is 0.  The support collects
    every orbit within 1e-9 max(1, |y*|) of y*.  ``budget`` caps both the
    representatives enumerated and the support sequences the certificate
    would list (the sum of its block sizes).
    """
    seqs, q11, q12, q22 = q_coeff_arrays(mech, t, budget=budget)
    best_x = _envelope_minimizer(q11, q12, q22) if np.any(q22 > 0) else 0.0
    vals = q11 + 2.0 * q12 * best_x + q22 * best_x * best_x
    best_y = float(vals.max())
    tol = 1e-9 * max(1.0, abs(best_y))
    blocks = tuple(SymmetricBlock(row, t) for row in (seqs[vals >= best_y - tol] + 1).tolist())
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

    # + 0.0 turns a vertex -0.0 into 0.0
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
    return tuple(SymmetricBlock(row, t) for row in (reps + 1).tolist())


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
                blocks = (SymmetricBlock(re_seq, t),)
                if not boundary:
                    blocks += (SymmetricBlock(range(1, p + 1), t),)
                regime = REGIME_II_BOUNDARY if boundary else REGIME_II
                return OptimalityCertificate(float(kink), float(y_star), blocks, regime, t, mech)
            if p >= 3 and kink < x0 < 1.0 / (p - 2):
                return OptimalityCertificate(
                    float(x0),
                    float(coeffs.value(x0)),
                    (SymmetricBlock(re_seq, t),),
                    REGIME_III,
                    t,
                    mech,
                )

    return None
