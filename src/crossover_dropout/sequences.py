"""Treatment-sequence combinatorics.

Sequences are tuples of 1-based treatment labels, one entry per period.
This module enumerates one per relabeling orbit, builds incidence matrices
and handles the relabeling action of treatment permutations (orbits).

Relabeling changes no prefix count statistic, so the certificate solver
works over ``canonical_sequences``, one representative per orbit, and
carries each orbit as a ``SymmetricBlock`` whose members are listed on
demand.  A block lists its members as one (size, p) label array, already in
lexicographic order, and ``format_sequences`` renders such an array as text
in one numpy pass; no per-sequence Python object is made on either path.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import perm
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BudgetExceededError, ValidationError, as_integers

DEFAULT_ENUM_BUDGET = 10**6

SequenceTuple = tuple[int, ...]


def validate_sequence(s: Sequence[int], t: int) -> SequenceTuple:
    """Check labels lie in 1..t and return the sequence as a tuple."""
    seq = as_integers(s, "sequence labels")
    if len(seq) < 1:
        raise ValidationError("sequence must have at least one period")
    if any(not 1 <= x <= t for x in seq):
        raise ValidationError(f"sequence labels must be in 1..{t}, got {seq}")
    return seq


def check_budget(budget: int, name: str = "budget") -> None:
    """A negative budget is malformed input, not an exhausted one."""
    if budget < 0:
        raise ValidationError(f"{name} must be >= 0, got {budget}")


def canonical_sequences(
    t: int,
    p: int,
    budget: int = DEFAULT_ENUM_BUDGET,
    keep: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """One representative per relabeling orbit of the t**p sequences.

    The representatives are the canonical forms (labels numbered by first
    appearance, at most t of them), as an (R, p) array of 0-based labels in
    lexicographic order.  Each prefix length is checked against ``budget``
    before it is built.  ``keep``, if given, maps the (R, k) prefixes of each
    length k >= 2 to a boolean mask; the prefixes it drops grow no further.
    """
    if t < 2 or p < 2:
        raise ValidationError(f"need t >= 2 and p >= 2, got t={t}, p={p}")
    check_budget(budget)
    reps = np.zeros((1, 1), dtype=np.int64)
    used = np.ones(1, dtype=np.int64)
    for _ in range(1, p):
        # each prefix extends by a label already used or by the next new one
        choices = np.minimum(used + 1, t)
        if choices.sum() > budget:
            raise BudgetExceededError(
                f"canonical sequences of {p} periods on {t} treatments exceed budget {budget}"
            )
        parent = np.repeat(np.arange(len(reps)), choices)
        label = np.arange(len(parent)) - np.repeat(np.cumsum(choices) - choices, choices)
        reps = np.column_stack([reps[parent], label])
        used = np.maximum(used[parent], label + 1)
        if keep is not None:
            mask = keep(reps)
            reps, used = reps[mask], used[mask]
    return reps


def incidences(labels: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """(S, p, t) treatment and carryover incidences of an (S, p) array of 1-based labels:
    a 1 at each period's label, and that shifted down one period."""
    labels = np.asarray(labels)
    s, p = labels.shape
    T = np.zeros((s, p, t))
    T[np.arange(s)[:, None], np.arange(p), labels - 1] = 1.0
    F = np.zeros_like(T)
    F[:, 1:] = T[:, :-1]
    return T, F


def canonical_form(s: Sequence[int], t: int) -> SequenceTuple:
    """Relabel by order of first appearance: the lexicographic orbit minimum."""
    seq = validate_sequence(s, t)
    relabel: dict[int, int] = {}
    out = []
    for x in seq:
        if x not in relabel:
            relabel[x] = len(relabel) + 1
        out.append(relabel[x])
    return tuple(out)


@dataclass(frozen=True)
class SymmetricBlock:
    """Orbit of a sequence under all t! treatment relabelings.

    ``size`` is the number of members, t! / (t - u)! for a representative
    with u distinct labels; a block that states any other size is refused.
    """

    representative: SequenceTuple
    size: int
    t: int

    def __post_init__(self) -> None:
        members = perm(self.t, len(set(validate_sequence(self.representative, self.t))))
        if self.size != members:
            raise ValidationError(
                f"the orbit of {self.representative} under {self.t} treatments has "
                f"{members} members, not {self.size}"
            )

    def member_array(self) -> np.ndarray:
        """Every member as a (size, p) array of 1-based labels, in lexicographic order.

        Each injective map of the u labels of the canonical form into 1..t
        gives one member, and distinct maps give distinct members.  The maps
        grow one label at a time over the free labels in increasing order, so
        they come out in lexicographic order; the canonical form numbers its
        labels by first appearance, so that is also the members' order.
        """
        rep = np.array(canonical_form(self.representative, self.t)) - 1
        maps = np.zeros((1, 0), dtype=np.int64)
        for _ in range(int(rep.max()) + 1):
            free = np.ones((len(maps), self.t), dtype=bool)
            free[np.arange(len(maps))[:, None], maps] = False
            parent, label = np.nonzero(free)
            maps = np.column_stack([maps[parent], label])
        return maps[:, rep] + 1

    def members(self) -> list[SequenceTuple]:
        return list(map(tuple, self.member_array().tolist()))


def symmetric_block(s: Sequence[int], t: int) -> SymmetricBlock:
    """The orbit of ``s``: canonical representative plus orbit size.

    The size is t! / (t - u)! with u the number of distinct labels in ``s``;
    a full orbit listing is never materialized here.
    """
    rep = canonical_form(s, t)
    distinct = len(set(rep))
    return SymmetricBlock(representative=rep, size=perm(t, distinct), t=t)


def parse_sequence(text: str, t: int) -> SequenceTuple:
    """Parse '1234' (single-digit labels) or '10,2,3' (comma-separated)."""
    text = text.strip()
    if not text:
        raise ValidationError("empty sequence string")
    try:
        if "," in text:
            labels = [int(part) for part in text.split(",")]
        else:
            labels = [int(ch) for ch in text]
    except ValueError as exc:
        raise ValidationError(f"cannot parse sequence {text!r}") from exc
    return validate_sequence(labels, t)


def format_sequences(seqs: np.ndarray, t: int, before: str = "", after: str = "\n") -> str:
    """Every row of an (N, p) array of 1-based labels as text, each between
    ``before`` and ``after``, as one string: compact digits for t <= 9,
    comma-separated labels otherwise.

    One numpy pass: each label becomes a fixed-width slot of its digits and,
    except in the last period, the separator, padded with NUL bytes that
    are deleted from the finished buffer.
    """
    seqs = np.asarray(seqs)
    n, p = seqs.shape
    if n and (seqs.min() < 1 or seqs.max() > t):
        raise ValidationError(f"sequence labels must be in 1..{t}")
    sep = "" if t <= 9 else ","
    slot = len(str(t)) + len(sep)

    def slots(end: str) -> np.ndarray:  # row v: label v's digits and ``end``, NUL-padded
        padded = np.array([f"{label}{end}" for label in range(t + 1)], dtype=f"S{slot}")
        return padded.view(np.uint8).reshape(t + 1, slot)

    head, tail = (np.frombuffer(text.encode("ascii"), np.uint8) for text in (before, after))
    end = len(head) + p * slot
    rows = np.empty((n, end + len(tail)), dtype=np.uint8)
    rows[:, : len(head)] = head
    inner = slots(sep).take(seqs[:, :-1], axis=0)
    rows[:, len(head) : end - slot] = inner.reshape(n, (p - 1) * slot)
    rows[:, end - slot : end] = slots("").take(seqs[:, -1], axis=0)
    rows[:, end:] = tail
    return rows.tobytes().translate(None, b"\0").decode("ascii")
