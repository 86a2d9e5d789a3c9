"""Treatment-sequence combinatorics.

Sequences are tuples of 1-based treatment labels, one entry per period.
This module enumerates one per relabeling orbit, builds incidence matrices
and handles the relabeling action of treatment permutations (orbits).

Relabeling changes no prefix count statistic, so the certificate solver
works over ``canonical_sequences``, one representative per orbit, and
carries each orbit as a ``SymmetricBlock`` whose members are listed on
demand.  ``member_chunks`` lists the members of any set of blocks by one
walk over a trie of their representatives, already in lexicographic order,
as (rows, block) label arrays of at most ``CHUNK_ROWS`` rows, and
``format_sequences`` renders such an array as text in one numpy pass; no
per-sequence Python object is made on either path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import perm
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import BudgetExceededError, ValidationError, as_integers

DEFAULT_ENUM_BUDGET = 10**6

# rows per array that ``member_chunks`` yields; it grows every period this many rows at a time
CHUNK_ROWS = 1 << 13

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

    Any member builds the block: it keeps the orbit's canonical form as
    ``representative``, so blocks of one orbit compare equal, and ``size``
    is the number of members, t! / (t - u)! for u distinct labels.
    """

    representative: SequenceTuple
    t: int
    size: int = field(init=False)

    def __post_init__(self) -> None:
        rep = canonical_form(self.representative, self.t)
        object.__setattr__(self, "representative", rep)
        object.__setattr__(self, "size", perm(self.t, max(rep)))

    def member_array(self) -> np.ndarray:
        """Every member as a (size, p) array of 1-based labels, in lexicographic
        order: the one-block case of ``member_chunks``."""
        chunks = [rows for rows, _ in member_chunks([self.representative], self.t)]
        return np.concatenate(chunks, dtype=np.int64)

    def members(self) -> list[SequenceTuple]:
        return list(map(tuple, self.member_array().tolist()))


def member_chunks(
    representatives: Sequence[SequenceTuple], t: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every member of the blocks of these canonical forms, in lexicographic order.

    Yields (rows, block) pairs: an (n, p) array of 1-based labels and, for
    each row, its block's position in ``representatives``; every pair but
    the last has ``CHUNK_ROWS`` rows.  Label prefixes grow one period at a
    time over a trie of the representatives, whose nodes are canonical
    prefixes.  A prefix grows by label l only when l's canonical index (its
    first-appearance number, or the next new number if l is unused)
    continues some representative.  Each prefix grows by increasing labels,
    so the rows come out sorted.  Every period is grown ``CHUNK_ROWS``
    children at a time, and a prefix costs O(p) beyond its children, so
    the walk takes O(S p) time and memory for S members at any t: while
    t <= 2 min(p, t) a prefix scans all t labels, and past that only the
    runs between its used labels.
    """
    reps = np.array(representatives, dtype=np.intp) - 1
    p = reps.shape[1]
    dtype = np.min_scalar_type(t)
    # a prefix: its 1-based labels, its trie node, and the 0-based label it
    # numbers by each canonical index (t where the index is unused)
    rows, node = np.zeros((1, 0), dtype), np.zeros(1, np.intp)
    seen = np.full((1, min(p, t)), t, dtype)
    children = _label_rows if t <= 2 * min(p, t) else _used_label_runs
    for k, edges in enumerate(_trie(reps, t)):
        chunks = _grow(rows, node, seen, edges, t, children, last=k + 1 == p)
        if k + 1 < p:
            rows, node, seen = (np.concatenate(part) for part in zip(*chunks))
    yield from chunks


def _trie(reps: np.ndarray, t: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The trie of these 0-based canonical forms, one (table, count, used)
    triple per depth k: ``table[node, c]`` is the node of depth k + 1 that
    canonical index c leads to from a node of depth k, or -1 (the leaves
    are positions in ``reps``); ``count[node]`` is how many labels those
    edges take from one prefix at the node, and ``used[node]`` how many
    distinct labels the prefix holds."""
    n, p = reps.shape
    node, used, layers = np.zeros(n, dtype=np.intp), np.zeros(1, dtype=np.intp), []
    for k in range(p):
        edge, child = np.unique(node * p + reps[:, k], return_inverse=True)
        parent, c = np.divmod(edge, p)
        # the edge of the next new index takes every label the prefix has not used
        weight = np.where(c == used[parent], t - used[parent], 1)
        count = np.bincount(parent, weight, len(used)).astype(np.intp)
        table = np.full((len(used), p), -1, dtype=np.intp)
        table[node, reps[:, k]] = child if k + 1 < p else np.arange(n)
        layers.append((table, count, used))
        node, used = child, np.maximum(used[parent], c + 1)
    return layers


def _grow(rows, node, seen, edges, t, children, last):
    """The children of these sorted prefixes, in order, in chunks of
    ``CHUNK_ROWS`` rows but the last, as (rows, node) pairs if ``last``,
    else as (rows, node, seen) triples; each chunk lists by ``children``
    only the prefixes whose children it holds."""
    _, count, used = edges
    count, used = count[node], used[node]
    end = np.cumsum(count)
    for lo in range(0, int(end[-1]), CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, int(end[-1]))
        first, final = np.searchsorted(end, [lo, hi - 1], side="right")
        part = slice(first, final + 1)
        skip = lo - (end[first] - count[first])
        keep = slice(skip, skip + hi - lo)
        listed = children(node[part], seen[part], edges, t)
        parent, label, child, fresh = (a[keep] for a in listed)
        grown = _extend(rows[part], parent, label)
        if last:
            yield grown, child
            continue
        known = seen[part][parent]
        fresh = np.flatnonzero(fresh)
        known[fresh, used[part][parent[fresh]]] = label[fresh]  # the next new index
        yield grown, child, known


def _label_rows(node, seen, edges, t):
    """Every child of these prefixes, sorted, as (parent, 0-based label,
    node, through the new-index edge or not) arrays, from one row per
    prefix of every label's canonical index: its own if used, else the
    next new one."""
    table, _, used = edges
    n, w = seen.shape
    u = used[node]
    code = np.empty((n, t + 1), dtype=np.intp)
    code[:] = u[:, None]
    # each index's label gets that index; an unused index writes into column t
    at = np.arange(0, code.size, t + 1)[:, None] + seen
    code.ravel()[at.ravel()] = np.tile(np.arange(w), n)
    code = code[:, :t]
    child = table.take(node[:, None] * table.shape[1] + code)
    hit = np.flatnonzero(child >= 0)
    parent = hit // t
    return parent, hit - parent * t, child.ravel()[hit], code.ravel()[hit] == u[parent]


def _used_label_runs(node, seen, edges, t):
    """The children ``_label_rows`` lists, from runs of labels: per prefix,
    in label order, the unused labels below each used label (through the
    new-index edge) and then that used label (through its own index's
    edge)."""
    table, _, used = edges
    n, w = seen.shape
    key = np.sort(seen.astype(np.intp) * w + np.arange(w), axis=1)
    label, code = np.divmod(key, w)  # used labels in increasing order, then t; their indices
    base = node * table.shape[1]
    # run (prefix, j, 0) is the unused labels from start up to label j, (prefix, j, 1) label j
    start, size, child = np.empty((3, n, w, 2), dtype=np.intp)
    start[:, 0, 0] = 0
    start[:, 1:, 0] = label[:, :-1] + 1
    start[:, :, 1] = label
    np.subtract(label, start[:, :, 0], out=size[:, :, 0])
    size[:, :, 1] = label < t
    child[:, :, 0] = table.take(base + used[node])[:, None]
    child[:, :, 1] = table.take(base[:, None] + code)
    size *= child >= 0
    size = size.ravel()
    run = np.flatnonzero(size > 0)
    size = size[run]
    label = np.repeat(start.ravel()[run] - np.cumsum(size) + size, size) + np.arange(size.sum())
    run = np.repeat(run, size)
    return run // (2 * w), label, child.ravel()[run], run % 2 == 0


def _extend(rows: np.ndarray, parent: np.ndarray, label: np.ndarray) -> np.ndarray:
    """Row ``parent[i]`` of ``rows`` followed by the 0-based ``label[i]`` as a 1-based label."""
    return np.column_stack([rows.take(parent, axis=0), (label + 1).astype(rows.dtype)])


def parse_sequence(text: str, t: int) -> SequenceTuple:
    """Parse '1234' (single-digit labels) or '10,2,3' (comma-separated labels),
    each label a run of ASCII digits with no leading zero and no more digits
    than t has."""
    text = text.strip()
    if not text:
        raise ValidationError("empty sequence string")
    parts = text.split(",") if "," in text else list(text)
    width = len(str(t))
    if not all(
        part.isascii() and part.isdigit() and len(part) <= width and (part == "0" or part[0] != "0")
        for part in parts
    ):
        raise ValidationError(f"cannot parse sequence {text!r}")
    return validate_sequence([int(part) for part in parts], t)


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
