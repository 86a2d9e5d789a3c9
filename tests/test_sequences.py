import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossover_dropout import matrix_kernels as mk
from crossover_dropout import sequences as sq
from crossover_dropout.errors import BudgetExceededError, ValidationError

from _oracles import (
    apply_permutation,
    carryover_incidence,
    enumerate_sequences,
    format_sequence,
    incidence,
    orbit,
    prefix_stats,
)


@pytest.mark.parametrize("labels", [(1.9, 2), (float("nan"), 2), (1, float("inf")), ("1", 2)])
def test_validate_sequence_refuses_non_integral_labels(labels):
    # 1.9 was truncated to 1, and NaN raised a bare ValueError
    with pytest.raises(ValidationError, match="sequence labels must be integers"):
        sq.validate_sequence(labels, 2)


def test_validate_sequence_keeps_integral_labels_of_any_type():
    seq = sq.validate_sequence((np.int64(1), 2.0, np.float32(2), np.uint8(1)), 2)
    assert seq == (1, 2, 2, 1) and all(type(x) is int for x in seq)


def test_enumerate_small():
    assert enumerate_sequences(2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_enumerate_counts():
    assert len(enumerate_sequences(4, 4)) == 256
    assert len(enumerate_sequences(2, 6)) == 64


def test_enumerate_lexicographic_and_array_agree():
    seqs = enumerate_sequences(3, 3)
    assert seqs == sorted(seqs)
    reps = [tuple(int(v) + 1 for v in row) for row in sq.canonical_sequences(3, 3)]
    assert reps == sorted({sq.canonical_form(s, 3) for s in seqs})


def test_enumerate_budget_guard():
    with pytest.raises(BudgetExceededError, match="block"):
        enumerate_sequences(10, 8, budget=10**6)
    with pytest.raises(ValidationError, match=">= 0"):
        enumerate_sequences(2, 2, budget=-1)


def test_incidence_example():
    T, F = sq.incidences(np.array([[1, 2]]), 2)
    np.testing.assert_array_equal(T, [[[1, 0], [0, 1]]])
    np.testing.assert_array_equal(F, [[[0, 0], [1, 0]]])


def test_incidence_row_sums_and_shift():
    rng = np.random.default_rng(0)
    for _ in range(100):
        t = int(rng.integers(2, 7))
        p = int(rng.integers(2, 8))
        s = tuple(rng.integers(1, t + 1, size=p).tolist())
        (T,), (F,) = sq.incidences(np.array([s]), t)
        np.testing.assert_array_equal(T.sum(axis=1), np.ones(p))
        np.testing.assert_array_equal(F.sum(axis=1), np.concatenate([[0], np.ones(p - 1)]))
        np.testing.assert_array_equal(F[1:], T[:-1])
        # centered incidences have zero row sums
        np.testing.assert_allclose((T @ mk.centering(t)).sum(axis=1), 0.0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(t=st.integers(2, 12), p=st.integers(1, 8), data=st.data())
def test_incidences_match_per_tuple_oracles(t, p, data):
    rows = data.draw(
        st.lists(st.lists(st.integers(1, t), min_size=p, max_size=p), min_size=0, max_size=20)
    )
    T, F = sq.incidences(np.array(rows, dtype=np.int64).reshape(len(rows), p), t)
    assert T.shape == F.shape == (len(rows), p, t)
    for k, s in enumerate(rows):
        np.testing.assert_array_equal(T[k], incidence(s, t))
        np.testing.assert_array_equal(F[k], carryover_incidence(s, t))


def test_prefix_stats_hand_counts():
    f, xi, rho, f_last = prefix_stats((1, 2, 2, 2, 1, 1), 6, 2)
    assert f == (3, 3) and xi == 18 and rho == 3 and f_last == 3


def test_prefix_stats_distinct():
    f, xi, rho, f_last = prefix_stats((1, 2, 3, 4), 4, 4)
    assert f == (1, 1, 1, 1) and xi == 4 and rho == 0 and f_last == 1


def test_prefix_stats_cauchy_schwarz_bound():
    # xi >= k^2/t with equality iff counts are equal: brute force over all
    # three-treatment four-period sequences
    for s in enumerate_sequences(3, 4):
        for k in range(1, 5):
            f, xi, _, _ = prefix_stats(s, k, 3)
            assert xi >= k * k / 3 - 1e-12
            if xi == pytest.approx(k * k / 3):
                assert len(set(f)) == 1


def test_prefix_stats_range_check():
    with pytest.raises(ValidationError):
        prefix_stats((1, 2), 3, 2)


def test_apply_permutation():
    assert apply_permutation((1, 2, 2), (2, 1)) == (2, 1, 1)
    with pytest.raises(ValidationError):
        apply_permutation((1, 2), (1, 1))


def test_block_sizes():
    assert sq.SymmetricBlock((1, 2, 3, 4), 4).size == 24
    assert sq.SymmetricBlock((1, 1, 1), 3).size == 3
    assert sq.SymmetricBlock((1, 2, 2, 2, 1, 1), 2).size == 2


def test_block_refuses_a_size_its_members_do_not_have():
    block = sq.SymmetricBlock((1, 2), 3)
    assert len(block.members()) == block.size == 6
    with pytest.raises(TypeError):  # the size is derived, never stated
        sq.SymmetricBlock((1, 2), 2, 3)
    with pytest.raises(ValidationError):
        sq.SymmetricBlock((1, 4), 3)  # label 4 outside 1..3


@pytest.mark.parametrize("t", [255, 256, 300])
@pytest.mark.parametrize("rep", [(1, 2, 2), (1, 2, 1, 2)])
def test_member_array_with_repeated_labels_at_large_t(rep, t):
    # each prefix of the last periods has one child here, so a walk that
    # spans all t labels per prefix would allocate S * t entries (GBs at
    # t = 1000); labels 255 and 256 top the smallest dtypes that hold them
    block = sq.SymmetricBlock(rep, t)
    tracemalloc.start()
    try:
        members = block.member_array()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6  # the members alone take up to 2.9 MB
    assert members.tolist() == [list(s) for s in orbit(rep, t)]


def test_block_size_divides_factorial():
    import math

    rng = np.random.default_rng(4)
    for _ in range(100):
        t = int(rng.integers(2, 6))
        p = int(rng.integers(2, 7))
        s = tuple(rng.integers(1, t + 1, size=p).tolist())
        block = sq.SymmetricBlock(s, t)
        assert math.factorial(t) % block.size == 0
        assert block.representative == min(block.members())
        assert len(block.members()) == block.size


def group_into_blocks(seqs, t):
    """Deduplicate sequences into symmetric blocks, sorted by representative."""
    reps = {sq.canonical_form(s, t) for s in seqs}
    return [sq.SymmetricBlock(rep, t) for rep in sorted(reps)]


def test_orbits_partition_enumeration():
    t, p = 3, 3
    blocks = group_into_blocks(enumerate_sequences(t, p), t)
    assert sum(b.size for b in blocks) == t**p
    members = [s for b in blocks for s in b.members()]
    assert sorted(members) == enumerate_sequences(t, p)


@settings(max_examples=60, deadline=None)
@given(t=st.integers(2, 6), p=st.integers(2, 7))
def test_canonical_sequences_are_the_orbit_representatives(t, p):
    reps = [tuple(int(v) + 1 for v in row) for row in sq.canonical_sequences(t, p)]
    assert reps == sorted({sq.canonical_form(s, t) for s in enumerate_sequences(t, p)})
    assert sum(sq.SymmetricBlock(rep, t).size for rep in reps) == t**p


@settings(max_examples=60, deadline=None)
@given(t=st.integers(2, 6), p=st.integers(2, 6), data=st.data())
def test_block_of_any_member_is_the_block_of_its_canonical_row(t, p, data):
    s = np.array(data.draw(st.lists(st.integers(1, t), min_size=p, max_size=p)))
    rows = sq.canonical_sequences(t, p) + 1
    # a relabeling keeps exactly which periods share a treatment
    row = next(r for r in rows if np.array_equal(r[:, None] == r, s[:, None] == s))
    assert sq.SymmetricBlock(s, t) == sq.SymmetricBlock(row, t)
    assert sq.SymmetricBlock(s, t).representative == tuple(row.tolist())
    assert sum(sq.SymmetricBlock(r, t).size for r in rows) == t**p


def test_canonical_sequences_counts_and_budget():
    assert len(sq.canonical_sequences(10, 6)) == 203
    assert len(sq.canonical_sequences(7, 7)) == 877
    assert len(sq.canonical_sequences(8, 8)) == 4140
    assert len(sq.canonical_sequences(8, 8, budget=4140)) == 4140
    with pytest.raises(BudgetExceededError, match="4139"):
        sq.canonical_sequences(8, 8, budget=4139)


def test_orbit_matches_all_permutation_images():
    rng = np.random.default_rng(11)
    for t in range(2, 6):
        for _ in range(20):
            p = int(rng.integers(1, 7))
            s = tuple(rng.integers(1, t + 1, size=p).tolist())
            images = {tuple(sigma[x - 1] for x in s) for sigma in permutations(range(1, t + 1))}
            assert orbit(s, t) == sorted(images)
            assert len(images) == sq.SymmetricBlock(s, t).size


@settings(max_examples=80, deadline=None)
@given(t=st.integers(2, 120), p=st.integers(1, 8), data=st.data())
def test_format_sequences_matches_format_sequence(t, p, data):
    rows = data.draw(
        st.lists(st.lists(st.integers(1, t), min_size=p, max_size=p), min_size=0, max_size=30)
    )
    seqs = np.array(rows, dtype=np.int64).reshape(len(rows), p)
    expected = "".join(f'<{format_sequence(s, t)}>,\n' for s in rows)
    assert sq.format_sequences(seqs, t, "<", ">,\n") == expected
    assert sq.format_sequences(seqs, t).splitlines() == [format_sequence(s, t) for s in rows]


def test_format_sequences_rejects_labels_outside_1_to_t():
    for bad in ([[0, 1]], [[1, 5]]):
        with pytest.raises(ValidationError):
            sq.format_sequences(np.array(bad), 4)


def test_canonical_sequences_keep_prunes_growth():
    # dropping every prefix that repeats its last label leaves the orbits of
    # sequences with no adjacent repeats
    no_repeat = sq.canonical_sequences(3, 5, keep=lambda s: s[:, -1] != s[:, -2])
    full = sq.canonical_sequences(3, 5)
    expected = full[np.all(full[:, 1:] != full[:, :-1], axis=1)]
    np.testing.assert_array_equal(no_repeat, expected)


def test_canonical_form_examples():
    assert sq.canonical_form((2, 1, 1), 2) == (1, 2, 2)
    assert sq.canonical_form((3, 3, 1), 3) == (1, 1, 2)


def test_parse_and_format():
    assert sq.parse_sequence("122211", 2) == (1, 2, 2, 2, 1, 1)
    assert format_sequence((1, 2, 2, 2, 1, 1), 2) == "122211"
    assert sq.parse_sequence("10,2,3", 10) == (10, 2, 3)
    assert format_sequence((10, 2, 3), 10) == "10,2,3"
    with pytest.raises(ValidationError):
        sq.parse_sequence("125", 4)
    with pytest.raises(ValidationError):
        sq.parse_sequence("", 4)
    # a leading zero, or more digits than t has
    for text in ("01,2,3", "010,2,3", "1" * 5000 + ",2,3"):
        with pytest.raises(ValidationError, match="cannot parse"):
            sq.parse_sequence(text, 10)
