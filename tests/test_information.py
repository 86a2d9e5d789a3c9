import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossover_dropout import matrix_kernels as mk
from crossover_dropout import q_solver as qs
from crossover_dropout import sequences as sq
from crossover_dropout.design_search import ExactDesign
from crossover_dropout.dropout_model import new_mechanism
from crossover_dropout.information import (
    count_grams,
    count_tables,
    criterion,
    criterion_values,
    criterion_values_from_eigs,
    design_matrices,
    eigenvalues_batch,
    stay_counts,
    surrogate_info,
)

from _oracles import (
    apply_permutation,
    check_matrices,
    info_criterion,
    masked_components_batch,
    orbit,
    pinv_count_components,
    pinv_eigenvalues,
    realized_components_batch,
    realized_info,
    realized_projection,
    reference_surrogate_info,
    schur_batch,
    surrogate_info_matrix,
    surrogate_kernel,
)


def random_design(rng, p, t, n, pool=None):
    """A random n-subject listing; with ``pool``, drawn from that many sequences, so they repeat."""
    seqs = [tuple(rng.integers(1, t + 1, size=p).tolist()) for _ in range(pool or n)]
    if pool is not None:
        seqs = [seqs[k] for k in rng.integers(pool, size=n)]
    return design_matrices(seqs, t)


def test_design_matrices_keep_listing_order():
    seqs = [(2, 1, 2), (1, 2, 1), (2, 1, 2), (1, 1, 2), (1, 2, 1)]
    dm = design_matrices(seqs, 2)
    assert dm.sequences == ((1, 1, 2), (1, 2, 1), (2, 1, 2))
    T = np.concatenate([sq.incidence(s, 2) for s in seqs])
    F = np.concatenate([sq.carryover_incidence(s, 2) for s in seqs])
    np.testing.assert_array_equal(dm.T, T)
    np.testing.assert_array_equal(dm.F, F)
    lengths = [3, 1, 2, 2, 3]
    o = realized_projection(lengths, 3)
    info = realized_info(dm, lengths)
    for got, want in zip((info.c11, info.c12, info.c22), (T.T @ o @ T, T.T @ o @ F, F.T @ o @ F)):
        np.testing.assert_allclose(got, want, atol=1e-12)


def naive_realized_components(dm, lengths):
    """Oracle path: scatter the projection kernel into the full row grid."""
    o = realized_projection(lengths, dm.p)
    T, F = dm.T, dm.F
    return T.T @ o @ T, T.T @ o @ F, F.T @ o @ F


def test_realized_components_match_naive_projection():
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = int(rng.integers(2, 6))
        t = int(rng.integers(2, 5))
        n = int(rng.integers(2, 8))
        dm = random_design(rng, p, t, n)
        lengths = rng.integers(1, p + 1, size=(3, n))
        c11, c12, c22 = realized_components_batch(dm, lengths)
        for b in range(3):
            n11, n12, n22 = naive_realized_components(dm, lengths[b])
            np.testing.assert_allclose(c11[b], n11, atol=1e-10)
            np.testing.assert_allclose(c12[b], n12, atol=1e-10)
            np.testing.assert_allclose(c22[b], n22, atol=1e-10)


@st.composite
def designs_with_lengths(draw):
    """A design drawn from a small sequence pool (so sequences repeat) plus stay lengths."""
    p = draw(st.integers(2, 6))
    t = draw(st.integers(2, 5))
    n = draw(st.integers(1, 8))
    sequence = st.tuples(*[st.integers(1, t)] * p)
    pool = draw(st.lists(sequence, min_size=1, max_size=3))
    seqs = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    row = st.lists(st.integers(1, p), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    return seqs, t, rows + [[1] * n]  # always include the all-length-1 realization


@settings(max_examples=150, deadline=None)
@given(case=designs_with_lengths())
def test_count_kernel_matches_projection_oracle(case):
    seqs, t, rows = case
    dm = design_matrices(seqs, t)
    lengths = np.array(rows)
    comps = realized_components_batch(dm, lengths)
    for b, row in enumerate(lengths):
        for got, want in zip(comps, naive_realized_components(dm, row)):
            np.testing.assert_allclose(got[b], want, atol=1e-10)


def test_count_kernel_matches_per_subject_kernel():
    rng = np.random.default_rng(44)
    for _ in range(20):
        p = int(rng.integers(2, 7))
        t = int(rng.integers(2, 6))
        n = int(rng.integers(1, 12))
        dm = random_design(rng, p, t, n)
        lengths = rng.integers(1, p + 1, size=(64, n))
        for got, want in zip(
            realized_components_batch(dm, lengths), masked_components_batch(dm, lengths)
        ):
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_stay_counts_bin_subjects_by_sequence_and_length():
    dm = design_matrices([(2, 1, 2), (1, 2, 1), (2, 1, 2)], 2)
    tables = count_tables(dm, np.arange(1, 4))
    assert tables.dm.sequences == ((1, 2, 1), (2, 1, 2))
    counts = stay_counts(tables, np.array([[3, 1, 3], [1, 2, 2]]) - 1)  # levels 1..p
    np.testing.assert_array_equal(counts[0], [[1, 0, 0], [0, 0, 2]])
    np.testing.assert_array_equal(counts[1], [[0, 1, 0], [1, 1, 0]])
    # the count matrix alone fixes the components, whoever stayed
    swapped = realized_components_batch(dm, np.array([[1, 2, 2]]))
    direct = realized_components_batch(dm, np.array([[2, 2, 1]]))
    for got, want in zip(swapped, direct):
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_realized_info_all_dropout_first_period_is_zero():
    rng = np.random.default_rng(1)
    dm = random_design(rng, 4, 3, 5)
    info = realized_info(dm, [1] * 5)
    np.testing.assert_allclose(info.schur, 0.0, atol=1e-12)
    np.testing.assert_allclose(info.c11, 0.0, atol=1e-12)


def test_realized_info_psd_and_zero_row_sums():
    rng = np.random.default_rng(14)
    for _ in range(60):
        p = int(rng.integers(2, 6))
        t = int(rng.integers(2, 5))
        n = int(rng.integers(2, 8))
        dm = random_design(rng, p, t, n)
        lengths = rng.integers(1, p + 1, size=n)
        info = realized_info(dm, lengths)
        assert info.eigenvalues[0] == 0.0
        assert info.eigenvalues[1:].min() >= -1e-9
        assert np.linalg.eigvalsh(info.schur).min() >= -1e-9
        np.testing.assert_allclose(info.schur.sum(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(info.schur, info.schur.T, atol=1e-12)


def test_complete_realization_equals_surrogate():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = int(rng.integers(2, 6))
        t = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        mech = new_mechanism(p, n, [0.0] * (p - 1) + [1.0])
        dm = random_design(rng, p, t, n)
        real = realized_info(dm, [p] * n)
        sur = surrogate_info_matrix(dm, mech)
        np.testing.assert_allclose(sur.c11, real.c11, atol=1e-10)
        np.testing.assert_allclose(sur.c12, real.c12, atol=1e-10)
        np.testing.assert_allclose(sur.c22, real.c22, atol=1e-10)
        np.testing.assert_allclose(sur.schur, real.schur, atol=1e-10)


def test_disconnecting_realization_zeroes_small_eigenvalue():
    # every subject receives treatment 4 only in periods 3-4 and drops at 2
    seqs = [(1, 2, 4, 4), (2, 1, 4, 4), (1, 3, 4, 4), (3, 2, 4, 4)]
    dm = design_matrices(seqs, 4)
    info = realized_info(dm, [2, 2, 2, 2])
    lam = info.eigenvalues
    assert abs(lam[1]) <= 1e-9 * max(1.0, lam[-1])
    assert criterion(info.schur_h, "A", 4) == 0.0
    assert criterion(info.schur_h, "D", 4) == 0.0
    assert criterion(info.schur_h, "E", 4) == 0.0
    assert criterion(info.schur_h, "T", 4) > 0.0


def test_surrogate_symmetric_design_trace_identity():
    # symmetric designs: completely symmetric matrix whose trace matches the
    # weighted quadratic optimum of its blocks
    rng = np.random.default_rng(21)
    for _ in range(100):
        t = int(rng.integers(2, 5))
        p = int(rng.integers(2, 5))
        n_blocks = int(rng.integers(1, 3))
        reps = set()
        while len(reps) < n_blocks:
            reps.add(sq.canonical_form(tuple(rng.integers(1, t + 1, size=p).tolist()), t))
        counts = {}
        copies = {}
        for rep in reps:
            copies[rep] = int(rng.integers(1, 4))
            for member in orbit(rep, t):
                counts[member] = copies[rep]
        n = sum(counts.values())
        if n < 2:
            continue
        a = np.concatenate([[0.0], rng.dirichlet(np.ones(p - 1))]) if p > 2 else np.array([0.0, 1.0])
        mech = new_mechanism(p, n, a)
        design = ExactDesign(p=p, t=t, n=n, counts=counts)
        sur = surrogate_info_matrix(design.matrices(), mech)
        # complete symmetry: equal diagonal, equal off-diagonal
        diag = np.diag(sur.schur)
        off = sur.schur[~np.eye(t, dtype=bool)]
        assert np.ptp(diag) <= 1e-8 * max(1.0, np.abs(diag).max())
        if t > 1:
            assert np.ptp(off) <= 1e-8 * max(1.0, np.abs(off).max() + 1.0)
        # trace identity against the weighted quadratics
        qd = [qs.q_coeffs(rep, mech, t) for rep in reps]
        w = np.array([copies[rep] * sq.symmetric_block(rep, t).size / n for rep in reps])
        q11 = float(np.dot(w, [q.q11 for q in qd]))
        q12 = float(np.dot(w, [q.q12 for q in qd]))
        q22 = float(np.dot(w, [q.q22 for q in qd]))
        q_star = n * (q11 - q12**2 / q22)
        assert np.trace(sur.schur) == pytest.approx(q_star, abs=1e-8 * max(1.0, abs(q_star)))


def test_check_matrix_aggregation_identity():
    rng = np.random.default_rng(31)
    for _ in range(50):
        p = int(rng.integers(2, 5))
        t = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        a = np.concatenate([[0.0], rng.dirichlet(np.ones(p - 1))]) if p > 2 else np.array([0.0, 1.0])
        mech = new_mechanism(p, n, a)
        seqs = [tuple(rng.integers(1, t + 1, size=p).tolist()) for _ in range(n)]
        dm = design_matrices(seqs, t)
        sur = surrogate_info_matrix(dm, mech)
        bt = mk.centering(t)
        tbar = np.mean([sq.incidence(s, t) for s in seqs], axis=0) @ bt
        fbar = np.mean([sq.carryover_incidence(s, t) for s in seqs], axis=0) @ bt
        sum11 = sum(check_matrices(s, mech, t)[0] for s in seqs)
        sum12 = sum(check_matrices(s, mech, t)[1] for s in seqs)
        sum22 = sum(check_matrices(s, mech, t)[2] for s in seqs)
        np.testing.assert_allclose(sum11, sur.c11 + n * tbar.T @ mech.B @ tbar, atol=1e-10)
        np.testing.assert_allclose(sum12, sur.c12 + n * tbar.T @ mech.B @ fbar, atol=1e-10)
        np.testing.assert_allclose(sum22, sur.c22 + n * fbar.T @ mech.B @ fbar, atol=1e-10)


def test_check_matrix_sum_equals_components_for_period_uniform_design(d2):
    # the bundled 16-subject design is uniform on periods, so the averaged
    # centered incidences vanish and the aggregation is exact
    mech = d2.mechanism
    dm = d2.design.matrices()
    sur = surrogate_info_matrix(dm, mech)
    total = [np.zeros((4, 4)) for _ in range(3)]
    for s, c in d2.design.counts.items():
        blocks = check_matrices(s, mech, 4)
        for i in range(3):
            total[i] += c * blocks[i]
    np.testing.assert_allclose(total[0], sur.c11, atol=1e-10)
    np.testing.assert_allclose(total[1], sur.c12, atol=1e-10)
    np.testing.assert_allclose(total[2], sur.c22, atol=1e-10)


def test_check_matrix_trace_links_to_q():
    rng = np.random.default_rng(12)
    bt4 = mk.centering(4)
    mech = new_mechanism(4, 9, (0, 0.25, 0.35, 0.4))
    for _ in range(100):
        s = tuple(rng.integers(1, 5, size=4).tolist())
        c11, c12, c22 = check_matrices(s, mech, 4)
        q = qs.q_coeffs(s, mech, 4)
        assert np.trace(bt4 @ c11 @ bt4) == pytest.approx(q.q11, abs=1e-10)
        assert np.trace(bt4 @ c12 @ bt4) == pytest.approx(q.q12, abs=1e-10)
        assert np.trace(bt4 @ c22 @ bt4) == pytest.approx(q.q22, abs=1e-10)


def test_criterion_on_equilibrium_matrix():
    t, n, y_star = 4, 16, 2.1745520024
    info_like = n * y_star * mk.centering(t) / (t - 1)
    eigs = np.linalg.eigvalsh(info_like)
    for which in "ADET":
        value = criterion_values_from_eigs(eigs[None, :], which, n)[0]
        assert value == pytest.approx(y_star / (t - 1), rel=1e-12)


def test_criterion_disconnected_convention():
    eigs = np.array([[0.0, 0.0, 2.0, 3.0]])
    assert criterion_values_from_eigs(eigs, "A", 5)[0] == 0.0
    assert criterion_values_from_eigs(eigs, "D", 5)[0] == 0.0
    assert criterion_values_from_eigs(eigs, "E", 5)[0] == 0.0
    assert criterion_values_from_eigs(eigs, "T", 5)[0] == pytest.approx(5.0 / (5 * 3))


def test_criteria_coincide_for_two_treatments():
    rng = np.random.default_rng(2)
    dm = random_design(rng, 4, 2, 6)
    info = realized_info(dm, rng.integers(2, 5, size=6))
    values = {w: criterion(info.schur_h, w, 6) for w in "ADET"}
    for w in "DET":
        assert values[w] == pytest.approx(values["A"], rel=1e-10)


def test_criterion_permutation_equivariance():
    rng = np.random.default_rng(9)
    t = 4
    dm = random_design(rng, 4, t, 8)
    mech = new_mechanism(4, 8, (0, 0.2, 0.3, 0.5))
    info = surrogate_info(dm, mech)
    base = {w: criterion(info, w, 8) for w in "ADET"}
    for sigma in list(permutations(range(1, t + 1)))[:8]:
        perm_dm = design_matrices(
            [apply_permutation(dm.sequences[k], sigma) for k in dm.subject_index], t
        )
        perm_info = surrogate_info(perm_dm, mech)
        for w in "ADET":
            assert criterion(perm_info, w, 8) == pytest.approx(base[w], abs=1e-10)


def test_dropping_subject_never_raises_trace_criterion():
    rng = np.random.default_rng(33)
    for _ in range(60):
        p = int(rng.integers(2, 6))
        t = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        dm = random_design(rng, p, t, n)
        lengths = rng.integers(2, p + 1, size=n)
        before = criterion(realized_info(dm, lengths).schur_h, "T", n)
        cut = lengths.copy()
        cut[int(rng.integers(n))] = 1
        after = criterion(realized_info(dm, cut).schur_h, "T", n)
        assert after <= before + 1e-10


def batch_eigenvalues(dm, lengths):
    """The evaluation kernel: contrast Grams, one Schur complement, eigenvalues."""
    tables = count_tables(dm, np.arange(1, dm.p + 1))
    grams = count_grams(tables, stay_counts(tables, np.asarray(lengths) - 1))
    return eigenvalues_batch(mk.unpack_sym(mk.schur_complement(grams, tables.lead)))


def test_batched_schur_and_eigs_match_scalar():
    rng = np.random.default_rng(15)
    dm = random_design(rng, 4, 3, 6)
    lengths = rng.integers(1, 5, size=(5, 6))
    tables = count_tables(dm, np.arange(1, 5))
    grams = count_grams(tables, stay_counts(tables, lengths - 1))
    schur_h = mk.unpack_sym(mk.schur_complement(grams, tables.lead))
    eigs = eigenvalues_batch(schur_h)
    h = mk.contrast_basis(3)
    for b in range(5):
        info = realized_info(dm, lengths[b])
        np.testing.assert_allclose(h @ schur_h[b] @ h.T, info.schur, atol=1e-10)
        np.testing.assert_allclose(eigs[b], info.eigenvalues, atol=1e-10)


def assert_eigenvalues_match(got, want, dm):
    """Rows agree to 1e-12 of the n p observations, which bound every eigenvalue.

    The scale is the design's, not the row's largest eigenvalue: when every
    subject shares one sequence the information is 0 and the pinv oracle
    leaves rounding noise of about 1.5e-12 there.  got's structural zero is
    exact.
    """
    assert np.all(got[:, 0] == 0.0)
    assert np.all(np.abs(got - want) <= 1e-12 * dm.n * dm.p)


# t = 2 with every subject on one treatment in periods 1-2 but switching later:
# dropping at 2 disconnects, and the same design reaches the last period.
@example(case=([(1, 1, 2), (2, 2, 1)], 2, [[2, 2], [3, 1], [1, 1]]))
# an unobserved last period next to full rows
@example(case=([(1, 2, 3, 1), (2, 3, 1, 2), (3, 1, 2, 3)], 3, [[3, 3, 3], [4, 4, 4], [1, 1, 1]]))
@settings(max_examples=200, deadline=None)
@given(case=designs_with_lengths())
def test_contrast_schur_matches_pinv_oracle(case):
    seqs, t, rows = case
    dm = design_matrices(seqs, t)
    p = dm.p
    lengths = np.array(rows + [[min(l, p - 1) for l in rows[0]]])  # no one reaches period p
    want = pinv_eigenvalues(*masked_components_batch(dm, lengths))
    got = batch_eigenvalues(dm, lengths)
    assert_eigenvalues_match(got, want, dm)
    for which in "ADET":
        np.testing.assert_allclose(
            criterion_values_from_eigs(got, which, dm.n),
            criterion_values_from_eigs(want, which, dm.n),
            rtol=1e-10,
            atol=1e-12,
        )


@st.composite
def count_batches(draw):
    """Distinct sequences, a stay-length support and (batch, S, L) count matrices over it.

    The support may skip interior lengths and may hold length 1.  The batch
    ends with an all-zero row and a row on the shortest length alone, whose
    leading blocks are singular; random rows add disconnected ones.
    """
    p = draw(st.integers(2, 6))
    t = draw(st.sampled_from([2, 3, 5, 6]))
    levels = sorted(draw(st.sets(st.integers(1, p), min_size=1)))
    sequence = st.tuples(*[st.integers(1, t)] * p)
    seqs = draw(st.lists(sequence, min_size=1, max_size=4, unique=True))
    cells = len(seqs) * len(levels)
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=cells, max_size=cells), max_size=5))
    shortest = np.zeros((len(seqs), len(levels)), dtype=int)
    shortest[:, 0] = 1
    counts = np.array(rows + [[0] * cells] + [shortest.ravel().tolist()])
    return seqs, t, np.array(levels), counts.reshape(-1, len(seqs), len(levels))


# t = 2, a support with a gap and stay length 1
@example(case=([(1, 2, 1, 2), (2, 1, 1, 2)], 2, np.array([1, 3]), np.array(
    [[[1, 0], [0, 2]], [[0, 1], [1, 1]], [[0, 0], [0, 0]], [[1, 0], [1, 0]]])))
# t = 5, more treatments than periods, only the last length
@example(case=([(1, 2, 3), (4, 5, 1), (2, 2, 5)], 5, np.array([3]), np.array(
    [[[2], [1], [1]], [[0], [3], [0]], [[0], [0], [0]], [[1], [1], [1]]])))
@settings(max_examples=200, deadline=None)
@given(case=count_batches())
def test_packed_schur_matches_pinv_of_full_grams(case):
    seqs, t, levels, counts = case
    tables = count_tables(design_matrices(seqs, t), levels)
    packed = count_grams(tables, counts)
    grams = mk.unpack_sym(packed)
    got = mk.unpack_sym(mk.schur_complement(packed, tables.lead))
    want = mk.pinv_schur_complement(grams, tables.lead)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10 * max(1.0, np.abs(grams).max()))
    for which in "ADET":  # and the criteria, the trace one without eigenvalues
        np.testing.assert_allclose(
            criterion_values(mk.pack_sym(got), (which,), len(seqs))[which],
            criterion_values_from_eigs(eigenvalues_batch(want), which, len(seqs)),
            rtol=1e-10,
            atol=1e-12,
        )


def test_contrast_schur_disconnected_rows_report_zero():
    # treatment 4 only in periods 3-4: dropping at 2 disconnects it, and
    # switching one subject to (4, 1, 2, 3) connects the full realization
    seqs = [(1, 2, 4, 4), (2, 1, 4, 4), (1, 3, 4, 4), (4, 1, 2, 3)]
    dm = design_matrices(seqs, 4)
    lengths = np.array([[2, 2, 2, 1], [4, 4, 4, 4], [1, 1, 1, 1]])
    eigs = batch_eigenvalues(dm, lengths)
    assert_eigenvalues_match(eigs, pinv_eigenvalues(*masked_components_batch(dm, lengths)), dm)
    for which in "ADE":
        values = criterion_values_from_eigs(eigs, which, 4)
        assert values[0] == values[2] == 0.0 and values[1] > 0.0
    assert criterion_values_from_eigs(eigs, "T", 4)[0] > 0.0


@pytest.mark.parametrize("name", ["d2", "d9"])
def test_contrast_schur_matches_pinv_count_path_on_every_exact_cell(name):
    from crossover_dropout.evaluation import _exact_cells
    from crossover_dropout.fixtures import get_fixture

    fx = get_fixture(name)
    dm = fx.design.matrices()
    counts = _exact_cells(fx.design, fx.mechanism)
    levels = fx.mechanism.stay_support
    tables = count_tables(dm, levels)
    schur_h = mk.unpack_sym(mk.schur_complement(count_grams(tables, counts), tables.lead))
    got = eigenvalues_batch(schur_h)
    every_length = np.zeros(counts.shape[:2] + (dm.p,), dtype=counts.dtype)
    every_length[:, :, levels - 1] = counts
    want = pinv_eigenvalues(*pinv_count_components(dm, every_length))
    assert_eigenvalues_match(got, want, dm)


def test_info_fields_match_pinv_oracle():
    rng = np.random.default_rng(27)
    for pool in [None] * 40 + [3] * 40:  # then listings from at most 3 sequences, which repeat
        p = int(rng.integers(2, 6))
        t = int(rng.integers(2, 5))
        n = int(rng.integers(2, 9))
        dm = random_design(rng, p, t, n, pool)
        a = np.concatenate([[0.0], rng.dirichlet(np.ones(p - 1))])
        mech = new_mechanism(p, n, a)
        lengths = rng.integers(1, p + 1, size=(1, n))
        T, F, v = dm.T, dm.F, surrogate_kernel(mech)
        sandwiches = tuple(x[None] for x in (T.T @ v @ T, T.T @ v @ F, F.T @ v @ F))
        oracles = [
            (realized_info(dm, lengths[0]), masked_components_batch(dm, lengths)),
            (surrogate_info_matrix(dm, mech), sandwiches),
        ]
        h = mk.contrast_basis(t)
        for info, comps in oracles:
            for got, want in zip((info.c11, info.c12, info.c22), comps):
                np.testing.assert_allclose(got, want[0], rtol=0.0, atol=1e-12)
            # the Schur complement goes through C22^+, so its error may grow with
            # C22's condition number (a surrogate C22 can have an eigenvalue
            # just above the pinv cutoff)
            w = np.abs(np.linalg.eigvalsh(comps[2][0]))
            kept = w[w > 1e-10 * w.max()]
            tol = 1e-12 * (kept.max() / kept.min() if kept.size else 1.0)
            schur = schur_batch(*comps)[0]
            np.testing.assert_allclose(info.schur, schur, rtol=0.0, atol=tol)
            # V is not PSD, so a surrogate complement can be indefinite: the
            # structural zero then sits above a negative eigenvalue
            assert info.eigenvalues[0] == 0.0
            want = np.linalg.eigvalsh(h.T @ schur @ h)
            np.testing.assert_allclose(info.eigenvalues[1:], want, rtol=0.0, atol=tol)
            trace = np.trace(info.schur) / (n * (t - 1))
            assert criterion(info.schur_h, "T", n) == pytest.approx(trace, rel=1e-12, abs=1e-14)


def test_surrogate_s_h_equals_the_reference_lift():
    # S_H, its criteria and the lift of _surrogate_gram equal, bit for bit,
    # the information layer that returned t x t blocks, on indefinite S_H too
    rng = np.random.default_rng(18)
    indefinite = 0
    for pool in [None, 3] * 100:
        p = int(rng.integers(2, 6))
        t = int(rng.integers(2, 5))
        n = int(rng.integers(2, 9))
        dm = random_design(rng, p, t, n, pool)
        mech = new_mechanism(p, n, np.concatenate([[0.0], rng.dirichlet(np.ones(p - 1))]))
        want = reference_surrogate_info(dm, mech)
        s_h = surrogate_info(dm, mech)
        np.testing.assert_array_equal(s_h, want.schur_h)
        for which in "ADET":
            assert criterion(s_h, which, n) == info_criterion(want, which, n)
        lifted = surrogate_info_matrix(dm, mech)
        for field in ("c11", "c12", "c22", "schur", "schur_h", "eigenvalues"):
            np.testing.assert_array_equal(getattr(lifted, field), getattr(want, field))
        indefinite += bool(want.eigenvalues[1] < -1e-9 * abs(want.eigenvalues[-1]))
    assert indefinite >= 5


def test_surrogate_info_memory_does_not_grow_with_n_squared():
    # the (np) x (np) kernel V alone would take 82 MB here
    rng = np.random.default_rng(5)
    n, p, t = 400, 8, 4
    dm = random_design(rng, p, t, n)
    mech = new_mechanism(p, n, np.concatenate([[0.0], rng.dirichlet(np.ones(p - 1))]))
    tracemalloc.start()
    try:
        surrogate_info(dm, mech)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
