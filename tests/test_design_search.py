import json
import time
import warnings
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossover_dropout import design_search as ds
from crossover_dropout import matrix_kernels as mk
from crossover_dropout import q_solver as qs
from crossover_dropout.design_search import (
    ApproximateDesign,
    ExactDesign,
    _TransferDescent,
    _largest_remainder_round,
    build_system,
    exact_search,
    symmetric_solve,
    verify_approximate,
)
from crossover_dropout.dropout_model import new_mechanism
from crossover_dropout.errors import InfeasibleWeightsError, ValidationError
from crossover_dropout.evaluation import theta_mechanism
from crossover_dropout.fixtures import FIXTURES
from crossover_dropout.sequences import canonical_form, symmetric_block

from _oracles import (
    OrderedMoveDescent,
    dense_best_pair,
    incidence,
    loop_system_matrix,
    reference_warm_start,
    surrogate_info_matrix,
    tuple_symmetric_weights,
)

FROZEN_DESIGNS = json.loads(Path(__file__).with_name("frozen_designs.json").read_text())
FROZEN_CERTIFICATES = json.loads(
    Path(__file__).with_name("frozen_certificates.json").read_text()
)
# the (p, t, n) of the benchmark's sweep --search jobs
SWEEP_TRIPLES = ((5, 2, 10), (4, 3, 12), (4, 4, 8))


@pytest.fixture(scope="module")
def d2_system(d2, d2_cert):
    return build_system(d2_cert, d2.mechanism)


def symmetric_start(system, cert, mech, n):
    """The continuous start of exact_search: n times the symmetric design, by column."""
    index = system.column_index()
    w = np.zeros(len(system.support))
    for seq, weight in symmetric_solve(cert, mech).weights.items():
        w[index[seq]] = n * weight
    return w


def d2_fixture_residual(d2, d2_cert, d2_system):
    counts = np.array([d2.design.counts.get(s, 0) for s in d2_system.support], dtype=float)
    return float(np.linalg.norm(d2_system.x @ counts - d2_system.y_exact(16)))


def test_design_type_validation():
    with pytest.raises(ValidationError):
        ExactDesign(p=2, t=2, n=3, counts={(1, 2): 2})
    with pytest.raises(ValidationError):
        ExactDesign(p=2, t=2, n=2, counts={(1, 3): 2})
    with pytest.raises(ValidationError):
        ApproximateDesign(p=2, t=2, weights={(1, 2): 0.5, (2, 1): 0.4})
    design = ExactDesign.from_sequences([(1, 2), (1, 2), (2, 1)], 2)
    assert design.counts == {(1, 2): 2, (2, 1): 1}


def test_exact_design_refuses_a_non_integral_count():
    # 2.7 and 1.3 were truncated to 2 and 1, which summed to n = 3
    with pytest.raises(ValidationError, match="must be integers"):
        ExactDesign(p=2, t=2, n=3, counts={(1, 2): 2.7, (2, 1): 1.3})


def test_exact_design_refuses_a_nan_count():
    # it raised a bare ValueError from int(nan)
    with pytest.raises(ValidationError, match="must be integers"):
        ExactDesign(p=2, t=2, n=3, counts={(1, 2): float("nan"), (2, 1): 1})


def test_exact_design_keeps_integral_counts_of_any_type():
    design = ExactDesign(p=2, t=2, n=3, counts={(1, 2): np.int64(2), (2.0, 1): 1.0})
    assert design.counts == {(1, 2): 2, (2, 1): 1}
    assert all(type(c) is int for c in design.counts.values())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_approximate_design_refuses_a_non_finite_weight(bad):
    # a NaN weight was dropped and the rest kept as the whole design
    with pytest.raises(ValidationError, match="non-finite weight"):
        ApproximateDesign(p=2, t=2, weights={(1, 2): 1.0, (2, 1): bad})


def test_system_shape_and_rows(d2_system):
    t, p, m = 4, 4, 48
    assert d2_system.x.shape == (2 * t * t + p * t, m)
    assert d2_system.y.shape == (2 * t * t + p * t,)
    # target: first block is the scaled centering matrix, rest zero
    np.testing.assert_allclose(
        d2_system.y[: t * t].reshape(t, t),
        (d2_system.y[0] * 4 / 3) * mk.centering(t),
        atol=1e-12,
    )
    np.testing.assert_allclose(d2_system.y[t * t :], 0.0, atol=0.0)
    assert d2_system.support == tuple(sorted(d2_system.support))


def test_symmetric_weights_zero_residual(d2, d2_cert):
    sol = symmetric_solve(d2_cert, d2.mechanism)
    ver = verify_approximate(sol, d2_cert, d2.mechanism)
    assert ver.residual <= 1e-8
    assert ver.off_support_mass == 0.0
    assert ver.optimal


def test_uniform_weights_on_full_support_reported(d9, d9_cert):
    # the balanced blocks do not symmetrize the slope equation here; the
    # residual is simply reported
    uniform = {s: 1 / len(d9_cert.support) for s in d9_cert.support}
    ver = verify_approximate(uniform, d9_cert, d9.mechanism)
    assert ver.residual == pytest.approx(0.4914285730, abs=1e-6)
    assert ver.off_support_mass == 0.0


def test_point_mass_design_has_positive_residual(d2, d2_cert):
    ver = verify_approximate({(1, 2, 3, 4): 1.0}, d2_cert, d2.mechanism)
    assert ver.residual > 0.01
    assert ver.off_support_mass == 0.0


def test_off_support_mass_reported(d2, d2_cert):
    ver = verify_approximate({(1, 1, 1, 1): 1.0}, d2_cert, d2.mechanism)
    assert ver.off_support_mass == pytest.approx(1.0)


def test_round_trip_scaling(d2, d2_cert):
    design, report = exact_search(16, d2_cert, d2.mechanism, seed=0, restarts=4)
    weights = {s: c / design.n for s, c in design.counts.items()}
    ver = verify_approximate(weights, d2_cert, d2.mechanism)
    assert ver.residual * 16 == pytest.approx(report.residual, abs=1e-9)


def test_search_never_worse_than_rounding(d2, d2_cert, d2_system):
    x, y = d2_system.x, d2_system.y_exact(16)
    w = symmetric_start(d2_system, d2_cert, d2.mechanism, 16)
    rounding_residual = float(np.linalg.norm(x @ _largest_remainder_round(w, 16) - y))
    _, report = exact_search(16, d2_cert, d2.mechanism, seed=0, restarts=0)
    assert report.residual <= rounding_residual + 1e-12


def test_search_deterministic(d2, d2_cert):
    a1, r1 = exact_search(16, d2_cert, d2.mechanism, seed=7, restarts=6)
    a2, r2 = exact_search(16, d2_cert, d2.mechanism, seed=7, restarts=6)
    assert a1.counts == a2.counts
    assert r1 == r2


def test_search_single_subject(d2, d2_cert):
    design, report = exact_search(1, d2_cert, d2.mechanism, seed=0, restarts=2)
    assert design.n == 1 and sum(design.counts.values()) == 1
    assert report.residual > 0.0
    with pytest.raises(ValidationError):
        exact_search(0, d2_cert, d2.mechanism)


def test_search_beats_bundled_design_at_seed_zero(d2, d2_cert, d2_system):
    target = d2_fixture_residual(d2, d2_cert, d2_system)
    _, report = exact_search(16, d2_cert, d2.mechanism, seed=0, restarts=60)
    assert report.residual <= target + 1e-9


def test_complete_case_integer_feasible_zero_residual():
    mech = new_mechanism(4, 288, (0, 0, 0, 1))
    cert = qs.solve_minimax(mech, 4)
    design, report = exact_search(288, cert, mech, seed=0, restarts=4)
    assert report.residual <= 1e-10
    # a zero-residual design attains the equilibrium surrogate matrix
    sur = surrogate_info_matrix(design.matrices(), mech)
    target = 288 * cert.y_star * mk.centering(4) / 3
    np.testing.assert_allclose(sur.schur, target, atol=1e-7)


def _system_cases():
    """(name, mechanism, certificate, n): the fixtures and the sweep triples at theta 0.2-0.8."""
    for name, fx in sorted(FIXTURES.items()):
        yield name, fx.mechanism, qs.solve_minimax(fx.mechanism, fx.design.t), fx.mechanism.n
    for p, t, n in SWEEP_TRIPLES:
        for theta in (0.2, 0.4, 0.6, 0.8):
            mech = theta_mechanism(p, n, theta)
            yield f"({p}, {t}, {n}) at {theta}", mech, qs.solve_minimax(mech, t), n


def test_build_system_matches_per_sequence_oracle():
    rng = np.random.default_rng(15)
    cases = list(_system_cases())
    for k in range(30):  # spread over stay lengths 2..p, or some mass on stay length 1
        p, t = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        stay_one = rng.uniform(0.0, 0.5) if k % 2 else 0.0
        a = np.concatenate([[stay_one], rng.dirichlet(np.ones(p - 1))])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            mech = new_mechanism(p, 9, a / a.sum())
        cases.append((f"seeded {k}", mech, qs.solve_minimax(mech, t), 9))
    for name, mech, cert, _ in cases:
        system = build_system(cert, mech)
        assert system.x.flags.c_contiguous, name
        np.testing.assert_array_equal(system.x, loop_system_matrix(cert, mech), err_msg=name)
        want = np.stack([incidence(s, cert.t) for s in system.support])
        np.testing.assert_array_equal(system.incidences, want, err_msg=name)


def test_projected_gradient_limit_is_the_symmetric_start():
    # projected-gradient least squares on the scaled simplex converges to n
    # times the symmetric design: within 5.6e-15 after 8,000 steps on these
    # cases, the (4, 4, 8) sweep job at theta 0.6 the slowest
    start = time.process_time()
    cases = [
        (FIXTURES["d2"].mechanism, 4, 16),
        (FIXTURES["d9"].mechanism, 2, 14),
        (theta_mechanism(4, 8, 0.6), 4, 8),
    ]
    for mech, t, n in cases:
        cert = qs.solve_minimax(mech, t)
        system = build_system(cert, mech)
        limit = reference_warm_start(system.x, system.y_exact(n), n, iters=8000)
        np.testing.assert_allclose(limit, symmetric_start(system, cert, mech, n), atol=1e-12)
    assert time.process_time() - start < 2.0


def test_search_reaches_zero_residual_without_dropout():
    # block (1, 2, 3, 3) has slope 0 at x* and the others a negative one;
    # the rounding of the symmetric design is an optimum (a descent from a
    # rounding of a nearby point stopped at residual 1.06)
    mech = new_mechanism(4, 30, (0, 0, 0, 1))
    cert = qs.solve_minimax(mech, 3)
    _, report = exact_search(30, cert, mech, seed=0, restarts=8)
    assert report.residual <= 1e-10


def test_designs_match_frozen_cases():
    # recorded by make_frozen_designs.py from the search that starts from
    # the rounding of the symmetric design
    start = time.process_time()
    for k, case in enumerate(FROZEN_DESIGNS):
        where = f"case {k} ({case['name']})"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            mech = new_mechanism(case["p"], case["n"], case["a"])
        cert = qs.solve_minimax(mech, case["t"])
        assert len(cert.support) == case["support"], where
        design, report = exact_search(
            case["n"], cert, mech, seed=case["seed"], restarts=case["restarts"]
        )
        assert [[list(s), c] for s, c in sorted(design.counts.items())] == case["counts"], where
        assert report.moves == case["moves"], where
        assert abs(report.residual - case["residual"]) <= 1e-13 * abs(case["residual"]), where
    assert time.process_time() - start < 3.0


def test_search_refuses_a_mechanism_without_information():
    with pytest.warns(UserWarning, match="stay length 1"):
        mech = new_mechanism(4, 8, (1, 0, 0, 0))
    cert = qs.solve_minimax(mech, 3)
    with pytest.raises(ValidationError, match="no within-subject information"):
        exact_search(8, cert, mech)


def _block_slopes(cert, mech, reps):
    return np.array([qs.q_coeffs(r, mech, cert.t).derivative(cert.x_star) for r in reps])


def test_symmetric_solve_two_blocks_d9(d9, d9_cert):
    # the symmetric design's block weights on two of d9's blocks, spread over
    # their members as symmetric_solve spreads them
    reps = [(1, 2, 2, 1, 2, 1), (1, 2, 2, 2, 1, 1)]
    tol = 1e-9 * max(1.0, abs(d9_cert.y_star))
    w = ds._balanced_weights(_block_slopes(d9_cert, d9.mechanism, reps), tol)
    blocks = [symmetric_block(r, 2) for r in reps]
    sol = ApproximateDesign(
        p=6, t=2, weights={s: wb / b.size for wb, b in zip(w, blocks) for s in b.members()}
    )
    # exact rational weights from the slope balance
    eps = Fraction(2, 5) ** 15
    alpha5, alpha6 = (6 - eps) / 14, (8 + eps) / 14
    q12_a = alpha5 * Fraction(-1) + alpha6 * Fraction(-3, 2)
    q12_b = alpha5 * Fraction(-1, 5) + alpha6 * Fraction(1, 2)
    w_a = float(q12_b / (q12_b - q12_a))
    block_weight = {}
    for s, w in sol.weights.items():
        rep = canonical_form(s, 2)
        block_weight[rep] = block_weight.get(rep, 0.0) + w
    assert block_weight[(1, 2, 2, 1, 2, 1)] == pytest.approx(w_a, abs=1e-12)
    assert block_weight[(1, 2, 2, 2, 1, 1)] == pytest.approx(1 - w_a, abs=1e-12)
    # all support mass sits at the equilibrium value
    total = sum(
        w * qs.q_coeffs(s, d9.mechanism, 2).value(d9_cert.x_star)
        for s, w in sol.weights.items()
    )
    assert total == pytest.approx(d9_cert.y_star, abs=1e-9)
    ver = verify_approximate(sol, d9_cert, d9.mechanism)
    assert ver.residual <= 1e-8


def test_symmetric_solve_lists_only_blocks_with_weight():
    # without dropout two of the three blocks carry no weight; their float
    # noise (9.3e-18 per sequence) no longer lists their 12 members
    mech = new_mechanism(4, 30, (0, 0, 0, 1))
    cert = qs.solve_minimax(mech, 3)
    sol = symmetric_solve(cert, mech)
    assert len(sol.weights) == 6
    assert len({canonical_form(s, 3) for s in sol.weights}) == 1
    assert verify_approximate(sol, cert, mech).residual <= 1e-10


def test_symmetric_solve_single_zero_slope_block(regime_iii_case):
    mech, cert = regime_iii_case
    sol = symmetric_solve(cert, mech)
    assert len(cert.blocks) == 1
    np.testing.assert_allclose(sum(sol.weights.values()), 1.0, atol=1e-12)
    slope = sum(
        w * qs.q_coeffs(s, mech, cert.t).derivative(cert.x_star)
        for s, w in sol.weights.items()
    )
    assert slope == pytest.approx(0.0, abs=1e-9)


def test_symmetric_solve_on_frozen_certificates():
    # every frozen certificate with y* > 0 and at most 300 support sequences;
    # among them 313 and 356, where one block has slope 0 and the rest < 0
    covered = 0
    for k, case in enumerate(FROZEN_CERTIFICATES):
        if "error" in case or case["y_star"] <= 0.0:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            mech = new_mechanism(case["p"], case["n"], case["a"])
        cert = qs.solve_minimax(mech, case["t"], budget=case["budget"])
        if sum(b.size for b in cert.blocks) > 300:
            continue
        ver = verify_approximate(symmetric_solve(cert, mech), cert, mech)
        # the slope tolerance is 1e-9 * max(1, y*); the worst case reads 3.3e-10
        assert ver.residual <= 1e-9 * max(1.0, cert.y_star), f"case {k}"
        assert ver.off_support_mass == 0.0, f"case {k}"
        exact_search(1, cert, mech, restarts=0)
        covered += 1
    assert covered == 212


def test_symmetric_solve_infeasible_one_sided(d2, d2_cert):
    # the all-distinct block alone has strictly negative slope at x*
    slopes = _block_slopes(d2_cert, d2.mechanism, [(1, 2, 3, 4)])
    with pytest.raises(InfeasibleWeightsError):
        ds._balanced_weights(slopes, 1e-9 * max(1.0, abs(d2_cert.y_star)))


def _symmetric_weight_cases():
    """(name, mechanism, certificate): the fixtures, the frozen certificates with
    y* > 0 and at most 300 support sequences, and the (6, 10) regime-ii one."""
    for name, fx in sorted(FIXTURES.items()):
        yield name, fx.mechanism, qs.solve_minimax(fx.mechanism, fx.design.t)
    for k, case in enumerate(FROZEN_CERTIFICATES):
        if "error" in case or case["y_star"] <= 0.0:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            mech = new_mechanism(case["p"], case["n"], case["a"])
        cert = qs.solve_minimax(mech, case["t"], budget=case["budget"])
        if sum(b.size for b in cert.blocks) <= 300:
            yield f"frozen case {k}", mech, cert
    mech = new_mechanism(6, 14, (0, 0, 0, 0, 0.079382, 0.920618))
    cert = qs.solve_minimax(mech, 10)
    assert cert.regime == qs.REGIME_II and len(cert.support_array) == 181440
    yield "(6, 10) regime ii", mech, cert


def test_symmetric_weights_match_tuple_oracle():
    covered = 0
    for name, mech, cert in _symmetric_weight_cases():
        want = tuple_symmetric_weights(cert, mech)
        np.testing.assert_array_equal(ds._symmetric_weights(cert, mech), want, err_msg=name)
        covered += 1
    assert covered == 5 + 212 + 1


def test_search_start_reads_no_sequence_tuples(d2, d2_cert, monkeypatch):
    want, want_report = exact_search(16, d2_cert, d2.mechanism, seed=0, restarts=8)

    def refuse(*args, **kwargs):
        raise AssertionError("the search start went through sequence tuples")

    monkeypatch.setattr(ds, "symmetric_solve", refuse)
    monkeypatch.setattr(ds.OptimalitySystem, "column_index", refuse)
    design, report = exact_search(16, d2_cert, d2.mechanism, seed=0, restarts=8)
    assert design.counts == want.counts and report == want_report


def test_symmetric_solve_lists_the_weighted_support_rows(d2, d2_cert):
    w = ds._symmetric_weights(d2_cert, d2.mechanism)
    sol = symmetric_solve(d2_cert, d2.mechanism)
    assert sol.weights == {s: float(v) for s, v in zip(d2_cert.support, w) if v > 0.0}


# -- transfer descent: Gram-space engine against the ordered-move oracle -------


@st.composite
def descent_states(draw):
    """A random system (m columns, 3-12 rows) and counts of 0-3 per column."""
    m = draw(st.integers(2, 10))
    rows = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.array(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)))
    filled = draw(st.none() | st.integers(0, m - 1))
    if filled is not None:
        only = draw(st.integers(1, 3))
        counts[:] = 0
        counts[filled] = only
    x = rng.normal(size=(rows, m))
    y = rng.normal(size=rows) * max(1, counts.sum())
    return x, y, counts.astype(np.int64)


def _state(engine, counts):
    r = engine.x @ counts - engine.y
    obj = float(r @ r)
    g = engine.x.T @ r
    return r, obj, -1e-11 * max(1.0, obj), g, engine._single_gains(counts, g)


def _apply(counts, donors, receivers):
    after = counts.copy()
    for i in donors:
        after[i] -= 1
    for j in receivers:
        after[j] += 1
    return after


def _check_pair(engine, counts, pair, obj, tol):
    gain, donors, receivers = pair
    assert gain < tol
    assert not set(donors) & set(receivers)
    after = _apply(counts, donors, receivers)
    assert after.min() >= 0 and after.sum() == counts.sum()
    r_after = engine.x @ after - engine.y
    assert float(r_after @ r_after) - obj == pytest.approx(gain, rel=1e-9, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(descent_states())
def test_gram_descent_matches_ordered_move_oracle(state):
    x, y, counts = state
    engine, oracle = _TransferDescent(x, y), OrderedMoveDescent(x, y)
    r, obj, tol, g, gains = _state(engine, counts)

    ref = oracle.single_gains(counts, r)
    mine = gains[oracle.mi, oracle.mj]
    np.testing.assert_array_equal(np.isinf(mine), np.isinf(ref))
    finite = np.isfinite(ref)
    np.testing.assert_allclose(mine[finite], ref[finite], rtol=1e-9, atol=1e-12)
    assert np.all(np.isinf(np.diag(gains)))

    # the oracle's best over ordered pairs whose net effect moves two subjects
    mi, mj = oracle.mi, oracle.mj
    net_two = (mi[:, None] != mj[None, :]) & (mj[:, None] != mi[None, :])
    total = oracle.pair_gains(counts, r)
    ref_best = float(total[net_two].min()) if net_two.any() else np.inf
    pair = engine._best_pair(counts, g, gains, tol)
    if ref_best < tol:
        assert pair is not None
        assert pair[0] == pytest.approx(ref_best, rel=1e-9, abs=1e-12)
        _check_pair(engine, counts, pair, obj, tol)
    else:
        assert pair is None

    # with no near-ties in random data both descents take the same path
    got, ref_run = engine.run(counts), oracle.run(counts)
    np.testing.assert_array_equal(got[0], ref_run[0])
    assert got[1] == pytest.approx(ref_run[1], rel=1e-9, abs=1e-12)
    assert got[2] == ref_run[2]


def test_capped_pair_scan_returns_a_feasible_improving_pair(monkeypatch):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(12, 10))
    y = rng.normal(size=12) * 20
    counts = rng.integers(1, 4, size=10)
    engine = _TransferDescent(x, y)
    _, obj, tol, g, gains = _state(engine, counts)
    width = engine.ua.size
    full = engine._best_pair(counts, g, gains, tol)
    # keep the three donor multisets whose best single gains sum lowest
    best_out = gains.min(axis=1)
    scored = sorted(
        (best_out[a] + best_out[b], (a, b))
        for a in range(10)
        for b in range(a, 10)
        if counts[a] >= 1 + (a == b) and counts[b] >= 1
    )
    kept = [donors for _, donors in scored[:3]]
    monkeypatch.setattr(_TransferDescent, "_PAIR_CAP", 3 * width)
    monkeypatch.setattr(_TransferDescent, "_PAIR_BLOCK", width)  # one donor per block
    capped = engine._best_pair(counts, g, gains, tol)
    assert capped is not None and capped[1] in kept
    _check_pair(engine, counts, capped, obj, tol)
    assert capped[0] >= full[0]


def _tied_system():
    """Integer system with columns 0 = 1 and 2 = 3 = 4, so gains tie exactly."""
    u = np.array([1, 0, 2, -1, 0, 1])
    v = np.array([0, 1, -1, 1, 2, 0])
    w = np.array([1, 1, 0, 0, -1, 2])
    x = np.column_stack([u, u, v, v, v, w]).astype(float)
    y = 3.0 * v + 2.0 * w
    return _TransferDescent(x, y)


def test_single_sweep_breaks_ties_on_the_lowest_move():
    engine = _tied_system()
    counts = np.array([2, 2, 0, 0, 0, 1])
    _, _, _, g, gains = _state(engine, counts)
    ties = np.argwhere(gains == gains.min())
    assert len(ties) > 1
    k = int(np.argmin(gains))
    assert divmod(k, gains.shape[1]) == tuple(ties[0])
    assert tuple(ties[0]) == (0, 2)


def test_pair_scan_breaks_ties_on_the_lowest_multisets(monkeypatch):
    engine = _tied_system()
    counts = np.array([2, 2, 0, 0, 0, 1])
    r, obj, tol, g, gains = _state(engine, counts)
    m = len(counts)
    multisets = [(a, b) for a in range(m) for b in range(a, m)]
    best, best_gain = None, np.inf
    ties = 0
    for donors in multisets:
        if _apply(counts, donors, ()).min() < 0:
            continue
        for receivers in multisets:
            if set(donors) & set(receivers):
                continue
            r2 = engine.x @ _apply(counts, donors, receivers) - engine.y
            gain = float(r2 @ r2) - obj  # exact: integer arithmetic
            ties += gain == best_gain
            if gain < best_gain:
                best, best_gain, ties = (donors, receivers), gain, 1
    assert ties > 1 and best_gain < tol
    pair = engine._best_pair(counts, g, gains, tol)
    assert pair == (best_gain, *best)
    # one donor per block: the earliest block keeps its tie
    monkeypatch.setattr(_TransferDescent, "_PAIR_BLOCK", engine.ua.size)
    assert engine._best_pair(counts, g, gains, tol) == pair


def test_descent_on_tied_system_is_deterministic():
    # exact_search itself is covered by test_search_deterministic
    engine = _tied_system()
    start = np.array([2, 2, 0, 0, 0, 1])
    first = engine.run(start)
    again = _tied_system().run(start)
    np.testing.assert_array_equal(first[0], again[0])
    assert first[1:] == again[1:]


# -- bound-pruned pair scan against the dense oracle ---------------------------


@contextmanager
def pruning():
    """Engines built inside prune receivers at any width."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_TransferDescent, "_PRUNE_FROM", 0)
        yield


@contextmanager
def row_paths():
    """Records the number of rows each of the dense and compact row scans takes."""
    taken = {"dense": 0, "compact": 0}
    dense, compact = _TransferDescent._dense_rows, _TransferDescent._compact_rows

    def on_dense(self, s, *args):
        taken["dense"] += len(s)
        return dense(self, s, *args)

    def on_compact(self, s, *args):
        taken["compact"] += len(s)
        return compact(self, s, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_TransferDescent, "_dense_rows", on_dense)
        mp.setattr(_TransferDescent, "_compact_rows", on_compact)
        yield taken


@st.composite
def pair_scan_states(draw):
    """A random system and counts, with Gram entries of both signs or none negative."""
    x, y, counts = draw(descent_states())
    if draw(st.booleans()):
        x = np.abs(x)  # min Q >= 0: the bound prunes
    return x, y, counts


@settings(max_examples=200, deadline=None)
@given(pair_scan_states())
def test_pruned_pair_scan_equals_dense_oracle(state):
    x, y, counts = state
    with pruning():
        engine = _TransferDescent(x, y)
    assert engine.prune
    for _ in range(4):  # along the first steps of the descent
        r, obj, tol, g, gains = _state(engine, counts)
        pair = engine._best_pair(counts, g, gains, tol)
        assert pair == dense_best_pair(engine, counts, g, gains, tol)
        i, j = divmod(int(np.argmin(gains)), len(counts))
        if gains[i, j] < tol:
            counts = _apply(counts, (i,), (j,))
        elif pair is not None:
            counts = _apply(counts, *pair[1:])
        else:
            break


@st.composite
def row_scan_states(draw):
    """Donor-row sums, receiver sums and candidate masks of 1 to m columns per row.

    Small integers make exact ties common; any number of candidates may go
    to ``_compact_rows`` here, which ``_pruned_rows`` caps below m / 2.
    """
    m = draw(st.integers(1, 12))
    rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = rng.integers(-3, 4, size=(rows, m)).astype(float)
    h_recv = rng.integers(-3, 4, size=m * (m + 1) // 2).astype(float)
    cand = rng.random((rows, m)) < draw(st.floats(0.0, 1.0))
    cand[np.arange(rows), rng.integers(0, m, size=rows)] = True
    return s, cand, h_recv


@settings(max_examples=200, deadline=None)
@given(row_scan_states())
def test_compact_rows_equal_dense_rows_over_the_candidates(state):
    s, cand, h_recv = state
    engine = _TransferDescent(np.eye(s.shape[1]), np.zeros(s.shape[1]))
    best, recv = engine._compact_rows(s, cand, h_recv)
    dense_best, dense_recv = engine._dense_rows(np.where(cand, s, np.inf), h_recv)
    np.testing.assert_array_equal(best, dense_best)
    np.testing.assert_array_equal(recv, dense_recv)  # the lowest receiver among ties


@pytest.mark.parametrize("n", [20, 64])
@pytest.mark.parametrize("name", ["d2", "d4", "d6"])
def test_pruned_pair_scan_equals_dense_oracle_on_fixture_searches(name, n, monkeypatch):
    fx = FIXTURES[name]
    cert = qs.solve_minimax(fx.mechanism, fx.design.t)
    scan, found, capped = _TransferDescent._best_pair, [], []

    def checked(engine, counts, g, gains, tol):
        pair = scan(engine, counts, g, gains, tol)
        assert pair == dense_best_pair(engine, counts, g, gains, tol)
        ua, ub = engine.ua, engine.ub
        donors = np.count_nonzero((counts[ua] >= 1) & (counts[ub] >= 1 + (ua == ub)))
        capped.append(donors > engine._PAIR_CAP // ua.size)
        found.append(pair is not None)
        return pair

    monkeypatch.setattr(_TransferDescent, "_best_pair", checked)
    with row_paths() as taken:
        exact_search(n, cert, fx.mechanism, seed=0, restarts=0 if name == "d6" else 3)
    assert any(found) and taken["compact"] > 0
    # d6 at n = 64 occupies enough of its 240 columns to prune donors
    assert any(capped) == (name == "d6" and n == 64)


def test_pair_scan_without_a_donor_multiset():
    # n = 1: a pair needs two subjects
    rng = np.random.default_rng(3)
    x = np.abs(rng.normal(size=(6, 40)))
    engine = _TransferDescent(x, rng.normal(size=6))
    counts = np.zeros(40, dtype=np.int64)
    counts[7] = 1
    _, _, tol, g, gains = _state(engine, counts)
    with row_paths() as taken:
        assert engine._best_pair(counts, g, gains, tol) is None
    assert taken == {"dense": 0, "compact": 0}
    assert dense_best_pair(engine, counts, g, gains, tol) is None


def test_descent_on_a_one_column_support():
    x = np.array([[1.0], [2.0], [-1.0]])
    y = np.array([2.0, 5.0, -3.0])
    with pruning():
        engine = _TransferDescent(x, y)
    counts = np.array([4])
    _, _, tol, g, gains = _state(engine, counts)
    assert engine._best_pair(counts, g, gains, tol) is None
    got, residual, moves = engine.run(counts)
    np.testing.assert_array_equal(got, counts)
    assert moves == 0 and residual == pytest.approx(float(np.linalg.norm(x @ counts - y)))


def test_pair_scan_prunes_every_donor_row_at_zero_residual():
    # orthonormal columns and r = 0: every pair gains at least 4 - 2 = 2
    x = np.linalg.qr(np.random.default_rng(4).normal(size=(44, 40)))[0]
    counts = np.zeros(40, dtype=np.int64)
    counts[[0, 3, 3, 9, 17]] += 1
    engine = _TransferDescent(x, x @ counts)
    r, _, tol, g, gains = _state(engine, counts)
    assert not r.any()
    with row_paths() as taken:
        assert engine._best_pair(counts, g, gains, tol) is None
    assert taken == {"dense": 0, "compact": 0}
    assert dense_best_pair(engine, counts, g, gains, tol) is None


def test_pair_scan_sends_a_row_with_many_candidates_to_the_dense_path():
    # x = I and g = 2 on the occupied columns, 0 elsewhere: every empty
    # column is a candidate receiver, 36 of them against m / 2 = 20
    m = 40
    counts = np.zeros(m, dtype=np.int64)
    counts[:4] = 1
    target = 2.0 * (counts > 0)
    engine = _TransferDescent(np.eye(m), counts - target)
    _, _, tol, g, gains = _state(engine, counts)
    np.testing.assert_array_equal(g, target)
    with row_paths() as taken:
        pair = engine._best_pair(counts, g, gains, tol)
    assert taken == {"dense": 6, "compact": 0}
    assert pair == dense_best_pair(engine, counts, g, gains, tol)
    assert pair == (-4.0, (0, 1), (4, 5))  # the lowest of the exact ties


def test_pair_scan_scans_rows_densely_from_half_the_columns():
    # a row with k of m columns left goes compact only while 2k < m, where
    # its scratch stays under the dense scan's
    m = 10
    rng = np.random.default_rng(5)
    engine = _TransferDescent(np.eye(m), np.zeros(m))
    s, h_recv = rng.normal(size=(2, m)), rng.normal(size=m * (m + 1) // 2)
    cand = np.zeros((2, m), dtype=bool)
    cand[0, :4] = cand[1, 3:8] = True  # k = 4 and k = 5
    with row_paths() as taken:
        total, recv = engine._pruned_rows(s, cand, h_recv)
    assert taken == {"dense": 1, "compact": 1}
    # row 0 over its candidates' multisets, row 1 over every multiset
    dense_total, dense_recv = engine._dense_rows(np.where(cand, s, np.inf), h_recv)
    full_total, full_recv = engine._dense_rows(s, h_recv)
    np.testing.assert_array_equal(total, [dense_total[0], full_total[1]])
    np.testing.assert_array_equal(recv, [dense_recv[0], full_recv[1]])


def test_pair_scan_breaks_ties_on_the_compact_path(monkeypatch):
    # the tied rows keep half of the 6 columns or more, so send every row
    # with candidates to the compact scan, which alone orders the ties here
    def all_compact(self, s, cand, h_recv):
        total, recv = np.full(len(s), np.inf), np.zeros(len(s), dtype=np.int64)
        some = cand.any(axis=1)
        total[some], recv[some] = self._compact_rows(s[some], cand[some], h_recv)
        return total, recv

    monkeypatch.setattr(_TransferDescent, "_pruned_rows", all_compact)
    with pruning():
        engine = _tied_system()
    counts = np.array([2, 2, 0, 0, 0, 1])
    _, _, tol, g, gains = _state(engine, counts)
    with row_paths() as taken:
        pair = engine._best_pair(counts, g, gains, tol)
    assert taken["compact"] > 0 and taken["dense"] == 0
    # the lowest (D, R) among the exact ties, as in the dense scan
    assert pair == dense_best_pair(_tied_system(), counts, g, gains, tol)
