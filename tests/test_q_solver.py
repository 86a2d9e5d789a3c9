import dataclasses
import json
import math
import warnings
from fractions import Fraction
from itertools import chain, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crossover_dropout import fixtures
from crossover_dropout import matrix_kernels as mk
from crossover_dropout import q_solver as qs
from crossover_dropout import sequences as sq
from crossover_dropout.dropout_model import new_mechanism
from crossover_dropout.errors import BudgetExceededError

from _oracles import (
    apply_permutation,
    carryover_incidence,
    enumerate_sequences,
    format_sequence,
    full_prefix_terms,
    incidence,
    orbit,
    scalar_q_coeffs,
)


def trace_q(s, mech, t):
    """Trace-based oracle for the quadratic coefficients."""
    T = incidence(s, t)
    F = carryover_incidence(s, t)
    bt = mk.centering(t)
    th, fh = T @ bt, F @ bt
    return (
        float(np.trace(th.T @ mech.A @ th)),
        float(np.trace(th.T @ mech.A @ fh)),
        float(np.trace(fh.T @ mech.A @ fh)),
    )


def exact_d2_alphas():
    eps = Fraction(1, 2) ** 17
    return (Fraction(17, 2) - eps) / 16, (Fraction(15, 2) + eps) / 16


def exact_d2_y_star():
    alpha3, alpha4 = exact_d2_alphas()
    return alpha3 * Fraction(91, 54) + alpha4 * Fraction(131, 48)


def test_q_coeffs_complete_distinct_run():
    mech = new_mechanism(4, 16, (0, 0, 0, 1))
    q = qs.q_coeffs((1, 2, 3, 4), mech, 4)
    assert q.q11 == pytest.approx(3.0, abs=1e-15)
    assert q.q12 == pytest.approx(-0.75, abs=1e-15)
    assert q.q22 == pytest.approx(33 / 16, abs=1e-15)


def test_q_coeffs_constant_sequence():
    mech = new_mechanism(4, 16, (0, 0, 0.5, 0.5))
    q = qs.q_coeffs((1, 1, 1, 1), mech, 4)
    assert q.q11 == pytest.approx(0.0, abs=1e-15)


def test_q_closed_form_equals_trace_over_full_enumerations():
    rng = np.random.default_rng(17)
    for t in (2, 3, 4):
        for p in (2, 3, 4, 5):
            a = rng.dirichlet(np.ones(p - 1))
            mech = new_mechanism(p, int(rng.integers(2, 30)), np.concatenate([[0.0], a]))
            for s in enumerate_sequences(t, p):
                q = qs.q_coeffs(s, mech, t)
                ref = trace_q(s, mech, t)
                assert q.q11 == pytest.approx(ref[0], abs=1e-10)
                assert q.q12 == pytest.approx(ref[1], abs=1e-10)
                assert q.q22 == pytest.approx(ref[2], abs=1e-10)
                assert q.q22 > 0.0


def test_q_coeff_arrays_match_scalar_path():
    # every representative, against the scalar prefix-count formula; q_coeffs
    # is one row of the same arithmetic, on any member of the orbit
    rng = np.random.default_rng(3)
    for p, t, a in [(4, 4, (0, 0, 0.5, 0.5)), (5, 3, (0.1, 0.2, 0, 0.3, 0.4)), (3, 6, (0, 1, 0))]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            mech = new_mechanism(p, 16, a)
        seqs, q11, q12, q22 = qs.q_coeff_arrays(mech, t)
        for idx, row in enumerate(seqs):
            ref = scalar_q_coeffs(row + 1, mech, t)
            np.testing.assert_allclose((q11[idx], q12[idx], q22[idx]), ref, rtol=0, atol=1e-12)
            sigma = rng.permutation(t) + 1
            q = qs.q_coeffs(apply_permutation(row + 1, sigma), mech, t)
            np.testing.assert_allclose(q, ref, rtol=0, atol=1e-12)


def test_q_permutation_invariance():
    rng = np.random.default_rng(23)
    mech = new_mechanism(4, 10, (0, 0.2, 0.3, 0.5))
    for _ in range(100):
        s = tuple(rng.integers(1, 4, size=4).tolist())
        base = qs.q_coeffs(s, mech, 3)
        for sigma in permutations(range(1, 4)):
            image = qs.q_coeffs(apply_permutation(s, sigma), mech, 3)
            assert image.q11 == pytest.approx(base.q11, abs=1e-12)
            assert image.q12 == pytest.approx(base.q12, abs=1e-12)
            assert image.q22 == pytest.approx(base.q22, abs=1e-12)


def test_q_derivative_vertex_and_finite_difference():
    mech = new_mechanism(4, 16, (0, 0, 0.5, 0.5))
    q = qs.q_coeffs((1, 2, 3, 3), mech, 4)
    vertex = -q.q12 / q.q22
    assert q.derivative(vertex) == pytest.approx(0.0, abs=1e-12)
    h = 0.5
    for x in (-1.0, 0.0, 0.7):
        fd = (q.value(x + h) - q.value(x - h)) / (2 * h)
        assert q.derivative(x) == pytest.approx(fd, abs=1e-12)


def test_slope_ratio_exact_oracle(d9):
    # exact rational evaluation of both slopes at the equilibrium point 0
    eps = Fraction(2, 5) ** 15
    alpha5 = (6 - eps) / 14
    alpha6 = (8 + eps) / 14
    q12_a = alpha5 * Fraction(-1) + alpha6 * Fraction(-3, 2)
    q12_b = alpha5 * Fraction(-1, 5) + alpha6 * Fraction(1, 2)
    expected = float(q12_a / q12_b)
    qa = qs.q_coeffs((1, 2, 2, 1, 2, 1), d9.mechanism, 2)
    qb = qs.q_coeffs((1, 2, 2, 2, 1, 1), d9.mechanism, 2)
    assert qa.q12 / qb.q12 == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-6.4285699, abs=1e-7)


def test_minimax_half_half_certificate(d2, d2_cert):
    cert = d2_cert
    assert cert.x_star == pytest.approx(1 / 3, abs=1e-9)
    assert cert.y_star == pytest.approx(float(exact_d2_y_star()), abs=1e-12)
    assert cert.regime == qs.REGIME_II
    assert len(cert.support) == 48
    reps = {b.representative for b in cert.blocks}
    assert reps == {(1, 2, 3, 4), (1, 2, 3, 3)}


def test_closed_form_half_half_exact_x():
    mech = new_mechanism(4, 16, (0, 0, 0.5, 0.5))
    cert = qs.closed_form(mech, 4)
    assert cert is not None and cert.regime == qs.REGIME_II
    assert cert.x_star == 1 / 3
    assert cert.y_star == pytest.approx(float(exact_d2_y_star()), abs=1e-12)


def test_minimax_two_treatment_six_periods(d9, d9_cert):
    cert = d9_cert
    assert cert.x_star == pytest.approx(0.0, abs=1e-12)
    assert len(cert.support) == 20
    assert cert.regime == qs.REGIME_I
    # y* equals the balanced-count value assembled from exact coefficients
    eps = Fraction(2, 5) ** 15
    y_exact = (6 - eps) / 14 * Fraction(12, 5) + (8 + eps) / 14 * 3
    assert cert.y_star == pytest.approx(float(y_exact), abs=1e-12)


def test_complete_experiment_certificate():
    mech = new_mechanism(4, 16, (0, 0, 0, 1))
    cert = qs.solve_minimax(mech, 4)
    assert cert.regime == qs.REGIME_II
    assert cert.x_star == pytest.approx(1 / 3, abs=1e-9)
    assert {b.representative for b in cert.blocks} == {(1, 2, 3, 4), (1, 2, 3, 3)}


def test_closed_form_agrees_with_numeric_when_present():
    rng = np.random.default_rng(6)
    seen = set()
    cases = []
    for _ in range(80):
        p = int(rng.integers(2, 6))
        t = int(rng.integers(2, 6))
        a = np.concatenate([[0.0], rng.dirichlet(np.ones(p - 1) * rng.uniform(0.4, 3.0))])
        cases.append((p, t, int(rng.integers(2, 25)), a))
    for _ in range(20):
        # late-dropout mechanisms where every stay length exceeds t
        p = int(rng.integers(4, 7))
        t = 2
        m = int(rng.integers(3, p + 1))
        a = np.zeros(p)
        a[m - 1 :] = rng.dirichlet(np.ones(p - m + 1))
        cases.append((p, t, int(rng.integers(2, 25)), a))
    for p, t, n, a in cases:
        mech = new_mechanism(p, n, a)
        closed = qs.closed_form(mech, t)
        if closed is None:
            continue
        seen.add(closed.regime)
        numeric = qs.solve_minimax(mech, t)
        assert abs(closed.x_star - numeric.x_star) <= 1e-9
        assert abs(closed.y_star - numeric.y_star) <= 1e-9 * max(1.0, abs(numeric.y_star))
        assert set(closed.support) == set(numeric.support)
    assert {qs.REGIME_I, qs.REGIME_II} <= seen


def test_closed_form_regime_iii_agrees_with_numeric(regime_iii_case):
    mech, closed = regime_iii_case
    numeric = qs.solve_minimax(mech, 4)
    assert numeric.regime == qs.REGIME_III
    assert abs(closed.x_star - numeric.x_star) <= 1e-9
    assert abs(closed.y_star - numeric.y_star) <= 1e-9 * max(1.0, abs(numeric.y_star))
    assert set(closed.support) == set(numeric.support)
    assert 1 / (mech.p - 1) < closed.x_star < 1 / (mech.p - 2)


def test_closed_form_regime_i_prunes_unbalanced_prefixes():
    # 3**20 sequences in about 5.8e8 orbits, of which 93,312 are balanced:
    # the blocks must come from pruned growth, not a filter over every orbit
    p, m, t = 20, 4, 3
    mech = new_mechanism(p, 40, (0.0,) * (m - 1) + (1.0,) + (0.0,) * (p - m))
    cert = qs.closed_form(mech, t)
    assert cert is not None and cert.regime == qs.REGIME_I and cert.x_star == 0.0
    # count the balanced sequences by a dynamic program over count vectors
    ways = {(0,) * t: 1}
    for k in range(1, p + 1):
        nxt: dict = {}
        for counts, w in ways.items():
            for i in range(t):
                c = counts[:i] + (counts[i] + 1,) + counts[i + 1 :]
                if k < m or max(c) - min(c) <= 1:
                    nxt[c] = nxt.get(c, 0) + w
        ways = nxt
    assert sum(b.size for b in cert.blocks) == sum(ways.values()) == 559872
    reps = [b.representative for b in cert.blocks]
    assert len(reps) == 93312 and reps == sorted(reps)


def test_certificate_support_properties(d2, d2_cert):
    mech, cert = d2.mechanism, d2_cert
    tol = 1e-9 * max(1.0, cert.y_star)
    support = set(cert.support)
    for s in enumerate_sequences(4, 4):
        value = qs.q_coeffs(s, mech, 4).value(cert.x_star)
        if s in support:
            assert abs(value - cert.y_star) <= tol
        else:
            assert value <= cert.y_star + tol
    assert cert.y_star > 0.0


def test_max_envelope_is_convex(d2):
    mech = d2.mechanism
    _, q11, q12, q22 = qs.q_coeff_arrays(mech, 4)

    def h(x):
        return float(np.max(q11 + 2 * q12 * x + q22 * x * x))

    rng = np.random.default_rng(10)
    for _ in range(100):
        x1, x2 = sorted(rng.uniform(-3, 3, size=2))
        mid = (x1 + x2) / 2
        assert h(mid) <= (h(x1) + h(x2)) / 2 + 1e-10


def test_single_block_uniform_weights_attain_y_star(d2, d2_cert):
    # every support sequence sits at the peak, so any block average does too
    for block in d2_cert.blocks:
        members = block.members()
        total = sum(
            qs.q_coeffs(s, d2.mechanism, 4).value(d2_cert.x_star) for s in members
        ) / len(members)
        assert total == pytest.approx(d2_cert.y_star, abs=1e-9)


def test_solve_minimax_budget_guard():
    mech = new_mechanism(8, 4, (0, 0, 0, 0, 0, 0, 0.5, 0.5))
    with pytest.raises(BudgetExceededError):
        qs.solve_minimax(mech, 6, budget=10**4)


def test_solve_minimax_refuses_a_support_over_budget_before_listing_it():
    # 4,140 representatives, but the regime-ii support has 12!/5! + 12!/4! members
    mech = new_mechanism(8, 16, (0, 0, 0, 0, 0, 0, 0.5, 0.5))
    with pytest.raises(BudgetExceededError, match="the support lists 23950080 sequences"):
        qs.solve_minimax(mech, 12)


def test_solve_minimax_x_star_is_never_negative_zero():
    cert = qs.solve_minimax(new_mechanism(5, 37, (0, 0, 0.6, 0, 0.4)), 2)
    assert cert.x_star == 0.0
    assert math.copysign(1, cert.x_star) == 1


def _differential_mechanisms(rng, p):
    """Five seeded mechanisms: three spread, one late-dropout, one two-point."""
    for _ in range(3):
        a = rng.dirichlet(np.ones(p - 1) * rng.uniform(0.4, 3.0))
        yield new_mechanism(p, int(rng.integers(2, 40)), np.concatenate([[0.0], a]))
    m = int(rng.integers(2, p + 1))
    a = np.zeros(p)
    a[m - 1 :] = rng.dirichlet(np.ones(p - m + 1))
    yield new_mechanism(p, int(rng.integers(2, 40)), a)
    theta = rng.uniform(0.05, 0.95)
    a = np.zeros(p)
    a[int(rng.integers(1, max(2, p - 1)))] = theta
    a[p - 1] += 1.0 - theta
    yield new_mechanism(p, int(rng.integers(2, 40)), a)


def test_orbit_space_certificate_matches_full_enumeration():
    # For every (p, t) with t**p <= 1e5, against all t**p sequences: the peak
    # of q_s(x*) is y*, and the sequences at the peak are exactly the
    # certificate's blocks, orbit by orbit.  Supports of up to 1e4 sequences
    # are also compared member by member with the listed support.
    rng = np.random.default_rng(2024)
    cases = [(p, t) for t in range(2, 317) for p in range(2, 17) if t**p <= 10**5]
    for p, t in cases:
        seqs, terms = full_prefix_terms(t, p)
        place = t ** np.arange(p - 1, -1, -1)
        # each sequence's orbit, as the index of its canonical form (labels
        # renumbered by first appearance) in the full listing
        first = (seqs[:, :, None] == seqs[:, None, :]).argmax(axis=2)
        rank = np.cumsum(first == np.arange(p), axis=1) - 1
        orbit_index = np.take_along_axis(rank, first, axis=1) @ place
        for mech in _differential_mechanisms(rng, p):
            cert = qs.solve_minimax(mech, t)
            case = (p, t, tuple(mech.alpha))
            q11, q12, q22 = terms @ mech.alpha
            vals = q11 + 2.0 * q12 * cert.x_star + q22 * cert.x_star**2
            scale = max(1.0, abs(cert.y_star))
            assert abs(vals.max() - cert.y_star) <= 1e-12 * scale, case
            peak = np.flatnonzero(vals >= cert.y_star - 1e-9 * scale)
            # the slopes at the peak straddle 0, so x* minimizes max_s q_s
            slopes = 2.0 * q12[peak] + 2.0 * q22[peak] * cert.x_star
            assert slopes.min() <= 1e-9 * scale and slopes.max() >= -1e-9 * scale, case
            expected = np.zeros(t**p, dtype=np.int64)
            for b in cert.blocks:
                expected[(np.array(b.representative) - 1) @ place] = b.size
            np.testing.assert_array_equal(
                np.bincount(orbit_index[peak], minlength=t**p), expected, err_msg=str(case)
            )
            if len(peak) <= 10**4:
                listed = (np.array(cert.support).reshape(-1, p) - 1) @ place
                np.testing.assert_array_equal(listed, peak, err_msg=str(case))


FROZEN_CERTIFICATES = json.loads(Path(__file__).with_name("frozen_certificates.json").read_text())


def test_certificates_match_frozen_cases():
    # 400 seeded mechanisms over p 2-7 and t 2-10, recorded by
    # make_frozen_certificates.py from the golden-section minimizer with an
    # analytic polish that the envelope walk replaced
    for k, case in enumerate(FROZEN_CERTIFICATES):
        where = f"case {k}"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            mech = new_mechanism(case["p"], case["n"], case["a"])
        try:
            cert = qs.solve_minimax(mech, case["t"], budget=case["budget"])
        except BudgetExceededError:
            assert case.get("error") == "BudgetExceededError", where
            continue
        assert "error" not in case, where
        assert cert.regime == case["regime"], where
        assert [list(b.representative) for b in cert.blocks] == case["blocks"], where
        y = case["y_star"]
        assert abs(cert.y_star - y) <= 1e-12 * abs(y), where
        x = case["x_star"]
        if abs(cert.x_star - x) > 1e-9:
            # only where the recorded x* is no minimizer: h there exceeds the
            # recorded y* (case 143, whose h is about 1e-11 at x*, 4e-15 apart)
            _, q11, q12, q22 = qs.q_coeff_arrays(mech, case["t"])
            assert np.max(q11 + 2.0 * q12 * x + q22 * x * x) > y * (1.0 + 1e-12), where


@pytest.mark.parametrize("name", ["d2", "d4", "d6", "d8", "d9"])
def test_envelope_walk_is_scale_free(name):
    # scaling every q_s by a power of 2 scales h exactly, so the minimizer
    # must not move by a bit; a mechanism with nearly all mass on stay
    # length 1 has h of order 1e-11
    fx = fixtures.get_fixture(name)
    _, q11, q12, q22 = qs.q_coeff_arrays(fx.mechanism, fx.design.t)
    x_star = qs._envelope_minimizer(q11, q12, q22)
    for scale in (2.0**-60, 2.0**-40, 2.0**40):
        assert qs._envelope_minimizer(q11 * scale, q12 * scale, q22 * scale) == x_star


def test_degenerate_all_drop_first_period():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        mech = new_mechanism(2, 4, (1.0, 0.0))
    cert = qs.solve_minimax(mech, 2)
    assert cert.y_star == pytest.approx(0.0, abs=1e-15)


def test_certificate_json_round_trip(d9_cert):
    payload = d9_cert.to_dict()
    assert payload["regime"] == qs.REGIME_I
    assert payload["x_star"] == d9_cert.x_star
    assert len(payload["support"]) == 20
    assert payload["mechanism"]["n"] == 14


@pytest.mark.parametrize("p, t", [(4, 4), (3, 9), (3, 10), (3, 12)])
def test_certificate_support_listing_matches_format_sequence(p, t):
    # digits up to t = 9, comma-separated labels (10, 11, 12) from t = 10
    cert = qs.solve_minimax(new_mechanism(p, 20, (0,) * (p - 2) + (0.5, 0.5)), t)
    support = cert.to_dict()["support"]
    assert support == [format_sequence(s, t) for s in cert.support]
    assert [sq.parse_sequence(text, t) for text in support] == list(cert.support)
    assert any("," in text for text in support) == (t >= 10)
    assert t < 10 or any(str(t) in text.split(",") for text in support)


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(2, 7),
    t=st.integers(2, 12),
    weights=st.lists(st.integers(0, 9), min_size=6, max_size=6),
)
@example(p=4, t=10, weights=[5, 8, 0, 0, 0, 0])  # 7 numeric blocks
@example(p=6, t=10, weights=[3, 6, 7, 3, 0, 0])  # numeric, 5040-member blocks
@example(p=4, t=11, weights=[7, 3, 0, 0, 0, 0])
@example(p=4, t=12, weights=[0, 1, 1, 0, 0, 0])  # closed_form_ii
@example(p=6, t=2, weights=[0, 0, 0, 0, 1, 0])  # closed_form_i
def test_support_array_and_members_match_itertools_oracle(p, t, weights):
    # stay length 1 carries no information; a mechanism needs some mass
    a = np.array([0.0] + weights[: p - 1])
    if not a.any():
        a[-1] = 1.0
    cert = qs.solve_minimax(new_mechanism(p, 20, a / a.sum()), t, budget=10**12)
    # the blocks the itertools oracle lists in well under a second
    blocks = tuple(b for b in cert.blocks if b.size <= 20_000)
    assume(blocks)
    cert = dataclasses.replace(cert, blocks=blocks)
    for b in blocks:
        assert b.members() == orbit(b.representative, t)
        assert b.member_array().shape == (b.size, p)
    expected = sorted(chain.from_iterable(orbit(b.representative, t) for b in blocks))
    assert cert.support_array.tolist() == [list(s) for s in expected]
    assert not cert.support_array.flags.writeable
    assert cert.support == tuple(expected)
    assert cert.to_dict()["support"] == [format_sequence(s, t) for s in expected]


def test_late_dropout_at_long_p_stops_at_the_budget():
    # m = 38 > t = 2: unpruned growth would reach 2**37 prefixes and exhaust
    # memory long before it ended
    mech = new_mechanism(40, 20, (0,) * 37 + (1.0, 0, 0))
    with pytest.raises(BudgetExceededError, match="canonical sequences"):
        qs.closed_form(mech, 2, budget=10**6)
