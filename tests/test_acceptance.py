"""Acceptance gate: every criterion at its stated tolerance.

Each test records a PASS/FAIL line (printed in the terminal summary) before
asserting, so the per-criterion outcome is visible even on failure.  Frozen
reference targets are asserted exactly as stated; where exact recomputation
contradicts a frozen target the test is expected to stay red rather than be
loosened (8a).  A target changes only when an exact derivation shows the
program right and a test pins where the printed number came from: the d9
entries 3b, 3c and 6b assert their exact 14-subject values, and 3d shows that
the printed ones belong to a 64-subject certificate.
"""

import time
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

import _acceptance_log
from _oracles import (
    SingularCovarianceError,
    apply_permutation,
    enumerate_sequences,
    orbit,
    realized_components_batch,
    realized_info,
    surrogate_info_matrix,
    surrogate_kernel,
    type_h_identity_check,
)

from crossover_dropout import evaluation as ev
from crossover_dropout import matrix_kernels as mk
from crossover_dropout import q_solver as qs
from crossover_dropout import sequences as sq
from crossover_dropout.design_search import ExactDesign, build_system, exact_search
from crossover_dropout.dropout_model import new_mechanism
from crossover_dropout.information import criterion, design_matrices, surrogate_info


def record(cid, name, ok, detail=""):
    _acceptance_log.record(cid, name, bool(ok), detail)


# -- criterion 1 -----------------------------------------------------------------


def test_ac1_certificate_half_half(d2, d2_cert):
    start = time.perf_counter()
    closed = qs.closed_form(d2.mechanism, 4)
    numeric = qs.solve_minimax(d2.mechanism, 4)
    elapsed = time.perf_counter() - start
    ok = (
        closed is not None
        and closed.regime == qs.REGIME_II
        and closed.x_star == 1 / 3
        and abs(closed.y_star - 2.1745528) <= 1e-6
        and abs(numeric.x_star - closed.x_star) <= 1e-9
        and abs(numeric.y_star - closed.y_star) <= 1e-9
        and elapsed < 5.0
    )
    record("1", "certificate, half-half scenario", ok,
           f"x*={closed.x_star!r} y*={closed.y_star:.7f} {elapsed:.2f}s")
    assert closed is not None and closed.regime == qs.REGIME_II
    assert closed.x_star == 1 / 3
    assert abs(closed.y_star - 2.1745528) <= 1e-6
    assert abs(numeric.x_star - closed.x_star) <= 1e-9
    assert abs(numeric.y_star - closed.y_star) <= 1e-9
    assert elapsed < 5.0


# -- criterion 2 -----------------------------------------------------------------

TABLE_D2_PHI0 = {"A": 0.7058735, "D": 0.7094851, "E": 0.6337475, "T": 0.7130567}
TABLE_D2_V = {"A": 0.05266523, "D": 0.05129209, "E": 0.06979073, "T": 0.05005383}
TABLE_D2_E1 = {"A": 0.9989759, "D": 0.9991830, "E": 0.9848636, "T": 0.9993922}
TABLE_D2_G = {"A": 0.9748175, "D": 0.9796020, "E": 0.8877519, "T": 0.9843273}
TABLE_D2_L = {"A": 0.9738192, "D": 0.9788017, "E": 0.8743145, "T": 0.9837291}


def test_ac2_table_d2_exact(d2_exact_reports):
    reports, elapsed = d2_exact_reports
    deviations = []
    ok = elapsed < 300.0
    for c in "ADET":
        r = reports[c]
        checks = [
            abs(r.phi0 - TABLE_D2_PHI0[c]) <= 2e-3,
            abs(r.v_phi - TABLE_D2_V[c]) <= 2e-3,
            abs(r.e1_tilde - TABLE_D2_E1[c]) <= 1e-3,
            abs(r.gap - TABLE_D2_G[c]) <= 1e-3,
            abs(r.ell - TABLE_D2_L[c]) <= 1e-3,
        ]
        ok = ok and all(checks)
        deviations.append(f"{c}:{max(abs(r.phi0 - TABLE_D2_PHI0[c]), abs(r.v_phi - TABLE_D2_V[c])):.1e}")
    record("2", "16-subject table reproduction (exact)", ok,
           f"{elapsed:.1f}s max-dev {' '.join(deviations)}")
    assert elapsed < 300.0
    for c in "ADET":
        r = reports[c]
        assert r.phi0 == pytest.approx(TABLE_D2_PHI0[c], abs=2e-3)
        assert r.v_phi == pytest.approx(TABLE_D2_V[c], abs=2e-3)
        assert r.e1_tilde == pytest.approx(TABLE_D2_E1[c], abs=1e-3)
        assert r.gap == pytest.approx(TABLE_D2_G[c], abs=1e-3)
        assert r.ell == pytest.approx(TABLE_D2_L[c], abs=1e-3)


# -- criterion 3 -----------------------------------------------------------------


def test_ac3_table_d9_phi0_v_gap(d9_exact_reports):
    reports, elapsed = d9_exact_reports
    r = reports["T"]
    ok = (
        abs(r.phi0 - 2.7368) <= 5e-3
        and abs(r.v_phi - 0.09152) <= 2e-3
        and abs(r.gap - 0.997823) <= 1e-3
        and elapsed < 60.0
    )
    record("3a", "14-subject table: phi0, dispersion, gap (exact)", ok,
           f"phi0={r.phi0:.4f} v={r.v_phi:.5f} g={r.gap:.6f} {elapsed:.1f}s")
    assert abs(r.phi0 - 2.7368) <= 5e-3
    assert abs(r.v_phi - 0.09152) <= 2e-3
    assert abs(r.gap - 0.997823) <= 1e-3
    assert elapsed < 60.0


# Exact d9 targets.  The design has 14 subjects, so its mechanism, its phi1
# and its certificate all use n = 14; the printed e1 0.99511, ell 0.99295 and
# slope ratio -6.01 come from a 64-subject certificate instead (see 3d).
D9_A = (0, 0, 0, 0, Fraction(2, 5), Fraction(3, 5))
D9_PRINTED_GAP = Fraction("0.997823")  # the gap that 3a pins


def _exact_alpha(n, a):
    """alpha_k = ((n+1) a_k + a_{1,k-1}^(n+1) - a_{1k}^(n+1)) / n for a_k > 0."""
    cum = [sum(a[:k], Fraction(0)) for k in range(len(a) + 1)]
    return {
        k: ((n + 1) * a[k - 1] + cum[k - 1] ** (n + 1) - cum[k] ** (n + 1)) / n
        for k in range(1, len(a) + 1)
        if a[k - 1] > 0
    }


def _centred_prefix(seq, k, t, lag):
    """C_k X B_t for the k-period treatment (lag 0) or carryover (lag 1) incidence X."""
    rows = [[Fraction(int(j >= lag and seq[j - lag] == i)) for i in range(1, t + 1)]
            for j in range(k)]
    rows = [[x - sum(r) / t for x in r] for r in rows]
    means = [sum(col) / k for col in zip(*rows)]
    return [[x - m for x, m in zip(r, means)] for r in rows]


def _exact_q(seq, alpha, t):
    """(q11, q12, q22) = sum_k alpha_k tr(B_t X' C_k Y B_t) over the prefixes."""
    def dot(x, y):
        return sum(u * v for rx, ry in zip(x, y) for u, v in zip(rx, ry))

    q = [Fraction(0)] * 3
    for k, ak in alpha.items():
        th, fh = _centred_prefix(seq, k, t, 0), _centred_prefix(seq, k, t, 1)
        q = [qi + ak * c for qi, c in zip(q, (dot(th, th), dot(th, fh), dot(fh, fh)))]
    return q


def _d9_exact_targets():
    """(e1_tilde, slope ratio) of d9 under its own 14-subject mechanism."""
    eps = Fraction(2, 5) ** 15
    alpha = _exact_alpha(14, D9_A)
    assert alpha == {5: (6 - eps) / 14, 6: (8 + eps) / 14}
    qa = _exact_q((1, 2, 2, 1, 2, 1), alpha, 2)
    qb = _exact_q((1, 2, 2, 2, 1, 1), alpha, 2)
    # x* = 0 (6a) and both types have balanced prefixes, so y* = q11 of either
    y_star = Fraction(12, 5) * alpha[5] + 3 * alpha[6]
    assert qa[0] == qb[0] == y_star
    # blocks {122121, 211212} x1 and {122211, 211122} x6: weights 2/14 and 12/14;
    # phi1_T = q11 - q12^2/q22 by the symmetric-design trace identity (8d)
    q11, q12, q22 = (Fraction(1, 7) * u + Fraction(6, 7) * v for u, v in zip(qa, qb))
    e1 = (q11 - q12**2 / q22) / y_star
    ratio = qa[1] / qb[1]
    assert ratio == -(18 + eps / 2) / (Fraction(14, 5) + 7 * eps / 10)
    return e1, ratio


def test_ac3_table_d9_e1(d9_exact_reports):
    # exact n=14 target 0.99997386; the printed 0.99511 is the n=64 value (3d)
    target = float(_d9_exact_targets()[0])
    r = d9_exact_reports[0]["T"]
    ok = abs(r.e1_tilde - target) <= 1e-8
    record("3b", "14-subject table: e1_tilde", ok,
           f"e1={r.e1_tilde:.8f} exact n=14 target {target:.8f} (printed 0.99511 is n=64)")
    assert r.e1_tilde == pytest.approx(target, abs=1e-8)


def test_ac3_table_d9_ell(d9_exact_reports):
    # exact n=14 e1 times the printed gap, 0.99779692; the printed 0.99295 is
    # the n=64 value (3d)
    target = float(_d9_exact_targets()[0] * D9_PRINTED_GAP)
    r = d9_exact_reports[0]["T"]
    ok = abs(r.ell - target) <= 2e-3
    record("3c", "14-subject table: ell", ok,
           f"ell={r.ell:.6f} exact n=14 target {target:.6f} (printed 0.99295 is n=64)")
    assert r.ell == pytest.approx(target, abs=2e-3)


def test_ac3_d9_printed_values_are_n64(d9, d9_exact_reports):
    # the printed e1, ell and slope ratio: 14-subject phi1 and gap against a
    # certificate and quadratics of the same stay-length law with n = 64
    mech64 = new_mechanism(6, 64, d9.mechanism.a)
    phi1 = criterion(surrogate_info(d9.design.matrices(), d9.mechanism), "T", d9.design.n)
    e1 = phi1 / ev.optimal_phi1_value(qs.solve_minimax(mech64, 2))
    ell = e1 * d9_exact_reports[0]["T"].gap
    ratio = (qs.q_coeffs((1, 2, 2, 1, 2, 1), mech64, 2).q12
             / qs.q_coeffs((1, 2, 2, 2, 1, 1), mech64, 2).q12)
    ok = abs(e1 - 0.99511) <= 1e-3 and abs(ell - 0.99295) <= 2e-3 and abs(ratio + 6.01) <= 0.01
    record("3d", "printed d9 e1, ell, slope ratio are n=64 values", ok,
           f"e1={e1:.6f} ell={ell:.6f} ratio={ratio:.5f}")
    assert e1 == pytest.approx(0.99511, abs=1e-3)
    assert ell == pytest.approx(0.99295, abs=2e-3)
    assert ratio == pytest.approx(-6.01, abs=0.01)


# -- criteria 4 and 5 ---------------------------------------------------------------


def test_ac4_table_d8_monte_carlo(d8_mc_reports):
    t_val = d8_mc_reports["T"].phi0
    e_val = d8_mc_reports["E"].phi0
    ok = abs(t_val - 1.2353) <= 0.01 and abs(e_val - 1.2004) <= 0.015
    record("4", "30-subject table spot check (MC)", ok,
           f"phi0_T={t_val:.4f} phi0_E={e_val:.4f}")
    assert t_val == pytest.approx(1.2353, abs=0.01)
    assert e_val == pytest.approx(1.2004, abs=0.015)


def test_ac5_table_d6_monte_carlo():
    from crossover_dropout.fixtures import get_fixture

    fx = get_fixture("d6")
    phi0, _, _ = ev.evaluate_phi0(fx.design, fx.mechanism, "T", "mc", seed=0, reps=100_000)
    ok = abs(phi0 - 0.7621) <= 0.01
    record("5", "20-subject table spot check (MC)", ok, f"phi0_T={phi0:.4f}")
    assert phi0 == pytest.approx(0.7621, abs=0.01)


# -- criterion 6 -----------------------------------------------------------------


def test_ac6_support_and_equilibrium(d9_cert):
    ok = len(d9_cert.support) == 20 and abs(d9_cert.x_star) <= 1e-12
    record("6a", "two-treatment support size and x*", ok,
           f"|T|={len(d9_cert.support)} x*={d9_cert.x_star!r}")
    assert len(d9_cert.support) == 20
    assert d9_cert.x_star == pytest.approx(0.0, abs=1e-12)


def test_ac6_slope_ratio(d9):
    # exact n=14 target -(18 + eps/2) / (14/5 + 7 eps/10) = -6.4285699 with
    # eps = (2/5)^15; the printed -6.01 is the n=64 value (3d)
    target = float(_d9_exact_targets()[1])
    qa = qs.q_coeffs((1, 2, 2, 1, 2, 1), d9.mechanism, 2)
    qb = qs.q_coeffs((1, 2, 2, 2, 1, 1), d9.mechanism, 2)
    ratio = qa.q12 / qb.q12
    ok = abs(ratio - target) <= 1e-8
    record("6b", "two-treatment slope ratio", ok,
           f"ratio={ratio:.7f} exact n=14 target {target:.7f} (printed -6.01 is n=64)")
    assert ratio == pytest.approx(target, abs=1e-8)


# -- criterion 7 -----------------------------------------------------------------


def test_ac7_search_quality(d2, d2_cert):
    system = build_system(d2_cert, d2.mechanism)
    counts = np.array([d2.design.counts.get(s, 0) for s in system.support], dtype=float)
    bundled_residual = float(np.linalg.norm(system.x @ counts - system.y_exact(16)))
    worst_resid = -np.inf
    worst_ell = np.inf
    for seed in range(8):
        design, report = exact_search(16, d2_cert, d2.mechanism, seed=seed, restarts=100)
        (rep,) = ev.evaluate_reports(design, d2.mechanism, "T", d2_cert, "exact")
        e1, gap, ell = rep.e1_tilde, rep.gap, rep.ell
        worst_resid = max(worst_resid, report.residual)
        worst_ell = min(worst_ell, ell)
    ok = worst_resid <= bundled_residual + 1e-9 and worst_ell >= 0.98
    record("7", "search quality over 8 seeds", ok,
           f"worst residual {worst_resid:.7f} vs bundled {bundled_residual:.7f}, "
           f"worst ell {worst_ell:.4f}")
    assert worst_resid <= bundled_residual + 1e-9
    assert worst_ell >= 0.98


# -- criterion 8: property suites ----------------------------------------------------


def test_ac8a_expected_kernel_oracle():
    # frozen requirement: MC mean of realized first component matches the
    # sandwich of the stated expected kernel V; exact enumeration shows the
    # kernel's off-diagonal blocks differ from the true expectation (see
    # test_dropout_model.expected_projection_kernel), so this stays red
    cases = [
        (3, 2, [(1, 2, 1), (2, 1, 2), (1, 2, 2), (2, 1, 1)], (0.0, 0.4, 0.6)),
        (4, 3, [(1, 2, 3, 1), (2, 3, 1, 2), (3, 1, 2, 3), (1, 3, 2, 1)], (0.0, 0.2, 0.3, 0.5)),
        (4, 4, [(1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3)], (0.0, 0.0, 0.5, 0.5)),
    ]
    reps = 100_000
    all_ok = True
    details = []
    failures = []
    for p, t, seqs, a in cases:
        n = len(seqs)
        mech = new_mechanism(p, n, a)
        dm = design_matrices(seqs, t)
        target = dm.T.T @ surrogate_kernel(mech) @ dm.T
        total = np.zeros((t, t))
        total_sq = np.zeros((t, t))
        for chunk_index in range(0, reps, 4096):
            size = min(4096, reps - chunk_index)
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence((2468, chunk_index)))
            )
            u = rng.random((size, n))
            lengths = np.searchsorted(np.cumsum(mech.a), u, side="right") + 1
            c11, _, _ = realized_components_batch(dm, lengths)
            total += c11.sum(axis=0)
            total_sq += (c11**2).sum(axis=0)
        mean = total / reps
        stderr = np.sqrt(np.maximum(total_sq / reps - mean**2, 0.0) / reps)
        gap = np.abs(mean - target) - 4.0 * stderr
        ok = bool(np.all(gap <= 1e-12))
        all_ok = all_ok and ok
        details.append(f"(p={p},t={t}) max excess {gap.max():.2e}")
        failures.append((p, t, gap.max()))
    record("8a", "expected-kernel Monte Carlo oracle", all_ok, "; ".join(details))
    for p, t, excess in failures:
        assert excess <= 1e-12, f"(p={p}, t={t}): worst entry exceeds 4 stderr by {excess:.3e}"


def test_ac8b_complete_experiment_reductions():
    rng = np.random.default_rng(123)
    ok = True
    for _ in range(100):
        p = int(rng.integers(2, 6))
        t = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        mech = new_mechanism(p, n, [0.0] * (p - 1) + [1.0])
        ok = ok and mech.alpha[p - 1] == 1.0 and mech.beta[p - 1] == 1.0
        ok = ok and np.array_equal(mech.A, mk.centering(p))
        ok = ok and np.array_equal(mech.B, mk.centering(p))
        ok = ok and np.allclose(surrogate_kernel(mech), np.kron(mk.centering(n), mk.centering(p)), atol=1e-15)
        dm = design_matrices(
            [tuple(rng.integers(1, t + 1, size=p).tolist()) for _ in range(n)], t
        )
        sur = surrogate_info_matrix(dm, mech)
        real = realized_info(dm, [p] * n)
        ok = ok and np.allclose(sur.schur, real.schur, atol=1e-10)
    record("8b", "complete-experiment reductions", ok)
    assert ok


def test_ac8c_deterministic_dropout_unit_gap():
    rng = np.random.default_rng(321)
    ok = True
    for _ in range(100):
        p = int(rng.integers(2, 5))
        t = int(rng.integers(2, 5))
        n = int(rng.integers(2, 6))
        stay = int(rng.integers(2, p + 1))
        a = np.zeros(p)
        a[stay - 1] = 1.0
        mech = new_mechanism(p, n, a)
        design = ExactDesign.from_sequences(
            [tuple(rng.integers(1, t + 1, size=p).tolist()) for _ in range(n)], t
        )
        for which in "ADET":
            phi0, _, _ = ev.evaluate_phi0(design, mech, which, "exact")
            phi1 = criterion(surrogate_info(design.matrices(), mech), which, n)
            if phi1 > 1e-12:
                ok = ok and abs(phi0 / phi1 - 1.0) <= 1e-10
            else:
                ok = ok and abs(phi0) <= 1e-12
    record("8c", "deterministic dropout has unit gap", ok)
    assert ok


def test_ac8d_symmetric_design_trace_identity():
    rng = np.random.default_rng(777)
    ok = True
    for _ in range(100):
        t = int(rng.integers(2, 5))
        p = int(rng.integers(2, 5))
        reps = {sq.canonical_form(tuple(rng.integers(1, t + 1, size=p).tolist()), t)}
        if rng.random() < 0.5:
            reps.add(sq.canonical_form(tuple(rng.integers(1, t + 1, size=p).tolist()), t))
        counts = {}
        copies = {rep: int(rng.integers(1, 4)) for rep in reps}
        for rep in reps:
            for member in orbit(rep, t):
                counts[member] = copies[rep]
        n = sum(counts.values())
        if n < 2:
            continue
        a = np.concatenate([[0.0], rng.dirichlet(np.ones(p - 1))]) if p > 2 else np.array([0.0, 1.0])
        mech = new_mechanism(p, n, a)
        sur = surrogate_info_matrix(ExactDesign(p=p, t=t, n=n, counts=counts).matrices(), mech)
        diag = np.diag(sur.schur)
        off = sur.schur[~np.eye(t, dtype=bool)]
        ok = ok and np.ptp(diag) <= 1e-8 * max(1.0, float(np.abs(diag).max()))
        ok = ok and (t == 1 or np.ptp(off) <= 1e-8 * max(1.0, float(np.abs(off).max()) + 1.0))
        qd = [qs.q_coeffs(rep, mech, t) for rep in reps]
        w = np.array([copies[rep] * sq.symmetric_block(rep, t).size / n for rep in reps])
        q11, q12, q22 = (float(np.dot(w, [getattr(q, f) for q in qd])) for f in ("q11", "q12", "q22"))
        q_star = n * (q11 - q12**2 / q22)
        ok = ok and abs(np.trace(sur.schur) - q_star) <= 1e-8 * max(1.0, abs(q_star))
    record("8d", "symmetric designs: trace identity and symmetry", ok)
    assert ok


def test_ac8e_q_closed_forms_match_traces():
    rng = np.random.default_rng(31415)
    bt_cache = {}
    worst = 0.0
    for t in (2, 3, 4):
        for p in (2, 3, 4, 5):
            a = np.concatenate([[0.0], rng.dirichlet(np.ones(p - 1))]) if p > 2 else np.array([0.0, 1.0])
            mech = new_mechanism(p, int(rng.integers(2, 40)), a)
            bt = bt_cache.setdefault(t, mk.centering(t))
            for s in enumerate_sequences(t, p):
                th = sq.incidence(s, t) @ bt
                fh = sq.carryover_incidence(s, t) @ bt
                q = qs.q_coeffs(s, mech, t)
                worst = max(
                    worst,
                    abs(q.q11 - np.trace(th.T @ mech.A @ th)),
                    abs(q.q12 - np.trace(th.T @ mech.A @ fh)),
                    abs(q.q22 - np.trace(fh.T @ mech.A @ fh)),
                )
    ok = worst <= 1e-10
    record("8e", "quadratic closed forms equal traces", ok, f"worst {worst:.1e}")
    assert worst <= 1e-10


def test_ac8f_permutation_invariance():
    rng = np.random.default_rng(2718)
    mech = new_mechanism(4, 12, (0, 0.2, 0.3, 0.5))
    ok = True
    for _ in range(100):
        t = 4
        s = tuple(rng.integers(1, t + 1, size=4).tolist())
        base = qs.q_coeffs(s, mech, t)
        sigma = tuple(rng.permutation(np.arange(1, t + 1)).tolist())
        image = qs.q_coeffs(apply_permutation(s, sigma), mech, t)
        ok = ok and np.allclose(base, image, atol=1e-12)
    listing = [tuple(rng.integers(1, 5, size=4).tolist()) for _ in range(8)]
    dm = design_matrices(listing, 4)
    mech8 = new_mechanism(4, 8, (0, 0.2, 0.3, 0.5))
    info = surrogate_info(dm, mech8)
    base_crit = {w: criterion(info, w, 8) for w in "ADET"}
    for sigma in list(permutations(range(1, 5)))[:6]:
        pm = design_matrices([apply_permutation(s, sigma) for s in listing], 4)
        pinfo = surrogate_info(pm, mech8)
        for w in "ADET":
            ok = ok and abs(criterion(pinfo, w, 8) - base_crit[w]) <= 1e-10
    record("8f", "permutation invariance of quadratics and criteria", ok)
    assert ok


def test_ac8g_trace_gap_dominates(d2_exact_reports, d9_exact_reports, d8_mc_reports):
    ok = True
    for bundle in (d2_exact_reports[0], d9_exact_reports[0], d8_mc_reports):
        for c in "ADE":
            ok = ok and bundle["T"].gap >= bundle[c].gap - 1e-12
    record("8g", "trace-criterion gap dominates", ok)
    assert ok


def test_ac8h_type_h_identity():
    rng = np.random.default_rng(555)
    checked = 0
    ok = True
    while checked < 100:
        k = int(rng.integers(1, 7))
        eta = rng.uniform(-0.3, 0.3, k)
        b = float(rng.uniform(-0.3, 0.5))
        try:
            ok = ok and type_h_identity_check(k, eta, b, tol=1e-10)
        except SingularCovarianceError:
            continue
        checked += 1
    record("8h", "type-H centering identity", ok)
    assert ok
