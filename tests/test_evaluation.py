import json
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crossover_dropout import evaluation as ev
from crossover_dropout.design_search import ExactDesign
from crossover_dropout.dropout_model import new_mechanism
from crossover_dropout.errors import BudgetExceededError, ValidationError
from crossover_dropout.fixtures import FIXTURES, get_fixture
from crossover_dropout.information import (
    count_tables,
    criterion,
    criterion_values_from_eigs,
    stay_counts,
    surrogate_info,
)
from crossover_dropout.q_solver import solve_minimax

from _oracles import (
    masked_components_batch,
    mc_phi0_multi,
    pinv_eigenvalues,
    product_cells,
    subject_sequences,
)

FROZEN = json.loads(Path(__file__).with_name("frozen_reports.json").read_text())

# Renormalized, this mechanism's cumulative sum ends one ulp below 1.
A_BELOW_ONE = (0.2, 0.4, 0.3, 0.1)


def quiet_mechanism(p, n, a):
    """A mechanism, without the warning that stay length 1 has positive probability."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return new_mechanism(p, n, a)


def surrogate_phi1(design, mech, which):
    """phi1: the criterion of the design's surrogate S_H."""
    return criterion(surrogate_info(design.matrices(), mech), which, design.n)


def searchsorted_lengths(mech, u):
    """Reference binning: one plus the number of cumulative probabilities at or below u."""
    return np.searchsorted(np.cumsum(mech.a), u, side="right") + 1


def test_exact_cell_count_collapses_groups(d2):
    # 12 single-copy groups with 2 stay lengths, 2 double-copy groups
    assert ev.exact_cell_count(d2.design, d2.mechanism) == 2**12 * 3**2


def test_exact_budget_guard(d2):
    with pytest.raises(BudgetExceededError, match="mc"):
        ev.evaluate_phi0(d2.design, d2.mechanism, "T", "exact", exact_budget=1000)


def test_design_mechanism_shape_mismatch(d2, d9):
    with pytest.raises(ValidationError):
        ev.evaluate_phi0(d9.design, d2.mechanism, "T", "exact")
    with pytest.raises(ValidationError):
        surrogate_info(d9.design.matrices(), d2.mechanism)
    with pytest.raises(ValidationError, match="does not match"):
        ev.evaluate_reports(d9.design, d2.mechanism, "T", method="mc", reps=64)


def test_unknown_method_and_criterion(d2):
    with pytest.raises(ValidationError):
        ev.evaluate_phi0(d2.design, d2.mechanism, "T", "bogus")
    with pytest.raises(ValidationError):
        ev.criteria_tuple("x")
    assert ev.criteria_tuple("all") == ("A", "D", "E", "T")
    assert ev.criteria_tuple("t") == ("T",)
    # the single-criterion entry points refuse 'all' as a validation error
    assert ev.single_criterion("t") == "T"
    for call in (
        lambda: ev.compare(d2.design, d2.design, d2.mechanism, "all"),
        lambda: ev.evaluate_phi0(d2.design, d2.mechanism, "all"),
        lambda: ev.single_criterion(("A", "T")),
    ):
        with pytest.raises(ValidationError, match="a\\|d\\|e\\|t"):
            call()


def test_deterministic_dropout_gap_is_one():
    rng = np.random.default_rng(40)
    for _ in range(100):
        p = int(rng.integers(2, 5))
        t = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        stay = int(rng.integers(2, p + 1))
        a = np.zeros(p)
        a[stay - 1] = 1.0
        mech = new_mechanism(p, n, a)
        design = ExactDesign.from_sequences(
            [tuple(rng.integers(1, t + 1, size=p).tolist()) for _ in range(n)], t
        )
        which = "ADET"[int(rng.integers(4))]
        phi0, stderr, v_phi = ev.evaluate_phi0(design, mech, which, "exact")
        phi1 = surrogate_phi1(design, mech, which)
        assert stderr == 0.0 and v_phi == pytest.approx(0.0, abs=1e-12)
        if phi1 > 1e-12:
            assert phi0 / phi1 == pytest.approx(1.0, abs=1e-10)
        else:
            assert phi0 == pytest.approx(0.0, abs=1e-12)


def test_exact_evaluation_ignores_subject_order(d2):
    rng = np.random.default_rng(5)
    subjects = subject_sequences(d2.design)
    rng.shuffle(subjects)
    shuffled = ExactDesign.from_sequences(subjects, 4)
    base, _ = ev.evaluate_phi0_multi(d2.design, d2.mechanism, ("T", "E"), "exact")
    perm, _ = ev.evaluate_phi0_multi(shuffled, d2.mechanism, ("T", "E"), "exact")
    assert base == perm  # bitwise: identical grouping and cell order


def test_monte_carlo_matches_exact_within_four_stderr(d2, d2_cert, d2_exact_reports):
    reports, _ = d2_exact_reports
    mc, reps = ev.evaluate_phi0_multi(
        d2.design, d2.mechanism, ("A", "D", "E", "T"), "mc", seed=11, reps=100_000
    )
    assert reps == 100_000
    for c in "ADET":
        mean, stderr, _ = mc[c]
        assert abs(mean - reports[c].phi0) <= 4.0 * stderr


def test_monte_carlo_seed_reproducible(d2):
    a = ev.evaluate_phi0(d2.design, d2.mechanism, "T", "mc", seed=3, reps=2000)
    b = ev.evaluate_phi0(d2.design, d2.mechanism, "T", "mc", seed=3, reps=2000)
    c = ev.evaluate_phi0(d2.design, d2.mechanism, "T", "mc", seed=4, reps=2000)
    assert a == b
    assert a != c


def test_jensen_chain_on_fixture_reports(d2_exact_reports, d9_exact_reports, d8_mc_reports):
    for bundle in (d2_exact_reports[0], d9_exact_reports[0], d8_mc_reports):
        for rep in bundle.values():
            assert rep.phi0 <= rep.phi1 + 3.0 * rep.phi0_stderr + 1e-12
            assert rep.gap <= 1.0 + 3.0 * rep.phi0_stderr + 1e-12
            assert rep.ell == pytest.approx(rep.e1_tilde * rep.gap, rel=1e-12)


def test_trace_gap_always_largest(d2_exact_reports, d9_exact_reports, d8_mc_reports):
    for bundle in (d2_exact_reports[0], d9_exact_reports[0], d8_mc_reports):
        for c in "ADE":
            assert bundle["T"].gap >= bundle[c].gap - 1e-12


def test_efficiency_bounds_match_reports(d2, d2_cert, d2_exact_reports):
    reports, _ = d2_exact_reports
    phi1 = surrogate_phi1(d2.design, d2.mechanism, "T")
    assert reports["T"].phi1 == phi1
    e1 = phi1 / ev.optimal_phi1_value(d2_cert)
    gap = reports["T"].phi0 / phi1
    ell = e1 * gap
    assert e1 == pytest.approx(reports["T"].e1_tilde, rel=1e-12)
    assert gap == pytest.approx(reports["T"].gap, rel=1e-12)
    assert ell == pytest.approx(reports["T"].ell, rel=1e-12)


def test_efficiency_bounds_refuse_a_mechanism_without_information():
    # all mass on stay length 1: every q_s is 0, so y* = 0 and no efficiency
    # against it exists
    mech = quiet_mechanism(2, 4, (1.0, 0.0))
    design = ExactDesign(2, 2, 4, {(1, 2): 2, (2, 1): 2})
    cert = solve_minimax(mech, 2)
    assert cert.y_star == 0.0
    for method in ("exact", "mc"):
        with pytest.raises(ValidationError, match="no within-subject information"):
            ev.evaluate_reports(design, mech, "T", cert, method, reps=64)


def test_fixture_efficiencies_match_published_values(d2_cert, d8_cert):
    # deterministic cross-checks: phi1 / equilibrium value for the bundled
    # designs, against their published four-significant-figure references
    from crossover_dropout.fixtures import get_fixture
    from crossover_dropout.q_solver import solve_minimax

    refs = {"d2": 0.9993922, "d4": 0.999983, "d6": 0.99894, "d8": 1.0}
    certs = {"d2": d2_cert, "d8": d8_cert}
    for name, ref in refs.items():
        fx = get_fixture(name)
        cert = certs.get(name) or solve_minimax(fx.mechanism, fx.design.t)
        phi1 = surrogate_phi1(fx.design, fx.mechanism, "T")
        e1 = phi1 / ev.optimal_phi1_value(cert)
        assert e1 == pytest.approx(ref, abs=2e-6)


def test_d8_fixture_satisfies_optimality_equations(d8, d8_cert):
    from crossover_dropout.design_search import verify_approximate

    weights = {s: c / d8.design.n for s, c in d8.design.counts.items()}
    ver = verify_approximate(weights, d8_cert, d8.mechanism)
    assert ver.residual <= 1e-12
    assert ver.off_support_mass == 0.0


def test_exact_cell_weights_sum_to_one(d2):
    weights = ev._cell_weights(d2.design, d2.mechanism)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert weights.min() > 0.0


def test_compare_design_with_itself(d2):
    result = ev.compare(d2.design, d2.design, d2.mechanism, "T", "exact")
    assert result.phi0_ratio == pytest.approx(1.0, abs=1e-12)
    assert result.v_ratio == pytest.approx(1.0, abs=1e-12)


def test_compare_undefined_baseline(d2):
    # a one-treatment-per-subject baseline never yields information
    constant = ExactDesign.from_sequences([(1, 1, 1, 1)] * 16 , 4)
    result = ev.compare(d2.design, constant, d2.mechanism, "A", "exact")
    assert result.phi0_ratio is None
    assert result.v_ratio is None
    assert not result.defined


def test_compare_common_random_numbers_are_exact(d2):
    # identical designs under MC share the replicate stream, so the ratios
    # are exactly one, not merely close
    result = ev.compare(d2.design, d2.design, d2.mechanism, "T", "mc", seed=9, reps=4000)
    assert result.phi0_ratio == 1.0
    assert result.v_ratio == 1.0


def test_compare_requires_matching_shape(d2, d9):
    with pytest.raises(ValidationError):
        ev.compare(d2.design, d9.design, d2.mechanism, "T")


def test_theta_mechanism_and_grid():
    mech = ev.theta_mechanism(4, 10, 0.25)
    np.testing.assert_allclose(mech.a, [0, 0, 0.25, 0.75])
    with pytest.raises(ValidationError):
        ev.theta_mechanism(4, 10, 0.0)
    grid = ev.parse_theta_grid("0.2:0.8:0.2")
    np.testing.assert_allclose(grid, [0.2, 0.4, 0.6, 0.8])
    np.testing.assert_allclose(ev.parse_theta_grid("0.1,0.5"), [0.1, 0.5])
    with pytest.raises(ValidationError):
        ev.parse_theta_grid("nope")


def test_theta_grid_never_passes_its_stop():
    assert ev.parse_theta_grid("0.1:0.6:0.3") == [0.1, 0.1 + 0.3]
    assert ev.parse_theta_grid("0.1:0.7:0.3") == [0.1, 0.1 + 0.3, 0.1 + 2 * 0.3]
    # a stop a step reaches only within float noise is kept
    assert len(ev.parse_theta_grid("0.05:0.95:0.05")) == 19
    for start in (0.05, 0.123, 0.15, 0.2):  # the 8-point grids of the benchmark's sweeps
        grid = ev.parse_theta_grid(f"{start}:{round(start + 0.7, 3)}:0.1")
        assert grid == [start + i * 0.1 for i in range(8)]
    for spec in ("0.1:0.9:0.25", "0.3:0.35:0.1", "0.5:0.5:0.1"):
        start, stop, _ = (float(x) for x in spec.split(":"))
        grid = ev.parse_theta_grid(spec)
        assert grid[0] == start and grid[-1] <= stop


def test_sweep_fixed_design_gap_ordering(d2):
    rows = ev.sweep_theta(d2.design, [0.25, 0.5, 0.75], "all", method="exact")
    assert len(rows) == 12
    by_theta = {}
    for row in rows:
        by_theta.setdefault(row["theta"], {})[row["criterion"]] = row
    for theta, crits in by_theta.items():
        for c in "ADE":
            assert crits["T"]["gap"] >= crits[c]["gap"] - 1e-12
        for c in "ADET":
            assert crits[c]["gap"] <= 1.0 + 1e-12


def test_sweep_near_deterministic_endpoint_gap_near_one(d2):
    rows = ev.sweep_theta(d2.design, [0.001], "all", method="exact")
    for row in rows:
        assert row["gap"] >= 0.99


def test_sweep_midpoint_matches_direct_evaluation(d2, d2_cert):
    rows = ev.sweep_theta(d2.design, [0.5], ("T",), method="exact")
    reports = ev.evaluate_reports(d2.design, d2.mechanism, ("T",), d2_cert, "exact")
    assert rows[0]["phi0"] == pytest.approx(reports[0].phi0, abs=1e-12)
    assert rows[0]["ell"] == pytest.approx(reports[0].ell, abs=1e-12)


def test_sweep_search_mode_reproduces_search_path(d2, d2_cert):
    rows = ev.sweep_theta(
        "search", [0.5], ("T",), p=4, t=4, n=16, method="exact", seed=2, restarts=2
    )
    from crossover_dropout.design_search import exact_search

    design, _ = exact_search(16, d2_cert, d2.mechanism, seed=2, restarts=2)
    reports = ev.evaluate_reports(design, d2.mechanism, ("T",), d2_cert, "exact", seed=2)
    assert rows[0]["phi0"] == pytest.approx(reports[0].phi0, abs=1e-12)


@pytest.mark.parametrize(
    "name, grid", [("d2", (0.05, 0.5, 0.95)), ("d9", (0.1, 0.3, 0.5, 0.7, 0.9))]
)
def test_fixed_design_exact_sweep_equals_per_theta_reports(name, grid):
    # the sweep evaluates the cells once per stay support and weights them per
    # theta; every row must equal a fresh evaluation at that theta exactly
    design = get_fixture(name).design
    want = []
    for theta in grid:
        mech = ev.theta_mechanism(design.p, design.n, theta)
        cert = solve_minimax(mech, design.t)
        for rep in ev.evaluate_reports(design, mech, "all", cert, "exact"):
            fields = ("criterion", "phi0", "phi0_stderr", "v_phi", "phi1", "gap", "e1_tilde", "ell")
            row = {"theta": theta, **{k: getattr(rep, k) for k in fields}}
            row["stderr"] = row.pop("phi0_stderr")
            want.append(row)
    assert ev.sweep_theta(design, grid, "all", method="exact") == want


def test_reports_and_fixed_design_sweeps_build_design_matrices_once(d2, d2_cert, d9, monkeypatch):
    from crossover_dropout import design_search

    calls = []
    original = design_search.design_matrices

    def counting(counts, p, t):
        calls.append(1)
        return original(counts, p, t)

    monkeypatch.setattr(design_search, "design_matrices", counting)
    for method in ("exact", "mc"):  # fresh copies: a design caches its matrices
        ev.evaluate_reports(replace(d2.design), d2.mechanism, "all", d2_cert, method, reps=64)
        assert len(calls) == 1, method
        calls.clear()
        ev.sweep_theta(replace(d9.design), [0.2, 0.5, 0.8], "all", method=method, reps=64)
        assert len(calls) == 1, method
        calls.clear()


def test_sweep_csv_shape():
    rows = [
        {
            "theta": 0.5,
            "criterion": "T",
            "phi0": 1.0,
            "stderr": 0.0,
            "v_phi": 0.1,
            "phi1": 1.0,
            "gap": 1.0,
            "e1_tilde": 0.9,
            "ell": 0.9,
        }
    ]
    out = ev.sweep_rows_to_csv(rows)
    lines = out.strip().split("\n")
    assert lines[0] == ev.SWEEP_HEADER
    assert len(lines) == 2 and lines[1].startswith("0.5,T,")


def test_threads_env_matches_serial(d2, monkeypatch):
    for method in ("mc", "exact"):
        monkeypatch.delenv("CROSSOVER_THREADS", raising=False)
        base, _ = ev.evaluate_phi0_multi(
            d2.design, d2.mechanism, ("T",), method, seed=5, reps=10_000
        )
        monkeypatch.setenv("CROSSOVER_THREADS", "4")
        threaded, _ = ev.evaluate_phi0_multi(
            d2.design, d2.mechanism, ("T",), method, seed=5, reps=10_000
        )
        assert base == threaded, method


@pytest.mark.parametrize("name, criteria", [("d8", ("A", "D", "E", "T")), ("d6", ("T",))])
def test_monte_carlo_matches_per_subject_oracle(name, criteria):
    fx = get_fixture(name)
    got, reps = ev.evaluate_phi0_multi(fx.design, fx.mechanism, criteria, "mc", seed=7, reps=8192)
    want = mc_phi0_multi(fx.design, fx.mechanism, criteria, seed=7, reps=8192)
    assert reps == 8192
    for c in criteria:
        np.testing.assert_allclose(got[c], want[c], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["d2", "d9", "d8"])
def test_exact_cells_match_product_enumeration(name):
    fx = get_fixture(name)
    design, mech = fx.design, fx.mechanism
    if name == "d8":  # first 7 subjects: two repeated groups, three stay lengths
        design = ExactDesign.from_sequences(subject_sequences(design)[:7], 3)
        mech = new_mechanism(5, 7, mech.a)
    counts, weights = ev._exact_cells(design, mech), ev._cell_weights(design, mech)
    rows, ref_weights = product_cells(design, mech)
    assert len(counts) == len(rows) == ev.exact_cell_count(design, mech)
    np.testing.assert_array_equal(weights, ref_weights)
    tables = count_tables(design.matrices(), mech.stay_support)
    np.testing.assert_array_equal(counts, stay_counts(tables, np.searchsorted(tables.levels, rows)))


def test_reports_build_surrogate_once(d2, d2_cert, monkeypatch):
    calls = []
    original = ev.surrogate_info

    def counting(dm, mech):
        calls.append(1)
        return original(dm, mech)

    monkeypatch.setattr(ev, "surrogate_info", counting)
    reports = ev.evaluate_reports(d2.design, d2.mechanism, "all", d2_cert, "mc", reps=64)
    assert len(calls) == 1
    monkeypatch.setattr(ev, "surrogate_info", original)
    for rep in reports:
        assert rep.phi1 == surrogate_phi1(d2.design, d2.mechanism, rep.criterion)


@pytest.mark.parametrize("key", sorted(FROZEN["reports"]))
def test_reports_match_frozen_full_matrix_kernel(key):
    name, method = key.split("/")
    fx = get_fixture(name)
    reports = ev.evaluate_reports(
        fx.design, fx.mechanism, "all", None, method, seed=FROZEN["seed"], reps=FROZEN["reps"]
    )
    for report, want in zip(reports, FROZEN["reports"][key], strict=True):
        got = report.to_dict()
        for field, value in want.items():
            if isinstance(value, float):
                assert got[field] == pytest.approx(value, rel=1e-13, abs=0.0), (field, value)
            else:
                assert got[field] == value, field


def _draw_cases():
    """(design, mechanism) pairs: the fixtures, then supports that skip or hold stay length 1."""
    for fx in FIXTURES.values():
        yield fx.design, fx.mechanism
    rng = np.random.default_rng(19)
    for a in ((0.0, 0.5, 0.0, 0.5), (0.2, 0.3, 0.0, 0.5), (0.0, 0.0, 1.0, 0.0), A_BELOW_ONE):
        seqs = [tuple(rng.integers(1, 4, size=4).tolist()) for _ in range(7)]
        yield ExactDesign.from_sequences(seqs, 3), quiet_mechanism(4, 7, a)


def test_mc_stay_counts_match_searchsorted_binning_bit_for_bit():
    for design, mech in _draw_cases():
        tables = count_tables(design.matrices(), mech.stay_support)
        cells = (np.arange(ev.CHUNK)[:, None], tables.dm.subject_index)
        for seed, chunk in ((0, 0), (5, 3)):
            stream = np.random.Philox(np.random.SeedSequence((seed, chunk)))
            u = np.random.Generator(stream).random((ev.CHUNK, mech.n))
            lengths = searchsorted_lengths(mech, u)
            bins = ev._mc_chunk_bins(mech, seed, chunk, ev.CHUNK)
            np.testing.assert_array_equal(mech.stay_support[bins], lengths)
            want = np.zeros((ev.CHUNK, len(tables.dm.sequences), mech.p), dtype=np.int64)
            np.add.at(want, cells + (lengths - 1,), 1)
            want = want[:, :, mech.stay_support - 1]
            np.testing.assert_array_equal(stay_counts(tables, bins), want)


def test_stay_bins_never_pass_the_last_support_level():
    mech = quiet_mechanism(4, 3, A_BELOW_ONE)
    assert np.cumsum(mech.a)[-1] < 1.0
    u = np.array([[0.0, 0.5, np.nextafter(1.0, 0.0)]])
    assert searchsorted_lengths(mech, u).tolist() == [[1, 2, 5]]  # p + 1 at the top
    lengths = mech.stay_support[ev.stay_bins(mech, u)]
    assert lengths.tolist() == [[1, 2, 4]]
    # a support that skips interior lengths and ends below p
    gapped = quiet_mechanism(5, 3, (0.0, 0.5, 0.0, 0.5, 0.0))
    u = np.array([[0.0, 0.49, 0.5, np.nextafter(1.0, 0.0)]])
    assert gapped.stay_support[ev.stay_bins(gapped, u)].tolist() == [[2, 2, 4, 4]]


@pytest.mark.parametrize("t", [2, 5])
@pytest.mark.parametrize("a", [(0.0, 0.5, 0.0, 0.5), (0.2, 0.3, 0.0, 0.5)])
def test_exact_phi0_on_gapped_supports_matches_per_subject_oracle(t, a):
    rng = np.random.default_rng(t)
    seqs = [tuple(rng.integers(1, t + 1, size=4).tolist()) for _ in range(5)]
    design = ExactDesign.from_sequences(seqs + seqs[:1], t)  # one repeated group
    mech = quiet_mechanism(4, 6, a)
    got, cells = ev.evaluate_phi0_multi(design, mech, ("A", "D", "E", "T"), "exact")
    rows, weights = product_cells(design, mech)
    assert cells == len(rows)
    eigs = pinv_eigenvalues(*masked_components_batch(design.matrices(), rows))
    for c in "ADET":
        want = float(weights @ criterion_values_from_eigs(eigs, c, design.n))
        assert got[c][0] == pytest.approx(want, rel=1e-10, abs=1e-12), c


def _many_sequences(n=2000, p=8, t=4):
    """n subjects drawn from t**p sequences, nearly all distinct, under a p-point mechanism."""
    rng = np.random.default_rng(5)
    seqs = [tuple(rng.integers(1, t + 1, size=p).tolist()) for _ in range(n)]
    mech = new_mechanism(p, n, np.concatenate([[0.0], rng.dirichlet(np.ones(p - 1))]))
    return ExactDesign.from_sequences(seqs, t), mech


def test_fixtures_take_a_chunk_in_one_count_block():
    for fx in FIXTURES.values():
        width = len(fx.design.counts) * len(fx.mechanism.stay_support)
        assert width <= 76 and ev.COUNT_SCRATCH // (8 * width) >= ev.CHUNK


def test_monte_carlo_chunk_memory_stays_bounded_with_many_distinct_sequences():
    design, mech = _many_sequences()
    width = len(design.counts) * len(mech.stay_support)
    assert width > 13_000  # one chunk's int64 counts alone would take 8 * 4096 * width > 426 MB
    tracemalloc.start()
    try:
        result, _ = ev.evaluate_phi0_multi(design, mech, ("T",), "mc", seed=1, reps=ev.CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result["T"][0] > 0.0
    # 55.6 MB measured: uniforms and counts each come in blocks of COUNT_SCRATCH bytes;
    # one 4096 x 2000 float64 draw of the uniforms alone took 65.5 MB
    assert peak < 70e6


def test_monte_carlo_uniform_blocks_draw_one_stream(monkeypatch):
    design, mech = _many_sequences(n=600, p=4)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((3, 1))))
    whole = ev.stay_bins(mech, rng.random((ev.CHUNK, mech.n)))
    for rows in (1000, 4095, ev.CHUNK, 1):  # blocks of 1,000 rows end with 96
        monkeypatch.setattr(ev, "COUNT_SCRATCH", 8 * mech.n * rows)
        np.testing.assert_array_equal(ev._mc_chunk_bins(mech, 3, 1, ev.CHUNK), whole)
    monkeypatch.undo()
    for fx in FIXTURES.values():  # the fixtures draw a chunk's uniforms in one block
        assert ev.COUNT_SCRATCH // (8 * fx.mechanism.n) >= ev.CHUNK


@pytest.mark.parametrize("name", ["many", "d2", "d8"])
def test_count_blocks_agree_with_one_block(name, monkeypatch):
    if name == "many":
        (design, mech), method, opts = _many_sequences(), "mc", {"seed": 2, "reps": 256}
    else:
        fx = get_fixture(name)
        design, mech = fx.design, fx.mechanism
        method, opts = ("exact", {}) if name == "d2" else ("mc", {"seed": 2, "reps": 5000})
    width = len(design.counts) * len(mech.stay_support)
    results = []
    for rows in (100, ev.CHUNK):  # count blocks of 100 rows, then whole chunks
        monkeypatch.setattr(ev, "COUNT_SCRATCH", 8 * width * rows)
        results.append(ev.evaluate_phi0_multi(design, mech, ("A", "T"), method, **opts)[0])
    blocked, whole = results
    for c in ("A", "T"):
        assert blocked[c][0] == pytest.approx(whole[c][0], rel=1e-12, abs=0.0), c
        assert blocked[c][1:] == pytest.approx(whole[c][1:], rel=1e-9, abs=1e-15), c
