import hashlib
import json
import tracemalloc
from itertools import chain

import pytest

from crossover_dropout import cli, information
from crossover_dropout.design_io import dumps_design, load_design, save_design
from crossover_dropout.design_search import ExactDesign
from crossover_dropout.dropout_model import load_mechanism
from crossover_dropout.fixtures import FIXTURES, get_fixture
from crossover_dropout.q_solver import closed_form, solve_minimax

from _oracles import format_sequence, orbit


@pytest.fixture()
def mech_file(tmp_path):
    path = tmp_path / "mech.json"
    path.write_text(json.dumps({"p": 4, "n": 16, "a": [0, 0, 0.5, 0.5]}))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_command(capsys, mech_file):
    code, out, err = run_cli(capsys, "solve", "--mech", mech_file, "--t", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "closed_form_ii"
    assert payload["x_star"] == pytest.approx(1 / 3, abs=1e-9)
    assert len(payload["support"]) == 48
    assert payload["mechanism"]["n"] == 16


def test_solve_closed_form_only(capsys, mech_file):
    code, out, _ = run_cli(capsys, "solve", "--mech", mech_file, "--t", "4", "--closed-form-only")
    assert code == 0
    assert json.loads(out)["x_star"] == 1 / 3


def test_solve_complete_case(capsys, tmp_path):
    path = tmp_path / "complete.json"
    path.write_text(json.dumps({"p": 4, "n": 16, "a": [0, 0, 0, 1]}))
    code, out, _ = run_cli(capsys, "solve", "--mech", str(path), "--t", "4")
    assert code == 0
    assert json.loads(out)["regime"] == "closed_form_ii"


def test_solve_closed_form_only_absent(capsys, tmp_path):
    # t=3, p=5 with late dropout admits no closed-form regime
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"p": 5, "n": 30, "a": [0, 0, 1 / 3, 1 / 3, 1 / 3]}))
    code, out, err = run_cli(capsys, "solve", "--mech", str(path), "--t", "3",
                             "--closed-form-only")
    assert code == 1
    assert "no closed-form" in err


def _oracle_solve_stdout(cert) -> str:
    """``solve`` stdout with the support listed by the itertools oracle, one string each."""
    support = sorted(chain.from_iterable(orbit(b.representative, cert.t) for b in cert.blocks))
    payload = {
        "x_star": cert.x_star,
        "y_star": cert.y_star,
        "regime": cert.regime,
        "t": cert.t,
        "support": [format_sequence(s, cert.t) for s in support],
        "mechanism": cert.mechanism.to_dict(),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("t", [4, 9, 10, 12])
@pytest.mark.parametrize(
    "a, closed_only",
    [
        ((0, 0, 0.5, 0.5), False),
        ((0, 0, 0.5, 0.5), True),  # closed_form_ii: 2 blocks
        ((0, 5 / 13, 8 / 13, 0), False),  # numeric, several blocks
    ],
)
def test_solve_stdout_is_json_dumps_of_the_oracle_listing(capsys, tmp_path, t, a, closed_only):
    path = tmp_path / "mech.json"
    path.write_text(json.dumps({"p": 4, "n": 16, "a": list(a)}))
    argv = ["solve", "--mech", str(path), "--t", str(t)]
    mech = load_mechanism(str(path))
    if closed_only:
        argv.append("--closed-form-only")
        cert = closed_form(mech, t)
    else:
        cert = solve_minimax(mech, t)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    # lines, not one string: pytest's diff of two long strings takes minutes
    expected = _oracle_solve_stdout(cert)
    assert out.splitlines(keepends=True) == expected.splitlines(keepends=True)
    assert out == expected


def test_solve_stdout_at_p6_t10_is_pinned(capsys, tmp_path):
    # a regime-ii mechanism of the (6, 10) certify slot: 181,440 support
    # sequences; length and digest of the stdout recorded before the support
    # was listed as one label array
    path = tmp_path / "mech.json"
    path.write_text(json.dumps({"p": 6, "n": 14, "a": [0, 0, 0, 0, 0.079382, 0.920618]}))
    code, out, _ = run_cli(capsys, "solve", "--mech", str(path), "--t", "10")
    assert code == 0
    assert len(json.loads(out)["support"]) == 181440
    assert len(out) == 3556490
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4dd4986ebda76e241f556cf82954a416c90390719dbd15e3d41c66de252afd6e"
    )


@pytest.mark.parametrize(
    "payload, t, budget, message",
    [
        # regime ii lists 60,480 + 181,440 sequences
        ({"p": 7, "n": 16, "a": [0, 0, 0, 0, 0, 0.3, 0.7]}, 9, 10, "support lists 241920"),
        # regime i: 8,192 canonical prefixes of length 14 grow before pruning
        ({"p": 16, "n": 16, "a": [0] * 13 + [0.5, 0, 0.5]}, 2, 7000, "canonical sequences"),
    ],
)
def test_solve_closed_form_only_honours_budget(capsys, tmp_path, payload, t, budget, message):
    path = tmp_path / "mech.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "solve", "--mech", str(path), "--t", str(t),
                             "--budget", str(budget), "--closed-form-only")
    assert code == 1 and out == ""
    assert message in err


def test_solve_malformed_mechanism(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 4, "n": 16, "a": [0.5, 0.6, -0.1, 0]}))
    code, out, err = run_cli(capsys, "solve", "--mech", str(path), "--t", "4")
    assert code == 2
    assert "error" in err


def test_solve_budget_exceeded_exit_code(capsys, mech_file):
    code, _, err = run_cli(capsys, "solve", "--mech", mech_file, "--t", "4",
                           "--budget", "10")
    assert code == 1
    assert "budget" in err


def test_design_on_a_support_too_wide_for_the_descent_exits_1(capsys, tmp_path):
    # the (6, 10) regime-ii support has 181,440 sequences: its 260 x 181,440
    # system takes 377 MB and the descent's Gram 245 GiB
    path = tmp_path / "mech.json"
    path.write_text(json.dumps({"p": 6, "n": 14, "a": [0, 0, 0, 0, 0.079382, 0.920618]}))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "design", "--mech", str(path), "--t", "10", "--n", "14")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert "181440 support sequences" in err and "cap" in err
    assert peak < 20e6


def test_evaluate_all_criteria_share_draws(capsys):
    for seed in range(40):
        code, out, _ = run_cli(
            capsys, "evaluate", "--fixture", "d9", "--criterion", "all",
            "--method", "mc", "--reps", "4000", "--seed", str(seed),
        )
        assert code == 0
        payload = json.loads(out)
        assert [r["criterion"] for r in payload["reports"]] == ["A", "D", "E", "T"]
        # two treatments: every criterion sees the same realized values, bit for bit
        phi0s = {r["phi0"] for r in payload["reports"]}
        assert len(phi0s) == 1, seed


def test_trace_criterion_takes_no_eigenvalues(capsys, monkeypatch, mech_file):
    calls = []
    original = information.eigenvalues_batch

    def counting(schur_h):
        calls.append(len(schur_h))
        return original(schur_h)

    monkeypatch.setattr(information, "eigenvalues_batch", counting)
    trace_only = [
        ["evaluate", "--fixture", "d6", "--criterion", "t", "--method", "mc", "--reps", "5000"],
        ["evaluate", "--fixture", "d9", "--criterion", "t", "--method", "exact"],
        ["compare", "--fixture", "d2", "--baseline-fixture", "d2", "--mech", mech_file,
         "--criterion", "t"],
        ["compare", "--fixture", "d2", "--baseline-fixture", "d2", "--mech", mech_file,
         "--criterion", "t", "--method", "mc", "--reps", "5000"],
    ]
    for argv in trace_only:
        code, _, err = run_cli(capsys, *argv)
        assert (code, calls) == (0, []), (argv, err)
    for crit in "ade":
        code, _, _ = run_cli(capsys, "evaluate", "--fixture", "d9", "--criterion", crit)
        assert code == 0 and sum(calls) == 196 + 1, crit  # every cell, then the surrogate
        calls.clear()


def test_design_command_deterministic(capsys, mech_file):
    args = ["design", "--mech", mech_file, "--t", "4", "--n", "16", "--seed", "7", "--restarts", "0"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["design"]["n"] == 16
    assert payload["report"]["seed"] == 7
    assert payload["report"]["residual"] > 0.0


def test_design_single_subject(capsys, mech_file):
    code, out, _ = run_cli(capsys, "design", "--mech", mech_file, "--t", "4", "--n", "1",
                           "--restarts", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["design"]["n"] == 1
    assert payload["report"]["residual"] > 0.0


def test_evaluate_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "evaluate", "--fixture", "d9", "--criterion", "t", "--method", "exact"
    )
    assert code == 0
    payload = json.loads(out)
    (report,) = payload["reports"]
    assert report["criterion"] == "T"
    assert report["phi0"] == pytest.approx(2.7368, abs=5e-3)
    assert report["method"] == "exact"


def test_evaluate_needs_design_or_fixture(capsys, mech_file):
    code, _, err = run_cli(capsys, "evaluate", "--mech", mech_file)
    assert code == 2 and "exactly one" in err


def test_evaluate_without_information_is_a_validation_error(capsys, tmp_path):
    # all mass on stay length 1 makes y* = 0; efficiencies against it are undefined
    path = tmp_path / "mech.json"
    path.write_text(json.dumps({"p": 6, "n": 14, "a": [1, 0, 0, 0, 0, 0]}))
    with pytest.warns(UserWarning, match="stay length 1"):
        code, out, err = run_cli(
            capsys, "evaluate", "--fixture", "d9", "--mech", str(path), "--criterion", "t"
        )
    assert code == 2 and out == ""
    assert "no within-subject information" in err


def test_design_without_information_is_a_validation_error(capsys, tmp_path):
    # all mass on stay length 1 makes y* = 0 and the optimality system zero
    path = tmp_path / "mech.json"
    path.write_text(json.dumps({"p": 4, "n": 8, "a": [1, 0, 0, 0]}))
    with pytest.warns(UserWarning, match="stay length 1"):
        code, out, err = run_cli(capsys, "design", "--mech", str(path), "--t", "3", "--n", "8")
    assert code == 2 and out == ""
    assert "no within-subject information" in err


def test_evaluate_budget_exceeded_is_runtime_error(capsys):
    code, _, err = run_cli(
        capsys, "evaluate", "--fixture", "d2", "--method", "exact", "--exact-budget", "10"
    )
    assert code == 1
    assert "mc" in err


def test_evaluate_design_file(capsys, tmp_path, mech_file):
    design = get_fixture("d2").design
    path = tmp_path / "d2.json"
    save_design(design, path)
    code, out, _ = run_cli(
        capsys, "evaluate", "--design", str(path), "--mech", mech_file,
        "--criterion", "e", "--method", "mc", "--reps", "2000",
    )
    assert code == 0
    assert json.loads(out)["reports"][0]["replications"] == 2000


def test_compare_same_design(capsys, tmp_path, mech_file):
    path = tmp_path / "d.json"
    save_design(get_fixture("d2").design, path)
    code, out, _ = run_cli(
        capsys, "compare", "--design", str(path), "--baseline", str(path),
        "--mech", mech_file, "--criterion", "t",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["phi0_ratio"] == pytest.approx(1.0)
    assert payload["v_ratio"] == pytest.approx(1.0)


def test_compare_default_criterion_all_is_a_validation_error(capsys, mech_file):
    # mech_file holds d2's mechanism; the default --criterion is all
    code, out, err = run_cli(
        capsys, "compare", "--fixture", "d2", "--baseline-fixture", "d2", "--mech", mech_file,
    )
    assert code == 2
    assert out == ""
    assert "a|d|e|t" in err


def test_compare_undefined_baseline(capsys, tmp_path, mech_file):
    base = ExactDesign.from_sequences([(1, 1, 1, 1)] * 16, 4)
    path = tmp_path / "base.json"
    save_design(base, path)
    d2path = tmp_path / "d2.json"
    save_design(get_fixture("d2").design, d2path)
    code, out, _ = run_cli(
        capsys, "compare", "--design", str(d2path), "--baseline", str(path),
        "--mech", mech_file, "--criterion", "a",
    )
    assert code == 0
    assert json.loads(out)["phi0_ratio"] == "undefined"


def test_sweep_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--fixture", "d2", "--theta-grid", "0.3,0.7", "--criterion", "t",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta,criterion,phi0,stderr,v_phi,phi1,gap,e1_tilde,ell"
    assert len(lines) == 3
    for line in lines[1:]:
        gap = float(line.split(",")[6])
        assert gap <= 1.0 + 1e-12


def test_sweep_search_requires_dimensions(capsys):
    code, _, err = run_cli(capsys, "sweep", "--search", "--theta-grid", "0.5")
    assert code == 2


@pytest.mark.parametrize("flag", ["--p", "--t", "--n"])
@pytest.mark.parametrize("source", [["--fixture", "d9"], ["--design", "d9.json"]])
def test_sweep_size_flags_need_search(capsys, flag, source):
    # a fixed design has its own size: --n 30 evaluated the 14-subject d9
    code, out, err = run_cli(capsys, "sweep", *source, flag, "3", "--theta-grid", "0.5")
    assert code == 2 and out == ""
    assert "--search" in err


def test_sweep_search_mode_smoke(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--search", "--p", "4", "--t", "4", "--n", "16",
        "--theta-grid", "0.5", "--criterion", "t", "--restarts", "1", "--seed", "0",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2 and lines[1].startswith("0.5,T,")


def test_design_file_round_trip(tmp_path):
    design = get_fixture("d4").design
    emitted = dumps_design(design)
    path = tmp_path / "d4.json"
    path.write_text(emitted)
    loaded = load_design(path)
    assert dumps_design(loaded) == emitted
    assert loaded.counts == design.counts


def test_design_file_emission_at_t_12_sorts_the_strings(tmp_path):
    # string order, not label order: "10,1,2" sorts before "2,1,3"
    counts = {(2, 1, 3): 2, (11, 12, 1): 1, (10, 1, 2): 1, (1, 10, 2): 1}
    design = ExactDesign(p=3, t=12, n=5, counts=counts, name="t12")
    emitted = dumps_design(design)
    assert emitted == (
        '{\n  "n": 5,\n  "name": "t12",\n  "p": 3,\n  "sequences": [\n'
        '    "1,10,2",\n    "10,1,2",\n    "11,12,1",\n    "2,1,3",\n    "2,1,3"\n'
        '  ],\n  "t": 12\n}\n'
    )
    path = tmp_path / "t12.json"
    path.write_text(emitted)
    assert load_design(path).counts == design.counts


def test_design_file_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 4, "t": 4, "n": 2, "sequences": ["1234"]}))
    assert cli.main(["evaluate", "--design", str(path)]) == 2


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("evaluate", {"p": 4, "t": 4, "n": 1, "sequences": 5}, "sequences must be a list"),
        ("evaluate", {"p": 4, "t": "4", "n": 1, "sequences": ["1234"]}, "t must be an integer"),
        ("evaluate", {"p": 4, "t": 4.5, "n": 1, "sequences": ["1234"]}, "t must be an integer"),
        ("evaluate", {"p": 4, "t": 4, "n": "2", "sequences": ["1234"] * 2}, "n must be an integer"),
        ("evaluate", {"p": True, "t": 2, "n": 1, "sequences": ["1"]}, "p must be an integer"),
        ("solve", {"p": 4, "n": 16, "a": [0, 0, "x", 0.5]}, "a must be a list of numbers"),
        ("solve", {"p": "x", "n": 16, "a": [0, 0, 0.5, 0.5]}, "p must be an integer"),
        ("solve", {"p": 4, "n": [16], "a": [0, 0, 0.5, 0.5]}, "n must be an integer"),
        ("solve", {"p": 4, "n": 16, "a": [0, 0, float("nan"), 1]}, "must be finite"),
        ("solve", {"p": 4, "n": 16, "a": [0, 0, float("inf"), 1]}, "must be finite"),
        ("evaluate", {"p": 4, "t": 4, "n": 2, "sequences": [1234, 2143]}, "must be strings"),
    ],
)
def test_malformed_design_and_mechanism_files_exit_2(capsys, tmp_path, command, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    argv = ("--design", str(path)) if command == "evaluate" else ("--mech", str(path), "--t", "4")
    code, _, err = run_cli(capsys, command, *argv)
    assert code == 2 and message in err


def test_fixture_structural_facts():
    d2 = get_fixture("d2")
    assert d2.design.n == 16 and d2.design.p == 4 and d2.design.t == 4
    doubled = {s for s, c in d2.design.counts.items() if c == 2}
    assert doubled == {(1, 2, 3, 4), (4, 3, 2, 1)}
    assert all(c == 1 for s, c in d2.design.counts.items() if s not in doubled)

    d4 = get_fixture("d4")
    assert d4.design.n == 24
    assert sorted(d4.design.counts.values(), reverse=True) == [2] * 6 + [1] * 12

    d6 = get_fixture("d6")
    assert d6.design.n == 20 and d6.design.p == 5 and d6.design.t == 5

    d8 = get_fixture("d8")
    assert d8.design.n == 30 and d8.design.p == 5 and d8.design.t == 3
    assert sorted(d8.design.counts.values()) == [5] * 6

    d9 = get_fixture("d9")
    assert d9.design.n == 14
    assert d9.design.counts == {
        (1, 2, 2, 1, 2, 1): 1,
        (2, 1, 1, 2, 1, 2): 1,
        (1, 2, 2, 2, 1, 1): 6,
        (2, 1, 1, 1, 2, 2): 6,
    }


def test_fixture_designs_lie_in_their_support(d2_cert, d8_cert, d9_cert):
    from crossover_dropout.q_solver import solve_minimax

    d6 = get_fixture("d6")
    d6_cert = solve_minimax(d6.mechanism, d6.design.t)
    cases = [("d2", d2_cert), ("d8", d8_cert), ("d9", d9_cert), ("d6", d6_cert)]
    for name, cert in cases:
        design = FIXTURES[name].design
        support = set(cert.support)
        assert set(design.counts) <= support


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--t", "4", "--n", "16", "--restarts", "-1"],
        ["design", "--t", "4", "--n", "16", "--seed", "-1"],
        ["sweep", "--search", "--p", "4", "--t", "4", "--n", "16", "--theta-grid", "0.5",
         "--restarts", "-1"],
        ["evaluate", "--fixture", "d2", "--method", "mc", "--seed", "-3"],
        ["solve", "--t", "4", "--budget", "-5"],
        ["solve", "--t", "4", "--budget", "-5", "--closed-form-only"],
        ["design", "--t", "4", "--n", "16", "--budget", "-5"],
        ["evaluate", "--fixture", "d2", "--exact-budget", "-5"],
        ["evaluate", "--fixture", "d2", "--method", "mc", "--exact-budget", "-5"],
        ["compare", "--fixture", "d2", "--baseline-fixture", "d2", "--criterion", "t",
         "--exact-budget", "-5"],
        ["sweep", "--fixture", "d2", "--theta-grid", "0.5", "--exact-budget", "-5"],
    ],
)
def test_negative_search_and_seed_arguments_exit_2(capsys, mech_file, argv):
    if argv[0] in ("solve", "design", "compare"):
        argv = argv + ["--mech", mech_file]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert ">= 0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--fixture", "d2", "--design", "DESIGN", "--theta-grid", "0.5"],
        ["sweep", "--search", "--fixture", "d2", "--p", "4", "--t", "4", "--n", "16",
         "--theta-grid", "0.5"],
        ["compare", "--fixture", "d2", "--design", "DESIGN", "--baseline-fixture", "d2",
         "--mech", "MECH", "--criterion", "t"],
        ["compare", "--fixture", "d2", "--baseline", "DESIGN", "--baseline-fixture", "d2",
         "--mech", "MECH", "--criterion", "t"],
        ["evaluate", "--fixture", "d2", "--design", "DESIGN"],
    ],
)
def test_two_design_sources_exit_2(capsys, tmp_path, mech_file, argv):
    path = tmp_path / "d2.json"
    save_design(get_fixture("d2").design, path)
    argv = [str(path) if a == "DESIGN" else mech_file if a == "MECH" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "exactly one" in err
