"""Tests of the benchmark itself: span arithmetic, output checks, smoke runs.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import jobs  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from crossover_dropout import cli  # noqa: E402


# -- spans -------------------------------------------------------------------------


def test_self_times_subtract_the_union_of_children():
    synthetic = [
        ["cli.main", 0.0, 10.0, -1, "j"],
        ["evaluation.a", 1.0, 4.0, 0, "j"],
        ["evaluation.b", 3.0, 6.0, 0, "j"],  # overlaps a: the union counts once
        ["information.c", 8.0, 12.0, 0, "j"],  # runs past its parent: clipped
        ["matrix_kernels.d", 2.0, 3.0, 1, "j"],
    ]
    assert spans.self_times(synthetic) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_layer_self_times_add_up_to_the_job():
    nested = [
        ["cli.main", 0.0, 5.0, -1, "j1"],
        ["q_solver.solve_minimax", 0.5, 4.5, 0, "j1"],
        ["sequences.orbit", 1.0, 3.0, 1, "j1"],
        ["cli.main", 6.0, 7.0, -1, "j2"],
    ]
    per_job = spans.aggregate(nested, by_job=True)
    first = per_job["j1"]
    assert first["cli.self_s"] == pytest.approx(1.0)
    assert first["q_solver.self_s"] == pytest.approx(2.0)
    assert first["sequences.orbit.s"] == pytest.approx(2.0)
    assert sum(first[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(5.0)
    assert per_job["j2"]["cli.main.calls"] == 1


def test_tracer_wraps_every_binding_and_restores_it():
    from crossover_dropout import q_solver, sequences

    original = sequences.orbit
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert sequences.orbit is not original
        assert q_solver.solve_minimax.__wrapped__ is not None
        tracer.call("cli.main", lambda: sequences.SymmetricBlock((1, 2), 2, 3).members())
    finally:
        tracer.uninstall()
    assert sequences.orbit is original
    assert [s[0] for s in tracer.spans] == ["cli.main", "sequences.orbit"]
    assert tracer.spans[1][3] == 0


# -- statistics --------------------------------------------------------------------


def test_tail_is_the_slowest_job_below_eleven_jobs():
    assert report.tail([3.0, 1.0, 2.0]) == (3.0, None)
    value, pct = report.tail([float(i) for i in range(30)])
    assert value == 19.0 and pct == pytest.approx(100 * 20 / 30)


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([10, 10.1, 9.9, 10, 10.05], [8, 8.1, 7.9, 8, 8.05], "improved"),
        ([10, 10.1, 9.9, 10, 10.05], [10.05, 10, 9.95, 10.1, 10], "no worse"),
        ([10, 10.1, 9.9, 10, 10.05], [12, 12.1, 11.9, 12, 12.05], "regressed"),
        ([5, 15, 8, 12, 10], [9, 11, 10, 10, 10], "unresolved"),
    ],
)
def test_verdict(parent, change, expected):
    pairs = list(zip(parent, change))
    assert report.verdict(parent, change, pairs, "lower", 0.05) == expected


# -- output checks -------------------------------------------------------------------


def cli_output(argv):
    result = run.run_job(cli, jobs.Job("t", argv, ""), 0, None, [])
    assert result.rc == 0, result.err
    return result.out


@pytest.fixture(scope="module")
def tiny_jobs(tmp_path_factory):
    built = {}
    for name in jobs.WORKLOADS:
        workdir = tmp_path_factory.mktemp(name)
        warmup, timed, _ = jobs.build(name, 7, 1.0, workdir, tiny=True)
        built[name] = warmup + timed
    return built


def job_of(tiny_jobs, workload, check):
    return next(j for j in tiny_jobs[workload] if j.check == check)


def corrupt_json(out, edit):
    payload = json.loads(out)
    edit(payload)
    return json.dumps(payload)


def scale_first(key, factor):
    def edit(payload):
        payload["reports"][0][key] *= factor
    return edit


CORRUPTIONS = [
    ("certify", "solve", lambda p: p.update(y_star=p["y_star"] + 1e-3)),
    ("certify", "solve", lambda p: p["support"].pop()),
    ("search", "design", lambda p: p["report"].update(residual=p["report"]["residual"] * 1.01)),
    ("search", "design", lambda p: p["design"]["sequences"].pop()),
    ("evaluate", "evaluate_exact", scale_first("phi0", 1 + 1e-6)),
    ("evaluate", "evaluate_mc", lambda p: [r.update(phi0=r["phi0"] + 0.02) for r in p["reports"]]),
    ("evaluate", "compare", lambda p: p.update(phi0_ratio=p["phi0_ratio"] * 1.001)),
]


@pytest.mark.parametrize("workload, check, edit", CORRUPTIONS)
def test_check_rejects_corrupted_json(tiny_jobs, workload, check, edit):
    job = job_of(tiny_jobs, workload, check)
    checker = checks.Checker()
    out = cli_output(job.argv)
    checker(job, out, [])
    with pytest.raises(checks.CheckError):
        checker(job, corrupt_json(out, edit), [])


def test_certify_check_rejects_a_support_off_the_peak(tiny_jobs):
    job = job_of(tiny_jobs, "certify", "solve")
    payload = json.loads(cli_output(job.argv))
    payload["support"] = ["1" * job.expect["mechanism"]["p"]]  # one treatment throughout
    with pytest.raises(checks.CheckError):
        checks.Checker()(job, json.dumps(payload), [])


def test_ac7_gate_rejects_a_worse_d2_design(tmp_path):
    inputs = jobs.Inputs(tmp_path)
    path = inputs.fixture_mechanism("d2")
    argv = ["design", "--mech", path, "--t", "4", "--n", "16", "--seed", "0", "--restarts", "0"]
    expect = {"fixture": "d2", "p": 4, "t": 4, "n": 16, "seed": 0, "restarts": 0}
    out = cli_output(argv)
    checker = checks.Checker()
    resid = checker(jobs.Job("d2", argv, "design", {**expect, "ac7_gate": False}), out, [])
    assert resid["residuals"][0] > 0.5166436913467424 + 1e-9  # restart 0 alone misses it
    with pytest.raises(checks.CheckError, match="bundled"):
        checker(jobs.Job("d2", argv, "design", {**expect, "ac7_gate": True}), out, [])


def sweep_corruptions(out):
    lines = out.splitlines()
    yield "\n".join(lines[:-1]) + "\n"  # a row short
    yield "\n".join(["theta,criterion,phi0"] + lines[1:]) + "\n"  # wrong header
    cells = lines[1].split(",")
    cells[7] = "1.01"  # e1_tilde above 1
    yield "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"
    cells = lines[1].split(",")
    cells[2] = "nan"
    yield "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"


def test_sweep_check_rejects_corrupted_csv(tiny_jobs):
    job = next(j for j in tiny_jobs["sweep"] if not j.expect["search"])
    checker = checks.Checker()
    out = cli_output(job.argv)
    checker(job, out, [])
    for bad in sweep_corruptions(out):
        with pytest.raises(checks.CheckError):
            checker(job, bad, [])


def test_sweep_check_rejects_a_misreported_search(tiny_jobs):
    job = next(j for j in tiny_jobs["sweep"] if j.expect["search"])
    found = []
    restore = checks.capture_searches(found)
    try:
        out = cli_output(job.argv)
    finally:
        restore()
    checker = checks.Checker()
    assert checker(job, out, found)["residuals"]
    cert, mech, design, rep = found[0]
    lying = rep.__class__(rep.residual + 0.1, rep.restarts_used, rep.moves, rep.seed)
    with pytest.raises(checks.CheckError):
        checker(job, out, [(cert, mech, design, lying)] + found[1:])
    with pytest.raises(checks.CheckError):
        checker(job, out, found[1:])


# -- smoke runs ------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_smoke_run(tiny_jobs, workload):
    plain = run.run_pass(cli, tiny_jobs[workload], 0)
    assert run.check_results(plain)[0] == 0
    tracer = spans.Tracer()
    traced = run.run_pass(cli, tiny_jobs[workload], 0, tracer)
    assert run.check_results(traced)[0] == 0
    totals = {**spans.aggregate(tracer.spans), **tracer.counters}
    assert totals["cli.main.calls"] == len(traced)
    metrics = report.layer_metrics(totals, 1, 0.0, 0.0)
    assert list(metrics) == [name for name, _, _ in report.PER_LAYER]


def test_run_outside_a_checkout_fails_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert listed == list(report.END_TO_END)
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layers == list(report.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert all(w["why"] == jobs.WORKLOADS[w["name"]].why for w in spec["workloads"])
