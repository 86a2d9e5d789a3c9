"""Workloads: seeded job lists that drive the command line in process.

A job is one ``crossover_dropout.cli.main(argv)`` call plus what its output
check needs.  Each workload is a fixed cycle of job slots.  The seed picks the
values inside every slot (mechanisms, search and Monte Carlo seeds, theta
grids, designs) but never the mix of slots, so any two seeds run the same
kinds and sizes of jobs and their timings can be compared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from crossover_dropout.dropout_model import new_mechanism
from crossover_dropout.fixtures import FIXTURES
from crossover_dropout.q_solver import q_coeffs


@dataclass
class Job:
    label: str
    argv: list[str]
    check: str
    expect: dict = field(default_factory=dict)


class Inputs:
    """Writes the input files of one run into its own directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._count = 0

    def write(self, stem: str, payload: dict) -> str:
        self._count += 1
        path = self.workdir / f"{self._count:04d}-{stem}.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def mechanism(self, stem: str, p: int, n: int, a) -> str:
        return self.write(stem, {"p": p, "n": n, "a": [float(x) for x in a]})

    def fixture_mechanism(self, name: str) -> str:
        return self.write(f"mech-{name}", FIXTURES[name].mechanism.to_dict())


# -- certify -------------------------------------------------------------------


def closed_form_branch(p: int, n: int, a, t: int) -> str:
    """The closed-form branch the certificate takes for a mechanism.

    Mirrors the regime preconditions: 'ii' lists two relabeling orbits,
    'iii' lists one and 'none' lists none, which is what sets the cost of a
    solve at large t.  Only mechanisms with stay-length support below t+1
    are generated, so the balanced-count regime never applies.
    """
    mech = new_mechanism(p, n, a)
    rep = tuple(range(1, p)) + (p - 1,)
    coeffs = q_coeffs(rep, mech, t)
    if p - 1 <= t and coeffs.q22 > 0.0:
        x0 = -coeffs.q12 / coeffs.q22
        kink = 1.0 / (p - 1)
        if p <= t and x0 <= kink:
            return "ii"
        if p >= 3 and kink < x0 < 1.0 / (p - 2):
            return "iii"
    return "none"


def multipoint_mechanism(rng: np.random.Generator, p: int, t: int, branch: str):
    """A seeded mechanism on two or three stay lengths that takes ``branch``."""
    for _ in range(10_000):
        k = int(rng.integers(2, 4))
        levels = np.append(rng.choice(np.arange(2, p), size=k - 1, replace=False), p)
        a = np.zeros(p)
        a[levels - 1] = np.round(rng.dirichlet(np.ones(k)), 6)
        a[p - 1] = round(1.0 - float(a[: p - 1].sum()), 6)
        n = int(rng.integers(8, 33))
        if a[p - 1] > 0 and closed_form_branch(p, n, a, t) == branch:
            return n, a
    raise RuntimeError(f"no mechanism at (p, t) = ({p}, {t}) takes branch {branch}")


def certify_warmup(rng, inputs: Inputs) -> list[Job]:
    """Every fixture mechanism at its t: checked in set-up, not timed.

    These take 5-15 ms, below the 20 ms scheduling stalls of a shared host,
    so their wall times would be noise in the timed phase.
    """
    jobs = []
    for name in sorted(FIXTURES):
        fx = FIXTURES[name]
        path = inputs.fixture_mechanism(name)
        jobs.append(_solve_job(f"solve/{name}", path, fx.design.t, fx.mechanism.to_dict(), rng))
    return jobs


def certify_cycle(rng, inputs: Inputs, tiny: bool) -> list[Job]:
    # Two (7, 7) slots put the median of the five jobs on a (7, 7) solve.
    slots = (
        [(4, 4, "ii"), (5, 4, "none")]
        if tiny
        else [(5, 8, "none"), (6, 6, "iii"), (7, 7, "ii"), (7, 7, "ii"), (6, 10, "ii")]
    )
    jobs = []
    for p, t, branch in slots:
        n, a = multipoint_mechanism(rng, p, t, branch)
        path = inputs.mechanism(f"mech-p{p}t{t}", p, n, a)
        mech = {"p": p, "n": n, "a": [float(x) for x in a]}
        jobs.append(_solve_job(f"solve/p{p}t{t}-{branch}", path, t, mech, rng))
    return jobs


def _solve_job(label, path, t, mech, rng) -> Job:
    return Job(
        label,
        ["solve", "--mech", path, "--t", str(t)],
        "solve",
        {"t": t, "mechanism": mech, "sample_seed": int(rng.integers(2**31))},
    )


# -- search --------------------------------------------------------------------

# Search seeds covered by the ac7 gate (acceptance test ac7 runs seeds 0..7
# at 100 restarts and requires the bundled d2 residual on each).
AC7_SEEDS = 8


def _design_job(rng, inputs, name, n, restarts, gated) -> Job:
    fx = FIXTURES[name]
    seed = int(rng.integers(AC7_SEEDS)) if gated else int(rng.integers(2**31))
    path = inputs.fixture_mechanism(name)
    argv = ["design", "--mech", path, "--t", str(fx.design.t), "--n", str(n),
            "--seed", str(seed), "--restarts", str(restarts)]
    expect = {"fixture": name, "p": fx.design.p, "t": fx.design.t, "n": n,
              "seed": seed, "restarts": restarts, "ac7_gate": gated}
    return Job(f"design/{name}-r{restarts}", argv, "design", expect)


def search_warmup(rng, inputs: Inputs) -> list[Job]:
    return [_design_job(rng, inputs, "d2", 16, 0, False)]


def search_cycle(rng, inputs: Inputs, tiny: bool) -> list[Job]:
    if tiny:
        slots = [("d9", 14, 2, False), ("d2", 16, 1, False)]
    else:
        slots = [("d2", 16, 100, True), ("d4", 30, 100, False), ("d6", 20, 0, False)]
    return [_design_job(rng, inputs, *slot) for slot in slots]


# -- evaluate ------------------------------------------------------------------

# Published Monte Carlo targets and tolerances of acceptance tests ac4 (d8)
# and ac5 (d6).
MC_TARGETS = {
    "d8": {"T": (1.2353, 0.01), "E": (1.2004, 0.015)},
    "d6": {"T": (0.7621, 0.01)},
}


def random_design(rng, p: int, t: int, n: int, name: str) -> dict:
    seqs = sorted("".join(str(x) for x in rng.integers(1, t + 1, size=p)) for _ in range(n))
    return {"name": name, "p": p, "t": t, "n": n, "sequences": seqs}


def _mc_job(rng, name: str, crit: str, reps: int) -> Job:
    seed = int(rng.integers(2**31))
    argv = ["evaluate", "--fixture", name, "--criterion", crit, "--method", "mc",
            "--reps", str(reps), "--seed", str(seed)]
    targets = MC_TARGETS[name]
    if crit != "all":
        targets = {crit.upper(): targets[crit.upper()]}
    expect = {"fixture": name, "reps": reps, "seed": seed, "targets": targets}
    return Job(f"evaluate/{name}-mc", argv, "evaluate_mc", expect)


def evaluate_warmup(rng, inputs: Inputs) -> list[Job]:
    return [_mc_job(rng, "d8", "t", 4096)]


def evaluate_cycle(rng, inputs: Inputs, tiny: bool) -> list[Job]:
    reps = 2_000 if tiny else 40_000
    exact = ("d9",) if tiny else ("d2", "d9")
    mc = (("d8", "all"),) if tiny else (("d8", "all"), ("d6", "t"))
    jobs = []
    for name in exact:
        argv = ["evaluate", "--fixture", name, "--criterion", "all", "--method", "exact"]
        jobs.append(Job(f"evaluate/{name}-exact", argv, "evaluate_exact", {"fixture": name}))
    jobs += [_mc_job(rng, name, crit, reps) for name, crit in mc]
    p, t, n = 4, 4, (6 if tiny else 12)
    design = inputs.write("design-a", random_design(rng, p, t, n, "a"))
    baseline = inputs.write("design-b", random_design(rng, p, t, n, "b"))
    theta = round(float(rng.uniform(0.3, 0.7)), 6)
    mech = {"p": p, "n": n, "a": [0.0, 0.0, theta, round(1.0 - theta, 6)]}
    mech_path = inputs.write("mech-compare", mech)
    argv = ["compare", "--design", design, "--baseline", baseline, "--mech", mech_path,
            "--criterion", "t", "--method", "exact"]
    expect = {"design": design, "baseline": baseline, "mechanism": mech, "criterion": "T"}
    jobs.append(Job(f"compare/p{p}t{t}n{n}", argv, "compare", expect))
    return jobs


# -- sweep ---------------------------------------------------------------------

SEARCH_GRID = (0.2, 0.4, 0.6, 0.8)


def sweep_warmup(rng, inputs: Inputs) -> list[Job]:
    argv = ["sweep", "--fixture", "d9", "--theta-grid", "0.5"]
    return [Job("sweep/d9-warm-up", argv, "sweep", {"grid": [0.5], "search": False})]


def sweep_cycle(rng, inputs: Inputs, tiny: bool) -> list[Job]:
    fixture_sweeps, points = (1, 2) if tiny else (4, 8)
    # 4 + 4 of the cheapest jobs per 12 put the median inside them, and 3 of the
    # dearest per cycle put the tail (the 11th-slowest job) well inside the
    # (4, 4, 8) group rather than at its edge.
    searches = [(5, 2, 10)] if tiny else [(5, 2, 10)] * 4 + [(4, 3, 12)] + [(4, 4, 8)] * 3
    jobs = []
    for _ in range(fixture_sweeps):
        start = round(float(rng.uniform(0.05, 0.2)), 3)
        step = 0.1
        grid = [start + i * step for i in range(points)]
        spec = f"{start}:{round(start + (points - 1) * step, 3)}:{step}"
        argv = ["sweep", "--fixture", "d9", "--theta-grid", spec, "--criterion", "all"]
        jobs.append(Job("sweep/d9", argv, "sweep", {"grid": grid, "search": False}))
    for p, t, n in searches:
        # The grid is fixed because search effort depends on theta; the seed
        # varies the search instead.
        seed = int(rng.integers(2**31))
        argv = ["sweep", "--search", "--p", str(p), "--t", str(t), "--n", str(n),
                "--theta-grid", ",".join(str(g) for g in SEARCH_GRID), "--criterion", "all",
                "--seed", str(seed)]
        expect = {"grid": list(SEARCH_GRID), "search": True}
        jobs.append(Job(f"sweep/search-p{p}t{t}n{n}", argv, "sweep", expect))
    return jobs


# -- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Nominal seconds per cycle on a 2-core x86 box with one BLAS thread.
    # The cycle count is round(seconds / cycle_s), so every run of a given
    # length times the same work whatever the machine's speed that day.
    cycle_s: float
    make_cycle: Callable[[np.random.Generator, Inputs, bool], list[Job]]
    warmup: Callable[[np.random.Generator, Inputs], list[Job]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify",
            "solve on seeded multi-point mechanisms up to (p, t) = (6, 10), fixtures in set-up: "
            "q_solver and sequences do nearly all the work",
            18.0,
            certify_cycle,
            certify_warmup,
        ),
        Workload(
            "search",
            "design --restarts 100 on d2 and d4 plus one m=240 job on the pruned pair scan: "
            "transfer descent dominates",
            20.0,
            search_cycle,
            search_warmup,
        ),
        Workload(
            "evaluate",
            "exact and Monte Carlo evaluate on few and many distinct sequences, plus compare: "
            "realized information dominates",
            8.5,
            evaluate_cycle,
            evaluate_warmup,
        ),
        Workload(
            "sweep",
            "dozens of small fixture and --search sweeps: per-call set-up and the CLI, "
            "mechanism and CSV layers weigh most",
            4.2,
            sweep_cycle,
            sweep_warmup,
        ),
    )
}


def build(name: str, seed: int, seconds: float, workdir: Path, tiny: bool = False):
    """(warm-up jobs, timed jobs, cycles) of one run; the timed jobs hold every cycle."""
    workload = WORKLOADS[name]
    inputs = Inputs(workdir)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    cycles = 1 if tiny else max(1, round(seconds / workload.cycle_s))
    warmup = workload.warmup(rng, inputs)
    jobs = [job for _ in range(cycles) for job in workload.make_cycle(rng, inputs, tiny)]
    return warmup, jobs, cycles
