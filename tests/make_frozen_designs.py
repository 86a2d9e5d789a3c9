"""Write ``frozen_designs.json``: the integer designs ``exact_search`` finds on seeded cases.

    PYTHONPATH=src python tests/make_frozen_designs.py [--count 44] [--seed 15] [--out PATH]

The cases are the five fixture mechanisms at their own t and n, the
two-point mechanisms of the benchmark's ``sweep --search`` jobs at
(p, t, n) = (5, 2, 10), (4, 3, 12) and (4, 4, 8) and theta 0.2 to 0.8, and
``--count`` seeded mechanisms over p in 2..6 and t in 2..5 (spread over stay
lengths 2..p, some mass on stay length 1, two-point, late dropout), with at
most 300 support sequences each.  Every case gets a search seed and a
restart count.  A case records the inputs of ``exact_search`` and its
result: the support size, the nonzero counts, the residual and the moves.
``test_designs_match_frozen_cases`` replays the file.
"""

from __future__ import annotations

import argparse
import json
import warnings
from pathlib import Path

import numpy as np

from crossover_dropout.design_search import exact_search
from crossover_dropout.dropout_model import new_mechanism
from crossover_dropout.fixtures import FIXTURES
from crossover_dropout.q_solver import solve_minimax

SWEEP_TRIPLES = ((5, 2, 10), (4, 3, 12), (4, 4, 8))
SWEEP_THETAS = (0.2, 0.4, 0.6, 0.8)
MAX_SUPPORT = 300


def draw_mechanism(rng: np.random.Generator, kind: int) -> dict:
    p = int(rng.integers(2, 7))
    t = int(rng.integers(2, 6))
    a = np.zeros(p)
    if kind == 0:  # spread over stay lengths 2..p
        a[1:] = rng.dirichlet(np.ones(p - 1) * rng.uniform(0.4, 3.0))
    elif kind == 1:  # some mass on stay length 1
        a[0] = rng.uniform(0.05, 0.6)
        a[1:] = (1.0 - a[0]) * rng.dirichlet(np.ones(p - 1))
    elif kind == 2:  # two-point
        theta = rng.uniform(0.05, 0.95)
        a[int(rng.integers(1, max(2, p - 1)))] = theta
        a[p - 1] += 1.0 - theta
    else:  # late dropout: nothing before stay length m
        m = int(rng.integers(2, p + 1))
        a[m - 1 :] = rng.dirichlet(np.ones(p - m + 1))
    return {"p": p, "t": t, "n": int(rng.integers(2, 25)), "a": a.tolist()}


def search_case(case: dict) -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        mech = new_mechanism(case["p"], case["n"], case["a"])
    cert = solve_minimax(mech, case["t"])
    design, report = exact_search(
        case["n"], cert, mech, seed=case["seed"], restarts=case["restarts"]
    )
    return {
        "support": len(cert.support),
        "counts": [[list(s), c] for s, c in sorted(design.counts.items())],
        "residual": report.residual,
        "moves": report.moves,
    }


def support_size(case: dict) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        mech = new_mechanism(case["p"], case["n"], case["a"])
    return len(solve_minimax(mech, case["t"]).support)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=44)
    parser.add_argument("--seed", type=int, default=15)
    parser.add_argument("--out", default=str(Path(__file__).with_name("frozen_designs.json")))
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    cases = []
    for name, fx in sorted(FIXTURES.items()):
        mech = fx.mechanism
        cases.append({"name": name, "p": mech.p, "t": fx.design.t, "n": mech.n,
                      "a": mech.a.tolist()})
    for p, t, n in SWEEP_TRIPLES:
        for theta in SWEEP_THETAS:
            a = np.zeros(p)
            a[p - 2], a[p - 1] = theta, 1.0 - theta
            cases.append({"name": f"theta {theta}", "p": p, "t": t, "n": n, "a": a.tolist()})
    while len(cases) < len(FIXTURES) + 12 + args.count:
        case = draw_mechanism(rng, len(cases) % 4)
        if support_size(case) <= MAX_SUPPORT:
            cases.append({"name": "seeded", **case})
    for case in cases:
        case["seed"] = int(rng.integers(2**31))
        case["restarts"] = int(rng.integers(0, 5))
        case.update(search_case(case))
    lines = ",\n".join(json.dumps(case) for case in cases)
    Path(args.out).write_text(f"[\n{lines}\n]\n")


if __name__ == "__main__":
    main()
