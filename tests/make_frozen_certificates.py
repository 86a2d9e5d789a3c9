"""Write ``frozen_certificates.json``: the certificates of seeded mechanisms.

    PYTHONPATH=src python tests/make_frozen_certificates.py [--count 400] [--seed 12] [--out PATH]

Each case is a mechanism over p in 2..7 periods and t in 2..10 treatments,
drawn in turn from eight kinds: spread, gapped stay-length support, some
mass on stay length 1, two-point, late dropout, small budget, a point mass
on one stay length (stay length 1 included, where every quadratic is 0) and
nearly all mass on stay length 1.  A case records the inputs of
``solve_minimax`` and either its certificate (x*, y*, regime, block
representatives) or the name of the budget error it raised.
``test_certificates_match_frozen_cases`` replays the file.
"""

from __future__ import annotations

import argparse
import json
import warnings
from pathlib import Path

import numpy as np

from crossover_dropout.dropout_model import new_mechanism
from crossover_dropout.errors import BudgetExceededError
from crossover_dropout.q_solver import solve_minimax
from crossover_dropout.sequences import DEFAULT_ENUM_BUDGET


def draw_case(rng: np.random.Generator, kind: int) -> dict:
    p = int(rng.integers(2, 8))
    t = int(rng.integers(2, 11))
    a = np.zeros(p)
    budget = DEFAULT_ENUM_BUDGET
    if kind in (0, 5):  # spread over stay lengths 2..p
        a[1:] = rng.dirichlet(np.ones(p - 1) * rng.uniform(0.4, 3.0))
        if kind == 5:
            budget = int(rng.choice([10, 100, 1000, 10_000]))
    elif kind == 1:  # gapped: a random nonempty subset of 2..p
        keep = rng.random(p - 1) < 0.5
        keep[rng.integers(p - 1)] = True
        a[1:][keep] = rng.dirichlet(np.ones(int(keep.sum())))
    elif kind == 2:  # some mass on stay length 1
        a[0] = rng.uniform(0.05, 0.6)
        a[1:] = (1.0 - a[0]) * rng.dirichlet(np.ones(p - 1))
    elif kind == 3:  # two-point
        theta = rng.uniform(0.05, 0.95)
        a[int(rng.integers(1, max(2, p - 1)))] = theta
        a[p - 1] += 1.0 - theta
    elif kind == 4:  # late dropout: nothing before stay length m
        m = int(rng.integers(2, p + 1))
        a[m - 1 :] = rng.dirichlet(np.ones(p - m + 1))
    elif kind == 6:  # a point mass on any stay length
        a[int(rng.integers(p))] = 1.0
    else:  # nearly all mass on stay length 1
        a[0] = 1.0 - 10.0 ** -rng.uniform(1.0, 6.0)
        a[1:] = (1.0 - a[0]) * rng.dirichlet(np.ones(p - 1))
    return {"p": p, "t": t, "n": int(rng.integers(2, 40)), "a": a.tolist(), "budget": budget}


def solve_case(case: dict) -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        mech = new_mechanism(case["p"], case["n"], case["a"])
    try:
        cert = solve_minimax(mech, case["t"], budget=case["budget"])
    except BudgetExceededError:
        return {"error": "BudgetExceededError"}
    return {
        "x_star": cert.x_star,
        "y_star": cert.y_star,
        "regime": cert.regime,
        "blocks": [list(b.representative) for b in cert.blocks],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=400)
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--out", default=str(Path(__file__).with_name("frozen_certificates.json")))
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    cases = []
    for i in range(args.count):
        case = draw_case(rng, i % 8)
        cases.append({**case, **solve_case(case)})
    lines = ",\n".join(json.dumps(case) for case in cases)
    Path(args.out).write_text(f"[\n{lines}\n]\n")


if __name__ == "__main__":
    main()
