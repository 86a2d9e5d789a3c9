"""Compare two result sets of the benchmark, one row per workload.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --out FILE`` appends, one per run.  For
every workload and end-to-end metric the row shows the parent's and the
change's median with quartiles, and a verdict (improved, no worse, regressed
or unresolved) judged against the metric's bound in BENCHMARK.json.  Runs of
the two sets on the same seed are paired.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from report import quartiles, verdict

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """{workload: {seed: metrics}} of the untraced runs in a result file."""
    runs: dict = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if record["trace"] == 0:
                    metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
                    runs.setdefault(record["workload"], {})[record["seed"]] = metrics
    return runs


def cell(values: list[float]) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def rows(parent: dict, change: dict, metrics: list[dict]) -> list[str]:
    out = []
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        cells = []
        for m in metrics:
            name = m["name"]
            p_vals = [r[name] for r in p_runs.values()]
            c_vals = [r[name] for r in c_runs.values()]
            pairs = [(p_runs[s][name], c_runs[s][name]) for s in sorted(set(p_runs) & set(c_runs))]
            judged = verdict(p_vals, c_vals, pairs, m["better"], m["bound"])
            cells.append(f"{name} {cell(p_vals)} -> {cell(c_vals)} {m['unit']}: {judged}")
        out.append(f"{workload} (runs {len(p_runs)}/{len(c_runs)}) | " + " | ".join(cells))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    print("workload (parent/change runs) | metric median [q1, q3] parent -> change: verdict")
    for row in rows(load(args.parent), load(args.change), metrics):
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
