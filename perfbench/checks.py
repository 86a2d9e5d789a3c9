"""Output checks, one per command.

Each check parses a job's stdout and raises CheckError when the output is
wrong.  It returns the facts the benchmark reports beside timings, such as
the optimality-system residual of a searched design.  Checks run after the
timed phase, so their own cost never enters a job's wall time.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from crossover_dropout import evaluation
from crossover_dropout.design_io import load_design
from crossover_dropout.design_search import build_system
from crossover_dropout.dropout_model import new_mechanism
from crossover_dropout.fixtures import FIXTURES
from crossover_dropout.q_solver import solve_minimax

EXACT_REPORTS = Path(__file__).with_name("exact_reports.json")
REGIMES = {"closed_form_i", "closed_form_ii", "closed_form_ii_boundary", "closed_form_iii",
           "numeric"}
SWEEP_HEADER = "theta,criterion,phi0,stderr,v_phi,phi1,gap,e1_tilde,ell"
CRITERIA = ("A", "D", "E", "T")
# Every sequence is checked against the peak up to this many; past it, a
# seeded sample of this many.
EXHAUSTIVE = 10**6
OFF_SUPPORT_SAMPLE = 2000


class CheckError(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def parse_json(out: str, keys: set) -> dict:
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from None
    require(isinstance(payload, dict) and set(payload) == keys,
            f"expected keys {sorted(keys)}")
    return payload


def parse_sequences(strings, p: int, t: int) -> np.ndarray:
    """(m, p) array of 0-based labels from emitted sequence strings."""
    rows = []
    for text in strings:
        labels = text.split(",") if t > 9 else list(text)
        require(len(labels) == p and all(x.isdigit() and 1 <= int(x) <= t for x in labels),
                f"bad sequence {text!r}")
        rows.append([int(x) - 1 for x in labels])
    return np.array(rows, dtype=np.int64).reshape(len(rows), p)


def trace_q(seqs: np.ndarray, alpha_matrix: np.ndarray, t: int, x: float) -> np.ndarray:
    """q_s(x) = tr((T B + x F B)' A (T B + x F B)) for every row s.

    The trace definition of the sequence quadratics, with T and F the
    treatment and carryover incidences and B the t x t centering projector;
    independent of the prefix-count closed forms the solver uses.
    """
    n_seq, p = seqs.shape
    out = np.empty(n_seq)
    for lo in range(0, n_seq, 8192):
        sub = seqs[lo : lo + 8192]
        th = np.zeros((sub.shape[0], p, t))
        th[np.arange(sub.shape[0])[:, None], np.arange(p)[None, :], sub] = 1.0
        fh = np.zeros_like(th)
        fh[:, 1:] = th[:, :-1]
        th -= th.sum(axis=2, keepdims=True) / t
        fh -= fh.sum(axis=2, keepdims=True) / t
        g = th + x * fh
        out[lo : lo + 8192] = np.einsum("spu,pq,squ->s", g, alpha_matrix, g)
    return out


def candidate_sequences(p: int, t: int, seed: int) -> np.ndarray:
    """All t**p sequences (0-based) when that is at most EXHAUSTIVE, else a seeded sample."""
    if t**p <= EXHAUSTIVE:
        return np.indices([t] * p).reshape(p, -1).T
    return np.random.default_rng(seed).integers(0, t, size=(OFF_SUPPORT_SAMPLE, p))


class Checker:
    """Runs the check named by a job; caches certificates across jobs."""

    def __init__(self):
        self._systems: dict = {}
        self._exact = json.loads(EXACT_REPORTS.read_text())["reports"]

    def __call__(self, job, out: str, searches: list) -> dict:
        return getattr(self, f"check_{job.check}")(job.expect, out, searches)

    def _system(self, mech: dict, t: int):
        key = (json.dumps(mech, sort_keys=True), t)
        if key not in self._systems:
            m = new_mechanism(mech["p"], mech["n"], mech["a"])
            cert = solve_minimax(m, t)
            self._systems[key] = build_system(cert, m)
        return self._systems[key]

    def _residual(self, mech: dict, t: int, counts: dict) -> float:
        """Residual of integer counts in the certificate's optimality system."""
        system = self._system(mech, t)
        index = system.column_index()
        x = np.zeros(len(system.support))
        for seq, c in counts.items():
            require(seq in index, f"sequence {seq} lies outside the certificate support")
            x[index[seq]] = c
        n = sum(counts.values())
        return float(np.linalg.norm(system.x @ x - system.y_exact(n)))

    # -- solve -----------------------------------------------------------------

    def check_solve(self, expect: dict, out: str, searches: list) -> dict:
        cert = parse_json(out, {"x_star", "y_star", "regime", "t", "support", "mechanism"})
        t, mech = expect["t"], expect["mechanism"]
        require(cert["regime"] in REGIMES, f"unknown regime {cert['regime']!r}")
        require(cert["t"] == t, "t differs from the input")
        got = cert["mechanism"]
        require(got["p"] == mech["p"] and got["n"] == mech["n"]
                and np.allclose(got["a"], mech["a"], rtol=0, atol=1e-9),
                "mechanism differs from the input")
        x_star, y_star = float(cert["x_star"]), float(cert["y_star"])
        require(math.isfinite(x_star) and math.isfinite(y_star), "non-finite x* or y*")
        p = mech["p"]
        support = parse_sequences(cert["support"], p, t)
        require(support.shape[0] >= 1, "empty support")
        codes = support @ (t ** np.arange(p)[::-1])
        require(np.unique(codes).size == codes.size, "support lists a sequence twice")
        amat = new_mechanism(p, mech["n"], mech["a"]).A
        tol = 1e-8 * max(1.0, abs(y_star))
        gap = np.abs(trace_q(support, amat, t, x_star) - y_star)
        require(float(gap.max()) <= tol, f"support member misses y* by {gap.max():.3e}")
        off_tol = 1e-11 * max(1.0, abs(y_star))
        others = candidate_sequences(p, t, expect["sample_seed"])
        others = others[~np.isin(others @ (t ** np.arange(p)[::-1]), codes)]
        if others.shape[0]:
            worst = float(trace_q(others, amat, t, x_star).max())
            require(worst < y_star - off_tol,
                    f"sequence off the support reaches {worst!r}, y* = {y_star!r}")
        return {}

    # -- design ----------------------------------------------------------------

    def check_design(self, expect: dict, out: str, searches: list) -> dict:
        payload = parse_json(out, {"design", "report"})
        design, report = payload["design"], payload["report"]
        p, t, n = expect["p"], expect["t"], expect["n"]
        require((design.get("p"), design.get("t"), design.get("n")) == (p, t, n),
                "design size differs from the request")
        require(len(design["sequences"]) == n, "design lists the wrong number of subjects")
        require(report.get("restarts_used") == expect["restarts"]
                and report.get("seed") == expect["seed"], "report echoes the wrong settings")
        counts: dict = {}
        for row in parse_sequences(design["sequences"], p, t):
            seq = tuple(int(v) + 1 for v in row)
            counts[seq] = counts.get(seq, 0) + 1
        mech = FIXTURES[expect["fixture"]].mechanism.to_dict()
        resid = self._residual(mech, t, counts)
        require(close(resid, float(report["residual"])),
                f"reported residual {report['residual']!r} but recomputed {resid!r}")
        if expect["ac7_gate"]:
            fx = FIXTURES[expect["fixture"]]
            bundled = self._residual(mech, t, dict(fx.design.counts))
            require(resid <= bundled + 1e-9,
                    f"residual {resid!r} worse than the bundled design's {bundled!r}")
        return {"residuals": [resid]}

    # -- evaluate and compare --------------------------------------------------

    def _reports(self, out: str, fixture: str, method: str) -> list:
        payload = parse_json(out, {"design", "mechanism", "reports"})
        fx = FIXTURES[fixture]
        require(payload["mechanism"]["n"] == fx.mechanism.n
                and payload["design"]["n"] == fx.design.n, "design or mechanism differs")
        reports = payload["reports"]
        for r in reports:
            require(r.get("method") == method, f"method {r.get('method')!r}")
            for key in ("phi0", "phi0_stderr", "v_phi", "phi1", "gap", "e1_tilde", "ell"):
                require(isinstance(r.get(key), float) and math.isfinite(r[key]),
                        f"{r.get('criterion')} {key} is not a finite number")
        return reports

    def check_evaluate_exact(self, expect: dict, out: str, searches: list) -> dict:
        reports = self._reports(out, expect["fixture"], "exact")
        recorded = self._exact[expect["fixture"]]
        require([r["criterion"] for r in reports] == [r["criterion"] for r in recorded],
                "criteria differ from the recorded reports")
        for got, want in zip(reports, recorded):
            require(got["replications"] == want["replications"], "cell count differs")
            for key in ("phi0", "v_phi", "phi1", "gap", "e1_tilde", "ell"):
                require(close(got[key], want[key]),
                        f"{want['criterion']} {key} = {got[key]!r}, recorded {want[key]!r}")
        return {}

    def check_evaluate_mc(self, expect: dict, out: str, searches: list) -> dict:
        reports = {r["criterion"]: r for r in self._reports(out, expect["fixture"], "mc")}
        for r in reports.values():
            require(r["replications"] == expect["reps"] and r["seed"] == expect["seed"],
                    "report echoes the wrong draws or seed")
            require(r["phi0_stderr"] > 0.0, "Monte Carlo stderr is zero")
        for crit, (target, tol) in expect["targets"].items():
            require(crit in reports, f"criterion {crit} missing")
            phi0 = reports[crit]["phi0"]
            require(abs(phi0 - target) <= tol,
                    f"{crit} phi0 {phi0:.5f} outside {target} +/- {tol}")
        return {}

    def check_compare(self, expect: dict, out: str, searches: list) -> dict:
        payload = parse_json(out, {"criterion", "phi0_ratio", "v_ratio"})
        require(payload["criterion"] == expect["criterion"], "criterion differs")
        mech = expect["mechanism"]
        m = new_mechanism(mech["p"], mech["n"], mech["a"])
        phi0_d, _, v_d = evaluation.evaluate_phi0(load_design(expect["design"]), m, "T")
        phi0_b, _, v_b = evaluation.evaluate_phi0(load_design(expect["baseline"]), m, "T")
        for key, want in (("phi0_ratio", phi0_d / phi0_b), ("v_ratio", v_d / v_b)):
            got = payload[key]
            require(isinstance(got, float) and close(got, want),
                    f"{key} = {got!r}, separate evaluations give {want!r}")
        return {}

    # -- sweep -----------------------------------------------------------------

    def check_sweep(self, expect: dict, out: str, searches: list) -> dict:
        lines = out.splitlines()
        require(bool(lines) and lines[0] == SWEEP_HEADER, "wrong CSV header")
        grid = expect["grid"]
        rows = lines[1:]
        require(len(rows) == len(grid) * len(CRITERIA),
                f"{len(rows)} rows for {len(grid)} thetas x {len(CRITERIA)} criteria")
        e1_col = SWEEP_HEADER.split(",").index("e1_tilde")
        for i, line in enumerate(rows):
            cells = line.split(",")
            require(len(cells) == 9, f"row {i} has {len(cells)} fields")
            require(cells[1] == CRITERIA[i % len(CRITERIA)], f"row {i} criterion {cells[1]!r}")
            try:
                values = [float(c) for c in (cells[:1] + cells[2:])]
            except ValueError:
                raise CheckError(f"row {i} holds a non-number") from None
            require(all(math.isfinite(v) for v in values), f"row {i} holds a non-finite value")
            require(close(values[0], grid[i // len(CRITERIA)], 1e-12), f"row {i} theta differs")
            require(float(cells[e1_col]) <= 1.0 + 1e-9, f"row {i} e1_tilde above 1")
        if not expect["search"]:
            return {}
        require(len(searches) == len(grid), f"{len(searches)} searches for {len(grid)} thetas")
        residuals = []
        for cert, mech, design, report in searches:
            resid = self._residual(mech.to_dict(), cert.t, dict(design.counts))
            require(close(resid, report.residual),
                    f"searched residual {report.residual!r} but recomputed {resid!r}")
            residuals.append(resid)
        return {"residuals": residuals}


def capture_searches(found: list):
    """Record every design a sweep searches, as (cert, mech, design, report).

    A sweep prints no designs, so the searched residuals are taken from the
    one search call per theta that ``evaluation.sweep_theta`` makes.  Costs
    one extra Python call per search.  Returns the function that undoes it.
    """
    original = evaluation.exact_search

    def recording(n, cert, mech, **kwargs):
        design, report = original(n, cert, mech, **kwargs)
        found.append((cert, mech, design, report))
        return design, report

    evaluation.exact_search = recording

    def restore():
        evaluation.exact_search = original

    return restore
