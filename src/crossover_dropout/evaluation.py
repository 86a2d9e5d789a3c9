"""Expected-criterion evaluation of designs under a dropout mechanism.

phi0 is the expectation of a criterion of the realized information matrix
over stay-length draws, computed from count matrices N[s, l] (subjects with
distinct sequence s who stayed l periods, l in the mechanism's stay
support): ``count_grams`` gives their packed contrast Grams and one batched
Cholesky Schur complement leaves the packed (t-1) x (t-1) matrices S_H.  T
is the trace of S_H, and only A, D and E take its eigenvalues.  When the
(collapsed) realization space is small it is enumerated exactly: subjects
sharing a sequence are exchangeable, so each cell is one count matrix with
its multinomial weight.  Otherwise seeded Monte Carlo draws one uniform per
subject in fixed-size chunks with counter-based per-chunk substreams and
bins them against the cumulative probabilities of the support, so results
are reproducible and independent of scheduling.

phi1 is the criterion of the surrogate information matrix; its ratio to
phi0 (the gap), the efficiency against the equilibrium value, and their
product (a feasible lower bound on true expected-criterion efficiency) are
bundled into evaluation reports.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from math import comb
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .design_search import ExactDesign, exact_search
from .dropout_model import DropoutMechanism, new_mechanism
from .errors import BudgetExceededError, ValidationError
from .information import (
    CRITERIA,
    CountTables,
    count_grams,
    count_tables,
    criterion,
    criterion_values,
    stay_counts,
    surrogate_info,
)
from .matrix_kernels import schur_complement
from .q_solver import OptimalityCertificate, solve_minimax
from .sequences import check_budget

DEFAULT_REPS = 100_000
DEFAULT_EXACT_BUDGET = 2**20
CHUNK = 4096


@dataclass(frozen=True)
class EvaluationReport:
    """Per-criterion summary of a design under one mechanism."""

    criterion: str
    phi0: float
    phi0_stderr: float
    v_phi: float
    phi1: float
    gap: float
    e1_tilde: float
    ell: float
    method: str
    replications: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def criteria_tuple(criterion_spec: str | Sequence[str]) -> tuple[str, ...]:
    """Normalize 'a'/'all'/('A','T')-style criterion selectors."""
    if isinstance(criterion_spec, str):
        if criterion_spec.lower() == "all":
            return CRITERIA
        criterion_spec = [criterion_spec]
    out = []
    for c in criterion_spec:
        c = c.upper()
        if c not in CRITERIA:
            raise ValidationError(f"unknown criterion {c!r}; pick from {CRITERIA} or 'all'")
        out.append(c)
    return tuple(out)


def single_criterion(criterion_spec: str | Sequence[str]) -> str:
    """The one criterion a selector names; 'all' or several are refused."""
    criteria = criteria_tuple(criterion_spec)
    if len(criteria) != 1:
        raise ValidationError(f"need one criterion (a|d|e|t), got {criterion_spec!r}")
    return criteria[0]


def _threads() -> int:
    raw = os.environ.get("CROSSOVER_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _map_ordered(fn: Callable, jobs: list, threads: int) -> list:
    if threads <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, jobs))


# -- realization spaces -------------------------------------------------------


def _compositions(total: int, bins: int) -> Iterator[tuple[int, ...]]:
    """All count vectors of length ``bins`` summing to ``total``, lexicographic."""
    if bins == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, bins - 1):
            yield (first,) + rest


def exact_cell_count(design: ExactDesign, mech: DropoutMechanism) -> int:
    """Number of collapsed realization cells of the exact enumeration."""
    levels = mech.stay_support
    total = 1
    for _, group_n in sorted(design.counts.items()):
        total *= comb(group_n + len(levels) - 1, len(levels) - 1)
    return total


def _exact_cells(design: ExactDesign, mech: DropoutMechanism) -> tuple[np.ndarray, np.ndarray]:
    """All collapsed realization cells: (cells, S, L) count matrices plus probabilities.

    Groups are the distinct sequences, ascending as in ``count_tables``; a
    cell assigns each group a count vector over the L stay lengths of the
    support, with multinomial weight.  Cells are lexicographic, last group
    fastest.
    """
    levels = mech.stay_support
    probs = mech.a[levels - 1]
    group_ns = [group_n for _, group_n in sorted(design.counts.items())]
    counts = np.zeros((1, 0, len(levels)), dtype=np.min_scalar_type(max(group_ns)))
    cell_w = np.ones(1)
    for group_n in group_ns:
        comps = list(_compositions(group_n, len(levels)))
        group_w = []
        for comp in comps:
            weight = 1.0
            remaining = group_n
            for c, pr in zip(comp, probs):
                weight *= comb(remaining, c) * pr**c
                remaining -= c
            group_w.append(weight)
        block = np.array(comps, dtype=counts.dtype)[:, None, :]
        counts = np.concatenate(
            [np.repeat(counts, len(comps), axis=0), np.tile(block, (len(counts), 1, 1))], axis=1
        )
        cell_w = np.multiply.outer(cell_w, group_w).ravel()
    return counts, cell_w


def stay_bins(mech: DropoutMechanism, u: np.ndarray) -> np.ndarray:
    """Position in ``mech.stay_support`` of the stay length each uniform in [0, 1) draws.

    A uniform passes a support level once it reaches the cumulative
    probability below the next one.  Only the inner edges of the support are
    compared, so every length drawn has positive probability, also when the
    renormalized cumulative sum ends just below 1.
    """
    edges = np.cumsum(mech.a)[mech.stay_support[:-1] - 1]
    bins = np.zeros(u.shape, dtype=np.min_scalar_type(len(edges)))
    for edge in edges:
        bins += u >= edge
    return bins


def _mc_chunk_bins(mech: DropoutMechanism, seed: int, chunk_index: int, size: int) -> np.ndarray:
    """Stay-length draws for one chunk of the seeded replicate stream, as ``stay_bins``."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, chunk_index))))
    return stay_bins(mech, rng.random((size, mech.n)))


def _criterion_samples(
    tables: CountTables, counts: np.ndarray, criteria: tuple[str, ...]
) -> dict[str, np.ndarray]:
    s_h = schur_complement(count_grams(tables, counts), tables.lead)
    return criterion_values(s_h, criteria, tables.dm.n)


def evaluate_phi0_multi(
    design: ExactDesign,
    mech: DropoutMechanism,
    criteria: tuple[str, ...],
    method: str = "exact",
    *,
    seed: int = 0,
    reps: int = DEFAULT_REPS,
    exact_budget: int = DEFAULT_EXACT_BUDGET,
) -> tuple[dict[str, tuple[float, float, float]], int]:
    """(phi0, stderr, v_phi) per criterion, sharing realizations.

    ``v_phi`` is the criterion dispersion reported as the square root of
    the variance of the realized criterion value.  Returns the per-criterion
    dict plus the replication count (number of enumerated cells in exact
    mode, Monte Carlo draws otherwise).
    """
    _check_design_mech(design, mech)
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    check_budget(exact_budget, "exact_budget")
    tables = count_tables(design.matrices(), mech.stay_support)
    if method == "exact":
        n_cells = exact_cell_count(design, mech)
        if n_cells > exact_budget:
            raise BudgetExceededError(
                f"exact enumeration needs {n_cells} cells > budget {exact_budget}; "
                "use method='mc'"
            )
        counts, weights = _exact_cells(design, mech)
        rows = len(counts)
        load = lambda lo: counts[lo : lo + CHUNK]
    elif method == "mc":
        if reps < 2:
            raise ValidationError("Monte Carlo needs reps >= 2")
        rows = reps
        load = lambda lo: stay_counts(
            tables, _mc_chunk_bins(mech, seed, lo // CHUNK, min(CHUNK, reps - lo))
        )
    else:
        raise ValidationError(f"method must be 'exact' or 'mc', got {method!r}")
    results = _map_ordered(
        lambda lo: _criterion_samples(tables, load(lo), criteria),
        list(range(0, rows, CHUNK)),
        _threads(),
    )
    out = {}
    for c in criteria:
        values = np.concatenate([r[c] for r in results])
        if method == "mc":
            mean, var = float(values.mean()), float(values.var(ddof=1))
            out[c] = (mean, float(np.sqrt(var / reps)), float(np.sqrt(var)))
        else:
            mean = float(np.dot(weights, values))
            var = float(np.dot(weights, (values - mean) ** 2))
            out[c] = (mean, 0.0, float(np.sqrt(max(var, 0.0))))
    return out, rows


def evaluate_phi0(
    design: ExactDesign,
    mech: DropoutMechanism,
    criterion_name: str,
    method: str = "exact",
    **opts,
) -> tuple[float, float, float]:
    """Expected criterion value, its standard error, and root criterion variance."""
    which = single_criterion(criterion_name)
    result, _ = evaluate_phi0_multi(design, mech, (which,), method, **opts)
    return result[which]


def evaluate_phi1(design: ExactDesign, mech: DropoutMechanism, criterion_name: str) -> float:
    """Criterion of the surrogate information matrix."""
    which = single_criterion(criterion_name)
    _check_design_mech(design, mech)
    return criterion(surrogate_info(design.matrices(), mech), which, design.n)


def optimal_phi1_value(cert: OptimalityCertificate) -> float:
    """Criterion value of the equilibrium-optimal completely symmetric matrix."""
    return cert.y_star / (cert.t - 1)


def efficiency_bounds(
    design: ExactDesign,
    mech: DropoutMechanism,
    criterion_name: str,
    cert: OptimalityCertificate,
    *,
    phi0: Optional[float] = None,
    method: str = "exact",
    **opts,
) -> tuple[float, float, float]:
    """(e1_tilde, gap, ell) of a design.

    e1_tilde measures phi1 against the equilibrium optimum, gap = phi0/phi1,
    and ell = e1_tilde * gap lower-bounds the true expected-criterion
    efficiency.
    """
    which = single_criterion(criterion_name)
    if phi0 is None:
        (rep,) = evaluate_reports(design, mech, (which,), cert, method, **opts)
        return rep.e1_tilde, rep.gap, rep.ell
    return _efficiency(phi0, evaluate_phi1(design, mech, which), optimal_phi1_value(cert))


def _efficiency(phi0: float, phi1: float, y_opt: float) -> tuple[float, float, float]:
    """(e1_tilde, gap, ell) from phi0, phi1 and the equilibrium value."""
    if y_opt <= 0.0:
        raise ValidationError(
            "the mechanism leaves no within-subject information (y* = 0: all mass "
            "on stay length 1), so no efficiency against the optimum is defined"
        )
    e1 = phi1 / y_opt
    gap = phi0 / phi1 if phi1 > 0 else 0.0
    return e1, gap, e1 * gap


def evaluate_reports(
    design: ExactDesign,
    mech: DropoutMechanism,
    criterion_spec: str | Sequence[str],
    cert: Optional[OptimalityCertificate] = None,
    method: str = "exact",
    *,
    seed: int = 0,
    reps: int = DEFAULT_REPS,
    exact_budget: int = DEFAULT_EXACT_BUDGET,
) -> list[EvaluationReport]:
    """Full report bundle; all criteria share one set of realizations."""
    criteria = criteria_tuple(criterion_spec)
    if cert is None:
        cert = solve_minimax(mech, design.t)
    phi0_map, replications = evaluate_phi0_multi(
        design, mech, criteria, method, seed=seed, reps=reps, exact_budget=exact_budget
    )
    y_opt = optimal_phi1_value(cert)
    surrogate = surrogate_info(design.matrices(), mech)
    reports = []
    for c in criteria:
        phi0, stderr, v_phi = phi0_map[c]
        phi1 = criterion(surrogate, c, design.n)
        e1, gap, ell = _efficiency(phi0, phi1, y_opt)
        reports.append(
            EvaluationReport(
                criterion=c,
                phi0=phi0,
                phi0_stderr=stderr,
                v_phi=v_phi,
                phi1=phi1,
                gap=gap,
                e1_tilde=e1,
                ell=ell,
                method=method,
                replications=replications,
                seed=seed,
            )
        )
    return reports


@dataclass(frozen=True)
class ComparisonResult:
    """Ratios of expected criterion value and criterion variance."""

    phi0_ratio: Optional[float]
    v_ratio: Optional[float]

    @property
    def defined(self) -> bool:
        return self.phi0_ratio is not None


def compare(
    design: ExactDesign,
    baseline: ExactDesign,
    mech: DropoutMechanism,
    criterion_name: str,
    method: str = "exact",
    *,
    seed: int = 0,
    reps: int = DEFAULT_REPS,
    exact_budget: int = DEFAULT_EXACT_BUDGET,
) -> ComparisonResult:
    """phi0 and variance ratios of two designs with the same (p, t).

    Subject counts may differ (criteria are per-subject normalized).  Monte
    Carlo uses common random numbers when the counts match and independent
    per-design substreams otherwise.  A zero-phi0 baseline makes the ratios
    undefined rather than raising.
    """
    if (design.p, design.t) != (baseline.p, baseline.t):
        raise ValidationError("designs must share (p, t) to be compared")
    which = single_criterion(criterion_name)

    def eval_one(d: ExactDesign, stream_seed: int) -> tuple[float, float]:
        m = mech if d.n == mech.n else new_mechanism(mech.p, d.n, mech.a)
        phi0, _, v_phi = evaluate_phi0(
            d, m, which, method, seed=stream_seed, reps=reps, exact_budget=exact_budget
        )
        return phi0, v_phi

    same_stream = design.n == baseline.n
    phi0_d, v_d = eval_one(design, seed)
    phi0_b, v_b = eval_one(baseline, seed if same_stream else seed + 1)
    if phi0_b == 0.0 or v_b == 0.0:
        return ComparisonResult(
            phi0_ratio=None if phi0_b == 0.0 else phi0_d / phi0_b,
            v_ratio=None if v_b == 0.0 else v_d / v_b,
        )
    return ComparisonResult(phi0_ratio=phi0_d / phi0_b, v_ratio=v_d / v_b)


def theta_mechanism(p: int, n: int, theta: float) -> DropoutMechanism:
    """Two-point mechanism: stay p-1 periods w.p. theta, else complete."""
    if not 0.0 < theta < 1.0:
        raise ValidationError(f"theta must lie strictly inside (0, 1), got {theta}")
    a = np.zeros(p)
    a[p - 2] = theta
    a[p - 1] = 1.0 - theta
    return new_mechanism(p, n, a)


def parse_theta_grid(spec: str) -> list[float]:
    """Parse 'start:stop:step' (inclusive, within float noise) or a comma list."""
    spec = spec.strip()
    try:
        if ":" in spec:
            start, stop, step = (float(x) for x in spec.split(":"))
            if step <= 0 or not 0 < start < 1 or not 0 < stop < 1 or stop < start:
                raise ValueError
            count = int(round((stop - start) / step))
            grid = [start + i * step for i in range(count + 1)]
            return [g for g in grid if 0.0 < g < 1.0]
        return [float(x) for x in spec.split(",")]
    except ValueError as exc:
        raise ValidationError(f"cannot parse theta grid {spec!r}") from exc


SWEEP_HEADER = "theta,criterion,phi0,stderr,v_phi,phi1,gap,e1_tilde,ell"


def sweep_theta(
    design_source: ExactDesign | str,
    grid: Sequence[float],
    criterion_spec: str | Sequence[str] = "all",
    *,
    p: Optional[int] = None,
    t: Optional[int] = None,
    n: Optional[int] = None,
    method: str = "exact",
    seed: int = 0,
    reps: int = DEFAULT_REPS,
    exact_budget: int = DEFAULT_EXACT_BUDGET,
    restarts: int = 8,
) -> list[dict]:
    """Evaluate a fixed design, or a freshly searched one, across mechanisms.

    The mechanism at theta places mass theta on stay length p-1 and 1-theta
    on completion.  ``design_source`` is either an ExactDesign or the
    string 'search', which reruns the integer search for every grid point.
    Rows come back as dicts matching SWEEP_HEADER.
    """
    searching = isinstance(design_source, str)
    if searching and design_source != "search":
        raise ValidationError("design_source must be an ExactDesign or 'search'")
    if searching:
        if p is None or t is None or n is None:
            raise ValidationError("search mode needs explicit p, t, n")
    else:
        p, t, n = design_source.p, design_source.t, design_source.n

    criteria = criteria_tuple(criterion_spec)
    rows: list[dict] = []
    for theta in grid:
        mech = theta_mechanism(p, n, theta)
        cert = solve_minimax(mech, t)
        if searching:
            design, _ = exact_search(n, cert, mech, seed=seed, restarts=restarts)
        else:
            design = design_source
        reports = evaluate_reports(
            design, mech, criteria, cert, method, seed=seed, reps=reps, exact_budget=exact_budget
        )
        for rep in reports:
            rows.append(
                {
                    "theta": theta,
                    "criterion": rep.criterion,
                    "phi0": rep.phi0,
                    "stderr": rep.phi0_stderr,
                    "v_phi": rep.v_phi,
                    "phi1": rep.phi1,
                    "gap": rep.gap,
                    "e1_tilde": rep.e1_tilde,
                    "ell": rep.ell,
                }
            )
    return rows


def sweep_rows_to_csv(rows: Iterable[dict]) -> str:
    lines = [SWEEP_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                repr(row[key]) if isinstance(row[key], float) else str(row[key])
                for key in SWEEP_HEADER.split(",")
            )
        )
    return "\n".join(lines) + "\n"


def _check_design_mech(design: ExactDesign, mech: DropoutMechanism) -> None:
    if design.p != mech.p or design.n != mech.n:
        raise ValidationError(
            f"design ({design.n} subjects x {design.p} periods) does not match "
            f"mechanism (n={mech.n}, p={mech.p})"
        )
