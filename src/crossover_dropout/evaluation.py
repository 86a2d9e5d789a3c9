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
are reproducible.

phi1 is the criterion of the surrogate information matrix; its ratio to
phi0 (the gap), the efficiency against the equilibrium value, and their
product (a feasible lower bound on true expected-criterion efficiency) are
bundled into evaluation reports.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import comb, floor, prod
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .design_search import ExactDesign, exact_search
from .dropout_model import DropoutMechanism, new_mechanism
from .errors import BudgetExceededError, ValidationError
from .information import (
    CRITERIA,
    CountTables,
    check_design_mechanism,
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
# Bytes of int64 counts built at once: a chunk splits into row blocks once S * L
# (distinct sequences times stay lengths) passes 512; the fixtures stay at or below 76.
# Monte Carlo uniforms come in row blocks of as many bytes once n passes 512: the
# generator fills row-major, so the blocks draw the same stream as one draw.
COUNT_SCRATCH = 2**24


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
    k = len(mech.stay_support) - 1
    return prod(comb(group_n + k, k) for group_n in design.matrices().group_n.tolist())


def _exact_cells(design: ExactDesign, mech: DropoutMechanism) -> np.ndarray:
    """All collapsed realization cells as (cells, S, L) count matrices.

    Groups are the distinct sequences of ``design.matrices()``; a cell
    assigns each group a count vector over the L stay lengths of the
    support.  Cells are lexicographic, last group fastest, and depend on the
    mechanism only through its stay support.
    """
    levels = mech.stay_support
    group_ns = design.matrices().group_n.tolist()
    counts = np.zeros((1, 0, len(levels)), dtype=np.min_scalar_type(max(group_ns)))
    for group_n in group_ns:
        block = np.array(list(_compositions(group_n, len(levels))), dtype=counts.dtype)
        counts = np.concatenate(
            [np.repeat(counts, len(block), axis=0), np.tile(block[:, None], (len(counts), 1, 1))],
            axis=1,
        )
    return counts


def _cell_weights(design: ExactDesign, mech: DropoutMechanism) -> np.ndarray:
    """Multinomial probability of every cell of ``_exact_cells``, in its order."""
    levels = mech.stay_support
    probs = mech.a[levels - 1]
    cell_w = np.ones(1)
    for group_n in design.matrices().group_n.tolist():
        group_w = []
        for comp in _compositions(group_n, len(levels)):
            weight = 1.0
            remaining = group_n
            for c, pr in zip(comp, probs):
                weight *= comb(remaining, c) * pr**c
                remaining -= c
            group_w.append(weight)
        cell_w = np.multiply.outer(cell_w, group_w).ravel()
    return cell_w


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
    step = max(1, COUNT_SCRATCH // (8 * mech.n))
    rows = [min(step, size - lo) for lo in range(0, size, step)]
    return np.concatenate([stay_bins(mech, rng.random((k, mech.n))) for k in rows])


def _criterion_samples(
    tables: CountTables, chunk: np.ndarray, counts_of: Callable, criteria: tuple[str, ...]
) -> dict[str, np.ndarray]:
    """Criterion values of one chunk's exact cells or Monte Carlo stay bins.

    ``counts_of`` turns them into count matrices in row blocks of at most
    ``COUNT_SCRATCH`` bytes; the blocks' Grams share one Schur complement.
    """
    step = max(1, COUNT_SCRATCH // (8 * tables.table.shape[1]))
    blocks = [chunk[lo : lo + step] for lo in range(0, len(chunk), step)]
    grams = [count_grams(tables, counts_of(block)) for block in blocks]
    grams = grams[0] if len(grams) == 1 else np.concatenate(grams, axis=1)  # no copy of one block
    s_h = schur_complement(grams, tables.lead)
    return criterion_values(s_h, criteria, tables.dm.n)


def _realized_values(
    design: ExactDesign, mech: DropoutMechanism, criteria: tuple[str, ...],
    method: str, *, seed: int, reps: int, exact_budget: int
) -> tuple[dict[str, np.ndarray], int]:
    """Criterion value of every exact cell or Monte Carlo draw, and their number.

    The exact cells and their values depend on the mechanism only through
    its stay support.
    """
    dm = design.matrices()
    check_design_mechanism(dm, mech)
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    check_budget(exact_budget, "exact_budget")
    tables = count_tables(dm, mech.stay_support)
    if method == "exact":
        n_cells = exact_cell_count(design, mech)
        if n_cells > exact_budget:
            raise BudgetExceededError(
                f"exact enumeration needs {n_cells} cells > budget {exact_budget}; "
                "use method='mc'"
            )
        counts = _exact_cells(design, mech)
        rows = len(counts)
        load = lambda lo: counts[lo : lo + CHUNK]
        counts_of = lambda cells: cells
    elif method == "mc":
        if reps < 2:
            raise ValidationError("Monte Carlo needs reps >= 2")
        rows = reps
        load = lambda lo: _mc_chunk_bins(mech, seed, lo // CHUNK, min(CHUNK, reps - lo))
        counts_of = lambda bins: stay_counts(tables, bins)
    else:
        raise ValidationError(f"method must be 'exact' or 'mc', got {method!r}")
    results = [
        _criterion_samples(tables, load(lo), counts_of, criteria) for lo in range(0, rows, CHUNK)
    ]
    return {c: np.concatenate([r[c] for r in results]) for c in criteria}, rows


def _phi0_summaries(values: dict[str, np.ndarray], weights: Optional[np.ndarray]) -> dict:
    """(phi0, stderr, v_phi) per criterion, over weighted exact cells or equal-weight draws."""
    out = {}
    for c, v in values.items():
        if weights is None:
            mean, var = float(v.mean()), float(v.var(ddof=1))
            out[c] = (mean, float(np.sqrt(var / len(v))), float(np.sqrt(var)))
        else:
            # numpy's pairwise sums, not a BLAS dot whose order follows its threads
            mean = float((weights * v).sum())
            var = float((weights * (v - mean) ** 2).sum())
            out[c] = (mean, 0.0, float(np.sqrt(max(var, 0.0))))
    return out


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
    values, rows = _realized_values(
        design, mech, criteria, method, seed=seed, reps=reps, exact_budget=exact_budget
    )
    return _phi0_summaries(values, _cell_weights(design, mech) if method == "exact" else None), rows


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


def optimal_phi1_value(cert: OptimalityCertificate) -> float:
    """Criterion value of the equilibrium-optimal completely symmetric matrix."""
    return cert.y_star / (cert.t - 1)


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
    cert: OptimalityCertificate,
    method: str = "exact",
    *,
    seed: int = 0,
    reps: int = DEFAULT_REPS,
    exact_budget: int = DEFAULT_EXACT_BUDGET,
) -> list[EvaluationReport]:
    """Full report bundle; all criteria share one set of realizations."""
    criteria = criteria_tuple(criterion_spec)
    phi0_map, replications = evaluate_phi0_multi(
        design, mech, criteria, method, seed=seed, reps=reps, exact_budget=exact_budget
    )
    fields = {"method": method, "replications": replications, "seed": seed}
    return _reports(design, mech, criteria, cert, phi0_map, **fields)


def _reports(
    design: ExactDesign, mech: DropoutMechanism, criteria: tuple[str, ...],
    cert: OptimalityCertificate, phi0_map: dict, **fields,
) -> list[EvaluationReport]:
    """One report per criterion: phi0 from ``phi0_map``, phi1 from the design's surrogate."""
    y_opt = optimal_phi1_value(cert)
    surrogate = surrogate_info(design.matrices(), mech)
    reports = []
    for c in criteria:
        phi0, stderr, v_phi = phi0_map[c]
        phi1 = criterion(surrogate, c, design.n)
        e1, gap, ell = _efficiency(phi0, phi1, y_opt)
        reports.append(EvaluationReport(c, phi0, stderr, v_phi, phi1, gap, e1, ell, **fields))
    return reports


@dataclass(frozen=True)
class ComparisonResult:
    """Ratios of expected criterion value and criterion variance."""

    phi0_ratio: Optional[float]
    v_ratio: Optional[float]


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
            count = floor((stop - start) / step * (1 + 1e-9))  # within float noise of a step
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
    A fixed design evaluated exactly enumerates its cells and their
    criterion values once, since every theta has the same stay support; each
    theta then takes only the cell weights.  Rows come back as dicts
    matching SWEEP_HEADER.
    """
    searching = isinstance(design_source, str)
    if searching and design_source != "search":
        raise ValidationError("design_source must be an ExactDesign or 'search'")
    if searching:
        if p is None or t is None or n is None:
            raise ValidationError("search mode needs explicit p, t, n")
    else:
        p, t, n = design_source.p, design_source.t, design_source.n
        design = design_source

    criteria = criteria_tuple(criterion_spec)
    opts = {"seed": seed, "reps": reps, "exact_budget": exact_budget}
    cells = None  # every theta mechanism has the stay support {p-1, p}
    rows: list[dict] = []
    for theta in grid:
        mech = theta_mechanism(p, n, theta)
        cert = solve_minimax(mech, t)
        if searching:
            design, _ = exact_search(n, cert, mech, seed=seed, restarts=restarts)
        if searching or method != "exact":
            phi0_map, replications = evaluate_phi0_multi(design, mech, criteria, method, **opts)
        else:
            if cells is None:
                cells = _realized_values(design, mech, criteria, method, **opts)
            values, replications = cells
            phi0_map = _phi0_summaries(values, _cell_weights(design, mech))
        fields = {"method": method, "replications": replications, "seed": seed}
        for r in _reports(design, mech, criteria, cert, phi0_map, **fields):
            row = (r.criterion, r.phi0, r.phi0_stderr, r.v_phi, r.phi1, r.gap, r.e1_tilde, r.ell)
            rows.append(dict(zip(SWEEP_HEADER.split(","), (theta, *row))))
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
