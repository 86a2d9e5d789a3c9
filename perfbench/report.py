"""Metric definitions, summary statistics and the parent-versus-change verdict."""

from __future__ import annotations

import statistics

# (name, unit, better) of every end-to-end metric, printed with tracing off.
# Times are CPU seconds of the run's single-threaded process (see run.py).
END_TO_END = (
    ("jobs_per_s", "1/s", "higher"),
    ("job_p50_s", "s", "lower"),
    ("job_tail_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# (name, unit, better) of every per-layer metric, printed by the traced run.
# Times and counts are per cycle of the workload's jobs.
PER_LAYER = (
    ("q_solver.solve_minimax.s", "s", "lower"),
    ("q_solver.solve_minimax.self_s", "s", "lower"),
    ("q_solver.q_coeff_arrays.s", "s", "lower"),
    ("q_solver.closed_form.s", "s", "lower"),
    ("sequences.orbit.s", "s", "lower"),
    ("sequences.orbit.calls", "count", "lower"),
    ("sequences.group_into_blocks.s", "s", "lower"),
    ("q_solver.sequences_enumerated", "count", "lower"),
    ("q_solver.support_size", "count", "lower"),
    ("q_solver.support_fraction", "ratio", "higher"),
    ("design_search.exact_search.s", "s", "lower"),
    ("design_search.exact_search.self_s", "s", "lower"),
    ("design_search.build_system.s", "s", "lower"),
    ("information.check_matrices.calls", "count", "lower"),
    ("design_search.moves", "count", "lower"),
    ("design_search.restarts", "count", "lower"),
    ("design_search.residual_max", "norm", "lower"),
    ("evaluation.evaluate_phi0_multi.s", "s", "lower"),
    ("evaluation.evaluate_phi0_multi.self_s", "s", "lower"),
    ("evaluation.realizations", "count", "lower"),
    ("evaluation.realizations_per_s", "1/s", "higher"),
    ("evaluation.evaluate_phi1.calls", "count", "lower"),
    ("information.design_matrices.calls", "count", "lower"),
    ("information.surrogate_info.s", "s", "lower"),
    ("information.realized_components_batch.s", "s", "lower"),
    ("information.realized_components_batch.calls", "count", "lower"),
    ("information.realized_components_batch.rows", "count", "lower"),
    ("information.schur_batch.s", "s", "lower"),
    ("information.eigenvalues_batch.s", "s", "lower"),
    ("information.criterion_values_from_eigs.s", "s", "lower"),
    ("information.disconnected_fraction", "ratio", "lower"),
    ("matrix_kernels.pinv_sym_batch.s", "s", "lower"),
    ("matrix_kernels.pinv_sym_batch.matrices", "count", "lower"),
    ("dropout_model.new_mechanism.s", "s", "lower"),
    ("dropout_model.new_mechanism.calls", "count", "lower"),
    ("evaluation.sweep_theta.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("q_solver.self_s", "s", "lower"),
    ("sequences.self_s", "s", "lower"),
    ("design_search.self_s", "s", "lower"),
    ("evaluation.self_s", "s", "lower"),
    ("information.self_s", "s", "lower"),
    ("matrix_kernels.self_s", "s", "lower"),
    ("dropout_model.self_s", "s", "lower"),
    ("design_io.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)


def tail(times: list[float]) -> tuple[float, float | None]:
    """(value, percentile) of the highest percentile with ten jobs beyond it.

    The percentile is None when there are fewer than 11 jobs; the value is
    then the slowest job.
    """
    ordered = sorted(times)
    if len(ordered) < 11:
        return ordered[-1], None
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def layer_metrics(totals: dict, cycles: int, overhead_frac: float, unattributed_s: float) -> dict:
    """Per-layer metrics from span totals and boundary counters of the traced passes."""

    def ratio(num: str, den: str) -> float:
        return totals.get(num, 0.0) / totals[den] if totals.get(den) else 0.0

    derived = {
        "q_solver.support_fraction": ratio("q_solver.support_size",
                                           "q_solver.sequences_enumerated"),
        "evaluation.realizations_per_s": ratio("evaluation.realizations",
                                               "evaluation.evaluate_phi0_multi.s"),
        "information.disconnected_fraction": ratio("information.disconnected_rows",
                                                   "information.eigenvalue_rows"),
        "design_search.residual_max": totals.get("design_search.residual_max", 0.0),
        "trace.overhead_frac": overhead_frac,
        "trace.unattributed_s": unattributed_s / cycles,
    }
    return {
        name: derived[name] if name in derived else totals.get(name, 0.0) / cycles
        for name, _, _ in PER_LAYER
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> str:
    """improved, no worse, regressed or unresolved, as the choosing-metrics rules define them.

    ``pairs`` holds (parent, change) values of runs on the same seed.  Improved
    needs the change to win at least nine tenths of the pairs and the medians
    to differ by more than the parent's interquartile spread.  Unresolved is a
    parent spread wider than the bound, unless every change run beats every
    parent run.  Regressed is a change median worse by more than the bound.
    """
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    every_run_better = max(sign * v for v in change) < min(sign * v for v in parent)
    if spread > bound * abs(p_med) and not every_run_better:
        return "unresolved"
    wins = sum(1 for p, c in pairs if sign * c < sign * p)
    if pairs and wins >= 0.9 * len(pairs) and sign * (p_med - c_med) > spread:
        return "improved"
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "regressed"
    return "no worse"
