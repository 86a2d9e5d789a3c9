"""Tracing from outside the program: spans around calls into each layer.

The layers are the modules of ``crossover_dropout``.  For every boundary
function listed in BOUNDARIES the tracer replaces each binding of that
function object in every layer module's namespace with a wrapper, so a call
is recorded however the calling module reaches it (``cli.solve_minimax``,
``mk.pinv_sym_batch``, ``sequences.orbit`` from inside ``sequences``).
Per-sequence helpers called hundreds of thousands of times per job are left
unwrapped; their time lands in the self time of the boundary that calls them.
The program's files are not edited.
"""

from __future__ import annotations

import importlib
import math
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "q_solver", "sequences", "design_search", "evaluation", "information",
          "matrix_kernels", "dropout_model", "design_io")

BOUNDARIES = {
    "q_solver": ("solve_minimax", "closed_form", "q_coeff_arrays", "q_coeffs"),
    "sequences": ("orbit", "group_into_blocks", "enumeration_array", "enumerate_sequences"),
    "design_search": ("build_system", "exact_search", "verify_approximate", "symmetric_solve"),
    "evaluation": ("evaluate_reports", "evaluate_phi0_multi", "evaluate_phi0", "evaluate_phi1",
                   "efficiency_bounds", "compare", "sweep_theta", "sweep_rows_to_csv",
                   "theta_mechanism", "parse_theta_grid"),
    "information": ("design_matrices", "realized_components_batch", "schur_batch",
                    "eigenvalues_batch", "criterion_values_from_eigs", "surrogate_info",
                    "check_matrices", "realized_info", "criterion"),
    "matrix_kernels": ("pinv_sym_batch", "pinv_sym", "proj_complement"),
    "dropout_model": ("new_mechanism", "load_mechanism"),
    "design_io": ("design_to_dict", "dumps_design", "load_design", "design_from_dict"),
}

def _count_enumerated(counters, result):
    counters["q_solver.sequences_enumerated"] += len(result[0])


def _count_support(counters, result):
    counters["q_solver.support_size"] += len(result.support)


def _count_search(counters, result):
    report = result[1]
    counters["design_search.moves"] += report.moves
    counters["design_search.restarts"] += report.restarts_used
    counters["design_search.residual_max"] = max(counters["design_search.residual_max"],
                                                 report.residual)


def _count_realizations(counters, result):
    counters["evaluation.realizations"] += result[1]


def _count_rows(counters, result):
    counters["information.realized_components_batch.rows"] += len(result[0])


def _count_disconnected(counters, result):
    # Same rule as information.criterion_values_from_eigs: a realization is
    # disconnected when its second-smallest eigenvalue is a structural zero.
    lam2, lam_max = result[:, 1], result[:, -1]
    counters["information.eigenvalue_rows"] += len(result)
    disconnected = lam2 <= 1e-9 * np.maximum(1.0, lam_max)
    counters["information.disconnected_rows"] += int(disconnected.sum())


def _count_matrices(counters, result):
    counters["matrix_kernels.pinv_sym_batch.matrices"] += math.prod(result.shape[:-2])


# Counters taken from a boundary's return value, at the boundary.
COUNTERS = {
    "q_solver.q_coeff_arrays": _count_enumerated,
    "q_solver.solve_minimax": _count_support,
    "design_search.exact_search": _count_search,
    "evaluation.evaluate_phi0_multi": _count_realizations,
    "information.realized_components_batch": _count_rows,
    "information.eigenvalues_batch": _count_disconnected,
    "matrix_kernels.pinv_sym_batch": _count_matrices,
}


class Tracer:
    """Records spans (name, start, end, parent index, job) in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.job = ""
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.job])
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            spans[index][2] = perf_counter()
            stack.pop()
        count = COUNTERS.get(name)
        if count is not None:
            count(self.counters, result)
        return result

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "crossover_dropout") -> None:
        """Wrap every binding of every boundary function in every layer module."""
        modules = [importlib.import_module(f"{package}.{m}") for m in LAYERS]
        for layer, names in BOUNDARIES.items():
            home = importlib.import_module(f"{package}.{layer}")
            for fname in names:
                fn = getattr(home, fname, None)
                if fn is None:  # a later version may drop or rename a boundary
                    continue
                wrapper = self._wrapper(f"{layer}.{fname}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patches.append((module, attr, fn))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def aggregate(spans, by_job: bool = False) -> dict:
    """Totals per span name and per layer: '<name>.s', '.self_s', '.calls', '<layer>.self_s'.

    With ``by_job`` the totals come back keyed by job instead of summed.
    """
    out: defaultdict = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, job = span
        totals = out[job if by_job else None]
        totals[f"{name}.s"] += end - start
        totals[f"{name}.self_s"] += own
        totals[f"{name}.calls"] += 1
        totals[f"{name.split('.')[0]}.self_s"] += own
    return out if by_job else out[None]
