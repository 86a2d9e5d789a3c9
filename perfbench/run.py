"""Benchmark of the crossover-dropout command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Each workload (see jobs.py) is a closed loop with one client: one process
calls ``crossover_dropout.cli.main(argv)`` in turn on seeded inputs, with
one BLAS thread and CROSSOVER_THREADS at its default.  Job and set-up times
are CPU seconds of that single-threaded process: on a shared virtual machine
its wall time also holds the time the host gives other guests, which varies
from run to run; the wall times are printed beside them.  Every job's stdout
is checked after the timed phase (checks.py).  With ``--trace 0`` the run prints
the end-to-end metrics; with ``--trace 1`` it runs each cycle untraced and
traced, prints the per-layer metrics and a per-job attribution, and
writes its spans to ``.perfbench/``.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  ``--out FILE``
appends that result, tagged with workload and seed, for compare.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from time import perf_counter, process_time

# One BLAS thread keeps a 2-core box steady; must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CROSSOVER_THREADS", None)

SETUP_PROBES = 7
WORK = ".perfbench"
ROOT_SPAN = "cli.main"  # the span a traced run opens around each job


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "search", "evaluate", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result, tagged, to this JSON-lines file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- run metadata (printed, never compared) -----------------------------------


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> str:
    """Thread count reported by the OpenBLAS that numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def host_steal() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs so far; time the host ran other guests."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def metadata(root: Path, seed: int) -> dict:
    import numpy

    src = root / "src" / "crossover_dropout"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py")))
    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "CROSSOVER_THREADS": os.environ.get("CROSSOVER_THREADS", "unset (default 1)"),
        "seed": seed,
        "src_lines": lines,
    }


# -- jobs --------------------------------------------------------------------


@dataclass
class Result:
    job: object
    index: int
    rc: int | None
    out: str
    err: str
    wall: float
    cpu: float
    searches: list


def run_job(cli, job, index: int, tracer, found: list) -> Result:
    found.clear()
    gc.collect()  # every job starts from a collected heap, as a fresh process would
    out, err = StringIO(), StringIO()
    cpu_start, start = process_time(), perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                rc = cli.main(job.argv)
            else:
                tracer.job = f"{index}:{job.label}"
                rc = tracer.call(ROOT_SPAN, cli.main, job.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a job that raises is a failed job; keep running the rest
        rc = None
        err.write(traceback.format_exc())
    wall, cpu = perf_counter() - start, process_time() - cpu_start
    return Result(job, index, rc, out.getvalue(), err.getvalue(), wall, cpu, list(found))


def run_pass(cli, jobs, first_index: int, tracer=None) -> list[Result]:
    from checks import capture_searches

    found: list = []
    if tracer is not None:
        tracer.install()
    restore = capture_searches(found)
    try:
        return [run_job(cli, job, first_index + i, tracer, found) for i, job in enumerate(jobs)]
    finally:
        restore()
        if tracer is not None:
            tracer.uninstall()


def check_results(results: list[Result]) -> tuple[int, list[float]]:
    """Number of failed jobs and the residuals of every searched design."""
    from checks import Checker

    checker = Checker()
    failed, residuals = 0, []
    for r in results:
        reason = None
        if r.rc != 0:
            reason = f"exit {r.rc}: {r.err.strip()[-400:]}"
        else:
            try:
                residuals += checker(r.job, r.out, r.searches).get("residuals", [])
            except Exception as exc:  # any check that cannot complete fails the job
                reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            failed += 1
            print(f"FAILED {r.job.label} ({' '.join(r.job.argv)}): {reason}", file=sys.stderr)
    return failed, residuals


# -- set-up --------------------------------------------------------------------


def set_up(args, root: Path, workdir: Path):
    """Import the package, generate the inputs and run the untimed warm-up jobs.

    Returns the CLI module, the warm-up results (checked with the rest), the
    timed jobs and the number of cycles they hold.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    from crossover_dropout import cli

    import jobs as workloads

    warmup, jobs, cycles = workloads.build(args.workload, args.seed, args.seconds, workdir)
    warm = [run_job(cli, job, -1 - i, None, []) for i, job in enumerate(warmup)]
    return cli, warm, jobs, cycles


def probe_setup(root: Path, args) -> tuple[float, float]:
    """Seconds of a fresh process that starts, gets ready to run jobs and exits.

    Returns its CPU time (start to exit) and the wall time until it said ready.
    """

    def children_cpu() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    cpu_start, start = children_cpu(), perf_counter()
    with subprocess.Popen(argv, cwd=root, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        ready = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return children_cpu() - cpu_start, ready


# -- the two kinds of run ------------------------------------------------------


def end_to_end(args, root: Path, workdir: Path):
    from report import tail

    setups = [probe_setup(root, args) for _ in range(SETUP_PROBES)]
    setup_cpu = statistics.median(cpu for cpu, _ in setups)
    setup_wall = statistics.median(wall for _, wall in setups)
    cli, warm, jobs, cycles = set_up(args, root, workdir)
    steal0, total0 = host_steal()
    start = perf_counter()
    results = run_pass(cli, jobs, 0)
    elapsed = perf_counter() - start
    steal1, total1 = host_steal()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, residuals = check_results(warm + results)
    cpus, walls = [r.cpu for r in results], [r.wall for r in results]
    tail_value, tail_pct = tail(cpus)
    metrics = {
        "jobs_per_s": len(results) / sum(cpus),
        "job_p50_s": statistics.median(cpus),
        "job_tail_s": tail_value,
        "setup_s": setup_cpu,
        "peak_rss_mb": peak_rss_mb,
    }
    n = len(results)
    notes = {
        "jobs_per_s": f"{n} jobs in {cycles} cycle(s); wall: {n / elapsed:.4g} jobs/s",
        "job_p50_s": f"wall: {statistics.median(walls):.4g} s",
        "job_tail_s": (f"slowest of {n} jobs (fewer than 11)" if tail_pct is None
                       else f"p{tail_pct:.1f} of {n} jobs, 10 beyond it")
                      + f"; wall: {tail(walls)[0]:.4g} s",
        "setup_s": f"median of {SETUP_PROBES} fresh processes; wall: {setup_wall:.4g} s",
    }
    slots: dict = {}
    for r in results:
        slots.setdefault(r.job.label, []).append(r.wall)
    for label, slot_walls in slots.items():
        print(f"slot {label} jobs={len(slot_walls)} median_s={statistics.median(slot_walls):.4f}")
    attempted = len(warm) + n
    if total1 > total0:
        print(f"host_steal_frac {(steal1 - steal0) / (total1 - total0):.4f} ratio  (CPU time "
              "the host gave other guests during the timed phase; not compared)")
    print(f"failed_frac {failed / attempted:.6g} ratio  ({failed} of {attempted} jobs, "
          f"{len(warm)} of them warm-up)")
    if residuals:
        print(f"search_residual_max {max(residuals)!r} norm  (over {len(residuals)} "
              "searched designs)")
    return metrics, notes, attempted, failed


def traced(args, root: Path, workdir: Path):
    from report import layer_metrics
    from spans import LAYERS, Tracer, aggregate

    cli, warm, jobs, cycles = set_up(args, root, workdir)
    per_cycle = len(jobs) // cycles
    tracer = Tracer()
    plain, traced_results = [], []
    for c in range(cycles):
        first = c * per_cycle
        cycle = jobs[first : first + per_cycle]
        if c % 2:  # alternate which pass goes first, so neither always runs colder
            traced_results += run_pass(cli, cycle, first, tracer)
            plain += run_pass(cli, cycle, first)
        else:
            plain += run_pass(cli, cycle, first)
            traced_results += run_pass(cli, cycle, first, tracer)
    failed, _ = check_results(warm + plain + traced_results)

    plain_cpu = sum(r.cpu for r in plain)
    traced_cpu = sum(r.cpu for r in traced_results)
    by_job = aggregate(tracer.spans, by_job=True)
    unattributed = 0.0
    for r, p in zip(traced_results, plain):
        job_totals = by_job[f"{r.index}:{r.job.label}"]
        attributed = sum(job_totals.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
        unattributed += r.wall - attributed
        layers = " ".join(f"{layer}={job_totals.get(f'{layer}.self_s', 0.0):.4f}"
                          for layer in LAYERS)
        top = sorted(((v, k[:-2]) for k, v in job_totals.items()
                      if k.endswith(".s") and k.count(".") == 2 and k != f"{ROOT_SPAN}.s"),
                     reverse=True)[:3]
        print(f"job {r.index} {r.job.label} wall={r.wall:.4f}s (untraced {p.wall:.4f}s) "
              f"self: {layers} "
              f"remainder={r.wall - attributed:.6f}s top: "
              + ", ".join(f"{name} {v:.4f}s ({v / r.wall:.0%})" for v, name in top))
    totals = {**aggregate(tracer.spans), **tracer.counters}
    overhead = (traced_cpu - plain_cpu) / plain_cpu
    spans_path = root / WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_path, "w") as handle:
        for name, start, end, parent, job in tracer.spans:
            handle.write(json.dumps({"job": job, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
    print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(root)}")
    metrics = layer_metrics(totals, cycles, overhead, unattributed)
    return metrics, {}, len(warm) + len(plain) + len(traced_results), failed


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "crossover_dropout" / "__init__.py").is_file():
        print(f"error: {src / 'crossover_dropout'} not found; run from the root of a "
              "crossover-dropout checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = root / WORK / f"work-{os.getpid()}"
    try:
        if args.setup_probe:
            set_up(args, root, workdir)
            print("ready", flush=True)
            return 0
        import compileall

        compileall.compile_dir(str(src), quiet=1)  # the build: byte-compile once
        from report import END_TO_END, PER_LAYER

        meta = metadata(root, args.seed)
        print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        print("meta " + " ".join(f"{k}={v}" for k, v in meta.items()))
        run = traced if args.trace else end_to_end
        metrics, notes, attempted, failed = run(args, root, workdir)
        units = {name: unit for name, unit, _ in (PER_LAYER if args.trace else END_TO_END)}
        for name, value in metrics.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{name} {value!r} {units[name]}{note}")
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        if args.out:
            with open(args.out, "a") as handle:
                record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                          "meta": meta, "result": result}
                handle.write(json.dumps(record) + "\n")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
