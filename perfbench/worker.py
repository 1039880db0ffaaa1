"""One measuring process of the benchmark; `run.py` starts it.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --role setup|gate|timed

Every role imports pwerpi from the checkout's `src/`, makes one warm-up run
of the workload's first cell, and prints a `ready` line with the monotonic
clock, so that `run.py` can time set-up from process start. The `setup` role
stops there. The `gate` role then runs the correctness gate on fixed inputs
and prints its outcome and the environment. The `timed` role runs no gate:
it runs timed rounds and prints one JSON object as its last line, so its CPU
time and peak memory cover only import, warm-up and the timed rounds.

With --trace 0 untraced rounds measure the end-to-end metrics. With
--trace 1 every round runs twice, once untraced and once traced, the two
alternating which goes first: the per-layer metrics come from the traced
rounds, the tracing overhead from matched pairs, and both must write
byte-identical records.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
# Rounds every pass completes whatever the budget; the exact counters are
# taken over these rounds only, so they repeat exactly for a given seed.
MIN_ROUNDS = 2


def cpu_seconds() -> float:
    """CPU time of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Call(NamedTuple):
    cell: str
    round: int
    wall_s: float
    cpu_s: float
    slowdown: float  # hostprobe.slowdown() right after the call: wall time
    cpu_slowdown: float  # and CPU time
    runs: int
    result: object  # SimResult or StudyDistribution; None when the call raised
    error: str | None


def run_round(sim, errors, workload, seed: int, r: int) -> list[Call]:
    """Call every cell of the workload once, with master seeds derived from (seed, round, cell)."""
    import hostprobe  # imported after pwerpi, see main
    from workloads import call_cell, derived_seed

    calls = []
    for k, cell in enumerate(workload.cells):
        result = error = None
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            result = call_cell(sim, workload, cell, derived_seed(seed, r, k))
        except (errors.PwerError, ArithmeticError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        slowdown = hostprobe.slowdown(wall, width=cell.params.get("threads", 1))
        calls.append(Call(cell.name, r, wall, cpu, *slowdown, cell.runs, result, error))
    return calls


def rounds_until(budget_s: float, one_round) -> int:
    """Call `one_round(r)` for r = 0, 1, ... until `budget_s` is spent (at least MIN_ROUNDS)."""
    r, start = 0, time.perf_counter()
    while True:
        if r >= MIN_ROUNDS:
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / r >= budget_s:  # stop nearest the budget
                return r
        one_round(r)
        r += 1


def per_run(calls, attr) -> float:
    """Total wall or CPU seconds of `calls` per run they attempted."""
    return sum(getattr(c, attr) for c in calls) / sum(c.runs for c in calls)


def excluded_runs(call) -> int:
    if call.result is None:
        return 0
    if hasattr(call.result, "rows"):
        return sum(row.failures for row in call.result.rows)
    return call.result.failures


def output_checks(checks, workload, calls, reference):
    """Failed runs (raised or invalid) and any problems with the timed outputs."""
    problems, failed = [], 0
    per_cell = {}
    for c in calls:
        if c.error is not None:
            failed += c.runs
            problems.append(f"{c.cell} round {c.round}: {c.error}")
            continue
        per_study = workload.cell(c.cell).params.get("runs_per_study", 0)
        bad = checks.bad_records(c.result, per_study)
        if bad:
            failed += bad * max(per_study, 1)
            problems.append(f"{c.cell} round {c.round}: {bad} invalid records")
        per_cell.setdefault(c.cell, []).append(c.result)
    problems += checks.coverage_problems(per_cell, reference)
    return failed, problems


def environment() -> dict:
    import ctypes
    import multiprocessing
    import os
    import platform

    import numpy
    import scipy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    blas_threads = int(getattr(handle, symbol)())
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "mp_start_method": multiprocessing.get_start_method(),
    }


def run_gate(sim, checks, workload, reference, seed: int) -> dict:
    """The correctness gate: every cell on fixed inputs, against reference.json."""
    from workloads import reference_call

    results = {c.name: reference_call(sim, workload, c) for c in workload.cells + workload.gate_only}
    problems = checks.gate(reference["gate"]["cells"], {n: checks.summarize(r) for n, r in results.items()})
    sha = checks.records_sha256(sim, list(results.values()), OUT / f"gate_{seed}")
    return {
        "ran": True,
        "passed": not problems,
        "problems": problems,
        "records_sha256": sha,
        "bit_identical": sha == reference["gate"]["records_sha256"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "gate", "timed"), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    # pwerpi is imported first, so that setup.import_s covers numpy and scipy
    t0 = time.perf_counter()
    import pwerpi
    from pwerpi import errors, sim

    import_s = time.perf_counter() - t0
    if Path(pwerpi.__file__).resolve().parent != ROOT / "src" / "pwerpi":
        raise SystemExit(f"imported pwerpi from {pwerpi.__file__}, not from the checkout")

    import checks
    from workloads import ALL_CELLS, WORKLOADS, warmup_call

    workload = WORKLOADS[args.workload]
    reference = json.loads((BENCH / "reference.json").read_text())["workloads"][workload.name]
    t0 = time.perf_counter()
    warmup_call(sim, workload)
    warmup_s = time.perf_counter() - t0
    print(json.dumps({"ready": time.monotonic(), "import_s": import_s, "warmup_s": warmup_s}), flush=True)
    if args.role == "setup":
        return 0
    if args.role == "gate":
        print(json.dumps({"gate": run_gate(sim, checks, workload, reference, args.seed),
                          "environment": environment()}))
        return 0

    def sha(calls):
        results = [c.result for c in calls if c.result is not None]
        return checks.records_sha256(sim, results, OUT / f"timed_{args.seed}")

    detail = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    calls = []
    if args.trace == 0:
        rounds = rounds_until(args.seconds, lambda r: calls.extend(run_round(sim, errors, workload, args.seed, r)))
    else:
        import tracer as tracing
        from layers import layer_metrics

        tracer, traced = tracing.Tracer(), []

        def traced_round(r):
            tracer.round = r
            tracing.install(tracer, pwerpi)
            try:
                traced.extend(run_round(sim, errors, workload, args.seed, r))
            finally:
                tracer.restore()

        def both(r):  # alternate the order, so neither pass always runs on warmer caches
            for traced_pass in ((False, True) if r % 2 == 0 else (True, False)):
                if traced_pass:
                    traced_round(r)
                else:
                    calls.extend(run_round(sim, errors, workload, args.seed, r))

        rounds = rounds_until(args.seconds, both)
    attempted = sum(c.runs for c in calls)
    failed, problems = output_checks(checks, workload, calls, reference["coverage"])
    excluded = sum(excluded_runs(c) for c in calls)
    detail.update(rounds=rounds, records_sha256=sha(calls), excluded_runs=excluded, cell_ms_per_run_samples={
        name: [round(1e3 * c.wall_s / c.runs, 3) for c in calls if c.cell == name]
        for name in dict.fromkeys(c.cell for c in calls)
    })

    if args.trace == 0:
        import hostprobe

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        wall = sum(c.wall_s for c in calls)
        slowdown = sum(c.wall_s * c.slowdown for c in calls) / wall  # weighted by call time
        cpu_slowdown = sum(c.wall_s * c.cpu_slowdown for c in calls) / wall
        metrics = {
            "runs_per_s": (attempted * slowdown / wall, "runs/s"),
            "cpu_ms_per_run": (1e3 * sum(c.cpu_s for c in calls) / cpu_slowdown / attempted, "ms"),
            "peak_rss_mb": (max(own, kids) / 1024.0, "MB"),
            "runs_ok_frac": (1.0 - excluded / attempted, "ratio"),
        }
        slowdowns = [c.slowdown for c in calls]
        detail["host"] = {
            "raw_runs_per_s": 1.0 / per_run(calls, "wall_s"),
            "raw_cpu_ms_per_run": 1e3 * per_run(calls, "cpu_s"),
            "slowdown": slowdown,
            "cpu_slowdown": cpu_slowdown,
            "slowdown_min": min(slowdowns),
            "slowdown_max": max(slowdowns),
            "probe_nominal_s": hostprobe.PROBE_NOMINAL_S,
        }
    else:
        tracer.write(OUT / f"trace_{workload.name}_seed{args.seed}.jsonl")
        attempted += sum(c.runs for c in traced)
        more_failed, more_problems = output_checks(checks, workload, traced, reference["coverage"])
        failed += more_failed
        problems += more_problems
        traced_sha = sha(traced)
        if traced_sha != detail["records_sha256"]:
            problems.append("traced records differ from untraced records")
        round_wall = [[sum(c.wall_s for c in cs if c.round == r) for r in range(rounds)] for cs in (calls, traced)]
        shares = [t / u - 1.0 for u, t in zip(*round_wall)]
        cell_ms = {c.name: 1e3 * per_run([x for x in calls if x.cell == c.name], "wall_s")
                   for c in workload.cells}
        metrics, exact = layer_metrics(tracer.spans, traced, workload, MIN_ROUNDS)
        metrics.update({f"sim.cell_ms_per_run.{n}": (cell_ms.get(n, 0.0), "ms") for n in ALL_CELLS})
        metrics["trace.overhead_frac"] = (statistics.median(shares), "ratio")
        detail.update(
            traced_records_sha256=traced_sha,
            trace_overhead={"untraced_s": sum(round_wall[0]), "traced_s": sum(round_wall[1]),
                            "round_shares": [round(s, 4) for s in shares]},
            exact_counters={k: metrics[k][0] for k in exact},
            exact_counters_base={
                "rounds": MIN_ROUNDS,
                "runs": sum(c.runs for c in traced if c.round < MIN_ROUNDS),
                "studies": sum(len(c.result.rows) for c in traced
                               if c.round < MIN_ROUNDS and hasattr(c.result, "rows")),
            },
            spans=len(tracer.spans),
        )
    detail["problems"] = problems
    print(json.dumps({
        "detail": detail,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
