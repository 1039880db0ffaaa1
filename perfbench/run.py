"""Benchmark of pwerpi's coverage simulations, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Starts fresh processes of `worker.py`, one after the other: SETUP_ONLY
`setup` ones that only import pwerpi and make the warm-up run, a `gate` one
that then runs the correctness gate, and, if the gate passed, a `timed` one
that measures. Set-up time is the median over all of them of the time from
process start until import and warm-up are done, divided by the host's
slowdown probed during the timed rounds (see hostprobe.py).

Prints one JSON line of details (environment, gate, records_sha256, exact
counters, tracing overhead), then the result line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. Exits non-zero without a result when the checkout has no
pwerpi sources or a process fails, and with 1 when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
# Set-up processes besides the gate and timed ones: four set-up samples in all.
SETUP_ONLY = 2
DEADLINE_S = 170.0


def start_worker(args, role: str, deadline: float):
    """Run one worker to completion; return (seconds to ready, ready line, last line)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker did not finish within the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    ready = next(line for line in lines if "ready" in line)
    return ready["ready"] - spawned, ready, lines[-1]


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pwerpi" / "__init__.py").is_file():
        print(f"no pwerpi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    samples = [start_worker(args, role, deadline) for role in ["setup"] * SETUP_ONLY + ["gate"]]
    gate, environment = samples[-1][2]["gate"], samples[-1][2]["environment"]
    if gate["passed"]:
        samples.append(start_worker(args, "timed", deadline))
        result = samples[-1][2]
    else:  # a run whose check fails is reported as failed and not timed
        result = {"detail": {"workload": args.workload, "seed": args.seed, "trace": args.trace},
                  "correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    detail = result.pop("detail")
    detail.update(environment=environment, gate=gate)
    detail["setup_samples_s"] = [s for s, _, _ in samples]
    if result["correct"]:
        if args.trace == 0:
            value = statistics.median(s for s, _, _ in samples) / detail["host"]["slowdown"]
            result["metrics"]["setup_s"] = {"value": value, "unit": "s"}
        else:
            for name, key in (("setup.import_s", "import_s"), ("setup.warmup_s", "warmup_s")):
                value = statistics.median(r[key] for _, r, _ in samples)
                result["metrics"][name] = {"value": value, "unit": "s"}
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
