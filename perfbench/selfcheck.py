"""Self-check of the benchmark, kept apart from the project's pytest suite.

    python3 perfbench/selfcheck.py [--seconds 1]

Runs every workload at reduced length, untraced and traced, and checks that
the result line has exactly its four keys, that every metric BENCHMARK.json
names is emitted with its unit and a finite value, that the correctness
gate ran and passed, and that the environment block is there. Then checks that the benchmark exits non-zero without a
result in a directory holding only BENCHMARK.json and the benchmark's files.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck failed: {message}")


def run(cwd: Path, workload: str, seconds: float, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()],
          "BENCHMARK.json workloads differ from workloads.py")
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(ROOT, workload, args.seconds, trace)
            where = f"{workload} --trace {trace}"
            check(proc.returncode == 0, f"{where} exited {proc.returncode}: {proc.stderr[-2000:]}")
            lines = proc.stdout.splitlines()
            result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}")
            check(result["correct"] is True, f"{where}: not correct: {detail.get('problems')}")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{where}: attempted")
            check(isinstance(result["failed"], int), f"{where}: failed")
            check(detail["gate"]["ran"] and detail["gate"]["passed"], f"{where}: gate {detail['gate']}")
            check("mp_start_method" in detail["environment"], f"{where}: no environment block")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected[trace], f"{where}: metrics differ: {set(got) ^ set(expected[trace])}")
            check(all(math.isfinite(m["value"]) for m in result["metrics"].values()), f"{where}: value")
            print(f"ok {where}: {result['attempted']} runs", flush=True)

    bare = ROOT / ".perfbench" / "selfcheck_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, next(iter(WORKLOADS)), args.seconds, 0)
    check(proc.returncode != 0 and not proc.stdout.strip(), "a checkout without sources gave a result")
    shutil.rmtree(bare)
    print("ok without sources: exit", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
