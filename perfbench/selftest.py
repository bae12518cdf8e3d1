"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Each workload runs untraced with seed 1 and traced with seed 2. A run
passes when it exits 0, its result line reports no failed operation, and
its metrics are exactly the ones BENCHMARK.json lists for the mode, with
the listed units and numeric values (end-to-end values also positive).
Last, the benchmark must refuse to run, exiting non-zero without a result
line, in a directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout


def check_result(spec: dict, workload: str, trace: int, seed: int) -> list[str]:
    code, stdout = run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                       "--trace", str(trace), "--tiny")
    where = f"{workload} trace={trace} seed={seed}"
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return [f"{where}: exit {code}, no result line"]
    problems = []
    if code != 0:
        problems.append(f"{where}: exit {code}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: error_rate is not 0 ({result['failed']} of {result['attempted']})")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
    for name, m in got.items():
        value = m.get("value")
        if m.get("unit") != wanted.get(name):
            problems.append(f"{where}: {name} has unit {m.get('unit')!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r} is not a number")
        elif not trace and value <= 0:
            problems.append(f"{where}: {name} = {value} is not positive")
    return problems


def check_bare() -> list[str]:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, stdout = run(bare, "--workload", "witness", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or '"metrics"' in stdout:
        return [f"without src/ the benchmark exited {code} and printed {stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, seed in ((0, 1), (1, 2)):
            found = check_result(spec, workload, trace, seed)
            print(f"{workload} trace={trace} seed={seed}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    found = check_bare()
    print(f"no source tree: {'ok' if not found else 'FAILED'}")
    problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
