"""The benchmark's own smoke test.

    python3 perfbench/smoke_test.py

Runs every workload at its smallest input (``--seconds 1``: one request
block; the battery always runs in full), untraced and traced, each in its
own interpreter, and checks the output schema, that every metric of
``BENCHMARK.json`` is present with its unit, and that nothing failed.  It
checks no timing, so it cannot flake on a slow machine.  It also checks that
the benchmark refuses to run without the library sources.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(workload: str, trace: int, spec: dict) -> list[str]:
    proc = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted {result['attempted']!r}")
    if result["failed"] != 0 or result["correct"] is not True:
        problems.append(f"{where}: failed_ratio is not 0: {result['failed']} "
                        f"of {result['attempted']}\n{proc.stdout}")
    section = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"{where}: metrics differ: missing "
                        f"{sorted(set(expected) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != expected.get(name):
            problems.append(f"{where}: {name} is {m}")
        elif not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{where}: {name} value {m['value']!r}")
        elif not trace and m["value"] <= 0:
            problems.append(f"{where}: end-to-end metric {name} is {m['value']}")
    return problems


def check_refuses_without_library() -> list[str]:
    """In a directory holding only BENCHMARK.json and the benchmark, the run
    must fail without printing a result."""
    (BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run("large-models", 0, cwd=tmp)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["the benchmark ran without the library sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_refuses_without_library()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            found = check_result(workload, trace, spec)
            problems.extend(found)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}",
                  flush=True)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
