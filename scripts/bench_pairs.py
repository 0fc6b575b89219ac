"""Compare two checkouts on the benchmark in paired, alternating runs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json
        [--pairs 10] [--first-seed 1500]

For each workload of the change's ``BENCHMARK.json`` and each of ``--pairs``
seeds, runs ``perfbench/run.py --workload W --seed N --seconds S --trace 0``
once in each checkout, one process at a time, with the checkout as working
directory; S is the ``run_seconds`` of that file.  The parent runs first
for even pair numbers and the change for odd ones, so the machine's drift
does not favour one side.  Writes per workload and per end-to-end metric of
``BENCHMARK.json``: each side's values, one per run in seed order, their
median and interquartile range (inclusive quartiles), the change's median
relative to the parent's, the pairs in which the change read better, and a
verdict (see ``verdict``).  Names the code each side ran by its commit
(``<sha>+dirty`` when ``src/`` or ``perfbench/`` has uncommitted changes)
and by ``source_digest``.  Prints one line per run; exits 1 if any run
failed or reported a failed request.

The runs write no bytecode cache, and the script refuses to start while a
``__pycache__`` exists under either side's ``src/`` or ``perfbench/``: a
side with a cache would skip the compiling that the other side pays in
every run, which shows in ``setup_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
SOURCES = ("src", "perfbench")
LEFTOVERS = {"__pycache__", ".work"}  # what runs leave there, in .gitignore


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1500)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The final JSON line of one benchmark run.  The run writes no bytecode
    cache, so every run of either side compiles the code it imports."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=1800,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: {checkout} {workload} seed {seed} exited "
                         f"{done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": round(statistics.median(values), 6),
            "iqr": round(q3 - q1, 6)}


def better_pairs(metric: dict, parent: list[float], change: list[float]) -> int:
    """The pairs (same seed) in which the change read better."""
    lower = metric["better"] == "lower"
    return sum((c < p) if lower else (c > p) for p, c in zip(parent, change))


def verdict(metric: dict, parent: list[float], change: list[float]) -> str:
    """The reading of one metric by the rules a change is judged by, the
    first that applies:

    - ``worse``: the change's median is worse than the parent's by more
      than the metric's ``bound`` (a fraction of the parent's median);
    - ``unresolved``: either side's interquartile range is wider than the
      bound times the parent's median, the scale the change is judged on,
      too wide to tell, unless every run of the change read better than
      every run of the parent;
    - ``better``: the change read better in at least 9 of 10 pairs, and the
      medians differ by more than the parent's interquartile range;
    - ``unchanged``: anything else.
    """
    sign = 1 if metric["better"] == "lower" else -1
    bound = metric["bound"]
    p, c = spread(parent), spread(change)
    if sign * (c["median"] - p["median"]) > bound * abs(p["median"]):
        return "worse"
    apart = (max(change) < min(parent) if sign > 0
             else min(change) > max(parent))
    if not apart and max(p["iqr"], c["iqr"]) > bound * abs(p["median"]):
        return "unresolved"
    if (10 * better_pairs(metric, parent, change) >= 9 * len(parent)
            and sign * (p["median"] - c["median"]) > p["iqr"]):
        return "better"
    return "unchanged"


def summarize(metrics: list[dict], runs: dict[str, list[dict]]) -> dict:
    """Per metric, both sides' values in seed order and their spread, the
    paired comparison and the verdict."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [run["metrics"][name]["value"] for run in runs[side]]
                  for side in SIDES}
        parent_median = statistics.median(values["parent"])
        wins = better_pairs(metric, values["parent"], values["change"])
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            **{side: {**spread(values[side]), "runs": values[side]}
               for side in SIDES},
            "change_better_pairs": f"{wins}/{len(values['parent'])}",
            "change_vs_parent": round(
                statistics.median(values["change"]) / parent_median - 1, 4)
            if parent_median else None,
            "verdict": verdict(metric, values["parent"], values["change"]),
        }
    return out


def commit_of(checkout: Path) -> str | None:
    """The checkout's commit, marked ``+dirty`` when ``git status`` lists a
    change under ``src/`` or ``perfbench/``; None for a copy that is not a
    git checkout."""
    if not (checkout / ".git").exists():
        return None

    def git(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *argv], cwd=checkout, capture_output=True,
                              text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--", *SOURCES).stdout.strip()
    return head.stdout.strip() + "+dirty" * bool(dirty)


def source_digest(checkout: Path) -> str:
    """The sha256 of the checkout's ``src/`` and ``perfbench/`` files: each
    relative path, its length and its bytes, in the order of the paths,
    leaving out what running the code leaves behind."""
    files = {}
    for top in SOURCES:
        for path in (checkout / top).rglob("*"):
            name = path.relative_to(checkout)
            if path.is_file() and not LEFTOVERS.intersection(name.parts):
                files[name.as_posix()] = path
    digest = hashlib.sha256()
    for name in sorted(files):
        data = files[name].read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def bytecode_caches(checkout: Path) -> list[Path]:
    """The ``__pycache__`` directories under the checkout's ``src/`` and
    ``perfbench/``, in path order."""
    return sorted(path for top in SOURCES
                  for path in (checkout / top).rglob("__pycache__")
                  if path.is_dir())


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            raise SystemExit(f"error: no perfbench/run.py under {checkout} ({side})")
        caches = bytecode_caches(checkout)
        if caches:
            raise SystemExit(f"error: bytecode cache {caches[0]} ({side}); "
                             f"remove it, the runs write none")
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    workloads = {}
    bad = 0
    for workload in [w["name"] for w in benchmark["workloads"]]:
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for k, seed in enumerate(seeds):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                result = run_once(checkouts[side], workload, seed, seconds)
                runs[side].append(result)
                bad += bool(result["failed"]) or not result["correct"]
                wall = result["metrics"]["wall_s"]["value"]
                print(f"{workload} seed {seed} {side}: wall_s {wall:.3f}, "
                      f"failed {result['failed']}", flush=True)
        workloads[workload] = {
            "seeds": seeds,
            "runs_per_side": len(seeds),
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
            "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
            "metrics": summarize(benchmark["end_to_end"], runs),
        }
    record = {
        "description": "End-to-end metrics of the perfbench workloads at the "
                       "parent commit and with the change, from paired runs "
                       "that alternate which side runs first. Each side ran "
                       "from its own copy of the tree; the commit of a copy "
                       "that is not a git checkout is null, a commit ending "
                       "in +dirty names a checkout whose src/ or perfbench/ "
                       "git status lists as changed from that commit, and "
                       "source_sha256 digests each side's src/ and "
                       "perfbench/ files. Times are scaled by run.py to its "
                       "reference machine speed.",
        "command": f"python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {seconds:g} --trace 0",
        "seeds": seeds,
        "commits": {side: commit_of(checkouts[side]) for side in SIDES},
        "source_sha256": {side: source_digest(checkouts[side]) for side in SIDES},
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "host": f"{os.cpu_count()}-core {platform.machine()} {platform.system()}",
        "statistics": "per metric: each side's values (runs, in seed "
                      "order), their median and interquartile range "
                      "(inclusive quartiles), the change's median "
                      "relative to the parent's, the pairs (same seed) in "
                      "which the change read better, and the verdict: worse "
                      "(median worse by more than the bound), unresolved "
                      "(either side's IQR wider than the bound times the "
                      "parent's median, unless every change run read better "
                      "than every parent run), "
                      "better (at least 9/10 pairs, medians apart by more "
                      "than the parent's IQR) or unchanged",
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
