"""Check that the program still produces the recorded outputs.

    PYTHONPATH=src python3 scripts/check_goldens.py

For each of the benchmark's ``battery``, ``large-models`` and
``cli-checkers`` workloads, runs that workload's own ``record`` (the code
``perfbench/record.py`` writes ``perfbench/golden/`` with) into a temporary
directory and compares what it returns with the recorded file, entry by
entry.  ``record`` checks as it goes: every battery criterion passes; every
``large-models`` document is valid, agrees between hist and rel on its
F-free formulas and matches the naive oracle's samples; every
``cli-checkers`` call replays its witnesses and does not exit 2.  A check
that fails there ends the run with that workload's message.  The golden
files are only read.  Prints each differing entry with both values and one
line per workload; exits 1 if any entry differs.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import battery  # noqa: E402  (needs perfbench on the path)
import cli_checkers  # noqa: E402
import large_models  # noqa: E402
from common import load_golden  # noqa: E402


def main() -> int:
    # the cli-checkers pool names tests/data/... relative to the root
    os.chdir(ROOT)
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for module in (battery, large_models, cli_checkers):
            got = module.record(Path(tmp) / module.NAME)
            recorded = load_golden(module.NAME)
            differ = [key for key in sorted(got.keys() | recorded.keys())
                      if got.get(key) != recorded.get(key)]
            for key in differ:
                print(f"{module.NAME} {key}: got {got.get(key)!r}, "
                      f"recorded {recorded.get(key)!r}")
            print(f"{module.NAME}: {len(got | recorded)} entries, "
                  f"{len(differ)} differ")
            bad += len(differ)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
