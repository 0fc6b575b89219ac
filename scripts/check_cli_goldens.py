"""Check the CLI's exit codes and output against the recorded ones.

    PYTHONPATH=src python3 scripts/check_cli_goldens.py

Runs every call of the ``cli-checkers`` benchmark pool
(``perfbench/cli_checkers.py``) in-process through ``itl.cli.run``, with the
repository root as working directory and the pool's documents written to a
temporary directory, replays each call's witnesses, and compares the digest
of its exit code and stdout with ``perfbench/golden/cli-checkers.json``.
The golden file is only read.  Prints the calls that differ and a summary
line; exits 1 if any call differs, fails its replay or is missing from the
golden file.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden" / "cli-checkers.json"
sys.path.insert(0, str(ROOT / "perfbench"))

import cli_checkers  # noqa: E402  (needs perfbench on the path)
from common import digest  # noqa: E402


def main() -> int:
    recorded = json.loads(GOLDEN.read_text())
    os.chdir(ROOT)  # the pool names tests/data/... relative to the root
    specs = cli_checkers.pool_specs()
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        cli_checkers.write_documents(specs, workdir)
        for spec in specs:
            argv = cli_checkers.argv_of(spec, workdir)
            code, stdout = cli_checkers.call(argv)
            failures = cli_checkers.replay(spec, argv, code, stdout, workdir)
            if recorded.get(spec.id) != digest(code, stdout):
                failures.append(f"exit {code} or stdout differs from the recorded ones")
            if failures:
                bad += 1
                print(f"{spec.id}: {'; '.join(failures)}")
    print(f"{len(specs)} calls, {bad} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
