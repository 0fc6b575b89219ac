"""Record the expected outputs that the benchmark's checks compare against.

    python3 perfbench/record.py [battery] [large-models] [cli-checkers]

Writes ``perfbench/golden/<workload>.json``: the battery's detail lines for
every battery seed, the mask digest of every ``large-models`` pool document
and the exit code and stdout digest of every ``cli-checkers`` pool call.  Run
it only at a commit whose outputs are known to be right; every later commit
must reproduce them.
"""

import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(names) -> int:
    os.chdir(ROOT)
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import battery
    import cli_checkers
    import large_models
    from common import save_golden

    modules = {m.NAME: m for m in (battery, large_models, cli_checkers)}
    workdir = BENCH / ".work" / f"record-{os.getpid()}"
    try:
        for name in names or modules:
            module = modules[name]
            data = module.record(workdir)
            save_golden(name, data)
            print(f"{name}: {len(data)} entries recorded")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
