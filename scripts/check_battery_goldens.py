"""Check the battery's detail lines against the recorded ones.

    PYTHONPATH=src python3 scripts/check_battery_goldens.py

Runs ``Battery(seed).run_all()`` for every seed recorded in
``perfbench/golden/battery.json`` (seeds 0-7) and compares each criterion's
detail line with the recorded one, byte for byte.  The file is only read.
Prints one line per seed and exits 1 if any line differs or any criterion
fails.
"""

import json
import sys
from pathlib import Path

from itl.suite import Battery

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden" / "battery.json"


def main() -> int:
    recorded = json.loads(GOLDEN.read_text())
    bad = 0
    for seed, expected in sorted(recorded.items(), key=lambda item: int(item[0])):
        results = Battery(int(seed)).run_all()
        ok = ([r.detail for r in results] == expected
              and all(r.passed for r in results))
        print(f"seed {seed}: {'ok' if ok else 'DIFFERS'}")
        if not ok:
            print("\n".join([f"  got: {r.line()}" for r in results]
                            + [f"  recorded: {line}" for line in expected]))
            bad += 1
    return 1 if bad else 0

if __name__ == "__main__":
    sys.exit(main())
