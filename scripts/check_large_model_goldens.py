"""Check the large-model masks against the recorded ones.

    PYTHONPATH=src python3 scripts/check_large_model_goldens.py

Runs every member of the ``large-models`` benchmark pool
(``perfbench/large_models.py``: 64 small, 32 mid and 8 large documents)
through that workload's ``handle`` and ``check``, untraced.  ``check``
validates the document, compares hist with rel on the F-free formulas,
samples the naive oracle, and compares the digest of every mask with
``perfbench/golden/large-models.json``.  The golden file is only read.
Prints the members that differ and a summary line; exits 1 if any member
differs, fails a check or is missing from the golden file.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden" / "large-models.json"
sys.path.insert(0, str(ROOT / "perfbench"))

import large_models  # noqa: E402  (needs perfbench on the path)
from common import Request  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    recorded = json.loads(GOLDEN.read_text())
    bad = total = 0
    for size, pool in large_models.POOLS.items():
        for seed in pool:
            key = large_models.doc_key(size, seed)
            req = Request(0, key)  # oracle samples as recorded: seed 0, request 0
            outputs = large_models.handle(*large_models.make_document(size, seed),
                                          Tracer())
            large_models.check(req, 0, outputs, recorded)
            total += 1
            if req.failures:
                bad += 1
                print(f"{key}: {'; '.join(req.failures)}")
    print(f"{total} documents, {bad} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
