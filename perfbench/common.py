"""Types and helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"


@dataclass
class Request:
    """One closed-loop request: what it was, how long it took, what failed."""

    rid: int
    key: str
    start: float = 0.0
    seconds: float = 0.0
    untraced_seconds: float = 0.0  # the same request run untraced next to it
    failures: list[str] = field(default_factory=list)
    digest: str = ""


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def load_golden(workload: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{workload}.json").read_text(encoding="utf-8"))


def save_golden(workload: str, data: dict) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    (GOLDEN_DIR / f"{workload}.json").write_text(
        json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def blocks_for(seconds: float, block_seconds: float) -> int:
    """A run does a fixed number of request blocks, sized so that it lasts
    about ``seconds`` at the commit that defined the benchmark; the same
    ``--seconds`` therefore means the same work on every commit."""
    return max(1, round(seconds / block_seconds))
