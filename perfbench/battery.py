"""Workload ``battery``: one full ten-criterion battery, ``itl suite``'s path.

It evaluates about 10^5 formulas on structures of at most 8 points, so
evaluator dispatch, memoisation and the corpus signatures dominate
(criteria 2 and 5); the small-structure p-morphism searches and
bisimulation checks of criteria 4 and 6-8 make up most of the rest.  Sizes
are the battery's own fixed values and are never shrunk.

A run is one battery in a fresh interpreter, because the formula corpus is
cached per process.  The seed picks one of the battery seeds whose detail
lines were recorded, so every criterion's detail line can be compared byte
for byte.  Each criterion counts as one request.
"""

from __future__ import annotations

import tempfile
from time import perf_counter

import itl.formula
from itl.suite import Battery

from common import Request

NAME = "battery"
INSTRUMENT = True
BATTERY_SEEDS = tuple(range(8))
CRITERIA = tuple(range(1, 11))


def setup(seed: int, seconds: float, workdir) -> int:
    # criterion 3 writes a temporary model document; keep it in the checkout
    workdir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir)
    return BATTERY_SEEDS[seed % len(BATTERY_SEEDS)]


def run(battery_seed: int, tracer, golden, untraced=None) -> list[Request]:
    """One battery.

    With ``untraced`` (a traced run), each criterion of a second battery of
    the same seed is also timed by ``untraced(thunk)`` with tracing off,
    before the traced criterion for odd numbers and after it for even ones.
    The formula corpus is cached per process, so when the first of the two
    built it, it is dropped again before the second."""
    battery = Battery(battery_seed)
    twin = Battery(battery_seed)
    corpus_cache = itl.formula._enumerate_cached
    results = []
    requests = []
    for number in CRITERIA:
        tracer.request_id = number
        req = Request(number, f"c{number:02}")
        requests.append(req)

        def traced():
            req.start = perf_counter()
            with tracer.span(f"suite.{req.key}"):
                results.extend(battery.run_all(numbers=[number]))

        def untraced_twin():
            req.untraced_seconds = untraced(lambda: twin.run_all(numbers=[number]))

        steps = [traced] if untraced is None else (
            [untraced_twin, traced] if number % 2 else [traced, untraced_twin])
        try:
            cached = corpus_cache.cache_info().currsize
            for i, step in enumerate(steps):
                if i and not cached:
                    corpus_cache.cache_clear()
                step()
        except Exception as exc:  # a failed criterion, counted; the run goes on
            req.failures.append(f"exception: {exc!r}")
    expected = None if golden is None else golden[str(battery_seed)]
    for result in results:
        req = requests[result.number - 1]
        req.seconds, req.digest = result.seconds, result.detail
        if not result.passed:
            req.failures.append(f"FAIL: {result.detail}")
        if expected is not None and expected[result.number - 1] != result.detail:
            req.failures.append(f"detail differs from the recorded line: {result.detail}")
    return requests


def extras(requests) -> dict[str, float]:
    """The battery's own per-criterion timings."""
    return {f"suite.{r.key}_s": r.seconds for r in requests}


def record(workdir) -> dict:
    """Detail lines of every battery seed, for the golden file."""
    from spans import Tracer

    setup(0, 0, workdir)
    out = {}
    for seed in BATTERY_SEEDS:
        itl.formula._enumerate_cached.cache_clear()
        requests = run(seed, Tracer(), None)
        failed = [r.failures for r in requests if r.failures]
        if failed:
            raise SystemExit(f"battery seed {seed}: {failed}")
        out[str(seed)] = [r.digest for r in requests]
    return out
