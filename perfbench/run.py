"""Benchmark of the ``itl`` library and CLI, driven from outside.

    python3 perfbench/run.py --workload {battery,large-models,cli-checkers}
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src``.  Each run is one single-threaded process that starts no
other.  It generates its inputs from the seed, sets up several times and
reports the median set-up time, runs the workload once (a closed loop with
one client), checks every output, prints each metric with its unit and ends
with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs every request twice in a row, untraced and traced in
alternating order, and reports the per-layer metrics of ``BENCHMARK.json``
from the traced runs, plus the tracing overhead (traced minus untraced wall
time; pairing each request cancels the machine's drift).  Per-layer metrics
that a workload does not exercise read 0.  Spans and a per-layer report are
written under ``perfbench/.work/``.  Times are scaled to a reference
machine speed measured during the run (``speed.py``); the measured times
are printed too.
"""

from time import perf_counter

_PROCESS_START = perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = {"battery": "battery", "large-models": "large_models",
             "cli-checkers": "cli_checkers"}
SETUP_REPEATS = 3
SETUP_PROBES = 4
TAIL_BEYOND = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import ``itl`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "itl" / "__init__.py").is_file():
        raise SystemExit(f"error: no library sources under {src}")
    sys.path[:0] = [str(BENCH), str(src)]
    import itl

    if Path(itl.__file__).resolve().parent != (src / "itl").resolve():
        raise SystemExit(f"error: imported itl from {itl.__file__}, not {src}")


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten requests beyond it."""
    ordered = sorted(latencies, reverse=True)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[0], f"maximum of {n} requests (fewer than {TAIL_BEYOND + 1})"
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return ordered[TAIL_BEYOND], f"p{pct:.1f} of {n} requests ({TAIL_BEYOND} beyond it)"


def end_to_end(latencies: list[float], setup_s: float) -> tuple[dict, str]:
    tail_value, tail_label = tail(latencies)
    wall = sum(latencies)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "throughput_rps": len(latencies) / wall,
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_tail_ms": tail_value * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, tail_label


def per_layer(names, units, tracer, workload, requests) -> dict:
    """Per-layer values; ``trace.overhead_s`` is filled in by the caller."""
    outermost = tracer.outermost()
    layers = tracer.layer_times()
    counts = tracer.counts
    extras = workload.extras(requests) if hasattr(workload, "extras") else {}
    named = (workload.named_requests(requests)
             if hasattr(workload, "named_requests") else {})

    def span_total(span_name):
        return sum(d for _, d in outermost.get(span_name, ()))

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    out = {}
    for name in names:
        layer, _, rest = name.partition(".")
        if name in extras:
            value = extras[name]
        elif name in named:
            span_name, rids = named[name]
            per_request: dict[int, float] = {}
            for rid, d in outermost.get(span_name, ()):
                if rid in rids:
                    per_request[rid] = per_request.get(rid, 0.0) + d
            value = statistics.median(per_request.values()) if per_request else 0.0
        elif name == "trace.overhead_s":
            value = 0.0
        elif name == "trace.spans":
            value = len(tracer.spans)
        elif name == "bisimulation.kept_ratio":
            value = ratio("bisimulation.kept_pairs", "bisimulation.initial_pairs")
        elif name == "bisimulation.distinguish_found_ratio":
            value = ratio("bisimulation.distinguish_found", "bisimulation.distinguish_calls")
        elif name.endswith(".p50_ms"):
            durations = [d for _, d in outermost.get(name[:-len(".p50_ms")], ())]
            value = statistics.median(durations) * 1000.0 if durations else 0.0
        elif rest in ("total_s", "self_s"):
            value = layers.get(layer, {}).get(rest, 0.0)
        elif units[name] == "count":
            value = counts[name]
        else:
            value = span_total(name[:-len("_s")])
        out[name] = value
    return out


def layer_report(tracer, wall: float) -> dict:
    rows = {}
    for layer, times in sorted(tracer.layer_times().items()):
        rows[layer] = dict(times, share_of_wall=times["total_s"] / wall)
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_library()
    from common import load_golden
    from spans import Tracer, instrument_library
    from speed import SpeedProbe

    workload = importlib.import_module(WORKLOADS[args.workload])
    import_s = perf_counter() - _PROCESS_START
    golden = load_golden(args.workload)

    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    probe = SpeedProbe()
    probe.start()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            inputs = workload.setup(args.seed, args.seconds, workdir)
            setup_times.append((start, perf_counter()))
        if args.trace:
            tracer = Tracer(recording=True)
            inst = instrument_library(tracer) if workload.INSTRUMENT else None

            def untraced(thunk) -> float:
                """Time ``thunk`` with tracing off and the library unwrapped."""
                tracer.recording = False
                if inst is not None:
                    inst.remove()
                try:
                    start = perf_counter()
                    thunk()
                    return probe.net(start, perf_counter())
                finally:
                    if inst is not None:
                        inst.install()
                    tracer.recording = True

            try:
                requests = workload.run(inputs, tracer, golden, untraced)
            finally:
                if inst is not None:
                    inst.remove()
        else:
            requests = workload.run(inputs, Tracer(), golden)
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    for r in requests:
        for failure in r.failures:
            print(f"FAILED request {r.rid} ({r.key}): {failure}")
    attempted, failed = len(requests), sum(1 for r in requests if r.failures)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "attempted": attempted, "failed": failed,
              "failed_ratio": failed / attempted}

    measured = [probe.net(r.start, r.start + r.seconds) for r in requests]
    latencies = [m * probe.factor(r.start, r.start + r.seconds)
                 for m, r in zip(measured, requests)]
    factor = sum(latencies) / sum(measured)
    measured_setup_s = import_s + statistics.median(
        probe.net(t0, t1) for t0, t1 in setup_times)
    setup_s = (import_s * probe.factor(_PROCESS_START, _PROCESS_START + import_s)
               + statistics.median(probe.net(t0, t1) * probe.factor(t0, t1)
                                   for t0, t1 in setup_times))
    report["speed_factor"] = factor
    if args.trace:
        section = spec["per_layer"]
        wall, untraced_wall = sum(measured), sum(r.untraced_seconds for r in requests)
        span_wall = sum(r.seconds for r in requests)  # spans include the chunks
        values = per_layer([m["name"] for m in section],
                           {m["name"]: m["unit"] for m in section},
                           tracer, workload, requests)
        report["layers"] = layer_report(tracer, span_wall)
        report["measured_wall_s"] = {"traced": wall, "untraced": untraced_wall}
        report["not_exercised"] = sorted(n for n, v in values.items() if not v)
        tracer.write(BENCH / ".work" / f"spans-{tag}.jsonl")
        print(f"{'layer':14} {'total_s':>10} {'self_s':>10} {'share':>7}  (measured)")
        for layer, row in report["layers"].items():
            print(f"{layer:14} {row['total_s']:10.4f} {row['self_s']:10.4f} "
                  f"{row['share_of_wall']:7.1%}")
        print(f"measured tracing overhead {wall - untraced_wall:.4f} s: traced "
              f"wall {wall:.4f} s, untraced {untraced_wall:.4f} s")
        # span times are scaled by the run's overall factor from measured
        # (calibration chunks included) to reference-speed time
        span_factor = sum(latencies) / span_wall
        scale = {"s": span_factor, "ms": span_factor}
        values["trace.overhead_s"] = (wall - untraced_wall) * factor / span_factor
    else:
        section = spec["end_to_end"]
        values, tail_label = end_to_end(latencies, setup_s)
        report["measured"], _ = end_to_end(measured, measured_setup_s)
        report["latency_tail"] = tail_label
        print(f"latency_tail_ms is the {tail_label}")
        print("measured: " + ", ".join(f"{k} {v:.6g}"
                                       for k, v in report["measured"].items()))
        scale = {}
    print(f"speed factor {factor:.4f}: times below are at reference speed "
          f"(see perfbench/speed.py)")

    metrics = {}
    for m in section:
        value = values[m["name"]]
        if m["unit"] in scale:
            value *= scale[m["unit"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    report["metrics"] = metrics
    (BENCH / ".work").mkdir(exist_ok=True)
    (BENCH / ".work" / f"report-{tag}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, m in metrics.items():
        print(f"{name:40} {m['value']:>14.6g} {m['unit']}")
    print(f"{'failed_ratio':40} {failed / attempted:>14.6g} (failed {failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
