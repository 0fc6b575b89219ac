"""Spans recorded from outside the library, and their per-layer totals.

A span has a name, a start, an end, the span that was open when it began
(its parent) and the id of the request it belongs to.  Spans are kept in
memory and written to a file when the run ends.  Layers are named after the
library's modules; a span named ``structures.rel_tables`` belongs to the
``structures`` layer.

In an untraced run ``Tracer.span`` returns a shared no-op context manager, so
the workloads call it unconditionally.  ``instrument_library`` wraps library
functions (in every ``itl`` module namespace that holds them) and the frame
table properties, so calls made inside ``itl.cli.run`` and the battery are
timed too.  Work done inside a public call that is not itself a public call
(the tree closure inside validation, the evaluator's recursion inside
``extension_mask``) stays in the enclosing span.
"""

from __future__ import annotations

import json
import sys
import weakref
from collections import Counter
from functools import cached_property
from time import perf_counter


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t.stack[-1] if t.stack else -1
        t.spans.append([self.name, perf_counter(), 0.0, parent, t.request_id])
        t.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = perf_counter()
        t.stack.pop()
        return False


class Tracer:
    """Collects spans and counters while ``recording`` is true."""

    def __init__(self, recording: bool = False):
        self.recording = recording
        self.spans: list[list] = []  # [name, start, end, parent, request_id]
        self.stack: list[int] = []
        self.request_id = 0
        self.counts: Counter = Counter()

    def span(self, name: str):
        return _Span(self, name) if self.recording else _NULL

    def count(self, name: str, n=1) -> None:
        if self.recording:
            self.counts[name] += n

    def outermost(self) -> dict[str, list[tuple[int, float]]]:
        """Per span name, (request id, duration) of each span not nested in
        another span of the same name."""
        spans = self.spans
        out: dict[str, list[tuple[int, float]]] = {}
        for name, start, end, parent, rid in spans:
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                out.setdefault(name, []).append((rid, end - start))
        return out

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per layer: total (outermost spans of the layer) and self time
        (time when the innermost open span belongs to the layer)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(spans):
            layer = s[0].split(".", 1)[0]
            row = out.setdefault(layer, {"total_s": 0.0, "self_s": 0.0})
            row["self_s"] += (s[2] - s[1]) - child_time[i]
            parent = s[3]
            while parent >= 0 and not spans[parent][0].startswith(layer + "."):
                parent = spans[parent][3]
            if parent < 0:
                row["total_s"] += s[2] - s[1]
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line, times relative to
        the first span, so that two runs can be compared layer by layer."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, rid) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "request": rid,
                }) + "\n")


# ---------------------------------------------------------------------------
# wrapping library calls
# ---------------------------------------------------------------------------

def _itl_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "itl" or name.startswith("itl."))]


class Instrumentation:
    """Replaces library callables by span-recording wrappers: ``install``
    puts the wrappers in place, ``remove`` puts the originals back."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._entries: list[tuple[object, str, object, object]] = []

    def _add(self, owner, attr: str, original, wrapper) -> None:
        self._entries.append((owner, attr, original, wrapper))

    def _replace(self, original, wrapper) -> None:
        for module in _itl_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._add(module, attr, original, wrapper)

    def function(self, original, span_name: str, after=None, owner=None) -> None:
        """Time every call; ``after(result, args)`` runs outside the span.

        The function is replaced wherever an ``itl`` module holds it, or
        only on ``owner`` when one is given.
        """
        span = self.tracer.span

        def wrapper(*args, **kwargs):
            with span(span_name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        if owner is None:
            self._replace(original, wrapper)
        else:
            self._add(owner, original.__name__, original, wrapper)

    def generator(self, original, span_name: str, per_item: str) -> None:
        """Time each step of a generator function; count the items."""
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            gen = original(*args, **kwargs)
            while True:
                with tracer.span(span_name):
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                tracer.count(per_item)
                yield item

        self._replace(original, wrapper)

    def method(self, cls, attr: str, span_name) -> None:
        """Time a method; ``span_name(self)`` picks the span name."""
        original = cls.__dict__[attr]
        span = self.tracer.span

        def wrapper(obj, *args, **kwargs):
            with span(span_name(obj)):
                return original(obj, *args, **kwargs)

        self._add(cls, attr, original, wrapper)

    def cached_property(self, cls, attr: str, span_name: str, after=None) -> None:
        """Time the first computation of a cached property."""
        original = cls.__dict__[attr]
        compute = original.func
        span = self.tracer.span

        def wrapper(obj):
            with span(span_name):
                value = compute(obj)
            if after is not None:
                after(obj)
            return value

        replacement = cached_property(wrapper)
        replacement.__set_name__(cls, attr)
        self._add(cls, attr, original, replacement)

    def install(self) -> None:
        for owner, attr, _, wrapper in self._entries:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in reversed(self._entries):
            setattr(owner, attr, original)


def instrument_library(tracer: Tracer) -> Instrumentation:
    """Wrap the public calls that the CLI and the battery make into each layer."""
    import itl
    from itl import documents, formula, semantics
    from itl.structures import Frame

    inst = Instrumentation(tracer)

    # documents: reading the JSON text, validating, building
    inst.function(json.load, "documents.read", owner=json)
    for fn in (documents.validate_model_doc, documents.validate_frame_doc):
        inst.function(fn, "documents.validate")
    for fn in (documents.model_from_doc, documents.frame_from_doc):
        inst.function(fn, "documents.build")

    # structures: the two routes' tables, built lazily on first use
    seen_frames: weakref.WeakSet = weakref.WeakSet()

    def count_points(frame) -> None:
        if frame not in seen_frames:
            seen_frames.add(frame)
            tracer.count("structures.points", len(frame.point_list))

    for attr in ("future_chains", "hist_future_masks", "hist_past_masks",
                 "hist_class_masks"):
        inst.cached_property(Frame, attr, "structures.hist_tables", count_points)
    for attr in ("rel_successor_masks", "rel_predecessor_masks",
                 "rel_same_moment_masks"):
        inst.cached_property(Frame, attr, "structures.rel_tables", count_points)

    # formula
    inst.function(itl.parse, "formula.parse",
                  lambda phi, args: tracer.count("formula.dag_nodes", dag_size([phi])))

    # semantics
    inst.method(semantics.Evaluator, "holds",
                lambda ev: "semantics.eval_rel" if ev.relational else "semantics.eval_hist")
    inst.function(itl.eval_hist, "semantics.eval_hist")
    inst.function(itl.eval_rel, "semantics.eval_rel")
    for fn in (itl.model_valid, itl.model_sat):
        inst.function(fn, "semantics.eval_hist")

    def count_valuations(result, args) -> None:
        frame, phi = args[0], args[1]
        tracer.count("semantics.valuation_space",
                      2 ** (len(frame.point_list) * len(formula.atoms_of(phi))))

    for fn in (itl.frame_valid, itl.frame_sat):
        inst.function(fn, "semantics.frame_valid", count_valuations)

    # morphisms
    inst.generator(itl.search_pmorphisms, "morphisms.search", "morphisms.maps_found")
    for fn in (itl.check_frame_pmorphism, itl.check_model_pmorphism):
        inst.function(fn, "morphisms.check",
                      lambda result, args: tracer.count("morphisms.checks"))
    inst.function(itl.check_set_characterization, "morphisms.characterize")

    # bisimulation
    def count_kept(relation, args) -> None:
        src, dst = args[0], args[1]
        tracer.count("bisimulation.kept_pairs", len(relation.pairs))
        tracer.count("bisimulation.initial_pairs", pv_agreeing_pairs(src, dst))

    inst.function(itl.greatest_bisimulation, "bisimulation.greatest", count_kept)
    inst.function(itl.check_bisimulation, "bisimulation.check")

    def count_found(phi, args) -> None:
        tracer.count("bisimulation.distinguish_calls")
        tracer.count("bisimulation.distinguish_found", phi is not None)

    inst.function(itl.find_distinguishing_formula, "bisimulation.distinguish",
                  count_found)
    inst.install()
    return inst


def dag_size(formulas) -> int:
    """Distinct subformulas of a batch (the nodes a memoized evaluation visits)."""
    from itl import Formula

    seen = set()
    stack = list(formulas)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(v for v in vars(node).values() if isinstance(v, Formula))
    return len(seen)


def pv_agreeing_pairs(src, dst) -> int:
    """Pairs of points that agree on every atom: the base the greatest
    bisimulation starts from."""
    atoms = sorted(set(src.valuation) | set(dst.valuation))

    def signatures(model):
        return Counter(
            tuple(p in model.valuation.get(a, ()) for a in atoms)
            for p in model.frame.point_list)

    a, b = signatures(src), signatures(dst)
    return sum(n * b[sig] for sig, n in a.items())
