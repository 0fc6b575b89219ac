"""Workload ``large-models``: few formulas over many points.

Each request receives a fresh model document as JSON text and a batch of
random depth-8 LF formulas as text.  It follows the ``itl check`` path
(read, validate, build), builds both routes' tables, parses the batch, takes
each formula's extension under a hist and a rel evaluator, and evaluates the
six one-operator formulas on a fresh evaluator.  The frame tables and the
evaluator's per-node loop over points do the work; nothing searches.

Documents come from a fixed pool per size class (100, 400 and 1,600
moments; about 120, 500 and 2,000 points); the seed picks the pool members
and the order.  A block holds 1 large, 10 mid and 20 small requests, so the
median falls among the small requests and the tail (ten requests beyond it)
among the mid ones, never on a class boundary.  The first large request of
every run is the 2,006-point reference frame.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from time import perf_counter

from itl import (
    Atom, Evaluator, contains_f, documents, format_formula, gen_random_model,
    parse, random_formula,
)

from common import Request, blocks_for, digest
from naive import NaiveEvaluator
from spans import dag_size

NAME = "large-models"
INSTRUMENT = False

SIZES = {"small": 100, "mid": 400, "large": 1600}
POOLS = {"small": range(64), "mid": range(32), "large": range(1, 9)}
REFERENCE_SEED = 1  # gen_random_model(1, 1600, branching=3, coarsened): 2,006 points
MIDS_PER_BLOCK = 10
SMALLS_PER_BLOCK = 20
BLOCK_SECONDS = 4.5
N_FORMULAS = 100
FORMULA_DEPTH = 8
ORACLE_SAMPLES = 16
OP_PROBES = (("Not", "~p0"), ("And", "p0 & p1"), ("G", "G p0"), ("H", "H p0"),
             ("L", "L p0"), ("F", "F p0"))
PROBE_FORMULAS = tuple((op, parse(text)) for op, text in OP_PROBES)


@dataclass
class Inputs:
    seed: int
    order: list[tuple[str, int]]
    documents: dict[str, tuple[str, list[str]]]


def doc_key(size: str, seed: int) -> str:
    return f"{size}:{seed}"


def make_document(size: str, seed: int) -> tuple[str, list[str]]:
    """The model document text and formula batch of one pool member."""
    model = gen_random_model(seed, SIZES[size], branching=3,
                             indist_policy="coarsened")
    text = documents.dumps(documents.model_to_doc(model))
    base = (list(SIZES).index(size) * 1000 + seed) * 10_000
    formulas = [format_formula(random_formula(base + j, FORMULA_DEPTH,
                                              ("p0", "p1"), mode="LF"))
                for j in range(N_FORMULAS)]
    return text, formulas


def plan(seed: int, blocks: int) -> list[tuple[str, int]]:
    rng = random.Random(seed)
    mids = rng.sample(POOLS["mid"], MIDS_PER_BLOCK)
    smalls = rng.sample(POOLS["small"], SMALLS_PER_BLOCK)
    order = []
    for b in range(blocks):
        large = REFERENCE_SEED if b == 0 else rng.choice(POOLS["large"][1:])
        block = ([("large", large)] + [("mid", s) for s in mids]
                 + [("small", s) for s in smalls])
        rng.shuffle(block)
        order.extend(block)
    return order


def setup(seed: int, seconds: float, workdir) -> Inputs:
    order = plan(seed, blocks_for(seconds, BLOCK_SECONDS))
    docs = {doc_key(*item): make_document(*item) for item in sorted(set(order))}
    return Inputs(seed, order, docs)


def handle(text: str, formula_texts: list[str], tracer):
    """One request; returns what the checks need."""
    span = tracer.span
    with span("documents.read"):
        doc = json.loads(text)
    with span("documents.validate"):
        report = documents.validate_model_doc(doc)
    with span("documents.build"):
        model = documents.model_from_doc(doc)
    frame = model.frame
    with span("structures.hist_tables"):
        frame.hist_future_masks, frame.hist_past_masks, frame.hist_class_masks
    with span("structures.rel_tables"):
        (frame.rel_successor_masks, frame.rel_predecessor_masks,
         frame.rel_same_moment_masks)
    with span("formula.parse"):
        formulas = [parse(t) for t in formula_texts]
    op_eval = Evaluator(model)
    op_eval.extension_mask(Atom("p0"))
    op_eval.extension_mask(Atom("p1"))
    probes = []
    for op, phi in PROBE_FORMULAS:
        with span(f"semantics.op.{op}"):
            probes.append(op_eval.extension_mask(phi))
    with span("semantics.eval_hist"):
        ev = Evaluator(model, relational=False)
        hist = [ev.extension_mask(phi) for phi in formulas]
    with span("semantics.eval_rel"):
        ev = Evaluator(model, relational=True)
        rel = [ev.extension_mask(phi) for phi in formulas]
    return report, model, formulas, hist, rel, probes


def check(req: Request, seed: int, outputs, golden) -> None:
    report, model, formulas, hist, rel, probes = outputs
    if not report.ok:
        req.failures.append(f"document invalid: {report.kinds()}")
    for phi, h, r in zip(formulas, hist, rel):
        if not contains_f(phi) and h != r:
            req.failures.append(f"hist and rel disagree on {format_formula(phi)}")
            break
    req.digest = digest(*(format(m, "x") for m in hist + rel + probes))
    if golden is not None and golden.get(req.key) != req.digest:
        req.failures.append("mask digest differs from the recorded one")
    rng = random.Random(f"{seed}:{req.rid}")
    naive = NaiveEvaluator(model)
    pts = model.frame.point_list
    for _ in range(ORACLE_SAMPLES):
        i = rng.randrange(len(pts))
        k = rng.randrange(len(formulas))
        if naive.holds(pts[i], formulas[k]) != bool(hist[k] >> i & 1):
            req.failures.append(
                f"naive evaluation differs at {pts[i].text()} on formula {k}")


def run(inputs: Inputs, tracer, golden, untraced=None) -> list[Request]:
    """Every request in order.  With ``untraced`` (a traced run), each
    request is also timed by ``untraced(thunk)`` with tracing off, before the
    traced run for odd request ids and after it for even ones."""
    requests = []
    for rid, (size, seed) in enumerate(inputs.order, 1):
        key = doc_key(size, seed)
        text, formula_texts = inputs.documents[key]
        req = Request(rid, key)
        tracer.request_id = rid
        try:
            if untraced is not None and rid % 2:
                req.untraced_seconds = untraced(
                    lambda: handle(text, formula_texts, tracer))
            req.start = perf_counter()
            with tracer.span("request"):
                outputs = handle(text, formula_texts, tracer)
            req.seconds = perf_counter() - req.start
            if untraced is not None and not rid % 2:
                req.untraced_seconds = untraced(
                    lambda: handle(text, formula_texts, tracer))
        except Exception as exc:  # a failed request, counted; the run goes on
            outputs = None
            req.failures.append(f"exception: {exc!r}")
        if outputs is not None:
            if tracer.recording:
                tracer.count("structures.points", len(outputs[1].frame.point_list))
                tracer.count("formula.dag_nodes", dag_size(outputs[2]))
            check(req, inputs.seed, outputs, golden)
        requests.append(req)
    return requests


def named_requests(requests: list[Request]) -> dict[str, tuple[str, set[int]]]:
    """Per-call times of the ROADMAP reference frame."""
    ref = doc_key("large", REFERENCE_SEED)
    return {"structures.rel_tables_2006pts_s":
            ("structures.rel_tables", {r.rid for r in requests if r.key == ref})}


def record(workdir) -> dict:
    """Digests of every pool member, for the golden file."""
    from spans import Tracer

    out = {}
    for size, pool in POOLS.items():
        for seed in pool:
            key = doc_key(size, seed)
            req = Request(0, key)
            check(req, 0, handle(*make_document(size, seed), Tracer()), None)
            if req.failures:
                raise SystemExit(f"{key}: {req.failures}")
            out[key] = req.digest
    return out
