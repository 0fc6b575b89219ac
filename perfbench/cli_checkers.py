"""Workload ``cli-checkers``: in-process ``itl.cli.run`` calls.

The checkers, the searches and the CLI and document layers do the work, and
the evaluator is used a third way: many short-lived evaluators (one per
valuation in ``check`` on frames, two per ``distinguish``).

Every call comes from a fixed pool of call specs over generated documents
and ``tests/data``; the seed picks the specs and their order, and set-up
writes only the documents the picked calls read.  A block holds

* 10 heavy calls: ``bisim-max`` on pairs of about 70 points (self-pairs,
  whose greatest bisimulation is large, and foreign pairs, which the
  deletion loop nearly empties), one of them the 68x68 reference pair;
* 10 medium calls: ``bisim-max`` and ``bisim-check`` on pairs of about 30
  points (one of them the 28x31 reference pair), ``distinguish`` at
  depth 3 and 4 on bisimilar and other anchors, ``check --valid`` and
  ``check --sat`` on frames of 6-10 points;
* 45 light calls: ``validate``, ``points``, ``histories``, ``eval``,
  ``gen``, ``pmorph`` and ``pmorph-search``.

So the median falls among the light calls and the tail (ten calls beyond
it) among the heavy ones, never on a class boundary.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from time import perf_counter

from itl import documents, format_formula, gen_random_frame, gen_random_model, random_formula
from itl.cli import run as cli_run
from itl.structures import Model

from common import Request, blocks_for, digest

NAME = "cli-checkers"
INSTRUMENT = True

BLOCK_SECONDS = 7.0
BIG_SEEDS = tuple(range(3, 11))    # 60 moments, about 70 points; 3 and 4 give 68x68
MID_SEEDS = tuple(range(3, 11))    # 25 moments, about 30 points; 3 and 4 give 28x31
# 10 moments, 10-13 points: a full depth-4 distinguishing search takes
# 0.1-0.4 s on these, below every heavy call.
DIST_SEEDS = (22, 23, 24, 27, 28, 31, 35, 38)
FRAME_SEEDS = tuple(range(40, 56))  # at most 7 points: within the search bound
CHECK_SEEDS = tuple(range(60, 76))  # 6-10 points
TEST_DATA = ("tests/data/f1.model.json", "tests/data/fork.frame.json",
             "tests/data/cycle.frame.json")
VALID_FORMULAS = ("G p -> G G p", "H p -> H H p", "L p -> p", "p -> L M p",
                  "G p -> F p", "L p -> L L p")
SAT_FORMULAS = ("p & G ~p & L ~p", "p & f ~p", "M p & ~p", "F p & ~f p",
                "P p & H ~p", "G p & g ~p")
EVAL_FORMULAS = ("f p", "F p", "G p", "M p", "P p", "~(p & G ~p)")

# Calls per block, by pool group (subcommand plus kind of input).  Fixed
# quotas per kind keep the runs of different seeds alike in time and memory.
QUOTAS = (
    ("bisim-max/big-self-L", 2), ("bisim-max/big-self-LF", 2),
    ("bisim-max/big-foreign-L", 3), ("bisim-max/big-foreign-LF", 3),
    ("bisim-max/mid-self-LF", 1), ("bisim-max/mid-foreign-L", 1),
    ("bisim-max/mid-foreign-LF", 1),
    ("bisim-check", 3), ("distinguish/full", 1), ("distinguish/other", 1),
    ("check/valid", 1), ("check/sat", 1),
    ("validate", 7), ("points", 6), ("histories", 6), ("eval", 8), ("gen", 6),
    ("pmorph", 6), ("pmorph-search", 6),
)
REFERENCES = {"bisim-max/big-foreign-LF": "bisim-max:big3:big4:--mode:LF",
              "bisim-max/mid-foreign-LF": "bisim-max:mid3:mid4:--mode:LF"}


@dataclass(frozen=True)
class Spec:
    """One call of the pool.  Arguments written ``@name`` are documents."""

    id: str
    group: str
    argv: tuple[str, ...]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _partner(pool, s):
    return pool[(pool.index(s) + 1) % len(pool)]


@lru_cache(maxsize=None)
def _model(name: str) -> Model:
    kind, seed = name.rstrip("0123456789"), int(name.lstrip("abcdefghijklmnopqrstuvwxyz"))
    if kind == "big":
        return gen_random_model(seed, 60, branching=2, indist_policy="coarsened")
    if kind == "mid":
        return gen_random_model(seed, 25, branching=2, indist_policy="coarsened")
    return gen_random_model(seed, 10, branching=2, indist_policy="coarsened")


@lru_cache(maxsize=None)
def _frame(name: str):
    seed = int(name.lstrip("abcdefghijklmnopqrstuvwxyz"))
    if name.startswith("frame"):
        return gen_random_frame(seed, 3 + seed % 3, branching=2, indist_policy="coarsened")
    return gen_random_frame(seed, 5 + seed % 4, branching=2, indist_policy="coarsened")


def _first(name: str) -> str:
    return _model(name).frame.point_list[0].text()


def make_document(name: str):
    """The JSON document called ``name`` in the pool."""
    kind, _, rest = name.partition("-")
    if kind in ("id", "rnd"):  # relations between two models
        a, b = rest.split("~")
        pa, pb = _model(a).frame.point_list, _model(b).frame.point_list
        if kind == "id":
            pairs = [(p, p) for p in pa]
        else:
            rng = random.Random(name)
            pairs = [(rng.choice(pa), rng.choice(pb)) for _ in range(6)]
        return [[[p.moment, p.class_rep], [q.moment, q.class_rep]] for p, q in pairs]
    if kind in ("idmap", "rndmap"):  # point maps between two frames
        a, b = rest.split("~")
        pa, pb = _frame(a).point_list, _frame(b).point_list
        rng = random.Random(name)
        mapping = {p: (p if kind == "idmap" else rng.choice(pb)) for p in pa}
        return [[[p.moment, p.class_rep], [q.moment, q.class_rep]]
                for p, q in mapping.items()]
    if name.startswith(("frame", "check")):
        return documents.frame_to_doc(_frame(name))
    return documents.model_to_doc(_model(name))


def pool_specs() -> list[Spec]:
    specs = []

    def add(group, *argv):
        specs.append(Spec(":".join(argv).replace("@", ""), group, argv))

    for size, pool in (("big", BIG_SEEDS), ("mid", MID_SEEDS)):
        for s in pool:
            for t in (s, _partner(pool, s)):
                kind = "self" if t == s else "foreign"
                for mode in ("L", "LF"):
                    add(f"bisim-max/{size}-{kind}-{mode}", "bisim-max",
                        f"@{size}{s}", f"@{size}{t}", "--mode", mode)
            t = _partner(pool, s)
            first_s, first_t = _first(f"{size}{s}"), _first(f"{size}{t}")
            for mode in ("L", "LF"):
                add("bisim-check", "bisim-check", f"@{size}{s}", f"@{size}{s}",
                    f"@id-{size}{s}~{size}{s}", "--anchors", first_s, first_s,
                    "--mode", mode)
                add("bisim-check", "bisim-check", f"@{size}{s}", f"@{size}{t}",
                    f"@rnd-{size}{s}~{size}{t}", "--anchors", first_s, first_t,
                    "--mode", mode)
    for s in DIST_SEEDS:
        t = _partner(DIST_SEEDS, s)
        first_s, first_t = _first(f"dist{s}"), _first(f"dist{t}")
        for depth in ("3", "4"):
            # bisimilar anchors at depth 4: the whole search, several MB
            group = "distinguish/full" if depth == "4" else "distinguish/other"
            add(group, "distinguish", f"@dist{s}", f"@dist{s}",
                "--anchors", first_s, first_s, "--max-depth", depth)
            add("distinguish/other", "distinguish", f"@dist{s}", f"@dist{t}",
                "--anchors", first_s, first_t, "--max-depth", depth)
    for i, s in enumerate(CHECK_SEEDS):
        add("check/valid", "check", f"@check{s}", "--valid",
            "--formula", VALID_FORMULAS[i % len(VALID_FORMULAS)])
        add("check/sat", "check", f"@check{s}", "--sat",
            "--formula", SAT_FORMULAS[i % len(SAT_FORMULAS)])
    for sub in ("validate", "points", "histories"):
        for path in TEST_DATA[:2] + ((TEST_DATA[2],) if sub == "validate" else ()):
            add(sub, sub, path)
        for s in FRAME_SEEDS[:8]:
            add(sub, sub, f"@frame{s}")
        for s in MID_SEEDS[:4]:
            add(sub, sub, f"@mid{s}")
    for text in EVAL_FORMULAS:
        add("eval", "eval", TEST_DATA[0], "--at", "r/a", "--formula", text,
            "--semantics", "both")
    for s in MID_SEEDS:
        rng = random.Random(f"eval:{s}")
        at = rng.choice(_model(f"mid{s}").frame.point_list).text()
        text = format_formula(random_formula(rng.randrange(10 ** 6), 4, ("p0", "p1")))
        add("eval", "eval", f"@mid{s}", "--at", at, "--formula", text,
            "--semantics", "both")
    for s in range(16):
        add("gen", "gen", "--seed", str(s), "--moments", str(10 + s),
            "--indist", ("coarsened", "undividedness")[s % 2])
    for s in FRAME_SEEDS[:8]:
        t = _partner(FRAME_SEEDS, s)
        for mode in ("L", "LF"):
            add("pmorph", "pmorph", f"@frame{s}", f"@frame{s}",
                f"@idmap-frame{s}~frame{s}", "--mode", mode)
            add("pmorph", "pmorph", f"@frame{s}", f"@frame{t}",
                f"@rndmap-frame{s}~frame{t}", "--mode", mode)
            add("pmorph-search", "pmorph-search", f"@frame{s}", f"@frame{t}",
                "--mode", mode)
            add("pmorph-search", "pmorph-search", f"@frame{s}", f"@frame{s}",
                "--surjective", "--mode", mode)
    return specs


@dataclass
class Inputs:
    seed: int
    workdir: Path
    order: list[Spec]


def plan(seed: int, blocks: int) -> list[Spec]:
    rng = random.Random(seed)
    specs = pool_specs()
    by_group: dict[str, list[Spec]] = {}
    for spec in specs:
        by_group.setdefault(spec.group, []).append(spec)
    by_id = {spec.id: spec for spec in specs}
    order = []
    for _ in range(blocks):
        block = []
        for group, n in QUOTAS:
            picks = rng.sample(by_group[group], n)
            if group in REFERENCES:
                ref = by_id[REFERENCES[group]]
                picks = [ref] + [p for p in picks if p is not ref][:n - 1]
            block.extend(picks)
        rng.shuffle(block)
        order.extend(block)
    return order


def _path(workdir, name: str) -> str:
    return os.path.relpath(workdir / f"{name}.json")


def write_documents(specs, workdir) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    names = {a[1:] for spec in specs for a in spec.argv if a.startswith("@")}
    for name in sorted(names):
        (workdir / f"{name}.json").write_text(
            documents.dumps(make_document(name)), encoding="utf-8")


def setup(seed: int, seconds: float, workdir) -> Inputs:
    _model.cache_clear()  # every set-up generates its inputs afresh
    _frame.cache_clear()
    order = plan(seed, blocks_for(seconds, BLOCK_SECONDS))
    write_documents(order, workdir / "cli")
    return Inputs(seed, workdir / "cli", order)


def argv_of(spec: Spec, workdir) -> list[str]:
    return [_path(workdir, a[1:]) if a.startswith("@") else a for a in spec.argv]


def call(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_run(argv)
    return code, out.getvalue()


def replay(spec: Spec, argv: list[str], code: int, stdout: str, workdir) -> list[str]:
    """Independent replays of the call's witnesses through the CLI."""
    failures = []
    sub = spec.subcommand
    mode = argv[argv.index("--mode") + 1] if "--mode" in argv else "LF"
    if sub == "bisim-max":
        relation = json.loads(stdout)
        if relation:
            path = workdir / "replay-relation.json"
            path.write_text(json.dumps(relation), encoding="utf-8")
            p, q = relation[0]
            got, _ = call(["bisim-check", argv[1], argv[2], os.path.relpath(path),
                           "--anchors", "/".join(p), "/".join(q), "--mode", mode])
            if got != 0:
                failures.append("greatest bisimulation fails bisim-check at its first pair")
    elif sub == "distinguish" and code == 0:
        a, b = argv[argv.index("--anchors") + 1:][:2]
        formula = stdout.strip()
        verdicts = [call(["eval", doc, "--at", at, "--formula", formula,
                          "--mode", mode, "--semantics", "both"])[0]
                    for doc, at in ((argv[1], a), (argv[2], b))]
        if 2 in verdicts or verdicts[0] == verdicts[1]:
            failures.append(f"{formula} does not distinguish the anchors")
    elif sub == "pmorph-search":
        path = workdir / "replay-map.json"
        for line in stdout.splitlines()[:-1]:
            path.write_text(line, encoding="utf-8")
            got, _ = call(["pmorph", argv[1], argv[2], os.path.relpath(path),
                           "--mode", mode])
            if got != 0:
                failures.append(f"found map fails pmorph: {line}")
                break
    return failures


def run(inputs: Inputs, tracer, golden, untraced=None) -> list[Request]:
    """Every call in order, then the replays.  With ``untraced`` (a traced
    run), each call is also timed by ``untraced(thunk)`` with tracing off,
    before the traced call for odd request ids and after it for even ones."""
    requests = []
    outputs = {}
    for rid, spec in enumerate(inputs.order, 1):
        argv = argv_of(spec, inputs.workdir)
        req = Request(rid, spec.id)
        tracer.request_id = rid
        try:
            if untraced is not None and rid % 2:
                req.untraced_seconds = untraced(lambda: call(argv))
            req.start = perf_counter()
            with tracer.span(f"cli.{spec.subcommand}"):
                code, stdout = call(argv)
            req.seconds = perf_counter() - req.start
            if untraced is not None and not rid % 2:
                req.untraced_seconds = untraced(lambda: call(argv))
        except Exception as exc:  # a failed request, counted; the run goes on
            code, stdout = None, ""
            req.failures.append(f"exception: {exc!r}")
        req.digest = digest(code, stdout)
        if golden is not None and golden.get(spec.id) != req.digest:
            req.failures.append(f"exit code or stdout differs from the recorded ones (exit {code})")
        if code is not None:
            outputs[spec.id] = (spec, argv, code, stdout)
        requests.append(req)
    recording, tracer.recording = tracer.recording, False
    replay_failures = {}
    for key, out in outputs.items():
        try:
            replay_failures[key] = replay(*out, workdir=inputs.workdir)
        except Exception as exc:  # e.g. stdout that is not the expected JSON
            replay_failures[key] = [f"replay raised {exc!r}"]
    tracer.recording = recording
    for req in requests:
        req.failures.extend(replay_failures.get(req.key, ()))
    return requests


def named_requests(requests: list[Request]) -> dict[str, tuple[str, set[int]]]:
    """Per-call times of the ROADMAP reference pairs (mode LF)."""
    def rids(spec_id):
        return {r.rid for r in requests if r.key == spec_id}

    return {
        "bisimulation.greatest_68x68_s":
            ("bisimulation.greatest", rids(REFERENCES["bisim-max/big-foreign-LF"])),
        "bisimulation.greatest_28x31_s":
            ("bisimulation.greatest", rids(REFERENCES["bisim-max/mid-foreign-LF"])),
    }


def record(workdir) -> dict:
    """Exit code and stdout digest of every pool call, for the golden file."""
    specs = pool_specs()
    write_documents(specs, workdir / "cli")
    out = {}
    for spec in specs:
        argv = argv_of(spec, workdir / "cli")
        code, stdout = call(argv)
        failures = replay(spec, argv, code, stdout, workdir / "cli")
        if failures or code == 2:
            raise SystemExit(f"{spec.id}: exit {code} {failures}")
        out[spec.id] = digest(code, stdout)
    return out
