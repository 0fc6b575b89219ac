"""The verification battery behind ``itl suite`` and the acceptance tests.

Each criterion is a method of :class:`Battery` returning a
:class:`CriterionResult`; shared artifacts (random models, found morphisms,
greatest bisimulations, per-model truth signatures over the exhaustive
formula corpus) are computed once and cached on the battery instance.  All
randomness flows from the battery seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, product

from . import catalog
from .bisimulation import (
    PointRelation, check_bisimulation, find_distinguishing_formula,
    greatest_bisimulation,
)
from .documents import parse_point, resolve_point, validate_doc
from .formula import (
    Program, corpus_program, enumerate_formulas, format_formula, parse,
    random_formula,
)
from .generate import gen_random_model
from .morphisms import (
    PointMap, check_frame_pmorphism, check_model_pmorphism,
    check_set_characterization, pullback_valuation, search_pmorphisms,
)
from .semantics import Evaluator, eval_hist, eval_rel
from .structures import (
    Frame, Model, future_points, points, precedes, same_moment,
)

CORPUS_ATOMS = ("p", "q")
CORPUS_DEPTH = 3

# per bit of a byte, a bytes.translate table taking each byte to '1' where
# that bit is set and to '0' elsewhere
_BIT_CHARS = [(b"0" * (1 << bit) + b"1" * (1 << bit)) * (128 >> bit)
              for bit in range(8)]


def _point_columns(masks: list[int], n: int) -> list[str]:
    """Per point i < n, the string of its bits over the masks: '1' where
    mask k has bit i, '0' elsewhere."""
    width = (n + 7) // 8
    data = bytes(masks) if width == 1 else b"".join(
        m.to_bytes(width, "little") for m in masks)
    return [data[i // 8::width].translate(_BIT_CHARS[i % 8]).decode("ascii")
            for i in range(n)]


def _all_pairs(src: Model, dst: Model):
    """Every (source, target) point pair, in the canonical pair order."""
    return product(points(src.frame), points(dst.frame))


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.number:2}] {status} {self.name}: {self.detail} ({self.seconds:.1f}s)"

    def to_doc(self) -> dict:
        return {"number": self.number, "name": self.name, "passed": self.passed,
                "detail": self.detail, "seconds": round(self.seconds, 2)}


def _timed(number: int, name: str, body) -> CriterionResult:
    start = time.perf_counter()
    passed, detail = body()
    return CriterionResult(number, name, passed, detail,
                           time.perf_counter() - start)


class Battery:
    CRITERIA = range(1, 11)
    N_MODELS = 200
    N_FORMULAS = 1000
    MAX_POINTS = 8
    RANDOM_DEPTH = 4
    N_SAMPLED_MAPS = 10_000

    def __init__(self, seed: int = 42):
        self.seed = seed
        self._signatures: dict = {}
        self._valid: dict = {}

    # ------------------------------------------------------------------
    # shared materials
    # ------------------------------------------------------------------

    @cached_property
    def battery_models(self) -> list[Model]:
        """Seeded random models with at most MAX_POINTS points."""
        rng = random.Random(self.seed)
        models = []
        while len(models) < self.N_MODELS:
            sub_seed = rng.randrange(2 ** 32)
            n_moments = rng.randint(1, 6)
            policy = "undividedness" if rng.random() < 0.5 else "coarsened"
            model = gen_random_model(sub_seed, n_moments, branching=3,
                                     indist_policy=policy, n_atoms=2)
            if len(points(model.frame)) <= self.MAX_POINTS:
                models.append(model)
        return models

    @cached_property
    def battery_formulas(self) -> list:
        return [random_formula(self.seed * 100_000 + j, self.RANDOM_DEPTH,
                               ("p0", "p1"), mode="L")
                for j in range(self.N_FORMULAS)]

    @cached_property
    def frames(self) -> dict[str, Frame]:
        """The frame catalogue, built once per battery."""
        return catalog.catalog_frames()

    def corpus(self, mode: str):
        return enumerate_formulas(CORPUS_ATOMS, CORPUS_DEPTH, mode)

    def corpus_program(self, mode: str) -> Program:
        """The corpus as a program: slot k is formula k of corpus(mode)."""
        return corpus_program(CORPUS_ATOMS, CORPUS_DEPTH, mode)

    def signatures(self, model: Model, mode: str) -> list[str]:
        """Per point, the bit-string of truth values over the whole corpus;
        computed once per frame, valuation and mode."""
        key = (model.frame, frozenset(model.valuation.items()), mode)
        if key not in self._signatures:
            masks = Evaluator(model, mode=mode).run(self.corpus_program(mode))
            self._signatures[key] = _point_columns(masks, len(model.frame.point_list))
        return self._signatures[key]

    # ------------------------------------------------------------------
    # criterion 1: the two semantics agree
    # ------------------------------------------------------------------

    def criterion_1(self) -> CriterionResult:
        def body():
            models = self.battery_models
            formulas = self.battery_formulas
            program = Program("L")
            roots = [program.add(phi) for phi in formulas]
            disagreements = 0
            for model in models:
                by_clauses = Evaluator(model, relational=False, mode="L").run(program)
                by_relations = Evaluator(model, relational=True, mode="L").run(program)
                disagreements += sum(by_clauses[r] != by_relations[r] for r in roots)
            detail = (f"{len(models)} models x {len(formulas)} formulas x all "
                      f"points, {disagreements} disagreements")
            return disagreements == 0, detail

        return _timed(1, "semantics-equivalence", body)

    # ------------------------------------------------------------------
    # criterion 2: surface abbreviations match their expansions
    # ------------------------------------------------------------------

    def criterion_2(self) -> CriterionResult:
        def body():
            models = self.battery_models
            formulas = self.battery_formulas
            wrappers = (("P", "~H ~"), ("f", "~G ~"), ("M", "~L ~"), ("g", "~F ~"))
            # hash-consed: two formulas share a slot exactly when they are equal
            program = Program("LF")
            pairs = []
            for phi in formulas:
                s = format_formula(phi)
                for surface, expansion in wrappers:
                    pairs.append((program.add(parse(f"{surface} ({s})", "LF")),
                                  program.add(parse(f"{expansion}({s})", "LF"))))
            structural_mismatches = sum(a != b for a, b in pairs)
            disagreements = 0
            for model in models:
                masks = Evaluator(model, mode="LF").run(program)
                disagreements += sum(masks[a] != masks[b] for a, b in pairs)
            detail = (f"{len(pairs)} abbreviation pairs x {len(models)} models: "
                      f"{structural_mismatches} parse mismatches, "
                      f"{disagreements} evaluation disagreements")
            return structural_mismatches == 0 and disagreements == 0, detail

        return _timed(2, "abbreviation-theorems", body)

    # ------------------------------------------------------------------
    # criterion 3: the strong/weak future separation example
    # ------------------------------------------------------------------

    def criterion_3(self) -> CriterionResult:
        def body():
            import os
            import tempfile

            from .cli import run as cli_run

            model = catalog.f1_model()
            at = resolve_point(model.frame, "r", "a")
            dual = parse("f p")
            weak = parse("F p")
            api_ok = (eval_hist(model, at, dual) and eval_rel(model, at, dual)
                      and not eval_hist(model, at, weak)
                      and not eval_rel(model, at, weak))

            with tempfile.NamedTemporaryFile("w", suffix=".model.json",
                                             delete=False) as handle:
                json.dump(catalog.F1_MODEL_DOC, handle)
                path = handle.name
            outputs = []
            codes = []
            try:
                for text in ("f p", "F p"):
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        codes.append(cli_run([
                            "eval", path, "--at", "r/a", "--formula", text,
                            "--semantics", "both"]))
                    outputs.append(buf.getvalue())
            finally:
                os.unlink(path)
            cli_ok = (outputs[0] == "hist: true\nrel: true\n" and codes[0] == 0
                      and outputs[1] == "hist: false\nrel: false\n" and codes[1] == 1)
            detail = (f"f p -> true, F p -> false at r/a; CLI output and exit "
                      f"codes {'reproduced' if cli_ok else 'DIFFER'}")
            return api_ok and cli_ok, detail

        return _timed(3, "weak-future-separation", body)

    # ------------------------------------------------------------------
    # criterion 4: condition checker vs set characterization
    # ------------------------------------------------------------------

    @cached_property
    def _c4_data(self):
        frames = list(self.frames.values())
        rng = random.Random(self.seed + 4)
        agree = True
        checked = 0
        passing = 0
        failing_samples = []
        for _ in range(self.N_SAMPLED_MAPS):
            src = frames[rng.randrange(len(frames))]
            dst = frames[rng.randrange(len(frames))]
            dst_pts = points(dst)
            mapping = {p: dst_pts[rng.randrange(len(dst_pts))]
                       for p in points(src)}
            f = PointMap(mapping)
            report = check_frame_pmorphism(src, dst, f, mode="L")
            characterized = check_set_characterization(src, dst, f)
            checked += 1
            if report.ok != characterized:
                agree = False
            if report.ok:
                passing += 1
            elif len(failing_samples) < 60:
                failing_samples.append((src, dst, f, report))
        return {"agree": agree, "checked": checked, "passing": passing,
                "failing_samples": failing_samples}

    def criterion_4(self) -> CriterionResult:
        def body():
            data = self._c4_data
            detail = (f"{data['checked']} sampled maps over the catalogue, "
                      f"{data['passing']} were p-morphisms; checker and "
                      f"characterization {'agree' if data['agree'] else 'DISAGREE'}")
            return data["agree"], detail

        return _timed(4, "pmorphism-characterization", body)

    # ------------------------------------------------------------------
    # criterion 5: truth preservation along found p-morphisms
    # ------------------------------------------------------------------

    def _dst_valuations(self, frame: Frame, tag: int):
        return ({}, catalog.random_valuation(self.seed + 50_000 + tag, frame))

    @cached_property
    def _c5_data(self):
        frames = self.frames
        triples = []  # (src model, dst model, map, mode)
        mismatches = 0
        maps_found = 0
        for mode in ("L", "LF"):
            for i, (sname, src) in enumerate(frames.items()):
                for j, (dname, dst) in enumerate(frames.items()):
                    for f in search_pmorphisms(src, dst, mode=mode):
                        maps_found += 1
                        for valuation in self._dst_valuations(dst, i * 31 + j):
                            dst_model = Model(dst, dict(valuation))
                            src_model = Model(src, pullback_valuation(
                                dst_model.valuation, f))
                            sig_src = self.signatures(src_model, mode)
                            sig_dst = self.signatures(dst_model, mode)
                            dst_index = dst.point_index
                            for k, p in enumerate(points(src)):
                                if sig_src[k] != sig_dst[dst_index[f(p)]]:
                                    mismatches += 1
                            triples.append((src_model, dst_model, f, mode))
        return {"triples": triples, "mismatches": mismatches,
                "maps_found": maps_found}

    def criterion_5(self) -> CriterionResult:
        def body():
            data = self._c5_data
            corpus_sizes = (len(self.corpus_program("L")),
                            len(self.corpus_program("LF")))
            detail = (f"{data['maps_found']} maps found (both modes), "
                      f"{len(data['triples'])} model p-morphisms x corpus "
                      f"{corpus_sizes} x all points, "
                      f"{data['mismatches']} evaluation mismatches")
            return data["mismatches"] == 0, detail

        return _timed(5, "pmorphism-preservation", body)

    # ------------------------------------------------------------------
    # criterion 6: validity preservation along surjective p-morphisms
    # ------------------------------------------------------------------

    def valid_corpus_formulas(self, frame: Frame) -> set[int]:
        """Indices of corpus (mode L) formulas valid in the frame, computed by
        filtering over every valuation of the corpus atoms.  Each valuation
        evaluates only what the formulas still valid depend on.  Computed
        once per frame."""
        if frame in self._valid:
            return self._valid[frame]
        ev = Evaluator(Model(frame, {}), mode="L")
        n = len(frame.point_list)
        full = frame.full_mask
        program = self.corpus_program("L")
        alive = list(range(len(program)))  # corpus indices still valid
        roots = alive  # their slots in program
        for assignment in product(range(1 << n), repeat=len(CORPUS_ATOMS)):
            masks = ev.run(program, dict(zip(CORPUS_ATOMS, assignment)))
            kept = [k for k, r in enumerate(roots) if masks[r] == full]
            if len(kept) < len(roots):
                alive = [alive[k] for k in kept]
                if not alive:
                    break
                program, roots = program.restrict([roots[k] for k in kept])
        self._valid[frame] = set(alive)
        return self._valid[frame]

    @cached_property
    def _c6_data(self):
        frames = {name: frame for name, frame in self.frames.items()
                  if len(frame.point_list) <= 4}
        surjective_maps = []
        violations = 0
        pv_failures = 0
        for i, (sname, src) in enumerate(frames.items()):
            for j, (dname, dst) in enumerate(frames.items()):
                for f in search_pmorphisms(src, dst, mode="L", surjective=True):
                    surjective_maps.append((src, dst, f))
                    valid_src = self.valid_corpus_formulas(src)
                    valid_dst = self.valid_corpus_formulas(dst)
                    if not valid_src <= valid_dst:
                        violations += len(valid_src - valid_dst)
                    for valuation in self._dst_valuations(dst, i * 37 + j):
                        dst_model = Model(dst, dict(valuation))
                        src_model = Model(src, pullback_valuation(
                            dst_model.valuation, f))
                        if not check_model_pmorphism(
                                src_model, dst_model, f, mode="L").ok:
                            pv_failures += 1
        return {"maps": surjective_maps, "violations": violations,
                "pv_failures": pv_failures}

    def criterion_6(self) -> CriterionResult:
        def body():
            data = self._c6_data
            detail = (f"{len(data['maps'])} surjective maps on frames <= 4 "
                      f"points, corpus {len(self.corpus_program('L'))}: "
                      f"{data['violations']} validity-preservation violations, "
                      f"{data['pv_failures']} pullback PV failures")
            return data["violations"] == 0 and data["pv_failures"] == 0, detail

        return _timed(6, "validity-preservation", body)

    # ------------------------------------------------------------------
    # criterion 7: bisimulations imply formula agreement at their anchors
    # ------------------------------------------------------------------

    @cached_property
    def _c7_data(self):
        items = list(catalog.catalog_models(self.seed + 7, self.frames).items())
        relations = []  # (src model, dst model, mode, relation)
        agreement_failures = 0
        check_failures = 0
        for mode in ("L", "LF"):
            for sname, src in items:
                for dname, dst in items:
                    rel = greatest_bisimulation(src, dst, mode=mode)
                    relations.append((src, dst, mode, rel))
                    if not rel.pairs:
                        continue
                    anchor = rel.sorted_pairs()[0]
                    if not check_bisimulation(src, dst, rel, anchor, mode).ok:
                        check_failures += 1
                        continue
                    sig_src = self.signatures(src, mode)
                    sig_dst = self.signatures(dst, mode)
                    for p, q in rel.pairs:
                        if sig_src[src.frame.point_index[p]] != \
                                sig_dst[dst.frame.point_index[q]]:
                            agreement_failures += 1
        # graphs of the model p-morphisms found by search
        graph_failures = 0
        graphs_checked = 0
        for src_model, dst_model, f, mode in self._c5_data["triples"]:
            graph = PointRelation(frozenset(f.mapping.items()))
            anchor = graph.sorted_pairs()[0]
            graphs_checked += 1
            if not check_bisimulation(src_model, dst_model, graph,
                                      anchor, mode).ok:
                graph_failures += 1
        return {"relations": relations,
                "agreement_failures": agreement_failures,
                "check_failures": check_failures,
                "graphs_checked": graphs_checked,
                "graph_failures": graph_failures}

    def criterion_7(self) -> CriterionResult:
        def body():
            data = self._c7_data
            nonempty = sum(1 for *_x, rel in data["relations"] if rel.pairs)
            detail = (f"{nonempty} greatest bisimulations verified and "
                      f"agreement-checked over the corpus "
                      f"({data['check_failures']} condition failures, "
                      f"{data['agreement_failures']} agreement failures); "
                      f"{data['graphs_checked']} p-morphism graphs pass "
                      f"({data['graph_failures']} failures; their point "
                      f"agreement is criterion 5)")
            ok = (data["agreement_failures"] == 0 and data["check_failures"] == 0
                  and data["graph_failures"] == 0)
            return ok, detail

        return _timed(7, "bisimulation-preservation", body)

    # ------------------------------------------------------------------
    # criterion 8: the fixpoint is maximal
    # ------------------------------------------------------------------

    def criterion_8(self) -> CriterionResult:
        def body():
            data = self._c7_data
            readded = 0
            unbroken = 0
            for src, dst, mode, rel in data["relations"]:
                for pair in _all_pairs(src, dst):
                    if pair in rel.pairs:
                        continue
                    extended = PointRelation(rel.pairs | {pair})
                    report = check_bisimulation(src, dst, extended, pair, mode)
                    readded += 1
                    if report.ok:
                        unbroken += 1
            detail = (f"{readded} re-added pairs across all model pairs and "
                      f"modes, {unbroken} failed to break a condition")
            return unbroken == 0, detail

        return _timed(8, "fixpoint-maximality", body)

    # ------------------------------------------------------------------
    # criterion 9: witnesses and distinguishing formulas replay
    # ------------------------------------------------------------------

    def criterion_9(self) -> CriterionResult:
        def body():
            replayed = 0
            failures = 0

            # validator witnesses over the malformed corpus
            for name, kind, doc in catalog.MALFORMED_DOCUMENTS:
                report = validate_doc(doc)
                for violation in report.violations:
                    if violation.kind != kind:
                        continue
                    replayed += 1
                    if not _replay_document_violation(doc, violation):
                        failures += 1

            # p-morphism condition witnesses from the sampled failing maps
            for src, dst, f, report in self._c4_data["failing_samples"]:
                for violation in report.violations:
                    replayed += 1
                    if not _replay_map_violation(src, dst, f, violation):
                        failures += 1

            # a valuation-agreement witness: collapse map with a one-sided atom
            fork = catalog.frame_fork()
            chain = catalog.frame_chain2()
            collapse = PointMap({
                resolve_point(fork, "r", "a"): resolve_point(chain, "r", "a"),
                resolve_point(fork, "a", "a"): resolve_point(chain, "a", "a"),
                resolve_point(fork, "b", "b"): resolve_point(chain, "a", "a"),
            })
            src_model = Model(fork, {"p": frozenset({resolve_point(fork, "a", "a")})})
            dst_model = Model(chain, {"p": frozenset({resolve_point(chain, "a", "a")})})
            pv_report = check_model_pmorphism(src_model, dst_model, collapse, "L")
            for violation in pv_report.violations:
                replayed += 1
                if not _replay_pv_violation(src_model, dst_model, collapse,
                                            violation):
                    failures += 1

            # bisimulation condition witnesses from re-added pairs
            bisim_replays = 0
            for src, dst, mode, rel in self._c7_data["relations"]:
                if bisim_replays >= 60:
                    break
                pair = next((pq for pq in _all_pairs(src, dst)
                             if pq not in rel.pairs), None)
                if pair is None:
                    continue
                extended = PointRelation(rel.pairs | {pair})
                report = check_bisimulation(src, dst, extended, pair, mode)
                for violation in report.violations:
                    replayed += 1
                    bisim_replays += 1
                    if not _replay_relation_violation(src, dst, extended,
                                                      violation):
                        failures += 1

            # distinguishing formulas distinguish; bisimilar anchors get none
            distinguishers = 0
            nones_checked = 0
            for src, dst, mode, rel in self._c7_data["relations"][:40]:
                for pair in islice(_all_pairs(src, dst), 4):
                    p, q = pair
                    phi = find_distinguishing_formula(src, p, dst, q,
                                                      mode=mode, max_depth=3)
                    if phi is None:
                        nones_checked += 1
                        continue
                    replayed += 1
                    distinguishers += 1
                    # replay along both routes; a formula returned for a pair
                    # of the greatest bisimulation would itself be a failure
                    if eval_hist(src, p, phi, mode) == eval_hist(dst, q, phi, mode):
                        failures += 1
                    if eval_rel(src, p, phi, mode) == eval_rel(dst, q, phi, mode):
                        failures += 1
                    if pair in rel.pairs:
                        failures += 1

            detail = (f"{replayed} witnesses replayed "
                      f"({distinguishers} distinguishing formulas, "
                      f"{nones_checked} indistinguishable pairs), "
                      f"{failures} replay failures")
            return failures == 0, detail

        return _timed(9, "witness-soundness", body)

    # ------------------------------------------------------------------
    # criterion 10: the malformed corpus triggers the expected violations
    # ------------------------------------------------------------------

    def criterion_10(self) -> CriterionResult:
        def body():
            missed = []
            for name, kind, doc in catalog.MALFORMED_DOCUMENTS:
                report = validate_doc(doc)
                if report.ok or kind not in report.kinds():
                    missed.append(name)
            detail = (f"{len(catalog.MALFORMED_DOCUMENTS)} malformed documents, "
                      f"{len(missed)} missed ({', '.join(missed) or 'none'})")
            return not missed, detail

        return _timed(10, "structural-validators", body)

    # ------------------------------------------------------------------

    def run_all(self, numbers=None, log=None) -> list[CriterionResult]:
        numbers = sorted(numbers or self.CRITERIA)
        for n in numbers:
            if n not in self.CRITERIA:
                raise ValueError(f"no criterion {n!r}; criteria are numbered "
                                 f"{self.CRITERIA[0]}-{self.CRITERIA[-1]}")
        results = []
        for n in numbers:
            result = getattr(self, f"criterion_{n}")()
            results.append(result)
            if log is not None:
                log(result.line())
        return results


# ---------------------------------------------------------------------------
# witness replayers: independent unfoldings of the violated definitions
# ---------------------------------------------------------------------------

def _doc_order(doc):
    """Strict order pairs recomputed directly from the document's edges."""
    edges = [tuple(e) for e in doc["edges"]]
    nodes = set(doc["moments"]) | {m for e in edges for m in e}
    children = {m: set() for m in nodes}
    for a, b in edges:
        children[a].add(b)
    closure = set()
    for start in nodes:
        seen = set()
        stack = list(children[start])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(children[node])
        closure.update((start, s) for s in seen)
    return closure


def _doc_leaves(doc):
    order = _doc_order(doc)
    nodes = set(doc["moments"])
    return {m for m in nodes if not any(a == m for a, b in order)}


def _doc_through(doc, moment):
    order = _doc_order(doc)
    return {l for l in _doc_leaves(doc) if l == moment or (moment, l) in order}


def _replay_document_violation(doc, violation) -> bool:
    kind, w = violation.kind, violation.witness
    order = _doc_order(doc)
    if kind == "empty-structure":
        return not doc["moments"]
    if kind == "duplicate-moment":
        return doc["moments"].count(w["moment"]) > 1
    if kind == "duplicate-edge":
        return doc["edges"].count(w["edge"]) > 1
    if kind == "unknown-moment":
        return w["moment"] not in doc["moments"] and w["edge"] in doc["edges"]
    if kind == "cycle":
        return (w["moment"], w["moment"]) in order
    if kind == "downward-linearity":
        b, c = w["predecessors"]
        child = w["moment"]
        return ([b, child] in doc["edges"] and [c, child] in doc["edges"]
                and b != c and (b, c) not in order and (c, b) not in order)
    if kind == "non-immediate-edge":
        a, child = w["edge"]
        skipped = w["skipped"]
        return ([a, child] in doc["edges"] and (a, skipped) in order
                and [skipped, child] in doc["edges"])
    if kind == "indist-extra-moment":
        return w["moment"] in doc["indist"] and w["moment"] not in doc["moments"]
    if kind == "indist-missing-moment":
        return w["moment"] in doc["moments"] and w["moment"] not in doc["indist"]
    if kind == "empty-block":
        return [] in doc["indist"][w["moment"]]
    if kind == "partition-coverage":
        moment = w["moment"]
        through = _doc_through(doc, moment)
        if "extraneous" in w:
            placed = {l for block in doc["indist"][moment] for l in block}
            return w["extraneous"] in placed and w["extraneous"] not in through
        placed = {l for block in doc["indist"][moment] for l in block}
        return w["missing"] in through and w["missing"] not in placed
    if kind == "partition-overlap":
        count = sum(1 for block in doc["indist"][w["moment"]]
                    if w["leaf"] in block)
        blocks_with_dupes = any(block.count(w["leaf"]) > 1
                                for block in doc["indist"][w["moment"]])
        return count > 1 or blocks_with_dupes
    if kind == "backward-coherence":
        h, k = w["histories"]
        t, s = w["merged_at"], w["split_at"]
        def block_index(moment, leaf):
            for idx, block in enumerate(doc["indist"][moment]):
                if leaf in block:
                    return idx
            return None
        return ((s, t) in order
                and block_index(t, h) == block_index(t, k)
                and block_index(s, h) != block_index(s, k))
    if kind == "valuation-invalid-point":
        moment, rep = violation.witness["point"].split("/")
        blocks = doc["indist"].get(moment, [])
        return not any(rep in block for block in blocks)
    return False


def _replay_map_violation(src: Frame, dst: Frame, f: PointMap, violation) -> bool:
    kind, w = violation.kind, violation.witness
    if kind == "G-f":
        p, q = (parse_point(src, t) for t in w["pair"])
        return precedes(src, p, q) and not precedes(dst, f(p), f(q))
    if kind == "L-f":
        p, q = (parse_point(src, t) for t in w["pair"])
        return same_moment(src, p, q) and not same_moment(dst, f(p), f(q))
    if kind == "G-b":
        p = parse_point(src, w["point"])
        q2 = parse_point(dst, w["target"])
        return (precedes(dst, f(p), q2)
                and not any(precedes(src, p, q) and f(q) == q2
                            for q in points(src)))
    if kind == "H-b":
        p = parse_point(src, w["point"])
        q2 = parse_point(dst, w["target"])
        return (precedes(dst, q2, f(p))
                and not any(precedes(src, q, p) and f(q) == q2
                            for q in points(src)))
    if kind == "L-b":
        p = parse_point(src, w["point"])
        q2 = parse_point(dst, w["target"])
        return (same_moment(dst, f(p), q2)
                and not any(same_moment(src, p, q) and f(q) == q2
                            for q in points(src)))
    if kind == "F-f":
        p = parse_point(src, w["point"])
        h2 = w["target_history"]
        q2 = f(p)
        futures2 = set(future_points(dst, q2.moment, h2))
        return not any(
            all(f(r) in futures2 for r in future_points(src, p.moment, h))
            for h in p.block)
    if kind == "F-b":
        p = parse_point(src, w["point"])
        h = w["history"]
        q2 = f(p)
        images = {f(r) for r in future_points(src, p.moment, h)}
        return not any(
            all(r2 in images for r2 in future_points(dst, q2.moment, h2))
            for h2 in q2.block)
    return False


def _replay_pv_violation(src: Model, dst: Model, f: PointMap, violation) -> bool:
    if violation.kind != "PV":
        return False
    p = parse_point(src.frame, violation.witness["point"])
    atom = violation.witness["atom"]
    return ((p in src.valuation.get(atom, frozenset()))
            != (f(p) in dst.valuation.get(atom, frozenset())))


def _replay_relation_violation(src: Model, dst: Model,
                               relation: PointRelation, violation) -> bool:
    kind, w = violation.kind, violation.witness
    if kind == "B":
        a = parse_point(src.frame, w["anchor"][0])
        b = parse_point(dst.frame, w["anchor"][1])
        return (a, b) not in relation.pairs
    p = parse_point(src.frame, w["pair"][0])
    q = parse_point(dst.frame, w["pair"][1])
    pairs = relation.pairs
    if kind == "PV":
        atom = w["atom"]
        return ((p in src.valuation.get(atom, frozenset()))
                != (q in dst.valuation.get(atom, frozenset())))
    if kind in ("G-f", "H-f", "L-f"):
        r = parse_point(src.frame, w["witness_point"])
        rel = {"G-f": lambda fr, a, b: precedes(fr, a, b),
               "H-f": lambda fr, a, b: precedes(fr, b, a),
               "L-f": same_moment}[kind]
        return (rel(src.frame, p, r)
                and not any(rel(dst.frame, q, r2) and (r, r2) in pairs
                            for r2 in points(dst.frame)))
    if kind in ("G-b", "H-b", "L-b"):
        r2 = parse_point(dst.frame, w["witness_point"])
        rel = {"G-b": lambda fr, a, b: precedes(fr, a, b),
               "H-b": lambda fr, a, b: precedes(fr, b, a),
               "L-b": same_moment}[kind]
        return (rel(dst.frame, q, r2)
                and not any(rel(src.frame, p, r) and (r, r2) in pairs
                            for r in points(src.frame)))
    if kind == "F-f":
        h2 = w["target_history"]
        return not any(
            all(any((r, r2) in pairs
                    for r2 in future_points(dst.frame, q.moment, h2))
                for r in future_points(src.frame, p.moment, h))
            for h in p.block)
    if kind == "F-b":
        h = w["history"]
        return not any(
            all(any((r, r2) in pairs
                    for r in future_points(src.frame, p.moment, h))
                for r2 in future_points(dst.frame, q.moment, h2))
            for h2 in q.block)
    return False
