"""The verification battery behind ``itl suite`` and the acceptance tests.

Each criterion is a method of :class:`Battery` returning a timed
:class:`CriterionResult`.  The materials the criteria share are built once per
battery instance and read by every criterion that needs them: the random
models and formulas, the frame catalogue, the p-morphisms between catalogue
frames (one search per ordered frame pair, each map's image indices read
once) and the greatest bisimulations between catalogue models (one fixpoint
per ordered model pair, kept as the per-point masks and their converse that
``bisimulation._greatest`` returns).  The search and the fixpoint give the
same answer in both modes, so each map and each relation is found once and
checked in both.  All randomness flows from the battery seed.

The battery builds only what it reads.  A criterion that asks whether a map
or a relation passes reads the first element of the checker's failure
stream, which reads the related pairs off the masks; criterion 8 re-adds a
pair by setting its two bits, and reports (and the ``PointRelation`` they
need) are formatted only for the witnesses criterion 9 replays.  Criterion 2
parses its texts straight into one program and evaluates only the pairs on
two slots, none in a passing run.  Truth signatures and valid classes over the
exhaustive corpus come from one pass of ``collapsed_corpus`` per call of
``signatures_of`` or ``valid_classes``, which builds only on slots with new
masks; criteria 5 and 6 count their corpus without building it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import islice, product, repeat

from . import bisimulation, catalog
from .bisimulation import (
    PointRelation, check_bisimulation, find_distinguishing_formula,
)
from .documents import parse_point, resolve_point, validate_doc
from .formula import (
    MODES, Program, collapsed_corpus, corpus_size,
    format_formula, parse, random_formula,
)
from .generate import gen_random_model
from .morphisms import (
    PointMap, _images, check_frame_pmorphism, check_model_pmorphism,
    check_set_characterization, frame_pmorphism_failures,
    model_pmorphism_failures, pullback_valuation, search_pmorphisms,
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


def _point_columns(masks: list[int], n: int) -> list[int]:
    """Per point i < n, its bits over the masks as one int: the bit of mask
    k is bit ``len(masks) - 1 - k``."""
    width = (n + 7) // 8
    data = b"".join(map(int.to_bytes, masks, repeat(width), repeat("little")))
    # base 2 is exempt from the int-digit limit of str conversions
    return [int(data[i // 8::width].translate(_BIT_CHARS[i % 8]), 2)
            for i in range(n)]


def _passes(failures) -> bool:
    """Whether a checker's failure stream is empty; reads at most its first
    failure."""
    return next(failures, None) is None


def _lanes_differing(ev: Evaluator, a: int, b: int) -> int:
    """The number of ev's models on which masks a and b differ."""
    return 0 if a == b else sum(lane != 0 for lane in ev.lanes(a ^ b))


def _all_pairs(src: Model, dst: Model):
    """Every (source index, target index) pair, in the canonical pair order."""
    return product(range(len(src.frame.point_list)), range(len(dst.frame.point_list)))


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


def _criterion(number: int, name: str):
    """Turn a method returning (passed, detail) into criterion ``number``,
    which returns a :class:`CriterionResult` timed over the whole call."""
    def decorate(body):
        @wraps(body)
        def timed(self) -> CriterionResult:
            start = time.perf_counter()
            passed, detail = body(self)
            return CriterionResult(number, name, passed, detail,
                                   time.perf_counter() - start)
        return timed
    return decorate


class Battery:
    CRITERIA = range(1, 11)
    N_MODELS = 200
    N_FORMULAS = 1000
    MAX_POINTS = 8
    RANDOM_DEPTH = 4
    N_SAMPLED_MAPS = 10_000

    def __init__(self, seed: int = 42):
        self.seed = seed

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

    @cached_property
    def found_maps(self) -> tuple[tuple[Frame, Frame, PointMap], ...]:
        """(source, target, map) for every p-morphism between catalogue
        frames: one search per ordered frame pair, in search order."""
        frames = self.frames.values()
        return tuple((src, dst, f) for src in frames for dst in frames
                     for f in search_pmorphisms(src, dst, mode="L"))

    @cached_property
    def relations(self) -> tuple[tuple[Model, Model, list[int], list[int]], ...]:
        """(source, target, rel, conv) for every ordered pair of catalogue
        models: the greatest bisimulation as per-point masks and their
        converse, one ``bisimulation._greatest`` fixpoint per model pair."""
        models = catalog.catalog_models(self.seed + 7, self.frames).values()
        return tuple((src, dst, *bisimulation._greatest(src, dst))
                     for src, dst in product(models, repeat=2))

    def _pullbacks(self, src: Frame, dst: Frame, f: PointMap, tag: int):
        """The model pairs that ``f`` joins: ``dst`` with the empty and with a
        seeded valuation (drawn from ``tag``), and ``src`` with its pullback."""
        for valuation in ({}, catalog.random_valuation(self.seed + 50_000 + tag, dst)):
            yield Model(src, pullback_valuation(valuation, f)), Model(dst, valuation)

    def signatures_of(self, models, mode: str) -> list[list[int]]:
        """Per model, per point, its truth values over the whole corpus as
        the bits of one int, read off ``collapsed_corpus`` over the union of
        the distinct models (by frame and valuation).  Each bit stands for
        one distinct mask of the corpus, in order of first appearance, so
        two points of these models have equal signatures exactly when every
        corpus formula has the same truth value at both; signatures of
        different calls are not comparable."""
        keys = [(model.frame, frozenset(model.valuation.items())) for model in models]
        distinct = dict(zip(keys, models))
        sizes = [len(model.frame.point_list) for model in distinct.values()]
        ev = Evaluator(*distinct.values(), mode=mode)
        masks = [mask for _, _, mask in
                 collapsed_corpus(ev, CORPUS_ATOMS, CORPUS_DEPTH)]
        columns = _point_columns(masks, sum(sizes))
        lanes = {key: columns[offset:offset + size]
                 for key, offset, size in zip(distinct, ev.offsets, sizes)}
        return [lanes[key] for key in keys]

    # ------------------------------------------------------------------
    # criterion 1: the two semantics agree
    # ------------------------------------------------------------------

    @_criterion(1, "semantics-equivalence")
    def criterion_1(self):
        models = self.battery_models
        formulas = self.battery_formulas
        program = Program("L")
        roots = [program.add(phi) for phi in formulas]
        # every model at once, one lane each
        ev = Evaluator(*models, relational=False, mode="L")
        by_clauses = ev.run(program)
        by_relations = Evaluator(*models, relational=True, mode="L").run(program)
        disagreements = sum(_lanes_differing(ev, by_clauses[r], by_relations[r])
                            for r in roots)
        detail = (f"{len(models)} models x {len(formulas)} formulas x all "
                  f"points, {disagreements} disagreements")
        return disagreements == 0, detail

    # ------------------------------------------------------------------
    # criterion 2: surface abbreviations match their expansions
    # ------------------------------------------------------------------

    @_criterion(2, "abbreviation-theorems")
    def criterion_2(self):
        models = self.battery_models
        formulas = self.battery_formulas
        wrappers = (("P", "~H ~"), ("f", "~G ~"), ("M", "~L ~"), ("g", "~F ~"))
        # parsed straight into one hash-consed program: two formulas share a
        # slot exactly when they are equal
        program = Program("LF")
        pairs = []
        for phi in formulas:
            s = format_formula(phi)
            for surface, expansion in wrappers:
                pairs.append((program.parse(f"{surface} ({s})"),
                              program.parse(f"{expansion}({s})")))
        # a pair on one slot has one mask, so only pairs on two are evaluated
        apart = [(a, b) for a, b in pairs if a != b]
        disagreements = 0
        if apart:
            ev = Evaluator(*models, mode="LF")
            masks = ev.run(program)
            disagreements = sum(_lanes_differing(ev, masks[a], masks[b])
                                for a, b in apart)
        detail = (f"{len(pairs)} abbreviation pairs x {len(models)} models: "
                  f"{len(apart)} parse mismatches, "
                  f"{disagreements} evaluation disagreements")
        return not apart and disagreements == 0, detail

    # ------------------------------------------------------------------
    # criterion 3: the strong/weak future separation example
    # ------------------------------------------------------------------

    @_criterion(3, "weak-future-separation")
    def criterion_3(self):
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

    # ------------------------------------------------------------------
    # criterion 4: condition checker vs set characterization
    # ------------------------------------------------------------------

    @cached_property
    def _c4_data(self) -> tuple[bool, int, list]:
        """(checker and characterization agree, number of p-morphisms,
        up to 60 failing (source, target, map, report)) over the sampled
        maps.  Only the failing samples kept are checked to a report."""
        frames = list(self.frames.values())
        rng = random.Random(self.seed + 4)
        agree = True
        passing = 0
        failing_samples = []
        for _ in range(self.N_SAMPLED_MAPS):
            src = frames[rng.randrange(len(frames))]
            dst = frames[rng.randrange(len(frames))]
            dst_pts = points(dst)
            mapping = {p: dst_pts[rng.randrange(len(dst_pts))]
                       for p in points(src)}
            f = PointMap(mapping)
            ok = _passes(frame_pmorphism_failures(src, dst, f, mode="L"))
            if ok != check_set_characterization(src, dst, f):
                agree = False
            if ok:
                passing += 1
            elif len(failing_samples) < 60:
                failing_samples.append(
                    (src, dst, f, check_frame_pmorphism(src, dst, f, mode="L")))
        return agree, passing, failing_samples

    @_criterion(4, "pmorphism-characterization")
    def criterion_4(self):
        agree, passing, _ = self._c4_data
        detail = (f"{self.N_SAMPLED_MAPS} sampled maps over the catalogue, "
                  f"{passing} were p-morphisms; checker and "
                  f"characterization {'agree' if agree else 'DISAGREE'}")
        return agree, detail

    # ------------------------------------------------------------------
    # criterion 5: truth preservation along found p-morphisms
    # ------------------------------------------------------------------

    @cached_property
    def _model_pmorphisms(self) -> tuple[tuple[Model, Model, list[int]], ...]:
        """(source model, target model, images) for each found map and each
        of its pulled-back model pairs, where ``images`` holds per source
        point the index of its image, read once per map."""
        index = {frame: k for k, frame in enumerate(self.frames.values())}
        return tuple((src_model, dst_model, images)
                     for src, dst, f in self.found_maps
                     for images in [_images(src, dst, f)]
                     for src_model, dst_model in self._pullbacks(
                         src, dst, f, index[src] * 31 + index[dst]))

    @_criterion(5, "pmorphism-preservation")
    def criterion_5(self):
        triples = self._model_pmorphisms
        mismatches = 0
        for mode in MODES:
            sigs = self.signatures_of(
                [model for src, dst, _ in triples for model in (src, dst)], mode)
            for (_, _, images), sig_src, sig_dst in zip(triples, sigs[::2], sigs[1::2]):
                mismatches += sum(sig != sig_dst[j] for sig, j in zip(sig_src, images))
        sizes = tuple(corpus_size(CORPUS_ATOMS, CORPUS_DEPTH, m) for m in MODES)
        # a map, and each of its model pairs, counts once per mode checked
        detail = (f"{len(MODES) * len(self.found_maps)} maps found (both modes), "
                  f"{len(MODES) * len(triples)} model p-morphisms x corpus "
                  f"{sizes} x all points, "
                  f"{mismatches} evaluation mismatches")
        return mismatches == 0, detail

    # ------------------------------------------------------------------
    # criterion 6: validity preservation along surjective p-morphisms
    # ------------------------------------------------------------------

    def valid_classes(self, frames) -> dict[Frame, int]:
        """Per frame, the classes of corpus (mode L) formulas valid on it as
        the bits of one int, read off one ``collapsed_corpus`` with a lane per
        frame and valuation of the corpus atoms.  Bit c is the c-th distinct
        mask: the formulas with the same truth on every (frame, valuation),
        valid on a frame when full on all of its lanes.  Classes of different
        calls are not comparable."""
        ev = Evaluator(*(Model(frame, {atom: frozenset(frame.points_of(mask))
                                       for atom, mask in zip(CORPUS_ATOMS, masks)})
                         for frame in frames
                         for masks in product(range(1 << len(frame.point_list)),
                                              repeat=len(CORPUS_ATOMS))), mode="L")
        spans = dict.fromkeys(frames, 0)  # per frame, the bits of its lanes
        for model, offset in zip(ev.models, ev.offsets):
            spans[model.frame] |= model.frame.full_mask << offset
        valid = dict.fromkeys(frames, 0)
        for c, (_, _, mask) in enumerate(collapsed_corpus(ev, CORPUS_ATOMS, CORPUS_DEPTH)):
            for frame, span in spans.items():
                if mask & span == span:
                    valid[frame] |= 1 << c
        return valid

    @_criterion(6, "validity-preservation")
    def criterion_6(self):
        """A failing count counts classes of ``valid_classes``, not formulas."""
        small = [frame for frame in self.frames.values()
                 if len(frame.point_list) <= 4]
        index = {frame: k for k, frame in enumerate(small)}
        maps = [(src, dst, f) for src, dst, f in self.found_maps
                if src in index and dst in index and f.is_surjective_onto(dst)]
        valid = self.valid_classes(small)
        violations = sum((valid[src] & ~valid[dst]).bit_count() for src, dst, _ in maps)
        pv_failures = sum(
            not _passes(model_pmorphism_failures(src_model, dst_model, f, mode="L"))
            for src, dst, f in maps for src_model, dst_model in self._pullbacks(
                src, dst, f, index[src] * 37 + index[dst]))
        detail = (f"{len(maps)} surjective maps on frames <= 4 "
                  f"points, corpus {corpus_size(CORPUS_ATOMS, CORPUS_DEPTH, 'L')}: "
                  f"{violations} validity-preservation violations, "
                  f"{pv_failures} pullback PV failures")
        return violations == 0 and pv_failures == 0, detail

    # ------------------------------------------------------------------
    # criterion 7: bisimulations imply formula agreement at their anchors
    # ------------------------------------------------------------------

    @_criterion(7, "bisimulation-preservation")
    def criterion_7(self):
        nonempty = 0
        check_failures = 0
        agreement_failures = 0
        relations = [entry for entry in self.relations if any(entry[2])]
        for mode in MODES:
            nonempty += len(relations)
            # one corpus run per mode over the models of its relations
            sigs = self.signatures_of([model for entry in relations
                                       for model in entry[:2]], mode)
            for (src, dst, rel, conv), sig_src, sig_dst in zip(
                    relations, sigs[::2], sigs[1::2]):
                if not _passes(bisimulation._relation_failures(
                        src, dst, rel, conv, None, mode)):
                    check_failures += 1
                    continue
                agreement_failures += sum(sig != other for sig, row in zip(sig_src, rel)
                                          for j, other in enumerate(sig_dst) if row >> j & 1)
        # graphs of the model p-morphisms of criterion 5
        graph_failures = 0
        for src, dst, images in self._model_pmorphisms:
            rel, conv = bisimulation._relation_masks(
                len(images), len(dst.frame.point_list), enumerate(images))
            for mode in MODES:
                if not _passes(bisimulation._relation_failures(
                        src, dst, rel, conv, None, mode)):
                    graph_failures += 1
        detail = (f"{nonempty} greatest bisimulations verified and "
                  f"agreement-checked over the corpus "
                  f"({check_failures} condition failures, "
                  f"{agreement_failures} agreement failures); "
                  f"{len(MODES) * len(self._model_pmorphisms)} p-morphism "
                  f"graphs pass ({graph_failures} failures; their point "
                  f"agreement is criterion 5)")
        return agreement_failures == check_failures == graph_failures == 0, detail

    # ------------------------------------------------------------------
    # criterion 8: the fixpoint is maximal
    # ------------------------------------------------------------------

    @_criterion(8, "fixpoint-maximality")
    def criterion_8(self):
        readded = 0
        unbroken = 0
        for mode, (src, dst, rel, conv) in product(MODES, self.relations):
            # copies, so criteria 7 and 9 read the battery's lists unchanged
            rel, conv = list(rel), list(conv)
            for i, j in _all_pairs(src, dst):
                if rel[i] >> j & 1:
                    continue
                rel[i] ^= 1 << j
                conv[j] ^= 1 << i
                readded += 1
                if _passes(bisimulation._relation_failures(
                        src, dst, rel, conv, None, mode)):
                    unbroken += 1
                rel[i] ^= 1 << j
                conv[j] ^= 1 << i
        detail = (f"{readded} re-added pairs across all model pairs and "
                  f"modes, {unbroken} failed to break a condition")
        return unbroken == 0, detail

    # ------------------------------------------------------------------
    # criterion 9: witnesses and distinguishing formulas replay
    # ------------------------------------------------------------------

    @_criterion(9, "witness-soundness")
    def criterion_9(self):
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
        for src, dst, f, report in self._c4_data[2]:
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

        # bisimulation condition witnesses from re-added pairs, in mode L
        bisim_replays = 0
        for src, dst, rel, _ in self.relations:
            if bisim_replays >= 60:
                break
            i, j = next(((i, j) for i, j in _all_pairs(src, dst)
                         if not rel[i] >> j & 1), (None, None))
            if i is None:
                continue
            extended = bisimulation._point_relation(
                src, dst, rel[:i] + [rel[i] | 1 << j] + rel[i + 1:])
            pair = (src.frame.point_list[i], dst.frame.point_list[j])
            report = check_bisimulation(src, dst, extended, pair, "L")
            for violation in report.violations:
                replayed += 1
                bisim_replays += 1
                if not _replay_relation_violation(src, dst, extended,
                                                  violation):
                    failures += 1

        # distinguishing formulas (mode L) distinguish; bisimilar anchors get none
        distinguishers = 0
        nones_checked = 0
        for src, dst, rel, _ in self.relations[:40]:
            for i, j in islice(_all_pairs(src, dst), 4):
                p, q = src.frame.point_list[i], dst.frame.point_list[j]
                phi = find_distinguishing_formula(src, p, dst, q,
                                                  mode="L", max_depth=3)
                if phi is None:
                    nones_checked += 1
                    continue
                replayed += 1
                distinguishers += 1
                # replay along both routes; a formula returned for a pair
                # of the greatest bisimulation would itself be a failure
                if eval_hist(src, p, phi, "L") == eval_hist(dst, q, phi, "L"):
                    failures += 1
                if eval_rel(src, p, phi, "L") == eval_rel(dst, q, phi, "L"):
                    failures += 1
                if rel[i] >> j & 1:
                    failures += 1

        detail = (f"{replayed} witnesses replayed "
                  f"({distinguishers} distinguishing formulas, "
                  f"{nones_checked} indistinguishable pairs), "
                  f"{failures} replay failures")
        return failures == 0, detail

    # ------------------------------------------------------------------
    # criterion 10: the malformed corpus triggers the expected violations
    # ------------------------------------------------------------------

    @_criterion(10, "structural-validators")
    def criterion_10(self):
        missed = []
        for name, kind, doc in catalog.MALFORMED_DOCUMENTS:
            report = validate_doc(doc)
            if report.ok or kind not in report.kinds():
                missed.append(name)
        detail = (f"{len(catalog.MALFORMED_DOCUMENTS)} malformed documents, "
                  f"{len(missed)} missed ({', '.join(missed) or 'none'})")
        return not missed, detail

    # ------------------------------------------------------------------

    def run_all(self, numbers=None, log=None) -> list[CriterionResult]:
        numbers = sorted(self.CRITERIA if numbers is None else numbers)
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
