"""Checks on the verification battery itself, mainly that the witness
replayers are not vacuous: corrupting a witness must make its replay fail."""

import dataclasses
import functools
import json
import re
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from itl import bisimulation, catalog, formula, suite
from itl.catalog import MALFORMED_DOCUMENTS, f1_model, frame_chain2, frame_fork
from itl.documents import resolve_point, validate_frame_doc, validate_model_doc
from itl.generate import INDIST_POLICIES, gen_random_model
from itl.morphisms import PointMap, check_frame_pmorphism
from itl.semantics import Evaluator, frame_valid
from itl.structures import Model, Violation, points
from itl.suite import (
    CORPUS_ATOMS, CORPUS_DEPTH, Battery, _point_columns,
    _replay_document_violation, _replay_map_violation, _replay_pv_violation,
    _replay_relation_violation,
)
from itl.bisimulation import (
    PointRelation, bisimulation_failures, check_bisimulation, greatest_bisimulation,
)
from itl.formula import (
    MODES, Program, collapsed_corpus, corpus_program, enumerate_formulas, parse,
)
from oracles import naive_valid_corpus_formulas
from test_battery_mutants import (
    fixpoint_drops_its_last_pair, search_tries_every_total_map,
)

BATTERY_GOLDEN = (Path(__file__).resolve().parent.parent
                  / "perfbench" / "golden" / "battery.json")


def report_for(doc):
    if "valuation" in doc:
        return validate_model_doc(doc)
    return validate_frame_doc(doc)


def test_document_replayers_accept_real_witnesses():
    for name, kind, doc in MALFORMED_DOCUMENTS:
        report = report_for(doc)
        matching = [v for v in report.violations if v.kind == kind]
        assert matching, name
        for violation in matching:
            assert _replay_document_violation(doc, violation), (name, violation)


def test_document_replayers_reject_corrupted_witnesses():
    corrupted = 0
    for name, kind, doc in MALFORMED_DOCUMENTS:
        report = report_for(doc)
        violation = next(v for v in report.violations if v.kind == kind)
        fake = {}
        for key, value in violation.witness.items():
            if isinstance(value, str):
                fake[key] = "zz_bogus"
            elif isinstance(value, list):
                fake[key] = ["zz_bogus"] * len(value)
            else:
                fake[key] = value
        if fake == violation.witness:
            continue  # nothing to corrupt (e.g. empty witness)
        bogus = dataclasses.replace(violation, witness=fake)
        try:
            replay = _replay_document_violation(doc, bogus)
        except (KeyError, ValueError, StopIteration):
            replay = False
        assert not replay, (name, bogus)
        corrupted += 1
    assert corrupted >= 15


def test_map_replayer_rejects_wrong_condition():
    fork, chain = frame_fork(), frame_chain2()
    pt = resolve_point
    crush = PointMap({
        pt(fork, "r", "a"): pt(chain, "a", "a"),
        pt(fork, "a", "a"): pt(chain, "a", "a"),
        pt(fork, "b", "b"): pt(chain, "a", "a"),
    })
    report = check_frame_pmorphism(fork, chain, crush, "LF")
    real = [v for v in report.violations]
    assert real
    for violation in real:
        assert _replay_map_violation(fork, chain, crush, violation)
    # the identity map has no violations; every witness must fail to replay
    identity = PointMap({p: p for p in points(fork)})
    for violation in real:
        if violation.kind in ("G-f", "L-f"):
            continue  # their witnesses mention only source points
        assert not _replay_map_violation(fork, fork, identity, violation)


def test_relation_replayer_accepts_real_and_rejects_fabricated():
    chain = frame_chain2()
    model = Model(chain, {})
    pt = resolve_point
    sparse = PointRelation(frozenset({(pt(chain, "r", "a"),
                                       pt(chain, "a", "a"))}))
    report = check_bisimulation(model, model, sparse,
                                (pt(chain, "r", "a"), pt(chain, "a", "a")), "LF")
    assert not report.ok
    for violation in report.violations:
        assert _replay_relation_violation(model, model, sparse, violation)
    # fabricated violations against the identity bisimulation must not replay
    identity = PointRelation(frozenset((p, p) for p in points(chain)))
    anchor_report = check_bisimulation(
        model, model, identity, (pt(chain, "r", "a"), pt(chain, "r", "a")), "LF")
    assert anchor_report.ok
    fabricated = [
        dataclasses.replace(v, witness={**v.witness, "pair": ["r/a", "r/a"]})
        for v in report.violations if "pair" in v.witness
    ]
    assert fabricated
    for violation in fabricated:
        assert not _replay_relation_violation(model, model, identity, violation)


def test_relation_replayer_checks_the_anchor():
    model = f1_model()
    pt = resolve_point
    anchor = (pt(model.frame, "r", "a"), pt(model.frame, "a", "a"))
    identity = PointRelation(frozenset((p, p) for p in points(model.frame)))
    report = check_bisimulation(model, model, identity, anchor, "L")
    (violation,) = report.violations
    assert violation.kind == "B"
    assert _replay_relation_violation(model, model, identity, violation)
    # the same witness against a relation that links the anchors
    linked = PointRelation(identity.pairs | {anchor})
    assert not _replay_relation_violation(model, model, linked, violation)


def forged_replays():
    """(replayer, its structures, a forged violation that must not replay),
    over the fork collapsed onto the two-moment chain: a p-morphism under
    the empty valuations, with its graph."""
    fork, chain = frame_fork(), frame_chain2()
    pt = resolve_point
    collapse = PointMap({
        pt(fork, "r", "a"): pt(chain, "r", "a"),
        pt(fork, "a", "a"): pt(chain, "a", "a"),
        pt(fork, "b", "b"): pt(chain, "a", "a"),
    })
    src, dst = Model(fork, {}), Model(chain, {})
    graph = PointRelation(frozenset(collapse.mapping.items()))
    doc = next(doc for _, kind, doc in MALFORMED_DOCUMENTS if kind == "cycle")
    unknown = Violation("no-such-kind", "", {"pair": ["r/a", "r/a"]})
    return [
        pytest.param(_replay_document_violation, (doc,), unknown,
                     id="document-kind"),
        # H-f is a relation condition the map checker leaves out
        pytest.param(_replay_map_violation, (fork, chain, collapse),
                     Violation("H-f", "", {"pair": ["a/a", "r/a"]}), id="map-kind"),
        pytest.param(_replay_pv_violation, (src, dst, collapse), unknown,
                     id="valuation-kind"),
        pytest.param(_replay_pv_violation, (src, dst, collapse),
                     Violation("PV", "", {"point": "a/a", "atom": "p"}),
                     id="valuation-atom"),
        pytest.param(_replay_relation_violation, (src, dst, graph), unknown,
                     id="relation-kind"),
    ]


# The battery cannot reach the document replayer's rejection of an unknown
# kind: criterion 9 replays only the kind the malformed catalogue expects,
# and each has its branch.  Mutants in test_battery_mutants reach the map
# and valuation ones.
@pytest.mark.parametrize("replayer, structures, forged", forged_replays())
def test_replayers_reject_forged_witnesses(replayer, structures, forged):
    assert not replayer(*structures, forged)


def small_frames(frames=None):
    """The catalogue frames of at most 4 points, criterion 6's frames, in
    catalogue order: taken from ``frames``, or else from a new catalogue."""
    frames = catalog.catalog_frames() if frames is None else frames
    return [frame for frame in frames.values() if len(frame.point_list) <= 4]


def spying_on_the_collapse(monkeypatch) -> tuple[list, list]:
    """The evaluators that ``suite`` hands ``collapsed_corpus`` from now
    on, and the masks the collapse yields."""
    evaluators, masks = [], []
    collapse = suite.collapsed_corpus

    def spying(ev, *args):
        evaluators.append(ev)
        for item in collapse(ev, *args):
            masks.append(item[2])
            yield item

    monkeypatch.setattr(suite, "collapsed_corpus", spying)
    return evaluators, masks


def test_valid_classes_agree_with_frame_valid(monkeypatch):
    frames = small_frames()
    corpus = enumerate_formulas(CORPUS_ATOMS, CORPUS_DEPTH, "L")
    evaluators, collapsed = spying_on_the_collapse(monkeypatch)
    valid = Battery(42).valid_classes(frames)
    (ev,) = evaluators
    classes = {mask: c for c, mask in enumerate(collapsed)}
    # spot-check sampled formulas on every frame against the public exact
    # checker: read off their own masks on the lanes of criterion 6's
    # evaluator, and off their classes
    sample = [0, 1, 5, 17, 100, 2000, 30000, len(corpus) - 1]
    program = Program("L")
    roots = [program.add(corpus[idx]) for idx in sample]
    masks = ev.run(program)
    for idx, root in zip(sample, roots):
        lanes = list(zip(ev.models, ev.lanes(masks[root])))
        for frame in frames:
            expected = frame_valid(frame, corpus[idx], mode="L")
            assert all(lane == model.frame.full_mask for model, lane in lanes
                       if model.frame is frame) == expected, (idx, frame)
            assert bool(valid[frame] >> classes[masks[root]] & 1) == expected
    # a couple of known validities and invalidities
    frame = frame_chain2()
    assert frame_valid(frame, parse("L p -> p", "L"))
    assert not frame_valid(frame, parse("p", "L"))


@functools.cache
def naive_valid_formulas() -> tuple[set[int], ...]:
    """Per small frame, its valid corpus formulas by the naive filter."""
    return tuple(naive_valid_corpus_formulas(frame, CORPUS_ATOMS, CORPUS_DEPTH)
                 for frame in small_frames())


def test_classes_tell_frames_apart_as_formulas_do():
    # on every ordered pair of small frames, some corpus formula is valid on
    # A and not on B exactly when some class is
    frames = small_frames()
    naive = dict(zip(frames, naive_valid_formulas()))
    valid = Battery(0).valid_classes(frames)
    assert len(valid) == 6
    for a, b in product(frames, repeat=2):
        assert bool(naive[a] - naive[b]) == bool(valid[a] & ~valid[b])


@pytest.mark.parametrize("mutant", [None, search_tries_every_total_map],
                         ids=["unmutated", "search_tries_every_total_map"])
def test_criterion_6_counts_violations_where_formulas_do(monkeypatch, mutant):
    if mutant is not None:
        mutant(monkeypatch)
    battery = Battery(0)
    result = battery.criterion_6()
    classes = int(re.search(r"(\d+) validity-preservation", result.detail)[1])
    naive = dict(zip(small_frames(battery.frames), naive_valid_formulas()))
    formulas = sum(len(naive[src] - naive[dst])
                   for src, dst, f in battery.found_maps
                   if src in naive and dst in naive and f.is_surjective_onto(dst))
    # a class counts once however many formulas it holds
    assert (classes > 0) == (formulas > 0) == (mutant is not None)
    assert classes <= formulas


def counting(monkeypatch, calls: dict, module, name: str) -> None:
    """Count in ``calls[name]`` every call of ``module.name`` from now on."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_the_catalogue_is_built_once_per_battery(monkeypatch):
    # criteria 4 to 7 share Battery.frames; criterion 6 filters it by size.
    # Criteria 5 to 7 share one search per ordered pair of the 8 catalogue
    # frames, and criteria 7 to 9 one fixpoint per ordered pair of the 16
    # catalogue models, each checked in both modes.  The same run's detail
    # lines must be the ones recorded for seed 0.
    calls = {"catalog_frames": 0, "search_pmorphisms": 0, "_greatest": 0}
    counting(monkeypatch, calls, catalog, "catalog_frames")
    counting(monkeypatch, calls, suite, "search_pmorphisms")
    counting(monkeypatch, calls, bisimulation, "_greatest")
    results = Battery(0).run_all()
    assert all(r.passed for r in results)
    assert calls == {"catalog_frames": 1, "search_pmorphisms": 64,
                     "_greatest": 256}
    recorded = json.loads(BATTERY_GOLDEN.read_text(encoding="utf-8"))["0"]
    assert [r.detail for r in results] == recorded


def test_run_all_of_no_criteria_runs_none():
    def log(line):
        raise AssertionError(f"logged {line!r}")

    assert Battery(0).run_all([], log=log) == []


def test_a_passing_criterion_2_builds_no_evaluator(monkeypatch):
    # every abbreviation pair parses to one slot, so nothing is evaluated
    def refuse(*models, **kwargs):
        raise AssertionError("criterion 2 built an evaluator")

    monkeypatch.setattr(suite, "Evaluator", refuse)
    assert Battery(0).criterion_2().passed


@pytest.mark.parametrize("n", [1, 8, 9, 70])
def test_point_columns_transposes_the_masks(n):
    masks = [0, (1 << n) - 1, 1, 1 << (n - 1), 0b1011 & ((1 << n) - 1),
             int("10" * n, 2) >> n]
    expected = [sum((mask >> i & 1) << (len(masks) - 1 - k)
                    for k, mask in enumerate(masks))
                for i in range(n)]
    assert _point_columns(masks, n) == expected


def point_classes(sigs):
    """The points of every model, as (model, point) index pairs, grouped by
    equal signature."""
    groups = {}
    for m, row in enumerate(sigs):
        for i, sig in enumerate(row):
            groups.setdefault(sig, set()).add((m, i))
    return {frozenset(group) for group in groups.values()}


def full_corpus_signatures(models, atoms, depth, mode):
    """Per model, per point, its bits over every slot of the whole corpus,
    from one run over all the models."""
    ev = Evaluator(*models, mode=mode)
    masks = ev.run(corpus_program(atoms, depth, mode))
    columns = _point_columns(masks, sum(len(m.frame.point_list) for m in models))
    return [columns[offset:offset + len(model.frame.point_list)]
            for model, offset in zip(models, ev.offsets)]


def assert_collapse_loses_nothing(models, atoms, depth, mode):
    ev = Evaluator(*models, mode=mode)
    collapsed = [mask for _, _, mask in collapsed_corpus(ev, atoms, depth)]
    assert len(set(collapsed)) == len(collapsed)
    assert set(collapsed) == set(ev.run(corpus_program(atoms, depth, mode)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(suite, "CORPUS_ATOMS", atoms)
        patch.setattr(suite, "CORPUS_DEPTH", depth)
        sigs = Battery(0).signatures_of(models, mode)
    assert point_classes(sigs) == point_classes(
        full_corpus_signatures(models, atoms, depth, mode))


# seeds from a small range, so that a union may hold one model twice, or
# one frame under two valuations
@given(drawn=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 2),
                                st.sampled_from(INDIST_POLICIES)),
                      min_size=1, max_size=6),
       mode=st.sampled_from(MODES), depth=st.integers(0, 2))
def test_the_collapse_keeps_every_mask_of_the_corpus(drawn, mode, depth):
    models = [gen_random_model(seed, 1 + seed % 6, branching=3,
                               indist_policy=policy, n_atoms=n_atoms)
              for seed, n_atoms, policy in drawn]
    assert_collapse_loses_nothing(models, ("p0", "p1"), depth, mode)


@pytest.mark.parametrize("mode", MODES)
def test_the_collapse_keeps_every_mask_on_criterion_5s_models(mode):
    battery = Battery(0)
    models = [model for src, dst, _ in battery._model_pmorphisms
              for model in (src, dst)]
    assert_collapse_loses_nothing(models, CORPUS_ATOMS, CORPUS_DEPTH, mode)


def counting_appended_slots(monkeypatch) -> list[int]:
    """A one-item list counting the slots every ``Evaluator.run`` from now
    on appends to its masks."""
    appended = [0]
    run = Evaluator.run

    def counting(self, program, atom_masks=None, masks=None):
        before = 0 if masks is None else len(masks)
        out = run(self, program, atom_masks, masks)
        appended[0] += len(out) - before
        return out

    monkeypatch.setattr(Evaluator, "run", counting)
    return appended


def test_criteria_5_and_7_evaluate_each_new_mask_once(monkeypatch):
    # the slots Evaluator.run appends: the collapsed corpus over the models
    # of each mode, not the 65,534 + 115,936 slots of the whole corpus
    battery = Battery(0)
    assert battery._model_pmorphisms and battery.relations  # built first
    appended = counting_appended_slots(monkeypatch)
    slots = {}
    for number in (5, 7):
        appended[0] = 0
        assert getattr(battery, f"criterion_{number}")().passed
        slots[number] = appended[0]
    assert slots == {5: 18_384, 7: 11_795}


def test_the_battery_builds_no_corpus_program():
    # criteria 5 and 6 count the corpus sizes; every criterion that reads
    # the corpus reads its collapse
    formula._enumerate_cached.cache_clear()
    assert all(r.passed for r in Battery(0).run_all())
    assert formula._enumerate_cached.cache_info().currsize == 0


def test_criterion_6_runs_one_collapse_over_every_valuation(monkeypatch):
    # one evaluator, one lane per small frame and valuation of the corpus
    # atoms; the collapse over it runs each new mask once
    battery = Battery(0)
    assert battery.found_maps  # built first
    appended = counting_appended_slots(monkeypatch)
    evaluators, masks = spying_on_the_collapse(monkeypatch)
    assert battery.criterion_6().passed
    (ev,) = evaluators
    assert len(ev.models) == 420
    assert sum(len(model.frame.point_list) for model in ev.models) == 1476
    assert len(masks) == len(set(masks)) == 1578 and appended[0] == 6559


def test_criterion_6_peak_memory_stays_small():
    # at seed 0, after criteria 1-5, criterion 6's peak of traced memory:
    # about 1.5 MB on CPython 3.10-3.13, where a filter that builds the
    # 65,534-slot corpus program and runs it per valuation peaks near 3.9 MB
    battery = Battery(0)
    for number in range(1, 6):
        getattr(battery, f"criterion_{number}")()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert battery.criterion_6().passed
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 3.2 * 2 ** 20


def criterion_8_counts(result) -> tuple[int, int]:
    """Criterion 8's re-added and unbroken pairs, read off its detail line."""
    readded, unbroken = map(int, re.findall(r"\d+", result.detail))
    return readded, unbroken


def naive_criterion_8_counts(battery, mode) -> tuple[int, int]:
    """The same counts in one mode through a Point relation per re-added
    pair, each relation taken from ``greatest_bisimulation``."""
    readded = unbroken = 0
    for src, dst, *_ in battery.relations:
        rel = greatest_bisimulation(src, dst, mode)
        for pair in product(points(src.frame), points(dst.frame)):
            if pair in rel.pairs:
                continue
            readded += 1
            extended = PointRelation(rel.pairs | {pair})
            if next(bisimulation_failures(src, dst, extended, pair, mode), None) is None:
                unbroken += 1
    return readded, unbroken


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("mutant", [None, fixpoint_drops_its_last_pair],
                         ids=["unmutated", "fixpoint_drops_its_last_pair"])
def test_criterion_8_counts_what_point_relations_count(monkeypatch, mutant, mode):
    if mutant is not None:
        mutant(monkeypatch)
    battery = Battery(0)
    monkeypatch.setattr(suite, "MODES", (mode,))
    readded, unbroken = criterion_8_counts(battery.criterion_8())
    assert (readded, unbroken) == naive_criterion_8_counts(battery, mode)
    assert readded > 0
    # a relation short of its last pair passes once that pair is re-added
    assert (unbroken > 0) == (mutant is not None)


def counting_point_relations(monkeypatch) -> list:
    """The arguments of every PointRelation made from now on, counted
    through its own ``__init__``, which the undo puts back as it was."""
    made = []
    init = PointRelation.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PointRelation, "__init__", counting_init)
    return made


def test_criterion_8_runs_one_stream_per_readded_pair(monkeypatch):
    # once the relations are built, criterion 8 makes no Point relation and
    # no call of bisimulation_failures: it re-adds each pair on the masks
    battery = Battery(0)
    assert battery.relations  # built first
    streams = [0]

    def refused(*args, **kwargs):
        raise AssertionError("criterion 8 called bisimulation_failures")

    relation_failures = bisimulation._relation_failures

    def counting_stream(*args):
        streams[0] += 1
        return relation_failures(*args)

    made = counting_point_relations(monkeypatch)
    monkeypatch.setattr(bisimulation, "bisimulation_failures", refused)
    monkeypatch.setattr(suite, "bisimulation_failures", refused, raising=False)
    monkeypatch.setattr(bisimulation, "_relation_failures", counting_stream)
    result = battery.criterion_8()
    assert result.passed and criterion_8_counts(result) == (4672, 0)
    assert made == [] and streams[0] == 4672


def test_relations_and_maps_are_read_in_one_form(monkeypatch):
    # each relation is the fixpoint's masks, with no Point relation beside
    # them; each found map's image indices are read once for criteria 5 and
    # 7; criterion 9 makes a Point relation only for each relation it replays
    made = counting_point_relations(monkeypatch)
    calls = {"_greatest": 0, "_images": 0}
    counting(monkeypatch, calls, bisimulation, "_greatest")
    counting(monkeypatch, calls, suite, "_images")
    battery = Battery(0)
    assert {len(entry) for entry in battery.relations} == {4}
    assert len(battery.relations) == calls["_greatest"] == 256
    assert made == []
    assert battery.criterion_5().passed and battery.criterion_7().passed
    assert calls["_images"] == 24
    assert battery.criterion_9().passed and len(made) == 35
