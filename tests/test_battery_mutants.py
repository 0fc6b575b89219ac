"""The battery can fail: each mutant below breaks one library routine, and the
criteria it names must then FAIL at full size, with the named failure
counter above zero in their detail lines.  Without a mutant the battery of
the same seed passes every criterion, which
``test_suite_battery.test_the_catalogue_is_built_once_per_battery`` checks.

The criteria count failures in these places, each reached by a mutant:
criterion 1's disagreements between the routes (and its count, summed over
the lanes of one evaluator, equals the sum of one-model counts), criterion
2's parse mismatches, criterion 3's separation example, criterion 4's
disagreement (from the characterization's side and from the checker's
failure stream), criterion 5's evaluation mismatches, criterion
6's validity violations and pullback PV failures, criterion 7's condition,
agreement and graph failures, criterion 8's unbroken pairs (from the
fixpoint and from the relation checker's failure stream), criterion 9's
replay failures of document, map, valuation and relation witnesses and of
distinguishing formulas, and criterion 10's missed documents.  Criterion 9
sums its failures in one count, so its mutants each break one kind of
witness; the map and valuation ones also reach their replayers' rejection of
a kind they do not know.  ``test_suite_battery`` forges the rest.

The mutants of criteria 1-3 and the recounts of criteria 1 and 2 take about
2 s together (CPython 3.11 on a 2-core x86-64 machine), most of it criterion
2's 8,000 parses, once in the criterion and once in its recount."""

import re
from dataclasses import replace

import pytest

from itl import bisimulation, formula, morphisms, semantics, suite
from itl.formula import Program, format_formula, parse
from itl.semantics import Evaluator
from itl.structures import Frame, Report, Tree
from itl.suite import Battery

SEED = 0
COUNT = r"[1-9]\d*"


def hist_g_reads_the_past(monkeypatch):
    # the hist route's G quantifies over the H table; rel is untouched
    monkeypatch.setattr(Frame, "hist_future_masks",
                        property(lambda frame: frame.hist_past_masks))


def predecessors_are_the_parent_point(monkeypatch):
    # the rel route's H reads a point's parent point alone, not its parent
    # point's predecessors as well; hist is untouched
    def parent_point_only(frame):
        masks = [0] * len(frame.point_forest)
        for i, j in frame.point_forest:
            if j is not None:
                masks[i] = 1 << j
        return tuple(masks)

    monkeypatch.setattr(Frame, "rel_predecessor_masks", property(parent_point_only))


def parse_expands_p_as_f(monkeypatch):
    # P x reads as ~G ~x.  Criterion 2's evaluation counter cannot be reached
    # without a parse mismatch: a pair that parses alike compiles to one slot
    monkeypatch.setitem(formula._DUALS, "P", "G")


def weak_future_is_f(monkeypatch):
    # F x holds where some history of the class has a later x point: f x
    def some_later_point(chains, sub_mask):
        out = 0
        for i, point_chains in enumerate(chains):
            if any(chain & sub_mask for chain in point_chains):
                out |= 1 << i
        return out

    monkeypatch.setattr(semantics, "_weak_future", some_later_point)


def characterization_always_true(monkeypatch):
    monkeypatch.setattr(suite, "check_set_characterization",
                        lambda src, dst, f: True)


def pullback_drops_every_atom(monkeypatch):
    monkeypatch.setattr(suite, "pullback_valuation",
                        lambda valuation, f: {atom: frozenset() for atom in valuation})


def search_skips_refinement(monkeypatch):
    # the search starts from the fixpoint but never narrows the rows after a
    # pick, so every total map inside the greatest bisimulation is found
    monkeypatch.setattr(morphisms, "_refine", lambda sf, df, rel, conv: None)


def search_tries_every_total_map(monkeypatch):
    # the search starts from every pair and never narrows the rows
    def every_pair(src, dst):
        n, m = len(src.frame.point_list), len(dst.frame.point_list)
        return [dst.frame.full_mask] * n, [src.frame.full_mask] * m

    monkeypatch.setattr(morphisms, "_greatest", every_pair)
    monkeypatch.setattr(morphisms, "_refine", lambda sf, df, rel, conv: None)


def fixpoint_skips_refine(monkeypatch):
    monkeypatch.setattr(bisimulation, "_refine", lambda sf, df, rel, conv: None)


def fixpoint_drops_its_last_pair(monkeypatch):
    # the last related source point loses its last related target point
    greatest = bisimulation._greatest

    def short(src, dst):
        rel, conv = greatest(src, dst)
        i = max((i for i, row in enumerate(rel) if row), default=None)
        if i is not None:
            j = rel[i].bit_length() - 1
            rel[i] ^= 1 << j
            conv[j] ^= 1 << i
        return rel, conv

    monkeypatch.setattr(bisimulation, "_greatest", short)


def conditions_drop_l_back(monkeypatch):
    # in the fixpoint and in check_bisimulation alike, so every relation the
    # fixpoint returns passes the check and only formula agreement can fail
    unlinked = bisimulation._unlinked

    def without_l_back(kind, *args):
        return None if kind == "L-b" else unlinked(kind, *args)

    monkeypatch.setattr(bisimulation, "_unlinked", without_l_back)


def validator_misnames_a_duplicate(monkeypatch):
    # a duplicate-moment witness names a moment the document does not have
    validate = suite.validate_doc

    def misnaming(doc):
        return Report(tuple(
            replace(v, witness={**v.witness, "moment": "nowhere"})
            if v.kind == "duplicate-moment" else v
            for v in validate(doc).violations))

    monkeypatch.setattr(suite, "validate_doc", misnaming)


def validator_drops_cycles(monkeypatch):
    validate = suite.validate_doc

    def without_cycles(doc):
        return Report(tuple(v for v in validate(doc).violations
                            if v.kind != "cycle"))

    monkeypatch.setattr(suite, "validate_doc", without_cycles)


def _frame_walk_with(monkeypatch, **verdict):
    # the frame's walk, with parts of its verdict replaced
    walk = Frame._walk.func

    def replaced(frame):
        blocks_at, first, forest, counted, inside = walk(frame)
        return (blocks_at, first, forest, verdict.get("counted", counted),
                verdict.get("inside", inside))

    monkeypatch.setattr(Frame, "_walk", property(replaced))


def every_frame_coheres(monkeypatch):
    # the walk takes every class off a root to lie inside one at its
    # moment's parent, so it passes every point forest
    _frame_walk_with(monkeypatch, inside=True)


def walk_accepts_every_partition(monkeypatch):
    # the walk takes every moment's classes to hold as many leaves as pass
    # through it
    _frame_walk_with(monkeypatch, counted=True)


def walk_reaches_an_unreached_moment(monkeypatch):
    # the tree's walk counts the first declared moment it does not reach as
    # reached, so a cycle of one moment passes for a root
    walk = Tree._walk.func

    def reaching(tree):
        parent, order, depth, through = walk(tree)
        unreached = [m for m in tree.moments if m not in order]
        return parent, order + unreached[:1], depth, through

    monkeypatch.setattr(Tree, "_walk", property(reaching))


def map_checker_mislabels_g_forth(monkeypatch):
    # G-f failures are reported as H-f, a condition the map checker leaves
    # out, so the map replayer knows no such kind
    violation = morphisms._violation

    def mislabelled(kind, *args):
        v = violation(kind, *args)
        return replace(v, kind="H-f") if kind == "G-f" else v

    monkeypatch.setattr(morphisms, "_violation", mislabelled)


def map_checker_invents_l_back(monkeypatch):
    # every map fails L-b, witnessed by the image itself, so the valuation
    # report of a p-morphism carries a frame condition besides PV
    first_failure = morphisms._first_failure

    def inventing(kind, src, dst, i, j, rel, conv):
        if kind == "L-b":
            return dst.point_list[j]
        return first_failure(kind, src, dst, i, j, rel, conv)

    monkeypatch.setattr(morphisms, "_first_failure", inventing)


def relation_witness_is_the_pair(monkeypatch):
    # a G/H/L witness names the checked pair's own point, not a neighbour
    relation_violation = bisimulation._relation_violation

    def own_point(*args):
        v = relation_violation(*args)
        if "witness_point" not in v.witness:
            return v
        return replace(v, witness={
            **v.witness, "witness_point": v.witness["pair"][v.kind.endswith("-b")]})

    monkeypatch.setattr(bisimulation, "_relation_violation", own_point)


def map_stream_drops_g_back(monkeypatch):
    # the checker's stream never yields G-b; the characterization, criterion
    # 4's oracle, is untouched
    map_failures = morphisms._map_failures

    def without_g_back(*args):
        return (failure for failure in map_failures(*args) if failure[0] != "G-b")

    monkeypatch.setattr(morphisms, "_map_failures", without_g_back)


def relation_stream_stops_after_the_first_pair(monkeypatch):
    # only the failures of the first related pair (and B) are kept, so a
    # re-added pair later in the pair order breaks nothing the stream reports
    relation_failures = bisimulation._relation_failures

    def first_pair_only(src, dst, rel, *args):
        first = next(((i, (row & -row).bit_length() - 1)
                      for i, row in enumerate(rel) if row), None)
        return (failure for failure in relation_failures(src, dst, rel, *args)
                if failure[1] == first or failure[0] == "B")

    monkeypatch.setattr(bisimulation, "_relation_failures", first_pair_only)


def distinguishing_returns_a_fixed_atom(monkeypatch):
    # bisimilar pairs get a formula too, and it does not tell them apart
    monkeypatch.setattr(suite, "find_distinguishing_formula",
                        lambda *args, **kwargs: parse("p"))


# (mutant, {criterion: a pattern its FAIL detail must contain})
MUTANTS = [
    (hist_g_reads_the_past, {
        1: f", {COUNT} disagreements"}),
    (predecessors_are_the_parent_point, {
        1: f", {COUNT} disagreements"}),
    (parse_expands_p_as_f, {
        2: f": {COUNT} parse mismatches"}),
    (weak_future_is_f, {
        3: "CLI output and exit codes DIFFER"}),
    (characterization_always_true, {
        4: "checker and characterization DISAGREE"}),
    (pullback_drops_every_atom, {
        5: f" {COUNT} evaluation mismatches",
        6: f" {COUNT} pullback PV failures",
        7: f"\\({COUNT} failures; their point"}),
    (search_skips_refinement, {
        5: f" {COUNT} evaluation mismatches",
        6: f" {COUNT} pullback PV failures",
        7: f"\\({COUNT} failures; their point"}),
    (search_tries_every_total_map, {
        6: f": {COUNT} validity-preservation violations"}),
    (fixpoint_skips_refine, {
        7: f"\\({COUNT} condition failures"}),
    (conditions_drop_l_back, {
        7: f"\\(0 condition failures, {COUNT} agreement failures\\)"}),
    (map_stream_drops_g_back, {
        4: "checker and characterization DISAGREE"}),
    (fixpoint_drops_its_last_pair, {
        8: f", {COUNT} failed to break a condition"}),
    (relation_stream_stops_after_the_first_pair, {
        8: f", {COUNT} failed to break a condition"}),
    (validator_misnames_a_duplicate, {
        9: f", {COUNT} replay failures"}),
    (map_checker_mislabels_g_forth, {
        9: f", {COUNT} replay failures"}),
    (map_checker_invents_l_back, {
        9: f", {COUNT} replay failures"}),
    (relation_witness_is_the_pair, {
        9: f", {COUNT} replay failures"}),
    (distinguishing_returns_a_fixed_atom, {
        9: f", {COUNT} replay failures"}),
    (validator_drops_cycles, {
        10: f", {COUNT} missed \\(self_loop, "}),
    (every_frame_coheres, {
        10: f", {COUNT} missed \\(incoherent_split, incoherent_deep\\)"}),
    (walk_accepts_every_partition, {
        10: f", {COUNT} missed \\(overlapping_classes, empty_class\\)"}),
    (walk_reaches_an_unreached_moment, {
        10: f", {COUNT} missed \\(self_loop\\)"}),
]


@pytest.mark.parametrize("mutant, expected", MUTANTS,
                         ids=[m.__name__ for m, _ in MUTANTS])
def test_mutant_fails_the_criteria_it_names(monkeypatch, mutant, expected):
    mutant(monkeypatch)
    results = Battery(SEED).run_all(sorted(expected))
    for result in results:
        pattern = expected[result.number]
        assert not result.passed, result.line()
        assert re.search(pattern, result.detail), result.line()



def test_criterion_1_counts_what_one_model_evaluators_count(monkeypatch):
    hist_g_reads_the_past(monkeypatch)
    battery = Battery(SEED)
    detail = battery.criterion_1().detail
    program = Program("L")
    roots = [program.add(phi) for phi in battery.battery_formulas]
    expected = 0
    for model in battery.battery_models:
        by_clauses = Evaluator(model, relational=False, mode="L").run(program)
        by_relations = Evaluator(model, relational=True, mode="L").run(program)
        expected += sum(by_clauses[r] != by_relations[r] for r in roots)
    assert expected > 0
    assert detail.endswith(f", {expected} disagreements"), detail


@pytest.mark.parametrize("mutant", [None, parse_expands_p_as_f],
                         ids=["clean", "parse_expands_p_as_f"])
def test_criterion_2_counts_what_an_all_pairs_recount_counts(monkeypatch, mutant):
    # criterion 2 evaluates only the pairs its parse puts on two slots; the
    # recount evaluates every pair with one LF evaluator
    if mutant is not None:
        mutant(monkeypatch)
    battery = Battery(SEED)
    detail = battery.criterion_2().detail
    program = Program("LF")
    pairs = [(program.parse(f"{surface} ({text})"),
              program.parse(f"{expansion}({text})"))
             for text in map(format_formula, battery.battery_formulas)
             for surface, expansion in (("P", "~H ~"), ("f", "~G ~"),
                                        ("M", "~L ~"), ("g", "~F ~"))]
    ev = Evaluator(*battery.battery_models, mode="LF")
    masks = ev.run(program)
    mismatches = sum(a != b for a, b in pairs)
    disagreements = sum(lane != 0 for a, b in pairs
                        for lane in ev.lanes(masks[a] ^ masks[b]))
    assert (mismatches > 0) == (mutant is not None)
    assert detail.endswith(f": {mismatches} parse mismatches, "
                           f"{disagreements} evaluation disagreements"), detail
