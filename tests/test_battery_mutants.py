"""The battery can fail: each mutant below breaks one library routine, and the
criteria it names must then FAIL at full size, with the named failure
counter above zero in their detail lines.  Without a mutant the battery of
the same seed passes every criterion, which
``test_suite_battery.test_the_catalogue_is_built_once_per_battery`` checks.

Criteria 4 to 8 count failures in these places, each reached by a mutant:
criterion 4's disagreement, criterion 5's evaluation mismatches, criterion
6's validity violations and pullback PV failures, criterion 7's condition,
agreement and graph failures, and criterion 8's unbroken pairs.
"""

import re

import pytest

from itl import bisimulation, morphisms, suite
from itl.bisimulation import PointRelation
from itl.suite import Battery

SEED = 0
COUNT = r"[1-9]\d*"


def characterization_always_true(monkeypatch):
    monkeypatch.setattr(suite, "check_set_characterization",
                        lambda src, dst, f: True)


def pullback_drops_every_atom(monkeypatch):
    monkeypatch.setattr(suite, "pullback_valuation",
                        lambda valuation, f: {atom: frozenset() for atom in valuation})


def search_skips_its_gate(monkeypatch):
    # complete maps are no longer checked, so maps that pass only the
    # forward pruning (images of assigned neighbours are neighbours) are found
    search = suite.search_pmorphisms

    def gateless(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(morphisms, "_map_failures", lambda *a: iter(()))
            return iter(list(search(*args, **kwargs)))

    monkeypatch.setattr(suite, "search_pmorphisms", gateless)


def fixpoint_skips_refine(monkeypatch):
    monkeypatch.setattr(bisimulation, "_refine", lambda sf, df, rel, conv: None)


def fixpoint_drops_its_last_pair(monkeypatch):
    greatest = suite.greatest_bisimulation

    def short(src, dst, mode="LF"):
        pairs = greatest(src, dst, mode).sorted_pairs()
        return PointRelation(frozenset(pairs[:-1]))

    monkeypatch.setattr(suite, "greatest_bisimulation", short)


def conditions_drop_l_back(monkeypatch):
    # in the fixpoint and in check_bisimulation alike, so every relation the
    # fixpoint returns passes the check and only formula agreement can fail
    first_failure = bisimulation._first_failure

    def without_l_back(kind, *args):
        return None if kind == "L-b" else first_failure(kind, *args)

    monkeypatch.setattr(bisimulation, "_first_failure", without_l_back)


# (mutant, {criterion: a pattern its FAIL detail must contain})
MUTANTS = [
    (characterization_always_true, {
        4: "checker and characterization DISAGREE"}),
    (pullback_drops_every_atom, {
        5: f" {COUNT} evaluation mismatches",
        6: f" {COUNT} pullback PV failures",
        7: f"\\({COUNT} failures; their point"}),
    (search_skips_its_gate, {
        6: f": {COUNT} validity-preservation violations"}),
    (fixpoint_skips_refine, {
        7: f"\\({COUNT} condition failures"}),
    (conditions_drop_l_back, {
        7: f"\\(0 condition failures, {COUNT} agreement failures\\)"}),
    (fixpoint_drops_its_last_pair, {
        8: f", {COUNT} failed to break a condition"}),
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

