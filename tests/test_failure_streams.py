"""Each checker's failure stream against the report it formats.

``frame_pmorphism_failures``, ``model_pmorphism_failures`` and
``bisimulation_failures`` validate their inputs when called and test the
conditions as they are read; the public ``check_*`` functions format the
whole stream.  So over generated structures, in both modes, a stream is
empty exactly when the report is ok, and its first failure formats to the
report's first violation.  A relation's whole stream names its pairs in the
canonical pair order, B last, and formats in order into the report."""

import random
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from itl import bisimulation, morphisms
from itl.bisimulation import (
    PointRelation, bisimulation_failures, check_bisimulation, conditions_for,
    greatest_bisimulation,
)
from itl.errors import InvalidPointError
from itl.generate import gen_random_model
from itl.morphisms import (
    PointMap, check_frame_pmorphism, check_model_pmorphism,
    frame_pmorphism_failures, model_pmorphism_failures, pullback_valuation,
    search_pmorphisms,
)
from itl.structures import Model, Point

MODES = st.sampled_from(("L", "LF"))
FOREIGN = Point("nowhere", frozenset({"nowhere"}))


def small_model(rng: random.Random, max_points: int) -> Model:
    """A generated model with at most max_points points."""
    while True:
        model = gen_random_model(
            rng.randrange(2 ** 32), rng.randint(1, 5), branching=rng.choice((2, 3)),
            indist_policy=rng.choice(("undividedness", "coarsened")),
            n_atoms=rng.randint(0, 2))
        if len(model.frame.point_list) <= max_points:
            return model


def sample_maps(rng: random.Random, src: Model, dst: Model) -> list[PointMap]:
    """Random maps, the first two maps the search finds, and each of those
    with one image moved."""
    src_pts, dst_pts = src.frame.point_list, dst.frame.point_list
    maps = [PointMap({p: rng.choice(dst_pts) for p in src_pts}) for _ in range(3)]
    for f in islice(search_pmorphisms(src.frame, dst.frame, "L"), 2):
        moved = dict(f.mapping)
        moved[rng.choice(src_pts)] = rng.choice(dst_pts)
        maps += [f, PointMap(moved)]
    return maps


def agrees_with_report(failures, report, formatted) -> None:
    first = next(failures, None)
    assert (first is None) == report.ok
    if first is not None:
        assert formatted(first) == report.violations[0]


@given(seed=st.integers(0, 10 ** 6), mode=MODES)
def test_map_streams_agree_with_the_reports(seed, mode):
    rng = random.Random(seed)
    src, dst = small_model(rng, 7), small_model(rng, 7)
    for f in sample_maps(rng, src, dst):
        def formatted(failure):
            kind, i, w = failure
            return morphisms._violation(kind, src.frame.point_list[i], f, w)

        agrees_with_report(frame_pmorphism_failures(src.frame, dst.frame, f, mode),
                           check_frame_pmorphism(src.frame, dst.frame, f, mode),
                           formatted)
        # the target's own valuation, and the pullback, which passes PV
        for source in (src, Model(src.frame, pullback_valuation(dst.valuation, f))):
            agrees_with_report(model_pmorphism_failures(source, dst, f, mode),
                               check_model_pmorphism(source, dst, f, mode),
                               formatted)


@given(seed=st.integers(0, 10 ** 6), mode=MODES)
def test_relation_streams_agree_with_the_reports(seed, mode):
    rng = random.Random(seed)
    src, dst = small_model(rng, 8), small_model(rng, 8)
    greatest = greatest_bisimulation(src, dst, mode).pairs
    universe = [(p, q) for p in src.frame.point_list for q in dst.frame.point_list]
    outside = [pair for pair in universe if pair not in greatest]
    cases = [(greatest, rng.choice(universe))]
    if outside:
        pair = rng.choice(outside)
        cases.append((greatest | {pair}, pair))
    if greatest:
        pair = rng.choice(sorted(greatest, key=universe.index))
        cases.append((greatest - {pair}, rng.choice(universe)))
    for pairs, anchor in cases:
        relation = PointRelation(frozenset(pairs))
        agrees_with_report(
            bisimulation_failures(src, dst, relation, anchor, mode),
            check_bisimulation(src, dst, relation, anchor, mode),
            lambda failure: bisimulation._relation_violation(src, dst, *failure))


@given(seed=st.integers(0, 10 ** 6), mode=MODES)
def test_relation_streams_follow_the_pair_order(seed, mode):
    # random subsets of all pairs, and the greatest bisimulation with one
    # pair re-added and anchored there, as criterion 9 replays it
    rng = random.Random(seed)
    src, dst = small_model(rng, 8), small_model(rng, 8)
    index = (src.frame.point_index, dst.frame.point_index)
    universe = [(p, q) for p in src.frame.point_list for q in dst.frame.point_list]
    cases = [(rng.sample(universe, rng.randint(0, len(universe))), rng.choice(universe))
             for _ in range(2)]
    greatest = greatest_bisimulation(src, dst, mode).pairs
    outside = [pair for pair in universe if pair not in greatest]
    if outside:
        pair = rng.choice(outside)
        cases.append((greatest | {pair}, pair))
    kinds = conditions_for(mode)
    for pairs, anchor in cases:
        relation = PointRelation(frozenset(pairs))
        failures = list(bisimulation_failures(src, dst, relation, anchor, mode))
        body = [failure for failure in failures if failure[0] != "B"]
        linked = (index[0][anchor[0]], index[1][anchor[1]])
        assert failures[len(body):] == (
            [] if anchor in relation.pairs else [("B", linked, None)])
        position = {(index[0][p], index[1][q]): k
                    for k, (p, q) in enumerate(relation.sorted_pairs())}
        keys = [(position[pair], kinds.index(kind)) for kind, pair, _ in body]
        assert keys == sorted(set(keys))
        assert tuple(bisimulation._relation_violation(src, dst, *failure)
                     for failure in failures) == \
            check_bisimulation(src, dst, relation, anchor, mode).violations


def raised_by(call):
    """The type and message of what ``call()`` raises."""
    with pytest.raises(Exception) as err:
        call()
    return type(err.value), str(err.value)


@given(seed=st.integers(0, 10 ** 6))
def test_streams_validate_when_called(seed):
    # the stream raises what the report raises, before any next()
    rng = random.Random(seed)
    src, dst = small_model(rng, 7), small_model(rng, 7)
    image = dst.frame.point_list[0]
    total = {p: image for p in src.frame.point_list}
    partial = dict(list(total.items())[1:])
    bad_maps = [PointMap(partial), PointMap({**total, FOREIGN: image}),
                PointMap({**total, src.frame.point_list[-1]: FOREIGN})]
    for f in bad_maps:
        got = raised_by(lambda: frame_pmorphism_failures(src.frame, dst.frame, f))
        assert got[0] is ValueError
        assert got == raised_by(lambda: check_frame_pmorphism(src.frame, dst.frame, f))
        assert got == raised_by(lambda: model_pmorphism_failures(src, dst, f))
        assert got == raised_by(lambda: check_model_pmorphism(src, dst, f))
    f = PointMap(total)
    for call in (lambda: frame_pmorphism_failures(src.frame, dst.frame, f, "nope"),
                 lambda: model_pmorphism_failures(src, dst, f, "nope")):
        assert raised_by(call)[0] is ValueError

    pair = (src.frame.point_list[0], image)
    relation = PointRelation(frozenset({pair}))
    foreign = PointRelation(frozenset({pair, (FOREIGN, image)}))
    for rel, anchor, expected in ((foreign, pair, InvalidPointError),
                                  (relation, (src.frame.point_list[0], FOREIGN),
                                   InvalidPointError),
                                  (relation, pair, ValueError)):
        mode = "LF" if expected is InvalidPointError else "nope"
        got = raised_by(lambda: bisimulation_failures(src, dst, rel, anchor, mode))
        assert got == raised_by(lambda: check_bisimulation(src, dst, rel, anchor, mode))
        assert got[0] is expected
