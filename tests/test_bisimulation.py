import random

import pytest
from hypothesis import given, strategies as st

from itl.bisimulation import (
    PointRelation, _atom_seed, _first_failure, _pv_failure, _refine,
    _relation_masks, bisimilar, check_bisimulation, find_distinguishing_formula,
    greatest_bisimulation,
)
from itl.catalog import (
    catalog_frames, catalog_models, f1_model, frame_chain2, frame_chain3,
    frame_fork, frame_single, random_valuation,
)
from itl.documents import resolve_point
from itl.errors import InvalidBoundError, InvalidPointError
from itl.formula import G, H, Atom, corpus_program, enumerate_formulas
from itl.generate import INDIST_POLICIES, gen_random_frame, gen_random_model
from itl.morphisms import (
    PointMap, check_frame_pmorphism, pullback_valuation, search_pmorphisms,
)
from itl.semantics import Evaluator, eval_hist, eval_rel
from itl.structures import Model, Point, Violation, points
from itl.suite import _replay_map_violation, _replay_relation_violation
from oracles import depth_height

PAIR_CONDITIONS = ("G-f", "H-f", "L-f", "G-b", "H-b", "L-b")
MAP_CONDITIONS = ("G-f", "G-b", "H-b", "L-f", "L-b")
F_CONDITIONS = ("F-f", "F-b")


def pt(model_or_frame, moment, rep):
    frame = getattr(model_or_frame, "frame", model_or_frame)
    return resolve_point(frame, moment, rep)


def graph_of(f: PointMap) -> PointRelation:
    return PointRelation(frozenset(f.mapping.items()))


def collapse_models():
    fork, chain = frame_fork(), frame_chain2()
    f = PointMap({
        pt(fork, "r", "a"): pt(chain, "r", "a"),
        pt(fork, "a", "a"): pt(chain, "a", "a"),
        pt(fork, "b", "b"): pt(chain, "a", "a"),
    })
    dst = Model(chain, {"p": frozenset({pt(chain, "a", "a")})})
    src = Model(fork, pullback_valuation(dst.valuation, f))
    return src, dst, f


def point_masks(src, dst, pairs):
    """The relation masks of point pairs between two frames."""
    return _relation_masks(len(src.point_list), len(dst.point_list), [
        (src.point_index[p], dst.point_index[q]) for p, q in pairs])


def relation_candidates(src, dst, pair, kind):
    """(routine result, replayable witness) for every witness a violation of
    kind at pair could name, in canonical order."""
    p, q = pair
    base = {"pair": [p.text(), q.text()]}
    if kind == "PV":
        atoms = sorted(set(src.valuation) | set(dst.valuation))
        return [(a, dict(base, atom=a)) for a in atoms]
    if kind == "F-f":
        return [(h, dict(base, target_history=h)) for h in sorted(q.block)]
    if kind == "F-b":
        return [(h, dict(base, history=h)) for h in sorted(p.block)]
    side = src if kind.endswith("-f") else dst
    return [(r, dict(base, witness_point=r.text())) for r in points(side.frame)]


def replayed_failure(src, dst, relation, pair, kind):
    """The first candidate witness the suite's replayer confirms, or None."""
    for value, witness in relation_candidates(src, dst, pair, kind):
        if _replay_relation_violation(src, dst, relation,
                                      Violation(kind, "", witness)):
            return value
    return None


def map_candidates(src, dst, f, p, kind):
    """Like relation_candidates, for the graph pair (p, f(p)) of a map."""
    base = {"point": p.text()}
    if kind in ("G-f", "L-f"):
        return [(q, {"pair": [p.text(), q.text()]}) for q in points(src)]
    if kind == "F-f":
        return [(h, dict(base, target_history=h)) for h in sorted(f(p).block)]
    if kind == "F-b":
        return [(h, dict(base, history=h)) for h in sorted(p.block)]
    return [(q, dict(base, target=q.text())) for q in points(dst)]


def small_model(seed: int, max_points: int = 10) -> Model:
    """A generated model with at most max_points points, one atom."""
    rng = random.Random(seed)
    while True:
        model = gen_random_model(
            rng.randrange(2 ** 32), rng.randint(1, 6), branching=rng.choice((2, 3)),
            indist_policy=rng.choice(("undividedness", "coarsened")), n_atoms=1)
        if len(points(model.frame)) <= max_points:
            return model


# ---------------------------------------------------------------------------
# the condition routine against the suite's witness replayers
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 10 ** 6), mode=st.sampled_from(("L", "LF")))
def test_condition_routine_matches_relation_replayer(seed, mode):
    src, dst = small_model(seed), small_model(seed + 1)
    universe = [(p, q) for p in points(src.frame) for q in points(dst.frame)]
    rng = random.Random(seed)
    kinds = PAIR_CONDITIONS + (F_CONDITIONS if mode == "LF" else ())
    greatest = greatest_bisimulation(src, dst, mode).pairs
    for pairs in (frozenset(x for x in universe if rng.random() < 0.5), greatest):
        relation = PointRelation(pairs)
        rel, conv = point_masks(src.frame, dst.frame, pairs)
        for pair in universe:
            i = src.frame.point_index[pair[0]]
            j = dst.frame.point_index[pair[1]]
            for kind in kinds:
                got = _first_failure(kind, src.frame, dst.frame, i, j, rel, conv)
                assert got == replayed_failure(src, dst, relation, pair, kind), \
                    (kind, pair)


@given(seed=st.integers(0, 10 ** 6), mode=st.sampled_from(("L", "LF")))
def test_condition_routine_on_map_graphs_matches_map_replayer(seed, mode):
    src, dst = small_model(seed).frame, small_model(seed + 1).frame
    rng = random.Random(seed)
    dst_pts = points(dst)
    f = PointMap({p: dst_pts[rng.randrange(len(dst_pts))] for p in points(src)})
    rel, conv = point_masks(src, dst, f.mapping.items())
    kinds = MAP_CONDITIONS + (F_CONDITIONS if mode == "LF" else ())
    for i, p in enumerate(points(src)):
        j = dst.point_index[f(p)]
        for kind in kinds:
            expected = next(
                (value for value, witness in map_candidates(src, dst, f, p, kind)
                 if _replay_map_violation(src, dst, f, Violation(kind, "", witness))),
                None)
            assert _first_failure(kind, src, dst, i, j, rel, conv) == expected, \
                (kind, p)


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

def test_identity_relation_is_a_bisimulation():
    model = f1_model()
    identity = PointRelation(frozenset((p, p) for p in points(model.frame)))
    anchor = (pt(model, "r", "a"), pt(model, "r", "a"))
    assert check_bisimulation(model, model, identity, anchor, "LF").ok


def test_pmorphism_graph_is_a_bisimulation():
    src, dst, f = collapse_models()
    anchor = (pt(src, "r", "a"), pt(dst, "r", "a"))
    assert check_bisimulation(src, dst, graph_of(f), anchor, "LF").ok


def test_nonleaf_related_to_leaf_fails_forward():
    chain = frame_chain2()
    model = Model(chain, {})
    relation = PointRelation(frozenset({(pt(chain, "r", "a"),
                                         pt(chain, "a", "a"))}))
    report = check_bisimulation(model, model, relation,
                                (pt(chain, "r", "a"), pt(chain, "a", "a")), "L")
    assert "G-f" in report.kinds()
    gf = next(v for v in report.violations if v.kind == "G-f")
    assert gf.witness["witness_point"] == "a/a"


def test_weak_future_back_failure_reported_with_witness():
    # dropping the b-side pair from the collapse graph leaves the source
    # history b untracked by any target history
    fork, chain = frame_fork(), frame_chain2()
    src, dst = Model(fork, {}), Model(chain, {})
    sparse = PointRelation(frozenset({
        (pt(fork, "r", "a"), pt(chain, "r", "a")),
        (pt(fork, "a", "a"), pt(chain, "a", "a")),
    }))
    report = check_bisimulation(src, dst, sparse,
                                (pt(fork, "r", "a"), pt(chain, "r", "a")), "LF")
    assert "F-b" in report.kinds()
    witness = next(v for v in report.violations if v.kind == "F-b").witness
    assert witness == {"pair": ["r/a", "r/a"], "history": "b"}
    # replay: every target history has a later point with no related later
    # point along the witness history
    from itl.structures import future_points

    q = pt(chain, "r", "a")
    futures_b = future_points(fork, "r", "b")
    for leaf in q.block:
        assert any(
            not any((r, r2) in sparse.pairs for r in futures_b)
            for r2 in future_points(chain, "r", leaf))


def test_anchor_condition_reported_separately():
    model = f1_model()
    identity = PointRelation(frozenset(
        (p, p) for p in points(model.frame) if p.moment != "r"))
    anchor = (pt(model, "r", "a"), pt(model, "r", "a"))
    report = check_bisimulation(model, model, identity, anchor, "L")
    assert report.kinds()[-1] == "B"


def test_invalid_points_rejected():
    model = f1_model()
    foreign = Point("zz", frozenset({"zz"}))
    relation = PointRelation(frozenset({(foreign, foreign)}))
    with pytest.raises(InvalidPointError):
        check_bisimulation(model, model, relation, (foreign, foreign), "L")
    with pytest.raises(InvalidPointError,
                       match="^zz/zz is not a point of the target model$"):
        bisimilar(model, pt(model, "r", "a"), model, foreign)


def test_bisimilar_checks_its_points_before_the_mode():
    model = f1_model()
    root, foreign = pt(model, "r", "a"), Point("zz", frozenset({"zz"}))
    with pytest.raises(InvalidPointError,
                       match="^zz/zz is not a point of the source model$"):
        bisimilar(model, foreign, model, root, "X")
    with pytest.raises(InvalidPointError,
                       match="^zz/zz is not a point of the target model$"):
        bisimilar(model, root, model, foreign, "X")


def test_invalid_point_error_names_the_canonically_first_foreign_point():
    # a relation's pairs form a frozenset, whose order follows string hashing
    model = f1_model()
    names = [f"z{c}" for c in "tsrqponmlkjihgfedcba"]
    foreign = [Point(m, frozenset({m})) for m in names]
    relation = PointRelation(frozenset((p, p) for p in foreign))
    with pytest.raises(InvalidPointError,
                       match="^za/za is not a point of the source model$"):
        check_bisimulation(model, model, relation, (foreign[0], foreign[0]), "L")


# ---------------------------------------------------------------------------
# the greatest bisimulation
# ---------------------------------------------------------------------------

def test_two_single_point_models_fully_related():
    single = Model(frame_single(), {})
    rel = greatest_bisimulation(single, single, "LF")
    assert len(rel.pairs) == 1


def test_chain_root_and_leaf_not_bisimilar():
    model = Model(frame_chain2(), {})
    rel = greatest_bisimulation(model, model, "LF")
    assert {(a.text(), b.text()) for a, b in rel.pairs} == \
        {("r/a", "r/a"), ("a/a", "a/a")}
    assert bisimilar(model, pt(model, "r", "a"), model, pt(model, "r", "a"))
    assert not bisimilar(model, pt(model, "r", "a"), model, pt(model, "a", "a"))


def test_greatest_contains_pmorphism_graph():
    src, dst, f = collapse_models()
    rel = greatest_bisimulation(src, dst, "LF")
    assert graph_of(f).pairs <= rel.pairs


def test_greatest_output_passes_check_at_every_anchor():
    src, dst, _ = collapse_models()
    rel = greatest_bisimulation(src, dst, "LF")
    for pair in rel.sorted_pairs():
        assert check_bisimulation(src, dst, rel, pair, "LF").ok


def test_readding_any_deleted_pair_breaks_a_condition():
    model = Model(frame_chain2(), {})
    rel = greatest_bisimulation(model, model, "L")
    everything = {(p, q) for p in points(model.frame)
                  for q in points(model.frame)}
    for pair in everything - rel.pairs:
        extended = PointRelation(rel.pairs | {pair})
        assert not check_bisimulation(model, model, extended, pair, "L").ok


def test_union_of_bisimulations_satisfies_pair_conditions():
    model = f1_model()
    identity = PointRelation(frozenset((p, p) for p in points(model.frame)))
    rel = greatest_bisimulation(model, model, "LF")
    union = PointRelation(identity.pairs | rel.pairs)
    anchor = (pt(model, "r", "a"), pt(model, "r", "a"))
    assert check_bisimulation(model, model, union, anchor, "LF").ok


@given(seed=st.integers(0, 60), src_atoms=st.integers(0, 2),
       dst_atoms=st.integers(0, 2))
def test_greatest_bisimulation_matches_brute_force(seed, src_atoms, dst_atoms):
    # oracle: the union of every relation whose pairs all satisfy the
    # per-pair conditions, found by enumerating all relations outright and
    # deciding each condition through the suite's witness replayers
    from itertools import combinations

    src = gen_random_model(seed, 1 + seed % 3, n_atoms=src_atoms)
    dst = gen_random_model(seed + 77, 1 + (seed + 1) % 3, n_atoms=dst_atoms)
    sp, dp = points(src.frame), points(dst.frame)
    universe = [(p, q) for p in sp for q in dp]
    if len(universe) > 9:
        return
    kinds = ("PV",) + PAIR_CONDITIONS + F_CONDITIONS
    satisfying = []
    for size in range(1, len(universe) + 1):
        for chosen in combinations(universe, size):
            rel = PointRelation(frozenset(chosen))
            if all(replayed_failure(src, dst, rel, pair, kind) is None
                   for pair in chosen for kind in kinds):
                satisfying.append(rel.pairs)
    expected = frozenset().union(*satisfying) if satisfying else frozenset()
    assert greatest_bisimulation(src, dst, "LF").pairs == expected


# ---------------------------------------------------------------------------
# on finite frames the F conditions follow from the G/H/L conditions
# ---------------------------------------------------------------------------

def model_pair(seed: int, policy: str, max_points: int = 40):
    """Two models of at most max_points points under one indistinguishability
    policy, with at most one atom: a generated model, and either itself, a
    copy with one point's label flipped or another generated model, so that
    large greatest bisimulations are common."""
    rng = random.Random(seed)

    def generated() -> Model:
        while True:
            model = gen_random_model(
                rng.randrange(2 ** 32), rng.randint(1, 16),
                branching=rng.choice((2, 3)), indist_policy=policy,
                n_atoms=rng.randint(0, 1))
            if len(points(model.frame)) <= max_points:
                return model

    src = generated()
    shape = rng.randrange(3)
    if shape == 0:
        return src, src
    if shape == 1:
        flipped = frozenset({rng.choice(points(src.frame))})
        return src, Model(src.frame, {"p0": src.valuation.get("p0", frozenset())
                                      ^ flipped})
    return src, generated()


@given(seed=st.integers(0, 10 ** 6), policy=st.sampled_from(INDIST_POLICIES))
def test_greatest_bisimulation_satisfies_the_f_conditions(seed, policy):
    # the fixpoint deletes pairs on G/H/L only; F-f and F-b hold at every
    # pair it keeps, so the relation is also the greatest one of mode LF
    src, dst = model_pair(seed, policy)
    rel = greatest_bisimulation(src, dst, "L")
    assert greatest_bisimulation(src, dst, "LF") == rel
    if rel.pairs:
        anchor = random.Random(seed).choice(rel.sorted_pairs())
        assert check_bisimulation(src, dst, rel, anchor, "LF").ok


@given(seed=st.integers(0, 10 ** 6), policy=st.sampled_from(INDIST_POLICIES))
def test_bisimilar_is_membership_in_the_greatest_bisimulation(seed, policy):
    src, dst = model_pair(seed, policy, max_points=12)
    for mode in ("L", "LF"):
        pairs = greatest_bisimulation(src, dst, mode).pairs
        for p in points(src.frame):
            for q in points(dst.frame):
                assert bisimilar(src, p, dst, q, mode) == ((p, q) in pairs)


@given(seed=st.integers(0, 10 ** 6), policy=st.sampled_from(INDIST_POLICIES))
def test_related_points_have_equal_depth(seed, policy):
    src, dst = model_pair(seed, policy)
    src_depth, dst_depth = src.frame.tree.ancestors, dst.frame.tree.ancestors
    for p, q in greatest_bisimulation(src, dst, "L").pairs:
        assert len(src_depth[p.moment]) == len(dst_depth[q.moment])


@given(seed=st.integers(0, 10 ** 6), policy=st.sampled_from(INDIST_POLICIES))
def test_related_points_have_equal_height(seed, policy):
    # the fixpoint from the PV seed, which does not key on height
    src, dst = model_pair(seed, policy)
    src_shape, dst_shape = depth_height(src.frame), depth_height(dst.frame)
    targets = dst.frame.points_of
    for p, row in zip(points(src.frame), pv_fixpoint(src, dst)):
        for q in targets(row):
            assert src_shape[p][1] == dst_shape[q][1]


def test_only_the_checkers_ask_for_the_f_conditions(monkeypatch):
    import itl.bisimulation
    import itl.morphisms

    # the fixpoint tests the G/H/L conditions through ``_unlinked`` alone,
    # the checkers every condition through ``_first_failure``
    asked = []

    def recording(routine):
        def record(kind, *args):
            asked.append(kind)
            return routine(kind, *args)
        return record

    first_failure = recording(itl.bisimulation._first_failure)
    monkeypatch.setattr(itl.bisimulation, "_first_failure", first_failure)
    monkeypatch.setattr(itl.morphisms, "_first_failure", first_failure)
    monkeypatch.setattr(itl.bisimulation, "_unlinked",
                        recording(itl.bisimulation._unlinked))

    def kinds_asked(call) -> set[str]:
        asked.clear()
        call()
        return set(asked)

    src, dst, f = collapse_models()
    rel = greatest_bisimulation(src, dst, "LF")
    anchor = (pt(src, "r", "a"), pt(dst, "r", "a"))
    assert kinds_asked(lambda: greatest_bisimulation(src, dst, "LF")) == \
        set(PAIR_CONDITIONS)
    # the search refines with the fixpoint's routine: the six pair conditions
    assert kinds_asked(lambda: list(search_pmorphisms(src.frame, dst.frame, "LF"))) \
        == set(PAIR_CONDITIONS)
    assert kinds_asked(lambda: check_bisimulation(src, dst, rel, anchor, "LF")) == \
        set(PAIR_CONDITIONS + F_CONDITIONS)
    assert kinds_asked(lambda: check_frame_pmorphism(src.frame, dst.frame, f, "LF")) \
        == set(MAP_CONDITIONS + F_CONDITIONS)


def first_disagreement(src, dst, p, q):
    """The first atom, in sorted order, on which the valuations give the two
    points different truth values, if any."""
    return next((atom for atom in sorted(set(src.valuation) | set(dst.valuation))
                 if (p in src.valuation.get(atom, frozenset()))
                 != (q in dst.valuation.get(atom, frozenset()))), None)


def pv_relation(src, dst):
    """The masks of the pairs that agree on every atom of the valuations."""
    return point_masks(src.frame, dst.frame, [
        (p, q) for p in points(src.frame) for q in points(dst.frame)
        if first_disagreement(src, dst, p, q) is None])


def seed_relation(src, dst):
    """The masks of the pairs of ``pv_relation`` whose points have equal
    depth and height."""
    src_shape, dst_shape = depth_height(src.frame), depth_height(dst.frame)
    return point_masks(src.frame, dst.frame, [
        (p, q) for p in points(src.frame) for q in points(dst.frame)
        if first_disagreement(src, dst, p, q) is None
        and src_shape[p] == dst_shape[q]])


def pv_fixpoint(src, dst) -> list[int]:
    """The per-source-point masks of the fixpoint run from ``pv_relation``."""
    rel, conv = pv_relation(src, dst)
    _refine(src.frame, dst.frame, rel, conv)
    return rel


@given(seed=st.integers(0, 10 ** 6), src_atoms=st.integers(0, 3),
       dst_atoms=st.integers(0, 3))
def test_pv_failure_is_the_first_atom_the_valuations_disagree_on(
        seed, src_atoms, dst_atoms):
    src = gen_random_model(seed, 1 + seed % 6, n_atoms=src_atoms)
    dst = gen_random_model(seed + 1, 1 + (seed + 1) % 6, n_atoms=dst_atoms)
    for i, p in enumerate(points(src.frame)):
        for j, q in enumerate(points(dst.frame)):
            assert _pv_failure(src, dst, i, j) == first_disagreement(src, dst, p, q)


@given(seed=st.integers(0, 10 ** 6), src_atoms=st.integers(0, 3),
       dst_atoms=st.integers(0, 3), empty_atom=st.booleans())
def test_atom_seed_is_the_pairs_agreeing_on_every_atom(seed, src_atoms,
                                                       dst_atoms, empty_atom):
    # the atoms p0.. are drawn per side, so some exist on one side only
    src = gen_random_model(seed, 1 + seed % 7, branching=3, n_atoms=src_atoms)
    dst = gen_random_model(seed + 1, 1 + (seed + 1) % 7, n_atoms=dst_atoms)
    if empty_atom:
        src = Model(src.frame, {**src.valuation, "q": frozenset()})
    assert _atom_seed(src, dst) == seed_relation(src, dst)


def test_atom_seed_ignores_valuation_points_outside_the_frame():
    # a hand-built model, never validated: its valuation names a point of no
    # frame, which neither PV nor the seed may count
    chain = frame_chain2()
    leaf, outside = pt(chain, "a", "a"), Point("zz", frozenset({"zz"}))
    with_outside = Model(chain, {"p": frozenset({leaf, outside}),
                                 "q": frozenset({outside})})
    plain = Model(chain, {"p": frozenset({leaf})})
    for src, dst in ((with_outside, plain), (plain, with_outside)):
        assert _atom_seed(src, dst) == seed_relation(src, dst)
        identity = frozenset((p, p) for p in points(chain))
        assert greatest_bisimulation(src, dst, "LF").pairs == identity


def assert_same_fixpoint(src, dst):
    """The greatest bisimulation is the fixpoint run from the PV seed."""
    expected = PointRelation(frozenset(
        (p, q) for p, row in zip(points(src.frame), pv_fixpoint(src, dst))
        for q in dst.frame.points_of(row)))
    assert greatest_bisimulation(src, dst, "LF") == expected


@given(seed=st.integers(0, 10 ** 6), policy=st.sampled_from(INDIST_POLICIES))
def test_seed_keeps_the_fixpoint_of_the_pv_seed(seed, policy):
    assert_same_fixpoint(*model_pair(seed, policy))


def test_seed_keeps_the_fixpoint_on_large_relations():
    # the self and foreign pairs of 60-moment models, about 70 points each,
    # whose greatest bisimulations are large
    models = [gen_random_model(s, 60, branching=2, indist_policy="coarsened")
              for s in range(3, 11)]
    for k, src in enumerate(models):
        assert_same_fixpoint(src, src)
        assert_same_fixpoint(src, models[(k + 1) % len(models)])


def test_seed_keeps_the_fixpoint_on_the_catalogue():
    # every ordered pair of catalogue models: p-morphic frames relate points
    # whose classes differ in size and shape
    models = catalog_models(49, catalog_frames()).values()
    for src in models:
        for dst in models:
            assert_same_fixpoint(src, dst)


@given(seed=st.integers(0, 500))
def test_greatest_bisimulation_pairs_agree_on_small_corpus(seed):
    src = gen_random_model(seed, 1 + seed % 4, n_atoms=1)
    dst = gen_random_model(seed + 1, 1 + (seed + 1) % 4, n_atoms=1)
    rel = greatest_bisimulation(src, dst, "LF")
    corpus = enumerate_formulas(("p0",), 2, "LF")
    for p, q in rel.pairs:
        for phi in corpus:
            assert eval_hist(src, p, phi) == eval_hist(dst, q, phi)


# ---------------------------------------------------------------------------
# distinguishing formulas
# ---------------------------------------------------------------------------

def test_bisimilar_points_cannot_be_distinguished():
    src, dst, f = collapse_models()
    phi = find_distinguishing_formula(src, pt(src, "r", "a"),
                                      dst, pt(dst, "r", "a"),
                                      mode="LF", max_depth=4)
    assert phi is None


def test_root_vs_leaf_distinguished_by_successor_formula():
    model = Model(frame_chain2(), {})
    phi = find_distinguishing_formula(model, pt(model, "r", "a"),
                                      model, pt(model, "a", "a"),
                                      mode="L", max_depth=2)
    assert phi == G(Atom("p"))
    assert eval_hist(model, pt(model, "r", "a"), phi) != \
        eval_hist(model, pt(model, "a", "a"), phi)


@pytest.mark.parametrize("mode", ["L", "LF"])
@pytest.mark.parametrize("anchors, expected", [
    (("r", "a", "r", "b"), G(G(Atom("p")))),
    (("a", "a", "b", "b"), H(H(Atom("p")))),
])
def test_chains_two_and_three_long_need_depth_two(mode, anchors, expected):
    # atom-free chains: the two roots (and the two leaves) agree on every
    # depth-1 formula, and differ only on a moment two steps away
    src, dst = Model(frame_chain2(), {}), Model(frame_chain3(), {})
    p, q = pt(src, *anchors[:2]), pt(dst, *anchors[2:])
    assert find_distinguishing_formula(src, p, dst, q, mode=mode, max_depth=1) is None
    for depth in (2, 4):
        phi = find_distinguishing_formula(src, p, dst, q, mode=mode, max_depth=depth)
        assert phi == expected
        assert eval_hist(src, p, phi, mode) != eval_hist(dst, q, phi, mode)
        assert eval_rel(src, p, phi, mode) != eval_rel(dst, q, phi, mode)


@pytest.mark.parametrize("depth", [-1, True, 1.5, "2"])
def test_distinguishing_search_rejects_malformed_depth(depth):
    frame = frame_fork()
    a = pt(frame, "a", "a")
    model = Model(frame, {"p": frozenset({a})})
    with pytest.raises(InvalidBoundError, match="max_depth"):
        find_distinguishing_formula(model, a, model, pt(frame, "b", "b"),
                                    max_depth=depth)


def test_atom_difference_found_at_depth_zero():
    frame = frame_fork()
    a = pt(frame, "a", "a")
    src = Model(frame, {"p": frozenset({a})})
    dst = Model(frame, {"p": frozenset()})
    phi = find_distinguishing_formula(src, a, dst, a, mode="L", max_depth=3)
    assert phi == Atom("p")
    # the third atom, true on one side only
    single = frame_single()
    r = pt(single, "r", "r")
    src = Model(single, {"p": frozenset(), "q": frozenset(), "r": frozenset({r})})
    dst = Model(single, {"p": frozenset(), "q": frozenset(), "r": frozenset()})
    assert not greatest_bisimulation(src, dst, "LF").pairs
    for depth in (0, 4):
        phi = find_distinguishing_formula(src, r, dst, r, mode="LF", max_depth=depth)
        assert phi == Atom("r")


@given(seed=st.integers(0, 300))
def test_found_formulas_genuinely_distinguish(seed):
    frames = list(catalog_frames().values())
    frame_a = frames[seed % len(frames)]
    frame_b = frames[(seed // 7) % len(frames)]
    src = Model(frame_a, random_valuation(seed, frame_a, atoms=("p",)))
    dst = Model(frame_b, random_valuation(seed + 3, frame_b, atoms=("p",)))
    p = points(frame_a)[seed % len(points(frame_a))]
    q = points(frame_b)[(seed // 3) % len(points(frame_b))]
    phi = find_distinguishing_formula(src, p, dst, q, mode="LF", max_depth=3)
    # a None result asserts nothing about bisimilarity (no converse is claimed)
    if phi is not None:
        assert eval_hist(src, p, phi) != eval_hist(dst, q, phi)
        assert eval_rel(src, p, phi) != eval_rel(dst, q, phi)
        assert not bisimilar(src, p, dst, q, mode="LF")


@pytest.mark.parametrize("mode", ["L", "LF"])
def test_third_atom_under_an_operator_is_found(mode):
    # r holds at the only successor of the anchor on one side only: no atom
    # separates the anchors, G r does
    chain = frame_chain2()
    r, a = pt(chain, "r", "a"), pt(chain, "a", "a")
    src = Model(chain, {"p": frozenset(), "q": frozenset(), "r": frozenset({a})})
    dst = Model(chain, {"p": frozenset(), "q": frozenset(), "r": frozenset()})
    assert not bisimilar(src, r, dst, r, mode)
    phi = find_distinguishing_formula(src, r, dst, r, mode=mode, max_depth=4)
    assert phi == G(Atom("r"))


@given(seed=st.integers(0, 10 ** 6), n_moments=st.integers(1, 6),
       policy=st.sampled_from(["undividedness", "coarsened"]),
       mode=st.sampled_from(["L", "LF"]))
def test_distinguishing_search_is_complete_per_depth(seed, n_moments, policy, mode):
    # two models on one frame share p and q and differ on r at one point; the
    # search finds a formula up to a depth exactly when some formula of the
    # corpus over the three atoms up to that depth separates the anchors
    frame = gen_random_frame(seed, n_moments, branching=3, indist_policy=policy)
    rng = random.Random(seed)
    pts = points(frame)

    def draw():
        return frozenset(p for p in pts if rng.random() < 0.4)

    shared = {"p": draw(), "q": draw()}
    r_src = draw()
    src = Model(frame, {**shared, "r": r_src})
    dst = Model(frame, {**shared, "r": r_src ^ {rng.choice(pts)}})
    p, q = rng.choice(pts), rng.choice(pts)
    i, j = frame.point_index[p], frame.point_index[q]
    for depth in (0, 1, 2):
        program = corpus_program(("p", "q", "r"), depth, mode)
        separable = any(
            (a >> i & 1) != (b >> j & 1)
            for a, b in zip(Evaluator(src, mode=mode).run(program),
                            Evaluator(dst, mode=mode).run(program)))
        phi = find_distinguishing_formula(src, p, dst, q, mode=mode,
                                          max_depth=depth)
        assert (phi is not None) == separable
        if phi is not None:
            assert eval_hist(src, p, phi, mode) != eval_hist(dst, q, phi, mode)
            assert eval_rel(src, p, phi, mode) != eval_rel(dst, q, phi, mode)


@pytest.mark.parametrize("mode", ["lf", "X", ""])
def test_unknown_mode_is_rejected(mode):
    model = f1_model()
    r = pt(model, "r", "a")
    relation = PointRelation(frozenset({(r, r)}))
    with pytest.raises(ValueError, match="mode must be one of"):
        greatest_bisimulation(model, model, mode)
    with pytest.raises(ValueError, match="mode must be one of"):
        bisimilar(model, r, model, r, mode)
    with pytest.raises(ValueError, match="mode must be one of"):
        check_bisimulation(model, model, relation, (r, r), mode)
    with pytest.raises(ValueError, match="mode must be one of"):
        find_distinguishing_formula(model, r, model, r, mode=mode)
