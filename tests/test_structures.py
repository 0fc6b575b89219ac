import random

from hypothesis import given, settings, strategies as st

import pytest

from itl.catalog import (
    MALFORMED_DOCUMENTS, catalog_frames, frame_chain3, frame_fork, frame_fork_split,
    frame_stem_fork,
)
from itl.bisimulation import greatest_bisimulation
from itl.documents import frame_from_doc, model_to_doc, read_model_doc, resolve_point
from itl.errors import InvalidPointError
from itl.formula import parse
from itl.generate import gen_random_frame, gen_random_model
from itl.semantics import Evaluator
from itl.structures import (
    Frame, History, IndistFunction, Model, Point, Tree, _tree_violations,
    future_points, histories, histories_through, points, precedes,
    same_moment, undividedness_indist, validate_frame, validate_model,
)
from oracles import (
    depth_height, frame_views, maximal_chains, tree_views, undivided_pairs,
)


def make_frame(moments, edges, indist):
    return frame_from_doc({"moments": moments, "edges": edges, "indist": indist})


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_smallest_frame_ok():
    frame = make_frame(["r"], [], {"r": [["r"]]})
    assert validate_frame(frame).ok


def test_two_incomparable_predecessors():
    frame = make_frame(["r", "a", "b"], [["r", "a"], ["b", "a"]],
                       {"r": [["a"]], "b": [["a"]], "a": [["a"]]})
    report = validate_frame(frame)
    assert "downward-linearity" in report.kinds()
    violation = next(v for v in report.violations
                     if v.kind == "downward-linearity")
    assert violation.witness["moment"] == "a"
    assert sorted(violation.witness["predecessors"]) == ["b", "r"]


def test_partition_with_foreign_history():
    # the history named b does not pass through a
    frame = make_frame(["r", "a", "b"], [["r", "a"], ["r", "b"]],
                       {"r": [["a"], ["b"]], "a": [["a", "b"]], "b": [["b"]]})
    report = validate_frame(frame)
    assert "partition-coverage" in report.kinds()
    violation = next(v for v in report.violations
                     if v.kind == "partition-coverage")
    assert violation.witness == {"moment": "a", "extraneous": "b"}


def test_empty_tree_rejected():
    frame = Frame(Tree((), ()), IndistFunction({}))
    assert validate_frame(frame).kinds() == ("empty-structure",)


def test_coherence_violation_witness():
    frame = make_frame(
        ["r", "m", "a", "b"], [["r", "m"], ["m", "a"], ["m", "b"]],
        {"r": [["a"], ["b"]], "m": [["a", "b"]], "a": [["a"]], "b": [["b"]]})
    report = validate_frame(frame)
    assert "backward-coherence" in report.kinds()
    violation = next(v for v in report.violations
                     if v.kind == "backward-coherence")
    assert violation.witness["merged_at"] == "m"
    assert violation.witness["split_at"] == "r"
    assert sorted(violation.witness["histories"]) == ["a", "b"]


def test_coherence_violations_at_a_grandparent_are_all_listed():
    # a and b share a class at n and at its parent m, but not at r: m's
    # failure at its parent reveals the incoherence, and the report still
    # lists n's pair with its grandparent
    frame = make_frame(
        ["r", "m", "n", "a", "b"],
        [["r", "m"], ["m", "n"], ["n", "a"], ["n", "b"]],
        {"r": [["a"], ["b"]], "m": [["a", "b"]], "n": [["a", "b"]],
         "a": [["a"]], "b": [["b"]]})
    report = validate_frame(frame)
    assert report.kinds() == ("backward-coherence",) * 2
    assert [(v.witness["merged_at"], v.witness["split_at"], v.witness["histories"])
            for v in report.violations] == [("m", "r", ["a", "b"]),
                                            ("n", "r", ["a", "b"])]


def repartitioned(seed):
    """A generated tree with a random partition of the histories at every
    moment, coherent or not: its classes per moment, and the frame."""
    rng = random.Random(seed)
    tree = gen_random_frame(seed, 1 + seed % 12, branching=2 + seed % 2).tree
    classes = {}
    for m in tree.moments:
        leaves = list(tree.through[m])
        parts = rng.randint(1, len(leaves))
        blocks: list[list[str]] = [[] for _ in range(parts)]
        for leaf in leaves:
            blocks[rng.randrange(parts)].append(leaf)
        classes[m] = [block for block in blocks if block]
    return classes, Frame(tree, IndistFunction(
        {m: tuple(map(tuple, blocks)) for m, blocks in classes.items()}))


@given(seed=st.integers(0, 5000))
def test_coherence_violations_are_the_incoherent_pairs(seed):
    classes, frame = repartitioned(seed)
    tree = frame.tree
    class_of = {(m, leaf): k for m, blocks in classes.items()
                for k, block in enumerate(blocks) for leaf in block}
    expected = [(t, s, sorted(block)[:1] + [other])
                for t in sorted(tree.moments)
                for block in sorted(classes[t], key=min)
                for s in sorted(tree.ancestors[t])
                for other in sorted(block)[1:]
                if class_of[(s, min(block))] != class_of[(s, other)]]
    report = validate_frame(frame)
    assert set(report.kinds()) <= {"backward-coherence"}
    assert [(v.witness["merged_at"], v.witness["split_at"], v.witness["histories"])
            for v in report.violations] == expected


def test_point_repr_lists_the_class():
    assert repr(Point("m", frozenset({"b", "a"}))) == "Point(m/{a,b})"


def test_validate_model_bad_point():
    frame = frame_fork()
    bogus = Point("r", frozenset({"zz"}))
    model = Model(frame, {"p": frozenset({bogus})})
    report = validate_model(model)
    assert report.kinds() == ("valuation-invalid-point",)


# ---------------------------------------------------------------------------
# histories
# ---------------------------------------------------------------------------

def test_histories_chain():
    tree = Tree(("r", "a"), (("r", "a"),))
    assert histories(tree) == (History("a", frozenset({"r", "a"})),)


def test_histories_fork():
    tree = Tree(("r", "a", "b"), (("r", "a"), ("r", "b")))
    got = histories(tree)
    assert {h.leaf for h in got} == {"a", "b"}
    assert all("r" in h.moments for h in got)


def test_histories_forest_of_isolated_moments():
    tree = Tree(("x", "y"), ())
    got = histories(tree)
    assert {(h.leaf, h.moments) for h in got} == {
        ("x", frozenset({"x"})), ("y", frozenset({"y"}))}


@given(seed=st.integers(0, 5000))
def test_histories_are_the_maximal_chains(seed):
    frame = gen_random_frame(seed, 1 + seed % 5, branching=3)
    tree = frame.tree
    expected = maximal_chains(tree.moment_set, tree.lt)
    assert {h.moments for h in histories(tree)} == expected


def test_histories_through():
    frame = frame_fork()
    assert {h.leaf for h in histories_through(frame, "r")} == {"a", "b"}
    assert {h.leaf for h in histories_through(frame, "a")} == {"a"}
    chain = frame_chain3()
    assert {h.leaf for h in histories_through(chain, "a")} == {"b"}
    with pytest.raises(InvalidPointError):
        histories_through(frame, "nope")


def _table_frames():
    """Every catalogue frame, and generated frames of up to about 60 points
    under both assignment policies."""
    frames = [pytest.param(frame, id=name)
              for name, frame in catalog_frames().items()]
    for seed in range(12):
        for policy in ("undividedness", "coarsened"):
            n = (1, 4, 9, 20, 33, 45)[seed % 6]
            frames.append(pytest.param(gen_random_frame(
                seed, n, branching=2 + seed % 2, indist_policy=policy),
                id=f"gen-{seed}-{policy}"))
    return frames


@pytest.mark.parametrize("frame", _table_frames())
def test_hist_tables_and_histories_match_their_definitions(frame):
    # the per-leaf chains feed every table checked here; each expectation is
    # recomputed from down_set / lt / future_points or the oracles instead
    tree = frame.tree
    assert validate_frame(frame).ok
    pts, mask_of = frame.point_list, frame.mask_of
    for i, p in enumerate(pts):
        later = tuple(mask_of(future_points(frame, p.moment, leaf))
                      for leaf in sorted(p.block))
        assert frame.future_chains[i] == later
        assert frame.hist_future_masks[i] == mask_of(
            q for leaf in p.block for q in future_points(frame, p.moment, leaf))
        assert frame.hist_past_masks[i] == mask_of(
            Point(s, frame.block_of[(s, leaf)]) for leaf in p.block
            for s in tree.down_set(leaf) if tree.lt(s, p.moment))

    hs = histories(tree)
    assert [h.leaf for h in hs] == list(tree.leaves)
    assert all(h.moments == tree.down_set(h.leaf) for h in hs)
    if len(tree.moments) <= 10:
        assert {h.moments for h in hs} == maximal_chains(tree.moment_set, tree.lt)
    for chain in tree.chains.values():
        assert all(tree.lt(a, b) for a, b in zip(chain, chain[1:]))

    canonical = undividedness_indist(tree)
    for moment in sorted(tree.moment_set):
        pairs = undivided_pairs(tree, moment)
        through = sorted(a for a, b in pairs if a == b)
        assert [h.leaf for h in histories_through(frame, moment)] == through
        got = {(a, b) for block in canonical.classes_at[moment]
               for a in block for b in block}
        assert got == pairs


def _reachable(edges) -> set[tuple[str, str]]:
    """Pairs (a, b) joined by a path of one or more edges, by brute force."""
    reach = set(edges)
    while True:
        more = {(a, c) for a, b in reach for b2, c in edges if b == b2} - reach
        if not more:
            return reach
        reach |= more


def _order_trees():
    """Every catalogue tree, generated trees under both assignment policies,
    and the malformed corpus's trees (cycles, a skipping edge, two parents)."""
    trees = [pytest.param(frame.tree, id=name)
             for name, frame in catalog_frames().items()]
    for seed in range(8):
        for policy in ("undividedness", "coarsened"):
            trees.append(pytest.param(gen_random_frame(
                seed, 1 + 4 * seed, branching=2 + seed % 2,
                indist_policy=policy).tree, id=f"gen-{seed}-{policy}"))
    trees += [pytest.param(frame_from_doc(doc).tree, id=f"malformed-{name}")
              for name, _, doc in MALFORMED_DOCUMENTS]
    return trees


@pytest.mark.parametrize("tree", _order_trees())
def test_lt_is_reachability_over_the_edges(tree):
    reach = _reachable(tree.edges)
    nodes = sorted({m for e in tree.edges for m in e} | set(tree.moments))
    for a in nodes:
        for b in nodes:
            assert tree.lt(a, b) == ((a, b) in reach), (a, b)
    if tree.moments:
        cyclic = [v.witness["moment"] for v in _tree_violations(tree)
                  if v.kind == "cycle"]
        assert cyclic == [m for m in nodes if (m, m) in reach]


@given(edges=st.lists(st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde")),
                      max_size=8),
       moments=st.lists(st.sampled_from("abcdef"), max_size=6))
def test_lt_is_reachability_on_any_graph(edges, moments):
    tree = Tree(tuple(moments), tuple(edges))
    reach = _reachable(edges)
    nodes = sorted({m for e in edges for m in e} | set(moments))
    assert {(a, b) for a in nodes for b in nodes if tree.lt(a, b)} == reach


TREE_FAULTS = ("second-parent", "cycle", "undeclared-endpoint", "duplicate-moment")


@given(seed=st.integers(0, 5000),
       faults=st.lists(st.sampled_from(TREE_FAULTS), max_size=3))
def test_the_walk_views_match_their_definitions(seed, faults):
    # generated trees, and the same with faults whose nodes the walk from
    # the roots leaves to the cycle-tolerant walk: cycles, second parents
    rng = random.Random(seed)
    tree = gen_random_frame(seed, 1 + seed % 15, branching=1 + seed % 3).tree
    moments, edges = list(tree.moments), list(tree.edges)
    for fault in faults:
        a, b = rng.choice(moments), rng.choice(moments)
        if fault == "second-parent":
            edges.append((a, b))
        elif fault == "cycle":
            below = [m for m in moments if tree.lt(a, m)] or [a]
            edges.append((rng.choice(below), a))
        elif fault == "undeclared-endpoint":
            edges.append(rng.choice([(a, "ghost"), ("ghost", a)]))
        else:
            moments.append(a)
    mutated = Tree(tuple(moments), tuple(edges))
    expected = tree_views(moments, edges)
    # the depth of each moment the walk enters is its number of ancestors
    depth = mutated.depth
    assert depth == {m: len(expected["ancestors"][m]) for m in depth}
    for view, value in expected.items():
        assert getattr(mutated, view) == value, view
    if not faults:
        assert not _tree_violations(mutated)
        assert depth.keys() == set(moments)


CLASS_FAULTS = ("empty-class", "overlapping-class", "foreign-class", "repartition",
                "missing-classes", "extra-classes")


def faulty_frame(seed, faults):
    """A generated frame of at most 12 moments with the faults injected: into
    its tree as in ``test_the_walk_views_match_their_definitions``, and into
    its classes (``repartitioned`` may leave them valid)."""
    rng = random.Random(seed)
    frame = gen_random_frame(seed, 1 + seed % 12, branching=2 + seed % 2,
                             indist_policy=("undividedness", "coarsened")[seed % 2])
    tree = frame.tree
    moments, edges = list(tree.moments), list(tree.edges)
    classes = {m: [list(c) for c in cs] for m, cs in frame.indist.classes_at.items()}
    for fault in faults:
        a, b = rng.choice(tree.moments), rng.choice(tree.moments)
        leaves = list(tree.through[a])
        if fault == "second-parent":
            edges.append((a, b))
        elif fault == "cycle":  # through a root, its tree is a cycle
            a = rng.choice([a, *(m for m in tree.moments if not tree.ancestors[m])])
            below = [m for m in tree.moments if m == a or tree.lt(a, m)]
            edges.append((rng.choice(below), a))
        elif fault == "undeclared-endpoint":
            edges.append(rng.choice([(a, "ghost"), ("ghost", a)]))
        elif fault == "duplicate-moment":
            moments.append(a)
        elif fault == "duplicate-edge":
            edges.append(rng.choice(edges or [(a, b)]))
        elif fault == "moment-name":
            moments.append("x/y")
            classes["x/y"] = [["x/y"]]
        elif fault == "empty-class":
            classes.setdefault(a, []).append([])
        elif fault == "overlapping-class":
            classes.setdefault(a, []).append([rng.choice(leaves)])
        elif fault == "foreign-class":
            classes.setdefault(a, []).append([rng.choice([*tree.leaves, "zz"])])
        elif fault == "repartition":
            classes.update(repartitioned(seed)[0])
        elif fault == "missing-classes":
            classes.pop(a, None)
        else:
            classes["ghost"] = [["ghost"]]
    return Frame(Tree(tuple(moments), tuple(edges)), IndistFunction(
        {m: tuple(map(tuple, cs)) for m, cs in classes.items()}))


@settings(max_examples=150)
@given(seed=st.integers(0, 5000),
       tree_faults=st.lists(st.sampled_from(
           TREE_FAULTS + ("duplicate-edge", "moment-name")), max_size=2),
       class_faults=st.lists(st.sampled_from(CLASS_FAULTS), max_size=2))
def test_the_walk_decides_as_the_oracle_does(seed, tree_faults, class_faults):
    frame = faulty_frame(seed, tree_faults + class_faults)
    expected = frame_views(frame)
    assert validate_frame(frame).ok == expected.pop("ok")
    if expected:
        assert list(frame.blocks_at.items()) == list(expected.pop("blocks_at").items())
        assert sorted(frame.point_forest) == expected.pop("point_forest")
        assert frame.tree.through == expected.pop("through")
        for view, value in expected.items():
            assert getattr(frame, view) == value, view


def _assert_rel_tables_match_the_relations(frame):
    pts, mask_of = frame.point_list, frame.mask_of
    for i, p in enumerate(pts):
        assert frame.rel_successor_masks[i] == mask_of(
            q for q in pts if precedes(frame, p, q))
        assert frame.rel_predecessor_masks[i] == mask_of(
            q for q in pts if precedes(frame, q, p))
        assert frame.rel_same_moment_masks[i] == mask_of(
            q for q in pts if same_moment(frame, p, q))


def _assert_validation_and_rel_tables_commute(frame):
    # the validator and the rel tables share the frame's cached point
    # forest, so neither may depend on which of them built it
    def fresh():
        return Frame(Tree(frame.tree.moments, frame.tree.edges), frame.indist)

    def rel_tables(copy):
        return (copy.rel_successor_masks, copy.rel_predecessor_masks,
                copy.rel_same_moment_masks)

    validated_first, tables_first = fresh(), fresh()
    report, tables = validate_frame(validated_first), rel_tables(tables_first)
    assert validate_frame(tables_first) == report
    assert rel_tables(validated_first) == tables


@pytest.mark.parametrize("frame", _table_frames())
def test_validation_and_rel_tables_commute(frame):
    _assert_validation_and_rel_tables_commute(frame)


@given(seed=st.integers(0, 5000))
def test_validation_and_rel_tables_commute_on_random_partitions(seed):
    _assert_validation_and_rel_tables_commute(repartitioned(seed)[1])


@pytest.mark.parametrize("seed", range(3))
def test_checking_builds_no_ancestor_set(seed):
    # the depth the hist tables and the generator read comes off the walk;
    # the ancestor sets and chains serve only the order and invalid trees
    generated = gen_random_model(seed, 60, branching=2 + seed % 2,
                                 indist_policy="coarsened")
    doc = model_to_doc(generated)
    assert not {"ancestors", "chains"} & generated.frame.tree.__dict__.keys()
    report, model = read_model_doc(doc)
    frame, formula = model.frame, parse("L p0 & G H p1 | F p0")
    assert report.ok and frame.hist_class_masks is frame.rel_same_moment_masks
    for relational in (False, True):
        Evaluator(model, relational=relational).extension_mask(formula)
    greatest_bisimulation(model, model)
    assert not {"ancestors", "chains"} & frame.tree.__dict__.keys()


@pytest.mark.parametrize("frame", _table_frames())
def test_rel_tables_match_precedes_and_same_moment(frame):
    _assert_rel_tables_match_the_relations(frame)


@given(seed=st.integers(0, 5000),
       policy=st.sampled_from(("undividedness", "coarsened")))
def test_rel_tables_match_the_relations_on_generated_frames(seed, policy):
    _assert_rel_tables_match_the_relations(gen_random_frame(
        seed, 1 + seed % 12, branching=1 + seed % 3, indist_policy=policy))


def _assert_depth_height_is_the_definition(frame):
    assert dict(zip(frame.point_list, frame.depth_height)) == depth_height(frame)


@pytest.mark.parametrize("name", sorted(catalog_frames()))
def test_depth_and_height_are_their_definitions_on_the_catalogue(name):
    _assert_depth_height_is_the_definition(catalog_frames()[name])


@given(seed=st.integers(0, 5000),
       policy=st.sampled_from(("undividedness", "coarsened")))
def test_depth_and_height_are_their_definitions_on_generated_frames(seed, policy):
    _assert_depth_height_is_the_definition(gen_random_frame(
        seed, 1 + seed % 12, branching=1 + seed % 3, indist_policy=policy))


@given(seed=st.integers(0, 5000))
def test_depth_and_height_count_the_rel_tables_on_random_partitions(seed):
    # on an incoherent frame the depth counts a point's predecessors in the
    # rel tables, and the height reads the depths of its successors there
    frame = repartitioned(seed)[1]
    depths = [depth for depth, _ in frame.depth_height]
    for i, (depth, height) in enumerate(frame.depth_height):
        assert depth == bin(frame.rel_predecessor_masks[i]).count("1")
        successors = frame.rel_successor_masks[i]
        assert height == max((depths[k] - depth for k in range(len(depths))
                              if successors >> k & 1), default=0)


# ---------------------------------------------------------------------------
# points and the derived relations
# ---------------------------------------------------------------------------

def test_points_fork_undivided():
    got = points(frame_fork())
    assert [p.text() for p in got] == ["a/a", "b/b", "r/a"]
    assert got[2].block == frozenset({"a", "b"})


def test_points_fork_split():
    got = points(frame_fork_split())
    assert [p.text() for p in got] == ["a/a", "b/b", "r/a", "r/b"]


def test_points_single_moment():
    frame = make_frame(["r"], [], {"r": [["r"]]})
    assert len(points(frame)) == 1


def test_points_deterministic():
    a = points(frame_stem_fork())
    b = points(frame_stem_fork())
    assert [p.text() for p in a] == [p.text() for p in b]


def test_precedes_examples():
    fork = frame_fork()
    root = resolve_point(fork, "r", "a")
    leaf_a = resolve_point(fork, "a", "a")
    assert precedes(fork, root, leaf_a)
    assert not precedes(fork, root, root)

    split = frame_fork_split()
    assert precedes(split, resolve_point(split, "r", "a"),
                    resolve_point(split, "a", "a"))
    assert not precedes(split, resolve_point(split, "r", "b"),
                        resolve_point(split, "a", "a"))


def test_same_moment_examples():
    split = frame_fork_split()
    ra = resolve_point(split, "r", "a")
    rb = resolve_point(split, "r", "b")
    assert same_moment(split, ra, rb)
    assert same_moment(split, ra, ra)
    assert not same_moment(split, ra, resolve_point(split, "a", "a"))


@given(seed=st.integers(0, 2000))
def test_same_moment_is_an_equivalence(seed):
    frame = gen_random_frame(seed, 1 + seed % 5, branching=3,
                             indist_policy="coarsened")
    pts = points(frame)
    for p in pts:
        assert same_moment(frame, p, p)
        for q in pts:
            assert same_moment(frame, p, q) == same_moment(frame, q, p)
            for r in pts:
                if same_moment(frame, p, q) and same_moment(frame, q, r):
                    assert same_moment(frame, p, r)


@given(seed=st.integers(0, 5000))
def test_precedes_is_a_strict_order(seed):
    frame = gen_random_frame(seed, 1 + seed % 6, branching=3,
                             indist_policy="coarsened")
    pts = points(frame)
    for p in pts:
        assert not precedes(frame, p, p)
    for p in pts:
        for q in pts:
            for r in pts:
                if precedes(frame, p, q) and precedes(frame, q, r):
                    assert precedes(frame, p, r)


def test_order_not_closed_under_class_equivalence():
    # p < q and q ~ q2 does not give p < q2: no such closure may be assumed
    frame = make_frame(
        ["r", "m", "a", "b"], [["r", "m"], ["m", "a"], ["m", "b"]],
        {"r": [["a"], ["b"]], "m": [["a"], ["b"]], "a": [["a"]], "b": [["b"]]})
    assert validate_frame(frame).ok
    p = resolve_point(frame, "r", "a")
    q = resolve_point(frame, "m", "a")
    q2 = resolve_point(frame, "m", "b")
    assert precedes(frame, p, q)
    assert same_moment(frame, q, q2)
    assert not precedes(frame, p, q2)


# ---------------------------------------------------------------------------
# the canonical indistinguishability assignment
# ---------------------------------------------------------------------------

def test_undividedness_fork_divides_at_root():
    tree = Tree(("r", "a", "b"), (("r", "a"), ("r", "b")))
    indist = undividedness_indist(tree)
    assert sorted(indist.classes_at["r"]) == [("a",), ("b",)]


def test_undividedness_stem_fork():
    tree = Tree(("r", "m", "a", "b"), (("r", "m"), ("m", "a"), ("m", "b")))
    indist = undividedness_indist(tree)
    assert indist.classes_at["r"] == (("a", "b"),)
    assert sorted(indist.classes_at["m"]) == [("a",), ("b",)]


def test_undividedness_chain_is_singletons():
    tree = Tree(("r", "a", "b"), (("r", "a"), ("a", "b")))
    indist = undividedness_indist(tree)
    assert all(blocks == (("b",),) for blocks in indist.classes_at.values())


@given(seed=st.integers(0, 5000))
def test_undividedness_matches_pairwise_definition(seed):
    frame = gen_random_frame(seed, 1 + seed % 6, branching=3)
    tree = frame.tree
    indist = undividedness_indist(tree)
    for moment, blocks in indist.classes_at.items():
        got = {(a, b) for block in blocks for a in block for b in block}
        assert got == undivided_pairs(tree, moment)


@given(seed=st.integers(0, 5000))
def test_undividedness_output_validates(seed):
    frame = gen_random_frame(seed, 1 + seed % 7, branching=2)
    assert validate_frame(frame).ok


# ---------------------------------------------------------------------------
# partition invariants on generated frames
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 5000))
def test_partitions_cover_histories_exactly(seed):
    frame = gen_random_frame(seed, 1 + seed % 6, branching=3,
                             indist_policy="coarsened")
    for moment in frame.tree.moment_set:
        through = {h.leaf for h in histories_through(frame, moment)}
        blocks = frame.blocks_at[moment]
        placed = [leaf for block in blocks for leaf in block]
        assert sorted(placed) == sorted(through)


@given(seed=st.integers(0, 5000))
def test_classes_coarsen_backwards(seed):
    frame = gen_random_frame(seed, 1 + seed % 6, branching=3,
                             indist_policy="coarsened")
    tree = frame.tree
    for t in tree.moment_set:
        for s in tree.ancestors[t]:
            for block in frame.blocks_at[t]:
                containing = {frame.block_of[(s, leaf)] for leaf in block}
                assert len(containing) == 1


def test_catalog_frames_all_validate():
    for name, frame in catalog_frames().items():
        assert validate_frame(frame).ok, name
        assert len(points(frame)) <= 5, name


@given(seed=st.integers(0, 10 ** 6), n_moments=st.integers(1, 8),
       policy=st.sampled_from(["undividedness", "coarsened"]), data=st.data())
def test_points_of_inverts_mask_of(seed, n_moments, policy, data):
    frame = gen_random_frame(seed, n_moments, branching=3, indist_policy=policy)
    pts = frame.point_list
    assert frame.points_of(0) == []
    assert frame.points_of(frame.full_mask) == list(pts)
    chosen = data.draw(st.sets(st.sampled_from(pts)))
    assert frame.points_of(frame.mask_of(chosen)) == [p for p in pts if p in chosen]
    mask = data.draw(st.integers(0, frame.full_mask))
    assert frame.mask_of(frame.points_of(mask)) == mask


def test_labels_ignore_foreign_points_and_empty_atoms():
    frame = frame_fork()
    a = resolve_point(frame, "a", "a")
    outside = Point("zz", frozenset({"zz"}))
    model = Model(frame, {"p": frozenset({a, outside}),
                          "q": frozenset({outside}), "e": frozenset()})
    assert model.labels == tuple(frozenset({"p"}) if p == a else frozenset()
                                 for p in frame.point_list)


@given(seed=st.integers(0, 10 ** 6), n_atoms=st.integers(0, 3))
def test_labels_are_the_atoms_true_at_each_point(seed, n_atoms):
    model = gen_random_model(seed, 1 + seed % 7, branching=3, n_atoms=n_atoms)
    assert model.labels == tuple(
        frozenset(atom for atom, ext in model.valuation.items() if p in ext)
        for p in model.frame.point_list)
