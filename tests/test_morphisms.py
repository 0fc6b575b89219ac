import random

import pytest
from hypothesis import given, strategies as st

from itl.catalog import (
    catalog_frames, frame_antichain2, frame_chain2, frame_fork,
    frame_fork_split, frame_single,
)
from itl.documents import map_from_doc, map_to_doc, resolve_point
from itl.errors import BoundExceededError, InvalidBoundError
from itl.formula import enumerate_formulas
from itl.generate import INDIST_POLICIES, gen_random_frame
from itl.morphisms import (
    PointMap, check_frame_pmorphism, check_model_pmorphism,
    check_set_characterization, pullback_valuation, search_pmorphisms,
)
from itl.semantics import eval_hist
from itl.structures import Model, Point, point_key, points, precedes

from covering import covering_pair


def pt(frame, moment, rep):
    return resolve_point(frame, moment, rep)


def identity_map(frame) -> PointMap:
    return PointMap({p: p for p in points(frame)})


def collapse_map(fork, chain) -> PointMap:
    return PointMap({
        pt(fork, "r", "a"): pt(chain, "r", "a"),
        pt(fork, "a", "a"): pt(chain, "a", "a"),
        pt(fork, "b", "b"): pt(chain, "a", "a"),
    })


def split_merge_map(split, fork) -> PointMap:
    return PointMap({
        pt(split, "r", "a"): pt(fork, "r", "a"),
        pt(split, "r", "b"): pt(fork, "r", "a"),
        pt(split, "a", "a"): pt(fork, "a", "a"),
        pt(split, "b", "b"): pt(fork, "b", "b"),
    })


# ---------------------------------------------------------------------------
# the condition checker
# ---------------------------------------------------------------------------

def test_identity_passes_everywhere():
    for name, frame in catalog_frames().items():
        report = check_frame_pmorphism(frame, frame, identity_map(frame), "LF")
        assert report.ok, (name, report.kinds())


def test_branch_collapse_passes_all_conditions():
    fork, chain = frame_fork(), frame_chain2()
    report = check_frame_pmorphism(fork, chain, collapse_map(fork, chain), "LF")
    assert report.ok


def test_split_merge_fails_exactly_the_back_condition():
    split, fork = frame_fork_split(), frame_fork()
    report = check_frame_pmorphism(split, fork, split_merge_map(split, fork), "L")
    assert report.kinds() == ("G-b",)
    witness = report.violations[0].witness
    # replay: the image of the witness point precedes the target, but no
    # successor of the witness point maps onto the target
    f = split_merge_map(split, fork)
    p = pt(split, *witness["point"].split("/"))
    target = pt(fork, *witness["target"].split("/"))
    assert precedes(fork, f(p), target)
    assert not any(precedes(split, p, q) and f(q) == target
                   for q in points(split))


def test_weak_future_forward_failure_reported_with_witness():
    # crushing the fork onto the chain's top point leaves the target history
    # untrackable: no source history has all its later images above the image
    fork, chain = frame_fork(), frame_chain2()
    crush = PointMap({
        pt(fork, "r", "a"): pt(chain, "a", "a"),
        pt(fork, "a", "a"): pt(chain, "a", "a"),
        pt(fork, "b", "b"): pt(chain, "a", "a"),
    })
    report = check_frame_pmorphism(fork, chain, crush, "LF")
    assert "F-f" in report.kinds()
    witness = next(v for v in report.violations if v.kind == "F-f").witness
    assert witness == {"point": "r/a", "target_history": "a"}
    # replay: every source history has a later point whose image is not a
    # later point of the target history
    from itl.structures import future_points

    p = pt(fork, "r", "a")
    target_futures = set(future_points(chain, "a", witness["target_history"]))
    for leaf in p.block:
        assert any(crush(r) not in target_futures
                   for r in future_points(fork, "r", leaf))


def test_partial_map_is_an_error():
    fork = frame_fork()
    partial = PointMap({pt(fork, "r", "a"): pt(fork, "r", "a")})
    with pytest.raises(ValueError):
        check_frame_pmorphism(fork, fork, partial, "L")


@pytest.mark.parametrize("where, message", [
    ("source", "map defined on foreign point zz/zz"),
    ("image", "image zz/zz is not a point of the target frame"),
])
def test_maps_naming_foreign_points_are_rejected(where, message):
    fork, chain = frame_fork(), frame_chain2()
    foreign = Point("zz", frozenset({"zz"}))
    mapping = dict(collapse_map(fork, chain).mapping)
    if where == "source":
        mapping[foreign] = pt(chain, "a", "a")
    else:
        mapping[pt(fork, "b", "b")] = foreign
    for check in (check_frame_pmorphism, check_set_characterization):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check(fork, chain, PointMap(mapping))


def test_model_pmorphism_valuation_agreement():
    fork, chain = frame_fork(), frame_chain2()
    f = collapse_map(fork, chain)
    dst = Model(chain, {"p": frozenset({pt(chain, "a", "a")})})
    good = Model(fork, {"p": frozenset({pt(fork, "a", "a"),
                                        pt(fork, "b", "b")})})
    assert check_model_pmorphism(good, dst, f, "LF").ok

    bad = Model(fork, {"p": frozenset({pt(fork, "a", "a")})})
    report = check_model_pmorphism(bad, dst, f, "LF")
    assert report.kinds() == ("PV",)
    assert report.violations[0].witness == {"point": "b/b", "atom": "p"}


# ---------------------------------------------------------------------------
# the set characterization agrees with the checker
# ---------------------------------------------------------------------------

def test_characterization_on_known_maps():
    fork, chain = frame_fork(), frame_chain2()
    split = frame_fork_split()
    assert check_set_characterization(fork, fork, identity_map(fork))
    assert check_set_characterization(fork, chain, collapse_map(fork, chain))
    assert not check_set_characterization(split, fork,
                                          split_merge_map(split, fork))


@given(seed=st.integers(0, 3000))
def test_checker_iff_characterization(seed):
    rng = random.Random(seed)
    frames = list(catalog_frames().values())
    src = frames[rng.randrange(len(frames))]
    dst = frames[rng.randrange(len(frames))]
    dst_pts = sorted(points(dst), key=point_key)
    f = PointMap({p: dst_pts[rng.randrange(len(dst_pts))]
                  for p in points(src)})
    assert check_frame_pmorphism(src, dst, f, "L").ok == \
        check_set_characterization(src, dst, f)


def test_forward_order_never_breaks_converse_images():
    # sanity: a map passing the forward condition also carries the converse
    # order forward, so no extra forward condition for it is needed
    rng = random.Random(9)
    frames = list(catalog_frames().values())
    for _ in range(500):
        src = frames[rng.randrange(len(frames))]
        dst = frames[rng.randrange(len(frames))]
        dst_pts = sorted(points(dst), key=point_key)
        f = PointMap({p: dst_pts[rng.randrange(len(dst_pts))]
                      for p in points(src)})
        report = check_frame_pmorphism(src, dst, f, "L")
        if "G-f" not in report.kinds():
            for p in points(src):
                for q in points(src):
                    if precedes(src, q, p):
                        assert precedes(dst, f(q), f(p))


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_single_point_identity():
    single = frame_single()
    found = list(search_pmorphisms(single, single, "LF"))
    assert len(found) == 1
    assert found[0].mapping == identity_map(single).mapping


def test_search_finds_the_collapse():
    fork, chain = frame_fork(), frame_chain2()
    found = list(search_pmorphisms(fork, chain, "LF"))
    assert collapse_map(fork, chain).mapping in [f.mapping for f in found]


def test_search_chain_to_antichain_is_empty():
    found = list(search_pmorphisms(frame_chain2(), frame_antichain2(), "L"))
    assert found == []


@pytest.mark.parametrize("bound", [-1, 2.5, True])
def test_search_rejects_malformed_bound(bound):
    with pytest.raises(InvalidBoundError):
        list(search_pmorphisms(frame_fork(), frame_chain2(), "L", bound=bound))


def test_search_respects_bound():
    wide = catalog_frames()["wide"]
    with pytest.raises(BoundExceededError):
        list(search_pmorphisms(wide, wide, "L", bound=3))


def test_search_results_pass_and_are_deterministic():
    split, fork = frame_fork_split(), frame_fork()
    run1 = [map_to_doc(f) for f in search_pmorphisms(split, fork, "L")]
    run2 = [map_to_doc(f) for f in search_pmorphisms(split, fork, "L")]
    assert run1 == run2
    for doc in run1:
        f = map_from_doc(doc, split, fork)
        assert check_frame_pmorphism(split, fork, f, "L").ok


def small_generated_frames():
    """Generated frames of at most 5 points, under both indist policies."""
    out = []
    for seed in range(40):
        frame = gen_random_frame(seed, 2 + seed % 4, 2 + seed % 2,
                                 INDIST_POLICIES[seed % len(INDIST_POLICIES)])
        if len(points(frame)) <= 5:
            out.append(frame)
    return out


SEARCH_FRAMES = list(catalog_frames().values()) + small_generated_frames()


@given(seed=st.integers(0, 400), mode=st.sampled_from(("L", "LF")),
       surjective=st.booleans())
def test_search_matches_brute_force_enumeration(seed, mode, surjective):
    # oracle: filter every total map through the public checker
    from itertools import product as iproduct

    rng = random.Random(seed)
    src = SEARCH_FRAMES[rng.randrange(len(SEARCH_FRAMES))]
    dst = SEARCH_FRAMES[rng.randrange(len(SEARCH_FRAMES))]
    src_pts = sorted(points(src), key=point_key)
    dst_pts = sorted(points(dst), key=point_key)
    if len(dst_pts) ** len(src_pts) > 5000:
        return
    expected = []
    for assignment in iproduct(dst_pts, repeat=len(src_pts)):
        f = PointMap(dict(zip(src_pts, assignment)))
        if surjective and not f.is_surjective_onto(dst):
            continue
        if check_frame_pmorphism(src, dst, f, mode).ok:
            expected.append(f.mapping)
    got = [f.mapping for f in search_pmorphisms(src, dst, mode, surjective)]
    assert got == expected


@given(seed=st.integers(0, 10 ** 6), policy=st.sampled_from(INDIST_POLICIES),
       surjective=st.booleans())
def test_search_lists_the_same_maps_in_both_modes(seed, policy, surjective):
    # after every pick the search refines on G/H/L only; on finite frames
    # F-f and F-b follow
    rng = random.Random(seed)
    src, dst = (gen_random_frame(rng.randrange(2 ** 32), rng.randint(1, 5),
                                 rng.choice((2, 3)), policy) for _ in range(2))
    if rng.random() < 0.5:
        dst = src
    if max(len(points(src)), len(points(dst))) > 7:
        return
    in_l = [f.mapping for f in search_pmorphisms(src, dst, "L", surjective)]
    in_lf = list(search_pmorphisms(src, dst, "LF", surjective))
    assert [f.mapping for f in in_lf] == in_l
    for f in in_lf:
        assert check_frame_pmorphism(src, dst, f, "LF").ok


def test_surjective_search():
    fork, chain = frame_fork(), frame_chain2()
    onto = list(search_pmorphisms(fork, chain, "L", surjective=True))
    assert all(f.is_surjective_onto(chain) for f in onto)
    assert collapse_map(fork, chain).mapping in [f.mapping for f in onto]
    # the last assignment decides surjectivity: two of the four maps collapse
    pair = frame_antichain2()
    maps = list(search_pmorphisms(pair, pair, "LF"))
    onto = list(search_pmorphisms(pair, pair, "LF", surjective=True))
    assert (len(maps), len(onto)) == (4, 2)
    assert [f.mapping for f in onto] == [
        f.mapping for f in maps if f.is_surjective_onto(pair)]


@given(seed=st.integers(0, 10 ** 6), n_moments=st.integers(1, 4),
       surjective=st.booleans())
def test_search_lists_the_known_map_of_a_covering_pair(seed, n_moments, surjective):
    # two copies of a target of at most 4 points: at most 8 source points,
    # above the default bound, and few enough maps to list them all
    src, dst, known = covering_pair(seed, n_moments)
    if len(points(dst)) > 4:
        return
    maps = list(search_pmorphisms(src, dst, "LF", surjective, bound=8))
    assert known.mapping in [f.mapping for f in maps]
    for f in maps:
        assert check_frame_pmorphism(src, dst, f, "LF").ok


def test_search_finds_a_map_of_a_large_covering_pair():
    src, dst, known = covering_pair(2, 20)
    assert (len(points(src)), len(points(dst))) == (42, 21)
    assert check_frame_pmorphism(src, dst, known, "LF").ok
    first = next(search_pmorphisms(src, dst, "LF", surjective=True, bound=42))
    assert check_frame_pmorphism(src, dst, first, "LF").ok
    assert first.is_surjective_onto(dst)


# ---------------------------------------------------------------------------
# pullbacks and preservation
# ---------------------------------------------------------------------------

def test_pullback_examples():
    fork, chain = frame_fork(), frame_chain2()
    f = collapse_map(fork, chain)
    assert pullback_valuation({"p": frozenset()}, f) == {"p": frozenset()}
    pulled = pullback_valuation({"p": frozenset({pt(chain, "a", "a")})}, f)
    assert pulled == {"p": frozenset({pt(fork, "a", "a"), pt(fork, "b", "b")})}
    ident = identity_map(fork)
    valuation = {"p": frozenset({pt(fork, "r", "a")})}
    assert pullback_valuation(valuation, ident) == valuation


def test_pullback_satisfies_pv_by_construction():
    fork, chain = frame_fork(), frame_chain2()
    f = collapse_map(fork, chain)
    dst = Model(chain, {"p": frozenset({pt(chain, "a", "a")}),
                        "q": frozenset({pt(chain, "r", "a")})})
    src = Model(fork, pullback_valuation(dst.valuation, f))
    assert check_model_pmorphism(src, dst, f, "LF").ok


def test_truth_preserved_along_collapse():
    fork, chain = frame_fork(), frame_chain2()
    f = collapse_map(fork, chain)
    dst = Model(chain, {"p": frozenset({pt(chain, "a", "a")})})
    src = Model(fork, pullback_valuation(dst.valuation, f))
    for phi in enumerate_formulas(("p",), 2, "LF"):
        for p in points(fork):
            assert eval_hist(src, p, phi) == eval_hist(dst, f(p), phi)


@pytest.mark.parametrize("mode", ["lf", "X", "nope"])
def test_unknown_mode_is_rejected(mode):
    fork, chain = frame_fork(), frame_chain2()
    identity = identity_map(fork)
    with pytest.raises(ValueError, match="mode must be one of"):
        check_frame_pmorphism(fork, fork, identity, mode)
    model = Model(fork, {})
    with pytest.raises(ValueError, match="mode must be one of"):
        check_model_pmorphism(model, model, identity, mode)
    with pytest.raises(ValueError, match="mode must be one of"):
        list(search_pmorphisms(fork, chain, mode))
