from collections import Counter

import pytest
from hypothesis import given, strategies as st

from itl.documents import dumps, model_to_doc
from itl import generate
from itl.errors import BoundExceededError, InvalidBoundError
from itl.generate import (
    coarsened_indist, gen_random_frame, gen_random_model, random_tree,
)
from itl.limits import GEN_SIZE_BOUND
from itl.structures import (
    Frame, points, undividedness_indist, validate_frame, validate_model,
)

from oracles import naive_coarsened_indist, naive_random_tree


def test_single_moment_model():
    model = gen_random_model(1, 1)
    assert len(points(model.frame)) == 1
    assert validate_model(model).ok


def test_same_seed_same_bytes():
    a = dumps(model_to_doc(gen_random_model(42, 6, indist_policy="coarsened")))
    b = dumps(model_to_doc(gen_random_model(42, 6, indist_policy="coarsened")))
    assert a == b


def test_different_seeds_vary():
    docs = {dumps(model_to_doc(gen_random_model(s, 6, indist_policy="coarsened")))
            for s in range(20)}
    assert len(docs) > 1


@given(seed=st.integers(0, 20_000))
def test_generated_models_always_validate(seed):
    policy = "coarsened" if seed % 2 else "undividedness"
    model = gen_random_model(seed, 1 + seed % 8, branching=1 + seed % 3,
                             n_atoms=seed % 3, indist_policy=policy)
    assert validate_model(model).ok


@given(seed=st.integers(0, 20_000))
def test_coarsened_repairs_coherence(seed):
    tree = random_tree(seed, 1 + seed % 8, branching=3)
    frame = Frame(tree, coarsened_indist(seed, tree))
    assert validate_frame(frame).ok


@given(seed=st.integers(0, 20_000))
def test_coarsening_only_merges(seed):
    tree = random_tree(seed, 1 + seed % 6, branching=2)
    base = Frame(tree, undividedness_indist(tree))
    coarse = Frame(tree, coarsened_indist(seed + 1, tree))
    for moment in tree.moment_set:
        for block in base.blocks_at[moment]:
            anchor = min(block)
            assert block <= coarse.block_of[(moment, anchor)]


@given(seed=st.integers(0, 2 ** 32 - 1), n_moments=st.integers(1, 300),
       branching=st.integers(1, 4))
def test_random_tree_is_the_reference_tree(seed, n_moments, branching):
    tree = random_tree(seed, n_moments, branching)
    expected = naive_random_tree(seed, n_moments, branching)
    assert (tree.moments, tree.edges) == (expected.moments, expected.edges)


@given(seed=st.integers(0, 2 ** 32 - 1), n_moments=st.integers(1, 80),
       branching=st.integers(1, 4))
def test_coarsened_indist_is_the_reference_assignment(seed, n_moments, branching):
    # the moments are visited deepest first, and that order fixes the draws
    tree = random_tree(seed, n_moments, branching)
    expected = naive_coarsened_indist(seed + 1, tree).classes_at
    assert coarsened_indist(seed + 1, tree).classes_at == expected


def test_a_large_random_tree_is_built_in_one_pass():
    # rescanning every earlier moment per moment would take minutes here
    tree = random_tree(1, 50_000, 3)
    assert len(tree.moments) == 50_000
    order = {m: k for k, m in enumerate(tree.moments)}
    children = Counter(parent for parent, _ in tree.edges)
    assert max(children.values()) == 3
    assert all(order[parent] < order[child] for parent, child in tree.edges)
    assert len({child for _, child in tree.edges}) == len(tree.edges)


def test_bad_arguments():
    with pytest.raises(ValueError):
        gen_random_model(1, 0)
    with pytest.raises(ValueError):
        random_tree(1, 3, branching=0)
    with pytest.raises(ValueError):
        gen_random_model(1, 3, indist_policy="nope")


def test_the_generators_refuse_more_moments_than_the_bound_before_drawing(
        monkeypatch):
    # random_tree may not make its seeded generator, so an order that draws
    # or allocates before the bound check fails here at once
    real, allowed = generate.random.Random, []

    def guarded(seed):
        if not allowed:
            raise AssertionError("random_tree drew before checking its size")
        return real(allowed.pop())

    monkeypatch.setattr(generate.random, "Random", guarded)
    for n_moments in (GEN_SIZE_BOUND + 1, 10 ** 20):
        with pytest.raises(BoundExceededError, match=f"n_moments is {n_moments}, "
                                                     f"above GEN_SIZE_BOUND"):
            random_tree(1, n_moments)
    allowed.append(1)  # gen_random_frame's own generator, which draws the seed
    with pytest.raises(BoundExceededError, match="above GEN_SIZE_BOUND"):
        gen_random_frame(1, 10 ** 20)
    assert not allowed


@pytest.mark.parametrize("n_atoms", [-1, True, 1.5])
def test_atom_count_must_be_a_nonnegative_integer(n_atoms):
    with pytest.raises(InvalidBoundError,
                       match="n_atoms must be a nonnegative integer"):
        gen_random_model(1, 3, n_atoms=n_atoms)
