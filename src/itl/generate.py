"""Seed-deterministic random frames and models.

All randomness flows from the explicit seed of each call; equal seeds give
byte-identical documents.  Generated structures always pass validation: the
"coarsened" policy merges random classes of the canonical assignment, which
keeps backward coherence without repair (see ``coarsened_indist``).
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort

from . import limits
from .errors import BoundExceededError
from .structures import (
    Frame, IndistFunction, Model, Point, Tree, points, undividedness_indist,
)

INDIST_POLICIES = ("undividedness", "coarsened")


def random_tree(seed: int, n_moments: int, branching: int = 2) -> Tree:
    """A random forest: mostly one tree, occasionally extra roots.  Refuses
    more than ``limits.GEN_SIZE_BOUND`` moments before it draws anything."""
    if n_moments < 1:
        raise ValueError("n_moments must be >= 1")
    if branching < 1:
        raise ValueError("branching must be >= 1")
    if n_moments > limits.GEN_SIZE_BOUND:
        raise BoundExceededError(f"n_moments is {n_moments}, above "
                                 f"GEN_SIZE_BOUND ({limits.GEN_SIZE_BOUND})")
    rng = random.Random(seed)
    moments = [f"m{i}" for i in range(n_moments)]
    edges = []
    child_count = dict.fromkeys(moments, 0)
    # the moments with fewer than ``branching`` children, sorted by name; the
    # newest moment is always open, so the list is never empty
    open_parents = [moments[0]]
    for m in moments[1:]:
        if rng.random() >= 0.08:  # else a new root
            parent = rng.choice(open_parents)
            child_count[parent] += 1
            edges.append((parent, m))
            if child_count[parent] == branching:
                del open_parents[bisect_left(open_parents, parent)]
        insort(open_parents, m)
    return Tree(tuple(moments), tuple(edges))


def coarsened_indist(seed: int, tree: Tree) -> IndistFunction:
    """Randomly merge classes of the canonical assignment, moment by moment.

    Backward coherence holds without repair.  Histories in one class at a
    moment ``t`` all pass through ``t``, so at each earlier moment ``s`` they
    pass through the same child of ``s``, and the canonical assignment puts
    them in one class at ``s``; merges at ``s`` only join classes.  Moments
    are visited deepest first, which fixes the order of the random draws.
    """
    rng = random.Random(seed)
    base = undividedness_indist(tree)
    blocks = {m: [set(b) for b in base.classes_at[m]] for m in tree.moment_set}
    for t in sorted(tree.moment_set, key=lambda m: (-tree.depth[m], m)):
        classes = blocks[t]
        while len(classes) > 1 and rng.random() < 0.4:
            i, j = sorted(rng.sample(range(len(classes)), 2))
            classes[i] |= classes.pop(j)
    return IndistFunction({
        m: tuple(tuple(sorted(b)) for b in sorted(bs, key=min))
        for m, bs in blocks.items()
    })


def gen_random_frame(seed: int, n_moments: int, branching: int = 2,
                     indist_policy: str = "undividedness") -> Frame:
    if indist_policy not in INDIST_POLICIES:
        raise ValueError(f"indist_policy must be one of {INDIST_POLICIES}")
    rng = random.Random(seed)
    tree = random_tree(rng.randrange(2 ** 32), n_moments, branching)
    if indist_policy == "undividedness":
        indist = undividedness_indist(tree)
    else:
        indist = coarsened_indist(rng.randrange(2 ** 32), tree)
    return Frame(tree, indist)


def gen_random_model(seed: int, n_moments: int, branching: int = 2,
                     indist_policy: str = "undividedness",
                     n_atoms: int = 2) -> Model:
    """A random model; the frame always passes validation.  Checks its size,
    moments * (atoms + 1), against ``limits.GEN_SIZE_BOUND`` first."""
    limits.nonnegative(n_atoms, "n_atoms")
    size = n_moments * (n_atoms + 1)
    if size > limits.GEN_SIZE_BOUND:
        raise BoundExceededError(f"moments * (atoms + 1) is {size}, above "
                                 f"GEN_SIZE_BOUND ({limits.GEN_SIZE_BOUND})")
    rng = random.Random(seed)
    frame = gen_random_frame(rng.randrange(2 ** 32), n_moments, branching,
                             indist_policy)
    valuation: dict[str, frozenset[Point]] = {}
    pts = points(frame)
    for k in range(n_atoms):
        chosen = frozenset(p for p in pts if rng.random() < 0.35)
        valuation[f"p{k}"] = chosen
    return Model(frame, valuation)
