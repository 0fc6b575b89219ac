"""Covering pairs for the p-morphism search: ``copies`` renamed copies of a
generated frame as the source, the frame itself as the target, and the map
sending each copy's point to its original, which is a surjective p-morphism
(each copy is an isomorphic component, and the relations of distinct copies
never meet)."""

from itl.generate import gen_random_frame
from itl.morphisms import PointMap
from itl.structures import Frame, IndistFunction, Point, Tree


def covering_pair(seed: int, n_moments: int, copies: int = 2):
    """(source, target, the known map) for a coarsened ``gen_random_frame``."""
    dst = gen_random_frame(seed, n_moments, indist_policy="coarsened")
    tree = dst.tree

    def name(k, m):
        return f"c{k}_{m}"

    src = Frame(
        Tree(tuple(name(k, m) for k in range(copies) for m in tree.moments),
             tuple((name(k, a), name(k, b))
                   for k in range(copies) for a, b in tree.edges)),
        IndistFunction({name(k, m): tuple(tuple(name(k, leaf) for leaf in block)
                                          for block in blocks)
                        for k in range(copies)
                        for m, blocks in dst.indist.classes_at.items()}))
    known = PointMap({
        Point(name(k, p.moment), frozenset(name(k, leaf) for leaf in p.block)): p
        for k in range(copies) for p in dst.point_list})
    return src, dst, known
