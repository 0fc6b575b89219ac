"""Independent brute-force oracles used by the tests.

Everything here is a direct transcription of the defining conditions, with
no sharing of the library's evaluation machinery: plain recursion, explicit
loops, no masks, no memoization.
"""

from itertools import combinations

from itl.formula import And, Atom, F, G, H, L, Not
from itl.structures import Point


def naive_eval(model, point, formula) -> bool:
    """Clause-by-clause truth, evaluated by direct recursion."""
    frame = model.frame
    tree = frame.tree

    def class_point(s, leaf):
        return Point(s, frame.block_of[(s, leaf)])

    if isinstance(formula, Atom):
        return point in model.valuation.get(formula.name, frozenset())
    if isinstance(formula, Not):
        return not naive_eval(model, point, formula.sub)
    if isinstance(formula, And):
        return (naive_eval(model, point, formula.left)
                and naive_eval(model, point, formula.right))
    if isinstance(formula, G):
        for leaf in point.block:
            for s in tree.down_set(leaf):
                if tree.lt(point.moment, s):
                    if not naive_eval(model, class_point(s, leaf), formula.sub):
                        return False
        return True
    if isinstance(formula, H):
        for leaf in point.block:
            for s in tree.down_set(leaf):
                if tree.lt(s, point.moment):
                    if not naive_eval(model, class_point(s, leaf), formula.sub):
                        return False
        return True
    if isinstance(formula, L):
        for block in frame.blocks_at[point.moment]:
            if not naive_eval(model, Point(point.moment, block), formula.sub):
                return False
        return True
    if isinstance(formula, F):
        for leaf in point.block:
            if not any(
                tree.lt(point.moment, s)
                and naive_eval(model, class_point(s, leaf), formula.sub)
                for s in tree.down_set(leaf)
            ):
                return False
        return True
    raise TypeError(formula)


def maximal_chains(moments, lt) -> set[frozenset]:
    """All subset-maximal linearly ordered subsets, by brute enumeration."""
    moments = list(moments)

    def linear(subset):
        return all(a == b or lt(a, b) or lt(b, a)
                   for a, b in combinations(subset, 2))

    chains = [frozenset(c)
              for size in range(1, len(moments) + 1)
              for c in combinations(moments, size)
              if linear(c)]
    return {c for c in chains
            if not any(c < other for other in chains)}


def undivided_pairs(tree, moment) -> set[tuple[str, str]]:
    """Pairs of history-leaves through the moment that share a later moment."""
    leaves = [l for l in tree.leaves
              if l == moment or moment in tree.ancestors[l]]
    out = set()
    for a in leaves:
        for b in leaves:
            if a == b:
                out.add((a, b))
                continue
            shared = tree.down_set(a) & tree.down_set(b)
            if any(tree.lt(moment, s) for s in shared):
                out.add((a, b))
    return out


def tree_views(moments, edges) -> dict:
    """The order views of a tree by their definitions, on any graph: the
    strict ancestors are the closure of the parent edges, grown to a
    fixpoint; a leaf's chain lists its ancestors by their own number of
    ancestors, then name, followed by the leaf."""
    nodes = sorted(set(moments) | {m for edge in edges for m in edge})
    parents = {m: tuple(sorted({a for a, b in edges if b == m})) for m in nodes}
    children = {m: tuple(sorted({b for a, b in edges if a == m})) for m in nodes}
    reach = {m: set(parents[m]) for m in nodes}
    grown = True
    while grown:
        grown = False
        for m in nodes:
            for p in list(reach[m]):
                if not reach[p] <= reach[m]:
                    reach[m] |= reach[p]
                    grown = True
    ancestors = {m: frozenset(reach[m]) for m in nodes}
    leaves = tuple(m for m in sorted(set(moments)) if not children[m])
    chains = {leaf: tuple(sorted(ancestors[leaf],
                                 key=lambda m: (len(ancestors[m]), m))) + (leaf,)
              for leaf in leaves}
    through = {m: tuple(leaf for leaf in leaves if m in chains[leaf])
               for m in nodes}
    return {"parents_map": parents, "children_map": children,
            "ancestors": ancestors, "leaves": leaves, "chains": chains,
            "through": through}


def depth_height(frame) -> dict:
    """Per point, its depth and height by their definitions: the number of
    moments below its moment, and the most moments after it on one history
    of its class.  The order is the closure of the edges (``tree_views``)
    and the histories are its maximal chains, each holding one leaf."""
    tree = frame.tree
    below = tree_views(tree.moments, tree.edges)["ancestors"]

    def lt(a, b):
        return a in below[b]

    histories = maximal_chains(tree.moments, lt)
    out = {}
    for moment, classes in frame.indist.classes_at.items():
        depth = sum(lt(s, moment) for s in tree.moments)
        for leaves in filter(None, classes):
            height = max(sum(lt(moment, s) for s in h)
                         for h in histories if h & set(leaves))
            out[Point(moment, frozenset(leaves))] = (depth, height)
    return out
