"""Independent brute-force oracles used by the tests.

Everything here is a direct transcription of the defining conditions, with
no sharing of the library's evaluation machinery: plain recursion, explicit
loops, no masks, no memoization.  The corpus validity filter at the end is
the exception: it runs the library's evaluator, but decides every corpus
formula on its own, with none of the collapse the battery reads.
"""

import random
from itertools import combinations, product

from itl.formula import (
    AND, ATOM, BOX_G, BOX_H, BOX_L, NOT, WEAK_F, And, Atom, F, G, H, L, Not, Program,
    corpus_program,
)
from itl.semantics import Evaluator
from itl.structures import IndistFunction, Model, Point, Tree


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


def frame_views(frame) -> dict:
    """Whether a frame is valid and, if it is, its point views, by their
    definitions on any input: the order is the closure of the edges
    (``tree_views``), the histories are its maximal chains, each named by
    its greatest moment, a partition is tested by set equality, and
    backward coherence pair by pair.  The views of a valid frame are
    ``blocks_at``, ``first_point``, the sorted ``point_forest``, ``through``
    and the rel and hist tables."""
    tree, classes_at = frame.tree, frame.indist.classes_at
    moments, edges = list(tree.moments), list(tree.edges)
    views = tree_views(moments, edges)
    below, parents = views["ancestors"], views["parents_map"]

    def lt(a, b):
        return a in below[b]

    if not (moments and len(set(moments)) == len(moments)
            and all(m and "/" not in m for m in moments)
            and len(set(edges)) == len(edges) and set(below) == set(moments)
            and not any(lt(m, m) or len(parents[m]) > 1 for m in moments)
            and set(classes_at) == set(moments)):
        return {"ok": False}
    histories = {max(h, key=lambda m: len(below[m])): h
                 for h in maximal_chains(moments, lt)}
    through = {m: sorted(leaf for leaf, h in histories.items() if m in h)
               for m in moments}
    for m in moments:
        sets = [set(c) for c in classes_at[m]]
        if (any(not c or len(set(c)) < len(c) for c in classes_at[m])
                or any(a & b for a, b in combinations(sets, 2))
                or set().union(*sets) != set(through[m])):
            return {"ok": False}

    def class_of(s, leaf):
        return next(frozenset(c) for c in classes_at[s] if leaf in c)

    for t in moments:
        for c in classes_at[t]:
            for a, b in combinations(c, 2):
                if any(lt(s, t) and class_of(s, a) != class_of(s, b)
                       for s in moments):
                    return {"ok": False}

    blocks_at = {m: tuple(sorted(map(frozenset, classes_at[m]), key=min))
                 for m in sorted(moments)}
    pts = [(m, block) for m, blocks in blocks_at.items() for block in blocks]
    index = {p: i for i, p in enumerate(pts)}
    first_point = {m: min(i for i, (s, _) in enumerate(pts) if s == m)
                   for m in moments}

    def mask(points):
        return sum(1 << index[p] for p in set(points))

    def along(leaf, keep):
        return [(s, class_of(s, leaf)) for s in histories[leaf] if keep(s)]

    forest = [(i, next(index[(s, c)] for s, c in pts
                       if parents[m] == (s,) and block <= c) if parents[m] else None)
              for i, (m, block) in enumerate(pts)]
    future = [tuple(mask(along(leaf, lambda s: lt(m, s))) for leaf in sorted(block))
              for m, block in pts]
    return {
        "ok": True, "blocks_at": blocks_at, "first_point": first_point,
        "point_forest": sorted(forest), "through": views["through"],
        "rel_successor_masks": tuple(mask(q for q in pts if lt(m, q[0]) and block >= q[1])
                                     for m, block in pts),
        "rel_predecessor_masks": tuple(mask(q for q in pts if lt(q[0], m) and q[1] >= block)
                                       for m, block in pts),
        "rel_same_moment_masks": tuple(mask(q for q in pts if q[0] == m)
                                       for m, _ in pts),
        "future_chains": tuple(future),
        "hist_future_masks": tuple(mask(q for leaf in block
                                        for q in along(leaf, lambda s: lt(m, s)))
                                   for m, block in pts),
        "hist_past_masks": tuple(mask(q for leaf in block
                                      for q in along(leaf, lambda s: lt(s, m)))
                                 for m, block in pts),
    }


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


# ---------------------------------------------------------------------------
# builders, one item at a time: the quadratic tree, the generator's classes
# and per-slot corpus emission, which the library's bulk builders must equal,
# and a two-pass restriction of a program
# ---------------------------------------------------------------------------

def naive_random_tree(seed: int, n_moments: int, branching: int = 2) -> Tree:
    """``generate.random_tree`` by rescanning and re-sorting every earlier
    moment for each new one."""
    rng = random.Random(seed)
    moments = [f"m{i}" for i in range(n_moments)]
    edges = []
    child_count = {moments[0]: 0}
    for m in moments[1:]:
        open_parents = [p for p, c in child_count.items() if c < branching]
        if not open_parents or rng.random() < 0.08:
            child_count[m] = 0  # new root
            continue
        parent = rng.choice(sorted(open_parents))
        child_count[parent] += 1
        child_count[m] = 0
        edges.append((parent, m))
    return Tree(tuple(moments), tuple(edges))


def naive_coarsened_indist(seed: int, tree: Tree) -> IndistFunction:
    """``generate.coarsened_indist`` from the definitions: the canonical
    classes at a moment group the leaves through it by the child they pass
    through, and the moments are visited by the oracle's ancestor counts,
    greatest first, then by name."""
    views = tree_views(tree.moments, tree.edges)
    children, through = views["children_map"], views["through"]
    visits = sorted(set(tree.moments),
                    key=lambda m: (-len(views["ancestors"][m]), m))
    blocks = {m: [set(through[c]) for c in children[m]] or [set(through[m])]
              for m in visits}
    rng = random.Random(seed)
    for t in visits:
        classes = blocks[t]
        while len(classes) > 1 and rng.random() < 0.4:
            i, j = sorted(rng.sample(range(len(classes)), 2))
            classes[i] |= classes.pop(j)
    return IndistFunction({m: tuple(tuple(sorted(b)) for b in sorted(bs, key=min))
                           for m, bs in blocks.items()})


def naive_emit_by_depth(program: Program, atoms, max_depth: int):
    """``formula._emit_by_depth`` with one ``Program.emit`` call per slot."""
    unary = [NOT, BOX_G, BOX_H, BOX_L] + ([WEAK_F] if program.mode == "LF" else [])
    emit = program.emit
    levels: list[list[int]] = [[]]
    start = len(program)
    for name in atoms:
        emit(ATOM, program.atom(name))
    yield start, levels[0]
    for _depth in range(max_depth):
        last = levels[-1]
        shallower = [k for level in levels[:-1] for k in level]
        new: list[int] = []
        start = len(program)
        for op in unary:
            for k in last:
                emit(op, k)
        yield start, new
        for a in last:
            start = len(program)
            for b in last:
                emit(AND, a, b)
            yield start, new
        for a in last:
            start = len(program)
            for b in shallower:
                emit(AND, a, b)
                emit(AND, b, a)
            yield start, new
        if not new:
            return
        levels.append(new)


def naive_restrict(program: Program, roots) -> tuple[Program, list[int]]:
    """The slots the given roots depend on, as a program of their own, and
    the roots' slots in it: every slot the roots need is marked in one
    backward scan of the whole program, then copied in a forward scan."""
    ops, left, right = program.ops, program.left, program.right
    need = bytearray(len(ops))
    for r in roots:
        need[r] = 1
    for k in range(len(ops) - 1, -1, -1):
        if need[k] and ops[k] != ATOM:
            need[left[k]] = 1
            if ops[k] == AND:
                need[right[k]] = 1
    out = Program(program.mode)
    moved: dict[int, int] = {}
    for k, op in enumerate(ops):
        if need[k]:
            if op == ATOM:
                moved[k] = out.emit(ATOM, out.atom(program.atoms[left[k]]))
            else:
                moved[k] = out.emit(op, moved[left[k]],
                                    moved[right[k]] if op == AND else 0)
    return out, [moved[r] for r in roots]


# ---------------------------------------------------------------------------
# validity over the whole corpus, one formula at a time
# ---------------------------------------------------------------------------

def naive_valid_corpus_formulas(frame, atoms, max_depth: int) -> set[int]:
    """Indices of the corpus (mode L) formulas valid on the frame: the whole
    corpus program run once per valuation of the atoms, and restricted to
    the formulas still valid as others die.  No collapse: every formula is
    kept and decided on its own."""
    ev = Evaluator(Model(frame, {}), mode="L")
    n = len(frame.point_list)
    full = frame.full_mask
    program = corpus_program(atoms, max_depth, "L")
    alive = roots = range(len(program))  # valid indices, slots in program
    for assignment in product(range(1 << n), repeat=len(atoms)):
        masks = ev.run(program, dict(zip(atoms, assignment)))
        kept = [k for k, r in enumerate(roots) if masks[r] == full]
        if len(kept) < len(roots):
            alive = [alive[k] for k in kept]
            program, roots = naive_restrict(program, [roots[k] for k in kept])
    return set(alive)
