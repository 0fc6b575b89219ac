"""Finite branching-time structures.

Trees are given by their immediate-successor edges; the strict order on
moments is the transitive closure of the edges.  A history is a maximal
linearly ordered set of moments; on a finite tree histories correspond
one-to-one with the order-maximal moments ("leaves"), so a history is
identified by its leaf.  An indistinguishability assignment partitions, at
every moment, the histories passing through it, and may only merge classes
when moving down the tree.  An evaluation point is a pair of a moment and
one class of histories at it.

One walk down from the roots (``Tree._walk``) gives each moment its parent
(so its depth) and, gathered back up, the sorted leaves through it.  A frame
reads its classes along it (``Frame._walk``): per moment its canonical
classes and first point index, so the points are numbered moment by moment,
and per point its parent point, the point at its moment's parent whose class
contains its class.  Classes only merge moving down the tree, so the points
form a forest (``Frame.point_forest``).  Ancestor sets and chains are built
only for the order (``Tree.lt``), the histories and an invalid tree's
violations.  The "hist" tables read one suffix-OR list per history (per
depth, the mask of its points at that depth or deeper), so a point's future
along a history is one entry and its past the XOR of two.  The G and H
tables of "rel" read the forest and those of "hist" do not, so their
agreement is a real check; ``L`` reads one table of same-moment classes.

Validation decides from what the walks saw, and describes only failures: a
tree whose walk enters every moment, with distinct names and edges and one
parent each, whose classes hold as many leaves as pass through each moment
and lie inside one class at its parent, is a valid frame.  The
element-by-element loops that word the violations run only where it is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter
from functools import cached_property, reduce
from itertools import accumulate, chain
from operator import itemgetter, or_

from .errors import InvalidPointError
from .formula import MODES, Program, _is_atom_name


@dataclass(frozen=True, eq=False)
class Tree:
    """A finite set of moments ordered by the transitive closure of edges.

    ``edges`` are (parent, child) pairs of immediate succession.  No root is
    required; a forest of disjoint chains and trees is a valid input.  The
    closure is computed once, on demand, as the strict ancestors of each node.
    """

    moments: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    @cached_property
    def moment_set(self) -> frozenset[str]:
        return frozenset(self.moments)

    @cached_property
    def children_map(self) -> dict[str, tuple[str, ...]]:
        """Per node (a declared moment or an edge endpoint), its children,
        sorted."""
        below: dict[str, list[str]] = {}
        for parent, child in sorted(set(self.edges)):
            below.setdefault(parent, []).append(child)
        out = dict.fromkeys(self.moment_set.union(*self.edges), ())
        out.update((m, tuple(cs)) for m, cs in below.items())
        return out

    @cached_property
    def parents_map(self) -> dict[str, tuple[str, ...]]:
        out = dict.fromkeys(self.children_map, ())
        for parent, child in sorted(set(self.edges)):
            out[child] += (parent,)
        return out

    @cached_property
    def _walk(self) -> tuple[dict[str, str], list[str], dict[str, int], dict | None]:
        """One walk down from the roots, entering declared moments of one
        parent only: the parent of each moment entered off a root, the
        moments entered, each after its parent, the depth of each, its
        parent's plus one, and, if it enters every node (on a tree), per node
        its sorted leaves, gathered back up the walk.  On any other graph it
        leaves out the nodes on or below a cycle, a node of two parents or an
        undeclared node."""
        declared, edges = self.moment_set, self.edges
        count = Counter(map(itemgetter(1), edges))
        below: dict[str, list[str]] = {}
        for parent, child in edges:
            if count[child] == 1 and child in declared:
                below.setdefault(parent, []).append(child)
        order = [m for m in dict.fromkeys(self.moments) if m not in count]
        up: dict[str, str] = {}
        depth = dict.fromkeys(order, 0)
        for m in order:  # grows as it is read
            for c in below.get(m, ()):
                up[c], depth[c] = m, depth[m] + 1
                order.append(c)
        if len(order) < len(declared) or not declared.issuperset(
                chain.from_iterable(edges)):
            return up, order, depth, None
        through: dict[str, tuple[str, ...]] = {}
        for m in reversed(order):
            children = below.get(m, ())
            through[m] = tuple(sorted(chain.from_iterable(
                [through[c] for c in children]))) if children else (m,)
        return up, order, depth, through

    @cached_property
    def depth(self) -> dict[str, int]:
        """Per moment the walk enters, its number of ancestors."""
        return self._walk[2]

    @cached_property
    def ancestors(self) -> dict[str, frozenset[str]]:
        """Strict ancestors of each node, for the order (``lt``, ``down_set``,
        ``chains``) and an invalid tree's report: down the walk, the parent's
        plus the parent; off it, by a cycle-tolerant walk up the edges."""
        parent, order, *_ = self._walk
        out: dict[str, frozenset[str]] = {}
        for m in order:
            up = parent.get(m)
            out[m] = frozenset() if up is None else out[up] | {up}
        for start in self.children_map.keys() - out.keys():
            seen: set[str] = set()
            stack = list(self.parents_map[start])
            while stack:
                node = stack.pop()
                if node not in seen:
                    seen.add(node)
                    stack.extend(self.parents_map[node])
            out[start] = frozenset(seen)
        return out

    @cached_property
    def leaves(self) -> tuple[str, ...]:
        """Order-maximal moments, sorted."""
        children = self.children_map
        return tuple(m for m in sorted(self.moment_set) if not children[m])

    @cached_property
    def chains(self) -> dict[str, tuple[str, ...]]:
        """Per leaf, the moments of its history from the root up: its
        ancestors by their own number of ancestors, then name, then itself."""
        ancestors = self.ancestors
        return {leaf: (*sorted(ancestors[leaf], key=lambda a: (len(ancestors[a]), a)),
                       leaf) for leaf in self.leaves}

    @cached_property
    def through(self) -> dict[str, tuple[str, ...]]:
        """Per node, the sorted leaves of the histories containing it."""
        through = self._walk[3]
        if through is None:  # not a forest: from each leaf's down set
            lists: dict[str, list[str]] = {m: [] for m in self.children_map}
            for leaf in self.leaves:
                for m in self.down_set(leaf):
                    lists[m].append(leaf)
            through = {m: tuple(ls) for m, ls in lists.items()}
        return through

    def lt(self, a: str, b: str) -> bool:
        """The strict order: a < b."""
        return a in self.ancestors[b]

    def down_set(self, m: str) -> frozenset[str]:
        return self.ancestors[m] | {m}


@dataclass(frozen=True)
class History:
    """A maximal linearly ordered set of moments, identified by its leaf."""

    leaf: str
    moments: frozenset[str]


@dataclass(frozen=True, eq=False)
class IndistFunction:
    """Per-moment partition of the histories (named by leaf) through it.

    Blocks are kept as given; canonical (frozenset) views live on Frame.
    """

    classes_at: dict[str, tuple[tuple[str, ...], ...]]


@dataclass(frozen=True)
class Point:
    """An evaluation point: a moment plus one class of histories through it.

    The class is stored as the frozenset of the leaves of its histories; the
    canonical representative is the lexicographically smallest leaf.
    """

    moment: str
    block: frozenset[str]

    @property
    def class_rep(self) -> str:
        return min(self.block)

    def text(self) -> str:
        return f"{self.moment}/{self.class_rep}"

    def __repr__(self) -> str:  # compact, for test output
        return f"Point({self.moment}/{{{','.join(sorted(self.block))}}})"


def point_key(p: Point) -> tuple[str, str]:
    """Canonical sort key for points."""
    return (p.moment, p.class_rep)


@dataclass(frozen=True, eq=False)
class Frame:
    tree: Tree
    indist: IndistFunction

    # -- canonical derived views (assume a valid frame) --

    @cached_property
    def _walk(self) -> tuple[dict, dict, tuple, bool, bool]:
        """``blocks_at``, ``first_point`` and ``point_forest``, read along the
        tree's walk, and the verdict: whether each moment's classes are
        nonempty and hold, all told, as many leaves as pass through it (that
        leaf, if one does), and whether each class off a root lies inside one
        at its moment's parent.  On a tree both are the frame's invariants,
        by induction up the tree: the children's classes cover the leaves
        through a moment and each lies inside one of its classes, so classes
        of that total size partition them; and a class inside one at the
        parent, inside one at the grandparent, ... is backward coherence."""
        tree, classes_at = self.tree, self.indist.classes_at
        through, blocks_at, first, n, counted = tree.through, {}, {}, 0, True
        for m in sorted(tree.moment_set):
            classes, leaves = classes_at.get(m, ()), through[m]
            counted = counted and (classes == (leaves,) or len(leaves) > 1 and all(
                classes) and sum(map(len, classes)) == len(leaves))
            blocks_at[m] = blocks = tuple(sorted(map(
                frozenset, filter(None, classes)), key=min))
            first[m], n = n, n + len(blocks)
        parent, order, *_ = tree._walk
        forest, inside = [], True
        for m in order:
            up = parent.get(m)
            for i, block in enumerate(blocks_at[m], first[m]):
                j = None
                if up is not None:
                    for j, above in enumerate(blocks_at[up], first[up]):
                        if block <= above:
                            break
                    else:
                        j = inside = None
                forest.append((i, j))
        return blocks_at, first, tuple(forest), counted, inside is not None

    @cached_property
    def blocks_at(self) -> dict[str, tuple[frozenset[str], ...]]:
        """Per moment, in sorted order, its nonempty classes sorted by
        representative."""
        return self._walk[0]

    @cached_property
    def first_point(self) -> dict[str, int]:
        """Per moment, the index of its first point.  A moment's points are
        consecutive, one per class in the order of ``blocks_at``."""
        return self._walk[1]

    def index_at(self, moment: str, leaf: str) -> int | None:
        """The index of the point at ``moment`` whose class contains the
        history ``leaf``, or None if there is none."""
        for k, block in enumerate(self.blocks_at.get(moment, ())):
            if leaf in block:
                return self.first_point[moment] + k
        return None

    @cached_property
    def block_of(self) -> dict[tuple[str, str], frozenset[str]]:
        """(moment, leaf) -> the class at that moment containing the history."""
        return {(m, leaf): block for m, blocks in self.blocks_at.items()
                for block in blocks for leaf in block}

    @cached_property
    def histories_through_map(self) -> dict[str, tuple[History, ...]]:
        by_leaf = {h.leaf: h for h in histories(self.tree)}
        through = self.tree.through
        return {m: tuple(by_leaf[leaf] for leaf in through[m])
                for m in self.tree.moment_set}

    @cached_property
    def point_list(self) -> tuple[Point, ...]:
        return tuple(Point(m, block) for m, blocks in self.blocks_at.items()
                     for block in blocks)

    @cached_property
    def point_index(self) -> dict[Point, int]:
        return {p: i for i, p in enumerate(self.point_list)}

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.point_list)) - 1

    def mask_of(self, pts) -> int:
        index = self.point_index
        mask = 0
        for p in pts:
            i = index.get(p)
            if i is None:  # the points read so far are all the frame's
                p = min((p, *(x for x in pts if x not in index)), key=point_key)
                raise InvalidPointError(f"{p.text()} is not a point of the frame")
            mask |= 1 << i
        return mask

    def points_of(self, mask: int) -> list[Point]:
        """The points of the set bits of ``mask``, in canonical order: the
        inverse of ``mask_of``."""
        pts = self.point_list
        out = []
        while mask:
            low = mask & -mask
            out.append(pts[low.bit_length() - 1])
            mask ^= low
        return out

    # -- quantifier domains for the clause-by-clause semantics --
    #
    # The "hist" tables are read off the histories and classes exactly as the
    # evaluation clauses quantify; the "rel" tables are read off the point
    # forest.  G's and H's are computed along different paths on purpose: their
    # agreement is what the equivalence battery checks.  L's, the classes at
    # each point's moment, is one table for both (``hist_class_masks``).

    @cached_property
    def hist_future_masks(self) -> tuple[int, ...]:
        return tuple(reduce(or_, chains, 0) for chains in self.future_chains)

    @cached_property
    def _hist_tables(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Per point: its future chains, and its past mask.

        Each history gets one row, from the root up: entry k is the bit of
        its class's point at depth k.  Its suffix-OR list has entry k the OR
        of the row from k on, the last entry 0.  A point at depth d reads
        entry d + 1 of each history of its class as that history's future
        chain, and entry 0 XOR entry d as its past along it.  The lists are
        dropped once the tables are read off them."""
        depths, first = self.tree.depth, self.first_point
        rows = {leaf: [0] * (depths[leaf] + 1) for leaf in self.tree.leaves}
        for m, blocks in self.blocks_at.items():
            depth = depths[m]
            for i, block in enumerate(blocks, first[m]):
                bit = 1 << i
                for leaf in block:
                    rows[leaf][depth] = bit
        suffixes = {}
        for leaf, row in rows.items():
            suffix = list(accumulate(reversed(row), or_))
            suffix.reverse()
            suffix.append(0)
            suffixes[leaf] = suffix
        chains, past = [], []
        for m, blocks in self.blocks_at.items():
            depth = depths[m]
            for block in blocks:
                lists = [suffixes[leaf] for leaf in sorted(block)]
                chains.append(tuple([suffix[depth + 1] for suffix in lists]))
                mask = 0
                for suffix in lists:
                    mask |= suffix[0] ^ suffix[depth]
                past.append(mask)
        return tuple(chains), tuple(past)

    @cached_property
    def future_chains(self) -> tuple[tuple[int, ...], ...]:
        """Per point, per history of its class: later points along it."""
        return self._hist_tables[0]

    @cached_property
    def hist_past_masks(self) -> tuple[int, ...]:
        return self._hist_tables[1]

    @cached_property
    def hist_class_masks(self) -> tuple[int, ...]:
        first, out = self.first_point, []
        for m, blocks in self.blocks_at.items():
            n = len(blocks)
            out += [((1 << n) - 1) << first[m]] * n
        return tuple(out)

    @cached_property
    def point_forest(self) -> tuple[tuple[int, int | None], ...]:
        """Each point as (index, index of its parent point), after its parent
        point: the point at its moment's parent whose class contains its
        class, or None at a root and where no class there does (an incoherent
        frame).  It leaves out the points at the moments the tree's walk
        leaves out, which only invalid trees have."""
        return self._walk[2]

    @cached_property
    def _rel_tables(self) -> tuple[tuple, ...]:
        """The successor and predecessor masks, and ``depth_height``.

        A point's predecessors are its parent point's plus that point, its
        depth one more than that point's; its successors are its child
        points' plus those points, its height one more than their greatest:
        one pass down the point forest and one back up."""
        forest, n = self.point_forest, len(self.point_list)
        predecessors, successors = [0] * n, [0] * n
        depth, height = [0] * n, [0] * n
        for i, j in forest:
            if j is not None:
                predecessors[i] = predecessors[j] | 1 << j
                depth[i] = depth[j] + 1
        for i, j in reversed(forest):
            if j is not None:
                successors[j] |= successors[i] | 1 << i
                if height[j] <= height[i]:
                    height[j] = height[i] + 1
        return tuple(successors), tuple(predecessors), tuple(zip(depth, height))

    @cached_property
    def rel_successor_masks(self) -> tuple[int, ...]:
        return self._rel_tables[0]

    @cached_property
    def rel_predecessor_masks(self) -> tuple[int, ...]:
        return self._rel_tables[1]

    @cached_property
    def rel_same_moment_masks(self) -> tuple[int, ...]:
        return self.hist_class_masks

    @property
    def depth_height(self) -> tuple[tuple[int, int], ...]:
        """Per point, its depth and height (see ``bisimulation``).  Not
        ``Tree.depth``: on an incoherent frame only this depth counts the rel
        tables' predecessors, and the fixpoint must stay greatest over them."""
        return self._rel_tables[2]


@dataclass(frozen=True, eq=False)
class Model:
    frame: Frame
    valuation: dict[str, frozenset[Point]]

    @cached_property
    def labels(self) -> tuple[frozenset[str], ...]:
        """Per point of the frame, in canonical order, the atoms true there.
        Valuation points outside the frame are ignored."""
        index = self.frame.point_index
        true_at: list[set[str]] = [set() for _ in self.frame.point_list]
        for atom, extension in self.valuation.items():
            for p in extension:
                i = index.get(p)
                if i is not None:
                    true_at[i].add(atom)
        return tuple(frozenset(atoms) for atoms in true_at)

    @cached_property
    def programs(self) -> dict[str, Program]:
        """Per mode, the program that the model's one-model evaluators
        compile into and share."""
        return {mode: Program(mode) for mode in MODES}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str
    message: str
    witness: dict

    def to_doc(self) -> dict:
        return {"kind": self.kind, "message": self.message, "witness": self.witness}


@dataclass(frozen=True)
class Report:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> tuple[str, ...]:
        return tuple(v.kind for v in self.violations)

    def to_doc(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_doc() for v in self.violations]}


def _tree_violations(tree: Tree) -> list[Violation]:
    if not tree.moments:
        return [Violation("empty-structure", "the structure declares no moments", {})]
    out: list[Violation] = []
    if _is_tree(tree):
        return out
    seen_moments: set[str] = set()
    for m in tree.moments:
        if m in seen_moments:
            out.append(Violation(
                "duplicate-moment", f"moment {m!r} is declared twice",
                {"moment": m}))
        elif not m or "/" in m:
            out.append(Violation(
                "moment-name", f"moment name {m!r} is empty or contains '/', so "
                               f"its points cannot be written moment/classRep",
                {"moment": m}))
        seen_moments.add(m)

    seen_edges: set[tuple[str, str]] = set()
    for edge in tree.edges:
        if edge in seen_edges:
            out.append(Violation(
                "duplicate-edge", f"edge {list(edge)} appears twice",
                {"edge": list(edge)}))
        seen_edges.add(edge)
        for endpoint in edge:
            if endpoint not in tree.moment_set:
                out.append(Violation(
                    "unknown-moment",
                    f"edge {list(edge)} mentions undeclared moment {endpoint!r}",
                    {"edge": list(edge), "moment": endpoint}))

    ancestors = tree.ancestors
    for m in sorted(tree.children_map):
        if m in ancestors[m]:
            out.append(Violation(
                "cycle", f"moment {m!r} lies on a cycle of the order",
                {"moment": m}))

    # Two distinct edge-parents of one child: if they are incomparable the
    # order is not downward linear; if comparable, the edge from the farther
    # parent does not encode immediate succession.
    for child in sorted(tree.children_map):
        parents = tree.parents_map[child]
        for i in range(len(parents)):
            for j in range(i + 1, len(parents)):
                b, c = parents[i], parents[j]
                if tree.lt(c, b) and not tree.lt(b, c):
                    b, c = c, b
                if tree.lt(b, c):
                    out.append(Violation(
                        "non-immediate-edge",
                        f"edge [{b!r}, {child!r}] skips intermediate moment {c!r}",
                        {"edge": [b, child], "skipped": c}))
                else:
                    out.append(Violation(
                        "downward-linearity",
                        f"moments {b!r} and {c!r} are incomparable predecessors "
                        f"of {child!r}",
                        {"predecessors": [b, c], "moment": child}))
    return out


def _is_tree(tree: Tree) -> bool:
    """Whether the tree has none of the violations above: its moments
    are distinct and can be written in points, its edges are distinct and
    give each child one parent, every node is declared, and the walk from
    the roots reaches every moment, so none lies on a cycle."""
    moments, edges = tree.moments, tree.edges
    return (len(tree._walk[1]) == len(moments) and "" not in tree.moment_set
            and "/" not in "".join(moments)
            and tree.moment_set.issuperset(chain.from_iterable(edges))
            and len(set(edges)) == len(edges) == len({c for _, c in edges}))


def _indist_violations(frame: Frame) -> list[Violation]:
    out = []
    tree = frame.tree
    declared = tree.moment_set
    classes_at = frame.indist.classes_at

    for m in sorted(set(classes_at) - declared):
        out.append(Violation(
            "indist-extra-moment",
            f"indistinguishability is declared at unknown moment {m!r}",
            {"moment": m}))
    for m in sorted(declared - set(classes_at)):
        out.append(Violation(
            "indist-missing-moment",
            f"no indistinguishability partition is declared at moment {m!r}",
            {"moment": m}))

    reported = len(out)
    for m in sorted(declared):
        blocks, through = classes_at.get(m, ()), set(tree.through[m])
        placed: set[str] = set()
        for block in blocks:
            if not block:
                out.append(Violation(
                    "empty-block", f"empty class at moment {m!r}", {"moment": m}))
            for leaf in block:
                if leaf not in through:
                    out.append(Violation(
                        "partition-coverage",
                        f"{leaf!r} is not the leaf of a history through {m!r}",
                        {"moment": m, "extraneous": leaf}))
                elif leaf in placed:
                    out.append(Violation(
                        "partition-overlap",
                        f"history {leaf!r} appears in two classes at {m!r}",
                        {"moment": m, "leaf": leaf}))
                placed.add(leaf)
        for leaf in sorted(through - placed):
            out.append(Violation(
                "partition-coverage",
                f"history {leaf!r} through {m!r} is in no class",
                {"moment": m, "missing": leaf}))

    if len(out) > reported or frame._walk[4]:  # partitions fail or all cohere
        return out

    # Backward coherence: histories sharing a class at t share one at every
    # earlier moment.  Some parent failed; list every pair that fails.
    block_of = frame.block_of
    for t in sorted(declared):
        for block in frame.blocks_at[t]:
            anchor, *others = sorted(block)
            for s in sorted(tree.ancestors[t]):
                for other in others:
                    if block_of[(s, anchor)] is not block_of[(s, other)]:
                        out.append(Violation(
                            "backward-coherence",
                            f"histories {anchor!r} and {other!r} share a class "
                            f"at {t!r} but not at earlier moment {s!r}",
                            {"histories": [anchor, other],
                             "merged_at": t, "split_at": s}))
    return out


def validate_frame(frame: Frame) -> Report:
    """Check every frame invariant; violations are data, not exceptions.
    The walks decide; the loops that word violations run only on a frame
    they reject."""
    violations = _tree_violations(frame.tree)
    if not violations:
        *_, counted, inside = frame._walk
        if not (counted and inside
                and frame.indist.classes_at.keys() == frame.tree.moment_set):
            violations = _indist_violations(frame)
    return Report(tuple(violations))


def _invalid_atom(atom: str) -> Violation:
    return Violation(
        "valuation-invalid-atom",
        f"valuation names atom {atom!r}, which formulas cannot name",
        {"atom": atom})


def validate_model(model: Model) -> Report:
    violations = list(validate_frame(model.frame).violations)
    if not violations:
        index = model.frame.point_index
        for atom in sorted(model.valuation):
            if not _is_atom_name(atom):
                violations.append(_invalid_atom(atom))
            for p in sorted(model.valuation[atom], key=point_key):
                if p not in index:
                    violations.append(Violation(
                        "valuation-invalid-point",
                        f"valuation of {atom!r} names {p.text()}, which is not "
                        f"a point of the frame",
                        {"atom": atom, "point": p.text()}))
    return Report(tuple(violations))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def histories(tree: Tree) -> tuple[History, ...]:
    """All maximal chains, one per order-maximal moment, sorted by leaf."""
    return tuple(History(leaf, frozenset(history))
                 for leaf, history in tree.chains.items())


def histories_through(frame: Frame, moment: str) -> tuple[History, ...]:
    if moment not in frame.tree.moment_set:
        raise InvalidPointError(f"unknown moment {moment!r}")
    return frame.histories_through_map[moment]


def points(frame: Frame) -> tuple[Point, ...]:
    """All evaluation points in canonical order (moment, then class rep)."""
    return frame.point_list


def precedes(frame: Frame, p: Point, q: Point) -> bool:
    """Strict temporal order on points: earlier moment, broader class."""
    return frame.tree.lt(p.moment, q.moment) and p.block >= q.block


def same_moment(frame: Frame, p: Point, q: Point) -> bool:
    """Equivalence of points sharing a moment (their classes both live there)."""
    return p.moment == q.moment


def future_points(frame: Frame, moment: str, leaf: str) -> tuple[Point, ...]:
    """Points (s, class of the history named by leaf) strictly after moment."""
    tree = frame.tree
    return tuple(Point(s, frame.block_of[(s, leaf)])
                 for s in sorted(tree.down_set(leaf)) if tree.lt(moment, s))


def undividedness_indist(tree: Tree) -> IndistFunction:
    """The canonical assignment: histories are indistinguishable at a moment
    exactly when they still share some strictly later moment.

    Through a moment with children, histories group by the child they pass
    through; a childless moment carries the single history it ends.
    """
    through, children = tree.through, tree.children_map
    return IndistFunction({m: tuple(through[c] for c in children[m]) or (through[m],)
                           for m in sorted(tree.moment_set)})
