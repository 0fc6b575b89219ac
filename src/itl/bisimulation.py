"""Bisimulations between pointed models.

A relation between the point sets of two models is a bisimulation for a pair
of anchor points when it links the anchors and every related pair agrees on
all atoms (PV) and satisfies back-and-forth conditions for the strict order
(G-f/G-b), its converse (H-f/H-b) and the same-moment relation (L-f/L-b); in
mode "LF" two history-matching conditions (F-f/F-b) are added for the weak
future operator.

The conditions are decided by one routine, ``_first_failure``, that reads the
point relations from the frames' masks (``rel_*_masks``, ``future_chains``)
and the checked relation from per-point masks and their converse, and the
fixpoint calls its G/H/L part, ``_unlinked``, with masks it reads once.  The
p-morphism checker in ``morphisms`` runs the same routine on a map's graph.
``bisimulation_failures`` validates a relation and its anchor when called
and returns the stream of raw failures, tested as it is read;
``check_bisimulation`` formats the whole stream into a ``Report``.  The
stream reads the related pairs off the set bits of the relation's masks
alone; point indices follow the canonical order, so pairs come in its order.

PV reads the labelling of each model (``Model.labels``, the atoms true at
each point).  ``_greatest`` computes the greatest relation satisfying the
per-pair conditions as masks, for ``greatest_bisimulation``, ``bisimilar``
and the p-morphism search (under empty valuations).  It starts from the
pairs with equal labels, depth and height (``_atom_seed``, which groups
each side's points by the three, so PV is never tested pair by pair) and
deletes violating pairs until a fixpoint (``_refine``, which takes any
starting relation as masks and changes it in place); since every condition
only asks for the existence of related witnesses, deletion is monotone and
the fixpoint is the unique greatest such relation.  By the two lemmas
below no relation satisfying the conditions has a pair of unequal depth or
height, so the seed drops no pair of that relation: the fixpoint is the
one reached from the pairs with equal labels alone, in fewer sweeps.

On finite frames the F conditions follow from the G/H conditions, so the
fixpoint tests the six G/H/L conditions only and its answer is the same in
both modes.  Write ``Z`` for a relation in which every pair satisfies G-f,
G-b, H-f and H-b, ``depth`` for the number of moments below a point's
moment, which is also its number of predecessors (at each earlier moment of
its history exactly one class contains its class), and ``height`` for the
number of moments after a point on the longest history of its class.  The
successors of a point lie on the histories of its class, and the point of
each such history at its leaf is one (a leaf's class holds one history),
so a point's height is the greatest depth of its successors less its own
depth, or 0 if it has none.  A point's predecessors are its parent point
and that point's, and its successors its child points and theirs, so both
are read off the point forest, with the rel tables (``Frame.depth_height``):
depth is the parent point's plus one, and height one more than the child
points' greatest.

Lemma: related points have equal depth.  By strong induction on the depth
``d`` of ``p``, for ``p Z q``.  Each predecessor ``y`` of ``q`` has, by H-b,
a related predecessor ``x`` of ``p``, so ``depth(y) = depth(x) < d``; hence
``depth(q) <= d``, and ``d = 0`` gives ``depth(q) = 0``.  For ``d > 0``, H-f
relates the immediate predecessor of ``p`` (depth ``d - 1``) to a
predecessor of ``q``, of depth ``d - 1`` by induction; hence
``depth(q) >= d``.

Lemma: related points have equal height.  Let ``p Z q``, so ``depth(p) =
depth(q)``.  If ``q`` has no successor, ``height(q) = 0 <= height(p)``.
Otherwise take a successor ``y`` of ``q`` of greatest depth; G-b gives a
successor ``x`` of ``p`` with ``x Z y``, so ``depth(x) = depth(y)`` and
``height(p) >= depth(x) - depth(p) = depth(y) - depth(q) = height(q)``.
The same argument with G-f gives ``height(q) >= height(p)``.

Theorem: every pair ``p Z q`` satisfies F-f and F-b.  The points later than
``p`` along a history of its class are successors of ``p`` (backward
coherence), and a point at a leaf has a one-history class.  F-f: take a
history ``h'`` of ``q``'s class.  If ``q`` is at a leaf, G-f leaves ``p``
without successors, so ``p`` is at a leaf too and both histories have no
later points.  Otherwise let ``q_l`` be the point of ``h'`` at its leaf, a
successor of ``q``.  G-b gives a successor ``p'`` of ``p`` with
``p' Z q_l``; G-f at that pair leaves ``p'`` without successors, so ``p'``
is the leaf point of a history ``h`` of ``p``'s class.  Every point ``x``
of ``h`` after ``p`` is ``p'`` (related to ``q_l``) or a predecessor of
``p'``, which H-f relates to a predecessor ``y`` of ``q_l``: a point of
``h'``.  By the depth lemma ``depth(y) = depth(x) > depth(p) =
depth(q)``, so ``y`` lies on ``h'`` after ``q``, and ``h`` tracks ``h'``.
F-b is F-f for the converse relation, which satisfies the same four
conditions.  The proof needs finiteness: a history of the paper's infinite
trees may have no last moment, and there the F conditions must be checked.

For a map's graph H-f follows from G-f, so a map passing the G/H/L
conditions passes F-f and F-b as well.  The checker still tests and reports
the F conditions in mode "LF": a relation that fails a G/H condition at one
pair may fail F at another, and the report names both.

Every entry point rejects an unknown mode with the evaluator's ValueError.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from . import limits
from .errors import InvalidPointError
from .formula import Formula, check_mode, collapsed_corpus
from .semantics import Evaluator
from .structures import Frame, Model, Point, Report, Violation, point_key

L_CONDITIONS = ("G-f", "H-f", "L-f", "G-b", "H-b", "L-b")
LF_CONDITIONS = ("F-f", "F-b")

_TABLES = {"G": "rel_successor_masks", "H": "rel_predecessor_masks",
           "L": "rel_same_moment_masks"}
_NOUNS = {"G": "successor", "H": "predecessor", "L": "same-moment point"}


def conditions_for(mode: str) -> tuple[str, ...]:
    """The per-pair conditions plus the anchor condition, in reporting order."""
    return ("PV",) + _pair_conditions(mode) + ("B",)


def _pair_conditions(mode: str) -> tuple[str, ...]:
    """The per-pair conditions besides PV, in reporting order."""
    return L_CONDITIONS + (LF_CONDITIONS if mode == "LF" else ())


@dataclass(frozen=True)
class PointRelation:
    pairs: frozenset[tuple[Point, Point]]

    def sorted_pairs(self) -> list[tuple[Point, Point]]:
        return sorted(self.pairs, key=lambda pq: (point_key(pq[0]), point_key(pq[1])))


def _relation_masks(n: int, m: int, pairs) -> tuple[list[int], list[int]]:
    """For (source index, target index) pairs over ``n`` source and ``m``
    target points: per source point the mask of its related target points,
    and per target point the mask of its related source points."""
    rel, conv = [0] * n, [0] * m
    for i, j in pairs:
        rel[i] |= 1 << j
        conv[j] |= 1 << i
    return rel, conv


def _point_relation(src: Model, dst: Model, rel) -> PointRelation:
    """The relation of the per-point masks ``rel`` as pairs of points."""
    return PointRelation(frozenset((p, q) for p, row in zip(src.frame.point_list, rel)
                                   for q in dst.frame.points_of(row)))


def _first_unlinked(todo: int, reach: int, links) -> int | None:
    """The lowest point of ``todo`` whose links miss ``reach``."""
    while todo:
        low = todo & -todo
        r = low.bit_length() - 1
        if not links[r] & reach:
            return r
        todo ^= low
    return None


def _unlinked(kind: str, src_masks, dst_masks, i: int, j: int, rel, conv):
    """The lowest point index witnessing that the pair (i, j) fails the G, H
    or L condition ``kind``, over the frames' masks of its relation: of the
    source for "-f"; for "-b", of the target, as forth for the converse."""
    if kind[2] == "b":
        return _first_unlinked(dst_masks[j], src_masks[i], conv)
    return _first_unlinked(src_masks[i], dst_masks[j], rel)


def _first_failure(kind: str, src: Frame, dst: Frame, i: int, j: int,
                   rel, conv):
    """The first witness, in canonical order, that the pair of source point
    ``i`` and target point ``j`` fails condition ``kind``; None if it holds.

    ``rel`` and ``conv`` hold the relation as per-point masks (see
    ``_relation_masks``).  A G/H/L condition is witnessed by a point (of the
    source for "-f", of the target for "-b"), F-f by a history of the target
    class and F-b by a history of the source class.
    """
    if kind[0] == "F":
        if kind == "F-b":
            src, dst, i, j, rel = dst, src, j, i, conv
        # every history of the far class is tracked by one of the near class:
        # each later point along it has a related later point along the other
        near = src.future_chains[i]
        for leaf, far in zip(sorted(dst.point_list[j].block), dst.future_chains[j]):
            if all(_first_unlinked(chain, far, rel) is not None for chain in near):
                return leaf
        return None
    table = _TABLES[kind[0]]
    r = _unlinked(kind, getattr(src, table), getattr(dst, table), i, j, rel, conv)
    return None if r is None else (dst if kind[2] == "b" else src).point_list[r]


def _pv_failure(src: Model, dst: Model, i: int, j: int) -> str | None:
    """The first atom, in sorted order, on which source point ``i`` and
    target point ``j`` disagree, if any."""
    return min(src.labels[i] ^ dst.labels[j], default=None)


def _pair_text(pair: tuple[Point, Point]) -> list[str]:
    return [pair[0].text(), pair[1].text()]


def _relation_violation(src: Model, dst: Model, kind: str,
                        pair: tuple[int, int], w) -> Violation:
    """The report entry for a raw failure of :func:`bisimulation_failures`."""
    p, q = src.frame.point_list[pair[0]], dst.frame.point_list[pair[1]]
    if kind == "B":
        return Violation(kind, f"the relation does not link the anchors "
                               f"{p.text()} and {q.text()}",
                         {"anchor": _pair_text((p, q))})
    if kind == "PV":
        return Violation(kind, f"{p.text()} and {q.text()} disagree on atom {w!r}",
                         {"pair": _pair_text((p, q)), "atom": w})
    if kind == "F-f":
        return Violation(kind, f"no history of {p.text()} tracks history {w!r} "
                               f"of {q.text()}",
                         {"pair": _pair_text((p, q)), "target_history": w})
    if kind == "F-b":
        return Violation(kind, f"history {w!r} of {p.text()} is tracked by no "
                               f"history of {q.text()}",
                         {"pair": _pair_text((p, q)), "history": w})
    here, there = (p, q) if kind.endswith("-f") else (q, p)
    return Violation(kind, f"{_NOUNS[kind[0]]} {w.text()} of {here.text()} has no "
                           f"related counterpart for {there.text()}",
                     {"pair": _pair_text((p, q)), "witness_point": w.text()})


def _pair_indices(src: Model, dst: Model, pairs) -> list[tuple[int, int]]:
    """Each pair as (source index, target index); raises for the first
    foreign point, in the order of ``pairs``."""
    src_index = src.frame.point_index
    dst_index = dst.frame.point_index
    out = []
    for p, q in pairs:
        if p not in src_index:
            raise InvalidPointError(f"{p.text()} is not a point of the source model")
        if q not in dst_index:
            raise InvalidPointError(f"{q.text()} is not a point of the target model")
        out.append((src_index[p], dst_index[q]))
    return out


def _relation_failures(src: Model, dst: Model, rel, conv,
                       unlinked: tuple[int, int] | None, mode: str):
    """Per pair related by the masks ``rel``/``conv``, in the canonical pair
    order, PV and then each per-pair condition it fails; last, B for the
    anchor pair ``unlinked`` if it is not None."""
    sf, df = src.frame, dst.frame
    kinds = _pair_conditions(mode)
    for i, todo in enumerate(rel):
        while todo:
            low = todo & -todo
            j = low.bit_length() - 1
            todo ^= low
            atom = _pv_failure(src, dst, i, j)
            if atom is not None:
                yield "PV", (i, j), atom
            for kind in kinds:
                w = _first_failure(kind, sf, df, i, j, rel, conv)
                if w is not None:
                    yield kind, (i, j), w
    if unlinked is not None:
        yield "B", unlinked, None


def bisimulation_failures(src: Model, dst: Model, relation: PointRelation,
                          anchor: tuple[Point, Point], mode: str = "LF"
                          ) -> Iterator[tuple[str, tuple[int, int], object]]:
    """The failures of ``relation`` as a bisimulation linking ``anchor``, as
    raw ``(kind, (i, j), witness)`` in reporting order: for each related
    pair of point indices, in the canonical pair order, the conditions of
    ``conditions_for(mode)`` it fails with their first witness (an atom for
    PV, a point for G/H/L, a history's leaf for F), then (last) B with the
    anchor's indices and no witness if the anchors are not linked, so a
    report separates "not a bisimulation" from "does not link the anchors".

    The mode, the pairs and the anchor are validated by this call; the
    conditions are tested as the iterator is read, so
    ``next(failures, None) is None`` decides the relation at its first
    failure."""
    check_mode(mode)
    pairs = _pair_indices(src, dst, relation.sorted_pairs())
    (linked,) = _pair_indices(src, dst, [anchor])
    rel, conv = _relation_masks(len(src.frame.point_list),
                                len(dst.frame.point_list), pairs)
    unlinked = None if anchor in relation.pairs else linked
    return _relation_failures(src, dst, rel, conv, unlinked, mode)


def check_bisimulation(src: Model, dst: Model, relation: PointRelation,
                       anchor: tuple[Point, Point], mode: str = "LF") -> Report:
    """Every failure of :func:`bisimulation_failures`, formatted."""
    return Report(tuple(_relation_violation(src, dst, *failure) for failure in
                        bisimulation_failures(src, dst, relation, anchor, mode)))


def _atom_seed(src: Model, dst: Model) -> tuple[list[int], list[int]]:
    """Per-point masks and their converse (see ``_relation_masks``) relating
    each source point to the target points of equal label, depth and height."""
    def classes(keys) -> dict:
        masks: dict = {}
        for i, key in enumerate(keys):
            masks[key] = masks.get(key, 0) | 1 << i
        return masks

    src_keys = list(zip(src.labels, src.frame.depth_height))
    dst_keys = list(zip(dst.labels, dst.frame.depth_height))
    src_classes, dst_classes = classes(src_keys), classes(dst_keys)
    return ([dst_classes.get(key, 0) for key in src_keys],
            [src_classes.get(key, 0) for key in dst_keys])


def _refine(sf: Frame, df: Frame, rel: list[int], conv: list[int]) -> None:
    """Delete from the relation ``rel``/``conv`` (changed in place) every pair
    failing a G/H/L condition, until none fails; by the theorem of the module
    docstring the result then satisfies the F conditions too.  Each frame's
    relation masks are read once per call."""
    checks = [(kind, getattr(sf, _TABLES[kind[0]]), getattr(df, _TABLES[kind[0]]))
              for kind in L_CONDITIONS]
    changed = True
    while changed:
        changed = False
        for i in range(len(rel)):
            todo = rel[i]
            while todo:
                low = todo & -todo
                j = low.bit_length() - 1
                todo ^= low
                for kind, src_masks, dst_masks in checks:
                    if _unlinked(kind, src_masks, dst_masks, i, j, rel, conv) is not None:
                        rel[i] ^= low
                        conv[j] ^= 1 << i
                        changed = True
                        break


def _greatest(src: Model, dst: Model) -> tuple[list[int], list[int]]:
    """The greatest bisimulation as masks: ``_refine`` from ``_atom_seed``."""
    rel, conv = _atom_seed(src, dst)
    _refine(src.frame, dst.frame, rel, conv)
    return rel, conv


def greatest_bisimulation(src: Model, dst: Model, mode: str = "LF") -> PointRelation:
    """Greatest relation satisfying PV and all back-and-forth conditions.

    Any pair it contains makes it a bisimulation anchored there.  The result
    may be empty.  It is the same in both modes (see the module docstring),
    so ``mode`` is only validated.
    """
    check_mode(mode)
    return _point_relation(src, dst, _greatest(src, dst)[0])


def bisimilar(src: Model, p: Point, dst: Model, q: Point, mode: str = "LF") -> bool:
    """Whether the greatest bisimulation relates p and q (points checked first)."""
    ((i, j),) = _pair_indices(src, dst, [(p, q)])
    check_mode(mode)
    return _greatest(src, dst)[0][i] >> j & 1 == 1


def find_distinguishing_formula(src: Model, p: Point, dst: Model, q: Point,
                                mode: str = "LF", max_depth: int = 4) -> Formula | None:
    """Breadth-first search for a formula the two points disagree on.

    Searches depth by depth, in the order of
    :func:`~itl.formula.corpus_program`, over the formulas built from every
    atom of the two valuations (depth 0 is the atoms themselves, sorted, so
    an atom the points disagree on comes first), reading
    :func:`~itl.formula.collapsed_corpus` over both models: a formula whose
    extensions on the two models an earlier one already has distinguishes
    nothing that one does not, so the collapse preserves completeness per
    depth.  The formula found is of the least depth that distinguishes the
    points; None means that no formula up to depth max_depth does.
    """
    limits.nonnegative(max_depth, "max_depth")
    ((i, j),) = _pair_indices(src, dst, [(p, q)])
    atoms = sorted(set(src.valuation) | set(dst.valuation)) or ["p"]
    # both models in one evaluator, src in the low lane
    ev = Evaluator(src, dst, mode=mode)
    j += ev.offsets[1]
    for program, k, mask in collapsed_corpus(ev, atoms, max_depth):
        if (mask >> i & 1) != (mask >> j & 1):
            return program.formula(k)
    return None
