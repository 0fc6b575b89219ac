"""Structure-preserving point maps between frames and models.

A point map is total on the source frame's points and is checked against
forward and back conditions for the derived relations: the forward condition
and back condition for the strict order (G-f, G-b), the back condition for
its converse (H-b), and both for the same-moment relation (L-f, L-b).  In
mode "LF" two further conditions (F-f, F-b) tie the histories of a class to
the histories of its image class, matching the weak-future operator.

These are the bisimulation conditions on the graph of the map, and a map is
checked as its graph by the condition routine of ``bisimulation``, over the
frames' relation masks.  The forward condition for the converse order (H-f)
is left out: for a function it follows from G-f.

Each check is a stream of raw failures: ``frame_pmorphism_failures`` and
``model_pmorphism_failures`` validate the mode and the map when called and
return an iterator of ``(kind, i, witness)`` that tests the conditions as
it is read, so a yes/no question stops at the first failure.
``check_frame_pmorphism`` and ``check_model_pmorphism`` format the whole
stream into a ``Report``.

The search is the greatest bisimulation plus a choice: it starts from the
masks that ``greatest_bisimulation`` wraps (see ``search_pmorphisms``), so
it decides the G/H/L conditions only and finds the same maps in "L" and
"LF".  The checkers still test and report F-f and F-b in mode "LF", since
they check any map.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

from . import limits
from .bisimulation import (LF_CONDITIONS, _first_failure, _greatest, _pv_failure,
                           _refine, _relation_masks)
from .errors import BoundExceededError
from .formula import check_mode
from .structures import (
    Frame, Model, Point, Report, Violation,
    point_key, points, precedes, same_moment,
)

FRAME_CONDITIONS = ("G-f", "G-b", "H-b", "L-f", "L-b")


def conditions_for(mode: str, model_level: bool = False) -> tuple[str, ...]:
    """The conditions a map check covers, in reporting order."""
    out = FRAME_CONDITIONS + (LF_CONDITIONS if mode == "LF" else ())
    return out + (("PV",) if model_level else ())


@dataclass(frozen=True, eq=False)
class PointMap:
    """A total function from source points to target points."""

    mapping: dict[Point, Point]

    def __call__(self, p: Point) -> Point:
        return self.mapping[p]

    def image(self) -> frozenset[Point]:
        return frozenset(self.mapping.values())

    def is_surjective_onto(self, dst: Frame) -> bool:
        return self.image() == frozenset(points(dst))


def _require_total(src: Frame, dst: Frame, f: PointMap) -> None:
    src_pts = set(points(src))
    missing = src_pts - set(f.mapping)
    if missing:
        sample = min(missing, key=point_key)
        raise ValueError(f"map is not total: no image for {sample.text()}")
    extra = set(f.mapping) - src_pts
    if extra:
        sample = min(extra, key=point_key)
        raise ValueError(f"map defined on foreign point {sample.text()}")
    dst_index = dst.point_index
    for q in f.mapping.values():
        if q not in dst_index:
            raise ValueError(f"image {q.text()} is not a point of the target frame")


def _images(src: Frame, dst: Frame, f: PointMap) -> list[int]:
    """Per source point, the index of its image; raises as ``_require_total``
    for a map that is not total from ``src`` into ``dst``."""
    mapping, dst_index = f.mapping, dst.point_index
    images = [dst_index.get(mapping.get(p)) for p in src.point_list]
    if len(mapping) != len(images) or None in images:
        _require_total(src, dst, f)  # raises: a point or an image is missing
    return images


def _violation(kind: str, p: Point, f: PointMap, w) -> Violation:
    """The report entry for a failure of the graph pair (p, f(p))."""
    fp = f(p)
    if kind == "G-f":
        return Violation(kind, f"{p.text()} precedes {w.text()} but the images do not",
                         {"pair": [p.text(), w.text()],
                          "images": [fp.text(), f(w).text()]})
    if kind == "L-f":
        return Violation(kind, f"{p.text()} and {w.text()} share a moment but "
                               f"their images do not",
                         {"pair": [p.text(), w.text()],
                          "images": [fp.text(), f(w).text()]})
    if kind == "F-f":
        return Violation(kind, f"no history of {p.text()} tracks target history "
                               f"{w!r} of {fp.text()}",
                         {"point": p.text(), "target_history": w})
    if kind == "F-b":
        return Violation(kind, f"history {w!r} of {p.text()} is tracked by no "
                               f"history of {fp.text()}",
                         {"point": p.text(), "history": w})
    if kind == "PV":
        return Violation(kind, f"{p.text()} and its image {fp.text()} disagree on "
                               f"atom {w!r}",
                         {"point": p.text(), "atom": w})
    message = {
        "G-b": f"{w.text()} succeeds the image of {p.text()} but no successor "
               f"of {p.text()} maps onto it",
        "H-b": f"{w.text()} precedes the image of {p.text()} but no predecessor "
               f"of {p.text()} maps onto it",
        "L-b": f"{w.text()} shares a moment with the image of {p.text()} but is "
               f"not the image of any point at {p.moment!r}",
    }[kind]
    return Violation(kind, message, {"point": p.text(), "target": w.text()})


def _map_failures(src: Frame, dst: Frame, images: list[int], mode: str):
    """Per condition in ``conditions_for(mode)``, the first failing source
    point index and its witness, for the map ``images`` (per source point,
    the index of its image), checked as its graph."""
    rel, conv = _relation_masks(len(images), len(dst.point_list), enumerate(images))
    for kind in conditions_for(mode):
        for i, j in enumerate(images):
            w = _first_failure(kind, src, dst, i, j, rel, conv)
            if w is not None:
                yield kind, i, w
                break


def _valuation_failures(src: Model, dst: Model, images: list[int]):
    """PV at the first source point whose image disagrees on an atom, with
    the first such atom."""
    for i, j in enumerate(images):
        atom = _pv_failure(src, dst, i, j)
        if atom is not None:
            yield "PV", i, atom
            return


def frame_pmorphism_failures(src: Frame, dst: Frame, f: PointMap,
                             mode: str = "LF") -> Iterator[tuple[str, int, object]]:
    """The failures of ``f`` as a p-morphism, as raw ``(kind, i, witness)``
    in reporting order: per condition of ``conditions_for(mode)``, the first
    failing source point index ``i`` and its witness (a point, or a
    history's leaf for F-f and F-b).

    The mode and the map are validated by this call; the conditions are
    tested as the iterator is read, so ``next(failures, None) is None``
    decides the map at its first failure."""
    check_mode(mode)
    return _map_failures(src, dst, _images(src, dst, f), mode)


def model_pmorphism_failures(src: Model, dst: Model, f: PointMap,
                             mode: str = "LF") -> Iterator[tuple[str, int, object]]:
    """The failures of :func:`frame_pmorphism_failures`, then valuation
    agreement (PV): the first source point whose image disagrees, with the
    first such atom as witness."""
    check_mode(mode)
    images = _images(src.frame, dst.frame, f)
    return chain(_map_failures(src.frame, dst.frame, images, mode),
                 _valuation_failures(src, dst, images))


def _report(src: Frame, f: PointMap, failures) -> Report:
    return Report(tuple(_violation(kind, src.point_list[i], f, w)
                        for kind, i, w in failures))


def check_frame_pmorphism(src: Frame, dst: Frame, f: PointMap,
                          mode: str = "LF") -> Report:
    """Per-condition check; at most one minimal witness per failed condition:
    :func:`frame_pmorphism_failures`, formatted."""
    return _report(src, f, frame_pmorphism_failures(src, dst, f, mode))


def check_model_pmorphism(src: Model, dst: Model, f: PointMap,
                          mode: str = "LF") -> Report:
    """Frame conditions plus valuation agreement (PV) on every atom in use:
    :func:`model_pmorphism_failures`, formatted."""
    return _report(src.frame, f, model_pmorphism_failures(src, dst, f, mode))


def check_set_characterization(src: Frame, dst: Frame, f: PointMap) -> bool:
    """Image of each relational neighborhood equals the neighborhood of the image.

    Checked for the strict order, its converse, and the same-moment relation;
    an independent characterization of the mode-L map conditions.
    """
    _require_total(src, dst, f)
    src_pts = points(src)
    dst_pts = points(dst)

    relations = (
        lambda frame, a, b: precedes(frame, a, b),
        lambda frame, a, b: precedes(frame, b, a),
        same_moment,
    )
    for p in src_pts:
        for rel in relations:
            image_side = {f(q) for q in src_pts if rel(src, p, q)}
            target_side = {q2 for q2 in dst_pts if rel(dst, f(p), q2)}
            if image_side != target_side:
                return False
    return True


def check_search(src: Frame, dst: Frame, mode: str, bound: int | None = None) -> None:
    """Raise for an unknown mode, a malformed bound, or a side with more points
    than the bound (``limits.DEFAULT_SEARCH_BOUND`` when None)."""
    check_mode(mode)
    bound = limits.resolve(bound, limits.DEFAULT_SEARCH_BOUND)
    n, m = len(src.point_list), len(dst.point_list)
    if n > bound or m > bound:
        raise BoundExceededError(
            f"search over {n} -> {m} points exceeds the bound of {bound} "
            f"points per side")


def search_pmorphisms(src: Frame, dst: Frame, mode: str = "LF",
                      surjective: bool = False, bound: int | None = None):
    """Enumerate the total maps passing check_frame_pmorphism, in canonical order.

    Backtracks inside the greatest bisimulation of the frames under the
    empty valuation (``bisimulation._greatest``); ``_refine`` restores the
    fixpoint after each pick of a source point's image, tried in ascending
    order from its row.  A branch ends when a source point has no image
    left or, if ``surjective``, a target has no preimage left.  No map is
    lost: its graph is a bisimulation inside the relation, and ``_refine``
    deletes no pair of one (deletion is monotone).  Every map found is a
    p-morphism: at a leaf each row is one target and the graph is a
    fixpoint of the six G/H/L conditions; F-f and F-b follow by the theorem
    in the ``bisimulation`` docstring, so ``mode`` is only validated.  The
    checks of ``check_search`` run at the first ``next``.
    """
    check_search(src, dst, mode, bound)
    src_pts, dst_pts = src.point_list, dst.point_list
    rel, conv = _greatest(Model(src, {}), Model(dst, {}))

    def walk(i: int, rel: list[int], conv: list[int]):
        if 0 in rel or surjective and 0 in conv:
            return
        if i == len(rel):
            yield PointMap(dict(zip(src_pts, (dst_pts[row.bit_length() - 1]
                                              for row in rel))))
            return
        bit = 1 << i
        for c in range(len(conv)):
            if rel[i] >> c & 1:
                picked, picked_conv = rel.copy(), [mask & ~bit for mask in conv]
                picked[i] = 1 << c
                picked_conv[c] |= bit
                _refine(src, dst, picked, picked_conv)
                yield from walk(i + 1, picked, picked_conv)

    yield from walk(0, rel, conv)


def pullback_valuation(dst_valuation: dict[str, frozenset[Point]],
                       f: PointMap) -> dict[str, frozenset[Point]]:
    """Preimage valuation: a source point gets an atom iff its image has it.

    The resulting model pair satisfies condition PV by construction.
    """
    return {
        atom: frozenset(p for p, q in f.mapping.items() if q in pts)
        for atom, pts in dst_valuation.items()
    }
