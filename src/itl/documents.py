"""JSON document formats.

Frame document::

    {"moments": ["r", "a"], "edges": [["r", "a"]],
     "indist": {"r": [["a"]], "a": [["a"]]}}

A model document adds ``"valuation"``: an object mapping atom names to arrays
of 2-arrays ``[moment, classRep]``.  Point-map and point-relation documents
are arrays of 2-arrays of such point pairs.  In CLI arguments a point is
written ``moment/classRep``.

Shape problems raise DocumentError; invariant problems are reported as
violations by the validate_*_doc functions.
"""

from __future__ import annotations

import json
from itertools import chain, repeat

from .bisimulation import PointRelation
from .errors import DocumentError, InvalidPointError
from .formula import _is_atom_name
from .morphisms import PointMap
from .structures import (
    Frame, IndistFunction, Model, Point, Report, Tree, Violation,
    _invalid_atom, point_key, validate_frame,
)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise DocumentError(message)


# Each collection's shape is decided by whole-collection type tests; the
# element-by-element checks, which name the first bad element, run only
# when a test fails.

def _all(values, cls) -> bool:
    return all(map(isinstance, values, repeat(cls)))


def _string_list(value, label: str) -> list[str]:
    _expect(isinstance(value, list), f"{label} must be an array")
    if not _all(value, str):
        for i, item in enumerate(value):
            _expect(isinstance(item, str), f"{label}[{i}] must be a string")
    return value


def _pair(value, label: str) -> tuple[str, str]:
    _expect(isinstance(value, list) and len(value) == 2,
            f"{label} must be a 2-element array")
    _expect(all(isinstance(x, str) for x in value),
            f"{label} must contain strings")
    return value[0], value[1]


def _are_string_lists(values) -> bool:
    """Whether every value is an array of strings."""
    return _all(values, list) and _all(chain.from_iterable(values), str)


def _are_pairs(values) -> bool:
    """Whether every value is a 2-element array of strings."""
    return _are_string_lists(values) and set(map(len, values)) <= {2}


def _pairs(entries: list, label: str) -> list[tuple[str, str]]:
    if not _are_pairs(entries):
        for i, entry in enumerate(entries):
            _pair(entry, f"{label}[{i}]")
    return list(map(tuple, entries))


# ---------------------------------------------------------------------------
# frames and models
# ---------------------------------------------------------------------------

def frame_from_doc(data) -> Frame:
    """Build a frame from a document; checks shape only, not invariants."""
    _expect(isinstance(data, dict), "frame document must be an object")
    for key in ("moments", "edges", "indist"):
        _expect(key in data, f"frame document lacks {key!r}")
    moments = tuple(_string_list(data["moments"], "moments"))
    _expect(isinstance(data["edges"], list), "edges must be an array")
    edges = tuple(_pairs(data["edges"], "edges"))
    indist = data["indist"]
    _expect(isinstance(indist, dict), "indist must be an object")
    partitions = indist.values()
    if not (_all(partitions, list)
            and _are_string_lists(list(chain.from_iterable(partitions)))):
        for m, blocks in indist.items():
            _expect(isinstance(blocks, list), f"indist[{m!r}] must be an array")
            for i, b in enumerate(blocks):
                _string_list(b, f"indist[{m!r}][{i}]")
    classes_at = {m: tuple(map(tuple, blocks)) for m, blocks in indist.items()}
    return Frame(Tree(moments, edges), IndistFunction(classes_at))


def frame_to_doc(frame: Frame) -> dict:
    """Canonical document: sorted moments/edges, classes sorted by representative."""
    indist = {
        m: [sorted(b) for b in frame.blocks_at[m]]
        for m in sorted(frame.tree.moment_set)
    }
    return {
        "moments": sorted(frame.tree.moment_set),
        "edges": sorted([list(e) for e in set(frame.tree.edges)]),
        "indist": indist,
    }


def resolve_point(frame: Frame, moment: str, rep: str) -> Point:
    """The point of the frame named by a moment and any member of its class."""
    i = frame.index_at(moment, rep)
    if i is None:
        raise InvalidPointError(
            f"{moment}/{rep} does not name a point: no class at {moment!r} "
            f"contains history {rep!r}")
    return frame.point_list[i]


def parse_point(frame: Frame, text: str) -> Point:
    parts = text.split("/")
    if len(parts) != 2 or not all(parts):
        raise DocumentError(f"point must be written moment/classRep, got {text!r}")
    return resolve_point(frame, parts[0], parts[1])


def is_model_doc(data) -> bool:
    """Whether a document is a model (it has a valuation) rather than a frame."""
    _expect(isinstance(data, dict), "document must be an object")
    return "valuation" in data


def _check_model_doc(data) -> tuple[Report, Frame | None, dict[str, set[int]]]:
    """Validate a model document: its report and, when it is valid, its
    frame and per atom the indices of the points of its extension.  Shape
    problems raise DocumentError."""
    frame = frame_from_doc(data)
    report = validate_frame(frame)
    if not report.ok:
        return report, None, {}
    valuation_data = data.get("valuation", {})
    _expect(isinstance(valuation_data, dict), "valuation must be an object")
    atoms = sorted(valuation_data)
    entry_lists = valuation_data.values()
    if not (_all(entry_lists, list)
            and _are_pairs(list(chain.from_iterable(entry_lists)))):
        for atom in atoms:
            entries = valuation_data[atom]
            _expect(isinstance(entries, list), f"valuation[{atom!r}] must be an array")
            _pairs(entries, f"valuation[{atom!r}]")
    problems, extensions = [], {}
    for atom in atoms:
        if not _is_atom_name(atom):
            problems.append(_invalid_atom(atom))
        extension = extensions[atom] = set()
        for moment, rep in valuation_data[atom]:
            i = frame.index_at(moment, rep)
            if i is None:
                problems.append(Violation(
                    "valuation-invalid-point",
                    f"valuation of {atom!r} names {moment}/{rep}, which is not "
                    f"a point of the frame",
                    {"atom": atom, "point": f"{moment}/{rep}"}))
            else:
                extension.add(i)
    if problems:
        return Report(tuple(problems)), None, {}
    return report, frame, extensions


def read_model_doc(data) -> tuple[Report, Model | None]:
    """Validate a model document and, when it is valid, build the model from
    the frame that was validated.  Shape problems raise DocumentError."""
    report, frame, extensions = _check_model_doc(data)
    if frame is None:
        return report, None
    pts = frame.point_list
    return report, Model(frame, {atom: frozenset(map(pts.__getitem__, extension))
                                 for atom, extension in extensions.items()})


def model_from_doc(data) -> Model:
    """Build a model; raises DocumentError if the frame is invalid or a
    valuation entry does not resolve to a point."""
    report, model = read_model_doc(data)
    if model is None:
        first = report.violations[0]
        if first.kind.startswith("valuation-"):
            raise DocumentError(f"invalid valuation: {first.message}")
        raise DocumentError(f"invalid frame: {first.kind}: {first.message}")
    return model


def model_to_doc(model: Model) -> dict:
    doc = frame_to_doc(model.frame)
    doc["valuation"] = {
        atom: [[p.moment, p.class_rep]
               for p in sorted(model.valuation[atom], key=point_key)]
        for atom in sorted(model.valuation)
    }
    return doc


def validate_frame_doc(data) -> Report:
    """Shape-check (raising DocumentError) then invariant-check a frame document."""
    return validate_frame(frame_from_doc(data))


def validate_model_doc(data) -> Report:
    """Like validate_frame_doc, plus valuation points must resolve."""
    return _check_model_doc(data)[0]


def validate_doc(data) -> Report:
    """Validate a model document, or a frame document if it has no valuation."""
    return validate_model_doc(data) if is_model_doc(data) else validate_frame_doc(data)


# ---------------------------------------------------------------------------
# maps and relations
# ---------------------------------------------------------------------------

def point_pairs_from_doc(data, src: Frame, dst: Frame, label: str):
    _expect(isinstance(data, list), f"{label} document must be an array")
    shaped = (_all(data, list) and set(map(len, data)) <= {2}
              and _are_pairs(list(chain.from_iterable(data))))
    pairs = []
    for i, entry in enumerate(data):
        if not shaped:
            _expect(isinstance(entry, list) and len(entry) == 2,
                    f"{label}[{i}] must be a 2-element array of points")
            _pair(entry[0], f"{label}[{i}][0]")
            _pair(entry[1], f"{label}[{i}][1]")
        (pm, pr), (qm, qr) = entry
        try:
            pairs.append((resolve_point(src, pm, pr), resolve_point(dst, qm, qr)))
        except InvalidPointError as exc:
            raise DocumentError(f"{label}[{i}]: {exc}") from exc
    return pairs


def map_from_doc(data, src: Frame, dst: Frame) -> PointMap:
    pairs = point_pairs_from_doc(data, src, dst, "map")
    mapping = {}
    for p, q in pairs:
        if p in mapping and mapping[p] != q:
            raise DocumentError(
                f"map sends {p.text()} to both {mapping[p].text()} and {q.text()}")
        mapping[p] = q
    return PointMap(mapping)


def _pairs_to_doc(pairs) -> list:
    return [[[p.moment, p.class_rep], [q.moment, q.class_rep]] for p, q in pairs]


def map_to_doc(point_map) -> list:
    return _pairs_to_doc(sorted(point_map.mapping.items(),
                                key=lambda pq: point_key(pq[0])))


def relation_from_doc(data, src: Frame, dst: Frame) -> PointRelation:
    pairs = point_pairs_from_doc(data, src, dst, "relation")
    return PointRelation(frozenset(pairs))


def relation_to_doc(relation) -> list:
    return _pairs_to_doc(relation.sorted_pairs())


def dumps(doc) -> str:
    """Deterministic serialization used by the CLI."""
    return json.dumps(doc, indent=2, sort_keys=True)
