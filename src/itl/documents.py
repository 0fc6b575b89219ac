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

from .errors import DocumentError, InvalidPointError
from .formula import _is_atom_name
from .structures import (
    Frame, IndistFunction, Model, Point, Report, Tree, Violation,
    _invalid_atom, point_key, validate_frame,
)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise DocumentError(message)


def _string_list(value, label: str) -> list[str]:
    _expect(isinstance(value, list), f"{label} must be an array")
    for i, item in enumerate(value):
        _expect(isinstance(item, str), f"{label}[{i}] must be a string")
    return value


def _pair(value, label: str) -> tuple[str, str]:
    _expect(isinstance(value, list) and len(value) == 2,
            f"{label} must be a 2-element array")
    _expect(all(isinstance(x, str) for x in value),
            f"{label} must contain strings")
    return value[0], value[1]


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
    edges = tuple(_pair(e, f"edges[{i}]") for i, e in enumerate(data["edges"]))
    _expect(isinstance(data["indist"], dict), "indist must be an object")
    classes_at = {}
    for m, blocks in data["indist"].items():
        _expect(isinstance(blocks, list), f"indist[{m!r}] must be an array")
        classes_at[m] = tuple(
            tuple(_string_list(b, f"indist[{m!r}][{i}]"))
            for i, b in enumerate(blocks))
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
    block = frame.block_of.get((moment, rep))
    if block is None:
        raise InvalidPointError(
            f"{moment}/{rep} does not name a point: no class at {moment!r} "
            f"contains history {rep!r}")
    return Point(moment, block)


def parse_point(frame: Frame, text: str) -> Point:
    parts = text.split("/")
    if len(parts) != 2 or not all(parts):
        raise DocumentError(f"point must be written moment/classRep, got {text!r}")
    return resolve_point(frame, parts[0], parts[1])


def is_model_doc(data) -> bool:
    """Whether a document is a model (it has a valuation) rather than a frame."""
    _expect(isinstance(data, dict), "document must be an object")
    return "valuation" in data


def read_model_doc(data) -> tuple[Report, Model | None]:
    """Validate a model document and, when it is valid, build the model from
    the frame that was validated.  Shape problems raise DocumentError."""
    frame = frame_from_doc(data)
    report = validate_frame(frame)
    if not report.ok:
        return report, None
    valuation_data = data.get("valuation", {})
    _expect(isinstance(valuation_data, dict), "valuation must be an object")
    problems, valuation = [], {}
    for atom in sorted(valuation_data):
        if not _is_atom_name(atom):
            problems.append(_invalid_atom(atom))
        entries = valuation_data[atom]
        _expect(isinstance(entries, list), f"valuation[{atom!r}] must be an array")
        extension = set()
        for i, entry in enumerate(entries):
            moment, rep = _pair(entry, f"valuation[{atom!r}][{i}]")
            block = frame.block_of.get((moment, rep))
            if block is None:
                problems.append(Violation(
                    "valuation-invalid-point",
                    f"valuation of {atom!r} names {moment}/{rep}, which is not "
                    f"a point of the frame",
                    {"atom": atom, "point": f"{moment}/{rep}"}))
            else:
                extension.add(Point(moment, block))
        valuation[atom] = frozenset(extension)
    if problems:
        return Report(tuple(problems)), None
    return report, Model(frame, valuation)


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
    return read_model_doc(data)[0]


def validate_doc(data) -> Report:
    """Validate a model document, or a frame document if it has no valuation."""
    return validate_model_doc(data) if is_model_doc(data) else validate_frame_doc(data)


# ---------------------------------------------------------------------------
# maps and relations
# ---------------------------------------------------------------------------

def point_pairs_from_doc(data, src: Frame, dst: Frame, label: str):
    _expect(isinstance(data, list), f"{label} document must be an array")
    pairs = []
    for i, entry in enumerate(data):
        _expect(isinstance(entry, list) and len(entry) == 2,
                f"{label}[{i}] must be a 2-element array of points")
        a = _pair(entry[0], f"{label}[{i}][0]")
        b = _pair(entry[1], f"{label}[{i}][1]")
        try:
            pairs.append((resolve_point(src, *a), resolve_point(dst, *b)))
        except InvalidPointError as exc:
            raise DocumentError(f"{label}[{i}]: {exc}") from exc
    return pairs


def map_from_doc(data, src: Frame, dst: Frame):
    from .morphisms import PointMap

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


def relation_from_doc(data, src: Frame, dst: Frame):
    from .bisimulation import PointRelation

    pairs = point_pairs_from_doc(data, src, dst, "relation")
    return PointRelation(frozenset(pairs))


def relation_to_doc(relation) -> list:
    return _pairs_to_doc(relation.sorted_pairs())


def dumps(doc) -> str:
    """Deterministic serialization used by the CLI."""
    return json.dumps(doc, indent=2, sort_keys=True)
