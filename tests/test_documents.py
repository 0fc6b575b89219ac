import pytest

from itl.catalog import F1_MODEL_DOC, MALFORMED_DOCUMENTS, frame_fork
from itl.documents import (
    dumps, frame_from_doc, frame_to_doc, map_from_doc, map_to_doc,
    model_from_doc, model_to_doc, parse_point, relation_from_doc,
    relation_to_doc, resolve_point, validate_doc, validate_frame_doc,
    validate_model_doc,
)
from itl.errors import DocumentError, InvalidPointError
from itl.morphisms import PointMap
from itl.structures import Model, validate_model
from itl.bisimulation import PointRelation


def test_frame_roundtrip():
    doc = frame_to_doc(frame_fork())
    assert frame_to_doc(frame_from_doc(doc)) == doc
    assert doc["moments"] == ["a", "b", "r"]
    assert doc["indist"]["r"] == [["a", "b"]]


def test_model_roundtrip():
    model = model_from_doc(F1_MODEL_DOC)
    doc = model_to_doc(model)
    assert model_to_doc(model_from_doc(doc)) == doc
    assert doc["valuation"] == {"p": [["a", "a"]]}


def test_canonical_dump_is_insensitive_to_input_order():
    scrambled = {
        "moments": ["b", "r", "a"],
        "edges": [["r", "b"], ["r", "a"]],
        "indist": {"a": [["a"]], "r": [["b", "a"]], "b": [["b"]]},
    }
    assert frame_to_doc(frame_from_doc(scrambled)) == frame_to_doc(frame_fork())


def _fork_with(**parts):
    return {**frame_to_doc(frame_fork()), **parts}


SHAPE_ERRORS_OF_THE_FIRST_BAD_ELEMENT = [
    (_fork_with(moments=["a", 1, "b", 2]), r"moments\[1\] must be a string"),
    (_fork_with(edges=[["r", "a"], ["r"], [1, 2]]),
     r"edges\[1\] must be a 2-element array"),
    (_fork_with(edges=[["r", "a"], ["r", 1], ["r"]]),
     r"edges\[1\] must contain strings"),
    (_fork_with(indist={"a": [["a"]], "b": "x", "r": 5}),
     r"indist\['b'\] must be an array"),
    (_fork_with(indist={"a": [["a"], [1], [2]], "b": [[3]]}),
     r"indist\['a'\]\[1\]\[0\] must be a string"),
    (_fork_with(indist={"a": [["a"], "x"], "b": [5]}),
     r"indist\['a'\]\[1\] must be an array"),
    (_fork_with(valuation={"q": 5, "p": "x"}), r"valuation\['p'\] must be an array"),
    (_fork_with(valuation={"p": [["a", "a"], ["a"], [1, 2]], "q": [[3, 4]]}),
     r"valuation\['p'\]\[1\] must be a 2-element array"),
    (_fork_with(valuation={"p": [["a", "a"], [1, "a"], ["a", 2]]}),
     r"valuation\['p'\]\[1\] must contain strings"),
]


def test_shape_errors():
    with pytest.raises(DocumentError):
        frame_from_doc({"moments": ["a"], "edges": []})  # missing indist
    with pytest.raises(DocumentError):
        frame_from_doc({"moments": [1], "edges": [], "indist": {}})
    with pytest.raises(DocumentError):
        frame_from_doc({"moments": ["a"], "edges": [["a"]], "indist": {}})
    with pytest.raises(DocumentError):
        frame_from_doc({"moments": ["a"], "edges": [], "indist": {"a": "x"}})
    with pytest.raises(DocumentError):
        model_from_doc({**frame_to_doc(frame_fork()), "valuation": []})
    # two bad elements in one collection: the message names the first
    for doc, message in SHAPE_ERRORS_OF_THE_FIRST_BAD_ELEMENT:
        with pytest.raises(DocumentError, match=f"^{message}$"):
            validate_doc(doc)
    fork = frame_fork()
    with pytest.raises(DocumentError,
                       match=r"^map\[1\]\[0\] must be a 2-element array$"):
        map_from_doc([[["a", "a"], ["a", "a"]], [["a"], ["a", "a"]], 5], fork, fork)
    with pytest.raises(DocumentError, match=r"^map\[0\]: zz/a does not name a point"):
        map_from_doc([[["zz", "a"], ["a", "a"]], 5], fork, fork)


def test_model_from_doc_rejects_invalid():
    bad = dict(F1_MODEL_DOC)
    bad["valuation"] = {"p": [["r", "zz"]]}
    with pytest.raises(DocumentError):
        model_from_doc(bad)
    report = validate_model_doc(bad)
    assert report.kinds() == ("valuation-invalid-point",)
    cyclic = {**F1_MODEL_DOC, "edges": F1_MODEL_DOC["edges"] + [["a", "r"]]}
    with pytest.raises(DocumentError, match="^invalid frame: cycle: "):
        model_from_doc(cyclic)


@pytest.mark.parametrize("moment", ["a/x", "", "/"])
def test_moment_names_that_cannot_be_written_are_violations(moment):
    doc = {"moments": ["r", moment], "edges": [["r", moment]],
           "indist": {"r": [[moment]], moment: [[moment]]}}
    report = validate_frame_doc(doc)
    assert report.kinds() == ("moment-name",)
    assert report.violations[0].witness == {"moment": moment}


@pytest.mark.parametrize("atom", ["Bad Atom", "f", "g", "P", "", "1p", "p-q"])
def test_valuation_atoms_outside_the_grammar_are_violations(atom):
    doc = {**F1_MODEL_DOC, "valuation": {atom: [["a", "a"]], "zz": [["r", "zz"]]}}
    assert validate_model_doc(doc).kinds() == (
        "valuation-invalid-atom", "valuation-invalid-point")
    del doc["valuation"]["zz"]
    report = validate_model_doc(doc)
    assert report.kinds() == ("valuation-invalid-atom",)
    assert report.violations[0].witness == {"atom": atom}
    with pytest.raises(DocumentError, match="^invalid valuation: "):
        model_from_doc(doc)
    model = Model(frame_fork(), {atom: frozenset()})
    assert validate_model(model).kinds() == ("valuation-invalid-atom",)


@pytest.mark.parametrize("atom", ["p", "q0", "fg", "gamma", "a_B9"])
def test_valuation_atoms_of_the_grammar_pass(atom):
    assert validate_model_doc({**F1_MODEL_DOC, "valuation": {atom: []}}).ok
    assert validate_model(Model(frame_fork(), {atom: frozenset()})).ok


def test_valuation_violations_come_in_atom_then_document_order():
    # atoms sorted ("Bad Atom" < "p" < "q"), each atom's entries in document
    # order, a repeated entry reported again
    doc = {**F1_MODEL_DOC, "valuation": {
        "q": [["r", "zz"], ["a", "a"], ["zz", "a"], ["r", "zz"]],
        "Bad Atom": [["b", "b"]],
        "p": [["a", "a"]],
    }}
    report = validate_model_doc(doc)
    assert [(v.kind, v.witness) for v in report.violations] == [
        ("valuation-invalid-atom", {"atom": "Bad Atom"}),
        ("valuation-invalid-point", {"atom": "q", "point": "r/zz"}),
        ("valuation-invalid-point", {"atom": "q", "point": "zz/a"}),
        ("valuation-invalid-point", {"atom": "q", "point": "r/zz"}),
    ]
    assert report.violations[1].message == (
        "valuation of 'q' names r/zz, which is not a point of the frame")
    with pytest.raises(DocumentError, match="^invalid valuation: valuation names "
                                            "atom 'Bad Atom'"):
        model_from_doc(doc)


@pytest.mark.parametrize("entries, message", [
    ("nope", r"^valuation\['z'\] must be an array$"),
    ([["a", "a"], ["a"]], r"^valuation\['z'\]\[1\] must be a 2-element array$"),
])
def test_valuation_shape_errors_raise_after_earlier_violations(entries, message):
    doc = {**F1_MODEL_DOC, "valuation": {
        "z": entries, "Bad Atom": [], "p": [["r", "zz"]]}}
    with pytest.raises(DocumentError, match=message):
        validate_model_doc(doc)
    with pytest.raises(DocumentError, match=message):
        model_from_doc(doc)


def test_valuation_entries_resolve_once_per_point():
    # r/b names the class {a, b} at r, as r/a does; repeats collapse
    doc = {**F1_MODEL_DOC, "valuation": {
        "q": [["a", "a"], ["r", "b"], ["a", "a"], ["r", "a"]], "p": []}}
    model = model_from_doc(doc)
    assert model.valuation == {
        "p": frozenset(),
        "q": frozenset({resolve_point(model.frame, "a", "a"),
                        resolve_point(model.frame, "r", "a")}),
    }
    assert model_to_doc(model)["valuation"] == {
        "p": [], "q": [["a", "a"], ["r", "a"]]}


@pytest.mark.parametrize("name,kind,doc", MALFORMED_DOCUMENTS,
                         ids=[n for n, _, _ in MALFORMED_DOCUMENTS])
def test_validate_doc_dispatches_on_the_valuation(name, kind, doc):
    by_kind = validate_model_doc if "valuation" in doc else validate_frame_doc
    assert validate_doc(doc).to_doc() == by_kind(doc).to_doc()
    frame_doc = {k: v for k, v in doc.items() if k != "valuation"}
    assert validate_doc(frame_doc).to_doc() == validate_frame_doc(frame_doc).to_doc()


@pytest.mark.parametrize("data", [None, [], "x", 3])
def test_validate_doc_rejects_non_objects(data):
    with pytest.raises(DocumentError, match="^document must be an object$"):
        validate_doc(data)


def test_point_parsing():
    fork = frame_fork()
    assert parse_point(fork, "r/b").block == frozenset({"a", "b"})
    assert parse_point(fork, "r/a") == resolve_point(fork, "r", "a")
    with pytest.raises(DocumentError):
        parse_point(fork, "r")
    with pytest.raises(InvalidPointError):
        parse_point(fork, "r/zz")


def test_map_document_roundtrip():
    fork = frame_fork()
    f = PointMap({p: p for p in fork.point_list})
    doc = map_to_doc(f)
    assert map_to_doc(map_from_doc(doc, fork, fork)) == doc


def test_map_document_rejects_conflicting_images():
    fork = frame_fork()
    doc = [[["r", "a"], ["r", "a"]], [["r", "b"], ["a", "a"]]]
    with pytest.raises(DocumentError):
        map_from_doc(doc, fork, fork)


def test_relation_document_roundtrip():
    fork = frame_fork()
    rel = PointRelation(frozenset((p, p) for p in fork.point_list))
    doc = relation_to_doc(rel)
    assert relation_to_doc(relation_from_doc(doc, fork, fork)) == doc


def test_malformed_corpus_has_twenty_distinct_documents():
    assert len(MALFORMED_DOCUMENTS) == 20
    names = [name for name, _, _ in MALFORMED_DOCUMENTS]
    assert len(set(names)) == 20


@pytest.mark.parametrize("name,kind,doc", MALFORMED_DOCUMENTS,
                         ids=[n for n, _, _ in MALFORMED_DOCUMENTS])
def test_malformed_corpus_expected_violation(name, kind, doc):
    if "valuation" in doc:
        report = validate_model_doc(doc)
    else:
        report = validate_frame_doc(doc)
    assert not report.ok
    assert kind in report.kinds()


def test_dumps_is_deterministic():
    doc = frame_to_doc(frame_fork())
    assert dumps(doc) == dumps(frame_to_doc(frame_fork()))
