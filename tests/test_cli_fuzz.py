"""Fuzzing the command line in-process: every subcommand, on random JSON
documents, point strings, formula text and small integer arguments.

Whatever the input, ``itl.cli.run`` must return 0, 1 or 2 without letting an
exception escape, and an exit 2 must say ``error:`` on stderr.  On generated
model pairs, the relation ``bisim-max`` prints must pass ``bisim-check``.
"""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from itl.cli import run
from itl.documents import frame_from_doc, model_to_doc
from itl.errors import ItlError
from itl.generate import gen_random_model
from itl.structures import validate_frame

DATA = Path(__file__).parent / "data"
NAMES = ("r", "a", "b", "c")
GENERATED_NAMES = ("m0", "m1", "m2", "m3", "m4")

names = st.sampled_from(NAMES)
small_ints = st.integers(-2, 4).map(str)

# any JSON value, and values shaped like frames, models, maps and relations,
# so that most documents get past the schema checks into validation
any_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=12)
pair = st.lists(names, min_size=2, max_size=2)
frame_like = st.fixed_dictionaries({
    "moments": st.lists(names, max_size=4),
    "edges": st.lists(pair, max_size=4),
    "indist": st.dictionaries(names, st.lists(st.lists(names, max_size=3),
                                              max_size=3), max_size=4),
})
model_like = st.builds(
    lambda frame, valuation: {**frame, "valuation": valuation}, frame_like,
    st.dictionaries(st.sampled_from(("p", "q", "F", "1")),
                    st.lists(pair, max_size=3), max_size=2))
generated = st.builds(
    lambda seed, n, policy: model_to_doc(gen_random_model(
        seed, n, branching=3, indist_policy=policy)),
    st.integers(0, 50), st.integers(1, 5),
    st.sampled_from(("undividedness", "coarsened")))
# a generated document with one top-level entry dropped or replaced
mutated = st.builds(
    lambda doc, key, value, drop: {k: v for k, v in doc.items() if k != key}
    if drop else {**doc, key: value},
    generated, st.sampled_from(("moments", "edges", "indist", "valuation")),
    any_json, st.booleans())
point_pair = st.lists(st.sampled_from(NAMES + GENERATED_NAMES),
                      min_size=2, max_size=2)
points_doc = st.lists(st.lists(point_pair, min_size=2, max_size=2), max_size=5)
known = st.sampled_from(sorted(str(p) for p in DATA.glob("*.json")))

point_text = st.builds(
    lambda pair: "/".join(pair), point_pair) | st.text(alphabet="rabcm0/ ", max_size=5)
# formula text: well-formed over the atoms of the documents, or any string
formula_text = st.recursive(
    st.sampled_from(("p", "q", "p0", "p1")),
    lambda sub: st.builds("{}{}".format, st.sampled_from(
        ("~", "G ", "H ", "L ", "F ", "P ", "f ", "M ", "g ")), sub)
    | st.builds("({} {} {})".format, sub, st.sampled_from(("&", "|", "->")), sub),
    max_leaves=6) | st.text(alphabet="pq0GHLFPMfg~&|->() ", max_size=12)
mode = st.sampled_from(("L", "LF"))


def point_texts(value) -> list[str]:
    """The points of a document that is a valid frame, else none."""
    try:
        frame = frame_from_doc(value)
    except ItlError:
        return []
    return [p.text() for p in frame.point_list] if validate_frame(frame).ok else []


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def invocations(draw, folder):
    values = []  # the documents drawn so far

    def doc(shape):
        """A path: a known data file, or a new file holding a drawn value."""
        kind = draw(st.integers(0, 6))
        if kind == 0:
            path = draw(known)
            values.append(json.loads(Path(path).read_text()))
            return path
        values.append(draw((generated, generated, generated, mutated, shape,
                            any_json)[kind - 1]))
        path = folder / f"doc{len(values)}.json"
        path.write_text(json.dumps(values[-1]))
        return str(path)

    def point(k):
        """A point of the k-th document drawn, or any point text."""
        named = point_texts(values[k])
        if named and draw(st.integers(0, 3)):
            return draw(st.sampled_from(named))
        return draw(point_text)

    command = draw(st.sampled_from((
        "validate", "histories", "points", "eval", "check", "pmorph",
        "pmorph-search", "bisim-check", "bisim-max", "distinguish", "gen",
        "suite")))
    argv = [command]
    if command in ("validate", "histories", "points"):
        argv.append(doc(frame_like | model_like))
    elif command == "eval":
        argv += [doc(model_like), "--at", point(0),
                 "--formula", draw(formula_text), "--mode", draw(mode),
                 "--semantics", draw(st.sampled_from(("hist", "rel", "both")))]
    elif command == "check":
        argv += [doc(frame_like | model_like), "--formula", draw(formula_text),
                 draw(st.sampled_from(("--sat", "--valid"))),
                 "--mode", draw(mode), "--max-enum", draw(small_ints)]
    elif command == "pmorph":
        argv += [doc(frame_like), doc(frame_like), doc(points_doc),
                 "--mode", draw(mode)]
        if draw(st.booleans()):
            argv += ["--model", doc(model_like), doc(model_like)]
    elif command == "pmorph-search":
        argv += [doc(frame_like), doc(frame_like), "--mode", draw(mode),
                 "--limit", draw(small_ints)]
        if draw(st.booleans()):
            argv.append("--surjective")
    elif command == "bisim-check":
        argv += [doc(model_like), doc(model_like), doc(points_doc),
                 "--anchors", point(0), point(1),
                 "--mode", draw(mode)]
    elif command == "bisim-max":
        argv += [doc(model_like), doc(model_like), "--mode", draw(mode)]
    elif command == "distinguish":
        argv += [doc(model_like), doc(model_like),
                 "--anchors", point(0), point(1),
                 "--mode", draw(mode),
                 "--max-depth", draw(st.integers(-1, 2).map(str))]
    elif command == "gen":
        argv += ["--seed", draw(small_ints), "--moments", draw(small_ints),
                 "--branching", draw(small_ints), "--atoms", draw(small_ints),
                 "--indist", draw(st.sampled_from(
                     ("undividedness", "coarsened", "other")))]
        if draw(st.booleans()):
            argv.append("--frame-only")
    else:
        # only the two fast criteria are ever valid; the other texts,
        # the empty one too, are not criterion lists
        argv += ["--seed", draw(small_ints), "--criteria", draw(
            st.sampled_from(("3", "10", "10,3"))
            | st.text(alphabet="0,x- ", max_size=4))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_every_input_ends_in_a_known_exit_code(tmp_path, data):
    argv = data.draw(invocations(tmp_path))
    code, _, err = cli(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert "error:" in err


side = st.tuples(st.integers(0, 20), st.integers(1, 5), st.integers(0, 2))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(src=side, dst=st.none() | side, mode=mode)
def test_bisim_max_relation_passes_bisim_check(tmp_path, src, dst, mode):
    # a model against itself always relates something; two drawn models
    # mostly relate nothing
    paths = []
    for k, (seed, moments, atoms) in enumerate((src, dst or src)):
        path = tmp_path / f"model{k}.json"
        path.write_text(json.dumps(model_to_doc(gen_random_model(
            seed, moments, branching=3, n_atoms=atoms))))
        paths.append(str(path))
    code, out, _ = cli(["bisim-max", *paths, "--mode", mode])
    assert code == 0
    pairs = json.loads(out)
    if not pairs:
        return
    relation = tmp_path / "relation.json"
    relation.write_text(out)
    for p, q in (pairs[0], pairs[-1]):
        code, out, _ = cli(["bisim-check", *paths, str(relation), "--anchors",
                            "/".join(p), "/".join(q), "--mode", mode])
        assert (code, out) == (0, "ok\n")
