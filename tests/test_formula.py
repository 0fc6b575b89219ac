from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, strategies as st

from itl.errors import LanguageError, ParseError
from itl.formula import (
    AND, ATOM, MODES, And, Atom, F, Formula, G, H, L, Not, Program, _emit_by_depth,
    atoms_of, contains_f, corpus_program, corpus_size, enumerate_formulas,
    format_formula, parse, random_formula, read_formulas,
)

from oracles import naive_emit_by_depth


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_unary():
    assert parse("G p") == G(Atom("p"))


def test_parse_past_dual_desugars():
    assert parse("P p") == Not(H(Not(Atom("p"))))


def test_parse_precedence_unary_over_and():
    assert parse("f p & L q") == And(Not(G(Not(Atom("p")))), L(Atom("q")))


def test_parse_all_abbreviations():
    assert parse("f p") == Not(G(Not(Atom("p"))))
    assert parse("M p") == Not(L(Not(Atom("p"))))
    assert parse("g p") == Not(F(Not(Atom("p"))))
    assert parse("p | q") == Not(And(Not(Atom("p")), Not(Atom("q"))))
    assert parse("p -> q") == Not(And(Atom("p"), Not(Atom("q"))))


def test_implication_right_associative():
    assert parse("p -> q -> r") == parse("p -> (q -> r)")
    assert parse("p -> q -> r") != parse("(p -> q) -> r")


def test_disjunction_binds_looser_than_conjunction():
    assert parse("p | q & r") == parse("p | (q & r)")


def test_parens_override():
    assert parse("G (p & q)") == G(And(Atom("p"), Atom("q")))


def test_mode_l_rejects_weak_future():
    with pytest.raises(LanguageError) as err:
        parse("F p", mode="L")
    assert err.value.position == 0
    with pytest.raises(LanguageError):
        parse("p & g q", mode="L")
    # but both are fine in LF
    assert contains_f(parse("F p", mode="LF"))


def test_reserved_words_are_operators_not_atoms():
    assert parse("f x") == Not(G(Not(Atom("x"))))
    assert parse("fx") == Atom("fx")
    assert parse("gp & f q") == And(Atom("gp"), Not(G(Not(Atom("q")))))
    with pytest.raises(ParseError):
        parse("f")  # operator with no operand


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("(p & q")
    assert err.value.position == 6
    with pytest.raises(ParseError) as err:
        parse("p @ q")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse("p -q")
    assert err.value.position == 2
    for text in ("p q", "p )"):  # a token after a complete formula
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == 2
    with pytest.raises(ParseError):
        parse("X p")  # unknown uppercase operator


def test_atoms_of():
    assert atoms_of(parse("G p & (q -> p)")) == frozenset({"p", "q"})


def test_read_formulas_corpus_format():
    corpus = read_formulas(
        "# a comment line\n"
        "G p\n"
        "\n"
        "P q  # trailing comment\n")
    assert corpus == [G(Atom("p")), Not(H(Not(Atom("q"))))]
    assert read_formulas("") == []
    with pytest.raises(LanguageError):
        read_formulas("F p\n", mode="L")


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def test_format_examples():
    assert format_formula(G(Atom("p"))) == "G p"
    assert format_formula(And(Atom("p"), Atom("q"))) == "(p & q)"
    assert format_formula(Not(H(Not(Atom("p"))))) == "~H ~p"


def test_str_is_the_printed_formula():
    phi = parse("G p & ~H q")
    assert str(phi) == format_formula(phi) == "(G p & ~H q)"


def test_formula_equality():
    shared = G(Atom("p"))
    assert And(shared, shared) == And(G(Atom("p")), G(Atom("p")))
    assert And(shared, shared) != And(shared, H(Atom("p")))
    assert Atom("p") != "p"
    assert G(Atom("p")).__eq__("G p") is NotImplemented


P = Atom("p")
NODES = [P, Not(P), And(P, G(P)), G(P), H(P), L(P), F(P)]


@pytest.mark.parametrize("node", NODES, ids=lambda node: type(node).__name__)
def test_a_node_hashes_its_class_name_and_fields(node):
    values = tuple(getattr(node, field.name) for field in fields(node))
    assert hash(node) == hash((type(node).__name__,) + values)
    # the instance dict is the fields, in field order, then the hash
    assert list(vars(node)) == [field.name for field in fields(node)] + ["_hc"]


def test_nodes_build_by_field_name():
    assert Not(sub=P) == Not(P)
    assert And(left=P, right=Not(P)) == And(P, Not(P))
    assert Atom(name="p") == P
    assert G(sub=P) != H(sub=P)


@pytest.mark.parametrize("node", NODES, ids=lambda node: type(node).__name__)
def test_nodes_are_frozen(node):
    name = fields(node)[0].name
    before = dict(vars(node))
    with pytest.raises(FrozenInstanceError):
        setattr(node, name, P)
    with pytest.raises(FrozenInstanceError):
        node.extra = 1
    with pytest.raises(FrozenInstanceError):
        delattr(node, name)
    assert vars(node) == before


def test_a_node_of_a_non_formula_builds():
    # the constructors check nothing; the printer and the compiler reject it
    assert Not(None).sub is None
    assert Not(None) == Not(None)


@pytest.mark.parametrize(
    "build", [format_formula, Program("LF").add, atoms_of, contains_f],
    ids=["format_formula", "Program.add", "atoms_of", "contains_f"])
def test_a_non_formula_is_rejected(build):
    # not a string: the printer's stack also holds literal text
    with pytest.raises(TypeError, match="not a formula: None"):
        build(Not(None))
    # nor a string, though the printer's literal text is one
    with pytest.raises(TypeError, match="not a formula: 'p'"):
        build(Not("p"))


@given(seed=st.integers(0, 100_000))
def test_roundtrip_lf(seed):
    phi = random_formula(seed, 4, ("p", "q", "r"), mode="LF")
    assert parse(format_formula(phi), mode="LF") == phi


@given(seed=st.integers(0, 100_000))
def test_roundtrip_l(seed):
    phi = random_formula(seed, 4, ("p", "q"), mode="L")
    assert parse(format_formula(phi), mode="L") == phi


# surface text from the grammar: every operator, redundant parentheses and
# spacing, atoms that look like operator words
SURFACE = st.recursive(
    st.sampled_from(["p", "q", "fx", "gp", "r_1"]),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["~", "G ", "H ", "L", "F ", "P ", "f ", "M ", "g "]),
                  sub).map("".join),
        st.tuples(sub, st.sampled_from([" & ", "|", " -> ", "&"]), sub).map("".join),
        sub.map(lambda text: f"( {text})")),
    max_leaves=12)
# text that is mostly not a formula
NOISE = st.text(alphabet="pqfgGHLFPM~&|->() @X1_\t", max_size=16)


def parsed_or_raised(parse_text):
    """What ``parse_text()`` returns, or the type, position and message of
    the syntax error it raises."""
    try:
        return parse_text()
    except ParseError as err:
        return type(err), err.position, str(err)


@given(text=st.one_of(SURFACE, NOISE), mode=st.sampled_from(("L", "LF")))
def test_program_parse_is_the_slot_of_the_parsed_formula(text, mode):
    straight = Program(mode)
    got = parsed_or_raised(lambda: straight.parse(text))
    expected = parsed_or_raised(lambda: parse(text, mode))
    if isinstance(expected, tuple):
        assert got == expected
        return
    # equal formulas share a slot, so a second route adds no slot
    size = len(straight)
    assert straight.add(expected) == got
    assert len(straight) == size
    via_tree = Program(mode)
    slot = via_tree.add(expected)
    assert (via_tree.parse(text), len(via_tree)) == (slot, size)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_random_formula_depth_zero_is_atom():
    assert isinstance(random_formula(5, 0, ("p", "q")), Atom)


def test_random_formula_deterministic():
    a = random_formula(123, 4, ("p", "q"), mode="LF")
    b = random_formula(123, 4, ("p", "q"), mode="LF")
    assert a == b


@given(seed=st.integers(0, 10_000))
def test_random_formula_mode_l_never_uses_weak_future(seed):
    assert not contains_f(random_formula(seed, 4, ("p",), mode="L"))


def _depth(phi):
    if isinstance(phi, Atom):
        return 0
    if isinstance(phi, And):
        return 1 + max(_depth(phi.left), _depth(phi.right))
    return 1 + _depth(phi.sub)


@given(seed=st.integers(0, 10_000))
def test_random_formula_respects_depth(seed):
    assert _depth(random_formula(seed, 3, ("p", "q"))) <= 3


def test_random_formula_rejects_bad_arguments():
    with pytest.raises(ValueError):
        random_formula(1, 2, ())
    with pytest.raises(ValueError):
        random_formula(1, -1, ("p",))
    for max_depth in (True, 2.5):
        with pytest.raises(ValueError, match=f"got {max_depth!r}$"):
            random_formula(3, max_depth, ("p",))
    with pytest.raises(ValueError):
        random_formula(1, 2, ("p",), mode="X")


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------

def test_enumeration_counts():
    # one atom, mode L: a, then ~a Ga Ha La (a&a) at depth 1
    assert len(enumerate_formulas(("a",), 1, "L")) == 6
    assert len(enumerate_formulas(("a",), 2, "L")) == 6 + 4 * 5 + 5 * 5 + 2 * 5
    # the recurrence: N(d) = atoms + u*N(d-1) + N(d-1)^2
    n1 = len(enumerate_formulas(("p", "q"), 1, "LF"))
    assert n1 == 2 + 5 * 2 + 4
    n2 = len(enumerate_formulas(("p", "q"), 2, "LF"))
    assert n2 == 2 + 5 * n1 + n1 * n1
    n3 = len(enumerate_formulas(("p", "q"), 3, "L"))
    n2l = len(enumerate_formulas(("p", "q"), 2, "L"))
    assert n3 == 2 + 4 * n2l + n2l * n2l == 65534


def test_enumeration_has_no_duplicates_and_increases_by_depth():
    corpus = enumerate_formulas(("p",), 2, "L")
    assert len(set(corpus)) == len(corpus)
    depths = [_depth(phi) for phi in corpus]
    assert depths == sorted(depths)


def test_enumeration_shares_subformulas():
    corpus = enumerate_formulas(("p", "q"), 2, "LF")
    by_id = {id(phi) for phi in corpus}
    for phi in corpus:
        if isinstance(phi, And):
            assert id(phi.left) in by_id and id(phi.right) in by_id
        elif not isinstance(phi, Atom):
            assert id(phi.sub) in by_id


def test_enumeration_mode_l_excludes_weak_future():
    assert not any(contains_f(phi) for phi in enumerate_formulas(("p",), 3, "L"))


def program_state(program: Program):
    return (program.mode, bytes(program.ops), list(program.left),
            list(program.right), program.atoms, program.has_f)


def emitted(emit_by_depth, atoms, max_depth: int, mode: str, keep: int):
    """Drive an emitter as its callers do: after each batch, append every
    ``keep``-th slot to the level (1: every slot, as the corpus does; more:
    only some, as the distinguishing search does)."""
    program = Program(mode)
    batches = []
    for start, level in emit_by_depth(program, atoms, max_depth):
        batches.append((start, len(program), program.has_f))
        level.extend(range(start, len(program), keep))
    return batches, program_state(program)


@given(atoms=st.lists(st.sampled_from("pqr"), max_size=3),
       max_depth=st.integers(0, 3), mode=st.sampled_from(MODES),
       keep=st.integers(1, 4))
def test_batches_are_the_per_slot_batches(atoms, max_depth, mode, keep):
    assert (emitted(_emit_by_depth, atoms, max_depth, mode, keep)
            == emitted(naive_emit_by_depth, atoms, max_depth, mode, keep))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("max_depth", range(4))
@pytest.mark.parametrize("atoms", [("p",), ("p", "q"), ("q", "p", "r")])
def test_corpus_program_is_the_per_slot_corpus(atoms, max_depth, mode):
    _, state = emitted(naive_emit_by_depth, atoms, max_depth, mode, 1)
    assert program_state(corpus_program(atoms, max_depth, mode)) == state


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("atoms, max_depth", [
    (atoms, max_depth) for atoms in (("p",), ("p", "q"), ("p", "q", "r"))
    for max_depth in range(4) if (len(atoms), max_depth) != (3, 3)])
def test_corpus_size_counts_the_corpus(atoms, max_depth, mode):
    assert corpus_size(atoms, max_depth, mode) == len(corpus_program(
        atoms, max_depth, mode))


def fresh_corpus(atoms, max_depth: int, mode: str) -> Program:
    """``corpus_program``'s slots in a program of its own, with nothing
    decompiled yet."""
    program = Program(mode)
    for start, level in _emit_by_depth(program, atoms, max_depth):
        level.extend(range(start, len(program)))
    return program


def operands(program: Program, k: int) -> tuple[int, ...]:
    op = program.ops[k]
    return (() if op == ATOM else (program.left[k], program.right[k])
            if op == AND else (program.left[k],))


@given(data=st.data())
def test_formula_decompiles_one_slot(data):
    mode = data.draw(st.sampled_from(MODES))
    parsed = Program(mode)
    for text in data.draw(st.lists(SURFACE, min_size=1, max_size=6)):
        try:
            slot = parsed.parse(text)
        except LanguageError:
            continue
        assert parsed.formula(slot) == parse(text, mode)
    program = data.draw(st.sampled_from([
        fresh_corpus(("p", "q"), 2, mode), fresh_corpus(("p",), 3, mode)]))
    slots = data.draw(st.lists(st.integers(0, len(program) - 1), min_size=1,
                               max_size=8))
    # the first call decompiles exactly the slots its slot reads
    read, stack = set(), [slots[0]]
    while stack:
        k = stack.pop()
        read.add(k)
        stack += operands(program, k)
    program.formula(slots[0])
    assert set(program._formulas) == read
    for k in slots:
        phi = program.formula(k)
        assert program.formula(k) is phi
        subs = [getattr(phi, field.name) for field in fields(phi)]
        if program.ops[k] == ATOM:
            assert subs == [program.atoms[program.left[k]]]
        else:
            assert all(sub is program.formula(j)
                       for sub, j in zip(subs, operands(program, k), strict=True))


def chain(depth: int, bottom: Formula) -> Formula:
    """``x = And(x, x)``, ``depth`` times over ``bottom``: a formula of
    2**depth paths through ``depth + 1`` nodes."""
    for _ in range(depth):
        bottom = And(bottom, bottom)
    return bottom


def test_structural_questions_visit_a_shared_subformula_once():
    # a walk of every path would take 2**40 steps
    x = chain(40, P)
    assert (atoms_of(x), contains_f(x)) == (frozenset({"p"}), False)
    assert (atoms_of(F(x)), contains_f(F(x))) == (frozenset({"p"}), True)


def test_equality_compares_a_shared_pair_once():
    assert chain(40, P) == chain(40, Atom("p"))
    # CPython hashes -1 as -2, so these chains hash alike at every node and
    # differ only at the bottom
    assert hash(chain(40, Atom(-1))) == hash(chain(40, Atom(-2)))
    assert chain(40, Atom(-1)) != chain(40, Atom(-2))
    assert chain(40, P) != chain(40, Atom("q"))
