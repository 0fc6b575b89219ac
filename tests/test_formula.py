import pytest
from hypothesis import given, strategies as st

from itl.errors import LanguageError, ParseError
from itl.formula import (
    And, Atom, F, G, H, L, Not, Program,
    atoms_of, contains_f, enumerate_formulas, format_formula, parse,
    random_formula, read_formulas,
)


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


@pytest.mark.parametrize("build", [format_formula, Program("LF").add],
                         ids=["format_formula", "Program.add"])
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
