import pytest
from hypothesis import assume, given, strategies as st

from itl.catalog import (
    catalog_frames, f1_model, frame_fork, frame_fork_split,
    random_valuation,
)
from itl.documents import resolve_point
from itl.errors import (
    BoundExceededError, InvalidBoundError, InvalidPointError, LanguageError,
)
from itl.formula import (
    BOX_G, BOX_H, BOX_L, WEAK_F, Program, corpus_program, enumerate_formulas, format_formula, parse,
    random_formula,
)
from itl.generate import INDIST_POLICIES, gen_random_model
from itl.semantics import (
    Evaluator, eval_hist, eval_rel, frame_sat, frame_valid, model_sat,
    model_valid,
)
from itl.structures import Frame, IndistFunction, Model, Point, Tree, points
from itl.suite import CORPUS_ATOMS, CORPUS_DEPTH, Battery
from oracles import naive_eval


# the catalogue's frames of at most 4 points
SMALL_FRAMES = {name: frame for name, frame in catalog_frames().items()
                if len(points(frame)) <= 4}


def fork_point(model_or_frame, moment, rep):
    frame = getattr(model_or_frame, "frame", model_or_frame)
    return resolve_point(frame, moment, rep)


# ---------------------------------------------------------------------------
# the separation example and other frozen cases
# ---------------------------------------------------------------------------

def test_f1_weak_vs_strong_future():
    model = f1_model()
    root = fork_point(model, "r", "a")
    for evaluate in (eval_hist, eval_rel):
        assert evaluate(model, root, parse("f p"))
        assert not evaluate(model, root, parse("F p"))
    # the oracle agrees
    assert naive_eval(model, root, parse("f p"))
    assert not naive_eval(model, root, parse("F p"))


def test_leaf_vacuity():
    model = f1_model()
    leaf = fork_point(model, "a", "a")
    assert eval_hist(model, leaf, parse("G q"))
    assert not eval_hist(model, leaf, parse("F q"))


def test_rel_successor_witness():
    model = f1_model()
    root = fork_point(model, "r", "a")
    assert not eval_rel(model, root, parse("G ~p"))


def test_rel_class_quantification():
    frame = frame_fork_split()
    ra = fork_point(frame, "r", "a")
    rb = fork_point(frame, "r", "b")
    model = Model(frame, {"p": frozenset({ra, rb})})
    assert eval_rel(model, ra, parse("L p"))
    assert eval_hist(model, ra, parse("L p"))
    thinner = Model(frame, {"p": frozenset({ra})})
    assert not eval_rel(thinner, ra, parse("L p"))


def test_past_vacuity_at_minimal_points():
    model = f1_model()
    root = fork_point(model, "r", "a")
    assert eval_hist(model, root, parse("H q"))
    assert eval_rel(model, root, parse("H q"))


def test_model_valid_tautology():
    model = f1_model()
    assert model_valid(model, parse("p | ~p"))


def test_model_sat_witnesses():
    model = f1_model()
    assert model_sat(model, parse("p")) == fork_point(model, "a", "a")
    assert not model_valid(model, parse("p"))
    assert model_sat(model, parse("F p")) is None


def test_eval_errors():
    model = f1_model()
    root = fork_point(model, "r", "a")
    with pytest.raises(LanguageError):
        eval_hist(model, root, parse("F p"), mode="L")
    foreign = Point("r", frozenset({"zz"}))
    with pytest.raises(InvalidPointError):
        eval_hist(model, foreign, parse("p"))
    with pytest.raises(InvalidPointError, match="^r/zz is not a point of the frame$"):
        Evaluator(Model(model.frame, {"p": frozenset({foreign})}))


def test_foreign_valuation_error_names_the_canonically_first_point():
    # a valuation's extension is a frozenset, whose order follows string
    # hashing; an iterator is read once, so the points after the first
    # foreign one are all that is left to compare
    frame = frame_fork()
    names = [c * 2 for c in "zyxwvu"]
    foreign = [Point(m, frozenset({m})) for m in names]
    with pytest.raises(InvalidPointError, match="^uu/uu is not a point of the frame$"):
        Evaluator(Model(frame, {"p": frozenset(foreign)}))
    with pytest.raises(InvalidPointError, match="^uu/uu is not a point of the frame$"):
        frame.mask_of(iter([*points(frame), *foreign]))


def test_extension_is_the_set_of_points_where_a_formula_holds():
    model = f1_model()
    ev = Evaluator(model)
    for text in ("p", "f p", "F p", "~p"):
        phi = parse(text)
        assert ev.extension(phi) == frozenset(
            p for p in points(model.frame) if eval_hist(model, p, phi))
    assert ev.extension(parse("p")) == {fork_point(model, "a", "a")}


# ---------------------------------------------------------------------------
# agreement with the brute-force oracle and between the two routes
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 20_000))
def test_both_routes_match_the_naive_oracle(seed):
    model = gen_random_model(seed, 1 + seed % 5, branching=3,
                             indist_policy="coarsened", n_atoms=2)
    phi = random_formula(seed, 3, ("p0", "p1"), mode="LF")
    for point in points(model.frame):
        expected = naive_eval(model, point, phi)
        assert eval_hist(model, point, phi) == expected
        assert eval_rel(model, point, phi) == expected


@given(seed=st.integers(0, 20_000))
def test_hist_equals_rel_on_random_models(seed):
    model = gen_random_model(seed, 1 + seed % 6, branching=3, n_atoms=2)
    phi = random_formula(seed + 1, 4, ("p0", "p1"), mode="L")
    hist = Evaluator(model, relational=False, mode="L")
    rel = Evaluator(model, relational=True, mode="L")
    assert hist.extension_mask(phi) == rel.extension_mask(phi)


@given(seed=st.integers(0, 10_000), policy=st.sampled_from(INDIST_POLICIES),
       n_atoms=st.integers(0, 2), mode=st.sampled_from(["L", "LF"]))
def test_the_one_off_helpers_answer_as_the_models_evaluators(seed, policy,
                                                             n_atoms, mode):
    model = gen_random_model(seed, 1 + seed % 8, branching=3,
                             indist_policy=policy, n_atoms=n_atoms)
    phi = random_formula(seed, 3, ("p0", "p1"), mode=mode)
    pts = points(model.frame)
    hist = [eval_hist(model, point, phi, mode) for point in pts]
    rel = [eval_rel(model, point, phi, mode) for point in pts]
    valid, sat = model_valid(model, phi, mode), model_sat(model, phi, mode)
    # each helper asked its question on a copy with a program of its own
    assert len(model.programs[mode]) == 0
    for relational, answers in ((False, hist), (True, rel)):
        ev = Evaluator(model, relational=relational, mode=mode)
        assert answers == [ev.holds(point, phi) for point in pts]
    mask = Evaluator(model, mode=mode).extension_mask(phi)
    assert valid == (mask == model.frame.full_mask)
    assert sat == (model.frame.points_of(mask & -mask) or [None])[0]


def test_the_one_off_helpers_check_mode_valuation_point_then_formula():
    model = f1_model()
    root = fork_point(model, "r", "a")
    foreign = Point("r", frozenset({"zz"}))
    broken = Model(model.frame, {"p": frozenset({foreign})})
    phi = parse("F p")
    for helper in (eval_hist, eval_rel):
        with pytest.raises(ValueError, match="mode"):
            helper(broken, foreign, phi, mode="X")
        with pytest.raises(InvalidPointError, match="^r/zz is not a point of the frame$"):
            helper(broken, foreign, phi, mode="L")
        with pytest.raises(InvalidPointError, match="^r/zz is not a point of the model$"):
            helper(model, foreign, phi, mode="L")
        with pytest.raises(LanguageError):
            helper(model, root, phi, mode="L")


def test_abbreviation_theorems_on_f1():
    model = f1_model()
    for point in points(model.frame):
        for surface, expansion in (("P p", "~H ~p"), ("f p", "~G ~p"),
                                   ("M p", "~L ~p"), ("g p", "~F ~p")):
            assert eval_hist(model, point, parse(surface)) == \
                eval_hist(model, point, parse(expansion))


# ---------------------------------------------------------------------------
# frame validity
# ---------------------------------------------------------------------------

def test_frame_valid_tautology_everywhere():
    for name, frame in SMALL_FRAMES.items():
        assert frame_valid(frame, parse("G (p -> p)")), name


def test_class_box_is_reflexive():
    for name, frame in SMALL_FRAMES.items():
        assert frame_valid(frame, parse("L p -> p")), name


def test_atoms_do_not_spread_across_a_class():
    frame = frame_fork_split()
    assert not frame_valid(frame, parse("p -> L p"))
    found = frame_sat(frame, parse("p & ~L p"))
    assert found is not None
    valuation, witness = found
    assert witness in valuation["p"]


def test_frame_valid_bound():
    frame = catalog_frames()["wide"]  # 5 points
    phi = parse("p & q & r & s & t")  # 25 > 20
    with pytest.raises(BoundExceededError):
        frame_valid(frame, phi)
    with pytest.raises(BoundExceededError):
        frame_sat(frame, phi)


def test_frame_valid_bound_env_override(monkeypatch):
    frame = catalog_frames()["wide"]
    phi = parse("p & q & r & s & t")
    monkeypatch.setenv("ITL_MAX_ENUM", "25")
    assert not frame_valid(frame, phi)
    monkeypatch.setenv("ITL_MAX_ENUM", "10")
    with pytest.raises(BoundExceededError):
        frame_valid(frame, phi)
    # explicit argument beats the environment
    assert not frame_valid(frame, phi, max_enum=30)


@pytest.mark.parametrize("bound", [-1, 1.5, "3", False])
def test_frame_valid_rejects_malformed_bound(bound):
    with pytest.raises(InvalidBoundError):
        frame_valid(frame_fork(), parse("p"), max_enum=bound)


def test_frame_valid_no_atoms_edge_case():
    frame = frame_fork()
    assert frame_valid(frame, parse("G (p | ~p) & H (p | ~p)"))


@given(seed=st.integers(0, 300))
def test_frame_validity_implies_model_validity(seed):
    frames = list(SMALL_FRAMES.values())
    frame = frames[seed % len(frames)]
    phi = random_formula(seed, 2, ("p",), mode="L")
    if frame_valid(frame, phi):
        model = Model(frame, random_valuation(seed, frame, atoms=("p",)))
        assert model_valid(model, phi)


def test_points_without_successors_satisfy_all_boxes():
    model = f1_model()
    for point in points(model.frame):
        if not any(model.frame.rel_successor_masks[
                model.frame.point_index[point]] >> i & 1
                for i in range(len(points(model.frame)))):
            assert eval_hist(model, point, parse("G (p & ~p)"))


# ---------------------------------------------------------------------------
# the compiled program against the oracle
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 10_000), mode=st.sampled_from(["L", "LF"]))
def test_program_matches_naive_eval_on_larger_models(seed, mode):
    model = gen_random_model(seed, 16 + seed % 14, branching=2 + seed % 2,
                             indist_policy=("coarsened", "undividedness")[seed % 2],
                             n_atoms=2)
    pts = model.frame.point_list
    assume(20 <= len(pts) <= 40)
    formulas = [random_formula(seed * 7 + k, 6, ("p0", "p1"), mode=mode)
                for k in range(8)]
    program = Program(mode)
    roots = [program.add(phi) for phi in formulas]
    for relational in (False, True):
        masks = Evaluator(model, relational=relational, mode=mode).run(program)
        one_by_one = Evaluator(model, relational=relational, mode=mode)
        for phi, root in zip(formulas, roots):
            assert one_by_one.extension_mask(phi) == masks[root]
            for i, point in enumerate(pts):
                assert bool(masks[root] >> i & 1) == naive_eval(model, point, phi)


# ---------------------------------------------------------------------------
# several models in one evaluator, one lane each
# ---------------------------------------------------------------------------

@given(seeds=st.lists(st.tuples(st.integers(0, 10_000),
                                st.sampled_from(INDIST_POLICIES)),
                      min_size=1, max_size=6),
       mode=st.sampled_from(["L", "LF"]))
def test_each_lane_is_its_own_models_evaluation(seeds, mode):
    # 0 to 2 atoms per model, so some lanes lack an atom the program reads
    models = [gen_random_model(seed, 1 + seed % 5, branching=2 + seed % 2,
                               indist_policy=policy, n_atoms=seed % 3)
              for seed, policy in seeds]
    program = Program(mode)
    for k in range(6):
        program.add(random_formula(seeds[0][0] * 7 + k, 4, ("p0", "p1"), mode=mode))
    for relational in (False, True):
        ev = Evaluator(*models, relational=relational, mode=mode)
        own = [Evaluator(model, relational=relational, mode=mode).run(program)
               for model in models]
        for k, mask in enumerate(ev.run(program)):
            assert ev.lanes(mask) == [masks[k] for masks in own]


def test_a_one_model_evaluator_holds_its_frames_own_tables():
    # shifting a table by 0 would copy each of its ints, and the copies add
    # up on large frames
    model = f1_model()
    frame = model.frame
    routes = {False: ("hist_future_masks", "hist_past_masks", "hist_class_masks"),
              True: ("rel_successor_masks", "rel_predecessor_masks",
                     "rel_same_moment_masks")}
    for relational, names in routes.items():
        modal = Evaluator(model, relational=relational)._modal
        for op, name in zip((BOX_G, BOX_H, BOX_L), names):
            assert modal[op].args[0] is getattr(frame, name)
        assert modal[WEAK_F].args[0] is frame.future_chains


def test_lanes_wider_than_the_int_string_limit_are_each_models_evaluation():
    # the kernels read each mask from a string of one digit per point; a
    # base-2 int() is exempt from the int-string digit limit (4,300 by
    # default), so a union of more points than that still evaluates
    model = gen_random_model(3, 100, branching=3, indist_policy="coarsened")
    lanes = 4301 // len(model.frame.point_list) + 1
    program = Program("LF")
    for k in range(6):
        program.add(random_formula(k, 4, ("p0", "p1"), mode="LF"))
    for text in ("G p0", "H p0", "L p0", "F p0", "f p1"):
        program.add(parse(text))
    for relational in (False, True):
        ev = Evaluator(*[model] * lanes, relational=relational)
        assert ev.offsets[-1] + len(model.frame.point_list) > 4300
        own = Evaluator(model, relational=relational).run(program)
        for k, mask in enumerate(ev.run(program)):
            assert ev.lanes(mask) == [own[k]] * lanes


def test_a_frame_of_no_points_evaluates_to_the_empty_mask():
    empty = Model(Frame(Tree((), ()), IndistFunction({})), {})
    for relational in (False, True):
        ev = Evaluator(empty, relational=relational)
        for text in ("G p", "H p", "L p", "F p", "~p"):
            assert ev.extension_mask(parse(text)) == 0


def test_a_many_model_evaluator_answers_no_one_model_question():
    model = f1_model()
    ev = Evaluator(model, model)
    assert ev.offsets == [0, len(model.frame.point_list)]
    for ask in (ev.extension_mask, ev.extension):
        with pytest.raises(ValueError, match="2 models"):
            ask(parse("p"))
    with pytest.raises(ValueError, match="2 models"):
        ev.holds(fork_point(model, "r", "a"), parse("p"))
    with pytest.raises(ValueError):
        Evaluator()


def test_corpus_program_slots_follow_enumeration_order():
    battery = Battery(seed=0)
    models = battery.battery_models[:3]
    for mode in ("L", "LF"):
        program = corpus_program(CORPUS_ATOMS, CORPUS_DEPTH, mode)
        corpus = enumerate_formulas(CORPUS_ATOMS, CORPUS_DEPTH, mode)
        assert len(program) == len(corpus)
        for model in models:
            model = Model(model.frame, {"p": model.valuation.get("p0", frozenset()),
                                        "q": model.valuation.get("p1", frozenset())})
            masks = Evaluator(model, mode=mode).run(program)
            ev = Evaluator(model, mode=mode)
            assert masks == [ev.extension_mask(phi) for phi in corpus]


def test_equal_subformulas_share_a_slot():
    program = Program("LF")
    a = program.add(parse("G (p & q) -> F p"))
    b = program.add(parse("G (p & q) -> F p"))
    assert a == b
    size = len(program)
    program.add(parse("~F p & G (p & q)"))
    assert len(program) == size + 1  # only the conjunction in the other order is new


def test_weak_future_rejected_in_mode_l_leaves_evaluator_usable():
    model = f1_model()
    ev = Evaluator(model, mode="L")
    with pytest.raises(LanguageError):
        ev.extension_mask(parse("G F p"))
    assert ev.extension_mask(parse("G p")) == \
        Evaluator(model, mode="L").extension_mask(parse("G p"))
    with pytest.raises(LanguageError):
        ev.run(corpus_program(("p",), 1, "LF"))


# ---------------------------------------------------------------------------
# one program per model and mode, shared by its one-model evaluators
# ---------------------------------------------------------------------------

def test_one_model_evaluators_share_their_models_program():
    model = gen_random_model(3, 40, branching=3, indist_policy="coarsened")
    formulas = [random_formula(k, 6, ("p0", "p1")) for k in range(100)]
    hist = Evaluator(model, relational=False)
    rel = Evaluator(model, relational=True)
    program = model.programs["LF"]
    assert hist._program is rel._program is Evaluator(model)._program is program
    assert Evaluator(model, mode="L")._program is model.programs["L"] is not program
    hist_masks = [hist.extension_mask(phi) for phi in formulas]
    size = len(program)
    rel_masks = [rel.extension_mask(phi) for phi in formulas]
    assert len(program) == size  # the rel evaluator compiled nothing
    # masks equal those of evaluators on a copy of the model, which has a
    # program of its own
    for relational, masks in ((False, hist_masks), (True, rel_masks)):
        own = Evaluator(Model(model.frame, model.valuation), relational=relational)
        assert own._program is not program
        assert masks == [own.extension_mask(phi) for phi in formulas]


def test_an_evaluator_runs_the_slots_its_siblings_added():
    model = f1_model()
    first, second = Evaluator(model), Evaluator(model, relational=True)
    first.extension_mask(parse("G p"))
    phi = parse("L p & F p")
    own = Evaluator(Model(model.frame, model.valuation), relational=True)
    assert second.extension_mask(phi) == own.extension_mask(phi)
    # the first evaluator catches up on the second's slots at its next call
    assert first.extension_mask(parse("p")) == model.frame.mask_of(model.valuation["p"])
    assert len(first._masks) == len(second._masks) == len(model.programs["LF"])


def test_mode_l_rejects_f_after_an_lf_sibling_compiled_it():
    model = f1_model()
    phi = parse("F p")
    Evaluator(model, mode="LF").extension_mask(phi)
    with pytest.raises(LanguageError):
        Evaluator(model, mode="L").extension_mask(phi)
    with pytest.raises(LanguageError):
        eval_hist(model, model.frame.point_list[0], phi, mode="L")


def test_a_multi_model_evaluator_keeps_a_program_of_its_own():
    model = f1_model()
    ev = Evaluator(model, model)
    assert ev._program is not model.programs["LF"]
    Evaluator(model).extension_mask(parse("G p"))
    assert len(ev._program) == 0


@pytest.mark.parametrize("text, shown", [
    ("~" * 100_000 + "p", "Not(sub=" * 100_000 + "Atom(name='p')" + ")" * 100_000),
    ("(" * 100_000 + "G p" + ")" * 100_000, "G(sub=Atom(name='p'))"),
], ids=["negations", "parentheses"])
def test_deeply_nested_formulas_parse_evaluate_and_print(text, shown):
    model = f1_model()
    point = fork_point(model, "r", "a")
    phi = parse(text)
    assert eval_hist(model, point, phi) == eval_rel(model, point, phi)
    assert parse(format_formula(phi)) == phi
    assert repr(phi) == shown
    program = Program()
    assert program.formula(program.parse(text)) == phi


def test_repr_is_the_dataclass_text():
    assert repr(parse("p & G q")) == \
        "And(left=Atom(name='p'), right=G(sub=Atom(name='q')))"
    assert repr(parse("~F H L p1")) == \
        "Not(sub=F(sub=H(sub=L(sub=Atom(name='p1')))))"


def test_language_error_comes_before_the_enumeration_bound():
    frame = catalog_frames()["wide"]  # 5 points
    phi = parse("F (p & q & r & s & t)")  # 25 > 20, and F is not in L
    with pytest.raises(BoundExceededError):
        frame_valid(frame, phi, mode="LF")
    for check in (frame_valid, frame_sat):
        with pytest.raises(LanguageError):
            check(frame, phi, mode="L")
        with pytest.raises(ValueError, match="mode must be one of"):
            check(frame, phi, mode="X")
