"""Golden tests for the command line; every example in the README runs here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import itl
from itl import generate
from itl.cli import _build_parser, run
from itl.limits import GEN_SIZE_BOUND
from itl.morphisms import conditions_for as morphism_conditions

DATA = Path(__file__).parent / "data"
FORK = str(DATA / "fork.frame.json")
F1 = str(DATA / "f1.model.json")
CYCLE = str(DATA / "cycle.frame.json")


def invoke(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().out


def test_validate_ok(capsys):
    code, out = invoke(capsys, "validate", FORK)
    assert (code, out) == (0, "ok\n")


def test_validate_violations(capsys):
    code, out = invoke(capsys, "validate", CYCLE)
    assert code == 1
    assert out.startswith("invalid\n")
    assert "cycle" in out


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _ = invoke(capsys, "validate", str(path))
    assert code == 2


@pytest.mark.parametrize("text", ["5", "null", "true", "[]"])
@pytest.mark.parametrize("command", ["validate", "check"])
def test_non_object_document_is_an_input_error(tmp_path, capsys, command, text):
    path = tmp_path / "scalar.json"
    path.write_text(text)
    extra = ["--formula", "p", "--sat"] if command == "check" else []
    code = run([command, str(path), *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code = run(["validate", str(path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {path} nests too deeply to read\n"


def test_validate_json_report(capsys):
    code, out = invoke(capsys, "validate", F1, "--json")
    assert code == 0
    assert json.loads(out) == {"ok": True, "violations": []}


def test_histories(capsys):
    code, out = invoke(capsys, "histories", FORK)
    assert code == 0
    assert out == "a: r < a\nb: r < b\n"


def test_points(capsys):
    code, out = invoke(capsys, "points", FORK)
    assert (code, out) == (0, "a/a\nb/b\nr/a\n")


def test_eval_separation_golden(capsys):
    code, out = invoke(capsys, "eval", F1, "--at", "r/a",
                       "--formula", "f p", "--semantics", "both")
    assert (code, out) == (0, "hist: true\nrel: true\n")
    code, out = invoke(capsys, "eval", F1, "--at", "r/a",
                       "--formula", "F p", "--semantics", "both")
    assert (code, out) == (1, "hist: false\nrel: false\n")


def test_eval_both_exits_2_when_the_semantics_disagree(monkeypatch, capsys):
    holds = itl.cli.Evaluator.holds

    def contrary(self, at, formula):
        return holds(self, at, formula) != self.relational

    monkeypatch.setattr(itl.cli.Evaluator, "holds", contrary)
    code = run(["eval", F1, "--at", "r/a", "--formula", "f p",
                "--semantics", "both"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "hist: true\nrel: false\n")
    assert "the two semantics disagree" in captured.err


def test_eval_default_semantics(capsys):
    code, out = invoke(capsys, "eval", F1, "--at", "a/a", "--formula", "p")
    assert (code, out) == (0, "hist: true\n")


def test_eval_mode_l_rejects_weak_future(capsys):
    code, _ = invoke(capsys, "eval", F1, "--at", "r/a",
                     "--formula", "F p", "--mode", "L")
    assert code == 2


def test_eval_deeply_nested_formula(capsys):
    code, out = invoke(capsys, "eval", F1, "--at", "r/a",
                       "--formula", "~" * 3001 + "p", "--semantics", "both")
    assert (code, out) == (0, "hist: true\nrel: true\n")


def test_eval_bad_point(capsys):
    code, _ = invoke(capsys, "eval", F1, "--at", "zz/a", "--formula", "p")
    assert code == 2


def test_check_model_sat(capsys):
    code, out = invoke(capsys, "check", F1, "--formula", "p", "--sat")
    assert (code, out) == (0, "sat a/a\n")
    code, out = invoke(capsys, "check", F1, "--formula", "F p", "--sat")
    assert (code, out) == (1, "unsat\n")


def test_check_model_valid(capsys):
    code, out = invoke(capsys, "check", F1, "--formula", "p | ~p", "--valid")
    assert (code, out) == (0, "valid\n")
    code, out = invoke(capsys, "check", F1, "--formula", "p", "--valid")
    assert (code, out) == (1, "invalid at b/b\n")


def test_check_frame_valid(capsys):
    code, out = invoke(capsys, "check", FORK, "--formula", "L p -> p",
                       "--valid")
    assert (code, out) == (0, "valid\n")
    code, out = invoke(capsys, "check", FORK, "--formula", "p -> G p",
                       "--valid")
    assert code == 1
    assert out.startswith("invalid at ")


def test_check_frame_sat(capsys):
    code, out = invoke(capsys, "check", FORK, "--formula", "F p", "--sat")
    assert code == 0
    assert out.startswith("sat ")


@pytest.mark.parametrize("bound, message", [
    ("-1", "error: the enumeration bound must be a nonnegative integer, got -1"),
    ("1.5", "usage:"),  # not an int: argparse rejects it
    ("x", "usage:"),
])
def test_check_rejects_malformed_max_enum(capsys, bound, message):
    code = run(["check", FORK, "--formula", "p", "--sat", "--max-enum", bound])
    assert code == 2
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("sat", ["--sat", "--valid"])
def test_check_rejects_negative_max_enum_on_models(capsys, sat):
    code = run(["check", F1, "--formula", "p", sat, "--max-enum", "-5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: the enumeration bound must be a nonnegative "
                            "integer, got -5\n")


def test_model_check_ignores_the_env_bound(monkeypatch, capsys):
    # a model has one valuation: nothing is enumerated, so no bound is read
    monkeypatch.setenv("ITL_MAX_ENUM", "x")
    assert invoke(capsys, "check", F1, "--formula", "p", "--sat") == (0, "sat a/a\n")
    assert invoke(capsys, "check", F1, "--formula", "p", "--sat",
                  "--max-enum", "0") == (0, "sat a/a\n")


@pytest.mark.parametrize("value", ["-1", "x", "1.5", "", "²"])
def test_check_rejects_malformed_env_bound(monkeypatch, capsys, value):
    monkeypatch.setenv("ITL_MAX_ENUM", value)
    code = run(["check", FORK, "--formula", "p", "--sat"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ITL_MAX_ENUM must be a nonnegative integer")


def test_check_bound_error(capsys):
    code, _ = invoke(capsys, "check", FORK, "--formula",
                     "a & b & c & d & e & f1 & g1", "--valid",
                     "--max-enum", "5")
    assert code == 2


def test_pmorph_and_search(tmp_path, capsys):
    chain = {"moments": ["r", "a"], "edges": [["r", "a"]],
             "indist": {"r": [["a"]], "a": [["a"]]}}
    chain_path = tmp_path / "chain.frame.json"
    chain_path.write_text(json.dumps(chain))
    collapse = [[["r", "a"], ["r", "a"]], [["a", "a"], ["a", "a"]],
                [["b", "b"], ["a", "a"]]]
    map_path = tmp_path / "collapse.map.json"
    map_path.write_text(json.dumps(collapse))

    code, out = invoke(capsys, "pmorph", FORK, str(chain_path), str(map_path))
    assert (code, out) == (0, "ok\n")

    code, out = invoke(capsys, "pmorph-search", FORK, str(chain_path),
                       "--surjective")
    assert code == 0
    assert out.endswith("found 1 p-morphism(s)\n")

    bad_map = [[["r", "a"], ["a", "a"]], [["a", "a"], ["a", "a"]],
               [["b", "b"], ["a", "a"]]]
    bad_path = tmp_path / "bad.map.json"
    bad_path.write_text(json.dumps(bad_map))
    code, out = invoke(capsys, "pmorph", FORK, str(chain_path), str(bad_path))
    assert code == 1
    assert "invalid" in out


def test_pmorph_with_models(tmp_path, capsys):
    chain = {"moments": ["r", "a"], "edges": [["r", "a"]],
             "indist": {"r": [["a"]], "a": [["a"]]}}
    chain_model = {**chain, "valuation": {"p": [["a", "a"]]}}
    fork_doc = json.loads(Path(FORK).read_text())
    fork_model = {**fork_doc,
                  "valuation": {"p": [["a", "a"], ["b", "b"]]}}
    paths = {}
    for name, doc in [("chain.frame", chain), ("chain.model", chain_model),
                      ("fork.model", fork_model)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    collapse = [[["r", "a"], ["r", "a"]], [["a", "a"], ["a", "a"]],
                [["b", "b"], ["a", "a"]]]
    map_path = tmp_path / "collapse.map.json"
    map_path.write_text(json.dumps(collapse))

    code, out = invoke(capsys, "pmorph", FORK, paths["chain.frame"],
                       str(map_path), "--model", paths["fork.model"],
                       paths["chain.model"])
    assert (code, out) == (0, "ok\n")


def test_bisim_commands(tmp_path, capsys):
    identity = [[["a", "a"], ["a", "a"]], [["b", "b"], ["b", "b"]],
                [["r", "a"], ["r", "a"]]]
    rel_path = tmp_path / "identity.rel.json"
    rel_path.write_text(json.dumps(identity))

    code, out = invoke(capsys, "bisim-check", F1, F1, str(rel_path),
                       "--anchors", "r/a", "r/a")
    assert (code, out) == (0, "ok\n")

    code, out = invoke(capsys, "bisim-max", F1, F1)
    assert code == 0
    assert json.loads(out) == identity


def test_distinguish(capsys):
    code, out = invoke(capsys, "distinguish", F1, F1,
                       "--anchors", "a/a", "b/b", "--max-depth", "2")
    assert (code, out) == (0, "p\n")
    code, out = invoke(capsys, "distinguish", F1, F1,
                       "--anchors", "r/a", "r/a", "--max-depth", "3")
    assert (code, out) == (1, "indistinguishable up to depth 3\n")


def test_distinguish_answers_related_anchors_from_the_fixpoint(
        tmp_path, capsys, monkeypatch):
    chain = {"moments": ["r", "a"], "edges": [["r", "a"]],
             "indist": {"r": [["a"]], "a": [["a"]]},
             "valuation": {"p": [["a", "a"]]}}
    fork = {**json.loads(Path(FORK).read_text()),
            "valuation": {"p": [["a", "a"], ["b", "b"]]}}
    paths = {}
    for name, doc in (("chain", chain), ("fork", fork)):
        paths[name] = str(tmp_path / f"{name}.model.json")
        Path(paths[name]).write_text(json.dumps(doc))

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran on related anchors")

    monkeypatch.setattr(itl.cli, "find_distinguishing_formula", no_search)
    related = [(F1, F1, "r/a", "r/a"), (F1, F1, "b/b", "b/b"),
               (paths["fork"], paths["chain"], "r/a", "r/a"),
               (paths["fork"], paths["chain"], "b/b", "a/a")]
    for src, dst, p, q in related:
        call = ["distinguish", src, dst, "--anchors", p, q]
        assert invoke(capsys, *call) == (1, "indistinguishable up to depth 4\n")
        for depth in ("0", "2"):
            code, out = invoke(capsys, *call, "--max-depth", depth)
            assert (code, out) == (1, f"indistinguishable up to depth {depth}\n")
            code, out = invoke(capsys, *call, "--max-depth", depth, "--json")
            assert code == 1
            assert json.loads(out) == {"formula": None, "max_depth": int(depth)}

    # anchors the fixpoint does not relate still reach the search, whether
    # it finds a formula or not
    searched = []

    def recording(*args, **kwargs):
        searched.append(args)
        return itl.bisimulation.find_distinguishing_formula(*args, **kwargs)

    monkeypatch.setattr(itl.cli, "find_distinguishing_formula", recording)
    code, out = invoke(capsys, "distinguish", F1, F1,
                       "--anchors", "a/a", "b/b", "--max-depth", "2")
    assert (code, out, len(searched)) == (0, "p\n", 1)
    code, out = invoke(capsys, "distinguish", F1, F1,
                       "--anchors", "r/a", "b/b", "--max-depth", "0")
    assert (code, out, len(searched)) == (1, "indistinguishable up to depth 0\n", 2)


def test_distinguish_finds_a_third_atom(tmp_path, capsys):
    paths = []
    for name, r in (("with_r", [["a", "a"]]), ("without_r", [])):
        path = tmp_path / f"{name}.model.json"
        path.write_text(json.dumps({
            "moments": ["a"], "edges": [], "indist": {"a": [["a"]]},
            "valuation": {"p": [], "q": [], "r": r}}))
        paths.append(str(path))
    code, out = invoke(capsys, "bisim-max", *paths)
    assert (code, json.loads(out)) == (0, [])
    code, out = invoke(capsys, "distinguish", *paths, "--anchors", "a/a", "a/a")
    assert (code, out) == (0, "r\n")


def test_distinguish_finds_a_third_atom_under_an_operator(tmp_path, capsys):
    paths = []
    for name, r in (("with_r", [["a", "a"]]), ("without_r", [])):
        path = tmp_path / f"{name}.model.json"
        path.write_text(json.dumps({
            "moments": ["r", "a"], "edges": [["r", "a"]],
            "indist": {"r": [["a"]], "a": [["a"]]},
            "valuation": {"p": [], "q": [], "r": r}}))
        paths.append(str(path))
    code, out = invoke(capsys, "distinguish", *paths, "--anchors", "r/a", "r/a")
    assert (code, out) == (0, "G r\n")


def test_unwritable_names_are_violations(tmp_path, capsys):
    frame = tmp_path / "slash.frame.json"
    frame.write_text(json.dumps({
        "moments": ["r", "a/x"], "edges": [["r", "a/x"]],
        "indist": {"r": [["a/x"]], "a/x": [["a/x"]]}}))
    code, out = invoke(capsys, "validate", str(frame))
    assert code == 1 and "moment-name" in out
    code = run(["points", str(frame)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "moment-name" in captured.err

    model = tmp_path / "bad_atom.model.json"
    model.write_text(json.dumps({**json.loads(Path(F1).read_text()),
                                 "valuation": {"Bad Atom": [["a", "a"]]}}))
    code, out = invoke(capsys, "validate", str(model))
    assert code == 1 and "valuation-invalid-atom" in out
    code = run(["distinguish", str(model), str(model), "--anchors", "a/a", "b/b"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "valuation-invalid-atom" in captured.err


@pytest.mark.parametrize("command", [
    ["pmorph-search", FORK, FORK, "--limit", "-3"],
    ["distinguish", F1, F1, "--anchors", "r/a", "r/a", "--max-depth", "-1"],
    ["gen", "--seed", "1", "--moments", "2", "--atoms", "-1"],
])
def test_negative_search_bounds_are_input_errors(capsys, command):
    code = run(command)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "must be a nonnegative integer, got -" in captured.err


def test_pmorph_search_limit(capsys):
    code, out = invoke(capsys, "pmorph-search", FORK, FORK, "--limit", "0")
    assert (code, out) == (1, "found 0 p-morphism(s)\n")
    code, out = invoke(capsys, "pmorph-search", FORK, FORK, "--limit", "1", "--json")
    assert code == 0
    assert len(json.loads(out)) == 1
    _, out = invoke(capsys, "pmorph-search", FORK, FORK, "--json")
    assert len(json.loads(out)) == 2


def test_gen_deterministic_and_valid(tmp_path, capsys):
    code1, out1 = invoke(capsys, "gen", "--seed", "11", "--moments", "5",
                         "--indist", "coarsened")
    code2, out2 = invoke(capsys, "gen", "--seed", "11", "--moments", "5",
                         "--indist", "coarsened")
    assert code1 == code2 == 0
    assert out1 == out2
    path = tmp_path / "gen.model.json"
    path.write_text(out1)
    code, out = invoke(capsys, "validate", str(path))
    assert (code, out) == (0, "ok\n")


def test_gen_frame_only(capsys):
    code, out = invoke(capsys, "gen", "--seed", "2", "--moments", "3",
                       "--frame-only")
    assert code == 0
    assert "valuation" not in json.loads(out)


class GeneratorStarted(Exception):
    pass


def started(seed):
    raise GeneratorStarted


@pytest.mark.parametrize("moments, atoms", [
    (10 ** 20, 2), (1, 10 ** 20), (GEN_SIZE_BOUND // 3 + 1, 2),
    (GEN_SIZE_BOUND + 1, 0)])
def test_gen_refuses_a_model_above_its_size_bound(capsys, monkeypatch,
                                                  moments, atoms):
    # the generator's first step fails, so a check that came too late, or
    # not at all, fails here instead of allocating
    monkeypatch.setattr(generate.random, "Random", started)
    code = run(["gen", "--seed", "1", "--moments", str(moments),
                "--atoms", str(atoms)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (f"error: moments * (atoms + 1) is {moments * (atoms + 1)}, "
                            f"above GEN_SIZE_BOUND ({GEN_SIZE_BOUND})\n")


@pytest.mark.parametrize("moments, atoms", [
    (GEN_SIZE_BOUND, 0), (GEN_SIZE_BOUND // 3, 2), (1, GEN_SIZE_BOUND - 1),
    (50_000, 2)])  # the last is the 50,000-moment model CI generates
def test_gen_starts_on_a_model_at_its_size_bound(monkeypatch, moments, atoms):
    monkeypatch.setattr(generate.random, "Random", started)
    with pytest.raises(GeneratorStarted):
        run(["gen", "--seed", "1", "--moments", str(moments),
             "--atoms", str(atoms)])


def test_json_reports_roundtrip_documented_schemas(tmp_path, capsys):
    code, out = invoke(capsys, "eval", F1, "--at", "r/a", "--formula", "F p",
                       "--semantics", "both", "--json")
    assert code == 1
    assert json.loads(out) == {"point": "r/a", "formula": "F p",
                               "results": {"hist": False, "rel": False}}

    code, out = invoke(capsys, "check", F1, "--formula", "p", "--sat", "--json")
    assert code == 0
    assert json.loads(out) == {"sat": True, "witness": "a/a"}

    code, out = invoke(capsys, "points", F1, "--json")
    assert json.loads(out) == [["a", "a"], ["b", "b"], ["r", "a"]]

    chain = {"moments": ["r", "a"], "edges": [["r", "a"]],
             "indist": {"r": [["a"]], "a": [["a"]]}}
    chain_path = tmp_path / "chain.frame.json"
    chain_path.write_text(json.dumps(chain))
    code, out = invoke(capsys, "pmorph-search", FORK, str(chain_path), "--json")
    maps = json.loads(out)
    assert code == 0 and len(maps) == 1
    # the emitted map document loads and passes the checker
    from itl.documents import frame_from_doc, map_from_doc
    from itl.morphisms import check_frame_pmorphism

    fork_frame = frame_from_doc(json.loads(Path(FORK).read_text()))
    chain_frame = frame_from_doc(chain)
    loaded = map_from_doc(maps[0], fork_frame, chain_frame)
    assert check_frame_pmorphism(fork_frame, chain_frame, loaded, "LF").ok

    code, out = invoke(capsys, "distinguish", F1, F1,
                       "--anchors", "r/a", "r/a", "--max-depth", "2", "--json")
    assert code == 1
    assert json.loads(out) == {"formula": None, "max_depth": 2}


def test_pmorph_json_reports_every_condition(tmp_path, capsys):
    chain = {"moments": ["r", "a"], "edges": [["r", "a"]],
             "indist": {"r": [["a"]], "a": [["a"]]}}
    chain_path = tmp_path / "chain.frame.json"
    chain_path.write_text(json.dumps(chain))
    collapse = [[["r", "a"], ["r", "a"]], [["a", "a"], ["a", "a"]],
                [["b", "b"], ["a", "a"]]]
    map_path = tmp_path / "collapse.map.json"
    map_path.write_text(json.dumps(collapse))
    code, out = invoke(capsys, "pmorph", FORK, str(chain_path), str(map_path),
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["conditions"] == {c: True for c in
                                 ("G-f", "G-b", "H-b", "L-f", "L-b",
                                  "F-f", "F-b")}
    code, out = invoke(capsys, "pmorph", FORK, str(chain_path), str(map_path),
                       "--mode", "L", "--json")
    assert set(json.loads(out)["conditions"]) == {"G-f", "G-b", "H-b",
                                                  "L-f", "L-b"}


def test_bisim_check_json_reports_every_condition(tmp_path, capsys):
    identity = [[["a", "a"], ["a", "a"]], [["b", "b"], ["b", "b"]],
                [["r", "a"], ["r", "a"]]]
    rel_path = tmp_path / "identity.rel.json"
    rel_path.write_text(json.dumps(identity))
    code, out = invoke(capsys, "bisim-check", F1, F1, str(rel_path),
                       "--anchors", "r/a", "r/a", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["conditions"] == {c: True for c in
                                 ("PV", "G-f", "G-b", "H-f", "H-b",
                                  "L-f", "L-b", "F-f", "F-b", "B")}


@pytest.mark.parametrize("criteria", ["11", "0", "x", "3,11", "-1", "", " ", "1,,2"])
def test_suite_rejects_unknown_criteria(capsys, criteria):
    code = run(["suite", "--criteria", criteria])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "1-10" in captured.err


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(itl.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "itl", "points", FORK],
                          capture_output=True, text=True, env=env, check=False)
    assert (done.returncode, done.stdout) == (0, "a/a\nb/b\nr/a\n")


def test_suite_subset(capsys):
    code, out = invoke(capsys, "suite", "--seed", "42", "--criteria", "3,10")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("[ 3] PASS")
    assert lines[1].startswith("[10] PASS")
    assert lines[-1] == "2/2 criteria passed"


def test_usage_error_exit_code(capsys):
    assert run(["eval"]) == 2
    assert run(["no-such-command"]) == 2


def fresh_parser_exit(argv) -> int:
    """What run returns for an argv that argparse itself ends, parsed by a
    newly built parser."""
    with pytest.raises(SystemExit) as exc:
        _build_parser.__wrapped__().parse_args(argv)
    return 2 if exc.value.code not in (0, None) else 0


def test_cached_parser_prints_as_a_fresh_one(monkeypatch, capsys):
    run(["points", FORK])
    capsys.readouterr()
    helps = set()
    for columns in ("40", "200", "80"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in (["--help"], ["eval", "--help"], ["no-such-command"],
                     ["eval", F1, "--at", "r/a"], []):
            cached = (run(argv), *capsys.readouterr())
            fresh = (fresh_parser_exit(argv), *capsys.readouterr())
            assert cached == fresh, (columns, argv)
            if argv == ["--help"]:
                helps.add(cached[1])
    assert len(helps) == 3


def test_no_state_leaks_between_calls(tmp_path, capsys):
    chain = {"moments": ["r", "a"], "edges": [["r", "a"]],
             "indist": {"r": [["a"]], "a": [["a"]]}}
    fork_model = {**json.loads(Path(FORK).read_text()),
                  "valuation": {"p": [["a", "a"], ["b", "b"]]}}
    collapse = [[["r", "a"], ["r", "a"]], [["a", "a"], ["a", "a"]],
                [["b", "b"], ["a", "a"]]]
    paths = {}
    for name, doc in (("chain", chain), ("map", collapse), ("fork.model", fork_model),
                      ("chain.model", {**chain, "valuation": {"p": [["a", "a"]]}})):
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    pmorph = ["pmorph", FORK, paths["chain"], paths["map"], "--json"]
    _, out = invoke(capsys, *pmorph, "--model", paths["fork.model"],
                    paths["chain.model"])
    assert set(json.loads(out)["conditions"]) == set(
        morphism_conditions("LF", model_level=True))
    _, out = invoke(capsys, *pmorph)
    assert set(json.loads(out)["conditions"]) == set(morphism_conditions("LF"))

    code, out = invoke(capsys, "check", F1, "--formula", "p", "--sat", "--json")
    assert (code, json.loads(out)) == (0, {"sat": True, "witness": "a/a"})
    code, out = invoke(capsys, "check", F1, "--formula", "p", "--valid", "--json")
    assert code == 1 and set(json.loads(out)) == {"valid", "counterexample"}


def test_parser_is_built_once_per_process(capsys):
    _build_parser.cache_clear()
    for argv in (["points", FORK], ["validate", F1], ["--help"], ["eval"]):
        run(argv)
    capsys.readouterr()
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


# ---------------------------------------------------------------------------
# input paths: each ends in its exit code with a named message
# ---------------------------------------------------------------------------

CHAIN = {"moments": ["r", "a"], "edges": [["r", "a"]],
         "indist": {"r": [["a"]], "a": [["a"]]}}
COLLAPSE = [[["r", "a"], ["r", "a"]], [["a", "a"], ["a", "a"]],
            [["b", "b"], ["a", "a"]]]


def write_docs(tmp_path, **docs) -> dict[str, str]:
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    return paths


def invoke_all(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("limit", [[], ["--limit", "0"], ["--limit", "2"]])
def test_pmorph_search_bound_error_does_not_depend_on_the_limit(
        tmp_path, monkeypatch, capsys, limit):
    # the search is lazy, and --limit 0 never starts it
    monkeypatch.delenv("ITL_MAX_ENUM", raising=False)
    moments = [f"m{k}" for k in range(11)]
    chain11 = {"moments": moments,
               "edges": [[a, b] for a, b in zip(moments, moments[1:])],
               "indist": {m: [["m10"]] for m in moments}}
    paths = write_docs(tmp_path, big=chain11)
    assert invoke_all(capsys, "pmorph-search", paths["big"], FORK, *limit) == (
        2, "", "error: search over 11 -> 3 points exceeds the bound of 7 points "
               "per side\n")


def test_histories_json(capsys):
    code, out = invoke(capsys, "histories", FORK, "--json")
    assert code == 0
    assert json.loads(out) == [{"leaf": "a", "moments": ["r", "a"]},
                               {"leaf": "b", "moments": ["r", "b"]}]


def test_check_json_with_a_frame_witness(capsys):
    code, out = invoke(capsys, "check", FORK, "--formula", "F p", "--sat", "--json")
    assert code == 0
    assert json.loads(out) == {"sat": True, "witness": {
        "point": "r/a", "valuation": {"p": ["a/a", "b/b"]}}}
    code, out = invoke(capsys, "check", FORK, "--formula", "p -> G p", "--valid",
                       "--json")
    assert code == 1
    assert json.loads(out) == {"valid": False, "counterexample": {
        "point": "r/a", "valuation": {"p": ["r/a"]}}}


def test_check_json_on_a_model_writes_null_when_nothing_is_found(capsys):
    code, out = invoke(capsys, "check", F1, "--formula", "F p", "--sat", "--json")
    assert (code, json.loads(out)) == (1, {"sat": False, "witness": None})
    code, out = invoke(capsys, "check", F1, "--formula", "p | ~p", "--valid",
                       "--json")
    assert (code, json.loads(out)) == (0, {"valid": True, "counterexample": None})


@pytest.mark.parametrize("models, message", [
    (("chain.model", "chain.model"),
     "source model frame differs from the source frame document"),
    ((F1, F1), "target model frame differs from the target frame document"),
])
def test_pmorph_rejects_models_on_other_frames(tmp_path, capsys, models, message):
    paths = write_docs(tmp_path, chain=CHAIN, map=COLLAPSE,
                       **{"chain.model": {**CHAIN, "valuation": {}}})
    models = [paths.get(m, m) for m in models]
    assert invoke_all(capsys, "pmorph", FORK, paths["chain"], paths["map"],
                      "--model", *models) == (2, "", f"error: {message}\n")


def test_unreadable_path_is_an_input_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, err = invoke_all(capsys, "validate", str(missing))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {missing}: ")
    assert "No such file or directory" in err


@pytest.mark.parametrize("command, label", [
    (["pmorph", FORK, "chain", "doc"], "map"),
    (["bisim-check", F1, "chain.model", "doc", "--anchors", "r/a", "r/a"],
     "relation"),
])
def test_unresolved_point_in_a_pair_document(tmp_path, capsys, command, label):
    pairs = [[["r", "a"], ["r", "a"]], [["zz", "a"], ["a", "a"]]]
    paths = write_docs(tmp_path, chain=CHAIN, doc=pairs,
                       **{"chain.model": {**CHAIN, "valuation": {}}})
    argv = [paths.get(arg, arg) for arg in command]
    assert invoke_all(capsys, *argv) == (
        2, "", f"error: {label}[1]: zz/a does not name a point: no class at "
               f"'zz' contains history 'a'\n")
