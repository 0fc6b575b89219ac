"""Command-line front end.

Exit codes: 0 when the result holds (valid document, true formula, passing
map or relation, witness found); 1 on a semantic "no" (violations, false,
unsat, failing conditions, nothing found); 2 on malformed input or usage
errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import islice

from . import documents, limits, suite
from .bisimulation import (
    bisimilar, check_bisimulation, conditions_for as bisim_conditions,
    find_distinguishing_formula, greatest_bisimulation,
)
from .documents import dumps
from .errors import ItlError
from .formula import MODES, Not, format_formula, parse
from .generate import INDIST_POLICIES, gen_random_model
from .morphisms import (
    check_frame_pmorphism, check_model_pmorphism,
    check_search, conditions_for as morphism_conditions, search_pmorphisms,
)
from .semantics import Evaluator, frame_sat, model_sat
from .structures import points, validate_frame


def _read_doc(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ItlError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ItlError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ItlError(f"{path} nests too deeply to read") from None


def _require_ok(report, what: str) -> None:
    if not report.ok:
        first = report.violations[0]
        raise ItlError(f"{what}: {first.kind}: {first.message}")


def _valid_frame(doc, what: str):
    frame = documents.frame_from_doc(doc)
    _require_ok(validate_frame(frame), what)
    return frame


def _valid_model(doc, what: str):
    report, model = documents.read_model_doc(doc)
    _require_ok(report, what)
    return model


def _load_frame(path: str):
    return _valid_frame(_read_doc(path), f"{path} is not a valid frame")


def _load_model(path: str):
    return _valid_model(_read_doc(path), f"{path} is not a valid model")


def _print_report(report, as_json: bool, conditions=None) -> int:
    if as_json:
        doc = report.to_doc()
        if conditions is not None:
            failed = set(report.kinds())
            doc["conditions"] = {c: c not in failed for c in conditions}
        print(dumps(doc))
    elif report.ok:
        print("ok")
    else:
        print("invalid")
        for violation in report.violations:
            print(f"  {violation.kind}: {violation.message}")
    return 0 if report.ok else 1


def _bool_exit(value: bool) -> int:
    return 0 if value else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    return _print_report(documents.validate_doc(_read_doc(args.document)), args.json)


def _cmd_histories(args) -> int:
    frame = _load_frame(args.document)
    rows = [{"leaf": leaf, "moments": list(chain)}
            for leaf, chain in frame.tree.chains.items()]
    if args.json:
        print(dumps(rows))
    else:
        for row in rows:
            print(f"{row['leaf']}: {' < '.join(row['moments'])}")
    return 0


def _cmd_points(args) -> int:
    frame = _load_frame(args.document)
    pts = points(frame)
    if args.json:
        print(dumps([[p.moment, p.class_rep] for p in pts]))
    else:
        for p in pts:
            print(p.text())
    return 0


def _cmd_eval(args) -> int:
    model = _load_model(args.model)
    at = documents.parse_point(model.frame, args.at)
    formula = parse(args.formula, args.mode)
    results = {}
    if args.semantics in ("hist", "both"):
        results["hist"] = Evaluator(model, relational=False,
                                    mode=args.mode).holds(at, formula)
    if args.semantics in ("rel", "both"):
        results["rel"] = Evaluator(model, relational=True,
                                   mode=args.mode).holds(at, formula)
    if args.json:
        print(dumps({"point": at.text(), "formula": format_formula(formula),
                     "results": results}))
    else:
        for name, value in results.items():
            print(f"{name}: {'true' if value else 'false'}")
    values = set(results.values())
    if len(values) > 1:
        print("error: the two semantics disagree; please report this",
              file=sys.stderr)
        return 2
    return _bool_exit(values.pop())


def _cmd_check(args) -> int:
    doc = _read_doc(args.document)
    formula = parse(args.formula, args.mode)
    # a counterexample to validity is a point satisfying the negation
    target = formula if args.sat else Not(formula)
    in_model = documents.is_model_doc(doc)
    if in_model:
        model = _valid_model(doc, "invalid model")
        # the bound is unused here, but an explicit one is checked as on frames
        if args.max_enum is not None:
            limits.nonnegative(args.max_enum, "the enumeration bound")
        point = model_sat(model, target, args.mode)
        found = None if point is None else (None, point)
    else:
        frame = _valid_frame(doc, "invalid frame")
        found = frame_sat(frame, target, args.mode, max_enum=args.max_enum)
    holds = (found is not None) == args.sat
    verdict, label = ("sat", "witness") if args.sat else ("valid", "counterexample")
    if args.json:
        out = {verdict: holds}
        if found is not None:
            valuation, point = found
            out[label] = point.text() if valuation is None else {
                "point": point.text(),
                "valuation": {a: sorted(p.text() for p in pts)
                              for a, pts in valuation.items()},
            }
        elif in_model:
            out[label] = None
        print(dumps(out))
    elif found is None:
        print("unsat" if args.sat else "valid")
    else:
        valuation, point = found
        text = f"{'sat' if args.sat else 'invalid at'} {point.text()}"
        if valuation is not None:
            text += " under " + "; ".join(
                f"{a}={{{', '.join(sorted(p.text() for p in pts))}}}"
                for a, pts in sorted(valuation.items()))
        print(text)
    return _bool_exit(holds)


def _cmd_pmorph(args) -> int:
    src = _load_frame(args.src_frame)
    dst = _load_frame(args.dst_frame)
    point_map = documents.map_from_doc(_read_doc(args.map), src, dst)
    if args.model:
        src_model = _load_model(args.model[0])
        dst_model = _load_model(args.model[1])
        if documents.frame_to_doc(src_model.frame) != documents.frame_to_doc(src):
            raise ItlError("source model frame differs from the source frame document")
        if documents.frame_to_doc(dst_model.frame) != documents.frame_to_doc(dst):
            raise ItlError("target model frame differs from the target frame document")
        # points are value objects, so the map carries over to the models' frames
        report = check_model_pmorphism(src_model, dst_model, point_map, args.mode)
        conditions = morphism_conditions(args.mode, model_level=True)
    else:
        report = check_frame_pmorphism(src, dst, point_map, args.mode)
        conditions = morphism_conditions(args.mode)
    return _print_report(report, args.json, conditions)


def _cmd_pmorph_search(args) -> int:
    src = _load_frame(args.src_frame)
    dst = _load_frame(args.dst_frame)
    limit = None if args.limit is None else limits.nonnegative(args.limit, "--limit")
    # the search is lazy: check its bounds before a slice that may never start it
    check_search(src, dst, args.mode)
    maps = search_pmorphisms(src, dst, mode=args.mode, surjective=args.surjective)
    found = [documents.map_to_doc(point_map) for point_map in islice(maps, limit)]
    if args.json:
        print(dumps(found))
    else:
        for doc in found:
            print(json.dumps(doc))
        print(f"found {len(found)} p-morphism(s)")
    return _bool_exit(bool(found))


def _cmd_bisim_check(args) -> int:
    src = _load_model(args.src_model)
    dst = _load_model(args.dst_model)
    relation = documents.relation_from_doc(_read_doc(args.relation),
                                           src.frame, dst.frame)
    anchor_src = documents.parse_point(src.frame, args.anchors[0])
    anchor_dst = documents.parse_point(dst.frame, args.anchors[1])
    report = check_bisimulation(src, dst, relation, (anchor_src, anchor_dst),
                                args.mode)
    return _print_report(report, args.json, bisim_conditions(args.mode))


def _cmd_bisim_max(args) -> int:
    src = _load_model(args.src_model)
    dst = _load_model(args.dst_model)
    relation = greatest_bisimulation(src, dst, args.mode)
    print(dumps(documents.relation_to_doc(relation)))
    return 0


def _cmd_distinguish(args) -> int:
    src = _load_model(args.src_model)
    dst = _load_model(args.dst_model)
    p = documents.parse_point(src.frame, args.anchors[0])
    q = documents.parse_point(dst.frame, args.anchors[1])
    limits.nonnegative(args.max_depth, "max_depth")
    # related points satisfy the same formulas, so the search would find none
    formula = None if bisimilar(src, p, dst, q, args.mode) else \
        find_distinguishing_formula(src, p, dst, q, mode=args.mode,
                                    max_depth=args.max_depth)
    if args.json:
        print(dumps({"formula": format_formula(formula) if formula else None,
                     "max_depth": args.max_depth}))
    elif formula is None:
        print(f"indistinguishable up to depth {args.max_depth}")
    else:
        print(format_formula(formula))
    return _bool_exit(formula is not None)


def _cmd_gen(args) -> int:
    model = gen_random_model(args.seed, args.moments, branching=args.branching,
                             indist_policy=args.indist, n_atoms=args.atoms)
    doc = documents.model_to_doc(model)
    if args.frame_only:
        doc.pop("valuation", None)
    print(dumps(doc))
    return 0


def _criterion_number(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        known = suite.Battery.CRITERIA
        raise ItlError(f"--criteria takes numbers {known[0]}-{known[-1]}, "
                       f"got {text.strip()!r}") from None


def _cmd_suite(args) -> int:
    numbers = None
    if args.criteria is not None:
        numbers = sorted({_criterion_number(c) for c in args.criteria.split(",")})
    battery = suite.Battery(seed=args.seed)
    if args.json:
        results = battery.run_all(numbers=numbers)
        print(dumps([r.to_doc() for r in results]))
    else:
        results = battery.run_all(numbers=numbers, log=print)
        passed = sum(r.passed for r in results)
        print(f"{passed}/{len(results)} criteria passed")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# built once per process, on the first call; argparse reads the output
# streams and COLUMNS when it prints, so the cached parser prints as a fresh
# one would
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itl",
        description="Branching-time temporal logic over trees with "
                    "indistinguishability classes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        return p

    p = add("validate", _cmd_validate, "validate a frame or model document")
    p.add_argument("document")

    p = add("histories", _cmd_histories, "list the histories of a frame")
    p.add_argument("document")

    p = add("points", _cmd_points, "list the evaluation points of a frame")
    p.add_argument("document")

    p = add("eval", _cmd_eval, "evaluate a formula at a point of a model")
    p.add_argument("model")
    p.add_argument("--at", required=True, metavar="MOMENT/REP")
    p.add_argument("--formula", required=True)
    p.add_argument("--mode", choices=MODES, default="LF")
    p.add_argument("--semantics", choices=["hist", "rel", "both"],
                   default="hist")

    p = add("check", _cmd_check, "satisfiability or validity in a model or frame")
    p.add_argument("document")
    p.add_argument("--formula", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--sat", action="store_true")
    group.add_argument("--valid", action="store_true")
    p.add_argument("--mode", choices=MODES, default="LF")
    p.add_argument("--max-enum", type=int, default=None,
                   help=f"valuation-enumeration bound (default "
                        f"{limits.DEFAULT_VALUATION_BOUND}, env {limits.ENV_VAR})")

    p = add("pmorph", _cmd_pmorph, "check a point map between two frames")
    p.add_argument("src_frame")
    p.add_argument("dst_frame")
    p.add_argument("map")
    p.add_argument("--mode", choices=MODES, default="LF")
    p.add_argument("--model", nargs=2, metavar=("SRC_MODEL", "DST_MODEL"),
                   help="also check valuation agreement between two models")

    p = add("pmorph-search", _cmd_pmorph_search,
            "enumerate the p-morphisms between two frames")
    p.add_argument("src_frame")
    p.add_argument("dst_frame")
    p.add_argument("--mode", choices=MODES, default="LF")
    p.add_argument("--surjective", action="store_true")
    p.add_argument("--limit", type=int, default=None)

    p = add("bisim-check", _cmd_bisim_check,
            "check a relation between two models")
    p.add_argument("src_model")
    p.add_argument("dst_model")
    p.add_argument("relation")
    p.add_argument("--anchors", nargs=2, required=True,
                   metavar=("SRC_POINT", "DST_POINT"))
    p.add_argument("--mode", choices=MODES, default="LF")

    p = add("bisim-max", _cmd_bisim_max,
            "print the greatest bisimulation between two models")
    p.add_argument("src_model")
    p.add_argument("dst_model")
    p.add_argument("--mode", choices=MODES, default="LF")

    p = add("distinguish", _cmd_distinguish,
            "search for a formula telling two points apart")
    p.add_argument("src_model")
    p.add_argument("dst_model")
    p.add_argument("--anchors", nargs=2, required=True,
                   metavar=("SRC_POINT", "DST_POINT"))
    p.add_argument("--mode", choices=MODES, default="LF")
    p.add_argument("--max-depth", type=int, default=4)

    p = add("gen", _cmd_gen, "generate a random model document")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--moments", type=int, required=True)
    p.add_argument("--branching", type=int, default=2)
    p.add_argument("--indist", choices=list(INDIST_POLICIES),
                   default="undividedness")
    p.add_argument("--atoms", type=int, default=2)
    p.add_argument("--frame-only", action="store_true")

    p = add("suite", _cmd_suite, "run the verification battery")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion numbers (default: all)")

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ItlError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
