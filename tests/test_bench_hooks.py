"""The library names that the benchmark in ``perfbench/`` wraps or calls
from outside.

``perfbench/spans.py`` replaces these callables and frame table properties
by span-recording wrappers; a rename here would break the benchmark only
when it runs.  This test installs and removes the wrappers on a tiny input.
The workloads also call the evaluator and the corpus cache directly.
"""

import importlib.util
import inspect
import sys
from functools import cached_property
from pathlib import Path

import itl
from itl import catalog, documents
from itl.semantics import Evaluator
from itl.structures import Frame

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

FRAME_TABLES = (
    "future_chains", "hist_future_masks", "hist_past_masks", "hist_class_masks",
    "rel_successor_masks", "rel_predecessor_masks", "rel_same_moment_masks",
)
CHECKERS = (
    "check_frame_pmorphism", "check_model_pmorphism", "check_set_characterization",
    "check_bisimulation", "greatest_bisimulation", "find_distinguishing_formula",
)
LOADERS = ("validate_model_doc", "validate_frame_doc", "model_from_doc",
           "frame_from_doc")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def library_state() -> dict:
    """Every binding the wrappers may replace, keyed by owner and name."""
    owners = [m for name, m in sys.modules.items()
              if name == "itl" or name.startswith("itl.")]
    owners += [Frame, Evaluator]
    return {(id(owner), attr): value for owner in owners
            for attr, value in list(vars(owner).items())}


def test_benchmark_hooks_install_and_remove():
    for attr in FRAME_TABLES:
        assert isinstance(Frame.__dict__.get(attr), cached_property), attr
    assert inspect.isgeneratorfunction(itl.search_pmorphisms)
    for name in CHECKERS:
        assert callable(getattr(itl, name)), name
    assert callable(Evaluator.__dict__.get("holds"))
    for name in LOADERS:
        assert callable(getattr(documents, name)), name

    spans = load_spans()
    before = library_state()
    tracer = spans.Tracer(True)
    instrumentation = spans.instrument_library(tracer)
    try:
        assert library_state() != before
        fork, chain = catalog.frame_fork(), catalog.frame_chain2()
        maps = list(itl.search_pmorphisms(fork, chain, "LF"))
        assert maps
        # the search refines with the fixpoint, not the public checker
        assert itl.check_frame_pmorphism(fork, chain, maps[0], "LF").ok
        model = documents.model_from_doc(catalog.F1_MODEL_DOC)
        Evaluator(model).holds(model.frame.point_list[0], itl.parse("G p"))
        names = {span[0] for span in tracer.spans}
        assert {"morphisms.search", "morphisms.check", "structures.rel_tables",
                "structures.hist_tables", "documents.build",
                "semantics.eval_hist"} <= names
    finally:
        instrumentation.remove()
    assert library_state() == before


def test_benchmark_contract_names():
    # perfbench/battery.py reads and drops the per-process corpus cache
    cache = itl.formula._enumerate_cached
    assert callable(cache.cache_info) and callable(cache.cache_clear)
    assert cache.cache_info().maxsize
    # perfbench/large_models.py evaluates through these, and spans.py names
    # its evaluation spans after the route
    model = documents.model_from_doc(catalog.F1_MODEL_DOC)
    ev = Evaluator(model, relational=True)
    assert ev.relational is True
    assert ev.extension_mask(itl.parse("p")) == model.frame.mask_of(model.valuation["p"])
    # perfbench/spans.py:dag_size walks formula nodes through vars()
    phi = itl.parse("G (p & q)")
    assert [v for v in vars(phi).values() if isinstance(v, itl.Formula)] == [phi.sub]
