"""Fixed desk-scale structures used by the verification battery and tests.

The frame catalogue collects small named frames (at most 5 points each); the
malformed corpus is a list of documents each of which violates exactly one
named invariant.
"""

from __future__ import annotations

import random

from .documents import frame_from_doc, model_from_doc
from .structures import Frame, Model, Point, points


def _frame(moments, edges, indist) -> Frame:
    return frame_from_doc({"moments": moments, "edges": edges, "indist": indist})


def frame_single() -> Frame:
    return _frame(["r"], [], {"r": [["r"]]})


def frame_chain2() -> Frame:
    return _frame(["r", "a"], [["r", "a"]], {"r": [["a"]], "a": [["a"]]})


def frame_chain3() -> Frame:
    return _frame(["r", "a", "b"], [["r", "a"], ["a", "b"]],
                  {"r": [["b"]], "a": [["b"]], "b": [["b"]]})


def frame_fork() -> Frame:
    """Two branches, indistinguishable at the root."""
    return _frame(["r", "a", "b"], [["r", "a"], ["r", "b"]],
                  {"r": [["a", "b"]], "a": [["a"]], "b": [["b"]]})


def frame_fork_split() -> Frame:
    """Two branches, already distinguished at the root."""
    return _frame(["r", "a", "b"], [["r", "a"], ["r", "b"]],
                  {"r": [["a"], ["b"]], "a": [["a"]], "b": [["b"]]})


def frame_wide() -> Frame:
    """Three branches, two of them indistinguishable at the root."""
    return _frame(["r", "a", "b", "c"],
                  [["r", "a"], ["r", "b"], ["r", "c"]],
                  {"r": [["a", "b"], ["c"]],
                   "a": [["a"]], "b": [["b"]], "c": [["c"]]})


def frame_stem_fork() -> Frame:
    """A stem below a fork: branches divide at the middle moment only."""
    return _frame(["r", "m", "a", "b"],
                  [["r", "m"], ["m", "a"], ["m", "b"]],
                  {"r": [["a", "b"]], "m": [["a"], ["b"]],
                   "a": [["a"]], "b": [["b"]]})


def frame_antichain2() -> Frame:
    """Two isolated moments; two singleton histories."""
    return _frame(["x", "y"], [], {"x": [["x"]], "y": [["y"]]})


def catalog_frames() -> dict[str, Frame]:
    return {
        "single": frame_single(),
        "chain2": frame_chain2(),
        "chain3": frame_chain3(),
        "fork": frame_fork(),
        "fork_split": frame_fork_split(),
        "wide": frame_wide(),
        "stem_fork": frame_stem_fork(),
        "antichain2": frame_antichain2(),
    }


F1_MODEL_DOC = {
    "moments": ["r", "a", "b"],
    "edges": [["r", "a"], ["r", "b"]],
    "indist": {"r": [["a", "b"]], "a": [["a"]], "b": [["b"]]},
    "valuation": {"p": [["a", "a"]]},
}


def f1_model() -> Model:
    """The fork model separating the strong and weak future operators."""
    return model_from_doc(F1_MODEL_DOC)


def random_valuation(seed: int, frame: Frame, atoms=("p", "q")) -> dict[str, frozenset[Point]]:
    rng = random.Random(seed)
    pts = points(frame)
    return {a: frozenset(p for p in pts if rng.random() < 0.4) for a in atoms}


def catalog_models(seed: int, frames: dict[str, Frame]) -> dict[str, Model]:
    """Each frame of the catalogue ``frames`` (as built by
    :func:`catalog_frames`) with an empty and a seeded valuation."""
    out = {}
    for i, (name, frame) in enumerate(frames.items()):
        out[f"{name}/empty"] = Model(frame, {})
        out[f"{name}/v1"] = Model(frame, random_valuation(seed + i, frame))
    return out


# ---------------------------------------------------------------------------
# malformed documents (one named defect each)
# ---------------------------------------------------------------------------

def _doc(moments, edges, indist, valuation=None) -> dict:
    doc = {"moments": moments, "edges": edges, "indist": indist}
    if valuation is not None:
        doc["valuation"] = valuation
    return doc


MALFORMED_DOCUMENTS: tuple[tuple[str, str, dict], ...] = (
    ("self_loop", "cycle",
     _doc(["a"], [["a", "a"]], {"a": [["a"]]})),
    ("two_cycle", "cycle",
     _doc(["a", "b"], [["a", "b"], ["b", "a"]], {"a": [["a"]], "b": [["b"]]})),
    ("three_cycle", "cycle",
     _doc(["a", "b", "c"], [["a", "b"], ["b", "c"], ["c", "a"]],
          {"a": [["a"]], "b": [["b"]], "c": [["c"]]})),
    ("two_parents", "downward-linearity",
     _doc(["r", "a", "b"], [["r", "a"], ["b", "a"]],
          {"r": [["a"]], "b": [["a"]], "a": [["a"]]})),
    ("diamond", "downward-linearity",
     _doc(["r", "a", "b", "d"],
          [["r", "a"], ["r", "b"], ["a", "d"], ["b", "d"]],
          {"r": [["d"]], "a": [["d"]], "b": [["d"]], "d": [["d"]]})),
    ("skipping_edge", "non-immediate-edge",
     _doc(["r", "a", "c"], [["r", "a"], ["a", "c"], ["r", "c"]],
          {"r": [["c"]], "a": [["c"]], "c": [["c"]]})),
    ("unknown_endpoint", "unknown-moment",
     _doc(["r"], [["r", "z"]], {"r": [["r"]]})),
    ("duplicate_edge", "duplicate-edge",
     _doc(["r", "a"], [["r", "a"], ["r", "a"]], {"r": [["a"]], "a": [["a"]]})),
    ("duplicate_moment", "duplicate-moment",
     _doc(["r", "a", "a"], [["r", "a"]], {"r": [["a"]], "a": [["a"]]})),
    ("empty_tree", "empty-structure",
     _doc([], [], {})),
    ("missing_partition", "indist-missing-moment",
     _doc(["r", "a"], [["r", "a"]], {"r": [["a"]]})),
    ("foreign_partition", "indist-extra-moment",
     _doc(["r"], [], {"r": [["r"]], "z": [["z"]]})),
    ("uncovered_history", "partition-coverage",
     _doc(["r", "a", "b"], [["r", "a"], ["r", "b"]],
          {"r": [["a"]], "a": [["a"]], "b": [["b"]]})),
    ("foreign_history", "partition-coverage",
     _doc(["r", "a", "b"], [["r", "a"], ["r", "b"]],
          {"r": [["a"], ["b"]], "a": [["a", "b"]], "b": [["b"]]})),
    ("overlapping_classes", "partition-overlap",
     _doc(["r", "a", "b"], [["r", "a"], ["r", "b"]],
          {"r": [["a", "b"], ["b"]], "a": [["a"]], "b": [["b"]]})),
    ("empty_class", "empty-block",
     _doc(["r"], [], {"r": [["r"], []]})),
    ("incoherent_split", "backward-coherence",
     _doc(["r", "m", "a", "b"], [["r", "m"], ["m", "a"], ["m", "b"]],
          {"r": [["a"], ["b"]], "m": [["a", "b"]],
           "a": [["a"]], "b": [["b"]]})),
    ("incoherent_deep", "backward-coherence",
     _doc(["r", "s", "m", "a", "b"],
          [["r", "s"], ["s", "m"], ["m", "a"], ["m", "b"]],
          {"r": [["a"], ["b"]], "s": [["a", "b"]], "m": [["a", "b"]],
           "a": [["a"]], "b": [["b"]]})),
    ("valuation_unknown_class", "valuation-invalid-point",
     _doc(["r", "a"], [["r", "a"]], {"r": [["a"]], "a": [["a"]]},
          valuation={"p": [["r", "zz"]]})),
    ("valuation_unknown_moment", "valuation-invalid-point",
     _doc(["r", "a"], [["r", "a"]], {"r": [["a"]], "a": [["a"]]},
          valuation={"p": [["zz", "a"]]})),
)
