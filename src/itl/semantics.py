"""Model checking under the two presentations of the semantics.

The clause-by-clause ("hist") evaluator quantifies over histories of the
current class and moments along them; the relational ("rel") evaluator
quantifies over the derived point relations instead.  The two provably agree
on G/H/L; F is always evaluated by its history clause, which is the only one
given for it.

Extensions (the set of points where a subformula holds) are bitmasks over
the frame's canonical point order.  Formulas are compiled to a
:class:`~itl.formula.Program` and evaluated by one loop over its slots, so
every subformula is evaluated once, however often it occurs, and nesting
depth is not limited by recursion.  An :class:`Evaluator` may hold several
models, each in its own lane of bits of one mask (their disjoint union), so
one run of a program evaluates it on all of them.

One-model evaluators share their model's program for their mode
(``Model.programs``): the hist and rel evaluators of one model compile each
formula once.  Each keeps its own masks and modal memo, computed from its
own route's tables, and at each call it also runs the slots that its
siblings added since its last call.  The one-off helpers (``eval_hist``,
``eval_rel``, ``model_valid``, ``model_sat``) ask their one question on a
copy of the model, which shares the frame and its tables but has programs
of its own, so they run no slot that another evaluator compiled.

A modal kernel (``_box`` for G, H and L, ``_weak_future`` for F) decides
each point with one AND of its table entry against the operand, writes one
``"0"``/``"1"`` digit per point, last point first, and reads the whole mask
with one ``int(digits, 2)``.  Growing the mask a bit at a time would cost a
big-int shift and OR per point, O(n) each, so O(n²) per call.  The digits
start with ``"0"``, so a frame of no points gives the empty mask, and a
base-2 ``int()`` is not bound by ``sys.get_int_max_str_digits()``.
"""

from __future__ import annotations

from functools import partial
from itertools import product

from . import limits
from .errors import BoundExceededError, InvalidPointError, LanguageError
from .formula import (
    AND, ATOM, BOX_G, BOX_H, BOX_L, NOT, WEAK_F, Formula, Program, check_mode,
)
from .structures import Frame, Model, Point


class Evaluator:
    """Evaluates formulas under one route (hist or rel) on the disjoint union
    of one or more models.

    Model k's points take the bits from ``offsets[k]`` on, in its frame's
    canonical order: its lane.  Truth at a point depends only on the tree the
    point lies in, so each lane of a mask is that model's own extension, and
    one run evaluates a program on every model at once.  The one-model
    evaluator is the one-lane case.

    The one-model questions (``extension_mask``, ``extension``, ``holds``)
    compile into the model's program for the evaluator's mode, which all
    of the model's one-model evaluators share, and run the slots added
    since the evaluator's last call, its siblings' included.  The masks
    and the modal memo are the evaluator's own.  An evaluator of several
    models has a program of its own."""

    def __init__(self, *models: Model, relational: bool = False, mode: str = "LF"):
        check_mode(mode)
        if not models:
            raise ValueError("an evaluator needs at least one model")
        self.models = models
        self.mode = mode
        self.relational = relational
        frames = [model.frame for model in models]
        self.offsets = offsets = []
        width = 0
        for frame in frames:
            offsets.append(width)
            width += len(frame.point_list)
        self._full = full = (1 << width) - 1
        names = (("rel_successor_masks", "rel_predecessor_masks",
                  "rel_same_moment_masks") if relational else
                 ("hist_future_masks", "hist_past_masks", "hist_class_masks"))
        if len(frames) == 1:
            # the frame's own tables: shifting by 0 would copy every int
            g, h, l = (getattr(frames[0], name) for name in names)
            chains = frames[0].future_chains
        else:
            g, h, l = (tuple(mask << offset
                             for frame, offset in zip(frames, offsets)
                             for mask in getattr(frame, name))
                       for name in names)
            chains = tuple(tuple(chain << offset for chain in point_chains)
                           for frame, offset in zip(frames, offsets)
                           for point_chains in frame.future_chains)
        self._atom_masks: dict[str, int] = {}
        for model, offset in zip(models, offsets):
            for atom, pts in model.valuation.items():
                self._atom_masks[atom] = (self._atom_masks.get(atom, 0)
                                          | model.frame.mask_of(pts) << offset)
        # per modal opcode: the operator on masks, and its results so far by
        # operand mask (they depend on the tables only, not on the atoms)
        self._modal = {BOX_G: partial(_box, g, full), BOX_H: partial(_box, h, full),
                       BOX_L: partial(_box, l, full),
                       WEAK_F: partial(_weak_future, chains)}
        self._modal_memo: dict[int, dict[int, int]] = {op: {} for op in self._modal}
        # formulas asked for one at a time: a one-model evaluator compiles
        # them into its model's program for the mode, shared with its
        # siblings; the masks are its own
        self._program = (models[0].programs[mode] if len(models) == 1
                         else Program(mode))
        self._masks: list[int] = []

    def lanes(self, mask: int) -> list[int]:
        """Per model, its part of a mask, as a mask over its own frame."""
        ends = self.offsets[1:] + [self._full.bit_length()]
        return [(mask >> start) & ((1 << end - start) - 1)
                for start, end in zip(self.offsets, ends)]

    def run(self, program: Program, atom_masks: dict[str, int] | None = None,
            masks: list[int] | None = None) -> list[int]:
        """The extension mask of every slot of a program, in slot order, under
        the models' valuations or else under the given atom masks.

        Given the masks of an earlier run of the same program, which may have
        grown since, only the slots after them are evaluated, appended to
        that list and returned with it."""
        if program.has_f and self.mode == "L":
            raise LanguageError("'F' is not in language L")
        if atom_masks is None:
            atom_masks = self._atom_masks
        if masks is None:
            masks = []
        start = len(masks)
        full = self._full
        atoms = program.atoms
        modal, memo = self._modal, self._modal_memo
        append = masks.append
        for op, a, b in zip(program.ops[start:], program.left[start:],
                            program.right[start:]):
            if op == AND:
                append(masks[a] & masks[b])
            elif op == NOT:
                append(full ^ masks[a])
            elif op == ATOM:
                append(atom_masks.get(atoms[a], 0))
            else:
                sub = masks[a]
                seen = memo[op]
                out = seen.get(sub)
                if out is None:
                    out = seen[sub] = modal[op](sub)
                append(out)
        return masks

    def _model(self) -> Model:
        if len(self.models) > 1:
            raise ValueError(f"this evaluator has {len(self.models)} models; "
                             f"read their parts of a mask with lanes()")
        return self.models[0]

    def extension_mask(self, formula: Formula) -> int:
        self._model()
        slot = self._program.add(formula)
        return self.run(self._program, masks=self._masks)[slot]

    def extension(self, formula: Formula) -> frozenset[Point]:
        frame = self._model().frame
        return frozenset(frame.points_of(self.extension_mask(formula)))

    def holds(self, point: Point, formula: Formula) -> bool:
        i = _index_of(self._model().frame, point)
        return bool(self.extension_mask(formula) >> i & 1)


def _index_of(frame: Frame, point: Point) -> int:
    i = frame.point_index.get(point)
    if i is None:
        raise InvalidPointError(f"{point.text()} is not a point of the model")
    return i


def _box(targets, full: int, sub_mask: int) -> int:
    """Points all of whose targets lie in sub_mask."""
    missing = full ^ sub_mask
    return int("0" + "".join(["0" if target & missing else "1"
                              for target in reversed(targets)]), 2)


def _weak_future(chains, sub_mask: int) -> int:
    """Points each of whose future chains meets sub_mask."""
    digits = ["0"]
    append = digits.append
    for point_chains in reversed(chains):
        for chain in point_chains:
            if chain & sub_mask == 0:
                append("0")
                break
        else:
            append("1")
    return int("".join(digits), 2)


def _one_off(model: Model, mode: str, relational: bool = False) -> Evaluator:
    """An evaluator on a copy of the model, with programs of its own."""
    copy = Model(model.frame, model.valuation)
    return Evaluator(copy, relational=relational, mode=mode)


def eval_hist(model: Model, point: Point, formula: Formula, mode: str = "LF") -> bool:
    """Truth at a point by the history-quantifying clauses."""
    return _one_off(model, mode).holds(point, formula)


def eval_rel(model: Model, point: Point, formula: Formula, mode: str = "LF") -> bool:
    """Truth at a point quantifying over the derived point relations."""
    return _one_off(model, mode, relational=True).holds(point, formula)


def model_valid(model: Model, formula: Formula, mode: str = "LF") -> bool:
    """True when the formula holds at every point of the model."""
    return _one_off(model, mode).extension_mask(formula) == model.frame.full_mask


def model_sat(model: Model, formula: Formula, mode: str = "LF") -> Point | None:
    """The canonically first point satisfying the formula, if any."""
    mask = _one_off(model, mode).extension_mask(formula)
    first = model.frame.points_of(mask & -mask)
    return first[0] if first else None


def _extensions(frame: Frame, formula: Formula, mode: str,
                max_enum: int | None):
    """Per valuation of the formula's atoms, in increasing order of the atom
    masks: the atom masks and the formula's extension under them."""
    # compiled first, so that a formula outside the language is reported
    # before an enumeration above the bound
    program = Program(mode)
    root = program.add(formula)
    atoms = sorted(program.atoms)
    n = len(frame.point_list)
    bound = limits.resolve(max_enum, limits.DEFAULT_VALUATION_BOUND)
    if n * len(atoms) > bound:
        raise BoundExceededError(
            f"enumerating valuations needs 2**{n * len(atoms)} cases, "
            f"above the bound 2**{bound}")
    ev = Evaluator(Model(frame, {}), mode=mode)
    for assignment in product(range(1 << n), repeat=len(atoms)):
        masks = dict(zip(atoms, assignment))
        yield masks, ev.run(program, masks)[root]


def frame_valid(frame: Frame, formula: Formula, mode: str = "LF",
                max_enum: int | None = None) -> bool:
    """Exact frame validity by enumerating all valuations of the formula's atoms."""
    full = frame.full_mask
    return all(ext == full for _, ext in _extensions(frame, formula, mode, max_enum))


def frame_sat(frame: Frame, formula: Formula, mode: str = "LF",
              max_enum: int | None = None):
    """First (valuation, point) satisfying the formula in the frame, or None.

    Valuations are enumerated in increasing order of the atom masks over the
    canonical point order, so the witness is deterministic.
    """
    for masks, ext in _extensions(frame, formula, mode, max_enum):
        if ext:
            valuation = {a: frozenset(frame.points_of(m)) for a, m in masks.items()}
            return valuation, frame.points_of(ext & -ext)[0]
    return None
