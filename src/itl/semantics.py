"""Model checking under the two presentations of the semantics.

The clause-by-clause ("hist") evaluator quantifies over histories of the
current class and moments along them; the relational ("rel") evaluator
quantifies over the derived point relations instead.  The two provably agree
on G/H/L; F is always evaluated by its history clause, which is the only one
given for it.

Extensions (the set of points where a subformula holds) are bitmasks over
the frame's canonical point order.  Formulas are compiled to a
:class:`~itl.formula.Program` and evaluated by one loop over its slots, so
every subformula is evaluated once per model, however often it occurs, and
nesting depth is not limited by recursion.
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
    """Evaluates formulas on one model under one route (hist or rel)."""

    def __init__(self, model: Model, relational: bool = False, mode: str = "LF"):
        check_mode(mode)
        frame = model.frame
        self.model = model
        self.mode = mode
        self.relational = relational
        self._full = full = frame.full_mask
        self._index = frame.point_index
        if relational:
            g, h, l = (frame.rel_successor_masks, frame.rel_predecessor_masks,
                       frame.rel_same_moment_masks)
        else:
            g, h, l = (frame.hist_future_masks, frame.hist_past_masks,
                       frame.hist_class_masks)
        self._atom_masks = {
            atom: frame.mask_of(pts) for atom, pts in model.valuation.items()
        }
        # per modal opcode: the operator on masks, and its results so far by
        # operand mask (they depend on the tables only, not on the atoms)
        self._modal = {BOX_G: partial(_box, g, full), BOX_H: partial(_box, h, full),
                       BOX_L: partial(_box, l, full),
                       WEAK_F: partial(_weak_future, frame.future_chains)}
        self._modal_memo: dict[int, dict[int, int]] = {op: {} for op in self._modal}
        # formulas asked for one at a time share one program and its masks
        self._program = Program(mode)
        self._masks: list[int] = []

    def run(self, program: Program, atom_masks: dict[str, int] | None = None,
            masks: list[int] | None = None) -> list[int]:
        """The extension mask of every slot of a program, in slot order, under
        the model's valuation or else under the given atom masks.

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

    def extension_mask(self, formula: Formula) -> int:
        slot = self._program.add(formula)
        return self.run(self._program, masks=self._masks)[slot]

    def extension(self, formula: Formula) -> frozenset[Point]:
        return frozenset(self.model.frame.points_of(self.extension_mask(formula)))

    def holds(self, point: Point, formula: Formula) -> bool:
        i = self._index.get(point)
        if i is None:
            raise InvalidPointError(f"{point.text()} is not a point of the model")
        return bool(self.extension_mask(formula) >> i & 1)


def _box(targets, full: int, sub_mask: int) -> int:
    """Points all of whose targets lie in sub_mask."""
    missing = full ^ sub_mask
    out = 0
    bit = 1
    for target in targets:
        if target & missing == 0:
            out |= bit
        bit <<= 1
    return out


def _weak_future(chains, sub_mask: int) -> int:
    """Points each of whose future chains meets sub_mask."""
    out = 0
    bit = 1
    for point_chains in chains:
        for chain in point_chains:
            if chain & sub_mask == 0:
                break
        else:
            out |= bit
        bit <<= 1
    return out


def eval_hist(model: Model, point: Point, formula: Formula, mode: str = "LF") -> bool:
    """Truth at a point by the history-quantifying clauses."""
    return Evaluator(model, relational=False, mode=mode).holds(point, formula)


def eval_rel(model: Model, point: Point, formula: Formula, mode: str = "LF") -> bool:
    """Truth at a point quantifying over the derived point relations."""
    return Evaluator(model, relational=True, mode=mode).holds(point, formula)


def model_valid(model: Model, formula: Formula, mode: str = "LF") -> bool:
    """True when the formula holds at every point of the model."""
    ev = Evaluator(model, mode=mode)
    return ev.extension_mask(formula) == model.frame.full_mask


def model_sat(model: Model, formula: Formula, mode: str = "LF") -> Point | None:
    """The canonically first point satisfying the formula, if any."""
    mask = Evaluator(model, mode=mode).extension_mask(formula)
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
