"""Formulas: AST, parser, printer, and generators.

Core connectives are negation, conjunction and the four unary temporal/modal
operators G (at all later points along the class's histories), H (mirror for
the past), L (at all classes of the current moment) and F (on every history
of the class there is a later point).  Everything else is surface syntax that
desugars during parsing:

    P x  ->  ~H ~x        f x  ->  ~G ~x        M x  ->  ~L ~x
    g x  ->  ~F ~x        x | y  ->  ~(~x & ~y)   x -> y  ->  ~(x & ~y)

``F`` and its dual ``g`` belong only to the extended language (mode "LF");
mode "L" rejects them.

One parser serves two representations: :func:`parse` builds a
:class:`Formula` tree, and :meth:`Program.parse` builds straight into a
program's slots.  It is given the primitive builders of its target and
desugars the surface operators over them, in one place.

A :class:`Program` is the compiled form the evaluator runs: formulas as a
topologically ordered list of ``(op, a, b)`` over integer slots, with equal
subformulas sharing a slot.  Parsing, printing, compiling and decompiling
(:meth:`Program.formula`) walk formulas with explicit stacks, so nesting
depth is not limited by Python's recursion limit; structural questions
(:func:`atoms_of`, :func:`contains_f`) read a compiled program, which visits
each shared subformula once.
"""

from __future__ import annotations

import random
import re
from array import array
from dataclasses import dataclass, fields
from functools import lru_cache, partial

from .errors import LanguageError, ParseError

MODES = ("L", "LF")


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


class Formula:
    def __str__(self) -> str:
        return format_formula(self)

    def __eq__(self, other):
        if not isinstance(other, Formula):
            return NotImplemented
        stack, seen = [(self, other)], set()  # seen: each pair compared once
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if type(a) is not type(b) or a._hc != b._hc:
                return False
            for x, y in zip(a.__dict__.values(), b.__dict__.values()):
                if isinstance(x, Formula):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self) -> int:
        return self._hc

    def __repr__(self) -> str:
        """The dataclass-style text, e.g. ``Not(sub=Atom(name='p'))``, built
        without recursion."""
        out: list[str] = []
        stack: list = [self]  # formulas still to print, and literal pieces
        while stack:
            node = stack.pop()
            if not isinstance(node, Formula):
                out.append(node)
                continue
            pieces = [f"{type(node).__qualname__}("]
            for k, field in enumerate(fields(node)):
                value = getattr(node, field.name)
                pieces += (", " * (k > 0) + f"{field.name}=",
                           value if isinstance(value, Formula) else repr(value))
            stack += reversed(pieces + [")"])
        return "".join(out)


# Each constructor writes the fields, in field order, then ``_hc``, the hash of
# ``(class name,) + fields``, into the instance dict: constant time at any depth.

@dataclass(frozen=True, eq=False, repr=False, init=False)
class Atom(Formula):
    name: str

    def __init__(self, name):
        d = self.__dict__
        d["name"] = name
        d["_hc"] = hash(("Atom", name))


@dataclass(frozen=True, eq=False, repr=False, init=False)
class And(Formula):
    left: Formula
    right: Formula

    def __init__(self, left, right):
        d = self.__dict__
        d["left"] = left
        d["right"] = right
        d["_hc"] = hash(("And", left, right))


class _Unary(Formula):
    def __init__(self, sub):
        d = self.__dict__
        d["sub"] = sub
        d["_hc"] = hash((type(self).__name__, sub))


@dataclass(frozen=True, eq=False, repr=False, init=False)
class Not(_Unary):
    sub: Formula


@dataclass(frozen=True, eq=False, repr=False, init=False)
class G(_Unary):
    sub: Formula


@dataclass(frozen=True, eq=False, repr=False, init=False)
class H(_Unary):
    sub: Formula


@dataclass(frozen=True, eq=False, repr=False, init=False)
class L(_Unary):
    sub: Formula


@dataclass(frozen=True, eq=False, repr=False, init=False)
class F(_Unary):
    sub: Formula


_FORMULA_UNARY = {"~": Not, "G": G, "H": H, "L": L, "F": F}


def atoms_of(formula: Formula) -> frozenset[str]:
    program = Program()
    program.add(formula)
    return frozenset(program.atoms)


def contains_f(formula: Formula) -> bool:
    program = Program()
    program.add(formula)
    return program.has_f


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")
_RESERVED = {"f", "g"}
_UPPER_OPS = {"G", "H", "L", "F", "P", "M"}
_LF_ONLY = {"F", "g"}


def _is_atom_name(name) -> bool:
    """Whether the parser reads ``name`` back as an atom."""
    return (isinstance(name, str) and _ATOM_RE.fullmatch(name) is not None
            and name not in _RESERVED)


def _tokenize(text: str, mode: str) -> list[tuple[str, str, int]]:
    """The tokens of ``text`` as ``(kind, text, pos)`` tuples; kind is
    "op", "atom", "(", ")", "&", "|", "->" or "end"."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()&|~":
            kind = "op" if c == "~" else c
            tokens.append((kind, c, i))
            i += 1
        elif c == "-":
            if text[i:i + 2] != "->":
                raise ParseError("expected '->'", i)
            tokens.append(("->", "->", i))
            i += 2
        elif c in _UPPER_OPS:
            if c in _LF_ONLY and mode == "L":
                raise LanguageError(f"'{c}' is not in language L", i)
            tokens.append(("op", c, i))
            i += 1
        else:
            m = _ATOM_RE.match(text, i)
            if not m:
                raise ParseError(f"unexpected character {c!r}", i)
            word = m.group()
            if word in _RESERVED:
                if word in _LF_ONLY and mode == "L":
                    raise LanguageError(f"'{word}' is not in language L", i)
                tokens.append(("op", word, i))
            else:
                tokens.append(("atom", word, i))
            i = m.end()
    tokens.append(("end", "", n))
    return tokens


# the surface operators, each the dual ~X~ of a primitive box X
_DUALS = {"P": "H", "f": "G", "M": "L", "g": "F"}
# binary connectives and their precedence; '->' alone is right-associative
_BINARY = {"&": 3, "|": 2, "->": 1}
_OPEN = "("


def parse(text: str, mode: str = "LF") -> Formula:
    """Parse surface syntax into a desugared formula.

    Atoms match [a-z][a-zA-Z0-9_]* except the reserved operator words f, g.
    Unary operators bind tightest, then &, then |, then right-associative ->.
    """
    return _parse(text, check_mode(mode), Atom, _FORMULA_UNARY, And)


def _parse(text: str, mode: str, atom, unary, conj):
    """Parse ``text`` through the builders of one representation: ``atom``
    takes an atom name, ``unary`` maps each primitive operator (``~ G H L
    F``) to its builder and ``conj`` builds a conjunction.  The surface
    operators desugar here, over those builders.

    Precedence climbing over an explicit stack of pending operators, so
    nesting depth is unbounded.
    """
    tokens = _tokenize(text, mode)
    neg = unary["~"]
    prefix = dict(unary)
    for surface, box in _DUALS.items():
        prefix[surface] = lambda x, box=unary[box]: neg(box(neg(x)))

    def binary(op: str, a, b):
        if op == "&":
            return conj(a, b)
        if op == "|":
            return neg(conj(neg(a), neg(b)))
        return neg(conj(a, neg(b)))

    operands: list = []
    # pending operators: a unary operator's token (the only tuples), _OPEN,
    # or a binary's text
    pending: list = []
    i = 0

    def reduce_binaries(floor: int) -> None:
        while pending and pending[-1] in _BINARY and _BINARY[pending[-1]] >= floor:
            op = pending.pop()
            right = operands.pop()
            operands.append(binary(op, operands.pop(), right))

    while True:
        # an operand: prefix operators and '(' until an atom
        tok = tokens[i]
        kind, word, pos = tok
        i += 1
        if kind == "op":
            pending.append(tok)
            continue
        if kind == "(":
            pending.append(_OPEN)
            continue
        if kind != "atom":
            raise ParseError(f"unexpected {word or 'end of input'!r}", pos)
        operand = atom(word)
        while True:
            while pending and type(pending[-1]) is tuple:
                operand = prefix[pending.pop()[1]](operand)
            operands.append(operand)
            kind, word, pos = tokens[i]
            if kind in _BINARY:
                break
            # ')' or the end closes everything back to the innermost '('
            reduce_binaries(0)
            if _OPEN not in pending[-1:]:
                if kind != "end":
                    raise ParseError(f"unexpected {word!r}", pos)
                return operands.pop()
            if kind != ")":
                raise ParseError("expected ')'", pos)
            i += 1
            pending.pop()
            operand = operands.pop()
        i += 1
        # left-associative operators reduce their equals; '->' does not
        reduce_binaries(_BINARY[kind] + (kind == "->"))
        pending.append(kind)


def read_formulas(text: str, mode: str = "LF") -> list[Formula]:
    """Parse a formula corpus: one formula per line, '#' starts a comment."""
    out = []
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            out.append(parse(stripped, mode))
    return out


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def format_formula(formula: Formula) -> str:
    """Render a desugared formula; binary output is fully parenthesized."""
    out: list[str] = []
    stack: list = [formula]  # formulas still to print, and _Text pieces
    while stack:
        node = stack.pop()
        if type(node) is _Text:
            out.append(node)
        elif isinstance(node, Atom):
            out.append(node.name)
        elif isinstance(node, And):
            out.append("(")
            stack += (_CLOSE, node.right, _AND, node.left)
        elif type(node) in _PREFIX:
            out.append(_PREFIX[type(node)])
            stack.append(node.sub)
        else:
            raise TypeError(f"not a formula: {node!r}")
    return "".join(out)


class _Text(str):
    """Literal text on the printer's stack; an operand that is a plain str
    is not a formula."""


_CLOSE, _AND = _Text(")"), _Text(" & ")
_PREFIX = {Not: "~", G: "G ", H: "H ", L: "L ", F: "F "}


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def random_formula(seed: int, max_depth: int, atoms, mode: str = "LF") -> Formula:
    """A seed-deterministic random formula of depth at most max_depth."""
    check_mode(mode)
    atoms = list(atoms)
    if not atoms:
        raise ValueError("atoms must be nonempty")
    if isinstance(max_depth, bool) or not isinstance(max_depth, int) or max_depth < 0:
        raise ValueError(f"max_depth must be a nonnegative integer, got {max_depth!r}")
    rng = random.Random(seed)
    unary = [Not, G, H, L] + ([F] if mode == "LF" else [])

    def build(budget: int) -> Formula:
        if budget == 0 or rng.random() < 0.25:
            return Atom(rng.choice(atoms))
        if rng.random() < 0.35:
            return And(build(budget - 1), build(budget - 1))
        return rng.choice(unary)(build(budget - 1))

    return build(max_depth)


def enumerate_formulas(atoms, max_depth: int, mode: str = "LF") -> tuple[Formula, ...]:
    """Every formula over the given atoms up to the given depth.

    Ordered by depth, then operator, then operand order; subformulas are
    shared objects, so the result is a DAG.  Formula k is slot k of
    :func:`corpus_program`.
    """
    return corpus_program(atoms, max_depth, mode).formulas()


def corpus_program(atoms, max_depth: int, mode: str = "LF") -> Program:
    """The formulas of :func:`enumerate_formulas` as a program, one slot per
    formula in the same order.  The program is cached and shared: do not add
    to it."""
    return _enumerate_cached(tuple(atoms), max_depth, check_mode(mode))


def corpus_size(atoms, max_depth: int, mode: str = "LF") -> int:
    """``len(corpus_program(atoms, max_depth, mode))``, without building it."""
    unary = 5 if check_mode(mode) == "LF" else 4
    last = total = len(tuple(atoms))
    for _depth in range(max_depth):
        last = unary * last + last * last + 2 * last * (total - last)
        total += last
    return total


@lru_cache(maxsize=32)
def _enumerate_cached(atoms: tuple[str, ...], max_depth: int, mode: str) -> Program:
    program = Program(mode)
    for start, level in _emit_by_depth(program, atoms, max_depth):
        level.extend(range(start, len(program)))
    return program


def _emit_by_depth(program: Program, atoms, max_depth: int):
    """Emit the corpus over ``atoms`` up to ``max_depth`` into ``program`` a
    batch at a time: depth d is the unary operators over depth d - 1, then
    ``a & b`` over it, then it against every shallower depth in both orders.
    After each batch, yields its first slot and the list of its depth, to
    which the caller appends the slots deeper depths build on; stops after a
    depth whose list stays empty."""
    # emitted straight into the program's arrays, one call per array and
    # batch: the corpus has no repeated formula, so it needs neither Formula
    # objects nor hash-consing keys
    unary = [NOT, BOX_G, BOX_H, BOX_L] + ([WEAK_F] if program.mode == "LF" else [])
    ops, left, right = program.ops, program.left, program.right

    def emit(codes: bytes, a: list[int], b: list[int]) -> None:
        ops.frombytes(codes)
        left.fromlist(a)
        right.fromlist(b)
    levels: list[list[int]] = [[]]
    start = len(program)
    emit(bytes([ATOM] * len(atoms)), [program.atom(name) for name in atoms],
         [0] * len(atoms))
    yield start, levels[0]
    for _depth in range(max_depth):
        last = levels[-1]
        shallower = [k for level in levels[:-1] for k in level]
        new: list[int] = []
        start = len(program)
        emit(bytes(op for op in unary for _ in last), last * len(unary),
             [0] * (len(unary) * len(last)))
        program.has_f |= WEAK_F in unary and bool(last)
        yield start, new
        ands = bytes([AND] * len(last))
        for a in last:
            start = len(program)
            emit(ands, [a] * len(last), last)
            yield start, new
        # a & b, then b & a, for each shallower b
        ands = bytes([AND] * (2 * len(shallower)))
        for a in last:
            start = len(program)
            pairs = [a] * len(ands)
            pairs[1::2] = shallower
            swapped = [a] * len(ands)
            swapped[::2] = shallower
            emit(ands, pairs, swapped)
            yield start, new
        if not new:
            return
        levels.append(new)


def collapsed_corpus(ev, atoms, max_depth: int):
    """Emits the corpus over ``atoms`` up to ``max_depth`` depth by depth
    into a fresh program, runs each batch on the evaluator ``ev`` and yields
    ``(program, slot, mask)`` for each slot whose mask is new; deeper depths
    build only on those slots.  An operator's mask depends only on its
    operands' masks, so these are the distinct masks of the whole corpus."""
    program = Program(ev.mode)
    masks: list[int] = []
    seen: dict[int, int] = {}  # each mask's first int, which its slots keep
    for start, level in _emit_by_depth(program, atoms, max_depth):
        ev.run(program, masks=masks)
        for k in range(start, len(program)):
            mask = masks[k]
            if mask not in seen:
                seen[mask] = mask
                level.append(k)
                yield program, k, mask
            masks[k] = seen[mask]


# ---------------------------------------------------------------------------
# compiled programs
# ---------------------------------------------------------------------------

# opcodes: an atom, the two boolean connectives, the three boxes, weak future
ATOM, NOT, AND, BOX_G, BOX_H, BOX_L, WEAK_F = range(7)
_PRIMITIVES = {"~": NOT, "G": BOX_G, "H": BOX_H, "L": BOX_L, "F": WEAK_F}
_UNARY_OPCODES = {_FORMULA_UNARY[op]: code for op, code in _PRIMITIVES.items()}
_UNARY_CLASSES = {op: cls for cls, op in _UNARY_OPCODES.items()}


class Program:
    """Formulas compiled to straight-line code over integer slots.

    Slot k holds one subformula: ``ops[k]`` is its opcode, ``left[k]`` its
    operand slot (for ATOM, an index into ``atoms``) and ``right[k]`` the
    second operand of AND (0 otherwise).  Operands come before the slots
    that use them, so one pass in slot order evaluates every slot.

    :meth:`add` hash-conses: a node's key is its opcode plus the slots of its
    operands, so equal subformulas share a slot without comparing formulas.
    The keys live as long as the program; nothing is interned globally.
    """

    def __init__(self, mode: str = "LF"):
        self.mode = check_mode(mode)
        self.ops = array("B")
        self.left = array("l")
        self.right = array("l")
        self.atoms: list[str] = []
        self.has_f = False
        self._atom_index: dict[str, int] = {}
        self._keys: dict[tuple[int, int, int], int] = {}
        self._by_id: dict[int, int] = {}  # id of a compiled node -> its slot
        self._held: list[Formula] = []  # keeps every node in _by_id alive
        self._formulas: dict[int, Formula] = {}  # decompiled slots, see formula()

    def __len__(self) -> int:
        return len(self.ops)

    def atom(self, name: str) -> int:
        index = self._atom_index.get(name)
        if index is None:
            index = self._atom_index[name] = len(self.atoms)
            self.atoms.append(name)
        return index

    def emit(self, op: int, a: int, b: int = 0) -> int:
        """Append one slot, without hash-consing; returns it."""
        if op == WEAK_F:
            if self.mode == "L":
                raise LanguageError("'F' is not in language L")
            self.has_f = True
        self.ops.append(op)
        self.left.append(a)
        self.right.append(b)
        return len(self.ops) - 1

    def _node(self, op: int, a: int, b: int = 0) -> int:
        key = (op, a, b)
        slot = self._keys.get(key)
        if slot is None:
            slot = self._keys[key] = self.emit(op, a, b)
        return slot

    def parse(self, text: str) -> int:
        """Parse ``text`` in the program's mode straight into the program,
        with no :class:`Formula` in between; returns its slot, the one
        ``add(parse(text, mode))`` gives, and raises the errors of
        :func:`parse` (the slots of the part read before an error stay)."""
        node = self._node
        return _parse(text, self.mode, lambda name: node(ATOM, self.atom(name)),
                      {op: partial(node, code) for op, code in _PRIMITIVES.items()},
                      partial(node, AND))

    def add(self, formula: Formula) -> int:
        """Compile a formula into the program; returns its slot."""
        by_id = self._by_id
        slot = by_id.get(id(formula))
        if slot is not None:
            return slot
        self._held.append(formula)
        stack = [formula]
        while stack:
            node = stack[-1]
            if id(node) in by_id:
                stack.pop()
                continue
            cls = type(node)
            if cls is Atom:
                slot = self._node(ATOM, self.atom(node.name))
            elif cls is And:
                a = by_id.get(id(node.left))
                b = by_id.get(id(node.right))
                if a is None or b is None:
                    if b is None:
                        stack.append(node.right)
                    if a is None:
                        stack.append(node.left)
                    continue
                slot = self._node(AND, a, b)
            elif cls in _UNARY_OPCODES:
                a = by_id.get(id(node.sub))
                if a is None:
                    stack.append(node.sub)
                    continue
                slot = self._node(_UNARY_OPCODES[cls], a)
            else:
                raise TypeError(f"not a formula: {node!r}")
            stack.pop()
            by_id[id(node)] = slot
        return by_id[id(formula)]

    def formula(self, slot: int) -> Formula:
        """The formula of one slot.  Decompiles only the slots it reads, into
        a memo all calls share, so formulas share subformulas as slots do."""
        memo = self._formulas
        stack = [] if slot in memo else [slot]
        while stack:
            k = stack[-1]
            op, a, b = self.ops[k], self.left[k], self.right[k]
            if op != ATOM and a not in memo:
                stack.append(a)
            elif op == AND and b not in memo:
                stack.append(b)
            else:
                memo[stack.pop()] = (Atom(self.atoms[a]) if op == ATOM else
                                     And(memo[a], memo[b]) if op == AND else
                                     _UNARY_CLASSES[op](memo[a]))
        return memo[slot]

    def formulas(self) -> tuple[Formula, ...]:
        """One formula per slot, sharing subformulas as the slots do."""
        return tuple(map(self.formula, range(len(self.ops))))
