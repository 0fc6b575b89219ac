"""An independent evaluator used to check sampled results of the benchmark.

It transcribes the clause-by-clause definitions over histories and classes
with plain recursion and a (formula, point) memo, and shares none of the
library's mask tables.  It is only used outside the timed spans.
"""

from itl import And, Atom, F, G, H, L, Not
from itl.structures import Point


class NaiveEvaluator:
    def __init__(self, model):
        self.model = model
        self.frame = model.frame
        self.tree = model.frame.tree
        self.memo: dict = {}

    def holds(self, point, formula) -> bool:
        key = (formula, point)
        value = self.memo.get(key)
        if value is None:
            value = self._holds(point, formula)
            self.memo[key] = value
        return value

    def _later(self, point, leaf):
        tree, block_of = self.tree, self.frame.block_of
        for s in tree.down_set(leaf):
            if tree.lt(point.moment, s):
                yield Point(s, block_of[(s, leaf)])

    def _holds(self, point, formula) -> bool:
        tree, frame = self.tree, self.frame
        if isinstance(formula, Atom):
            return point in self.model.valuation.get(formula.name, frozenset())
        if isinstance(formula, Not):
            return not self.holds(point, formula.sub)
        if isinstance(formula, And):
            return self.holds(point, formula.left) and self.holds(point, formula.right)
        if isinstance(formula, G):
            return all(self.holds(q, formula.sub)
                       for leaf in point.block for q in self._later(point, leaf))
        if isinstance(formula, H):
            return all(self.holds(Point(s, frame.block_of[(s, leaf)]), formula.sub)
                       for leaf in point.block for s in tree.down_set(leaf)
                       if tree.lt(s, point.moment))
        if isinstance(formula, L):
            return all(self.holds(Point(point.moment, block), formula.sub)
                       for block in frame.blocks_at[point.moment])
        if isinstance(formula, F):
            return all(any(self.holds(q, formula.sub) for q in self._later(point, leaf))
                       for leaf in point.block)
        raise TypeError(formula)
