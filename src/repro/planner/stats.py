"""Catalog statistics and selectivity estimation.

Estimates follow the classic System R defaults: equality against a
constant is ``1/distinct(attr)``, ranges get 1/3, inequality 2/3 (the
magic constants every Selinger-style optimizer inherits).  Distinct-value
counts come from a hash index when one exists, otherwise from a bounded
scan of the relation, cached until the relation's cardinality changes by
more than 20%.
"""

from __future__ import annotations

from repro.catalog.catalog import Catalog
from repro.lang import ast_nodes as ast
from repro.lang.predicates import bound_of_conjunct, equijoin_of_conjunct

#: System R's default selectivities
EQ_DEFAULT = 0.1
RANGE_DEFAULT = 1.0 / 3.0
NEQ_DEFAULT = 2.0 / 3.0
OTHER_DEFAULT = 0.5

#: cap on how many tuples a distinct-count estimation scan will look at
_DISTINCT_SCAN_CAP = 2000


class Statistics:
    """Cardinality and selectivity estimates over a catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        # (relation, attr) -> (distinct estimate, cardinality at estimate)
        self._distinct_cache: dict[tuple[str, str], tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # base statistics
    # ------------------------------------------------------------------

    def cardinality(self, relation_name: str) -> int:
        return len(self.catalog.relation(relation_name))

    def distinct(self, relation_name: str, attribute: str) -> int:
        """Estimated number of distinct values of an attribute (>= 1)."""
        relation = self.catalog.relation(relation_name)
        card = len(relation)
        if card == 0:
            return 1
        cached = self._distinct_cache.get((relation_name, attribute))
        if cached is not None:
            estimate, at_card = cached
            if at_card and abs(card - at_card) / at_card <= 0.2:
                return estimate
        index = relation.index_on(attribute, "hash")
        if index is not None:
            estimate = max(1, index.distinct_keys())
        else:
            position = relation.schema.position(attribute)
            seen = set()
            for i, stored in enumerate(relation.scan()):
                if i >= _DISTINCT_SCAN_CAP:
                    break
                seen.add(stored.values[position])
            estimate = max(1, len(seen))
            if card > _DISTINCT_SCAN_CAP:
                # linear extrapolation, capped by cardinality
                estimate = min(card,
                               estimate * card // _DISTINCT_SCAN_CAP)
        self._distinct_cache[(relation_name, attribute)] = (estimate, card)
        return estimate

    # ------------------------------------------------------------------
    # selectivities
    # ------------------------------------------------------------------

    def selection_selectivity(self, conjunct: ast.Expr, var: str,
                              relation_name: str) -> float:
        """Estimated fraction of ``relation`` tuples satisfying a
        single-variable conjunct."""
        # A bound's value may be a parameter, unknown at plan time: the
        # System R defaults for its shape, whatever the bound.
        bound = bound_of_conjunct(conjunct, var)
        if bound is not None:
            attr, _, op, _ = bound
            if op == "=":
                return 1.0 / self.distinct(relation_name, attr)
            return RANGE_DEFAULT
        if isinstance(conjunct, ast.BinOp) and conjunct.op == "!=":
            return NEQ_DEFAULT
        if isinstance(conjunct, ast.NewCall):
            return 1.0
        return OTHER_DEFAULT

    def join_selectivity(self, conjunct: ast.Expr,
                         scope: dict[str, str]) -> float:
        """Estimated selectivity of a multi-variable conjunct."""
        join = equijoin_of_conjunct(conjunct)
        if join is not None:
            left_rel = scope.get(join.left_var)
            right_rel = scope.get(join.right_var)
            left_d = self.distinct(left_rel, join.left_attr) \
                if left_rel else 10
            right_d = self.distinct(right_rel, join.right_attr) \
                if right_rel else 10
            return 1.0 / max(left_d, right_d, 1)
        if isinstance(conjunct, ast.BinOp) \
                and conjunct.op in ast.COMPARISON_OPS:
            return RANGE_DEFAULT
        return OTHER_DEFAULT

    def equijoin_bucket(self, relation_name: str, attribute: str,
                        rows: float) -> float:
        """Expected matches of one equality probe into ``rows`` tuples
        drawn from ``relation`` — rows over the attribute's distinct
        count.  The join planner's estimate of a hash-bucket (or index
        probe) result size."""
        return rows / max(self.distinct(relation_name, attribute), 1)

    def scan_cardinality(self, relation_name: str, var: str,
                         conjuncts: list[ast.Expr]) -> float:
        """Estimated output rows of scanning with pushed selections."""
        rows = float(self.cardinality(relation_name))
        for conjunct in conjuncts:
            rows *= self.selection_selectivity(conjunct, var,
                                               relation_name)
        return max(rows, 0.0)
