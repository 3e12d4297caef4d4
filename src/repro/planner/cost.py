"""Cost model for the Selinger-style planner.

Costs are abstract "tuples touched" units — adequate for ranking plans
over an in-memory engine.  Each function returns (cost, output rows).
"""

from __future__ import annotations

import math


def seq_scan_cost(relation_rows: float, output_rows: float
                  ) -> tuple[float, float]:
    """Scan every tuple, emit the estimated qualifying fraction."""
    return (max(relation_rows, 1.0), output_rows)


def index_scan_cost(output_rows: float) -> tuple[float, float]:
    """Touch roughly the qualifying tuples plus a descent."""
    return (output_rows + _log(output_rows), output_rows)


def nested_loop_cost(left_cost: float, left_rows: float,
                     right_cost: float, output_rows: float
                     ) -> tuple[float, float]:
    """Re-run the inner per outer row."""
    return (left_cost + max(left_rows, 1.0) * max(right_cost, 1.0),
            output_rows)


def index_nlj_cost(left_cost: float, left_rows: float,
                   matches_per_probe: float, output_rows: float
                   ) -> tuple[float, float]:
    """One index probe per outer row."""
    per_probe = 1.0 + matches_per_probe
    return (left_cost + max(left_rows, 1.0) * per_probe, output_rows)


def hash_join_cost(left_cost: float, left_rows: float,
                   right_cost: float, right_rows: float,
                   output_rows: float) -> tuple[float, float]:
    """Build on left, probe with right."""
    return (left_cost + right_cost + left_rows + right_rows + output_rows,
            output_rows)


def _log(rows: float) -> float:
    return math.log2(rows + 2.0)
