"""Query optimizer: statistics, physical plans, cost-based planning.

Ariel's architecture routes every data command — including rule actions —
through the query optimizer (paper Figure 2 and section 5.2).  The planner
here is a compact Selinger-style optimizer: per-variable selections are
pushed to scans, access paths (sequential, B-tree range, hash point) are
chosen from catalog indexes, and join orders are enumerated bottom-up with
a simple cardinality model.
"""

from repro.planner.stats import Statistics
from repro.planner.plans import (
    Plan, SeqScan, IndexScan, IndexProbe, PnodeScan, FilterPlan,
    NestedLoopJoin, HashJoin, explain)
from repro.planner.optimizer import Optimizer, PlannedCommand

__all__ = [
    "Statistics",
    "Plan", "SeqScan", "IndexScan", "IndexProbe", "PnodeScan",
    "FilterPlan", "NestedLoopJoin", "HashJoin", "explain",
    "Optimizer", "PlannedCommand",
]
