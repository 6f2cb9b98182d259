"""Core STwig subgraph matching engine (the paper's contribution)."""

from repro.core.bindings import BindingTable
from repro.core.decomposition import naive_stwig_cover, stwig_order_selection
from repro.core.engine import SubgraphMatcher
from repro.core.join import (
    JoinBudget,
    JoinCounters,
    multiway_join,
    select_join_order,
)
from repro.core.matcher import match_stwig
from repro.core.planner import MatcherConfig, QueryPlan, QueryPlanner
from repro.core.result import MatchResult, MatchTable, StageStats, STwigTable
from repro.core.statistics import EdgeStatistics
from repro.core.stwig import STwig, validate_cover

__all__ = [
    "EdgeStatistics",
    "STwig",
    "validate_cover",
    "naive_stwig_cover",
    "stwig_order_selection",
    "BindingTable",
    "match_stwig",
    "multiway_join",
    "select_join_order",
    "JoinBudget",
    "JoinCounters",
    "MatchTable",
    "STwigTable",
    "MatchResult",
    "StageStats",
    "MatcherConfig",
    "QueryPlan",
    "QueryPlanner",
    "SubgraphMatcher",
]
