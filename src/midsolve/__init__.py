"""Exact minimum independent dominating set solver on marked graphs,
with reference oracles, branching-recurrence analysis tooling and a
worst-case instance family."""

from .graph import GraphError, MarkedGraph, plain_graph
from .solution import INFEASIBLE, SearchStats, Solution
from .solver import SolverError, dispatch_case, solve

__all__ = [
    "GraphError",
    "INFEASIBLE",
    "MarkedGraph",
    "SearchStats",
    "Solution",
    "SolverError",
    "dispatch_case",
    "plain_graph",
    "solve",
]

__version__ = "0.1.0"
