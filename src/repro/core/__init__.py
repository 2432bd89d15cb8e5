"""POPQC core: index tree, circuit stores, fingers, driver, verification."""

from .fenwick import FenwickTree
from .fingers import initial_fingers, select_fingers
from .gate_store import GateStore
from .greedy import popqc_greedy
from .index_tree import IndexTree
from .naive_index import NaiveIndex
from .layered import LayeredPopqcResult, layered_popqc, mixed_cost
from .popqc import CostFn, OracleFn, PopqcResult, popqc, popqc_rounds
from .stats import OptimizationStats, RoundStats
from .tombstone import TombstoneArray
from .trace import RoundTrace, popqc_traced, render_trace
from .verify import (
    LocalOptimalityViolation,
    assert_locally_optimal,
    find_local_optimality_violations,
    oracle_call_bound,
)

__all__ = [
    "CostFn",
    "popqc_greedy",
    "FenwickTree",
    "GateStore",
    "IndexTree",
    "LayeredPopqcResult",
    "LocalOptimalityViolation",
    "NaiveIndex",
    "OptimizationStats",
    "OracleFn",
    "PopqcResult",
    "RoundStats",
    "RoundTrace",
    "TombstoneArray",
    "popqc_traced",
    "render_trace",
    "assert_locally_optimal",
    "find_local_optimality_violations",
    "initial_fingers",
    "layered_popqc",
    "mixed_cost",
    "oracle_call_bound",
    "popqc",
    "popqc_rounds",
    "select_fingers",
]
