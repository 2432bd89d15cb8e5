"""Micro-benchmarks for the oracle passes on 2Ω-sized segments.

The paper's Theorem 4 treats the oracle cost W on a 2Ω-segment as the
dominant constant; these benchmarks pin down our W for the default
Ω=100 segments and for the individual passes.
"""

from repro.circuits import random_circuit, random_redundant_circuit
import pytest

from repro.oracles import (
    NamOracle,
    SearchOracle,
    cancellation_pass,
    cnot_chain_pass,
    hadamard_gadget_pass,
    hadamard_reduction_pass,
    rotation_merge_pass,
)

SEGMENT = list(random_redundant_circuit(8, 200, seed=0).gates)
CLEAN_SEGMENT = list(random_circuit(8, 200, seed=1).gates)
#: A fixpoint of the default pipeline: every pass finds nothing to do.
SETTLED = NamOracle()(CLEAN_SEGMENT)


def test_nam_oracle_fixpoint_redundant(benchmark):
    oracle = NamOracle()
    out = benchmark(lambda: oracle(list(SEGMENT)))
    assert len(out) < len(SEGMENT)


def test_nam_oracle_fixpoint_clean(benchmark):
    """Cost of a rejected oracle call (the common case at convergence)."""
    oracle = NamOracle()
    out = benchmark(lambda: oracle(list(SETTLED)))
    assert out == SETTLED


def test_cancellation_pass(benchmark):
    out, _ = benchmark(lambda: cancellation_pass(list(SEGMENT)))
    assert len(out) <= len(SEGMENT)


def test_rotation_merge_pass(benchmark):
    out, _ = benchmark(lambda: rotation_merge_pass(list(SEGMENT)))
    assert len(out) <= len(SEGMENT)


@pytest.mark.parametrize(
    "list_pass",
    [cnot_chain_pass, hadamard_reduction_pass, hadamard_gadget_pass],
    ids=lambda fn: fn.__name__,
)
def test_pattern_pass_with_nothing_to_do(benchmark, list_pass):
    """The pattern passes' scan cost when no pattern fits — the common
    case, and where ``cnot_chain_pass`` once hid 30 % of oracle time."""
    out, changed = benchmark(lambda: list_pass(list(SETTLED)))
    assert out == SETTLED and not changed


def test_search_oracle(benchmark):
    oracle = SearchOracle(beam_width=4, max_steps=2, node_budget=400)
    seg = SEGMENT[:60]
    out = benchmark(lambda: oracle(list(seg)))
    assert len(out) <= len(seg)
