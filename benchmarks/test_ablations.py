"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. **Index tree vs naive scans** — Section 3 motivates the index tree
   with the sparsity that tombstones create; replacing it with O(n)
   scans should visibly slow the optimizer as instances grow.
2. **Fenwick vs heap-layout tree** — two O(lg n) implementations of the
   same interface; their end-to-end difference is a constant factor.
3. **Fixpoint vs single-sweep oracle** — the fixpoint property is what
   makes the oracle well-behaved (Theorem 7's requirement); measuring
   its cost shows what the guarantee charges.
4. **Ω sensitivity** — the time/quality trade of Section A.3 at
   benchmark scale.
"""

from repro.benchgen import generate
from repro.core import FenwickTree, IndexTree, NaiveIndex, popqc
from repro.oracles import BASELINE_PASSES, NamOracle

CIRCUIT = generate("VQE", 1)
OMEGA = 100


def test_popqc_with_index_tree(benchmark):
    res = benchmark.pedantic(
        lambda: popqc(CIRCUIT, NamOracle(), OMEGA, tree_factory=IndexTree),
        iterations=1,
        rounds=2,
    )
    assert res.circuit.num_gates < CIRCUIT.num_gates


def test_popqc_with_fenwick(benchmark):
    res = benchmark.pedantic(
        lambda: popqc(CIRCUIT, NamOracle(), OMEGA, tree_factory=FenwickTree),
        iterations=1,
        rounds=2,
    )
    assert res.circuit.num_gates < CIRCUIT.num_gates


def test_popqc_with_naive_index(benchmark):
    """The ablated data structure: O(n) rank/select."""
    res = benchmark.pedantic(
        lambda: popqc(CIRCUIT, NamOracle(), OMEGA, tree_factory=NaiveIndex),
        iterations=1,
        rounds=2,
    )
    assert res.circuit.num_gates < CIRCUIT.num_gates


def test_all_tree_variants_agree():
    """The ablation must not change the result, only the time."""
    a = popqc(CIRCUIT, NamOracle(), OMEGA, tree_factory=IndexTree)
    b = popqc(CIRCUIT, NamOracle(), OMEGA, tree_factory=FenwickTree)
    c = popqc(CIRCUIT, NamOracle(), OMEGA, tree_factory=NaiveIndex)
    assert a.circuit.gates == b.circuit.gates == c.circuit.gates


def test_popqc_fixpoint_oracle(benchmark):
    res = benchmark.pedantic(
        lambda: popqc(CIRCUIT, NamOracle(), OMEGA), iterations=1, rounds=2
    )
    assert res.circuit.num_gates < CIRCUIT.num_gates


def test_popqc_single_sweep_oracle(benchmark):
    """Ablating the fixpoint: a single-sweep oracle still terminates
    (acceptance requires strict improvement) but voids the local-
    optimality guarantee."""
    oracle = NamOracle(BASELINE_PASSES, fixpoint=False)
    res = benchmark.pedantic(
        lambda: popqc(CIRCUIT, oracle, OMEGA), iterations=1, rounds=2
    )
    assert res.circuit.num_gates <= CIRCUIT.num_gates


def test_popqc_omega_50(benchmark):
    res = benchmark.pedantic(
        lambda: popqc(CIRCUIT, NamOracle(), 50), iterations=1, rounds=2
    )
    assert res.circuit.num_gates < CIRCUIT.num_gates


def test_popqc_omega_200(benchmark):
    res = benchmark.pedantic(
        lambda: popqc(CIRCUIT, NamOracle(), 200), iterations=1, rounds=2
    )
    assert res.circuit.num_gates < CIRCUIT.num_gates


def test_popqc_greedy_sequential(benchmark):
    """Round-free greedy variant: what the round structure costs on one
    thread (no selection, no rank recomputation per round)."""
    from repro.core import popqc_greedy

    res = benchmark.pedantic(
        lambda: popqc_greedy(CIRCUIT, NamOracle(), OMEGA), iterations=1, rounds=2
    )
    assert res.circuit.num_gates < CIRCUIT.num_gates


def test_greedy_matches_rounds_quality():
    from repro.core import popqc_greedy

    greedy = popqc_greedy(CIRCUIT, NamOracle(), OMEGA)
    rounds = popqc(CIRCUIT, NamOracle(), OMEGA)
    gap = abs(greedy.circuit.num_gates - rounds.circuit.num_gates)
    assert gap <= 0.02 * CIRCUIT.num_gates
