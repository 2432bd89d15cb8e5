"""The POPQC algorithm (paper Algorithms 2 and 3).

The driver keeps a sorted set of *fingers* (array indices into the
tombstone array) and maintains the invariant that every Ω-segment that
might still be optimizable contains a finger.  Each round it:

1. computes every finger's live rank (one batched ``before_many``),
2. selects a non-interfering subset (Algorithm 4, :mod:`.fingers`),
3. extracts the 2Ω-segment centered on each selected finger (all ends
   from one batched ``select_many``),
4. maps the oracle over the segments with the configured ``parmap`` —
   a ``deterministic`` one over those the run has not answered yet,
   once each (:func:`_distinct`),
5. accepts an oracle result iff it strictly reduces the cost function,
   writing the new gates over the segment's slots (tombstoning the
   remainder) and planting boundary fingers,
6. merges surviving and new fingers and repeats until no fingers remain.

The output circuit is locally optimal with respect to the oracle and Ω
(Theorem 7) whenever the oracle is *well-behaved* — our rule-based
oracles achieve this by running their rewrite passes to a fixpoint.

This module holds the only implementation of that loop
(:func:`_optimize`): a step machine that yields each round's segments
at step 4 and is sent their oracle results.  :func:`popqc` answers
them with its executor over gates,
:func:`repro.core.layered.layered_popqc` over ASAP layers (a
:class:`_Granularity` says how array items become the gates the oracle
sees, and back), :func:`repro.core.trace.popqc_traced` listens to its
per-round callback, and ``popqc serve``'s one dispatcher answers many
jobs' :func:`popqc_rounds` at once.  The oracle wire format is the
executor's business (``ProcessMap(transport=...)``), not the driver's.
"""

from __future__ import annotations

import copy
import time
from collections.abc import Generator, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Optional

from ..circuits import Circuit, Gate
from ..parallel import ParallelMap, SerialMap, segment_executor
from .fingers import initial_fingers, select_fingers
from .gate_store import GateStore
from .index_tree import IndexTree
from .stats import OptimizationStats, RoundStats
from .tombstone import TombstoneArray

__all__ = [
    "popqc",
    "popqc_rounds",
    "PopqcResult",
    "OracleFn",
    "CostFn",
    "OracleContractViolation",
]


class OracleContractViolation(RuntimeError):
    """Raised in validation mode when an oracle output is not equivalent
    to its input segment (or acts outside the segment's qubit support).

    The paper assumes a correct oracle; this check turns that assumption
    into an enforceable contract for third-party oracles.
    """

#: An oracle maps a gate segment to an equivalent (hopefully cheaper) one.
#: One declaring ``deterministic = True`` (``NamOracle``) promises equal
#: outputs for equal inputs, so a :func:`popqc` run asks it once per
#: distinct segment; without the declaration it sees every segment.
OracleFn = Callable[[list[Gate]], list[Gate]]

#: A cost maps a gate segment to a comparable number (default: length).
CostFn = Callable[[Sequence[Gate]], float]

#: Per-round observer, called with the fields of
#: :class:`repro.core.trace.RoundTrace` in order: ``(round_index,
#: live_before, live_after, finger_ranks, selected_ranks,
#: accepted_regions)``.
RoundCallback = Callable[
    [int, int, int, list[int], list[int], list[tuple[int, int]]], None
]

#: A run as a step machine: yields each round's segments, is sent their
#: oracle results (in order), returns a :class:`PopqcResult`.
Rounds = Generator[list[Sequence[Gate]], Sequence[Sequence[Gate]], Any]


@dataclass
class PopqcResult:
    """Optimized circuit plus run statistics.

    ``gates`` is the output as the driver left it — from :func:`popqc`
    a lazy segment over the run's id column, whose ``encoded()`` is the
    wire form with no ``Gate`` built — and ``circuit`` is made of it,
    on the input's register, on first read.
    """

    gates: Sequence[Gate]
    stats: OptimizationStats
    num_qubits: Optional[int] = None

    @cached_property
    def circuit(self) -> Circuit:
        """The optimized :class:`Circuit`."""
        return Circuit(self.gates, self.num_qubits)


def _gate_count_cost(segment: Sequence[Gate]) -> float:
    return float(len(segment))


def _same(x: Any) -> Any:
    return x


@dataclass(frozen=True)
class _Granularity:
    """What one array item is, relative to the oracle's gates.

    ``array`` builds the rank/select store from the input's items;
    ``to_gates`` turns a run of items into the flat gate sequence the
    oracle and the cost function see; ``to_items`` turns a gate
    sequence (the input circuit, an oracle output) into the items
    written back.  At gate granularity the store is a
    :class:`~repro.core.gate_store.GateStore` and both functions are the
    identity: segments leave the store as lazy gate sequences and a
    lazy oracle result goes back in still packed, so nothing is decoded
    that no caller reads.
    """

    array: Callable[[Sequence, Callable], Any] = GateStore
    to_gates: Callable[[Sequence], Sequence[Gate]] = _same
    to_items: Callable[[Sequence[Gate]], Sequence] = _same


def popqc(
    circuit: Circuit | Sequence[Gate],
    oracle: OracleFn,
    omega: int,
    *,
    parmap: Optional[ParallelMap] = None,
    cost: Optional[CostFn] = None,
    tree_factory: Callable[[Sequence[int]], IndexTree] = IndexTree,
    max_rounds: Optional[int] = None,
    check_invariants: bool = False,
    validate_oracle: bool = False,
    validation_max_qubits: int = 12,
) -> PopqcResult:
    """Optimize ``circuit`` to local optimality w.r.t. ``oracle`` and Ω.

    Parameters
    ----------
    circuit:
        Input circuit or raw gate sequence.  A sequence still in wire
        form (an undecoded :class:`~repro.parallel.LazySegmentResult`)
        becomes ids straight from its arrays: one ``Gate`` per distinct
        value, none per gate.  One already held as ids
        (:meth:`~repro.parallel.LazySegmentResult.from_ids`) is run on
        the table those ids are of — which is how a daemon's jobs share
        one table.
    oracle:
        The external optimizer applied to 2Ω-segments.  Must return a
        gate sequence equivalent to its input; only outputs that
        strictly reduce ``cost`` (and fit in the segment's slots) are
        accepted.
    omega:
        Segment-size parameter Ω (paper default: 200).
    parmap:
        Parallel-map executor; defaults to :class:`SerialMap`.  A
        :class:`~repro.parallel.SegmentExecutor` (:class:`SerialMap`,
        which hands an oracle with an id entry the segments' ids, or
        :class:`~repro.parallel.ProcessMap`, which also picks the wire
        format) is driven through ``map_segments(oracle, segments)``
        with lazy ``Sequence[Gate]`` segments, any other through
        ``map(oracle, segments)`` with real gate lists.
        ``map_segments`` results decode lazily: only accepted rewrites
        are ever unpacked (``stats.results_returned`` vs.
        ``stats.results_decoded`` reports the savings).
    cost:
        Acceptance cost; defaults to gate count, matching Algorithm 3's
        ``|optSegment| < |segment|`` test.  The depth-aware experiment
        passes a mixed cost here.
    tree_factory:
        Rank/select structure for the gate store (IndexTree or
        FenwickTree).
    max_rounds:
        Optional safety cap on the number of rounds.
    check_invariants:
        When True, verify non-interference and slot-disjointness every
        round (used by the test suite; adds overhead).
    validate_oracle:
        When True, every *accepted* oracle output is checked against
        its input segment: the output must act only on the segment's
        qubits, and (when the joint support fits in
        ``validation_max_qubits``) must implement the same unitary up
        to global phase.  Violations raise
        :class:`OracleContractViolation`.  Intended for integrating
        untrusted oracles; costs one small simulation per accepted
        call.

    Returns
    -------
    PopqcResult with the optimized :class:`Circuit` (materialised on
    first read of ``.circuit``) and statistics.
    """
    return _run(
        circuit,
        oracle,
        omega,
        _Granularity(),
        parmap,
        cost_fn=cost if cost is not None else _gate_count_cost,
        tree_factory=tree_factory,
        max_rounds=max_rounds,
        check_invariants=check_invariants,
        validate_oracle=validate_oracle,
        validation_max_qubits=validation_max_qubits,
    )


def popqc_rounds(
    circuit: Circuit | Sequence[Gate],
    omega: int,
    *,
    max_rounds: Optional[int] = None,
    transport: str = "inline",
    workers: int = 1,
    counters: Callable[[], dict] = dict,
    memo: Optional[dict] = None,
) -> Rounds:
    """:func:`popqc` as a step machine (:data:`Rounds`) for a caller
    that answers the oracle rounds itself: same output, rounds and
    oracle calls, whoever answers them.  ``transport`` and ``workers``
    label the stats; ``counters`` is read as :func:`popqc` reads its
    executor's ``counters()``.

    ``memo`` maps a segment's ``ids.tobytes()`` — ids of the table the
    input's ids are of — to the oracle's answer (:func:`_distinct`):
    only segments it does not know are yielded, and every answer is
    offered to its ``update``.  A daemon passes one that outlives the
    run; it must be paired with one table and one oracle."""
    return _optimize(
        circuit,
        omega,
        _Granularity(),
        cost_fn=_gate_count_cost,
        max_rounds=max_rounds,
        transport=transport,
        workers=workers,
        counters=counters,
        memo=memo,
    )


def _run(circuit, oracle, omega, granularity, parmap, **options) -> PopqcResult:
    """Drive the round machine to its result, each round one
    ``map_segments`` call on ``parmap`` (default :class:`SerialMap`; one
    with only the plain ``map`` is adapted, and sees real gate lists).
    A ``deterministic`` oracle gets a memo for the run (:func:`_distinct`)
    at gate granularity."""
    pmap = segment_executor(parmap if parmap is not None else SerialMap())
    memoize = getattr(oracle, "deterministic", False) and granularity.array is GateStore
    memo = {} if memoize else None
    rounds = _optimize(
        circuit,
        omega,
        granularity,
        transport=pmap.transport,
        workers=pmap.workers,
        counters=pmap.counters,
        memo=memo,
        **options,
    )
    results = None
    while True:
        try:
            segments = rounds.send(results)
        except StopIteration as done:
            return done.value
        results = pmap.map_segments(oracle, segments)


def _distinct(segments: list, memo: dict):
    """Step 4 with a ``memo`` (ids bytes → result): yield each distinct
    segment it does not know once (nothing if none), offer the answers to
    ``memo.update`` (which may keep only some), and return every
    segment's result as a handle of its own, so decodes count per reader,
    with how many segments were asked."""
    keys = [seg.interned[0].tobytes() for seg in segments]
    known = dict(zip(keys, map(memo.get, keys)))
    asked = {key: seg for key, seg in zip(keys, segments) if known[key] is None}
    if asked:  # equal keys are equal segments: one of them is asked
        answers = dict(zip(asked, (yield list(asked.values()))))
        memo.update(answers)
        known.update(answers)
    return [copy.copy(known[key]) for key in keys], len(asked)


def _optimize(
    circuit: Circuit | Sequence[Gate],
    omega: int,
    granularity: _Granularity,
    *,
    cost_fn: CostFn,
    transport: str,
    workers: int,
    counters: Callable[[], dict],
    tree_factory: Callable[[Sequence[int]], IndexTree] = IndexTree,
    max_rounds: Optional[int] = None,
    check_invariants: bool = False,
    validate_oracle: bool = False,
    validation_max_qubits: int = 12,
    on_round: Optional[RoundCallback] = None,
    memo: Optional[dict] = None,
) -> Rounds:
    """The round loop of Algorithm 2, shared by every public driver,
    as :data:`Rounds`.

    Ω counts tombstone-array items (gates, or layers under a layered
    ``granularity``); ``cost_fn`` always sees gates.  ``on_round`` is
    called once per counted round, after its substitutions.  A
    ``memo``'s answers count as cache (and memo) hits on top of the
    executor's; without a cache behind it, what it asked is the misses.
    """
    if omega < 1:
        raise ValueError("omega must be positive")
    if isinstance(circuit, Circuit):
        gates: Sequence[Gate] = circuit.gates
        num_qubits: Optional[int] = circuit.num_qubits
    else:
        gates = circuit if isinstance(circuit, Sequence) else list(circuit)
        num_qubits = None

    stats = OptimizationStats(
        initial_gates=len(gates),
        initial_cost=cost_fn(gates),
        transport=transport,
        workers=workers,
    )
    counters_before = counters()
    t_start = time.perf_counter()

    array = granularity.array(granularity.to_items(gates), tree_factory)
    fingers = initial_fingers(len(array), omega)
    first_fingers, asked = len(fingers), 0

    while fingers and (max_rounds is None or stats.rounds < max_rounds):
        rstats = RoundStats(fingers=len(fingers))
        live_before = array.live_count
        t_round = time.perf_counter()
        fingers, round_asked, *observed = yield from _run_round(
            array,
            fingers,
            omega,
            granularity,
            counters,
            cost_fn,
            rstats,
            check_invariants,
            validate_oracle,
            validation_max_qubits,
            memo,
        )
        asked += round_asked
        round_total = time.perf_counter() - t_round
        rstats.admin_time = max(0.0, round_total - rstats.oracle_time)
        stats.add_round(rstats)
        if on_round is not None:
            on_round(stats.rounds, live_before, array.live_count, *observed)

    final_gates = granularity.to_gates(array.items())
    stats.final_gates = len(final_gates)
    stats.final_cost = cost_fn(final_gates)
    stats.total_time = time.perf_counter() - t_start
    stats.record_counters(counters_before, counters())
    if check_invariants:
        gate_count = cost_fn is _gate_count_cost and granularity.array is GateStore
        _assert_call_bound(stats, first_fingers, gate_count)
    if memo is not None:
        hits, counted = stats.oracle_calls - asked, stats.counters
        counted["cache_memo_hits"] = hits
        counted["cache_hits"] = counted.get("cache_hits", 0) + hits
        counted.setdefault("cache_misses", asked)
    return PopqcResult(final_gates, stats, num_qubits)


def _run_round(
    array: GateStore | TombstoneArray,
    fingers: list[int],
    omega: int,
    granularity: _Granularity,
    counters: Callable[[], dict],
    cost_fn: CostFn,
    rstats: RoundStats,
    check_invariants: bool,
    validate_oracle: bool,
    validation_max_qubits: int,
    memo: Optional[dict],
) -> Generator[list[Sequence[Gate]], Sequence[Sequence[Gate]], tuple]:
    """One iteration of ``optimizeSegments`` (Algorithm 3), yielding its
    segments (with a ``memo``, those it does not know) for their results.

    Returns the next round's sorted finger list and how many segments it
    yielded, plus what a round observer wants to see: this round's
    finger ranks, the selected ones among them, and the accepted
    ``(lo, hi)`` rank regions.
    """
    total_live = array.live_count
    if total_live == 0:
        return [], 0, [], [], []

    # Rank every finger (one batched query).  Fingers are array indices,
    # so sorted finger order implies sorted rank order (before() is monotone).
    ranks = array.before_many(fingers)
    selected_pos, remaining_pos = select_fingers(ranks, omega)
    selected_ranks = [ranks[p] for p in selected_pos]

    if check_invariants:
        _assert_non_interfering(selected_ranks, omega)

    # Extract the 2Ω-segment centered on each selected finger.
    seg_bounds: list[tuple[int, int]] = []
    for finger_rank in selected_ranks:
        rank = min(finger_rank, total_live)
        seg_bounds.append((max(0, rank - omega), min(total_live, rank + omega)))
    kept_remaining = [fingers[p] for p in remaining_pos]
    extracted = array.segments(seg_bounds)
    seg_slots = [slots for slots, _ in extracted]
    seg_gates = [granularity.to_gates(seg) for _, seg in extracted]

    if check_invariants:
        _assert_disjoint_slots(seg_slots)

    # Parallel oracle map (the only source of parallelism, per Sec. 2.4),
    # run by whoever drives this generator.  What it cost beyond wall
    # time is whatever the executor counts: ``serialization_time`` on a
    # ProcessMap, ``simulated_elapsed`` on a SimulatedParallelism.
    before = counters()
    t_oracle = time.perf_counter()
    if memo is None:
        results, asked = (yield seg_gates), len(seg_gates)
    else:
        results, asked = yield from _distinct(seg_gates, memo)
    rstats.oracle_time = time.perf_counter() - t_oracle
    after = counters()
    rstats.serialization_time = after.get("serialization_time", 0.0) - before.get(
        "serialization_time", 0.0
    )
    rstats.oracle_makespan = after.get("simulated_elapsed", 0.0) - before.get(
        "simulated_elapsed", 0.0
    )
    rstats.selected = len(seg_gates)

    # Accept / reject, build the batched substitution and new fingers.
    rewrites: list[tuple[Sequence[int], Sequence]] = []
    new_fingers: list[int] = []
    right_ranks: list[int] = []
    accepted_regions: list[tuple[int, int]] = []
    for slots, seg, bounds, opt in zip(seg_slots, seg_gates, seg_bounds, results):
        if not len(slots):
            continue
        opt_items = granularity.to_items(opt)
        if len(opt_items) <= len(slots) and cost_fn(opt) < cost_fn(seg):
            if validate_oracle:
                _validate_oracle_output(seg, opt, validation_max_qubits)
            rstats.accepted += 1
            accepted_regions.append(bounds)
            rewrites.append((slots, opt_items))
            # Boundary fingers (Lemma 6): the first slot of the optimized
            # region covers segments crossing its left boundary; the first
            # live gate after the region covers the right boundary.  Both
            # are computed before the substitution shifts ranks.
            lo, hi = bounds
            if lo > 0:
                new_fingers.append(int(slots[0]))
            if hi < total_live:
                right_ranks.append(hi)
        # else: oracle found nothing (or result does not fit) — finger drops.
    new_fingers += array.select_many(right_ranks)

    if rewrites:
        array.rewrite(rewrites)

    # mergeAndDeduplicate: both lists hold array indices; keep sorted order.
    merged = sorted(set(kept_remaining) | set(new_fingers))
    return merged, asked, ranks, selected_ranks, accepted_regions


def _validate_oracle_output(
    segment: Sequence[Gate], output: Sequence[Gate], max_qubits: int
) -> None:
    """Enforce the oracle contract on one accepted rewrite.

    Cheap structural check always: the output may only touch qubits the
    input touched (an equivalent replacement cannot involve new wires).
    Semantic check when feasible: unitary equivalence up to global
    phase on the compacted joint support.
    """
    in_support: set[int] = set()
    for g in segment:
        in_support.update(g.qubits)
    for g in output:
        for q in g.qubits:
            if q not in in_support:
                raise OracleContractViolation(
                    f"oracle output touches qubit {q} outside the segment "
                    f"support {sorted(in_support)}"
                )
    if len(in_support) <= max_qubits:
        from ..sim import segments_equivalent  # lazy: sim pulls in numpy ops

        if not segments_equivalent(segment, output):
            raise OracleContractViolation(
                f"oracle output ({len(output)} gates) is not equivalent to "
                f"its input segment ({len(segment)} gates)"
            )


def _assert_non_interfering(selected_ranks: list[int], omega: int) -> None:
    for a, b in zip(selected_ranks, selected_ranks[1:]):
        if b - a < 2 * omega:
            raise AssertionError(
                f"selected fingers interfere: ranks {a} and {b} with omega={omega}"
            )


def _assert_call_bound(
    stats: OptimizationStats, first_fingers: int, gate_count: bool
) -> None:
    """The paper's call bound, in the form the algorithm earns it: every
    oracle call spends one selected finger, and the fingers are the
    ``first_fingers`` initial ones plus at most two per accepted rewrite
    (Lemma 6's boundary fingers).  Under gate-count cost every accepted
    rewrite also removes a gate, so the calls are O(n)."""
    calls, accepted = stats.oracle_calls, stats.oracle_accepted
    if calls > first_fingers + 2 * accepted:
        raise AssertionError(
            f"{calls} oracle calls exceed {first_fingers} initial fingers "
            f"+ 2 x {accepted} accepted rewrites"
        )
    removed = stats.initial_gates - stats.final_gates
    if gate_count and accepted > removed:
        raise AssertionError(
            f"{accepted} accepted rewrites removed only {removed} gates"
        )


def _assert_disjoint_slots(seg_slots: list[Sequence[int]]) -> None:
    seen: set[int] = set()
    for slots in seg_slots:
        for s in map(int, slots):
            if s in seen:
                raise AssertionError(f"slot {s} appears in two segments")
            seen.add(s)
