"""The Nam-style rule-based oracle — this reproduction's VOQC stand-in.

VOQC (Hietala et al. 2021) is a verified implementation of Nam et al.'s
rule-based optimizer on {H, X, CNOT, RZ}; the paper uses it as the
primary oracle.  :class:`NamOracle` composes the rewrite passes of
:mod:`repro.oracles.rule_engine` into the same kind of pass pipeline:

* ``fixpoint=False`` — one sweep of the pipeline, the way VOQC applies
  its passes.  Used by the whole-circuit baseline; a later pass can
  create opportunities an earlier pass then misses, which is exactly
  the effect Section 7.4 credits for POPQC sometimes *beating* VOQC.
* ``fixpoint=True`` — repeat the pipeline until nothing changes.  This
  is the mode POPQC uses: a fixpoint of pattern rewrites is
  *well-behaved* in the paper's sense (any subsegment of a fixpoint is
  itself a fixpoint, because a rule applicable inside a subsegment is
  applicable in the whole segment), which Theorem 7's local-optimality
  guarantee requires.

Two interchangeable engines run the pipeline, driven by one loop
(:meth:`NamOracle._drive`):

* ``engine="python"`` (default) — the in-place sweeps of
  :mod:`repro.oracles.rule_engine` over one work segment of columns per
  call.  The faster engine per segment at every Ω measured (see
  ``benchmarks/e2e``'s ``oracles.*.seg_us`` probes).
* ``engine="vector"`` — the numpy struct-of-arrays passes of
  :mod:`repro.oracles.vector_engine`: the same rule set as whole-array
  kernels.  Slower per segment at POPQC's segment sizes, but it spends
  its time in GIL-releasing numpy.  Segments containing gates outside
  the {h, x, cnot, rz} base set fall back to the python engine
  transparently.

The oracle is a picklable callable (gates in, gates out) with two more
entries that give the same gates: :meth:`NamOracle.run_packed` (wire
arrays in and out, no ``Gate`` built), which every byte worker calls,
and :meth:`NamOracle.run_ids` (ids of a
:class:`~repro.circuits.intern.GateTable` in and out), which every
inline round calls and every local pool worker calls on its batch's
rows.  A subclass that overrides ``__call__`` must override both.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

import numpy as np

from ..circuits import Gate
from ..circuits.encoding import EncodedSegment
from ..circuits.intern import GateTable
from .hadamard_gadgets import sweep_hadamard_gadgets
from .resynth import sweep_resynthesis
from .rotation_merge import sweep_rotation_merge
from .rule_engine import (
    Sweep,
    WorkSegment,
    run_sweep,
    sweep_cancellation,
    sweep_cnot_chain,
    sweep_hadamard_reduction,
    sweep_remove_identities,
)

__all__ = ["NamOracle", "DEFAULT_PASSES", "EXTENDED_PASSES"]

#: The default pass pipeline, in VOQC's spirit: cheap cancellations
#: first, then the pattern rules that expose more cancellations.
DEFAULT_PASSES: tuple[str, ...] = (
    "cancellation",
    "hadamard_reduction",
    "hadamard_gadgets",
    "rotation_merge",
    "cnot_chain",
)

#: Extended pipeline adding single-qubit run resynthesis (Section 8.2
#: technique).  Strictly at-least-as-good quality, ~2x oracle cost; use
#: ``NamOracle(EXTENDED_PASSES)`` when quality matters more than time.
EXTENDED_PASSES: tuple[str, ...] = (
    "cancellation",
    "hadamard_reduction",
    "hadamard_gadgets",
    "rotation_merge",
    "resynthesis",
    "cnot_chain",
)

#: The pass list used by the whole-circuit (VOQC-role) baseline: a fixed
#: single-run pipeline with interleaved cancellation sweeps, the way
#: VOQC sequences its verified passes.  The fixpoint oracle does not
#: need the interleaving (its loop keeps cycling through the list anyway).
BASELINE_PASSES: tuple[str, ...] = (
    "remove_identities",
    "cancellation",
    "hadamard_reduction",
    "cancellation",
    "hadamard_gadgets",
    "cancellation",
    "rotation_merge",
    "cancellation",
    "cnot_chain",
    "cancellation",
)

_PASS_TABLE: dict[str, Sweep] = {
    "remove_identities": sweep_remove_identities,
    "cancellation": sweep_cancellation,
    "hadamard_reduction": sweep_hadamard_reduction,
    "hadamard_gadgets": sweep_hadamard_gadgets,
    "rotation_merge": sweep_rotation_merge,
    "resynthesis": sweep_resynthesis,
    "cnot_chain": sweep_cnot_chain,
}

#: Vector pipelines cached per pass tuple (kept out of oracle instances
#: so NamOracle stays picklable — the fallback wrappers are closures).
_VECTOR_PIPELINES: dict[tuple[str, ...], list] = {}


def _vector_pipeline(passes: tuple[str, ...]) -> list:
    """The (cached) vectorized pass pipeline for ``passes``."""
    pipeline = _VECTOR_PIPELINES.get(passes)
    if pipeline is None:
        from .vector_engine import vector_pass_for

        pipeline = [
            vector_pass_for(name, partial(run_sweep, _PASS_TABLE[name]))
            for name in passes
        ]
        _VECTOR_PIPELINES[passes] = pipeline
    return pipeline


class NamOracle:
    """Rule-based segment optimizer.

    Parameters
    ----------
    passes:
        Pass names (keys of the pass table) to run in order.
    fixpoint:
        Repeat the pipeline until no pass reports a change.  POPQC
        requires this for the well-behavedness property; the VOQC-role
        baseline runs with ``fixpoint=False``.
    max_iterations:
        Safety bound on fixpoint iterations (each productive iteration
        strictly shrinks the list or strictly reduces a bounded
        potential, so this should never bind in practice).
    engine:
        ``"python"`` (default) runs the in-place sweeps of
        :mod:`repro.oracles.rule_engine`; ``"vector"`` runs the numpy
        passes of :mod:`repro.oracles.vector_engine` on the packed
        layout, falling back to the python engine for segments outside
        the base gate set.  The two engines apply the same rules but in a
        different sweep order, so their outputs are equivalent (same
        unitary, both locally unimprovable) without being identical
        gate for gate.

    Attributes
    ----------
    deterministic:
        ``True``: the answer to a segment is a function of the segment
        alone — same gates in, same gates out, on every entry and in
        every process.  A ``popqc`` run relies on it to ask the oracle
        once per distinct segment and answer repeats from what it
        already has (see :data:`repro.core.popqc.OracleFn`).  A subclass
        whose answer depends on anything else must set it to ``False``.
    """

    deterministic = True

    def __init__(
        self,
        passes: Sequence[str] = DEFAULT_PASSES,
        *,
        fixpoint: bool = True,
        max_iterations: int = 10_000,
        engine: str = "python",
    ):
        unknown = [p for p in passes if p not in _PASS_TABLE]
        if unknown:
            raise ValueError(f"unknown passes: {unknown}")
        if engine not in ("python", "vector"):
            raise ValueError(
                f"unknown engine {engine!r}; expected 'python' or 'vector'"
            )
        self.passes = tuple(passes)
        self.fixpoint = fixpoint
        self.max_iterations = max_iterations
        self.engine = engine

    def __call__(self, gates: Sequence[Gate]) -> list[Gate]:
        if self.engine == "vector":
            from .vector_engine import VectorSegment

            vec = VectorSegment.from_gates(gates)
            if vec is not None:
                return self._run_vector(vec).to_gates()
        seg = WorkSegment.from_gates(gates)
        self._run(seg)
        return seg.gates()

    def run_packed(self, encoded: EncodedSegment) -> EncodedSegment:
        """Optimize a segment in the wire format, without a ``Gate``.

        The result is array for array ``encode_segment`` of what
        ``__call__`` returns on the decoded gates, and the input itself
        when no pass changed anything.
        """
        if self.engine == "vector":
            from .vector_engine import VectorSegment

            vec = VectorSegment.from_encoded(encoded)
            if vec is not None:
                return self._run_vector(vec).to_encoded()
        seg = WorkSegment.from_encoded(encoded)
        return seg.encoded() if self._run(seg) else encoded

    def run_ids(self, ids: np.ndarray, table: GateTable) -> np.ndarray:
        """Optimize a segment held as ``ids`` of ``table``; the result is
        ids of the same table (``ids`` itself when no pass changed
        anything).  A ``Gate`` is built only for a rewritten value the
        table has not seen — or, on the vector engine, for every gate.
        ``table`` may also be a claim round's
        :class:`~repro.circuits.intern.RowTable`."""
        seg = WorkSegment.from_ids(ids, table)
        if self.engine == "vector":
            out = self(seg.gates())
            values = [(gate.name, gate.qubits, gate.param) for gate in out]
            return np.array(table.value_ids(values), dtype=ids.dtype)
        return seg.ids(table, ids) if self._run(seg) else ids

    def _drive(self, steps: Sequence[Callable[[], bool]]) -> bool:
        """Run the pipeline ``steps`` (one call per pass, each returning
        whether it changed the engine's state) to completion; return
        whether any did.

        ``fixpoint=False`` is one ordered sweep.  The fixpoint is a
        circular worklist: passes run in pipeline order, wrapping
        around, until every pass in a row reports no change.  That is
        the pass sequence of "rerun the whole pipeline until a sweep is
        quiet" cut short — a pass that reports no change left the state
        as it was, so the passes it skips would all have been no-ops.
        """
        k = len(steps)
        if not self.fixpoint:
            return any([step() for step in steps])  # a list: every step runs
        changed = quiet = i = 0
        limit = self.max_iterations * k
        while quiet < k and i < limit:
            quiet = 0 if steps[i % k]() else quiet + 1
            changed |= quiet == 0
            i += 1
        return bool(changed)

    def _run(self, seg: WorkSegment) -> bool:
        """The in-place sweeps over one segment; whether any changed it."""
        return self._drive([partial(_PASS_TABLE[name], seg) for name in self.passes])

    def _run_vector(self, vec):
        """The vectorized pipeline on a :class:`VectorSegment`.

        The wire-occurrence structure is rebuilt only after a pass
        actually changed the segment, so quiescent passes share one
        build.
        """
        from .vector_engine import _occurrences

        occ = None

        def step(vpass) -> bool:
            nonlocal vec, occ
            if occ is None:
                occ = _occurrences(vec)
            vec, changed = vpass(vec, occ)
            if changed:
                occ = None
            return changed

        self._drive([partial(step, vpass) for vpass in _vector_pipeline(self.passes)])
        return vec

    def __repr__(self) -> str:  # pragma: no cover
        mode = "fixpoint" if self.fixpoint else "single-sweep"
        return (
            f"NamOracle({mode}, passes={list(self.passes)}, "
            f"engine={self.engine!r})"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NamOracle)
            and other.passes == self.passes
            and other.fixpoint == self.fixpoint
            and other.engine == self.engine
        )

    def __hash__(self) -> int:
        return hash((self.passes, self.fixpoint, self.engine))
