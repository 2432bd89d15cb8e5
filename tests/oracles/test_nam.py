"""Tests for the Nam-style oracle (VOQC role)."""

import hashlib
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchgen import generate
from repro.circuits import RZ, H, X, random_redundant_circuit, to_qasm
from repro.core import popqc
from repro.oracles import (
    BASELINE_PASSES,
    DEFAULT_PASSES,
    EXTENDED_PASSES,
    NamOracle,
    cancellation_pass,
    check_well_behaved,
    cnot_chain_pass,
    hadamard_gadget_pass,
    hadamard_reduction_pass,
    remove_identities,
    resynthesis_pass,
    rotation_merge_pass,
)
from repro.sim import segments_equivalent

from ..conftest import gate_list_strategy


class TestConstruction:
    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="unknown passes"):
            NamOracle(["cancellation", "bogus"])

    def test_repr_shows_mode(self):
        assert "fixpoint" in repr(NamOracle())
        assert "single-sweep" in repr(NamOracle(fixpoint=False))

    def test_equality_and_hash(self):
        assert NamOracle() == NamOracle()
        assert NamOracle(fixpoint=False) != NamOracle()
        assert hash(NamOracle()) == hash(NamOracle())

    def test_picklable(self):
        oracle = NamOracle()
        clone = pickle.loads(pickle.dumps(oracle))
        assert clone == oracle
        assert clone([H(0), H(0)]) == []

    @pytest.mark.parametrize("engine", ["python", "vector"])
    def test_instance_state_is_the_four_parameters(self, engine):
        # The segment-cache / cluster namespace is
        # blake2b(pickle.dumps(oracle)): an attribute added to the
        # instance (a cached index, a compiled pipeline) would orphan
        # every existing disk cache, and one added *by a call* would
        # change the namespace mid-run.
        oracle = NamOracle(engine=engine)
        before = pickle.dumps(oracle)
        oracle(list(random_redundant_circuit(4, 60, seed=3).gates))
        assert set(vars(oracle)) == {"passes", "fixpoint", "max_iterations", "engine"}
        assert pickle.dumps(oracle) == before


class TestOptimization:
    def test_cancels_redundancy(self):
        out = NamOracle()([H(0), H(0), X(1), X(1)])
        assert out == []

    def test_combined_passes_cascade(self):
        # H X H -> RZ(pi), which then merges with an adjacent RZ(pi) to
        # the identity: requires hadamard reduction *and* rz merging.
        import math

        gates = [H(0), X(0), H(0), RZ(0, math.pi)]
        out = NamOracle()(gates)
        assert out == []

    def test_single_sweep_weaker_or_equal(self):
        c = random_redundant_circuit(4, 150, seed=0, redundancy=0.7)
        fix = NamOracle()(list(c.gates))
        single = NamOracle(BASELINE_PASSES, fixpoint=False)(list(c.gates))
        assert len(fix) <= len(single)

    @given(gate_list_strategy(num_qubits=4, max_gates=25))
    @settings(max_examples=25)
    def test_preserves_unitary(self, gates):
        out = NamOracle()(list(gates))
        assert segments_equivalent(gates, out)


class TestWellBehavedness:
    """Section 6: subsegments of oracle output must be unimprovable."""

    @pytest.mark.parametrize("seed", range(5))
    def test_fixpoint_oracle_well_behaved(self, seed):
        oracle = NamOracle()
        gates = list(random_redundant_circuit(4, 80, seed=seed).gates)
        assert check_well_behaved(oracle, gates, samples=30, seed=seed) == []

    def test_fixpoint_idempotent(self):
        oracle = NamOracle()
        gates = list(random_redundant_circuit(4, 100, seed=7).gates)
        once = oracle(gates)
        assert oracle(list(once)) == once


#: sha256 of to_qasm(popqc(generate(family, 0, seed=0), NamOracle(), omega)
#: .circuit), rounds and oracle calls, generated at the commit before the
#: rule engine moved to one work segment per call.  Cached segment results
#: (disk and cluster) stay valid only while these hold.
GOLDEN = {
    ("Grover", 25): ("693f0d6f0ef7f9f371de9a02db8df30daf410e2c923bfa6e658b15d3ea8e4d90", 10, 125),
    ("Grover", 100): ("584a8416f6889ea1193a35b886f36d38756ea48ece62514a9ffd14ad02459f58", 12, 42),
    ("Shor", 25): ("cfe0eaad2e7a7b3219fe1cefbe29d83d8e41ca77b4dbd5a21d488e4dfc7b5af9", 52, 267),
    ("Shor", 100): ("d11d7994b90690393588ac87e805b1769193b4efed9acf7e23631cf05236dd14", 26, 47),
    ("StateVec", 25): ("232ac2f15c2053ec6fb25b65b20c3d502bccb1c5f2dac7a8ebf49ae08d2a2d7b", 12, 134),
    ("StateVec", 100): ("c66d39803d3461d3e5c38f2de89c3fca9781474a16269e4573a8ae8a129c655b", 27, 63),
    ("VQE", 25): ("7b35c3a05d3ef707026bb5e086d50ed18d86eb8c1599e1ea0f21ef0f914a8cb3", 20, 196),
    ("VQE", 100): ("4c94c5cccc243d71adda6f12b6e18851482bdebbce95606f5875824373b32907", 11, 33),
}

LIST_PASSES = {
    "remove_identities": remove_identities,
    "cancellation": cancellation_pass,
    "hadamard_reduction": hadamard_reduction_pass,
    "hadamard_gadgets": hadamard_gadget_pass,
    "rotation_merge": rotation_merge_pass,
    "resynthesis": resynthesis_pass,
    "cnot_chain": cnot_chain_pass,
}


def rerun_until_quiet(passes, gates, fixpoint):
    """Reference driver: rerun the whole pipeline until a sweep is quiet."""
    while True:
        results = []
        for name in passes:
            gates, changed = LIST_PASSES[name](gates)
            results.append(changed)
        if not fixpoint or not any(results):
            return gates


class TestByteIdentity:
    @pytest.mark.parametrize("family,omega", sorted(GOLDEN))
    def test_popqc_output_matches_golden_digest(self, family, omega):
        result = popqc(generate(family, 0, seed=0), NamOracle(), omega)
        digest = hashlib.sha256(to_qasm(result.circuit).encode()).hexdigest()
        got = (digest, result.stats.rounds, result.stats.oracle_calls)
        assert got == GOLDEN[family, omega]

    @pytest.mark.parametrize(
        "passes,fixpoint",
        [(DEFAULT_PASSES, True), (EXTENDED_PASSES, True), (BASELINE_PASSES, False)],
        ids=["default", "extended", "baseline-single-sweep"],
    )
    @given(st.integers(0, 10**6), st.integers(3, 6), st.integers(0, 120))
    @settings(max_examples=25)
    def test_worklist_equals_rerun_until_quiet(
        self, passes, fixpoint, seed, qubits, length
    ):
        gates = list(random_redundant_circuit(qubits, length, seed=seed).gates)
        out = NamOracle(passes, fixpoint=fixpoint)(list(gates))
        assert out == rerun_until_quiet(passes, gates, fixpoint)
