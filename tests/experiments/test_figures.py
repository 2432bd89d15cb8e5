"""Smoke + shape tests for the figure drivers (tiny workloads)."""

import pytest

from repro.experiments import (
    run_figure3,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
    run_figure8,
    run_figure9,
)

FAMS = ["HHL", "VQE"]


class TestFigure3:
    def test_speedup_monotone_in_workers(self):
        curves, text = run_figure3(
            families=FAMS, size_index=0, workers=(1, 2, 8, 64)
        )
        assert "Figure 3" in text
        for c in curves:
            assert c.speedups[0] == pytest.approx(1.0, abs=0.05)
            for a, b in zip(c.speedups, c.speedups[1:]):
                assert b >= a - 0.05  # non-decreasing within noise


class TestFigure4:
    def test_rounds_reported(self):
        points, text = run_figure4(families=FAMS, small_index=0, large_index=1)
        assert "Figure 4" in text
        for p in points:
            assert p.rounds_small >= 1
            assert p.gates_large > p.gates_small


class TestFigure5:
    def test_speedup_points(self):
        points, text = run_figure5(families=FAMS, size_indices=(0,), workers=16)
        assert "Figure 5" in text
        for p in points:
            assert p.speedup >= 0.9


class TestFigure6:
    def test_depth_aware_beats_gate_cost_on_depth(self):
        rows, text = run_figure6(families=["VQE"], size_indices=(0,), omega=20)
        assert "Figure 6" in text
        (r,) = rows
        # mixed cost optimizes depth at least as well as gate-count cost
        assert r.mixed_cost_depth_reduction >= r.gate_cost_depth_reduction - 0.05


class TestFigure7:
    def test_linear_oracle_calls(self):
        points, text = run_figure7(families=["VQE"], size_indices=(0, 1))
        assert "Figure 7" in text
        small, large = points
        ratio_calls = large.oracle_calls / max(1, small.oracle_calls)
        ratio_gates = large.gates / small.gates
        # oracle calls grow roughly linearly with size (Lemma 2)
        assert ratio_calls < 3.5 * ratio_gates


class TestFigure8:
    def test_oracle_dominates(self):
        """A point per family, each a share of a run that called the
        oracle.  How large the share is (the paper: > 90 % at scale) is
        two wall clocks on 0.1 s runs: ``benchmarks/test_figure8.py``
        records it for ``check_bench_trend.py --shapes``."""
        points, text = run_figure8(families=FAMS, size_indices=(0,))
        assert "Figure 8" in text
        assert sorted(p.family for p in points) == sorted(FAMS)
        for p in points:
            assert 0.0 < p.oracle_fraction < 1.0
            assert p.family in text


class TestFigure9:
    def test_omega_sweep(self):
        points, text = run_figure9(
            families=["VQE"], size_index=0, omegas=(10, 40, 160)
        )
        assert "Figure 9" in text
        assert [p.omega for p in points] == [10, 40, 160]
        # quality is non-decreasing in omega (locality widens)
        reductions = [p.avg_reduction for p in points]
        assert reductions[-1] >= reductions[0] - 0.02
