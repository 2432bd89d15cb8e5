"""Table 3: POPQC (1 thread) vs OAC with the same oracle.

Paper shape: equal quality (both locally optimal, within 0.3%), with
POPQC faster on all but the smallest instances thanks to the index
tree replacing OAC's quadratic cut/meld/compress data movement.
"""

from repro.experiments import run_table3


def test_table3(benchmark, bench_families, bench_sizes):
    rows, text = benchmark.pedantic(
        run_table3,
        kwargs=dict(size_indices=bench_sizes, families=bench_families),
        iterations=1,
        rounds=1,
    )
    for r in rows:
        # local optimality on both sides implies near-identical quality
        assert abs(r.oac_reduction - r.popqc_reduction) < 0.05
        assert r.oac_time > 0 and r.popqc_time > 0


def test_table3_popqc_overtakes_with_size(benchmark):
    """VQE at size 0 and size 2: the same quality on both sides at both
    sizes; the OAC/POPQC time ratios — the paper's claim is that the
    large one is the greater — are two wall clocks each, so they are
    recorded (``extra_info``, printed by ``check_bench_trend.py
    --shapes``), not asserted."""

    def run():
        # min-of-3 per side: the small instance runs in ~25 ms, where one
        # scheduler or GC hiccup mid-suite is a 40 % error on the ratio
        return [run_table3(size_indices=(0, 2), families=["VQE"])[0] for _ in range(3)]

    samples = benchmark.pedantic(run, iterations=1, rounds=1)
    for rows in samples:
        small, large = rows
        assert small.gates < large.gates
        for r in rows:
            assert abs(r.oac_reduction - r.popqc_reduction) < 0.05
            assert r.oac_time > 0 and r.popqc_time > 0
    # the reductions are deterministic: every sample reads the same
    reductions = [[(r.oac_reduction, r.popqc_reduction) for r in rows] for rows in samples]
    assert reductions[1:] == reductions[:-1]
    small, large = (
        min(r.oac_time for r in rows) / min(r.popqc_time for r in rows)
        for rows in zip(*samples)
    )
    assert small > 0 and large > 0
    benchmark.extra_info["oac_over_popqc_time_ratio"] = {
        "small": small,
        "large": large,
    }
