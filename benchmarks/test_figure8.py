"""Figure 8: fraction of time spent inside the oracle.

Paper shape: oracle calls consume most of the runtime (>90% at scale
with VOQC as the oracle), i.e. the administrative machinery (fingers,
index tree, substitution) is cheap.  The share is a ratio of two wall
clocks and falls when the oracle gets faster: 87-93 % before the
one-index rule engine, 66-79 % after on an idle machine and down to
~50 % mid-suite.  So the shares are computed and recorded per point
(``extra_info``, printed by ``check_bench_trend.py --shapes``) and
tier-1 asserts only what does not depend on the clock.
"""

from repro.experiments import run_figure8


def test_figure8(benchmark, bench_families):
    points, text = benchmark.pedantic(
        run_figure8,
        kwargs=dict(families=bench_families, size_indices=(0, 1)),
        iterations=1,
        rounds=1,
    )
    # a share is computed for every point: a fraction of a run that did
    # call the oracle
    for p in points:
        assert 0.0 < p.oracle_fraction < 1.0
    by_family: dict[str, list] = {}
    for p in points:
        by_family.setdefault(p.family, []).append(p)
    assert sorted(by_family) == sorted(bench_families)
    for pts in by_family.values():
        pts.sort(key=lambda p: p.gates)
        assert len(pts) == 2 and pts[0].gates < pts[1].gates
    # the paper's shape (a share above one half that rises, or holds,
    # with size), smallest instance first
    benchmark.extra_info["oracle_fraction_by_size"] = {
        family: [round(p.oracle_fraction, 4) for p in pts]
        for family, pts in by_family.items()
    }
    assert all(family in text for family in by_family)
