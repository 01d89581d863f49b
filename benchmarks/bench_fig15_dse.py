"""Figure 15: full design-space exploration for 4096-MAC accelerators.

Regenerates the area-vs-EDP scatter for the three benchmarks (VGG-16@512,
ResNet-50@512, DarkNet-19@224) over the Table II space under a 3 mm^2
chiplet area constraint, and reports the per-benchmark optimum's computation
and memory allocation.

The full memory sweep takes about two minutes on one core; the default run
subsamples it with REPRO_FIG15_STRIDE=4 (the structural sweep size is
reported either way).
"""

from conftest import bench_jobs, fig15_stride
from repro.analysis.experiments import fig15_data
from repro.analysis.reporting import format_scatter, format_search_stats, format_table
from repro.core.parallel import SweepStats


def test_fig15_design_space(benchmark, record_bench):
    stats = SweepStats()
    data = benchmark.pedantic(
        fig15_data,
        kwargs={
            "memory_stride": fig15_stride(),
            "jobs": bench_jobs(),
            "stats": stats,
        },
        rounds=1,
        iterations=1,
    )
    valid = data.valid_points
    models = list(valid[0].energy_pj) if valid else []

    sections = [
        format_search_stats(stats),
        f"Figure 15 -- 4096-MAC DSE: {data.swept} sweep points (paper: >100,000), "
        f"{len(valid)} valid evaluated at stride {fig15_stride()} (paper: ~5,800), "
        f"chiplet area constraint {data.area_constraint_mm2} mm^2",
    ]
    opt_rows = []
    for model in models:
        optimum = data.optimum(model)
        mem = optimum.hw.memory
        opt_rows.append(
            [
                model,
                optimum.label,
                f"{optimum.chiplet_area_mm2:.2f}",
                f"{mem.a_l1_bytes // 1024}KB",
                f"{mem.w_l1_bytes // 1024}KB",
                f"{mem.a_l2_bytes // 1024}KB",
                f"{optimum.edp(model):.3e}",
            ]
        )
        scatter = format_scatter(
            [
                (p.chiplet_area_mm2, p.edp(model), str(p.hw.n_chiplets))
                for p in valid
            ],
            width=68,
            height=16,
            x_label="chiplet area mm^2",
            y_label=f"EDP (Js) [{model}] glyph = chiplet count",
        )
        sections.append(scatter)
    sections.insert(
        1,
        format_table(
            ["Benchmark", "Optimum", "Area", "A-L1", "W-L1", "A-L2", "EDP (Js)"],
            opt_rows,
            title="Per-benchmark optimum under the area constraint",
        ),
    )
    record_bench("fig15", "\n\n".join(sections))
    record_bench.values(
        swept=float(data.swept),
        valid_points=float(len(valid)),
        points_evaluated=float(stats.points_evaluated),
    )

    # Paper claims on the regenerated series:
    assert valid, "the sweep must evaluate some valid designs"
    # (1) validity is a small fraction of the sweep (paper: ~5.8%).
    assert len(valid) < 0.5 * data.swept / fig15_stride()
    # (2) the computation allocation of the optimum is shared across the
    #     benchmarks ("the optimal resource allocation for computing highly
    #     depends on the area constraint"): at most two distinct tuples.
    optimum_labels = [data.optimum(m).label for m in models]
    assert len(set(optimum_labels)) <= 2, optimum_labels
    # (3) the memory allocations differ per benchmark ("memory allocation is
    #     sensitive to the target model").
    optimum_memories = {
        (
            data.optimum(m).hw.memory.a_l1_bytes,
            data.optimum(m).hw.memory.w_l1_bytes,
            data.optimum(m).hw.memory.a_l2_bytes,
        )
        for m in models
    }
    assert len(optimum_memories) >= 2
    # (4) designs with fewer chiplets trend toward larger area / lower EDP:
    #     the mean chiplet area of 1-2 chiplet designs exceeds that of 4-8.
    small = [p.chiplet_area_mm2 for p in valid if p.hw.n_chiplets <= 2]
    large = [p.chiplet_area_mm2 for p in valid if p.hw.n_chiplets >= 4]
    if small and large:
        assert sum(small) / len(small) > sum(large) / len(large)
