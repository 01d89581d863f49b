"""Scalar-vs-batch candidate-evaluation throughput (the PR 7 kernel gate).

Times the same candidate list through both cost-model paths -- the scalar
``evaluate_mapping`` loop (the golden oracle) and the struct-of-arrays
numpy kernel (:mod:`repro.core.batch`) -- on representative AlexNet layers
under the selected search profile, and records candidates/second for both.
Enumeration (``MappingSpace.unique_candidates``, which builds and dedups
the columnar space) is timed as its own stage next to the kernel.
The acceptance gate is a >= 5x batch speedup on the fast profile; the two
paths must also agree on the winner, which is asserted here and proven
bit-for-bit by ``tests/properties/test_batch_kernel.py``.
"""

import time

from conftest import bench_profile
from repro.analysis.reporting import format_table
from repro.arch.config import case_study_hardware
from repro.core import batch
from repro.core.cost import InvalidMappingError, evaluate_mapping
from repro.core.space import MappingSpace
from repro.workloads.models import alexnet

#: The ISSUE 7 acceptance threshold (fast profile, candidate throughput).
MIN_SPEEDUP = 5.0

REPEATS = 3


def _scalar_pass(layer, hw, candidates):
    """The mapper's strict-< scan: winner index, evaluated count."""
    best_score, winner, evaluated = float("inf"), None, 0
    for index, mapping in enumerate(candidates):
        try:
            report = evaluate_mapping(layer, hw, mapping)
        except InvalidMappingError:
            continue
        evaluated += 1
        if report.energy_pj < best_score:
            best_score, winner = report.energy_pj, index
    return winner, evaluated


def _best_of(fn, *args):
    """Minimum wall time over REPEATS runs (and the last return value)."""
    best, value = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        value = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, value


def test_batch_kernel_throughput(record_bench):
    hw = case_study_hardware()
    profile = bench_profile()
    layers = alexnet(resolution=224, include_fc=False)
    space = MappingSpace(hw, profile)

    rows = []
    total_candidates = enum_time = scalar_time = batch_time = 0.0
    for layer in layers:
        t_enum, candidates = _best_of(space.unique_candidates, layer)
        if not candidates:
            continue
        mappings = list(candidates)
        t_scalar, (scalar_winner, _) = _best_of(_scalar_pass, layer, hw, mappings)
        t_batch, result = _best_of(batch.evaluate_batch, layer, hw, candidates)
        assert result.best_index("energy") == scalar_winner
        n = len(candidates)
        total_candidates += n
        enum_time += t_enum
        scalar_time += t_scalar
        batch_time += t_batch
        rows.append(
            [
                layer.name,
                str(n),
                f"{n / t_enum:,.0f}",
                f"{n / t_scalar:,.0f}",
                f"{n / t_batch:,.0f}",
                f"{t_scalar / t_batch:.1f}x",
            ]
        )

    scalar_cps = total_candidates / scalar_time
    batch_cps = total_candidates / batch_time
    speedup = scalar_time / batch_time
    rows.append(
        [
            "total",
            f"{total_candidates:.0f}",
            f"{total_candidates / enum_time:,.0f}",
            f"{scalar_cps:,.0f}",
            f"{batch_cps:,.0f}",
            f"{speedup:.1f}x",
        ]
    )
    table = format_table(
        ["Layer", "Candidates", "Enum cand/s", "Scalar cand/s", "Batch cand/s", "Speedup"],
        rows,
        title=(
            "Batch cost-model kernel -- candidate-evaluation throughput "
            f"({profile.value} profile, AlexNet conv layers)"
        ),
    )
    record_bench("batch_kernel", table)
    record_bench.values(
        enum_candidates_per_s=total_candidates / enum_time,
        scalar_candidates_per_s=scalar_cps,
        batch_candidates_per_s=batch_cps,
        speedup=speedup,
    )
    assert speedup >= MIN_SPEEDUP
