"""Shared helpers for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures: it prints
the same rows/series the paper reports and records them under
``benchmarks/results/`` so EXPERIMENTS.md can cite a concrete run.

Environment knobs:

* ``REPRO_BENCH_PROFILE`` -- mapping-search profile for the heavy benches
  (``exhaustive`` / ``fast`` / ``minimal``; default ``fast``).
* ``REPRO_FIG15_STRIDE`` -- memory-sweep subsampling for the Figure 15 DSE
  (default 4; 1 reproduces the full sweep and takes about two minutes).
* ``REPRO_JOBS`` -- worker processes for the DSE sweeps (default serial;
  ``0`` uses every core).  Sweep results are bit-identical at every count.
* ``REPRO_CACHE_DIR`` -- persist the mapping cache across runs.
* ``REPRO_BENCH_RECORD_DIR`` -- set by the ``repro bench`` CLI: the
  ``record_bench`` fixture appends one structured JSON fragment per test
  there (wall time, reproduced values, obs counters) for cross-run
  regression tracking.  See ``docs/observability.md``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core.parallel import resolve_jobs
from repro.core.space import SearchProfile
from repro.obs.bench import RECORD_DIR_ENV, BenchCapture

RESULTS_DIR = Path(__file__).parent / "results"


def bench_profile() -> SearchProfile:
    """The mapping-search profile selected via REPRO_BENCH_PROFILE."""
    name = os.environ.get("REPRO_BENCH_PROFILE", "fast").lower()
    return SearchProfile(name)


def fig15_stride() -> int:
    """Memory-sweep stride for the Figure 15 DSE."""
    return int(os.environ.get("REPRO_FIG15_STRIDE", "4"))


def bench_jobs() -> int:
    """Worker-process count for the sweep benches (REPRO_JOBS, default 1)."""
    return resolve_jobs(None)


@pytest.fixture
def record(request):
    """Print a reproduced table/figure and persist it under results/."""

    def _record(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _record


@pytest.fixture
def record_json(request):
    """Persist a JSON artifact under results/ (e.g. the audit report)."""
    import json

    def _record(name: str, payload) -> Path:
        RESULTS_DIR.mkdir(exist_ok=True)
        target = RESULTS_DIR / f"{name}.json"
        target.write_text(json.dumps(payload, indent=2) + "\n")
        return target

    return _record


@pytest.fixture
def record_bench(request):
    """The structured successor of ``record``: ``.txt`` plus a bench record.

    Calling the fixture writes the legacy ``.txt`` artifact byte-identically
    to ``record`` (and echoes it); ``record_bench.values(r_squared=...)``
    attaches scalar reproduced numbers, and ``record_bench.json(name, ...)``
    mirrors ``record_json``.  Under ``repro bench`` (REPRO_BENCH_RECORD_DIR
    set) the test body additionally runs under a live obs recorder and its
    wall time, values and counters are appended as one JSON fragment for
    the CLI to fold into ``BENCH_<gitsha>.json``.
    """
    capture = BenchCapture(
        node_id=request.node.nodeid,
        results_dir=RESULTS_DIR,
        record_dir=os.environ.get(RECORD_DIR_ENV) or None,
    )
    with capture:
        yield capture
