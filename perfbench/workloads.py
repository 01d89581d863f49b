"""The benchmark's four workloads over NN-Baton's two flows.

Each workload derives its inputs from the run seed, runs one *pass* of the
real public API per call, and returns what the pass did: its wall time, the
work items it covered with their latencies, and a digest of its answer.

* ``sweep-cold`` -- the pre-design Table II sweep (Fig. 15) over one
  computation tuple at stride 1, on a fresh mapping cache and checkpoint.
* ``sweep-warm`` -- the same slice against the cache a cold pass left behind.
* ``map-cold`` -- the post-design per-layer search of resnet50@512 and
  bert_base on the case-study machine, fresh cache.
* ``guided`` -- the seeded ask/tell search with a sqlite study and 2 workers.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from layertrace import Patches

MACS = 4096
AREA_MM2 = 3.0

#: Sweep-slice tuples the seed picks from: two 16-core, 16-lane
#: factorizations of 4096 MACs whose slices cost the same within a few
#: percent in interleaved runs, so the seed varies the input without
#: varying the amount of work.  (2-16-16-8 costs about 0.9x as much,
#: 1-16-16-16 about 0.7x.)
SWEEP_TUPLES = ((4, 16, 16, 4), (8, 16, 16, 2))
SWEEP_MODELS = ("alexnet",)

MAP_MODELS = ("resnet50@512", "bert_base")

GUIDED_MODELS = ("alexnet",)
GUIDED_TRIALS = 139
#: Sampler seeds the run seed picks from (each has a pinned answer).
GUIDED_SAMPLER_SEEDS = 16
GUIDED_JOBS = 2

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass
class PassResult:
    """What one pass did."""

    wall_s: float
    items: int
    failed: int
    digest: str
    latencies_ms: list[float]
    #: Footprint and output counts, taken outside the timed region.
    counts: dict[str, int] = field(default_factory=dict)


class ItemClock:
    """A ``progress=`` hook that timestamps each completed step.

    ``explore`` calls ``update(done, ...)`` once per completed point, and
    once per ask/tell round on the guided path.
    """

    def __init__(self) -> None:
        self.total: int | None = None
        self.marks: list[tuple[int, float]] = [(0, time.perf_counter())]

    def update(self, done: int, **_fields: Any) -> None:
        self.marks.append((done, time.perf_counter()))

    def latencies_ms(self, counted: list[bool]) -> list[float]:
        """Per-item latency: each step's time shared by the counted items it
        completed (a step that completed none passes its time on)."""
        latencies: list[float] = []
        carried = 0.0
        for (start, then), (done, now) in zip(self.marks, self.marks[1:]):
            carried += now - then
            items = sum(counted[start:done])
            if items:
                latencies.extend([carried * 1e3 / items] * items)
                carried = 0.0
        return latencies


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _point_row(point: Any) -> list:
    memory = point.hw.memory
    return [
        point.label,
        memory.a_l1_bytes,
        memory.w_l1_bytes,
        memory.o_l1_bytes,
        memory.a_l2_bytes,
        point.valid,
        sorted(point.energy_pj.items()),
        sorted(point.cycles.items()),
    ]


def sweep_digest(points: list) -> str:
    """Energy and cycles of every point, in sweep order."""
    return _digest([_point_row(point) for point in points])


def guided_digest(points: list, best: Any) -> str:
    """The trial sequence plus the recommended point."""
    return _digest(
        {
            "trials": [_point_row(point) for point in points],
            "best": None if best is None else _point_row(best),
        }
    )


def map_digest(results: list) -> str:
    """The winning mapping and cost of every layer."""
    from repro.core.serialize import mapping_to_dict

    return _digest(
        [
            [r.layer.name, mapping_to_dict(r.mapping), r.best.energy_pj, r.best.cycles]
            for r in results
        ]
    )


def _failed(point: Any) -> bool:
    """Whether the point's evaluation raised and came back as a task failure."""
    return bool(point.errors) and point.errors[0].startswith("evaluation failed")


def footprint(directory: Path) -> tuple[int, int]:
    """``(files, bytes)`` under ``directory`` (zero when it does not exist)."""
    files = size = 0
    for path in directory.rglob("*"):
        if path.is_file():
            files += 1
            size += path.stat().st_size
    return files, size


def load_models(names: tuple[str, ...]) -> dict[str, list]:
    from repro.workloads.registry import get_model

    return {name: get_model(name) for name in names}


def load_reference() -> dict[str, dict[str, str]]:
    return json.loads(REFERENCE_PATH.read_text())


class Workload:
    """One workload: inputs from the seed, then repeatable passes."""

    name = ""
    models: tuple[str, ...] = ()

    def __init__(self, seed: int, work: Path) -> None:
        self.work = work
        self._runs = 0

    @property
    def reference_key(self) -> str:
        """Which pinned answer this seed's inputs must reproduce."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def prepare(self) -> float:
        """Load the inputs; return the seconds of set-up users would pay."""
        self.inputs = load_models(self.models)
        return 0.0

    def run_pass(self, jobs: int | None = None) -> PassResult:
        raise NotImplementedError

    def _fresh_dir(self, label: str) -> Path:
        self._runs += 1
        path = self.work / f"{label}-{self._runs}"
        path.mkdir(parents=True)
        return path


class _Sweep(Workload):
    models = SWEEP_MODELS

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.tuple = SWEEP_TUPLES[seed % len(SWEEP_TUPLES)]

    @property
    def reference_key(self) -> str:
        return "-".join(str(v) for v in self.tuple)

    def describe(self) -> str:
        return (
            f"tuple {self.reference_key}, models {','.join(self.models)}, "
            f"stride 1, area {AREA_MM2} mm^2, minimal profile, jobs=1"
        )

    def _sweep(self, cache_dir: Path, checkpoint_dir: Path | None) -> PassResult:
        from repro.core import dse
        from repro.core.cache import CACHE_DIR_ENV
        from repro.core.space import SearchProfile

        n_p, n_c, lanes, vector = self.tuple
        space = dse.DesignSpace(
            chiplets=(n_p,), cores=(n_c,), lanes=(lanes,), vector_sizes=(vector,)
        )
        # Every point's mapper opens its own MappingCache on this store.
        os.environ[CACHE_DIR_ENV] = str(cache_dir)
        clock = ItemClock()
        try:
            start = time.perf_counter()
            points = dse.explore(
                self.inputs,
                MACS,
                space=space,
                max_chiplet_mm2=AREA_MM2,
                profile=SearchProfile.MINIMAL,
                memory_stride=1,
                jobs=1,
                checkpoint_dir=checkpoint_dir,
                progress=clock,
            )
            wall = time.perf_counter() - start
        finally:
            del os.environ[CACHE_DIR_ENV]
        files, size = footprint(cache_dir)
        counts = {
            "dse.points": len(points),
            "dse.points_valid": sum(1 for p in points if p.valid),
            "cache.files": files,
            "cache.bytes": size,
        }
        if checkpoint_dir is not None:
            counts["checkpoint.bytes"] = footprint(checkpoint_dir)[1]
        return PassResult(
            wall_s=wall,
            items=len(points),
            failed=sum(map(_failed, points)),
            digest=sweep_digest(points),
            latencies_ms=clock.latencies_ms([True] * len(points)),
            counts=counts,
        )


class SweepCold(_Sweep):
    """Enumeration, dedup, the kernel and the store's writes."""

    name = "sweep-cold"

    def run_pass(self, jobs: int | None = None) -> PassResult:
        cache_dir = self._fresh_dir("cache")
        checkpoint_dir = self._fresh_dir("checkpoint")
        try:
            return self._sweep(cache_dir, checkpoint_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
            shutil.rmtree(checkpoint_dir, ignore_errors=True)


class SweepWarm(_Sweep):
    """The cold slice's layers used for reads: disk gets, decode and rebuild."""

    name = "sweep-warm"
    store: Path | None = None

    def prepare(self) -> float:
        """Fill a fresh cache with one cold pass (part of set-up time)."""
        super().prepare()
        if self.store is not None:
            shutil.rmtree(self.store, ignore_errors=True)
        self.store = self._fresh_dir("store")
        start = time.perf_counter()
        self._sweep(self.store, None)
        return time.perf_counter() - start

    def run_pass(self, jobs: int | None = None) -> PassResult:
        return self._sweep(self.store, None)


class MapCold(Workload):
    """Per-candidate enumeration and dedup on one machine; no family reuse."""

    name = "map-cold"
    models = MAP_MODELS
    reference_key = "case-study"

    def describe(self) -> str:
        return f"models {','.join(self.models)}, case-study machine, exhaustive profile, jobs=1"

    def run_pass(self, jobs: int | None = None) -> PassResult:
        from repro.arch.config import case_study_hardware
        from repro.core import mapper
        from repro.core.cache import MappingCache
        from repro.core.space import SearchProfile

        cache_dir = self._fresh_dir("cache")
        latencies: list[float] = []
        search_layer = mapper.Mapper.search_layer

        def timed_search_layer(self: Any, layer: Any) -> Any:
            start = time.perf_counter()
            try:
                return search_layer(self, layer)
            finally:
                latencies.append((time.perf_counter() - start) * 1e3)

        results: list = []
        try:
            with Patches() as patches:
                # Times each layer at its own boundary, around the tracer's
                # wrapper when a traced pass installed one.
                patches.set(mapper.Mapper, "search_layer", timed_search_layer)
                start = time.perf_counter()
                search = mapper.Mapper(
                    hw=case_study_hardware(),
                    profile=SearchProfile.EXHAUSTIVE,
                    cache=MappingCache(cache_dir),
                )
                for layers in self.inputs.values():
                    results.extend(search.search_model(layers, jobs=1))
                wall = time.perf_counter() - start
            files, size = footprint(cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return PassResult(
            wall_s=wall,
            items=len(results),
            failed=0,
            digest=map_digest(results),
            latencies_ms=latencies,
            counts={"cache.files": files, "cache.bytes": size},
        )


class Guided(Workload):
    """The strategy, pruning bound, study store and process pool."""

    name = "guided"
    models = GUIDED_MODELS

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.sampler_seed = seed % GUIDED_SAMPLER_SEEDS
        self.best: Any = None

    @property
    def reference_key(self) -> str:
        return str(self.sampler_seed)

    def describe(self) -> str:
        return (
            f"sampler seed {self.sampler_seed}, {GUIDED_TRIALS} trials, models "
            f"{','.join(self.models)}, area {AREA_MM2} mm^2, fast profile, jobs={GUIDED_JOBS}"
        )

    def run_pass(self, jobs: int | None = None) -> PassResult:
        from repro.core import dse
        from repro.core.space import SearchProfile

        study_dir = self._fresh_dir("study")
        clock = ItemClock()
        try:
            start = time.perf_counter()
            points = dse.explore(
                self.inputs,
                MACS,
                max_chiplet_mm2=AREA_MM2,
                profile=SearchProfile.FAST,
                strategy="guided",
                trials=GUIDED_TRIALS,
                seed=self.sampler_seed,
                study=study_dir / "study.sqlite",
                jobs=GUIDED_JOBS if jobs is None else jobs,
                progress=clock,
            )
            wall = time.perf_counter() - start
            study_bytes = footprint(study_dir)[1]
        finally:
            shutil.rmtree(study_dir, ignore_errors=True)
        self.best = dse.best_point(points, GUIDED_MODELS[0])
        # An item is a trial charged to the budget: a full evaluation, or a
        # failed one.  Pruned and invalid proposals are not trials.
        trials = [bool(p.energy_pj) or _failed(p) for p in points]
        return PassResult(
            wall_s=wall,
            items=sum(trials),
            failed=sum(map(_failed, points)),
            digest=guided_digest(points, self.best),
            latencies_ms=clock.latencies_ms(trials),
            counts={
                "dse.points": len(points),
                "dse.points_valid": sum(1 for p in points if p.valid),
                "study.bytes": study_bytes,
            },
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SweepCold, SweepWarm, MapCold, Guided)
}
