"""The post-design flow: per-layer exhaustive mapping search (Section IV-D).

Given a fixed hardware configuration, the mapper enumerates the mapping space
(:mod:`repro.core.space`), evaluates every legal candidate with the C3P cost
engine and reports the energy-optimal strategy layer by layer -- "NN-Baton
provides a distinct mapping strategy layer-wise to minimize the overall
energy cost" (Section VI-A1).

Layers with identical shape share a mapping, so models with repeated blocks
(ResNet-50's bottlenecks) search each unique shape once.  The sharing is
backed by :class:`repro.core.cache.MappingCache`, which callers can inject
to reuse results across ``Mapper`` instances and (with a disk store) across
runs; unique shapes can also fan out over worker processes
(:mod:`repro.core.parallel`) via ``search_model(jobs=N)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.arch.config import HardwareConfig
from repro.core import batch
from repro.core.cache import MappingCache, cache_key, rebuild_record
from repro.core.cost import CostReport, InvalidMappingError, evaluate_mapping
from repro.core.mapping import Mapping
from repro.core.parallel import (
    SweepStats,
    TaskFailure,
    TaskPolicy,
    is_picklable,
    resolve_jobs,
    run_tasks,
    worker_context,
)
from repro.core.serialize import hardware_digest, mapping_to_dict
from repro.core.space import MappingSpace, SearchProfile
from repro.workloads.layer import ConvLayer

#: Objective functions the mapper can minimize.
Objective = Callable[[CostReport, HardwareConfig], float]


def energy_objective(report: CostReport, hw: HardwareConfig) -> float:
    """Minimize total layer energy (the paper's default)."""
    return report.energy_pj


def edp_objective(report: CostReport, hw: HardwareConfig) -> float:
    """Minimize the layer's energy-delay product."""
    return report.edp(hw)


@dataclass(frozen=True)
class LayerMappingResult:
    """The optimal mapping of one layer plus search statistics."""

    layer: ConvLayer
    best: CostReport
    candidates_evaluated: int
    candidates_invalid: int

    @property
    def mapping(self) -> Mapping:
        """The winning mapping."""
        return self.best.mapping


def _shape_key(layer: ConvLayer) -> tuple:
    """Layers with equal geometry share an optimal mapping."""
    return (
        layer.h,
        layer.w,
        layer.ci,
        layer.co,
        layer.kh,
        layer.kw,
        layer.stride,
        layer.padding,
        layer.groups,
    )


def _search_layer_task(layer: ConvLayer) -> LayerMappingResult:
    """Worker: search one layer with the context's (hw, profile, objective).

    Runs in a pool process and bypasses the cache; the parent's serial
    pass files the result under its own hit/miss accounting.
    """
    hw, profile, objective = worker_context()
    mapper = Mapper(hw=hw, profile=profile, objective=objective, cache=MappingCache())
    return mapper._search_fresh(layer)


@dataclass
class Mapper:
    """Exhaustive per-layer mapping search on one hardware instance.

    Attributes:
        hw: The fixed hardware configuration.
        profile: Mapping-space pruning profile.
        objective: Scalar objective to minimize (default: energy).
        cache: Mapping cache; injected instances are shared across mappers,
            the default honours ``REPRO_CACHE_DIR`` for an on-disk store.
        jobs: Default worker count for :meth:`search_model` (``None`` defers
            to ``REPRO_JOBS``, then serial).
        plans: A sweep's family-plan memo
            (:class:`~repro.core.batch.FamilyPlans`) to take each layer's
            candidate table and kernel prefix from; ``None`` (the default)
            enumerates every fresh search and retains nothing.
    """

    hw: HardwareConfig
    profile: SearchProfile = SearchProfile.EXHAUSTIVE
    objective: Objective = field(default=energy_objective)
    cache: MappingCache | None = None
    jobs: int | None = None
    plans: batch.FamilyPlans | None = None

    def __post_init__(self) -> None:
        self._space = MappingSpace(hw=self.hw, profile=self.profile)
        if self.cache is None:
            self.cache = MappingCache.from_env()
        self._hw_digest = hardware_digest(self.hw)
        self._objective_name = getattr(
            self.objective, "__name__", type(self.objective).__name__
        )
        # The batch kernel scores only the two known objectives; identity
        # (not name) equality, so a custom callable never takes the fast path.
        if self.objective is energy_objective:
            self._batch_objective: str | None = "energy_objective"
        elif self.objective is edp_objective:
            self._batch_objective = "edp_objective"
        else:
            self._batch_objective = None
        # Results searched ahead by the parallel prefetch, keyed like the
        # cache; the serial pass takes each one in place of a fresh search.
        self._prefetched: dict[str, LayerMappingResult] = {}

    def _key(self, layer: ConvLayer) -> str:
        """The cache key of one layer on this (hw, profile, objective)."""
        return cache_key(
            _shape_key(layer),
            self._hw_digest,
            self.profile.value,
            self._objective_name,
        )

    def _relabel(self, cached: LayerMappingResult, layer: ConvLayer) -> LayerMappingResult:
        """A cached result presented under the asking layer's name."""
        if cached.layer.name == layer.name:
            return cached
        return LayerMappingResult(
            layer=layer,
            best=cached.best,
            candidates_evaluated=cached.candidates_evaluated,
            candidates_invalid=cached.candidates_invalid,
        )

    def _rebuild(self, record: dict, layer: ConvLayer) -> LayerMappingResult | None:
        """Turn a disk record back into a result (one cost-model call).

        A record missing any required key is a cache miss, not a zero: a
        legacy record without ``evaluated``/``invalid`` would otherwise
        resurface with fabricated search statistics and under-report
        ``mapper.candidates.evaluated`` forever after a format change.
        """
        if not all(key in record for key in ("mapping", "evaluated", "invalid")):
            return None
        best = rebuild_record(record, layer, self.hw)
        if best is None:
            return None
        return LayerMappingResult(
            layer=layer,
            best=best,
            candidates_evaluated=int(record["evaluated"]),
            candidates_invalid=int(record["invalid"]),
        )

    def search_layer(self, layer: ConvLayer) -> LayerMappingResult:
        """Find the optimal mapping of one layer.

        Raises:
            InvalidMappingError: If no candidate is legal (a structurally
                impossible layer/hardware pair).
        """
        key = self._key(layer)
        cached = self.cache.get(key, rebuild=lambda rec: self._rebuild(rec, layer))
        if cached is not None:
            return self._relabel(cached, layer)

        result = self._prefetched.pop(key, None)
        if result is None:
            result = self._search_fresh(layer)
        else:
            result = self._relabel(result, layer)
        self.cache.put(
            key,
            result,
            record={
                "mapping": mapping_to_dict(result.mapping),
                "evaluated": result.candidates_evaluated,
                "invalid": result.candidates_invalid,
            },
        )
        return result

    def _search_fresh(self, layer: ConvLayer) -> LayerMappingResult:
        """The exhaustive candidate scan (cache-oblivious).

        The space comes back as a columnar
        :class:`~repro.core.space.CandidateTable`, taken with its kernel
        prefix from :attr:`plans` when the mapper belongs to a sweep.  The
        struct-of-arrays batch kernel (:mod:`repro.core.batch`) scores its
        columns in one numpy pass when it can guarantee bit-identity with
        the scalar loop (known objective, ``REPRO_BATCH_KERNEL`` not opted
        out); only the winner is rebuilt as a :class:`Mapping`, and its
        full :class:`CostReport` comes from a single scalar
        ``evaluate_mapping`` call.  Otherwise the scalar strict-``<`` scan
        below iterates the same table in the same order -- it stays the
        golden oracle either way (see
        ``tests/properties/test_batch_kernel.py``).

        Candidate counters are batched into one pair of ``obs.count`` calls
        after the scan, so the per-candidate hot loop carries no
        instrumentation at all.
        """
        best: CostReport | None = None
        best_score = float("inf")
        evaluated = 0
        invalid = 0
        search_start = time.perf_counter()
        with obs.span("mapper.search_fresh", layer=layer.name):
            if self.plans is None:
                candidates, prefix = self._space.unique_candidates(layer), None
            else:
                plan = self.plans.plan(self.hw, self.profile, layer)
                candidates, prefix = plan.table, plan.prefix
            outcome = None
            if batch.batch_kernel_enabled() and self._batch_objective is not None:
                outcome = batch.search_batch(
                    layer,
                    self.hw,
                    candidates,
                    objective=self._batch_objective,
                    prefix=prefix,
                )
            if outcome is not None:
                evaluated = outcome.evaluated
                invalid = outcome.invalid
                if outcome.best_index is not None:
                    best = evaluate_mapping(
                        layer, self.hw, candidates[outcome.best_index]
                    )
                obs.count("mapper.batch.searches")
                obs.count("mapper.batch.candidates", len(candidates))
            else:
                for mapping in candidates:
                    try:
                        report = evaluate_mapping(layer, self.hw, mapping)
                    except InvalidMappingError:
                        invalid += 1
                        continue
                    evaluated += 1
                    score = self.objective(report, self.hw)
                    if score < best_score:
                        best_score = score
                        best = report
        obs.count("mapper.candidates.evaluated", evaluated)
        obs.count("mapper.candidates.invalid", invalid)
        obs.count("mapper.searches.fresh")
        obs.histogram(
            "mapper.search_ms", (time.perf_counter() - search_start) * 1e3
        )
        if best is None:
            raise InvalidMappingError(
                f"no legal mapping for layer {layer.name!r} on {self.hw.label()}"
            )
        return LayerMappingResult(
            layer=layer,
            best=best,
            candidates_evaluated=evaluated,
            candidates_invalid=invalid,
        )

    def _prefetch(
        self,
        layers: list[ConvLayer],
        jobs: int,
        policy: TaskPolicy | None = None,
        stats: SweepStats | None = None,
    ) -> None:
        """Search uncached unique shapes in parallel ahead of the serial pass.

        Results land in ``_prefetched``, not the cache: the serial
        per-layer pass then counts each layer's lookup exactly as a
        ``jobs=1`` run does (the first of a shape misses, the rest hit) and
        files the prefetched result where it would have searched.

        Falls back to doing nothing (the serial per-layer path takes over)
        when fewer than two shapes are pending or the search context cannot
        cross a process boundary (e.g. a closure objective).  A shape whose
        task failed under ``policy.on_error="skip"`` is simply not
        prefetched -- the serial pass re-searches it in-process.
        """
        pending: dict[str, ConvLayer] = {}
        for layer in layers:
            key = self._key(layer)
            if key not in pending and not self.cache.contains(key):
                pending[key] = layer
        if len(pending) < 2:
            return
        context = (self.hw, self.profile, self.objective)
        if not is_picklable(context) or not is_picklable(list(pending.values())):
            return
        results = run_tasks(
            _search_layer_task,
            list(pending.values()),
            jobs=jobs,
            context=context,
            policy=policy,
            stats=stats,
        )
        for key, result in zip(pending, results):
            if not isinstance(result, TaskFailure):
                self._prefetched[key] = result

    def search_model(
        self,
        layers: list[ConvLayer],
        jobs: int | None = None,
        stats: SweepStats | None = None,
        policy: TaskPolicy | None = None,
    ) -> list[LayerMappingResult]:
        """Optimal mapping for every layer of a model.

        Args:
            layers: The model's layers (non-empty).
            jobs: Worker count for the unique-shape fan-out; ``None`` defers
                to the mapper default, then ``REPRO_JOBS``, then serial.
                Results are bit-identical at every worker count.
            stats: Optional instrumentation record to fill in place.
            policy: Timeout/retry contract for the parallel prefetch; a
                prefetch failure degrades to an in-process re-search.
        """
        if not layers:
            raise ValueError("layers must be non-empty")
        effective = resolve_jobs(jobs if jobs is not None else self.jobs)
        hits0, misses0 = self.cache.hits, self.cache.misses
        timer = stats.stage("search_model") if stats else None
        if timer:
            timer.__enter__()
        try:
            with obs.span("mapper.search_model", layers=len(layers), jobs=effective):
                if effective > 1:
                    self._prefetch(layers, effective, policy=policy, stats=stats)
                results = [self.search_layer(layer) for layer in layers]
        finally:
            self._prefetched.clear()
            if timer:
                timer.__exit__(None, None, None)
        obs.count("mapper.layers.searched", len(layers))
        self.cache.save()
        if stats is not None:
            stats.jobs = max(stats.jobs, effective)
            stats.points_total += len(layers)
            stats.points_evaluated += len(layers)
            stats.add_cache(
                self.cache.hits - hits0, self.cache.misses - misses0
            )
        return results


def map_model(
    layers: list[ConvLayer],
    hw: HardwareConfig,
    profile: SearchProfile = SearchProfile.EXHAUSTIVE,
    objective: Objective = energy_objective,
    jobs: int | None = None,
) -> list[LayerMappingResult]:
    """Convenience wrapper: search every layer of ``layers`` on ``hw``."""
    mapper = Mapper(hw=hw, profile=profile, objective=objective)
    return mapper.search_model(layers, jobs=jobs)
