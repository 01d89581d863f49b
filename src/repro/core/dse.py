"""The pre-design flow: chiplet granularity and resource-allocation DSE.

Implements the two Section VI-B studies:

* :func:`granularity_study` (Figure 14) -- with a required total MAC count,
  enumerate every (chiplets, cores, lanes, vector-size) factorization,
  assemble buffers proportional to the computation resources, and report the
  optimal implementation per chiplet count with and without a per-chiplet
  area constraint, plus the EDP winner.
* :func:`explore` (Figure 15) -- sweep the full Table II space (computation
  dimensions x memory footprints), prune invalid points ("such as the A-L1
  size smaller than A-L2 or the total MAC units less than the required
  quantities"), and evaluate energy/runtime of every valid design with the
  optimal per-layer mapping.

Table II reproduction note: the published O-L1 range (48-144 B) is read as a
per-lane register budget (the case-study machine's 1.5 KB O-L1 across 8
lanes is 192 B/lane, the same order); DESIGN.md section 5 records this
interpretation.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro import obs
from repro.arch.area import AreaModel
from repro.arch.config import HardwareConfig, MemoryConfig, build_hardware
from repro.arch.technology import DEFAULT_TECHNOLOGY, TechnologyParams
from repro.arch.topology import Topology
from repro.arch.validate import validation_errors
from repro.core.batch import FamilyPlans
from repro.core.checkpoint import SweepCheckpoint, sweep_digest, task_key
from repro.core.cost import InvalidMappingError, model_cost
from repro.core.mapper import Mapper
from repro.core.parallel import (
    SweepStats,
    TaskFailure,
    TaskPolicy,
    is_picklable,
    resolve_jobs,
    run_tasks,
    worker_context,
)
from repro.core.space import SearchProfile
from repro.workloads.layer import ConvLayer

KB = 1024

#: Completed points per ``point.batch`` event.  Emitted parent-side per
#: fixed batch of completions (never per worker chunk), so the event set
#: of a ``--jobs N`` sweep equals the serial run's.
POINT_BATCH_EVERY = 16


@dataclass(frozen=True)
class DesignSpace:
    """The Table II exploration space.

    Computation resources are the published option lists; memory footprints
    are sampled within the published ranges (powers of two plus the
    case-study anchors).
    """

    vector_sizes: tuple[int, ...] = (2, 4, 8, 16)
    lanes: tuple[int, ...] = (2, 4, 8, 16)
    cores: tuple[int, ...] = (1, 2, 4, 8, 16)
    chiplets: tuple[int, ...] = (1, 2, 4, 8)
    o_l1_per_lane_bytes: tuple[int, ...] = (48, 96, 144)
    a_l1_kb: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)
    w_l1_kb: tuple[float, ...] = (2, 4, 8, 18, 36, 72, 144, 256)
    a_l2_kb: tuple[float, ...] = (32, 64, 128, 256)

    def computation_configs(
        self, total_macs: int | None = None
    ) -> list[tuple[int, int, int, int]]:
        """All (chiplets, cores, lanes, vector) tuples, optionally filtered
        to an exact total MAC budget.

        For 2048 MACs this yields the paper's "up to 63 possibilities".
        """
        configs = []
        for n_p, n_c, lane, vec in itertools.product(
            self.chiplets, self.cores, self.lanes, self.vector_sizes
        ):
            if total_macs is None or n_p * n_c * lane * vec == total_macs:
                configs.append((n_p, n_c, lane, vec))
        return configs

    def memory_configs(self, lanes: int) -> Iterator[MemoryConfig]:
        """Every memory combination for a core with ``lanes`` lanes.

        Skips hierarchy inversions (A-L2 smaller than A-L1) up front, the
        paper's explicit pruning example.
        """
        for o_l1_pl, a_l1, w_l1, a_l2 in itertools.product(
            self.o_l1_per_lane_bytes, self.a_l1_kb, self.w_l1_kb, self.a_l2_kb
        ):
            if a_l2 < a_l1:
                continue
            yield MemoryConfig(
                a_l1_bytes=int(a_l1 * KB),
                w_l1_bytes=int(w_l1 * KB),
                o_l1_bytes=o_l1_pl * lanes,
                a_l2_bytes=int(a_l2 * KB),
            )

    def sweep_size(self, total_macs: int | None = None) -> int:
        """Number of (computation, memory) points before validity pruning."""
        total = 0
        mem_per_lane = (
            len(self.o_l1_per_lane_bytes) * len(self.w_l1_kb)
        ) * sum(1 for a1 in self.a_l1_kb for a2 in self.a_l2_kb if a2 >= a1)
        total = len(self.computation_configs(total_macs)) * mem_per_lane
        return total


@dataclass
class DesignPoint:
    """One evaluated hardware design.

    Attributes:
        hw: The hardware instance.
        chiplet_area_mm2: Area of one chiplet.
        valid: Whether the point passed structural validation.
        errors: Validation messages when invalid.
        energy_pj: Per-model total energy (model name -> pJ).
        cycles: Per-model total cycles.
    """

    hw: HardwareConfig
    chiplet_area_mm2: float
    valid: bool
    errors: tuple[str, ...] = ()
    energy_pj: dict[str, float] = field(default_factory=dict)
    cycles: dict[str, int] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """The (chiplet, core, lane, vector) tuple label."""
        return self.hw.label()

    def runtime_s(self, model: str) -> float:
        """Model runtime in seconds."""
        return self.cycles[model] * self.hw.tech.cycle_time_ns() * 1e-9

    def edp(self, model: str) -> float:
        """Model energy-delay product in joule-seconds."""
        return self.energy_pj[model] * 1e-12 * self.runtime_s(model)

    def meets_area(self, max_chiplet_mm2: float) -> bool:
        """Whether the chiplet fits the area budget."""
        return self.chiplet_area_mm2 <= max_chiplet_mm2


def _evaluate_point(
    hw: HardwareConfig,
    models: dict[str, list[ConvLayer]],
    profile: SearchProfile,
    plans: FamilyPlans | None = None,
) -> tuple[dict[str, float], dict[str, int], tuple[int, int]]:
    """Optimal-mapping energy and cycles of every model on ``hw``.

    Returns the per-model energy and cycle dicts plus the mapping-cache
    (hits, misses) counters of the point's search.  The layer search runs
    serially (``jobs=1``): sweep-level parallelism fans out across design
    points, and nesting pools inside pool workers is never a win.
    ``plans`` is the sweep's family-plan memo, when it has one.
    """
    energy: dict[str, float] = {}
    cycles: dict[str, int] = {}
    mapper = Mapper(hw=hw, profile=profile, plans=plans)
    for name, layers in models.items():
        results = mapper.search_model(layers, jobs=1)
        breakdown, total_cycles, _ = model_cost([r.best for r in results], hw)
        energy[name] = breakdown.total_pj
        cycles[name] = total_cycles
    return energy, cycles, (mapper.cache.hits, mapper.cache.misses)


def _make_point(
    hw: HardwareConfig,
    models: dict[str, list[ConvLayer]],
    profile: SearchProfile,
    required_macs: int | None = None,
    max_chiplet_mm2: float | None = None,
    plans: FamilyPlans | None = None,
) -> tuple[DesignPoint, bool, int, int]:
    """Validate and (when structurally valid) evaluate one design point.

    Returns ``(point, structurally_valid, cache_hits, cache_misses)``; the
    flag lets :func:`explore` re-apply ``max_valid_points`` in deterministic
    sweep order after a parallel fan-out.
    """
    errors = validation_errors(
        hw,
        required_macs=required_macs,
        max_chiplet_area_mm2=max_chiplet_mm2,
    )
    area = AreaModel(hw).chiplet_area_mm2()
    point = DesignPoint(
        hw=hw,
        chiplet_area_mm2=area,
        valid=not errors,
        errors=tuple(errors),
    )
    hits = misses = 0
    structural = point.valid
    if point.valid:
        eval_start = time.perf_counter()
        try:
            point.energy_pj, point.cycles, (hits, misses) = _evaluate_point(
                hw, models, profile, plans
            )
        except InvalidMappingError as exc:
            point.valid = False
            point.errors = (str(exc),)
        obs.histogram(
            "dse.point_eval_ms", (time.perf_counter() - eval_start) * 1e3
        )
    return point, structural, hits, misses


def _granularity_task(config: tuple[int, int, int, int]):
    """Worker: one Figure 14 factorization (context: models, profile, tech)."""
    models, profile, tech = worker_context()
    n_p, n_c, lane, vec = config
    hw = build_hardware(n_p, n_c, lane, vec, tech=tech)
    return _make_point(hw, models, profile)


def _explore_task(task: tuple[int, int, int, int, MemoryConfig]):
    """Worker: one Figure 15 (computation, memory) sweep point.

    The context is :func:`_sweep_context`'s; its family-plan memo lives as
    long as the context does (the sweep, or one pool's worker).
    """
    models, profile, tech, required_macs, max_chiplet_mm2, topology, plans = (
        worker_context()
    )
    n_p, n_c, lane, vec, memory = task
    hw = build_hardware(
        n_p, n_c, lane, vec, memory=memory, tech=tech, topology=topology
    )
    return _make_point(
        hw,
        models,
        profile,
        required_macs=required_macs,
        max_chiplet_mm2=max_chiplet_mm2,
        plans=plans,
    )


def _sweep_context(
    models: dict[str, list[ConvLayer]],
    profile: SearchProfile,
    tech: TechnologyParams,
    required_macs: int,
    max_chiplet_mm2: float | None,
    topology: Topology,
) -> tuple:
    """The shared context of a sweep's :func:`_explore_task` calls.

    Carries a fresh :class:`~repro.core.batch.FamilyPlans`, so a sweep's
    points share family plans and the memo goes when the sweep ends.
    """
    plans = FamilyPlans()
    return (models, profile, tech, required_macs, max_chiplet_mm2, topology, plans)


def _failed_point(
    hw: HardwareConfig, failure: TaskFailure
) -> DesignPoint:
    """The invalid design point recorded for a task that exhausted retries."""
    return DesignPoint(
        hw=hw,
        chiplet_area_mm2=AreaModel(hw).chiplet_area_mm2(),
        valid=False,
        errors=(
            f"evaluation failed ({failure.error_type}) after "
            f"{failure.attempts} attempt(s): {failure.error}",
        ),
    )


def _label_failures(
    stats: SweepStats | None,
    fail_start: int,
    local_to_global: Sequence[int],
    labels: Sequence[str],
) -> None:
    """Rewrite run-local failure indices/labels into sweep terms."""
    if stats is None:
        return
    for pos in range(fail_start, len(stats.failures)):
        failure = stats.failures[pos]
        if failure.index < len(local_to_global):
            index = local_to_global[failure.index]
            stats.failures[pos] = replace(
                failure, index=index, label=labels[index]
            )


def granularity_study(
    models: dict[str, list[ConvLayer]],
    total_macs: int = 2048,
    space: DesignSpace | None = None,
    profile: SearchProfile = SearchProfile.FAST,
    tech: TechnologyParams = DEFAULT_TECHNOLOGY,
    jobs: int | None = None,
    stats: SweepStats | None = None,
    policy: TaskPolicy | None = None,
) -> list[DesignPoint]:
    """The Figure 14 study: every factorization of ``total_macs``.

    Buffers are assembled proportionally to the computation resources; every
    point is evaluated on every model with the optimal mapping strategy.
    Invalid points (structural rule violations) are returned unevaluated so
    callers can report the pruning.

    Args:
        models: Benchmarks to evaluate (name -> layers).
        total_macs: Exact MAC budget of every factorization.
        space: Exploration space (defaults to Table II).
        profile: Mapping-search profile per point.
        tech: Technology point.
        jobs: Worker processes fanning factorizations out (``None`` defers
            to ``REPRO_JOBS``, then serial); results are bit-identical at
            every worker count.
        stats: Optional instrumentation record filled in place.
        policy: Timeout/retry/on-error contract for the fan-out (defaults
            to abort-on-first-failure).
    """
    space = space or DesignSpace()
    jobs = resolve_jobs(jobs)
    context = (models, profile, tech)
    if jobs > 1 and not is_picklable(context):
        jobs = 1
    tasks = space.computation_configs(total_macs)
    if stats is not None:
        stats.jobs = max(stats.jobs, jobs)
        stats.points_total += len(tasks)
    fail_start = len(stats.failures) if stats is not None else 0
    timer = stats.stage("granularity") if stats else None
    if timer:
        timer.__enter__()
    try:
        outcomes = run_tasks(
            _granularity_task,
            tasks,
            jobs=jobs,
            context=context,
            policy=policy,
            stats=stats,
        )
    finally:
        if timer:
            timer.__exit__(None, None, None)
    labels = ["-".join(str(v) for v in config) for config in tasks]
    _label_failures(stats, fail_start, list(range(len(tasks))), labels)
    points: list[DesignPoint] = []
    for index, outcome in enumerate(outcomes):
        if isinstance(outcome, TaskFailure):
            hw = build_hardware(*tasks[index], tech=tech)
            point, hits, misses = _failed_point(hw, outcome), 0, 0
        else:
            point, _structural, hits, misses = outcome
        if stats is not None:
            stats.add_cache(hits, misses)
            if point.valid:
                stats.points_evaluated += 1
        points.append(point)
    obs.count("dse.points.total", len(points))
    obs.count("dse.points.evaluated", sum(1 for p in points if p.valid))
    obs.count("dse.points.invalid", sum(1 for p in points if not p.valid))
    return points


def best_point(
    points: Iterable[DesignPoint],
    model: str,
    objective: str = "edp",
    max_chiplet_mm2: float | None = None,
    max_runtime_s: float | None = None,
) -> DesignPoint | None:
    """The optimal evaluated point for ``model`` under optional budgets.

    Args:
        points: Candidate design points.
        model: Model name key into each point's results.
        objective: ``"edp"``, ``"energy"`` or ``"runtime"``.
        max_chiplet_mm2: Per-chiplet area constraint, if any.
        max_runtime_s: Performance budget -- points slower than this on
            ``model`` are excluded ("given area and performance budgets",
            Section IV-D).
    """
    scorers = {
        "edp": lambda p: p.edp(model),
        "energy": lambda p: p.energy_pj[model],
        "runtime": lambda p: p.runtime_s(model),
    }
    if objective not in scorers:
        raise ValueError(f"unknown objective {objective!r}")
    eligible = [
        p
        for p in points
        if p.valid
        and model in p.energy_pj
        and (max_chiplet_mm2 is None or p.meets_area(max_chiplet_mm2))
        and (max_runtime_s is None or p.runtime_s(model) <= max_runtime_s)
    ]
    if not eligible:
        return None
    return min(eligible, key=scorers[objective])


def _sweep_tasks(
    space: DesignSpace, required_macs: int, memory_stride: int
) -> list[tuple[int, int, int, int, MemoryConfig]]:
    """The stride-filtered (computation, memory) task list, in sweep order."""
    tasks = []
    for n_p, n_c, lane, vec in space.computation_configs(required_macs):
        for index, memory in enumerate(space.memory_configs(lane)):
            if index % memory_stride:
                continue
            tasks.append((n_p, n_c, lane, vec, memory))
    return tasks


def _record_from_outcome(
    outcome: tuple[DesignPoint, bool, int, int]
) -> dict:
    """The JSON-safe checkpoint record of one completed sweep outcome."""
    point, structural, hits, misses = outcome
    return {
        "structural": structural,
        "hits": hits,
        "misses": misses,
        "valid": point.valid,
        "errors": list(point.errors),
        "area": point.chiplet_area_mm2,
        "energy_pj": point.energy_pj,
        "cycles": point.cycles,
    }


def _outcome_from_record(
    task: tuple[int, int, int, int, MemoryConfig],
    record: dict,
    tech: TechnologyParams,
    topology: Topology = Topology.RING,
) -> tuple[DesignPoint, bool, int, int] | None:
    """Rebuild a sweep outcome from its checkpoint record.

    Returns ``None`` on any malformed record, so the point is simply
    re-evaluated rather than poisoning a resumed run.
    """
    try:
        n_p, n_c, lane, vec, memory = task
        hw = build_hardware(
            n_p, n_c, lane, vec, memory=memory, tech=tech, topology=topology
        )
        point = DesignPoint(
            hw=hw,
            chiplet_area_mm2=float(record["area"]),
            valid=bool(record["valid"]),
            errors=tuple(str(e) for e in record["errors"]),
            energy_pj={str(k): float(v) for k, v in record["energy_pj"].items()},
            cycles={str(k): int(v) for k, v in record["cycles"].items()},
        )
        return (
            point,
            bool(record["structural"]),
            int(record["hits"]),
            int(record["misses"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError):
        return None


def explore(
    models: dict[str, list[ConvLayer]],
    required_macs: int,
    space: DesignSpace | None = None,
    max_chiplet_mm2: float | None = None,
    topology: Topology = Topology.RING,
    profile: SearchProfile = SearchProfile.FAST,
    tech: TechnologyParams = DEFAULT_TECHNOLOGY,
    max_valid_points: int | None = None,
    memory_stride: int = 1,
    jobs: int | None = None,
    stats: SweepStats | None = None,
    policy: TaskPolicy | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    checkpoint_every: int = 16,
    strategy: str = "exhaustive",
    trials: int | None = None,
    study: str | Path | None = None,
    seed: int = 0,
    primary_model: str | None = None,
    progress: Any | None = None,
) -> list[DesignPoint]:
    """The Figure 15 full design-space exploration.

    Sweeps every (computation, memory) combination of ``space`` whose total
    MAC count equals ``required_macs``, prunes invalid points cheaply, and
    evaluates the survivors with the optimal per-layer mapping.

    With ``strategy="guided"`` the exhaustive sweep is replaced by the
    ask/tell optimizer of :func:`repro.core.search.guided_explore`: only
    ``trials`` full evaluations are paid, dominance-pruned and invalid
    proposals come back as labelled ``valid=False`` points, and ``study``
    (a sqlite file) makes the search resumable.  The exhaustive default
    is byte-for-byte the pre-guided behaviour.

    Args:
        models: Benchmarks to evaluate (name -> layers).
        required_macs: Exact MAC budget (4096 in the paper's Figure 15).
        space: Exploration space (defaults to Table II).
        max_chiplet_mm2: Points over this area are kept but marked invalid,
            mirroring the paper's constrained/unconstrained split.
        topology: Package interconnect every swept machine uses (the
            paper's directional ring by default; mesh/switch let the sweep
            answer "does the winning granularity survive a fabric change").
        profile: Mapping-search profile for each valid point.
        max_valid_points: Optional cap on evaluated points (sweep still
            counts the rest as valid-but-unevaluated=False for reporting).
        memory_stride: Evaluate every ``memory_stride``-th memory combo --
            a documented subsampling knob for quick runs.
        jobs: Worker processes fanning sweep points out (``None`` defers to
            ``REPRO_JOBS``, then serial).  Returned points are bit-identical
            at every worker count: the cap is re-applied in sweep order, so
            parallel runs with ``max_valid_points`` trade wasted evaluations
            beyond the cap for wall-clock speed.
        stats: Optional instrumentation record filled in place.
        policy: Timeout/retry/on-error contract for the fan-out (defaults
            to abort-on-first-failure, the pre-resilience semantics).
        checkpoint_dir: When set, completed design points stream to a
            :class:`~repro.core.checkpoint.SweepCheckpoint` under this
            directory, keyed by the sweep digest; the checkpoint is also
            flushed when the sweep is interrupted (``KeyboardInterrupt``).
        resume: Skip every point already answered by the checkpoint (the
            same ``checkpoint_dir`` must be supplied); resumed outputs are
            byte-identical to an uninterrupted run.
        checkpoint_every: Completed points buffered per checkpoint flush.
        strategy: ``"exhaustive"`` (default) or ``"guided"``.
        trials: Guided only -- the full-evaluation budget (required).
        study: Guided only -- optional sqlite study path for resume.
        seed: Guided only -- sampler seed (same seed, same trajectory).
        primary_model: Guided only -- the model whose EDP the search
            minimizes (defaults to the first ``models`` entry).
        progress: Optional :class:`repro.obs.progress.ProgressMeter`
            updated per completed point (stderr only; never stdout).
    """
    if strategy not in ("exhaustive", "guided"):
        raise ValueError(
            f"unknown strategy {strategy!r}; expected 'exhaustive' or 'guided'"
        )
    if strategy == "guided":
        if checkpoint_dir is not None or resume:
            raise ValueError(
                "guided search persists through --study, not the sweep "
                "checkpoint; drop checkpoint_dir/resume"
            )
        if max_valid_points is not None:
            raise ValueError(
                "guided search budgets with trials, not max_valid_points"
            )
        if memory_stride != 1:
            raise ValueError(
                "guided search samples the full memory lattice; "
                "memory_stride must stay 1"
            )
        if trials is None:
            raise ValueError("strategy='guided' requires a trials budget")
        from repro.core.search import guided_explore

        return guided_explore(
            models,
            required_macs,
            space=space,
            max_chiplet_mm2=max_chiplet_mm2,
            topology=topology,
            profile=profile,
            tech=tech,
            trials=trials,
            seed=seed,
            study=study,
            primary_model=primary_model,
            jobs=jobs,
            stats=stats,
            policy=policy,
            progress=progress,
        )
    if trials is not None or study is not None:
        raise ValueError(
            "trials/study only apply to strategy='guided'"
        )
    if memory_stride < 1:
        raise ValueError(f"memory_stride must be >= 1, got {memory_stride}")
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires a checkpoint_dir")
    space = space or DesignSpace()
    jobs = resolve_jobs(jobs)
    context = _sweep_context(
        models, profile, tech, required_macs, max_chiplet_mm2, topology
    )
    if jobs > 1 and not is_picklable(context):
        jobs = 1
    tasks = _sweep_tasks(space, required_macs, memory_stride)
    if stats is not None:
        stats.jobs = max(stats.jobs, jobs)
        stats.points_total += len(tasks)
    fail_start = len(stats.failures) if stats is not None else 0
    keys = [task_key(task) for task in tasks]

    checkpoint: SweepCheckpoint | None = None
    resumed: dict[int, tuple[DesignPoint, bool, int, int]] = {}
    if checkpoint_dir is not None:
        checkpoint = SweepCheckpoint(
            SweepCheckpoint.resolve_dir(checkpoint_dir),
            sweep_digest(
                models,
                required_macs,
                space,
                max_chiplet_mm2,
                profile,
                tech,
                memory_stride,
                topology=topology.value,
            ),
            flush_every=checkpoint_every,
        )
        if resume:
            stored = checkpoint.load()
            for index, key in enumerate(keys):
                record = stored.get(key)
                if record is None:
                    continue
                outcome = _outcome_from_record(
                    tasks[index], record, tech, topology=topology
                )
                if outcome is not None:
                    resumed[index] = outcome
            if resumed:
                obs.count("dse.points.resumed", len(resumed))
                if stats is not None:
                    stats.points_resumed += len(resumed)
        else:
            checkpoint.reset()

    pending = [index for index in range(len(tasks)) if index not in resumed]
    pending_tasks = [tasks[index] for index in pending]

    obs.event("run.start", op="explore", points=len(tasks))

    if progress is not None and getattr(progress, "total", None) is None:
        # The CLI cannot know the sweep size before the space is built.
        progress.total = len(pending_tasks)

    # Completion telemetry, parent-side so the event set is identical at
    # every --jobs N: one point.batch per POINT_BATCH_EVERY completions
    # (fields depend only on the completion *count*, not on order), plus
    # the live progress meter when one is attached.
    done = 0
    live_hits = 0
    live_misses = 0

    def _note_done(outcome: Any) -> None:
        nonlocal done, live_hits, live_misses
        done += 1
        if not isinstance(outcome, TaskFailure):
            _, _, hits, misses = outcome
            live_hits += hits
            live_misses += misses
        if done % POINT_BATCH_EVERY == 0 or done == len(pending_tasks):
            obs.event("point.batch", done=done, total=len(pending_tasks))
        if progress is not None:
            lookups = live_hits + live_misses
            extra = {"cache": live_hits / lookups} if lookups else {}
            progress.update(done, **extra)

    def _on_result(local_index: int, outcome) -> None:
        _note_done(outcome)
        if checkpoint is None or isinstance(outcome, TaskFailure):
            return
        checkpoint.record(
            keys[pending[local_index]], _record_from_outcome(outcome)
        )

    timer = stats.stage("explore") if stats else None
    if timer:
        timer.__enter__()
    try:
        if (
            jobs == 1
            and max_valid_points is not None
            and policy is None
            and checkpoint is None
        ):
            pending_outcomes = _explore_serial_capped(
                pending_tasks, context, max_valid_points, on_done=_note_done
            )
        else:
            pending_outcomes = run_tasks(
                _explore_task,
                pending_tasks,
                jobs=jobs,
                context=context,
                policy=policy,
                stats=stats,
                on_result=_on_result,
            )
    finally:
        if timer:
            timer.__exit__(None, None, None)
        if checkpoint is not None:
            # Flush whatever completed -- also on KeyboardInterrupt/SIGINT,
            # so an interrupted sweep can resume from here.  After the
            # stage timer: the flush is recovery I/O, not search time, and
            # an interrupted run's event log ends on ``checkpoint.flush``.
            checkpoint.flush()
    _label_failures(stats, fail_start, pending, keys)

    outcomes: list[Any] = [None] * len(tasks)
    for index, outcome in resumed.items():
        outcomes[index] = outcome
    for local_index, outcome in enumerate(pending_outcomes):
        outcomes[pending[local_index]] = outcome

    # Re-apply the evaluation cap in deterministic sweep order.  A parallel
    # run evaluates every structurally valid point, then demotes successes
    # beyond the cap to the exact "skipped" records the serial walk emits.
    points: list[DesignPoint] = []
    evaluated = 0
    for index, outcome in enumerate(outcomes):
        if isinstance(outcome, TaskFailure):
            n_p, n_c, lane, vec, memory = tasks[index]
            hw = build_hardware(
                n_p, n_c, lane, vec, memory=memory, tech=tech, topology=topology
            )
            point, structural, hits, misses = (
                _failed_point(hw, outcome),
                False,
                0,
                0,
            )
        else:
            point, structural, hits, misses = outcome
        if stats is not None:
            stats.add_cache(hits, misses)
        if structural:
            if max_valid_points is not None and evaluated >= max_valid_points:
                # Once the cap is reached the serial walk never evaluates, so
                # even points whose parallel evaluation failed become the
                # same "skipped" record here.
                point.valid = False
                point.errors = ("skipped: max_valid_points reached",)
                point.energy_pj = {}
                point.cycles = {}
            elif point.valid:
                evaluated += 1
        points.append(point)
    if stats is not None:
        stats.points_evaluated += evaluated
    obs.count("dse.points.total", len(points))
    obs.count("dse.points.evaluated", evaluated)
    obs.count("dse.points.invalid", sum(1 for p in points if not p.valid))
    obs.event(
        "run.finish", op="explore", points=len(points), evaluated=evaluated
    )
    return points


def _explore_serial_capped(
    tasks: Sequence[tuple[int, int, int, int, MemoryConfig]],
    context: tuple,
    max_valid_points: int,
    on_done: Callable[[Any], None] | None = None,
) -> list[tuple[DesignPoint, bool, int, int]]:
    """Serial sweep that stops evaluating once the cap is reached.

    Matches the parallel path's output exactly while never paying for
    evaluations beyond ``max_valid_points`` -- the cheap-skip behaviour the
    pre-parallel implementation had.
    """
    models, profile, tech, required_macs, max_chiplet_mm2, topology, plans = context
    outcomes: list[tuple[DesignPoint, bool, int, int]] = []
    evaluated = 0
    for n_p, n_c, lane, vec, memory in tasks:
        hw = build_hardware(
            n_p, n_c, lane, vec, memory=memory, tech=tech, topology=topology
        )
        errors = validation_errors(
            hw,
            required_macs=required_macs,
            max_chiplet_area_mm2=max_chiplet_mm2,
        )
        area = AreaModel(hw).chiplet_area_mm2()
        point = DesignPoint(
            hw=hw,
            chiplet_area_mm2=area,
            valid=not errors,
            errors=tuple(errors),
        )
        hits = misses = 0
        structural = point.valid
        if point.valid and evaluated < max_valid_points:
            try:
                point.energy_pj, point.cycles, (hits, misses) = _evaluate_point(
                    hw, models, profile, plans
                )
                evaluated += 1
            except InvalidMappingError as exc:
                point.valid = False
                point.errors = (str(exc),)
        elif point.valid:
            # Beyond the cap: the shared post-walk in explore() stamps the
            # canonical "skipped" record; leave the point unevaluated.
            pass
        outcomes.append((point, structural, hits, misses))
        if on_done is not None:
            on_done(outcomes[-1])
    return outcomes


def refine_with_simulator(
    points: Sequence[DesignPoint],
    models: dict[str, list[ConvLayer]],
    primary_model: str,
    top_k: int = 5,
    profile: SearchProfile = SearchProfile.FAST,
) -> list[DesignPoint]:
    """Re-rank the EDP finalists with discrete-event-simulated runtimes.

    The analytical cycle count ignores DRAM/ring bandwidth; for the ``top_k``
    EDP-best valid points, this re-runs the mapping search, simulates every
    layer's pipeline (:func:`repro.sim.simulate_runtime`) and replaces the
    cycle totals, then returns the finalists re-sorted by simulated EDP.
    Simulated cycles are never below the analytical ones, so refinement can
    only demote bandwidth-starved designs.

    Args:
        points: Evaluated design points (e.g. from :func:`explore`).
        models: The same benchmarks the points were evaluated on.
        primary_model: Model whose EDP picks and orders the finalists.
        top_k: Finalist count.
        profile: Mapping-search profile for the re-run.
    """
    from repro.sim.runtime import simulate_runtime

    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    finalists = sorted(
        (p for p in points if p.valid and primary_model in p.energy_pj),
        key=lambda p: p.edp(primary_model),
    )[:top_k]
    refined: list[DesignPoint] = []
    for point in finalists:
        mapper = Mapper(hw=point.hw, profile=profile)
        cycles: dict[str, int] = {}
        for name, layers in models.items():
            total = 0.0
            for result in mapper.search_model(layers):
                sim = simulate_runtime(result.layer, point.hw, result.mapping)
                total += sim.cycles
            cycles[name] = int(total)
        refined.append(
            DesignPoint(
                hw=point.hw,
                chiplet_area_mm2=point.chiplet_area_mm2,
                valid=point.valid,
                errors=point.errors,
                energy_pj=dict(point.energy_pj),
                cycles=cycles,
            )
        )
    return sorted(refined, key=lambda p: p.edp(primary_model))


def pareto_front(
    points: Sequence[DesignPoint], model: str
) -> list[DesignPoint]:
    """Area/EDP Pareto-optimal subset for one model (lower is better)."""
    evaluated = [p for p in points if p.valid and model in p.energy_pj]
    front: list[DesignPoint] = []
    for candidate in evaluated:
        dominated = any(
            other.chiplet_area_mm2 <= candidate.chiplet_area_mm2
            and other.edp(model) <= candidate.edp(model)
            and (
                other.chiplet_area_mm2 < candidate.chiplet_area_mm2
                or other.edp(model) < candidate.edp(model)
            )
            for other in evaluated
        )
        if not dominated:
            front.append(candidate)
    return sorted(front, key=lambda p: p.chiplet_area_mm2)
