"""Outside-in per-layer tracing of the ``repro`` stack.

The tracer replaces each layer's public entry point *where its caller looks
it up* (a module attribute such as ``repro.core.mapper.evaluate_mapping``,
or a method on its class) with a timing wrapper, and puts every original
back on exit.  Nothing under ``src/`` is edited.

A span's self time is its duration minus the time of the traced spans it
encloses, so the self times of all spans plus the ``unattributed`` residue
add up to the traced wall time.  Counts are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable

_MISSING = object()

#: Per-layer metric name -> the spans whose self time it sums.
TIME_METRICS = {
    "space.enum_s": ("space.unique_candidates",),
    "space.dedup_s": ("space.congruence_key",),
    "batch.eval_s": ("batch.evaluate_batch",),
    "cost.winner_s": ("cost.evaluate_mapping",),
    "mapper.self_s": (
        "mapper.init",
        "mapper.search_model",
        "mapper.search_layer",
        "mapper.search_fresh",
    ),
    "cache.get_s": ("cache.get",),
    "cache.save_s": ("cache.save",),
    "cache.rebuild_s": ("cache.rebuild_record",),
    "durable.write_s": ("durable.atomic_write", "durable.durable_append"),
    "checkpoint.flush_s": ("checkpoint.record", "checkpoint.flush", "checkpoint.reset"),
    "dse.self_s": ("dse.explore", "dse.make_point"),
    "arch.validate_s": ("arch.validation_errors",),
    "search.ask_s": ("search.ask",),
    "search.tell_s": ("search.tell",),
    "search.bound_s": ("search.edp_lower_bound",),
    "study.write_s": ("study.open", "study.record", "study.flush", "study.close"),
    "executor.run_s": ("executor.run_tasks",),
    "obs.self_s": ("obs.call",),
}

#: Count metric name -> the spans whose calls it sums.
CALL_METRICS = {
    "space.calls": ("space.unique_candidates",),
    "space.candidates": ("space.congruence_key",),
    "mapper.fresh": ("mapper.search_fresh",),
    "cost.winner_calls": ("cost.evaluate_mapping",),
    "durable.writes": ("durable.atomic_write", "durable.durable_append"),
    "checkpoint.flushes": ("checkpoint.flush",),
    "obs.calls": ("obs.call",),
}


#: Every per-layer metric a traced run reports, in report order.  Metrics
#: a workload does not exercise read 0.
PER_LAYER = (
    "space.enum_s", "space.dedup_s", "space.candidates", "space.unique",
    "space.unique_ratio", "space.calls", "space.family_repeat",
    "batch.eval_s", "batch.rows", "batch.valid_ratio", "batch.rows_per_s",
    "cost.winner_s", "cost.winner_calls",
    "mapper.self_s", "mapper.fresh",
    "cache.get_s", "cache.save_s", "cache.rebuild_s", "cache.hits",
    "cache.disk_hits", "cache.misses", "cache.hit_ratio", "cache.files", "cache.bytes",
    "durable.write_s", "durable.writes",
    "checkpoint.flush_s", "checkpoint.flushes", "checkpoint.bytes",
    "dse.self_s", "dse.points", "dse.points_valid", "arch.validate_s",
    "search.ask_s", "search.tell_s", "search.bound_s", "search.proposed",
    "search.evaluated", "search.pruned", "search.eval_ratio",
    "study.write_s", "study.bytes",
    "executor.run_s", "executor.tasks", "executor.parallel_eff",
    "obs.calls", "obs.self_s",
    "trace.unattributed_s", "trace.overhead_frac",
)


def unit_of(name: str) -> str:
    """The unit of a per-layer metric; ``count`` marks an exact count."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", "_eff", "_repeat")):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


def _layer_shape(layer: Any) -> tuple:
    return (
        layer.h, layer.w, layer.ci, layer.co, layer.kh, layer.kw,
        layer.stride, layer.padding, layer.groups,
    )


def _probe_unique(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    space = args[0]
    layer = args[1] if len(args) > 1 else kwargs["layer"]
    tracer.counts["space.unique"] += len(result)
    hw = space.hw
    tracer.families.add(
        (
            _layer_shape(layer),
            hw.config_tuple(),
            hw.memory.o_l1_bytes,
            hw.memory.a_l1_bytes,
            space.profile.value,
            hw.topology.value,
        )
    )


def _probe_batch(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    candidates = args[2] if len(args) > 2 else kwargs["candidates"]
    tracer.counts["batch.rows"] += len(candidates)
    tracer.counts["batch.valid_rows"] += result.evaluated


def _probe_get(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["cache.hits" if result is not None else "cache.misses"] += 1


def _probe_rebuild(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    if result is not None:
        tracer.counts["cache.disk_hits"] += 1


def _probe_run_tasks(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["executor.tasks"] += len(result)


def _probe_ask(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["search.proposed"] += len(result)


def _probe_tell(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    trials = args[1] if len(args) > 1 else kwargs["trials"]
    for trial in trials:
        tracer.counts[f"search.{trial.status}"] += 1


def targets() -> list[tuple[str, Any, str, Callable | None]]:
    """Every wrapped call site: ``(span, owner, attribute, probe)``.

    ``owner`` is the module or class the caller looks the name up on, so
    a function imported by name into several modules is wrapped in each.
    """
    from repro import durable, obs
    from repro.core import batch, dse, mapper, search
    from repro.core.cache import MappingCache
    from repro.core.checkpoint import SweepCheckpoint
    from repro.core.space import MappingSpace

    sites: list[tuple[str, Any, str, Callable | None]] = [
        ("dse.explore", dse, "explore", None),
        ("dse.make_point", dse, "_make_point", None),
        ("arch.validation_errors", dse, "validation_errors", None),
        ("arch.validation_errors", search, "validation_errors", None),
        ("executor.run_tasks", dse, "run_tasks", _probe_run_tasks),
        ("executor.run_tasks", search, "run_tasks", _probe_run_tasks),
        ("executor.run_tasks", mapper, "run_tasks", _probe_run_tasks),
        ("mapper.init", mapper.Mapper, "__post_init__", None),
        ("mapper.search_model", mapper.Mapper, "search_model", None),
        ("mapper.search_layer", mapper.Mapper, "search_layer", None),
        ("mapper.search_fresh", mapper.Mapper, "_search_fresh", None),
        ("cost.evaluate_mapping", mapper, "evaluate_mapping", None),
        ("space.unique_candidates", MappingSpace, "unique_candidates", _probe_unique),
        ("space.congruence_key", MappingSpace, "congruence_key", None),
        ("batch.evaluate_batch", batch, "evaluate_batch", _probe_batch),
        ("cache.get", MappingCache, "get", _probe_get),
        ("cache.put", MappingCache, "put", None),
        ("cache.save", MappingCache, "save", None),
        ("cache.rebuild_record", mapper, "rebuild_record", _probe_rebuild),
        ("durable.atomic_write", durable, "atomic_write", None),
        ("durable.durable_append", durable, "durable_append", None),
        ("checkpoint.record", SweepCheckpoint, "record", None),
        ("checkpoint.flush", SweepCheckpoint, "flush", None),
        ("checkpoint.reset", SweepCheckpoint, "reset", None),
        ("search.guided_explore", search, "guided_explore", None),
        ("search.ask", search.GuidedStrategy, "ask", _probe_ask),
        ("search.tell", search.GuidedStrategy, "tell", _probe_tell),
        ("search.edp_lower_bound", search, "edp_lower_bound", None),
        ("study.open", search.Study, "__init__", None),
        ("study.record", search.Study, "record", None),
        ("study.flush", search.Study, "flush", None),
        ("study.close", search.Study, "close", None),
    ]
    for name in ("span", "count", "gauge", "histogram", "event"):
        sites.append(("obs.call", obs, name, None))
    return sites


class Patches:
    """Replace attributes for the duration of a ``with`` block, then restore them.

    Class attributes are restored from the class ``__dict__`` (an inherited
    attribute is deleted again), so descriptors come back exactly as they were.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attribute: str, value: Any) -> None:
        if isinstance(owner, type):
            original = owner.__dict__.get(attribute, _MISSING)
        else:
            original = getattr(owner, attribute)
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()


class Tracer:
    """Span self/inclusive times and counts for one traced pass.

    Use as a context manager: entering wraps every :func:`targets` site,
    leaving restores the originals.
    """

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.families: set[tuple] = set()
        self._children: list[float] = []
        self._patches = Patches()

    def wrap(self, span: str, fn: Callable, probe: Callable | None = None) -> Callable:
        """``fn`` timed as ``span``; ``probe(tracer, args, kwargs, result)`` counts."""
        children = self._children
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            children.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                self_s[span] += elapsed - inner
                total_s[span] += elapsed
                calls[span] += 1
                if children:
                    children[-1] += elapsed
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for span, owner, attribute, probe in targets():
            original = getattr(owner, attribute)
            self._patches.set(owner, attribute, self.wrap(span, original, probe))
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._patches.restore()

    def attributed_s(self) -> float:
        """Self time summed over every span."""
        return sum(self.self_s.values())

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics this pass's spans and counts define."""
        metrics = {
            name: sum(self.self_s.get(span, 0.0) for span in spans)
            for name, spans in TIME_METRICS.items()
        }
        for name, spans in CALL_METRICS.items():
            metrics[name] = sum(self.calls[span] for span in spans)
        counts = self.counts
        candidates = metrics["space.candidates"]
        rows = counts["batch.rows"]
        lookups = counts["cache.hits"] + counts["cache.misses"]
        proposed = counts["search.proposed"]
        metrics.update(
            {
                "space.unique": counts["space.unique"],
                "space.unique_ratio": counts["space.unique"] / candidates if candidates else 0.0,
                "space.family_repeat": (
                    metrics["space.calls"] / len(self.families) if self.families else 0.0
                ),
                "batch.rows": rows,
                "batch.valid_ratio": counts["batch.valid_rows"] / rows if rows else 0.0,
                "batch.rows_per_s": rows / metrics["batch.eval_s"] if rows else 0.0,
                "cache.hits": counts["cache.hits"],
                "cache.disk_hits": counts["cache.disk_hits"],
                "cache.misses": counts["cache.misses"],
                "cache.hit_ratio": counts["cache.hits"] / lookups if lookups else 0.0,
                "executor.tasks": counts["executor.tasks"],
                "search.proposed": proposed,
                "search.evaluated": counts["search.evaluated"],
                "search.pruned": counts["search.pruned"],
                "search.eval_ratio": counts["search.evaluated"] / proposed if proposed else 0.0,
            }
        )
        return metrics

    def table(self, wall_s: float) -> list[str]:
        """The per-span self-time table, ``unattributed`` as its own row."""
        rows = sorted(self.self_s.items(), key=lambda item: -item[1])
        lines = [f"  {'span':<26} {'calls':>9} {'self_s':>10} {'share':>7}"]
        for span, seconds in rows:
            lines.append(
                f"  {span:<26} {self.calls[span]:>9} {seconds:>10.4f} "
                f"{seconds / wall_s:>7.2%}"
            )
        rest = wall_s - self.attributed_s()
        lines.append(f"  {'unattributed':<26} {'':>9} {rest:>10.4f} {rest / wall_s:>7.2%}")
        lines.append(f"  {'traced wall':<26} {'':>9} {wall_s:>10.4f} {1:>7.2%}")
        return lines
