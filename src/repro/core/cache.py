"""Persistent mapping cache for the sweep-scale search paths.

The DSE sweeps (:mod:`repro.core.dse`) evaluate thousands of hardware points
and every model layer on each of them, yet the search space is heavily
redundant: models repeat layer shapes (ResNet-50's bottlenecks), and sweeps
repeat hardware points across runs.  This module memoizes
:meth:`repro.core.mapper.Mapper.search_layer` results behind a key that
captures everything the search depends on:

``(layer shape, hardware digest, search profile, objective)``

Two tiers back the cache:

* an **in-memory** dict -- always on, shared across ``Mapper`` instances
  when callers inject one cache object;
* an optional **on-disk JSON store** under ``.repro_cache/`` (or the
  directory named by ``REPRO_CACHE_DIR``) holding the *winning mapping* of
  each entry, serialized with :mod:`repro.core.serialize`.  On a disk hit
  the single stored mapping is re-evaluated (one cost-model call instead of
  a full search), so results are bit-identical to a fresh search.

Hit/miss counters feed the instrumentation surfaced by the CLI and
:func:`repro.analysis.reporting.format_search_stats`.

Robustness: concurrent :meth:`MappingCache.save` calls serialize through a
per-digest ``fcntl`` lock file, so two sweeps flushing the same machine
cannot lose each other's entries; corrupt or version-mismatched files are
quarantined (renamed ``<file>.corrupt-<ts>``) rather than silently
shadowing the store, and stale temp files left by crashed writers are swept
on a process's first save to the directory.
"""

from __future__ import annotations

import json
import logging
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro import durable, obs
from repro.arch.config import HardwareConfig
from repro.core import parallel
from repro.core.serialize import hardware_digest, mapping_from_dict
from repro.errors import ConfigError

logger = logging.getLogger("repro.cache")

#: Environment variable naming the on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable capping the on-disk store size (bytes, LRU evicted).
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

#: Default directory name for the on-disk store (under the working dir).
DEFAULT_CACHE_DIRNAME = ".repro_cache"

#: On-disk schema version; bump to invalidate every stored entry.
CACHE_FORMAT_VERSION = 1


# Monotonic flush counter consulted by the corrupt-cache fault injector
# (process-local, so injected corruption is deterministic per run).
_flush_index = 0

# (pid, directory) pairs whose stale temp files this process has swept.
# Module-level because every sweep point opens its own MappingCache.
_swept_dirs: set[tuple[int, Path]] = set()


def _max_cache_bytes() -> int | None:
    """The ``REPRO_CACHE_MAX_BYTES`` budget, or ``None`` when uncapped.

    Raises:
        ConfigError: When the variable is set to anything but a
            non-negative integer.
    """
    raw = os.environ.get(CACHE_MAX_BYTES_ENV, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{CACHE_MAX_BYTES_ENV} must be a byte count, got {raw!r}"
        ) from None
    if value < 0:
        raise ConfigError(
            f"{CACHE_MAX_BYTES_ENV} must be >= 0, got {value}"
        )
    return value


@contextmanager
def _digest_lock(path: Path) -> Iterator[None]:
    """An exclusive advisory lock guarding one digest file's read-merge-write.

    Serializes concurrent :meth:`MappingCache.save` calls against the same
    digest so neither loses the other's entries.  Degrades to unlocked
    operation where ``fcntl`` (or the lock file) is unavailable.
    """
    if fcntl is None:
        yield
        return
    lock_path = path.with_name(path.name + ".lock")
    try:
        handle = open(lock_path, "a+")
    except OSError as exc:
        if durable.is_resource_error(exc):
            durable.record_sink_failure("cache", exc)
        yield
        return
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        yield
    finally:
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        except OSError:  # pragma: no cover - unlock on a dead descriptor
            pass
        handle.close()


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (POSIX signal-0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


def cache_key(
    shape_key: tuple,
    hw_digest: str,
    profile: str,
    objective: str,
) -> str:
    """The canonical string key of one search result.

    Args:
        shape_key: ``Mapper._shape_key``-style layer geometry tuple.
        hw_digest: :func:`repro.core.serialize.hardware_digest` of the machine.
        profile: Search-profile value (``"exhaustive"`` / ``"fast"`` / ...).
        objective: Objective function name (``"energy_objective"`` / ...).
    """
    shape = "x".join(str(v) for v in shape_key)
    return f"{shape}|{hw_digest}|{profile}|{objective}"


class MappingCache:
    """Two-tier (memory + optional disk) store of per-layer search results.

    The in-memory tier holds opaque result objects
    (:class:`repro.core.mapper.LayerMappingResult`); the disk tier holds
    JSON records of the winning mapping plus the search statistics, grouped
    into one file per hardware digest so unrelated machines never contend.

    Attributes:
        directory: Disk-store directory, or ``None`` for memory-only.
        hits: Lookups answered from either tier.
        misses: Lookups that required a fresh search.
        disk_hits: Subset of ``hits`` answered by re-evaluating a stored
            mapping from disk.
        corrupt_files: Disk files quarantined for corruption or a format
            version mismatch during this process's loads.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.corrupt_files = 0
        self._mem: dict[str, Any] = {}
        self._disk: dict[str, dict[str, Any]] = {}
        self._loaded_digests: set[str] = set()
        self._dirty_digests: set[str] = set()

    @classmethod
    def from_env(cls) -> "MappingCache":
        """A cache honouring ``REPRO_CACHE_DIR`` (memory-only when unset)."""
        directory = os.environ.get(CACHE_DIR_ENV, "").strip()
        return cls(directory or None)

    # --- lookups ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._mem)

    def contains(self, key: str) -> bool:
        """Whether ``key`` is answerable without a fresh search (no counting)."""
        if key in self._mem:
            return True
        self._ensure_loaded(self._digest_of(key))
        return key in self._disk

    def get(
        self,
        key: str,
        rebuild: Callable[[dict[str, Any]], Any] | None = None,
    ) -> Any | None:
        """Fetch the result stored under ``key``, counting hit or miss.

        Args:
            key: A :func:`cache_key` string.
            rebuild: Turns a disk record (``{"mapping": ..., "evaluated": n,
                "invalid": n}``) back into a result object; disk lookups are
                skipped when omitted.  A rebuild that returns ``None`` (the
                record no longer evaluates) falls through to a miss.
        """
        cached = self._mem.get(key)
        if cached is not None:
            self.hits += 1
            obs.count("cache.hits")
            return cached
        if rebuild is not None and self.directory is not None:
            self._ensure_loaded(self._digest_of(key))
            record = self._disk.get(key)
            if record is not None:
                result = rebuild(record)
                if result is not None:
                    self._mem[key] = result
                    self.hits += 1
                    self.disk_hits += 1
                    obs.count("cache.hits")
                    obs.count("cache.disk_hits")
                    return result
        self.misses += 1
        obs.count("cache.misses")
        return None

    def put(
        self,
        key: str,
        result: Any,
        record: dict[str, Any] | None = None,
    ) -> None:
        """Store a fresh search result (and its disk record, when enabled)."""
        self._mem[key] = result
        obs.count("cache.puts")
        if self.directory is not None and record is not None:
            self._disk[key] = record
            self._dirty_digests.add(self._digest_of(key))

    # --- disk tier -------------------------------------------------------------

    @staticmethod
    def _digest_of(key: str) -> str:
        return key.split("|", 2)[1]

    def _path_for(self, digest: str) -> Path:
        assert self.directory is not None
        return self.directory / f"mappings-{digest[:16]}.json"

    def _ensure_loaded(self, digest: str) -> None:
        """Lazily read the disk file of one hardware digest.

        A file that fails to decode, or that carries a different format
        version, is quarantined (renamed ``<file>.corrupt-<ts>``) so it
        cannot shadow the store; the load then proceeds as a clean miss.
        """
        if self.directory is None or digest in self._loaded_digests:
            return
        self._loaded_digests.add(digest)
        path = self._path_for(digest)
        load_start = time.perf_counter()
        try:
            text = path.read_text()
        except FileNotFoundError:
            return
        except OSError as exc:
            # A missing file is a clean miss; a failing device is not --
            # count it so persistent EIO degrades the sink instead of
            # masquerading as an empty cache forever.
            if durable.is_resource_error(exc):
                durable.record_sink_failure("cache", exc)
            return
        try:
            payload = json.loads(text)
            version = payload.get("version")
            entries = payload.get("entries", {})
            if not isinstance(entries, dict):
                raise ValueError("entries is not an object")
        except (ValueError, AttributeError):
            self._quarantine(path, "undecodable JSON")
            return
        if version != CACHE_FORMAT_VERSION:
            self._quarantine(path, f"format version {version!r}")
            return
        for key, record in entries.items():
            self._disk.setdefault(key, record)
        obs.histogram(
            "cache.load_ms", (time.perf_counter() - load_start) * 1e3
        )
        try:
            os.utime(path)  # refresh LRU recency: this file just got used
        except OSError:
            pass

    def _quarantine(self, path: Path, reason: str) -> None:
        """Set aside an unusable cache file instead of deleting it."""
        target = path.with_name(
            f"{path.name}.corrupt-{int(time.time() * 1000)}"
        )
        try:
            path.replace(target)
        except FileNotFoundError:
            return
        except OSError as exc:
            if durable.is_resource_error(exc):
                durable.record_sink_failure("cache", exc)
            return
        self.corrupt_files += 1
        obs.count("cache.corrupt_files")
        logger.warning(
            "set aside corrupt cache file %s (%s) -> %s",
            path,
            reason,
            target.name,
        )

    def _sweep_stale_tmp(self) -> None:
        """Remove temp files abandoned by writers that no longer exist.

        Runs once per directory per process: a writer that dies later
        leaves its temp for the next process to sweep.
        """
        assert self.directory is not None
        key = (os.getpid(), self.directory.absolute())
        if key in _swept_dirs:
            return
        _swept_dirs.add(key)
        for tmp in self.directory.glob("mappings-*.tmp.*"):
            try:
                pid = int(tmp.name.rsplit(".", 1)[-1])
            except ValueError:
                continue
            if pid == os.getpid() or _pid_alive(pid):
                continue
            try:
                tmp.unlink()
            except FileNotFoundError:
                continue
            except OSError as exc:
                if durable.is_resource_error(exc):
                    durable.record_sink_failure("cache", exc)
                continue
            obs.count("cache.stale_tmp_removed")
            logger.warning("removed stale cache temp file %s", tmp.name)

    @staticmethod
    def _maybe_corrupt(text: str) -> str:
        """The fault-injection hook: corrupt this flush when a plan says so."""
        global _flush_index
        plan = parallel._fault_plan()
        if plan is None:
            return text
        index = _flush_index
        _flush_index += 1
        corrupted = plan.corrupt_text(text, index)
        return text if corrupted is None else corrupted

    def save(self) -> None:
        """Flush dirty entries to disk (merge + atomic durable write per digest).

        Each digest's read-merge-write runs under an exclusive ``fcntl``
        lock file, so entries written by other processes since the last
        load are merged back in -- concurrent sweeps extend, never
        truncate, the store.  Stale ``.tmp.<pid>`` files whose writers have
        died are swept first, on the first save to a directory in this
        process.  Writes go through
        :func:`repro.durable.atomic_write` (fsync'd temp + rename), so a
        ``kill -9`` at any instant leaves either the old file or the new
        one, never a torn mix.

        A flush that hits a full or failing disk (ENOSPC/EIO/...) degrades
        the cache sink -- one warning, the ``degraded.cache`` counter --
        and the sweep continues without persistence; the cache is an
        accelerator, never an input.  When ``REPRO_CACHE_MAX_BYTES`` is
        set, least-recently-used digest files are evicted after the flush
        until the store fits the budget.
        """
        if self.directory is None or not self._dirty_digests:
            return
        if not durable.sink_enabled("cache"):
            return
        obs.count("cache.saves")
        obs.count("cache.digests_flushed", len(self._dirty_digests))
        save_start = time.perf_counter()
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._sweep_stale_tmp()
            for digest in sorted(self._dirty_digests):
                path = self._path_for(digest)
                with _digest_lock(path):
                    entries: dict[str, Any] = {}
                    try:
                        payload = json.loads(path.read_text())
                        if payload.get("version") == CACHE_FORMAT_VERSION:
                            entries.update(payload.get("entries", {}))
                    except (OSError, ValueError, AttributeError):
                        pass
                    entries.update(
                        {
                            key: record
                            for key, record in self._disk.items()
                            if self._digest_of(key) == digest
                        }
                    )
                    text = self._maybe_corrupt(
                        json.dumps(
                            {"version": CACHE_FORMAT_VERSION, "entries": entries},
                            indent=None,
                            sort_keys=True,
                        )
                    )
                    durable.atomic_write(path, text, sink="cache")
        except OSError as exc:
            if durable.is_resource_error(exc):
                durable.record_sink_failure("cache", exc)
                return
            raise
        obs.histogram(
            "cache.save_ms", (time.perf_counter() - save_start) * 1e3
        )
        self._dirty_digests.clear()
        self._evict_lru()

    def _evict_lru(self) -> None:
        """Evict least-recently-used digest files past ``REPRO_CACHE_MAX_BYTES``.

        Recency is file mtime: loads touch the file (:meth:`_ensure_loaded`)
        and writes refresh it naturally, so eviction order tracks actual
        use.  Eviction is size-based and best-effort -- a file that cannot
        be unlinked is skipped, never fatal.
        """
        budget = _max_cache_bytes()
        if budget is None or self.directory is None:
            return
        files = []
        for path in self.directory.glob("mappings-*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            files.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _mtime, size, _path in files)
        if total <= budget:
            return
        for _mtime, size, path in sorted(files):
            if total <= budget:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            obs.count("cache.evictions")
            logger.warning(
                "evicted cache file %s (%d B) to fit %s=%d B",
                path.name,
                size,
                CACHE_MAX_BYTES_ENV,
                budget,
            )

    # --- instrumentation -------------------------------------------------------

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        """One-line counter summary for reports."""
        tier = str(self.directory) if self.directory else "memory"
        return (
            f"{self.hits} hits ({self.disk_hits} from disk) / "
            f"{self.misses} misses ({self.hit_rate:.0%} hit rate, {tier})"
        )


def rebuild_record(
    record: dict[str, Any],
    layer,
    hw: HardwareConfig,
):
    """Re-evaluate a disk record's winning mapping on (``layer``, ``hw``).

    Returns the :class:`~repro.core.cost.CostReport` of the stored mapping,
    or ``None`` when the mapping no longer evaluates (a schema drift or a
    corrupted record) -- callers then fall back to a fresh search.
    """
    from repro.core.cost import InvalidMappingError, evaluate_mapping

    try:
        mapping = mapping_from_dict(record["mapping"])
        return evaluate_mapping(layer, hw, mapping)
    except (InvalidMappingError, KeyError, TypeError, ValueError):
        return None


__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_FORMAT_VERSION",
    "CACHE_MAX_BYTES_ENV",
    "DEFAULT_CACHE_DIRNAME",
    "MappingCache",
    "cache_key",
    "hardware_digest",
    "rebuild_record",
]
