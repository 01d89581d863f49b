"""Guided design-space search: ask/tell strategies over the Table II lattice.

The exhaustive :func:`repro.core.dse.explore` sweep reproduces Figure 15 by
enumerating every (computation, memory) point -- fine at the paper's ~10^4
scale, a dead end beyond it.  This module makes larger spaces tractable with
an optimizer-driven loop behind a small :class:`SearchStrategy` interface:

* **ask/tell** -- the driver asks a strategy for a batch of candidates,
  evaluates them (re-using the parallel executor and the mapping cache via
  the same worker the exhaustive sweep fans out), and tells the results
  back so the next batch is better informed.
* :class:`GuidedStrategy` -- a seeded TPE/SA-style sampler: each lattice
  dimension is drawn from an elite-weighted categorical distribution with
  an annealed uniform-exploration floor, and every batch first proposes the
  unvisited lattice neighbours of the incumbent (simulated-annealing-style
  local polish that makes the exact optimum reachable, not just its basin).
* **Dominance pruning** -- :func:`edp_lower_bound` is an admissible
  (never-overestimating) roofline bound on a design's EDP; a candidate
  whose bound already exceeds the incumbent's *actual* EDP cannot win and
  is never fully evaluated.
* :class:`Study` -- a stdlib-``sqlite3`` trial store keyed by the extended
  sweep digest (strategy, seed and trial budget included), so interrupted
  searches resume without re-evaluating and a guided study can never be
  silently replayed under different search parameters.

Determinism: given the same seed, space and models, a guided run proposes
and evaluates the identical trial sequence at every ``--jobs`` count -- the
batch composition depends only on the seeded RNG and the told results, and
:func:`repro.core.parallel.run_tasks` preserves task order.  The pruned /
deduped / evaluated accounting is therefore byte-stable too, which is what
the CI counter gate checks.
"""

from __future__ import annotations

import logging
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro import obs
from repro.arch.area import AreaModel
from repro.arch.config import HardwareConfig, MemoryConfig, build_hardware
from repro.arch.energy import EnergyModel
from repro.arch.technology import DEFAULT_TECHNOLOGY, TechnologyParams
from repro.arch.topology import Topology
from repro.arch.validate import validation_errors
from repro.core.checkpoint import sweep_digest, task_key
from repro.core.cost import intrinsic_compute_energy_pj
from repro import durable
from repro.errors import ConfigError, StateCorruptionError
from repro.core.parallel import (
    SweepStats,
    TaskFailure,
    TaskPolicy,
    _fault_plan,
    is_picklable,
    resolve_jobs,
    run_tasks,
    worker_context,  # noqa: F401  (re-exported for strategy implementers)
)
from repro.core.space import SearchProfile
from repro.workloads.layer import ConvLayer

KB = 1024

logger = logging.getLogger("repro.search")

#: Consecutive sampler collisions before falling back to a canonical scan.
_MAX_SAMPLER_MISSES = 64

#: Strategy names the CLI accepts (``exhaustive`` routes around this module).
STRATEGY_NAMES = ("exhaustive", "guided")


# --- the admissible EDP lower bound -----------------------------------------------


def edp_lower_bound(hw: HardwareConfig, layers: Sequence[ConvLayer]) -> float:
    """An admissible (never-overestimating) EDP bound for ``layers`` on ``hw``.

    Energy floor -- terms every mapping must pay, whatever the loop nest:

    * the dataflow-invariant compute-side energy
      (:func:`repro.core.cost.intrinsic_compute_energy_pj`: MACs, per-cycle
      O-L1 read-modify-writes, per-cycle A-L1 operand reads);
    * compulsory DRAM traffic -- every weight and output element crosses
      the DRAM boundary at least once (rotation shares data between
      chiplets but still loads each shared bit from DRAM once), and so
      does every *touched* input element: the union input window
      ``input_rows_for(ho) x input_cols_for(wo) x ci``, which is smaller
      than ``input_elements`` when stride exceeds the kernel (disjoint
      windows skip rows) and is capped at ``input_elements`` when padding
      inflates the window span;
    * one compulsory pass of each operand working set through its buffer
      level (reload factors and halos only ever add traffic), priced with
      the size-dependent Figure 10 energies of *this* configuration: every
      weight is written into W-L1 and read into the PE array at least once;
      every touched input is written into A-L2, read out of it, and written
      into A-L1 at least once; every output element transits O-L2 exactly
      once in each direction (priced at the auto-sized buffer's floor
      energy) and drains from the O-L1 register file once at psum width.

    Time floor -- the cost model has no bandwidth stalls, so
    ``cycles >= macs / total_macs`` exactly (utilization <= 1).

    The bound is cheap (no mapping search) yet configuration-sensitive:
    buffer sizes move the per-bit energies, so oversized memories price
    themselves out before the incumbent is ever re-threatened.
    """
    model = EnergyModel(hw)
    data_bits = hw.tech.data_bits
    psum_bits = hw.tech.psum_bits
    o_l2_floor_pj_per_bit = model.o_l2_pj_per_bit(0)
    energy_pj = 0.0
    macs = 0
    for layer in layers:
        touched_inputs = min(
            layer.input_elements,
            layer.input_rows_for(layer.ho)
            * layer.input_cols_for(layer.wo)
            * layer.ci,
        )
        weight_bits = layer.weight_elements * data_bits
        touched_bits = touched_inputs * data_bits
        output_bits = layer.output_elements * data_bits
        energy_pj += intrinsic_compute_energy_pj(layer, hw)
        energy_pj += model.dram_pj_per_bit * (
            touched_bits + weight_bits + output_bits
        )
        energy_pj += model.w_l1_pj_per_bit * 2 * weight_bits
        energy_pj += model.a_l2_pj_per_bit * 2 * touched_bits
        energy_pj += model.a_l1_pj_per_bit * touched_bits
        energy_pj += o_l2_floor_pj_per_bit * 2 * output_bits
        energy_pj += model.rf_rmw_pj_per_bit * layer.output_elements * psum_bits
        macs += layer.macs
    runtime_s = macs / hw.total_macs * hw.tech.cycle_time_ns() * 1e-9
    return energy_pj * 1e-12 * runtime_s


# --- candidates and trials ---------------------------------------------------------


@dataclass(frozen=True)
class Candidate:
    """One proposed design point: a computation config plus a memory config.

    Attributes:
        comp: ``(chiplets, cores, lanes, vector)``.
        memory: The resolved :class:`~repro.arch.config.MemoryConfig`.
        index: The lattice index ``(comp, o_l1, a_l1, w_l1, a_l2)`` the
            sampler drew (kept so strategies can reason in index space).
    """

    comp: tuple[int, int, int, int]
    memory: MemoryConfig
    index: tuple[int, int, int, int, int]

    @property
    def task(self) -> tuple[int, int, int, int, MemoryConfig]:
        """The sweep-task tuple :func:`repro.core.dse._explore_task` takes."""
        return (*self.comp, self.memory)

    @property
    def key(self) -> str:
        """The canonical task key (shared with the sweep checkpoint)."""
        return task_key(self.task)


@dataclass(frozen=True)
class Trial:
    """One told result: a candidate plus what happened to it.

    ``status`` is one of ``"evaluated"`` (fresh full evaluation),
    ``"resumed"`` (answered by the study store), ``"pruned"`` (dominance
    bound beat the incumbent), ``"invalid"`` (failed structural
    validation) or ``"failed"`` (task exhausted its retries).  ``edp`` is
    the primary-model EDP for evaluated/resumed trials, else ``None``.
    """

    candidate: Candidate
    status: str
    point: Any  # DesignPoint; typed loosely to keep the import graph acyclic
    edp: float | None = None
    lower_bound: float | None = None

    @property
    def charged(self) -> bool:
        """Whether this trial consumes the full-evaluation budget."""
        return self.status in ("evaluated", "resumed", "failed")


# --- the lattice -------------------------------------------------------------------


class Lattice:
    """Index-space view of a :class:`~repro.core.dse.DesignSpace`.

    Five dimensions: the computation-config list (filtered to the MAC
    budget) and the four memory option lists.  The ``a_l2 >= a_l1``
    hierarchy rule is enforced by :meth:`repair`, mirroring the filter
    :meth:`~repro.core.dse.DesignSpace.memory_configs` applies.
    """

    def __init__(self, space: Any, required_macs: int) -> None:
        self.space = space
        self.comp: list[tuple[int, int, int, int]] = space.computation_configs(
            required_macs
        )
        if not self.comp:
            raise ValueError(
                f"no (chiplets, cores, lanes, vector) factorization of "
                f"{required_macs} MACs in the design space"
            )
        self.o1 = list(space.o_l1_per_lane_bytes)
        self.a1 = list(space.a_l1_kb)
        self.w1 = list(space.w_l1_kb)
        self.a2 = list(space.a_l2_kb)
        self.dims = (
            len(self.comp), len(self.o1), len(self.a1), len(self.w1), len(self.a2)
        )

    def size(self) -> int:
        """Legal lattice points (after the ``a_l2 >= a_l1`` filter)."""
        legal_pairs = sum(
            1 for a1 in self.a1 for a2 in self.a2 if a2 >= a1
        )
        return len(self.comp) * len(self.o1) * len(self.w1) * legal_pairs

    def repair(
        self, index: tuple[int, int, int, int, int]
    ) -> tuple[int, int, int, int, int] | None:
        """Bump ``a_l2`` up to the smallest legal option, or ``None``."""
        ci, oi, ai, wi, a2i = index
        if self.a2[a2i] >= self.a1[ai]:
            return index
        for j in range(a2i + 1, len(self.a2)):
            if self.a2[j] >= self.a1[ai]:
                return (ci, oi, ai, wi, j)
        return None

    def candidate(self, index: tuple[int, int, int, int, int]) -> Candidate:
        """Materialize the hardware-facing candidate of one lattice index."""
        ci, oi, ai, wi, a2i = index
        comp = self.comp[ci]
        _n_p, _n_c, lane, _vec = comp
        memory = MemoryConfig(
            a_l1_bytes=int(self.a1[ai] * KB),
            w_l1_bytes=int(self.w1[wi] * KB),
            o_l1_bytes=self.o1[oi] * lane,
            a_l2_bytes=int(self.a2[a2i] * KB),
        )
        return Candidate(comp=comp, memory=memory, index=index)

    def neighbours(
        self, index: tuple[int, int, int, int, int]
    ) -> list[tuple[int, int, int, int, int]]:
        """The polish neighbourhood of ``index``, deterministic order.

        One +/-1 step per dimension (repaired), then every alternative
        computation config at the incumbent's memory footprint -- the best
        memory sizing transfers across factorizations far more often than
        the reverse, so the cross-sweep is cheap insurance that the exact
        optimum, not just its granularity class, is reached.
        """
        out: list[tuple[int, int, int, int, int]] = []
        seen = set()
        for dim in range(5):
            for step in (-1, 1):
                probe = list(index)
                probe[dim] += step
                if not 0 <= probe[dim] < self.dims[dim]:
                    continue
                fixed = self.repair(tuple(probe))
                if fixed is not None and fixed != index and fixed not in seen:
                    seen.add(fixed)
                    out.append(fixed)
        for ci in range(self.dims[0]):
            probe = (ci,) + index[1:]
            if probe != index and probe not in seen:
                seen.add(probe)
                out.append(probe)
        return out

    def scan(self) -> "list[tuple[int, int, int, int, int]]":
        """Every legal index in canonical (sweep-like) order."""
        out = []
        for ci in range(self.dims[0]):
            for oi in range(self.dims[1]):
                for ai in range(self.dims[2]):
                    for wi in range(self.dims[3]):
                        for a2i in range(self.dims[4]):
                            if self.a2[a2i] >= self.a1[ai]:
                                out.append((ci, oi, ai, wi, a2i))
        return out


# --- the strategy interface --------------------------------------------------------


class SearchStrategy(ABC):
    """The ask/tell contract the guided driver speaks.

    A strategy owns *what to try next*; the driver owns evaluation,
    pruning, persistence and accounting.  Implementations must be
    deterministic functions of their constructor arguments and the told
    trial sequence -- no wall-clock, no global RNG.
    """

    name: str = "strategy"

    @abstractmethod
    def ask(self, n: int) -> list[Candidate]:
        """Propose up to ``n`` never-before-proposed candidates."""

    @abstractmethod
    def tell(self, trials: Sequence[Trial]) -> None:
        """Record a batch of outcomes (in proposal order)."""

    @abstractmethod
    def finished(self) -> bool:
        """Whether the search is out of budget or out of space."""


class ExhaustiveStrategy(SearchStrategy):
    """The oracle strategy: canonical sweep order, no adaptation.

    Exists so the differential harness and the property suite can drive
    both modes through one interface; :func:`repro.core.dse.explore`
    keeps its dedicated (checkpointable, capped) exhaustive path as the
    default production route.
    """

    name = "exhaustive"

    def __init__(self, space: Any, required_macs: int) -> None:
        self.lattice = Lattice(space, required_macs)
        self._queue = self.lattice.scan()
        self._cursor = 0

    def ask(self, n: int) -> list[Candidate]:
        batch = self._queue[self._cursor : self._cursor + n]
        self._cursor += len(batch)
        return [self.lattice.candidate(index) for index in batch]

    def tell(self, trials: Sequence[Trial]) -> None:  # pragma: no cover - no-op
        return

    def finished(self) -> bool:
        return self._cursor >= len(self._queue)


class GuidedStrategy(SearchStrategy):
    """Seeded TPE/SA-style sampler with incumbent polish.

    Sampling: each lattice dimension is drawn independently.  With an
    annealed exploration probability the draw is uniform; otherwise it is
    categorical with weights ``1 + (occurrences among the elite trials)``
    -- the Laplace-smoothed "good region" estimate TPE keeps, over the
    top ``elite_fraction`` of evaluated trials by primary-model EDP.  The
    exploration probability decays linearly from 1 to ``explore_floor``
    as the budget is spent (the SA-style cooling schedule).

    Polish: every ``ask`` first proposes the unvisited lattice neighbours
    of the incumbent, so the loop hill-climbs to an exact local optimum
    while the sampler keeps seeding new basins.

    Dedup: a sampler draw that lands on an already-proposed index is a
    *collision*; collisions are counted (:attr:`deduped`) and re-drawn,
    so no design point is ever evaluated twice within a study.
    """

    name = "guided"

    def __init__(
        self,
        space: Any,
        required_macs: int,
        trials: int,
        seed: int = 0,
        elite_fraction: float = 0.2,
        explore_floor: float = 0.15,
    ) -> None:
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        self.lattice = Lattice(space, required_macs)
        self.trials = trials
        self.seed = seed
        self.elite_fraction = elite_fraction
        self.explore_floor = explore_floor
        self.rng = random.Random(seed)
        self.deduped = 0
        self.spent = 0
        self._proposed: set[tuple[int, int, int, int, int]] = set()
        self._results: list[tuple[float, tuple[int, int, int, int, int]]] = []
        self._incumbent: tuple[int, int, int, int, int] | None = None
        self._incumbent_edp = float("inf")
        self._exhausted = False

    # -- state the driver reads --

    @property
    def incumbent_edp(self) -> float:
        """The best primary-model EDP told so far (inf before any)."""
        return self._incumbent_edp

    # -- the ask/tell contract --

    def ask(self, n: int) -> list[Candidate]:
        out: list[tuple[int, int, int, int, int]] = []
        if self._incumbent is not None:
            for index in self.lattice.neighbours(self._incumbent):
                if len(out) >= n:
                    break
                if index not in self._proposed:
                    self._proposed.add(index)
                    out.append(index)
        misses = 0
        while len(out) < n and misses < _MAX_SAMPLER_MISSES:
            index = self._sample()
            if index is None or index in self._proposed:
                if index is not None:
                    self.deduped += 1
                misses += 1
                continue
            self._proposed.add(index)
            out.append(index)
            misses = 0
        if len(out) < n and misses >= _MAX_SAMPLER_MISSES:
            # The sampler keeps colliding: the space is nearly covered.
            # Fall back to the canonical scan for whatever remains.
            for index in self.lattice.scan():
                if len(out) >= n:
                    break
                if index not in self._proposed:
                    self._proposed.add(index)
                    out.append(index)
        if not out:
            self._exhausted = True
        return [self.lattice.candidate(index) for index in out]

    def tell(self, trials: Sequence[Trial]) -> None:
        for trial in trials:
            if trial.charged:
                self.spent += 1
            if trial.edp is not None:
                self._results.append((trial.edp, trial.candidate.index))
                if trial.edp < self._incumbent_edp:
                    self._incumbent_edp = trial.edp
                    self._incumbent = trial.candidate.index

    def finished(self) -> bool:
        return self._exhausted or self.spent >= self.trials

    # -- sampling internals --

    def _sample(self) -> tuple[int, int, int, int, int] | None:
        explore_p = max(
            self.explore_floor, 1.0 - self.spent / max(self.trials, 1)
        )
        weights = self._elite_weights()
        index = []
        for dim, size in enumerate(self.lattice.dims):
            if self.rng.random() < explore_p or not weights:
                index.append(self.rng.randrange(size))
            else:
                index.append(self._weighted_draw(weights[dim], size))
        return self.lattice.repair(tuple(index))

    def _elite_weights(self) -> list[dict[int, int]] | None:
        """Per-dimension option counts among the elite trials."""
        if not self._results:
            return None
        ordered = sorted(self._results)
        take = max(3, int(len(ordered) * self.elite_fraction))
        elite = ordered[:take]
        weights: list[dict[int, int]] = [dict() for _ in range(5)]
        for _edp, index in elite:
            for dim, opt in enumerate(index):
                weights[dim][opt] = weights[dim].get(opt, 0) + 1
        return weights

    def _weighted_draw(self, counts: dict[int, int], size: int) -> int:
        total = size + sum(counts.values())  # Laplace: 1 + count per option
        ticket = self.rng.random() * total
        acc = 0.0
        for opt in range(size):
            acc += 1 + counts.get(opt, 0)
            if ticket < acc:
                return opt
        return size - 1


# --- the sqlite study --------------------------------------------------------------


class StudyConfigError(ConfigError, ValueError):
    """The study file was created under different search parameters.

    Still a ``ValueError`` (the historical contract) and now a
    :class:`repro.errors.ConfigError` (code ``config``, exit 3).
    """


class Study:
    """Persistent trial store for one guided search (stdlib ``sqlite3``).

    Layout: a ``meta`` key/value table pinning the extended sweep digest
    plus the human-readable search parameters, and a ``trials`` table of
    checkpoint-format JSON records keyed by the canonical task key.  A
    resumed run re-proposes the same trajectory (the sampler is seeded)
    and answers already-stored trials from here instead of re-evaluating,
    so interruption costs nothing but the lost in-flight batch.

    Durability: the database opens in WAL journal mode with
    ``synchronous=FULL``, so a committed trial survives ``kill -9`` at any
    instant.  A file that fails sqlite's ``quick_check`` (truncated,
    overwritten, not a database at all) is quarantined as
    ``<file>.corrupt-<ts>`` -- exactly like the mapping cache -- and the
    search restarts from a fresh study instead of dying on a raw
    ``sqlite3.DatabaseError``.
    """

    SCHEMA_VERSION = 1

    def __init__(self, path: str | Path, digest: str, meta: dict[str, Any]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.quarantined: Path | None = None
        plan = _fault_plan()
        if plan is not None:
            plan.corrupt_study_file(self.path)
        self._conn = self._open_verified()
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS trials ("
            "seq INTEGER PRIMARY KEY AUTOINCREMENT, "
            "key TEXT UNIQUE NOT NULL, record TEXT NOT NULL)"
        )
        stored = dict(self._conn.execute("SELECT key, value FROM meta"))
        expected = {
            "version": str(self.SCHEMA_VERSION),
            "digest": digest,
            **{key: str(value) for key, value in sorted(meta.items())},
        }
        if stored:
            clashes = [
                f"{key}: study has {stored.get(key)!r}, run wants {value!r}"
                for key, value in expected.items()
                if stored.get(key) != value
            ]
            if clashes:
                self._conn.close()
                raise StudyConfigError(
                    f"study {self.path} does not match this search "
                    f"({'; '.join(clashes)}); use a fresh --study path or "
                    "re-run with the study's parameters"
                )
        else:
            self._conn.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                sorted(expected.items()),
            )
            self._conn.commit()

    def _open_verified(self):
        """Connect in WAL mode, quarantining a corrupt file on the way.

        A truncated or garbage study file fails ``PRAGMA journal_mode`` or
        ``PRAGMA quick_check``; it is renamed ``<file>.corrupt-<ts>`` (the
        ``study.corrupt_files`` counter records it, one warning is logged)
        and a fresh database takes its place.

        Raises:
            StateCorruptionError: When the corrupt file cannot even be
                renamed out of the way -- there is no healthy path left.
        """
        import sqlite3
        import time

        for attempt in range(2):
            conn = None
            try:
                conn = sqlite3.connect(str(self.path))
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=FULL")
                row = conn.execute("PRAGMA quick_check").fetchone()
                if row is None or str(row[0]).lower() != "ok":
                    raise sqlite3.DatabaseError(
                        f"quick_check: {row[0] if row else 'no result'}"
                    )
                return conn
            except sqlite3.DatabaseError as exc:
                if conn is not None:
                    conn.close()
                if attempt:  # the freshly created replacement failed too
                    raise
                target = self.path.with_name(
                    f"{self.path.name}.corrupt-{int(time.time() * 1000)}"
                )
                try:
                    self.path.replace(target)
                except OSError as rename_exc:
                    raise StateCorruptionError(
                        f"study {self.path} is corrupt ({exc}) and could "
                        f"not be quarantined: {rename_exc}"
                    ) from exc
                self.quarantined = target
                obs.count("study.corrupt_files")
                logger.warning(
                    "set aside corrupt study %s (%s) -> %s; starting a "
                    "fresh study",
                    self.path,
                    exc,
                    target.name,
                )
        raise AssertionError("unreachable")  # pragma: no cover

    def load(self) -> dict[str, dict[str, Any]]:
        """Stored trial records keyed by task key."""
        import json

        records: dict[str, dict[str, Any]] = {}
        for key, text in self._conn.execute(
            "SELECT key, record FROM trials ORDER BY seq"
        ):
            try:
                records[str(key)] = dict(json.loads(text))
            except (ValueError, TypeError):
                continue  # a torn record is re-evaluated, never fatal
        return records

    def record(self, key: str, record: dict[str, Any]) -> None:
        """Insert-or-replace one completed trial (commit via :meth:`flush`).

        A write that fails because the disk is full (or the device is
        erroring) degrades the study sink -- one warning, the
        ``degraded.study`` counter -- instead of killing the search; the
        run completes, it just cannot be resumed from this study.
        """
        import json
        import sqlite3

        if not durable.sink_enabled("study"):
            return
        try:
            self._conn.execute(
                "INSERT INTO trials (key, record) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET record = excluded.record",
                (key, json.dumps(record, sort_keys=True)),
            )
        except (sqlite3.OperationalError, sqlite3.DatabaseError) as exc:
            durable.record_sink_failure("study", exc)

    def flush(self) -> None:
        import sqlite3

        if not durable.sink_enabled("study"):
            return
        try:
            self._conn.commit()
        except (sqlite3.OperationalError, sqlite3.DatabaseError) as exc:
            durable.record_sink_failure("study", exc)

    def close(self) -> None:
        self.flush()
        self._conn.close()


# --- the driver --------------------------------------------------------------------


def guided_explore(
    models: dict[str, list[ConvLayer]],
    required_macs: int,
    space: Any = None,
    max_chiplet_mm2: float | None = None,
    topology: Topology = Topology.RING,
    profile: SearchProfile = SearchProfile.FAST,
    tech: TechnologyParams = DEFAULT_TECHNOLOGY,
    trials: int = 128,
    seed: int = 0,
    study: str | Path | None = None,
    primary_model: str | None = None,
    batch_size: int = 8,
    jobs: int | None = None,
    stats: SweepStats | None = None,
    policy: TaskPolicy | None = None,
    strategy: SearchStrategy | None = None,
    progress: Any | None = None,
) -> list:
    """Run an ask/tell search over the Table II space; return its points.

    The counterpart of :func:`repro.core.dse.explore` for the guided
    strategy: same models/budget/space/profile semantics, same
    :class:`~repro.core.dse.DesignPoint` results (pruned and invalid
    proposals are returned ``valid=False`` with a labelled error), but
    only ``trials`` full evaluations are ever paid.

    Args:
        models: Benchmarks to evaluate (name -> layers).
        required_macs: Exact MAC budget.
        space: Exploration space (Table II by default).
        max_chiplet_mm2: Per-chiplet area constraint (structural pruning).
        topology: Package interconnect every proposed machine is built
            with (directional ring by default).
        profile: Mapping-search profile per evaluated point.
        tech: Technology point.
        trials: Full-evaluation budget (resumed study trials count too).
        seed: Sampler seed; same seed => byte-identical trial sequence.
        study: Optional sqlite study path for persistence/resume.
        primary_model: Model whose EDP the search minimizes (defaults to
            the first entry of ``models``; all models are still evaluated
            per point, like the exhaustive sweep).
        batch_size: Proposals per ask/tell round.  Fixed independent of
            ``jobs`` so the trajectory is identical at every worker count.
        jobs: Worker processes per evaluation batch.
        stats: Optional instrumentation record filled in place.
        policy: Timeout/retry/on-error contract for the batch fan-outs.
        strategy: Injected strategy (defaults to a fresh
            :class:`GuidedStrategy`); mainly for tests.
        progress: Optional :class:`repro.obs.progress.ProgressMeter`
            updated per ask/tell round (stderr only; never stdout).
    """
    from repro.core.dse import (
        DesignPoint,
        DesignSpace,
        _explore_task,
        _failed_point,
        _outcome_from_record,
        _record_from_outcome,
        _sweep_context,
    )

    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    space = space or DesignSpace()
    if not models:
        raise ValueError("models must be non-empty")
    primary = primary_model or next(iter(models))
    if primary not in models:
        raise KeyError(f"primary model {primary!r} not in models")
    engine = strategy or GuidedStrategy(
        space, required_macs, trials=trials, seed=seed
    )
    jobs = resolve_jobs(jobs)
    context = _sweep_context(
        models, profile, tech, required_macs, max_chiplet_mm2, topology
    )
    if jobs > 1 and not is_picklable(context):
        jobs = 1
    if stats is not None:
        stats.jobs = max(stats.jobs, jobs)

    store: Study | None = None
    stored: dict[str, dict[str, Any]] = {}
    if study is not None:
        digest = sweep_digest(
            models,
            required_macs,
            space,
            max_chiplet_mm2,
            profile,
            tech,
            1,
            strategy=engine.name,
            seed=seed,
            trials=trials,
            topology=topology.value,
        )
        store = Study(
            study,
            digest,
            meta={"strategy": engine.name, "seed": seed, "trials": trials},
        )
        stored = store.load()

    points: list[DesignPoint] = []
    incumbent_edp = float("inf")
    n_evaluated = n_pruned = n_invalid = n_resumed = 0

    obs.event("run.start", op="guided_explore", trials=trials)

    timer = stats.stage("guided") if stats else None
    if timer:
        timer.__enter__()
    try:
        while not engine.finished():
            remaining = max(trials - engine.spent, 1) if isinstance(
                engine, GuidedStrategy
            ) else batch_size
            candidates = engine.ask(min(batch_size, remaining))
            if not candidates:
                break
            if stats is not None:
                stats.points_total += len(candidates)
            by_key: dict[str, Trial] = {}
            to_eval: list[Candidate] = []
            for cand in candidates:
                hw = build_hardware(
                    *cand.comp, memory=cand.memory, tech=tech, topology=topology
                )
                record = stored.get(cand.key)
                if record is not None:
                    outcome = _outcome_from_record(
                        cand.task, record, tech, topology=topology
                    )
                    if outcome is not None:
                        point, _structural, hits, misses = outcome
                        if stats is not None:
                            stats.add_cache(hits, misses)
                        edp = point.edp(primary) if point.valid else None
                        by_key[cand.key] = Trial(cand, "resumed", point, edp)
                        continue
                area = AreaModel(hw).chiplet_area_mm2()
                # The bound is the cheapest complete rejection: a dominated
                # candidate cannot beat the incumbent whether or not it is
                # even legal, so it is pruned before the validity check.
                if incumbent_edp < float("inf"):
                    bound = edp_lower_bound(hw, models[primary])
                    if bound > incumbent_edp:
                        point = DesignPoint(
                            hw=hw,
                            chiplet_area_mm2=area,
                            valid=False,
                            errors=(
                                f"pruned: EDP lower bound {bound:.4e} Js "
                                f"exceeds incumbent {incumbent_edp:.4e} Js",
                            ),
                        )
                        by_key[cand.key] = Trial(
                            cand, "pruned", point, lower_bound=bound
                        )
                        continue
                errors = validation_errors(
                    hw,
                    required_macs=required_macs,
                    max_chiplet_area_mm2=max_chiplet_mm2,
                )
                if errors:
                    point = DesignPoint(
                        hw=hw,
                        chiplet_area_mm2=area,
                        valid=False,
                        errors=tuple(errors),
                    )
                    by_key[cand.key] = Trial(cand, "invalid", point)
                    continue
                to_eval.append(cand)
            if to_eval:
                outcomes = run_tasks(
                    _explore_task,
                    [cand.task for cand in to_eval],
                    jobs=jobs,
                    context=context,
                    policy=policy,
                    stats=stats,
                )
                for cand, outcome in zip(to_eval, outcomes):
                    if isinstance(outcome, TaskFailure):
                        hw = build_hardware(
                            *cand.comp,
                            memory=cand.memory,
                            tech=tech,
                            topology=topology,
                        )
                        by_key[cand.key] = Trial(
                            cand, "failed", _failed_point(hw, outcome)
                        )
                        continue
                    point, _structural, hits, misses = outcome
                    if stats is not None:
                        stats.add_cache(hits, misses)
                    edp = point.edp(primary) if point.valid else None
                    by_key[cand.key] = Trial(cand, "evaluated", point, edp)
                    if store is not None:
                        store.record(cand.key, _record_from_outcome(outcome))
            # Tell in proposal order so the trajectory is jobs-independent.
            batch_trials = [by_key[cand.key] for cand in candidates]
            engine.tell(batch_trials)
            # Per-round, parent-side: fields track the (jobs-independent)
            # proposal count, so the event set equals the serial run's.
            obs.event(
                "point.batch",
                done=len(points) + len(batch_trials),
                total=trials,
            )
            for trial in batch_trials:
                points.append(trial.point)
                if trial.status == "evaluated":
                    n_evaluated += 1
                elif trial.status == "resumed":
                    n_resumed += 1
                elif trial.status == "pruned":
                    n_pruned += 1
                elif trial.status == "invalid":
                    n_invalid += 1
                if trial.edp is not None and trial.edp < incumbent_edp:
                    incumbent_edp = trial.edp
            if store is not None:
                store.flush()
            if progress is not None:
                progress.update(
                    len(points),
                    pruned=n_pruned,
                    deduped=(
                        engine.deduped
                        if isinstance(engine, GuidedStrategy)
                        else 0
                    ),
                )
    finally:
        if store is not None:
            store.close()
        if timer:
            timer.__exit__(None, None, None)

    deduped = engine.deduped if isinstance(engine, GuidedStrategy) else 0
    if stats is not None:
        stats.points_evaluated += sum(
            1 for p in points if p.valid and p.energy_pj
        )
        stats.points_pruned += n_pruned
        stats.points_deduped += deduped
        if n_resumed:
            stats.points_resumed += n_resumed
    obs.count("dse.points.total", len(points))
    obs.count("dse.points.evaluated", n_evaluated + n_resumed)
    obs.count("dse.points.invalid", n_invalid)
    obs.count("dse.points.pruned", n_pruned)
    obs.count("dse.points.deduped", deduped)
    if n_resumed:
        obs.count("dse.points.resumed", n_resumed)
    obs.event(
        "run.finish",
        op="guided_explore",
        points=len(points),
        evaluated=n_evaluated + n_resumed,
    )
    return points


__all__ = [
    "Candidate",
    "ExhaustiveStrategy",
    "GuidedStrategy",
    "Lattice",
    "STRATEGY_NAMES",
    "SearchStrategy",
    "Study",
    "StudyConfigError",
    "Trial",
    "edp_lower_bound",
    "guided_explore",
]
