"""Vectorized batch cost-model kernel (struct-of-arrays C3P evaluation).

The scalar pipeline (:mod:`repro.core.c3p` -> :mod:`repro.core.traffic` ->
:mod:`repro.core.cost`) walks one ``(layer, hw, mapping)`` triple at a time
through Python objects.  This module evaluates *every* candidate of one
``(layer, hw)`` pair in a handful of numpy array operations: the candidate
mappings are encoded as int64/float64 columns (tile extents, clamped
loop-nest bounds, spatial primitives, rotation/order codes) and the three
C3P walks, the traffic assembly and the energy/cycles/EDP scalarization run
over all rows at once.

The work splits where the W-L1 and A-L2 sizes first enter:
:func:`family_prefix` derives everything that reads neither, and
:func:`evaluate_batch` adds the two budget comparisons, the traffic and the
energy.  A sweep's :class:`FamilyPlans` memo reuses one prefix (and one
candidate table) across every W-L1 x A-L2 point of a family.

**Bit-identity contract.**  The scalar path is the golden oracle; this
kernel must agree with it to the last float.  Three rules make that hold:

* every float expression replicates the scalar path's association order
  (e.g. ``(fill * n_cores) * n_chiplets``, the ``EnergyBreakdown.total_pj``
  component order, ``(energy * 1e-12) * runtime``) -- IEEE-754 float64 ops
  are deterministic, so equal operand order means equal bits;
* integer quantities (loop counts, cycles, weight-read bits) stay in int64
  until the exact point where the scalar path first mixes them into a
  float, so the int->float64 conversion happens once, correctly rounded,
  on the same value;
* int64 products whose float64 estimate exceeds ``2**62`` abort the batch
  (:class:`BatchOverflowError`) -- the caller falls back to the scalar
  path, which computes with arbitrary-precision Python ints.  Real mapping
  spaces sit many orders of magnitude below this bound.

The winner selection mirrors the mapper's strict-``<`` scan: invalid lanes
are masked to ``+inf`` and ``np.argmin`` returns the *first* index of the
minimum, which is exactly the first-in-enumeration winner the scalar loop
keeps on ties.

``REPRO_BATCH_KERNEL=0`` (or ``false``/``off``/``no``) opts out and forces
the scalar path everywhere; the kernel is the default.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro import obs
from repro.arch.config import HardwareConfig
from repro.arch.energy import EnergyModel
from repro.core.mapping import Mapping
from repro.core.primitives import LoopOrder, PartitionDim, RotationKind
from repro.core.space import (
    CANDIDATE_COLUMNS,
    CandidateTable,
    MappingSpace,
    SearchProfile,
)
from repro.errors import ConfigError, ResourceExhaustedError
from repro.workloads.layer import ConvLayer

#: Environment switch; default on, ``0/false/off/no`` disables.
BATCH_KERNEL_ENV = "REPRO_BATCH_KERNEL"

#: Environment variable capping the kernel's working-set size (bytes).
#: When set, candidate lists are evaluated in chunks small enough to fit;
#: the chunked winner scan is bit-identical to the single-shot one.
BATCH_MAX_BYTES_ENV = "REPRO_BATCH_MAX_BYTES"

#: Estimated peak bytes one candidate row costs across the kernel's
#: intermediate and result columns (~60 float64/int64 arrays plus numpy
#: overhead); deliberately generous so the cap errs toward smaller chunks.
_BATCH_BYTES_PER_CANDIDATE = 1024

#: Loop-kind codes used by the slot walk (order is cosmetic, values are not).
_KIND_C, _KIND_W, _KIND_H = 0, 1, 2

#: int64 magnitude guard: products whose float64 estimate clears this bound
#: may have lost exactness (or wrapped), so the batch aborts to scalar.
_INT64_SAFE_LIMIT = float(2**62)


class BatchOverflowError(ResourceExhaustedError, OverflowError):
    """An int64 product left the exactness-guaranteed range; use scalar.

    Still an ``OverflowError`` (the historical contract) and now a
    :class:`repro.errors.ResourceExhaustedError` (code
    ``resource-exhausted``, exit 6) -- though callers normally absorb it
    by falling back to the arbitrary-precision scalar path.
    """


def batch_chunk_candidates() -> int | None:
    """The per-chunk candidate cap from ``REPRO_BATCH_MAX_BYTES``.

    ``None`` when unset (evaluate every candidate in one shot).  The byte
    budget divides by :data:`_BATCH_BYTES_PER_CANDIDATE`, floored at one
    candidate per chunk so a tiny budget degrades to scalar-like batching
    instead of failing.

    Raises:
        ConfigError: When the variable is set to anything but a
            non-negative integer.
    """
    raw = os.environ.get(BATCH_MAX_BYTES_ENV, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{BATCH_MAX_BYTES_ENV} must be a byte count, got {raw!r}"
        ) from None
    if value < 0:
        raise ConfigError(f"{BATCH_MAX_BYTES_ENV} must be >= 0, got {value}")
    return max(1, value // _BATCH_BYTES_PER_CANDIDATE)


def batch_kernel_enabled() -> bool:
    """The effective on/off switch (``REPRO_BATCH_KERNEL`` not opted out)."""
    raw = os.environ.get(BATCH_KERNEL_ENV, "").strip().lower()
    if not raw:
        return True
    return raw not in ("0", "false", "off", "no")


@dataclass(frozen=True)
class BatchResult:
    """Struct-of-arrays evaluation of one candidate list on one (layer, hw).

    Every array has one row per candidate, aligned with ``candidates``.
    Candidate-independent terms (output drain, per-cycle PE feeds) are kept
    as Python scalars, exactly as the scalar traffic assembly produces them.
    Rows where ``valid`` is ``False`` carry the arithmetic the walks produced
    anyway; only the masked score selects winners.
    """

    candidates: Sequence[Mapping]
    valid: "np.ndarray"

    # C3P walk outputs (bits / factors, float64)
    weight_a0_bits: "np.ndarray"
    weight_reload: "np.ndarray"
    weight_fill_bits: "np.ndarray"
    a_l1_cc0_bytes: "np.ndarray"
    a_l1_a0_bits: "np.ndarray"
    a_l1_reload: "np.ndarray"
    a_l1_fill_bits: "np.ndarray"
    a_l2_a0_bits: "np.ndarray"
    a_l2_reload: "np.ndarray"
    a_l2_fill_bits: "np.ndarray"

    # traffic (float64 arrays; scalar terms are candidate-independent)
    dram_input_bits: "np.ndarray"
    dram_weight_bits: "np.ndarray"
    dram_output_bits: int
    d2d_bit_hops: "np.ndarray"
    a_l2_write_bits: "np.ndarray"
    a_l2_read_bits: "np.ndarray"
    a_l1_write_bits: "np.ndarray"
    a_l1_read_bits: float
    w_l1_write_bits: "np.ndarray"
    w_l1_read_bits: "np.ndarray"
    rf_rmw_bits: float
    rf_drain_bits: int

    # energy (pJ, float64 arrays except the candidate-independent scalars)
    dram_pj: "np.ndarray"
    d2d_pj: "np.ndarray"
    a_l2_pj: "np.ndarray"
    o_l2_pj: "np.ndarray"
    a_l1_pj: "np.ndarray"
    w_l1_pj: "np.ndarray"
    rf_pj: float
    mac_pj: float
    energy_pj: "np.ndarray"

    # scalarization
    o_l2_bytes: "np.ndarray"
    cycles: "np.ndarray"
    edp: "np.ndarray"

    def __len__(self) -> int:
        return len(self.candidates)

    @property
    def evaluated(self) -> int:
        """Valid candidates (the scalar loop's ``evaluated`` counter)."""
        return int(self.valid.sum())

    @property
    def invalid(self) -> int:
        """Invalid candidates (the scalar loop's ``invalid`` counter)."""
        return len(self.candidates) - self.evaluated

    def scores(self, objective: str) -> "np.ndarray":
        """The per-candidate objective column (``"energy"`` or ``"edp"``)."""
        if objective == "energy":
            return self.energy_pj
        if objective == "edp":
            return self.edp
        raise ValueError(f"unknown batch objective {objective!r}")

    def best_index(self, objective: str = "energy") -> int | None:
        """First-in-enumeration argmin over the valid candidates.

        ``np.argmin`` returns the first index of the minimum, matching the
        scalar loop's strict-``<`` update rule on exact ties.  ``None``
        when no candidate is valid.
        """
        if not len(self.candidates) or not bool(self.valid.any()):
            return None
        masked = np.where(self.valid, self.scores(objective), np.inf)
        return int(np.argmin(masked))


@dataclass(frozen=True)
class BatchSearchOutcome:
    """What the mapper needs from a batch search."""

    best_index: int | None
    evaluated: int
    invalid: int


def _ceil_div(a: "np.ndarray", b: "np.ndarray") -> "np.ndarray":
    """Elementwise ceiling division on int64 (positive divisors)."""
    return -(-a // b)


def _encode(candidates: Sequence[Mapping]) -> dict[str, "np.ndarray"]:
    """Columnar int64 encoding of an explicit mapping list.

    A :class:`~repro.core.space.CandidateTable` already carries these
    columns; this builds them for any other sequence of mappings.
    """
    rows = [
        (
            m.package_spatial.co_ways,
            m.package_spatial.grid.rows,
            m.package_spatial.grid.cols,
            m.package_spatial.dim is PartitionDim.CHANNEL,
            m.package_temporal.tile_h,
            m.package_temporal.tile_w,
            m.package_temporal.tile_co,
            m.package_temporal.order is LoopOrder.CHANNEL_PRIORITY,
            m.chiplet_spatial.co_ways,
            m.chiplet_spatial.grid.rows,
            m.chiplet_spatial.grid.cols,
            m.chiplet_temporal.tile_h,
            m.chiplet_temporal.tile_w,
            m.chiplet_temporal.order is LoopOrder.CHANNEL_PRIORITY,
            m.rotation is RotationKind.ACTIVATIONS,
            m.rotation is RotationKind.WEIGHTS,
        )
        for m in candidates
    ]
    block = np.array(rows, dtype=np.int64).reshape(len(rows), len(CANDIDATE_COLUMNS)).T
    return dict(zip(CANDIDATE_COLUMNS, block))


def _input_channels_for(layer: ConvLayer, out_channels: "np.ndarray") -> "np.ndarray":
    """Vectorized :meth:`ConvLayer.input_channels_for` (out_channels >= 1)."""
    groups_spanned = np.minimum(
        _ceil_div(out_channels, layer.co_per_group), layer.groups
    )
    return np.minimum(groups_spanned * layer.ci_per_group, layer.ci)


def _input_rows_for(layer: ConvLayer, out_rows: "np.ndarray") -> "np.ndarray":
    """Vectorized :meth:`ConvLayer.input_rows_for` (out_rows >= 1)."""
    return (out_rows - 1) * min(layer.stride, layer.kh) + layer.kh


def _input_cols_for(layer: ConvLayer, out_cols: "np.ndarray") -> "np.ndarray":
    """Vectorized :meth:`ConvLayer.input_cols_for` (out_cols >= 1)."""
    return (out_cols - 1) * min(layer.stride, layer.kw) + layer.kw


def _window_bytes(
    layer: ConvLayer,
    data_bytes: float,
    out_rows: "np.ndarray",
    out_cols: "np.ndarray",
    channels: "np.ndarray",
) -> "np.ndarray":
    """Vectorized ``c3p._window_bytes``: int64 element count, one conversion."""
    elements = _input_rows_for(layer, out_rows) * _input_cols_for(layer, out_cols) * channels
    return elements * data_bytes


def _level_slots(
    order_channel: "np.ndarray",
    c: "np.ndarray",
    w: "np.ndarray",
    h: "np.ndarray",
) -> list[tuple["np.ndarray", "np.ndarray"]]:
    """(kind, count) columns of one temporal level, inner to outer.

    Channel-priority yields C, W, H; plane-priority yields W, H, C --
    exactly :func:`repro.core.loopnest._level_loops`.
    """
    ch = order_channel.astype(bool)
    return [
        (np.where(ch, _KIND_C, _KIND_W), np.where(ch, c, w)),
        (np.where(ch, _KIND_W, _KIND_H), np.where(ch, w, h)),
        (np.where(ch, _KIND_H, _KIND_C), np.where(ch, h, c)),
    ]


#: The family-invariant part of the kernel (see :func:`family_prefix`):
#: named read-only per-candidate arrays, or tuples of them, one per walk
#: slot.
Prefix = dict[str, "np.ndarray | tuple[np.ndarray, ...]"]


def family_prefix(
    layer: ConvLayer, hw: HardwareConfig, cols: dict[str, "np.ndarray"]
) -> Prefix:
    """Everything the kernel derives without reading W-L1 or A-L2 size.

    The loop nest, the validity mask, the whole A-L1 walk, the working
    sets the weight and A-L2 walks compare against their budgets, the
    budget-free traffic and energy terms, the cycles and the int64 guard
    estimates depend only on the layer, the candidate columns and the
    machine's compute tuple, O-L1, A-L1, O-L2, technology and topology.
    Every point of one W-L1 x A-L2 family therefore shares them
    (:class:`FamilyPlans`).  Every value is an elementwise function of its
    candidate row, so :func:`slice_prefix` of a table's prefix equals the
    prefix of the table's slice.
    """
    tech = hw.tech
    data_bytes = tech.data_bits / 8.0
    data_bits = tech.data_bits
    grouped = layer.groups > 1

    # --- loop-nest derivation (LoopNest.__init__, vectorized) ---------------
    macro_ho = _ceil_div(np.int64(layer.ho), cols["pkg_rows"])
    macro_wo = _ceil_div(np.int64(layer.wo), cols["pkg_cols"])
    macro_co = _ceil_div(np.int64(layer.co), cols["pkg_co_ways"])
    tile_ho = np.minimum(cols["pkg_tile_h"], macro_ho)
    tile_wo = np.minimum(cols["pkg_tile_w"], macro_wo)
    tile_co = np.minimum(cols["pkg_tile_co"], macro_co)
    share_ho = _ceil_div(tile_ho, cols["chp_rows"])
    share_wo = _ceil_div(tile_wo, cols["chp_cols"])
    share_co = _ceil_div(tile_co, cols["chp_co_ways"])
    core_ho = np.minimum(cols["chp_tile_h"], share_ho)
    core_wo = np.minimum(cols["chp_tile_w"], share_wo)
    core_co = np.minimum(np.int64(hw.lanes), share_co)
    c1 = _ceil_div(share_co, core_co)
    w1 = _ceil_div(share_wo, core_wo)
    h1 = _ceil_div(share_ho, core_ho)
    c2 = _ceil_div(macro_co, tile_co)
    w2 = _ceil_div(macro_wo, tile_wo)
    h2 = _ceil_div(macro_ho, tile_ho)
    n = len(macro_ho)

    pkg_grid_ways = cols["pkg_rows"] * cols["pkg_cols"]
    pkg_ways = cols["pkg_co_ways"] * pkg_grid_ways
    chp_grid_ways = cols["chp_rows"] * cols["chp_cols"]
    chp_ways = cols["chp_co_ways"] * chp_grid_ways
    n_chiplets = np.minimum(pkg_ways, np.int64(hw.n_chiplets))
    n_cores = np.minimum(chp_ways, np.int64(hw.n_cores))

    slots = _level_slots(cols["chp_order_channel"], c1, w1, h1) + _level_slots(
        cols["pkg_order_channel"], c2, w2, h2
    )

    # --- validity (LoopNest.validity_errors, vectorized) --------------------
    o_l1_required = _ceil_div(core_ho * core_wo * core_co * tech.psum_bits, np.int64(8))
    min_a_l1 = (
        _input_cols_for(layer, core_wo) * min(hw.vector_size, layer.ci) * data_bits // 8
    )
    pkg_channel = cols["pkg_is_channel"].astype(bool)
    invalid = pkg_ways > hw.n_chiplets
    invalid |= chp_ways > hw.n_cores
    invalid |= o_l1_required > hw.memory.o_l1_bytes
    invalid |= min_a_l1 > hw.memory.a_l1_bytes
    invalid |= pkg_channel & (cols["pkg_co_ways"] > layer.co)
    invalid |= cols["chp_co_ways"] > macro_co
    invalid |= (cols["pkg_rows"] > layer.ho) | (cols["pkg_cols"] > layer.wo)
    invalid |= (cols["chp_rows"] > tile_ho) | (cols["chp_cols"] > tile_wo)

    # --- weight-buffer C3P walk, budget-free part (analyze_weight_buffer) ---
    # The working set each slot compares with the W-L1 budget; -inf on
    # channel slots, which never penalize.
    weight_elements = layer.kh * layer.kw * layer.ci_per_group * core_co
    block_bytes = weight_elements * data_bytes
    working_set = block_bytes
    weight_ws = []
    for kind, count in slots:
        is_c = kind == _KIND_C
        weight_ws.append(np.where(is_c, -np.inf, working_set))
        working_set = np.where(is_c, working_set * count, working_set)
    total_channel = c1 * c2
    weight_a0_bits = block_bytes * 8.0 * total_channel

    # --- A-L1 C3P walk (analyze_activation_l1) ------------------------------
    block_channels = _input_channels_for(layer, core_co)
    chunk_channels = np.minimum(np.int64(hw.vector_size), block_channels)
    cc0 = _window_bytes(layer, data_bytes, core_ho, core_wo, chunk_channels)
    a_l1_budget = float(hw.memory.a_l1_bytes)
    kernel_sweep = float(layer.kh * layer.kw)
    a_l1_reload = np.where(a_l1_budget >= cc0, 1.0, kernel_sweep)
    out_rows, out_cols = core_ho, core_wo
    channel_multiplicity = np.ones(n, dtype=np.int64)
    ci_col = np.full(n, layer.ci, dtype=np.int64)
    for kind, count in slots:
        is_c = kind == _KIND_C
        if grouped:
            channel_multiplicity = np.where(
                is_c, channel_multiplicity * count, channel_multiplicity
            )
        else:
            ws = _window_bytes(layer, data_bytes, out_rows, out_cols, ci_col)
            penalized = is_c & (a_l1_budget < ws)
            a_l1_reload = np.where(penalized, a_l1_reload * count, a_l1_reload)
        out_cols = np.where(kind == _KIND_W, out_cols * count, out_cols)
        out_rows = np.where(kind == _KIND_H, out_rows * count, out_rows)
    planar_iterations = w1 * h1 * w2 * h2
    if grouped:
        a0_channels = np.minimum(block_channels * channel_multiplicity, layer.ci)
    else:
        a0_channels = ci_col
    a_l1_a0_bits = (
        _window_bytes(layer, data_bytes, core_ho, core_wo, a0_channels)
        * 8.0
        * planar_iterations
    )
    a_l1_fill_bits = a_l1_a0_bits * a_l1_reload

    # --- A-L2 C3P walk, budget-free part (analyze_activation_l2) ------------
    # Level-2 loops only; the working set each channel slot compares with
    # the A-L2 budget, -inf where nothing can penalize (grouped layers
    # never do).
    tile_channels = _input_channels_for(layer, tile_co)
    a_l2_ws = []
    out_rows, out_cols = tile_ho, tile_wo
    channel_multiplicity2 = np.ones(n, dtype=np.int64)
    for kind, count in slots[3:]:
        is_c = kind == _KIND_C
        if grouped:
            channel_multiplicity2 = np.where(
                is_c, channel_multiplicity2 * count, channel_multiplicity2
            )
            a_l2_ws.append(np.full(n, -np.inf))
        else:
            ws = _window_bytes(layer, data_bytes, out_rows, out_cols, ci_col)
            a_l2_ws.append(np.where(is_c, ws, -np.inf))
        out_cols = np.where(kind == _KIND_W, out_cols * count, out_cols)
        out_rows = np.where(kind == _KIND_H, out_rows * count, out_rows)
    if grouped:
        a0_channels2 = np.minimum(tile_channels * channel_multiplicity2, layer.ci)
    else:
        a0_channels2 = ci_col
    a_l2_a0_bits = (
        _window_bytes(layer, data_bytes, tile_ho, tile_wo, a0_channels2) * 8.0 * w2 * h2
    )

    # --- traffic terms no budget touches (compute_traffic) ------------------
    # Sharing cost dispatches on the package topology (ring/mesh: N_P - 1
    # hops; switch: N_P).  n_chiplets is per-candidate, so evaluate the
    # scalar model once per distinct count -- candidate spaces only ever
    # contain a handful of active-chiplet values.
    sharing_hops = np.zeros_like(n_chiplets)
    for count in np.unique(n_chiplets):
        sharing_hops[n_chiplets == count] = hw.topology.sharing_hops_per_bit(
            int(count)
        )
    core_blocks = c1 * w1 * h1 * c2 * w2 * h2
    block_weight_bits = weight_elements * data_bits
    w_l1_read_bits = block_weight_bits * core_blocks * n_cores * n_chiplets
    a_l1_write_bits = a_l1_fill_bits * n_cores * n_chiplets
    a_l2_read_bits = a_l1_fill_bits * chp_grid_ways * n_chiplets

    # --- int64 exactness guard estimates ------------------------------------
    blocks_f = (
        c1.astype(np.float64)
        * w1.astype(np.float64)
        * h1.astype(np.float64)
        * c2.astype(np.float64)
        * w2.astype(np.float64)
        * h2.astype(np.float64)
    )
    read_estimate = block_weight_bits.astype(np.float64) * blocks_f * n_cores * n_chiplets
    block_cycles_f = (
        core_ho.astype(np.float64) * core_wo * layer.kh * layer.kw
    )  # chunk factor bounded below by 1, added next
    chunks = _ceil_div(np.maximum(_input_channels_for(layer, core_co), 1),
                       np.int64(hw.vector_size))
    cycles_estimate = blocks_f * block_cycles_f * chunks
    window_estimate = (
        _input_rows_for(layer, out_rows).astype(np.float64)
        * _input_cols_for(layer, out_cols)
        * layer.ci
    )

    # --- energy terms no budget touches (energy_from_traffic) ---------------
    model = EnergyModel(hw)
    output_bits = layer.output_elements * data_bits
    o_l2_bytes = _ceil_div(tile_ho * tile_wo * tile_co * data_bits, np.int64(8))
    if hw.memory.o_l2_bytes:
        o_l2_pj_bit = np.full(n, model.o_l2_pj_per_bit(0), dtype=np.float64)
    else:
        # TechnologyParams.sram_energy_pj_per_bit on the per-candidate size.
        slope = (tech.l2_anchor_pj_per_bit - tech.l1_anchor_pj_per_bit) / (
            tech.l2_anchor_kb - tech.l1_anchor_kb
        )
        size_kb = o_l2_bytes / 1024.0
        o_l2_pj_bit = np.maximum(
            tech.l1_anchor_pj_per_bit + slope * (size_kb - tech.l1_anchor_kb),
            tech.rf_rmw_energy_pj_per_bit,
        )
    o_l2_pj = (output_bits + output_bits) * o_l2_pj_bit
    a_l1_read_bits = layer.macs / hw.lanes * data_bits
    a_l1_pj = (a_l1_write_bits + a_l1_read_bits) * model.a_l1_pj_per_bit

    # --- cycles (LoopNest.total_cycles) -------------------------------------
    block_cycles = core_ho * core_wo * layer.kh * layer.kw * chunks
    cycles = core_blocks * block_cycles

    prefix = {
        "valid": ~invalid,
        "chp_grid_ways": chp_grid_ways,
        "chp_co_ways": cols["chp_co_ways"],
        "n_chiplets": n_chiplets,
        "sharing_hops": sharing_hops,
        "plane_rotated": ~pkg_channel & cols["rot_weights"].astype(bool),
        "channel_rotated": pkg_channel & cols["rot_activations"].astype(bool),
        "slot_counts": tuple(count for _, count in slots),
        "weight_ws": tuple(weight_ws),
        "weight_a0_bits": weight_a0_bits,
        "a_l1_cc0_bytes": cc0,
        "a_l1_a0_bits": a_l1_a0_bits,
        "a_l1_reload": a_l1_reload,
        "a_l1_fill_bits": a_l1_fill_bits,
        "a_l2_ws": tuple(a_l2_ws),
        "a_l2_a0_bits": a_l2_a0_bits,
        "a_l1_write_bits": a_l1_write_bits,
        "a_l2_read_bits": a_l2_read_bits,
        "w_l1_read_bits": w_l1_read_bits,
        "o_l2_bytes": o_l2_bytes,
        "o_l2_pj": o_l2_pj,
        "a_l1_pj": a_l1_pj,
        "cycles": cycles,
        "runtime_s": cycles * tech.cycle_time_ns() * 1e-9,
        "guard": np.maximum(np.maximum(read_estimate, cycles_estimate), window_estimate),
    }
    for value in prefix.values():
        for array in value if isinstance(value, tuple) else (value,):
            array.flags.writeable = False
    return prefix


def slice_prefix(prefix: Prefix, rows: slice) -> Prefix:
    """The prefix of the candidates ``rows`` selects."""
    return {
        name: tuple(a[rows] for a in value) if isinstance(value, tuple) else value[rows]
        for name, value in prefix.items()
    }


def evaluate_batch(
    layer: ConvLayer,
    hw: HardwareConfig,
    candidates: Sequence[Mapping],
    prefix: Prefix | None = None,
) -> BatchResult:
    """Evaluate every candidate mapping of one (layer, hw) in one pass.

    A :class:`~repro.core.space.CandidateTable` is read through its
    columns; any other sequence is encoded mapping by mapping first.
    ``prefix`` is the candidates' :func:`family_prefix` when the caller
    already holds it (a :class:`FamilyPlans` hit): it must have been
    built for ``candidates`` on a machine of ``hw``'s family, and only the
    W-L1/A-L2 budget comparisons, the traffic and the energy are left.

    Raises:
        BatchOverflowError: When an int64 product would leave the exact
            range (callers fall back to the scalar oracle).
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")
    if prefix is None:
        if isinstance(candidates, CandidateTable):
            cols = candidates.columns
        else:
            cols = _encode(candidates)
        prefix = family_prefix(layer, hw, cols)
    elif prefix["valid"].shape != (len(candidates),):
        raise ValueError(
            f"prefix has {prefix['valid'].size} rows for {len(candidates)} candidates"
        )
    guard = float(prefix["guard"].max())
    if guard > _INT64_SAFE_LIMIT:
        raise BatchOverflowError(
            f"candidate magnitude {guard:g} exceeds the int64-exact range"
        )
    p = prefix
    tech = hw.tech
    data_bits = tech.data_bits

    # --- the W-L1 and A-L2 budget comparisons -------------------------------
    weight_buffer = (hw.memory.w_l1_bytes * p["chp_grid_ways"]).astype(np.float64)
    weight_reload = np.ones(len(candidates), dtype=np.float64)
    for working_set, count in zip(p["weight_ws"], p["slot_counts"]):
        weight_reload = np.where(
            weight_buffer < working_set, weight_reload * count, weight_reload
        )
    weight_fill_bits = p["weight_a0_bits"] * weight_reload
    a_l2_budget = float(hw.memory.a_l2_bytes)
    a_l2_reload = np.ones(len(candidates), dtype=np.float64)
    for working_set, count in zip(p["a_l2_ws"], p["slot_counts"][3:]):
        a_l2_reload = np.where(
            a_l2_budget < working_set, a_l2_reload * count, a_l2_reload
        )
    a_l2_fill_bits = p["a_l2_a0_bits"] * a_l2_reload

    # --- traffic assembly (compute_traffic) ---------------------------------
    n_chiplets = p["n_chiplets"]
    chiplet_weight_fill = weight_fill_bits * p["chp_co_ways"]
    plane_rotated = p["plane_rotated"]
    dram_weight_bits = np.where(
        plane_rotated, chiplet_weight_fill, chiplet_weight_fill * n_chiplets
    )
    weight_d2d = np.where(plane_rotated, chiplet_weight_fill * p["sharing_hops"], 0.0)
    w_l1_write_bits = chiplet_weight_fill * n_chiplets
    channel_rotated = p["channel_rotated"]
    dram_input_bits = np.where(
        channel_rotated, a_l2_fill_bits, a_l2_fill_bits * n_chiplets
    )
    act_d2d = np.where(channel_rotated, a_l2_fill_bits * p["sharing_hops"], 0.0)
    a_l2_write_bits = a_l2_fill_bits * n_chiplets
    a_l1_read_bits = layer.macs / hw.lanes * data_bits
    d2d_bit_hops = act_d2d + weight_d2d

    output_bits = layer.output_elements * data_bits
    psum_rmw_bits = layer.macs / hw.vector_size * tech.psum_bits
    rf_drain_bits = layer.output_elements * tech.psum_bits

    # --- energy (energy_from_traffic) ---------------------------------------
    model = EnergyModel(hw)
    dram_bits = dram_input_bits + dram_weight_bits + output_bits
    dram_pj = dram_bits * model.dram_pj_per_bit
    d2d_pj = d2d_bit_hops * model.d2d_pj_per_bit
    a_l2_pj = (a_l2_write_bits + p["a_l2_read_bits"]) * model.a_l2_pj_per_bit
    w_l1_pj = (w_l1_write_bits + p["w_l1_read_bits"]) * model.w_l1_pj_per_bit
    rf_pj = (psum_rmw_bits + rf_drain_bits) * model.rf_rmw_pj_per_bit
    mac_pj = model.mac_energy_pj(layer.macs)
    # EnergyBreakdown.total_pj association order, component by component.
    energy_pj = (
        ((((((dram_pj + d2d_pj) + a_l2_pj) + p["o_l2_pj"]) + p["a_l1_pj"]) + w_l1_pj)
         + rf_pj)
        + mac_pj
    )

    # --- EDP (CostReport.edp) -----------------------------------------------
    edp = energy_pj * 1e-12 * p["runtime_s"]

    return BatchResult(
        candidates=candidates,
        valid=p["valid"],
        weight_a0_bits=p["weight_a0_bits"],
        weight_reload=weight_reload,
        weight_fill_bits=weight_fill_bits,
        a_l1_cc0_bytes=p["a_l1_cc0_bytes"],
        a_l1_a0_bits=p["a_l1_a0_bits"],
        a_l1_reload=p["a_l1_reload"],
        a_l1_fill_bits=p["a_l1_fill_bits"],
        a_l2_a0_bits=p["a_l2_a0_bits"],
        a_l2_reload=a_l2_reload,
        a_l2_fill_bits=a_l2_fill_bits,
        dram_input_bits=dram_input_bits,
        dram_weight_bits=dram_weight_bits,
        dram_output_bits=output_bits,
        d2d_bit_hops=d2d_bit_hops,
        a_l2_write_bits=a_l2_write_bits,
        a_l2_read_bits=p["a_l2_read_bits"],
        a_l1_write_bits=p["a_l1_write_bits"],
        a_l1_read_bits=a_l1_read_bits,
        w_l1_write_bits=w_l1_write_bits,
        w_l1_read_bits=p["w_l1_read_bits"],
        rf_rmw_bits=psum_rmw_bits,
        rf_drain_bits=rf_drain_bits,
        dram_pj=dram_pj,
        d2d_pj=d2d_pj,
        a_l2_pj=a_l2_pj,
        o_l2_pj=p["o_l2_pj"],
        a_l1_pj=p["a_l1_pj"],
        w_l1_pj=w_l1_pj,
        rf_pj=rf_pj,
        mac_pj=mac_pj,
        energy_pj=energy_pj,
        o_l2_bytes=p["o_l2_bytes"],
        cycles=p["cycles"],
        edp=edp,
    )


#: Objective-function names the kernel can score (mapper objectives).
BATCH_OBJECTIVES = {
    "energy_objective": "energy",
    "edp_objective": "edp",
}


def search_batch(
    layer: ConvLayer,
    hw: HardwareConfig,
    candidates: Sequence[Mapping],
    objective: str = "energy_objective",
    prefix: Prefix | None = None,
) -> BatchSearchOutcome | None:
    """Batch-evaluate ``candidates`` and pick the scalar-identical winner.

    Returns ``None`` when the kernel cannot guarantee bit-identity for this
    call (unknown objective, empty candidate list, or the int64 exactness
    guard tripping) -- callers then run the scalar loop.

    When ``REPRO_BATCH_MAX_BYTES`` caps the working set, the list is
    evaluated in chunks.  Chunking cannot change any per-candidate value
    (every output row of :func:`evaluate_batch` is an elementwise function
    of that row alone), and the cross-chunk winner scan uses the same
    strict-``<`` update as the scalar loop, so the first-in-enumeration
    winner -- and therefore the whole sweep output -- is byte-identical at
    every chunk size.  A ``prefix`` (the candidates' :func:`family_prefix`)
    is sliced alongside them.
    """
    scorer = BATCH_OBJECTIVES.get(objective)
    if scorer is None or not candidates:
        return None
    chunk = batch_chunk_candidates()
    if chunk is None or chunk >= len(candidates):
        try:
            result = evaluate_batch(layer, hw, candidates, prefix)
        except BatchOverflowError:
            return None
        return BatchSearchOutcome(
            best_index=result.best_index(scorer),
            evaluated=result.evaluated,
            invalid=result.invalid,
        )
    best_index: int | None = None
    best_score = float("inf")
    evaluated = invalid = n_chunks = 0
    for start in range(0, len(candidates), chunk):
        rows = slice(start, start + chunk)
        try:
            result = evaluate_batch(
                layer,
                hw,
                candidates[rows],
                None if prefix is None else slice_prefix(prefix, rows),
            )
        except BatchOverflowError:
            return None
        n_chunks += 1
        evaluated += result.evaluated
        invalid += result.invalid
        local = result.best_index(scorer)
        if local is None:
            continue
        score = float(result.scores(scorer)[local])
        if score < best_score:  # strict <: ties keep the earlier chunk's winner
            best_score = score
            best_index = start + local
    obs.count("mapper.batch.chunks", n_chunks)
    return BatchSearchOutcome(
        best_index=best_index, evaluated=evaluated, invalid=invalid
    )


def _family_hardware(hw: HardwareConfig) -> HardwareConfig:
    """``hw`` with the two sizes a family's sweep points vary blanked.

    W-L1 and A-L2 are zeroed through ``dataclasses.replace``, so every other
    field -- including any added later -- stays part of the family.
    """
    return replace(hw, memory=replace(hw.memory, w_l1_bytes=0, a_l2_bytes=0))


@dataclass(frozen=True)
class FamilyPlan:
    """One layer's deduped mapping space plus its kernel prefix."""

    table: CandidateTable
    prefix: Prefix


class FamilyPlans:
    """The family-plan memo of one sweep.

    One plan per (layer geometry, profile, hardware with W-L1 and A-L2
    blanked), built on the blanked machine, serves every W-L1 x A-L2 point
    of a family.  The memo holds the current family only and drops it when
    the family changes.  It lives as long as the sweep holding it and
    unpickles empty, so each pool worker keeps its own for the life of its
    pool.
    """

    def __init__(self) -> None:
        self._point: tuple[HardwareConfig, SearchProfile] | None = None
        self._space: MappingSpace | None = None
        self._plans: dict[ConvLayer, FamilyPlan] = {}

    def __reduce__(self):
        return (FamilyPlans, ())

    def plan(
        self, hw: HardwareConfig, profile: SearchProfile, layer: ConvLayer
    ) -> FamilyPlan:
        """The plan of ``layer`` for ``hw``'s family under ``profile``.

        A hit still counts the table's dropped congruent candidates, as a
        fresh :meth:`~repro.core.space.MappingSpace.unique_candidates`
        would.
        """
        if (hw, profile) != self._point:
            self._point = (hw, profile)
            space = MappingSpace(_family_hardware(hw), profile)
            if space != self._space:
                self._space, self._plans = space, {}
        key = replace(layer, name="")
        plan = self._plans.get(key)
        if plan is None:
            table = self._space.unique_candidates(layer)
            plan = FamilyPlan(table, family_prefix(layer, self._space.hw, table.columns))
            self._plans[key] = plan
        elif plan.table.deduped:
            obs.count("space.candidates.deduped", plan.table.deduped)
        return plan
