"""Mapping-space enumeration for the exhaustive search (Section V-C).

"The mapping analysis engine adopts exhaustive search to evaluate hundreds of
cases, including partition patterns with different height-width ratios and
loop transformation of various spatial-temporal combinations."

Two profiles bound the enumeration:

* ``EXHAUSTIVE`` -- the full candidate set for the per-layer case studies
  (Figures 11-13): every spatial combination, every temporal priority pair,
  several planar patterns and tile multipliers, rotation on and off.
* ``FAST`` -- a pruned set for the pre-design sweeps (Figures 14-15), where
  thousands of hardware points each need a mapping search: rotation is
  always preferred when data is shared (one DRAM access plus ``N_P - 1``
  ring hops is strictly cheaper than ``N_P`` DRAM accesses under Table I),
  and only the strongest tile shapes survive.

The space is built as a :class:`CandidateTable` -- int64 columns, one row
per candidate, in the batch kernel's encoding -- rather than one
:class:`~repro.core.mapping.Mapping` object per candidate.  Congruence
dedup runs over the same columns; a ``Mapping`` is rebuilt only when a
caller indexes or iterates the table (the mapper rebuilds just its
winner).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.arch.config import HardwareConfig
from repro.core.mapping import Mapping
from repro.core.partition import factor_grids
from repro.core.primitives import (
    LoopOrder,
    PartitionDim,
    RotationKind,
    SpatialPrimitive,
    TemporalPrimitive,
)
from repro.workloads.layer import ConvLayer, ceil_div


class SearchProfile(Enum):
    """How aggressively the mapping space is pruned.

    ``EXHAUSTIVE`` keeps every spatial combination and temporal pair (the
    per-layer case studies).  ``FAST`` keeps one partition per dimension kind
    and a few tile shapes (the Figure 14 granularity study).  ``MINIMAL``
    keeps a heuristic core so the ~10^4-point Figure 15 sweep stays
    laptop-scale on one core.
    """

    EXHAUSTIVE = "exhaustive"
    FAST = "fast"
    MINIMAL = "minimal"


#: The batch kernel's int64 encoding of a mapping, one column per field.
CANDIDATE_COLUMNS = (
    "pkg_co_ways", "pkg_rows", "pkg_cols", "pkg_is_channel",
    "pkg_tile_h", "pkg_tile_w", "pkg_tile_co", "pkg_order_channel",
    "chp_co_ways", "chp_rows", "chp_cols",
    "chp_tile_h", "chp_tile_w", "chp_order_channel",
    "rot_activations", "rot_weights",
)

#: Rows of an enumerated block: the kernel columns, then the package and
#: chiplet primitive indices and the rotation code a rebuild reads.
_BLOCK = CANDIDATE_COLUMNS + ("pkg", "chp", "rotation")

#: The block rows a :class:`Mapping` is rebuilt from, in argument order.
_MAPPING_FIELDS = (
    "pkg", "chp", "pkg_tile_h", "pkg_tile_w", "pkg_tile_co", "pkg_order_channel",
    "chp_tile_h", "chp_tile_w", "chp_order_channel", "rotation",
)

_ROTATIONS = (RotationKind.NONE, RotationKind.ACTIVATIONS, RotationKind.WEIGHTS)
_ROTATION_CODE = {kind: code for code, kind in enumerate(_ROTATIONS)}
#: Indexed by an ``*_order_channel`` column value.
_ORDERS = (LoopOrder.PLANE_PRIORITY, LoopOrder.CHANNEL_PRIORITY)
_INT64_MAX = 2**63 - 1


def _divisors(n: int) -> list[int]:
    """All divisors of ``n``, ascending."""
    result = [d for d in range(1, n + 1) if n % d == 0]
    return result


def _dedupe(items: list) -> list:
    """Order-preserving deduplication."""
    seen = set()
    out = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


@dataclass(frozen=True)
class MappingSpace:
    """Candidate mappings for one hardware instance.

    Attributes:
        hw: Target hardware.
        profile: Enumeration aggressiveness.
    """

    hw: HardwareConfig
    profile: SearchProfile = SearchProfile.EXHAUSTIVE

    # --- spatial candidates ------------------------------------------------------

    def package_spatials(self, layer: ConvLayer) -> list[SpatialPrimitive]:
        """Package-level C-type / P-type partitions feeding N_P chiplets."""
        n = self.hw.n_chiplets
        if n == 1:
            return [SpatialPrimitive.channel(1)]
        options: list[SpatialPrimitive] = []
        if layer.co >= n:
            options.append(SpatialPrimitive.channel(n))
        grids = [
            g
            for g in factor_grids(n)
            if g.ways > 1 and g.rows <= layer.ho and g.cols <= layer.wo
        ]
        if self.profile is not SearchProfile.EXHAUSTIVE and len(grids) > 2:
            # Keep the rectangle (low DRAM-conflict degree, Figure 8) and the
            # most square grid.
            grids = _dedupe(
                [
                    min(grids, key=lambda g: g.aspect_ratio()),
                    max(grids, key=lambda g: g.aspect_ratio()),
                ]
            )
        options.extend(SpatialPrimitive.plane(g) for g in grids)
        if not options:
            # Thin layer: occupy as many chiplets as it has channels; the
            # rest idle (utilization pays for them).
            options.append(SpatialPrimitive.channel(min(n, layer.co)))
        return options

    def chiplet_spatials(
        self, layer: ConvLayer, package: SpatialPrimitive
    ) -> list[SpatialPrimitive]:
        """Chiplet-level C / P / H partitions feeding N_C cores."""
        n = self.hw.n_cores
        macro_co = ceil_div(layer.co, package.co_ways)
        macro_ho = ceil_div(layer.ho, package.grid.rows)
        macro_wo = ceil_div(layer.wo, package.grid.cols)
        if n == 1:
            return [SpatialPrimitive.channel(1)]
        options: list[SpatialPrimitive] = []
        if macro_co >= n:
            options.append(SpatialPrimitive.channel(n))
        plane_grids = [
            g
            for g in factor_grids(n)
            if g.ways > 1 and g.rows <= macro_ho and g.cols <= macro_wo
        ]
        if self.profile is not SearchProfile.EXHAUSTIVE and len(plane_grids) > 1:
            plane_grids = [min(plane_grids, key=lambda g: g.aspect_ratio())]
        options.extend(SpatialPrimitive.plane(g) for g in plane_grids)
        for co_ways in _divisors(n):
            if co_ways in (1, n) or macro_co < co_ways:
                continue
            sub_grids = [
                g
                for g in factor_grids(n // co_ways)
                if g.rows <= macro_ho and g.cols <= macro_wo
            ]
            if not sub_grids:
                continue
            if self.profile is not SearchProfile.EXHAUSTIVE:
                sub_grids = [min(sub_grids, key=lambda g: g.aspect_ratio())]
            options.extend(SpatialPrimitive.hybrid(co_ways, g) for g in sub_grids)
        if self.profile is not SearchProfile.EXHAUSTIVE:
            # Keep at most one partition per dimension kind.
            kept: dict[PartitionDim, SpatialPrimitive] = {}
            for opt in options:
                kept.setdefault(opt.dim, opt)
            options = list(kept.values())
        if not options:
            # Thin macro partition: occupy as many cores as it has channels.
            options.append(SpatialPrimitive.channel(min(n, max(macro_co, 1))))
        return options

    # --- tile candidates ------------------------------------------------------------

    def core_tiles(self, layer: ConvLayer, share_ho: int, share_wo: int) -> list[tuple[int, int]]:
        """Core-workload planar tiles respecting the O-L1 psum capacity."""
        psum_bytes = self.hw.tech.psum_bits / 8.0
        max_pixels = max(int(self.hw.memory.o_l1_bytes / (psum_bytes * self.hw.lanes)), 1)
        tiles: list[tuple[int, int]] = []
        side = 1
        while side * side <= max_pixels:
            tiles.append((min(side, share_ho), min(side, share_wo)))
            if side * 2 * side <= max_pixels:
                tiles.append((min(side, share_ho), min(2 * side, share_wo)))
                tiles.append((min(2 * side, share_ho), min(side, share_wo)))
            side *= 2
        # Full-width row stripe (friendly to sliding-window input reuse).
        row_w = min(share_wo, max_pixels)
        tiles.append((1, row_w))
        # The largest tile covering the share, if it fits.
        if share_ho * share_wo <= max_pixels:
            tiles.append((share_ho, share_wo))
        # The largest square tile whose Cc0 (one P-channel input window) fits
        # the A-L1 -- the C3P-guided choice that dodges the kernel-sweep
        # reload penalty on large-kernel layers.
        cc0_tile = self._cc0_square_tile(layer, max_pixels)
        if cc0_tile is not None:
            tiles.append((min(cc0_tile, share_ho), min(cc0_tile, share_wo)))
        tiles = _dedupe([(h, w) for h, w in tiles if 1 <= h and 1 <= w])
        cc0_kept = (
            [(min(cc0_tile, share_ho), min(cc0_tile, share_wo))]
            if cc0_tile is not None
            else []
        )
        if self.profile is not SearchProfile.EXHAUSTIVE and len(tiles) > 3:
            # The largest square, the largest overall, the row stripe, and
            # the Cc0-fitting tile.
            largest_square = max(
                (t for t in tiles if t[0] == t[1]),
                key=lambda t: t[0] * t[1],
                default=tiles[0],
            )
            largest = max(tiles, key=lambda t: t[0] * t[1])
            stripe = (1, row_w)
            tiles = _dedupe([largest_square, largest, stripe] + cc0_kept)
        if self.profile is SearchProfile.MINIMAL and len(tiles) > 2:
            largest_square = max(
                (t for t in tiles if t[0] == t[1]),
                key=lambda t: t[0] * t[1],
                default=tiles[0],
            )
            largest = max(tiles, key=lambda t: t[0] * t[1])
            tiles = _dedupe([largest_square, largest] + cc0_kept)
        return tiles

    def _cc0_square_tile(self, layer: ConvLayer, max_pixels: int) -> int | None:
        """Side of the largest square tile whose Cc0 fits the A-L1.

        Cc0 is one P-channel chunk of the tile's input window (the paper's
        supplemental critical capacity).  The side doubles while the tile
        stays within ``max_pixels`` and its Cc0 fits.  Returns ``None`` only
        when even a 1x1 tile overflows the A-L1.
        """
        chunk = min(self.hw.vector_size, layer.ci)
        bytes_per = self.hw.tech.data_bits / 8.0
        budget = self.hw.memory.a_l1_bytes

        def cc0(side: int) -> float:
            return (
                layer.input_rows_for(side) * layer.input_cols_for(side) * chunk * bytes_per
            )

        if cc0(1) > budget:
            return None
        side = 1
        while side * 2 * side * 2 <= max_pixels and cc0(side * 2) <= budget:
            side *= 2
        return side

    def tile_multipliers(self) -> list[int]:
        """Chiplet-workload tile multipliers over the core grid footprint."""
        if self.profile is SearchProfile.MINIMAL:
            return [2]
        return [1, 4]

    def channel_multipliers(self) -> list[int]:
        """Chiplet-workload channel multipliers over ``co_ways * L``."""
        if self.profile is SearchProfile.MINIMAL:
            return [2]
        return [1, 4]

    def orders(self) -> list[tuple[LoopOrder, LoopOrder]]:
        """(package, chiplet) temporal priority pairs.

        All four combinations, except in MINIMAL where only the two matched
        pairs survive (mixed priorities rarely win; see the ablation bench).
        """
        priorities = (LoopOrder.CHANNEL_PRIORITY, LoopOrder.PLANE_PRIORITY)
        if self.profile is SearchProfile.MINIMAL:
            return [(p, p) for p in priorities]
        return [(pkg, chip) for pkg in priorities for chip in priorities]

    def rotations(self, package: SpatialPrimitive) -> list[RotationKind]:
        """Rotating-transfer choices for a package partition."""
        if package.ways == 1:
            return [RotationKind.NONE]
        if package.dim is PartitionDim.CHANNEL:
            shared = RotationKind.ACTIVATIONS
        else:
            shared = RotationKind.WEIGHTS
        if self.profile is SearchProfile.EXHAUSTIVE:
            return [shared, RotationKind.NONE]
        return [shared]

    # --- enumeration ------------------------------------------------------------

    def _enumerate(
        self, layer: ConvLayer
    ) -> tuple["np.ndarray", list[SpatialPrimitive], list[SpatialPrimitive]]:
        """Every candidate of ``layer`` as rows of an int64 block.

        Python loops only over the (package, chiplet, core tile) combos;
        the tile-multiplier x channel-multiplier x order x rotation product
        under each combo is broadcast in the nested-loop order it replaces
        (combo-major, rotation innermost).  Returns the ``(len(_BLOCK),
        n)`` block plus the distinct package and chiplet primitives its
        index rows point into.
        """
        lanes = self.hw.lanes
        packages: dict[SpatialPrimitive, int] = {}
        chiplets: dict[SpatialPrimitive, int] = {}
        rotations: list[list[int]] = []
        combos: list[tuple[int, ...]] = []
        for package in self.package_spatials(layer):
            macro_ho = ceil_div(layer.ho, package.grid.rows)
            macro_wo = ceil_div(layer.wo, package.grid.cols)
            macro_co = ceil_div(layer.co, package.co_ways)
            pkg_id = packages.setdefault(package, len(packages))
            if pkg_id == len(rotations):
                rotations.append([_ROTATION_CODE[r] for r in self.rotations(package)])
            pkg_fields = (
                pkg_id, package.co_ways, package.grid.rows, package.grid.cols,
                package.dim is PartitionDim.CHANNEL, macro_ho, macro_wo, macro_co,
            )
            for chiplet in self.chiplet_spatials(layer, package):
                chp_id = chiplets.setdefault(chiplet, len(chiplets))
                rows, cols, co_ways = chiplet.grid.rows, chiplet.grid.cols, chiplet.co_ways
                share_cap_ho = ceil_div(macro_ho, rows)
                share_cap_wo = ceil_div(macro_wo, cols)
                for core_ho, core_wo in self.core_tiles(layer, share_cap_ho, share_cap_wo):
                    combos.append(
                        pkg_fields + (chp_id, co_ways, rows, cols, core_ho, core_wo)
                    )
        n_rot = max(len(r) for r in rotations)
        rotation_table = np.array(
            [r + [-1] * (n_rot - len(r)) for r in rotations], dtype=np.int64
        )
        orders = [
            (pkg_order is LoopOrder.CHANNEL_PRIORITY, chp_order is LoopOrder.CHANNEL_PRIORITY)
            for pkg_order, chp_order in self.orders()
        ]
        inner = np.array(
            [
                (mult_h, mult_w, mult_c, pkg_order, chp_order, slot)
                for mult_h in self.tile_multipliers()
                for mult_w in self.tile_multipliers()
                for mult_c in self.channel_multipliers()
                for pkg_order, chp_order in orders
                for slot in range(n_rot)
            ],
            dtype=np.int64,
        ).T
        (
            pkg, pkg_co_ways, pkg_rows, pkg_cols, pkg_is_channel,
            macro_ho, macro_wo, macro_co,
            chp, chp_co_ways, chp_rows, chp_cols, core_ho, core_wo,
        ) = np.repeat(np.array(combos, dtype=np.int64).T, inner.shape[1], axis=1)
        mult_h, mult_w, mult_c, pkg_order, chp_order, slot = np.tile(inner, len(combos))
        rotation = rotation_table[pkg, slot]
        block = np.stack(
            [
                pkg_co_ways, pkg_rows, pkg_cols, pkg_is_channel,
                np.minimum(core_ho * chp_rows * mult_h, macro_ho),
                np.minimum(core_wo * chp_cols * mult_w, macro_wo),
                np.minimum(chp_co_ways * lanes * mult_c, macro_co),
                pkg_order,
                chp_co_ways, chp_rows, chp_cols, core_ho, core_wo, chp_order,
                rotation == _ROTATION_CODE[RotationKind.ACTIVATIONS],
                rotation == _ROTATION_CODE[RotationKind.WEIGHTS],
                pkg, chp, rotation,
            ]
        )
        if n_rot > 1 and (rotation_table < 0).any():
            block = block[:, rotation >= 0]
        return block, list(packages), list(chiplets)

    def congruence_key(self, layer: ConvLayer, mapping: Mapping) -> tuple:
        """The cost-determining signature of ``mapping`` on ``layer``.

        The cost model reads a mapping only through its derived
        :class:`~repro.core.loopnest.LoopNest` (clamped tile extents and
        the loop structure they induce) plus the spatial primitives,
        rotation and loop orders.  Two candidates with equal keys are
        therefore *congruent*: they produce identical traffic, energy and
        cycle numbers, and evaluating both is pure waste.  Declared tile
        sizes that clamp to the same extent (the common case -- several
        multipliers saturate at the macro-tile bound) land on one key.
        """
        from repro.core.loopnest import LoopNest

        nest = LoopNest(layer, self.hw, mapping)
        return (
            mapping.package_spatial,
            mapping.chiplet_spatial,
            mapping.rotation,
            mapping.package_temporal.order,
            mapping.chiplet_temporal.order,
            nest.tile_ho,
            nest.tile_wo,
            nest.tile_co,
            nest.core_ho,
            nest.core_wo,
            nest.core_co,
        )

    def unique_candidates(self, layer: ConvLayer) -> "CandidateTable":
        """Candidates deduplicated up to cost-model congruence.

        One vectorized keep-first pass over the columns of
        :meth:`congruence_key` -- the spatial primitives, rotation and loop
        orders, and the clamped tile/core extents a
        :class:`~repro.core.loopnest.LoopNest` would derive -- keeps the
        *first* representative of each class in enumeration order, so the
        mapper's strict-``<`` minimum selects the same winning mapping it
        always did.  The number of discarded congruent candidates is
        exported as the ``space.candidates.deduped`` obs counter.
        """
        from repro import obs

        block, packages, chiplets = self._enumerate(layer)
        c = dict(zip(_BLOCK, block))
        tile_ho, tile_wo, tile_co = c["pkg_tile_h"], c["pkg_tile_w"], c["pkg_tile_co"]
        key = (
            c["pkg"], c["chp"], c["rotation"], c["pkg_order_channel"], c["chp_order_channel"],
            tile_ho, tile_wo, tile_co,
            np.minimum(c["chp_tile_h"], -(-tile_ho // c["chp_rows"])),
            np.minimum(c["chp_tile_w"], -(-tile_wo // c["chp_cols"])),
            np.minimum(self.hw.lanes, -(-tile_co // c["chp_co_ways"])),
        )
        kept = _first_occurrences(key)
        dropped = block.shape[1] - len(kept)
        if dropped:
            obs.count("space.candidates.deduped", dropped)
            block = block[:, kept]
        return CandidateTable(block, packages, chiplets, self.hw.lanes, deduped=dropped)


def _first_occurrences(key: tuple["np.ndarray", ...]) -> "np.ndarray":
    """Ascending row indices of the first row of each distinct key.

    The non-negative key columns pack into one int64 when their ranges
    allow, so the dedup is a single 1-D ``np.unique``; its stable sort
    returns each key's first occurrence.
    """
    radices = [int(col.max()) + 1 for col in key]
    if math.prod(radices) <= _INT64_MAX:
        packed = key[0]
        for col, radix in zip(key[1:], radices[1:]):
            packed = packed * radix + col
        _, first = np.unique(packed, return_index=True)
    else:
        _, first = np.unique(np.stack(key, axis=1), axis=0, return_index=True)
    first.sort()
    return first


class CandidateTable(Sequence[Mapping]):
    """A mapping space as int64 columns, one row per candidate.

    :attr:`columns` holds the batch kernel's struct-of-arrays encoding
    (:data:`CANDIDATE_COLUMNS`), so a search scores the whole space
    without building a :class:`Mapping` per candidate.  Indexing or
    iterating rebuilds mappings on demand, equal to the ones the nested
    enumeration loops used to build; slicing returns a table.  The columns
    are read-only, so a table can be shared between searches; ``deduped``
    is the number of congruent candidates the space dropped (0 on a slice).
    """

    __slots__ = (
        "columns", "deduped", "_block", "_rows", "_packages", "_chiplets", "_lanes",
        "__weakref__",
    )

    def __init__(
        self,
        block: "np.ndarray",
        packages: list[SpatialPrimitive],
        chiplets: list[SpatialPrimitive],
        lanes: int,
        deduped: int = 0,
    ) -> None:
        block.flags.writeable = False
        self.deduped = deduped
        self._block = block
        self._rows = dict(zip(_BLOCK, block))
        self.columns: dict[str, "np.ndarray"] = {
            name: self._rows[name] for name in CANDIDATE_COLUMNS
        }
        self._packages = packages
        self._chiplets = chiplets
        self._lanes = lanes

    def __len__(self) -> int:
        return self._block.shape[1]

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return CandidateTable(
                self._block[:, index], self._packages, self._chiplets, self._lanes
            )
        row = range(len(self))[index]  # normalizes negatives, raises IndexError
        return self._mapping(*(int(self._rows[name][row]) for name in _MAPPING_FIELDS))

    def __iter__(self) -> Iterator[Mapping]:
        fields = [self._rows[name].tolist() for name in _MAPPING_FIELDS]
        for values in zip(*fields):
            yield self._mapping(*values)

    def _mapping(
        self,
        pkg: int,
        chp: int,
        tile_h: int,
        tile_w: int,
        tile_co: int,
        pkg_order: int,
        core_h: int,
        core_w: int,
        chp_order: int,
        rotation: int,
    ) -> Mapping:
        return Mapping(
            package_spatial=self._packages[pkg],
            package_temporal=TemporalPrimitive(_ORDERS[pkg_order], tile_h, tile_w, tile_co),
            chiplet_spatial=self._chiplets[chp],
            chiplet_temporal=TemporalPrimitive(
                _ORDERS[chp_order], core_h, core_w, min(self._lanes, tile_co)
            ),
            rotation=_ROTATIONS[rotation],
        )
