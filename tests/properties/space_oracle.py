"""The object-per-candidate mapping-space enumeration, kept as an oracle.

:class:`repro.core.space.MappingSpace` builds its candidate space as int64
columns.  This module is the nested-loop generator and the
``congruence_key``-per-candidate keep-first dedup that the columnar build
replaced: one :class:`~repro.core.mapping.Mapping` per candidate, one
:class:`~repro.core.loopnest.LoopNest` per key.  The differential suite
(``test_space_columns.py``) holds the columnar build to it row for row.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.mapping import Mapping
from repro.core.primitives import TemporalPrimitive
from repro.core.space import MappingSpace
from repro.workloads.layer import ConvLayer, ceil_div


def candidates(space: MappingSpace, layer: ConvLayer) -> Iterator[Mapping]:
    """Yield every candidate mapping for ``layer`` (unvalidated)."""
    hw = space.hw
    for package in space.package_spatials(layer):
        macro_ho = ceil_div(layer.ho, package.grid.rows)
        macro_wo = ceil_div(layer.wo, package.grid.cols)
        macro_co = ceil_div(layer.co, package.co_ways)
        for chiplet in space.chiplet_spatials(layer, package):
            share_cap_ho = ceil_div(macro_ho, chiplet.grid.rows)
            share_cap_wo = ceil_div(macro_wo, chiplet.grid.cols)
            for core_ho, core_wo in space.core_tiles(layer, share_cap_ho, share_cap_wo):
                for mult_h in space.tile_multipliers():
                    tile_ho = min(core_ho * chiplet.grid.rows * mult_h, macro_ho)
                    for mult_w in space.tile_multipliers():
                        tile_wo = min(core_wo * chiplet.grid.cols * mult_w, macro_wo)
                        for mult_c in space.channel_multipliers():
                            tile_co = min(chiplet.co_ways * hw.lanes * mult_c, macro_co)
                            for pkg_order, chip_order in space.orders():
                                for rotation in space.rotations(package):
                                    yield Mapping(
                                        package_spatial=package,
                                        package_temporal=TemporalPrimitive(
                                            pkg_order, tile_ho, tile_wo, tile_co
                                        ),
                                        chiplet_spatial=chiplet,
                                        chiplet_temporal=TemporalPrimitive(
                                            chip_order,
                                            core_ho,
                                            core_wo,
                                            min(hw.lanes, tile_co),
                                        ),
                                        rotation=rotation,
                                    )


def unique_candidates(space: MappingSpace, layer: ConvLayer) -> tuple[list[Mapping], int]:
    """Keep-first dedup of :func:`candidates` by ``congruence_key``.

    Returns the representatives in enumeration order and the number of
    congruent candidates dropped.
    """
    seen: set[tuple] = set()
    out: list[Mapping] = []
    dropped = 0
    for mapping in candidates(space, layer):
        key = space.congruence_key(layer, mapping)
        if key in seen:
            dropped += 1
            continue
        seen.add(key)
        out.append(mapping)
    return out, dropped
