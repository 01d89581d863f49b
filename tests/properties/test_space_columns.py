"""Differential suite: the columnar mapping space against the nested loops.

:meth:`MappingSpace.unique_candidates` builds, dedups and returns the
candidate space as int64 columns.  The object-per-candidate generator with
``congruence_key`` keep-first dedup it replaced lives on in
:mod:`tests.properties.space_oracle`.  For every (layer, machine, profile)
the two must agree on:

* the columns, equal to ``batch._encode`` of the oracle's representatives;
* the row order (the first-in-enumeration winner depends on it);
* every rebuilt :class:`~repro.core.mapping.Mapping`, by value;
* the ``space.candidates.deduped`` count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.arch.config import KB, MemoryConfig, build_hardware, case_study_hardware
from repro.core import batch
from repro.core.space import (
    CandidateTable,
    MappingSpace,
    SearchProfile,
    _first_occurrences,
)
from repro.workloads.extraction import representative_layers
from repro.workloads.layer import ConvLayer, matmul
from tests.properties import space_oracle

MAX_EXAMPLES = 30


@st.composite
def conv_layer(draw):
    """Dense, strided, grouped or depthwise convolutions."""
    kind = draw(st.sampled_from(["dense", "strided", "grouped", "depthwise"]))
    kernel = draw(st.sampled_from([1, 3, 5, 7]))
    stride = 2 if kind == "strided" else draw(st.sampled_from([1, 1, 2]))
    if kind == "depthwise":
        groups = ci = co = draw(st.sampled_from([8, 32, 96]))
    elif kind == "grouped":
        groups = draw(st.sampled_from([2, 4]))
        ci = groups * draw(st.sampled_from([2, 8]))
        co = groups * draw(st.sampled_from([4, 16]))
    else:
        groups = 1
        ci = draw(st.sampled_from([3, 16, 64]))
        co = draw(st.sampled_from([2, 16, 64, 256]))
    return ConvLayer(
        name=f"prop_{kind}",
        h=draw(st.sampled_from([1, 7, 14, 28, 56, 112])),
        w=draw(st.sampled_from([1, 7, 14, 30, 56])),
        ci=ci,
        co=co,
        kh=kernel,
        kw=kernel,
        stride=stride,
        padding=kernel // 2,
        groups=groups,
    )


@st.composite
def gemm_layer(draw):
    """GEMM-shaped layers: dense, batched, multi-head and GEMV."""
    heads = draw(st.sampled_from([1, 1, 2, 4]))
    return matmul(
        "prop_mm",
        m=draw(st.sampled_from([1, 8, 32, 128])),
        k=heads * draw(st.sampled_from([8, 64, 256])),
        n=heads * draw(st.sampled_from([8, 64, 768])),
        batch=draw(st.sampled_from([1, 1, 4])),
        heads=heads,
    )


@st.composite
def machine(draw):
    """A machine from the Table II computation ranges, buffers varied."""
    chiplets = draw(st.sampled_from([1, 2, 4, 8]))
    cores = draw(st.sampled_from([1, 2, 4, 8, 16]))
    lanes = draw(st.sampled_from([4, 8, 16]))
    vector = draw(st.sampled_from([4, 8, 16]))
    memory = None
    if draw(st.booleans()):
        memory = MemoryConfig(
            a_l1_bytes=draw(st.sampled_from([64, 800, 4 * KB])),
            w_l1_bytes=18 * KB,
            o_l1_bytes=lanes * draw(st.sampled_from([3, 48, 192, 768])),
            a_l2_bytes=64 * KB,
        )
    return build_hardware(chiplets, cores, lanes, vector, memory=memory)


def assert_matches_oracle(layer, hw, profile):
    space = MappingSpace(hw, profile)
    recorder = obs.Recorder()
    with obs.use(recorder):
        table = space.unique_candidates(layer)
    expected, dropped = space_oracle.unique_candidates(space, layer)

    assert isinstance(table, CandidateTable)
    assert len(table) == len(expected)
    encoded = batch._encode(expected)
    for name, column in encoded.items():
        assert table.columns[name].dtype == np.int64
        assert np.array_equal(table.columns[name], column), name
    assert list(table) == expected
    for index in {0, len(expected) // 2, len(expected) - 1}:
        assert table[index] == expected[index]
    assert table[-1] == expected[-1]
    deduped = recorder.metrics.counters().get("space.candidates.deduped", 0)
    assert deduped == dropped


class TestColumnarSpaceMatchesOracle:
    @given(conv_layer(), machine(), st.sampled_from(list(SearchProfile)))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_conv_layers(self, layer, hw, profile):
        assert_matches_oracle(layer, hw, profile)

    @given(gemm_layer(), machine(), st.sampled_from(list(SearchProfile)))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_gemm_layers(self, layer, hw, profile):
        assert_matches_oracle(layer, hw, profile)

    @pytest.mark.parametrize(
        "kind", list(representative_layers(224)), ids=lambda kind: kind.value
    )
    def test_representative_layers_exhaustive(self, kind):
        layer = representative_layers(224)[kind]
        assert_matches_oracle(layer, case_study_hardware(), SearchProfile.EXHAUSTIVE)


class TestCandidateTable:
    def _table(self):
        layer = representative_layers(224)[next(iter(representative_layers(224)))]
        return MappingSpace(case_study_hardware(), SearchProfile.FAST).unique_candidates(
            layer
        )

    def test_slices_are_tables_over_the_same_rows(self):
        table = self._table()
        part = table[3:11]
        assert isinstance(part, CandidateTable)
        assert list(part) == list(table)[3:11]
        for name, column in part.columns.items():
            assert np.array_equal(column, table.columns[name][3:11])

    def test_index_out_of_range(self):
        table = self._table()
        with pytest.raises(IndexError):
            table[len(table)]
        with pytest.raises(IndexError):
            table[-len(table) - 1]

    def test_sequence_protocol(self):
        table = self._table()
        assert table
        assert table.index(table[5]) == 5
        assert table[5] in table


class TestFirstOccurrences:
    @pytest.mark.parametrize("scale", [1, 2**40], ids=["packed", "row-unique"])
    def test_keep_first_on_both_key_paths(self, scale):
        """Narrow keys pack into one int64; keys too wide to pack (a radix
        product past 2**63) take the row-wise ``np.unique`` path."""
        key = tuple(np.random.default_rng(0).integers(0, 3, size=(3, 200)) * scale)
        first: dict[tuple, int] = {}
        for index, row in enumerate(zip(*(col.tolist() for col in key))):
            first.setdefault(row, index)
        assert _first_occurrences(key).tolist() == sorted(first.values())
