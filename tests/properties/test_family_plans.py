"""Per-family sweep plans: the invariance they rely on, and their lifetime.

A sweep's :class:`~repro.core.batch.FamilyPlans` memo hands every point of
a W-L1 x A-L2 family the same candidate table and kernel prefix.  That is
sound only if neither buffer size reaches enumeration, congruence dedup,
the validity rules or any prefix column.  The properties here check it:

* the candidate table and every prefix column (the validity mask among
  them) are equal across machines that differ only in W-L1/A-L2;
* every :class:`~repro.core.batch.BatchResult` field on a memo hit is
  bit-identical to a fresh :func:`~repro.core.batch.evaluate_batch`,
  chunk by chunk too, as ``REPRO_BATCH_MAX_BYTES`` slices it;
* the memo lives and dies with its sweep, a standalone ``Mapper`` keeps
  no table, memoized arrays are read-only, and a sweep equals a loop of
  memo-free mappers point by point.
"""

import gc
import os
import pickle
import weakref
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.arch.config import KB, MemoryConfig, build_hardware
from repro.core import batch, dse
from repro.core.mapper import Mapper
from repro.core.space import MappingSpace, SearchProfile
from repro.workloads.layer import ConvLayer
from tests.properties.test_space_columns import conv_layer, gemm_layer

MAX_EXAMPLES = 30

#: W-L1 and A-L2 sizes: Table II's ranges plus budgets small enough that
#: the weight and A-L2 walks penalize.
W_L1_BYTES = [256, 2 * KB, 18 * KB, 256 * KB]
A_L2_BYTES = [512, 8 * KB, 64 * KB, 256 * KB]


@st.composite
def family_pair(draw):
    """Two machines of one family: only W-L1 and A-L2 differ."""
    lanes = draw(st.sampled_from([4, 8, 16]))
    chiplets = draw(st.sampled_from([1, 2, 4, 8]))
    cores = draw(st.sampled_from([1, 2, 4, 8, 16]))
    vector = draw(st.sampled_from([4, 8, 16]))
    memory = MemoryConfig(
        a_l1_bytes=draw(st.sampled_from([64, 800, 4 * KB, 64 * KB])),
        w_l1_bytes=draw(st.sampled_from(W_L1_BYTES)),
        o_l1_bytes=lanes * draw(st.sampled_from([3, 48, 192, 768])),
        a_l2_bytes=draw(st.sampled_from(A_L2_BYTES)),
    )
    other = replace(
        memory,
        w_l1_bytes=draw(st.sampled_from(W_L1_BYTES)),
        a_l2_bytes=draw(st.sampled_from(A_L2_BYTES)),
    )
    first = build_hardware(chiplets, cores, lanes, vector, memory=memory)
    return first, first.with_memory(other)


def any_layer():
    return st.one_of(conv_layer(), gemm_layer())


def assert_bit_identical(got, want):
    """Every field of two BatchResults equal to the last bit and dtype."""
    for field in fields(batch.BatchResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "candidates":
            assert list(a) == list(b)
        elif isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


def prefix_arrays(prefix):
    """(name, array) for every prefix array, walk slots numbered."""
    for name, value in prefix.items():
        if isinstance(value, tuple):
            for slot, array in enumerate(value):
                yield f"{name}[{slot}]", array
        else:
            yield name, value


def plan_for(plans, layer, hw, profile):
    return plans.plan(hw, profile, layer)


def fresh(layer, hw, profile):
    """A memo-free evaluation, or the overflow error it raises."""
    table = MappingSpace(hw, profile).unique_candidates(layer)
    try:
        return table, batch.evaluate_batch(layer, hw, table)
    except batch.BatchOverflowError as exc:
        return table, exc


class TestFamilyInvariance:
    @given(any_layer(), family_pair(), st.sampled_from(list(SearchProfile)))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_table_and_prefix_ignore_w_l1_and_a_l2(self, layer, pair, profile):
        first, second = pair
        tables = [MappingSpace(hw, profile).unique_candidates(layer) for hw in pair]
        assert list(tables[0]) == list(tables[1])
        assert tables[0].deduped == tables[1].deduped
        for name, column in tables[0].columns.items():
            assert np.array_equal(column, tables[1].columns[name]), name
        prefixes = [
            batch.family_prefix(layer, hw, table.columns)
            for hw, table in zip(pair, tables)
        ]
        pairs = zip(prefix_arrays(prefixes[0]), prefix_arrays(prefixes[1]), strict=True)
        for (name, array), (other_name, other) in pairs:
            assert name == other_name
            assert array.dtype == other.dtype, name
            assert array.tobytes() == other.tobytes(), name

    @given(any_layer(), family_pair(), st.sampled_from(list(SearchProfile)))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_memo_hit_is_bit_identical_to_fresh(self, layer, pair, profile):
        plans = batch.FamilyPlans()
        first_plan = plan_for(plans, layer, pair[0], profile)
        for hw in pair:
            plan = plan_for(plans, layer, hw, profile)
            assert plan is first_plan
            table, want = fresh(layer, hw, profile)
            assert list(plan.table) == list(table)
            if isinstance(want, batch.BatchOverflowError):
                with pytest.raises(batch.BatchOverflowError):
                    batch.evaluate_batch(layer, hw, plan.table, plan.prefix)
                continue
            assert_bit_identical(
                batch.evaluate_batch(layer, hw, plan.table, plan.prefix), want
            )

    @given(
        any_layer(),
        family_pair(),
        st.sampled_from(list(SearchProfile)),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_chunked_memo_hit_is_bit_identical(self, layer, pair, profile, chunk):
        plans = batch.FamilyPlans()
        plan_for(plans, layer, pair[0], profile)
        hw = pair[1]
        plan = plan_for(plans, layer, hw, profile)
        table = MappingSpace(hw, profile).unique_candidates(layer)
        for start in range(0, len(table), chunk):
            rows = slice(start, start + chunk)
            part = batch.slice_prefix(plan.prefix, rows)
            try:
                want = batch.evaluate_batch(layer, hw, table[rows])
            except batch.BatchOverflowError:
                with pytest.raises(batch.BatchOverflowError):
                    batch.evaluate_batch(layer, hw, plan.table[rows], part)
                continue
            assert_bit_identical(
                batch.evaluate_batch(layer, hw, plan.table[rows], part), want
            )
        budget = str(chunk * batch._BATCH_BYTES_PER_CANDIDATE)
        with mock.patch.dict(os.environ, {batch.BATCH_MAX_BYTES_ENV: budget}):
            assert batch.search_batch(
                layer, hw, plan.table, prefix=plan.prefix
            ) == batch.search_batch(layer, hw, table)

    def test_whole_table_prefix_rejected_for_a_slice(self):
        layer = ConvLayer("c", h=28, w=28, ci=32, co=64, kh=3, kw=3, padding=1)
        hw = build_hardware(4, 4, 8, 8)
        plan = plan_for(batch.FamilyPlans(), layer, hw, SearchProfile.FAST)
        assert len(plan.table) > 1
        with pytest.raises(ValueError, match="prefix has"):
            batch.evaluate_batch(layer, hw, plan.table[:1], plan.prefix)


LAYER = ConvLayer("c", h=28, w=28, ci=32, co=64, kh=3, kw=3, padding=1)
HW = build_hardware(4, 4, 8, 8)


class TestMemo:
    def test_family_change_drops_the_previous_family(self):
        plans = batch.FamilyPlans()
        first = plan_for(plans, LAYER, HW, SearchProfile.MINIMAL)
        resized = HW.with_memory(replace(HW.memory, w_l1_bytes=2 * KB, a_l2_bytes=KB))
        assert plan_for(plans, LAYER, resized, SearchProfile.MINIMAL) is first
        renamed = replace(LAYER, name="other")
        assert plan_for(plans, renamed, HW, SearchProfile.MINIMAL) is first
        table = weakref.ref(first.table)
        other_a_l1 = HW.with_memory(replace(HW.memory, a_l1_bytes=4 * KB))
        plan_for(plans, LAYER, other_a_l1, SearchProfile.MINIMAL)
        del first
        gc.collect()
        assert table() is None

    def test_profile_is_part_of_the_family(self):
        plans = batch.FamilyPlans()
        minimal = plan_for(plans, LAYER, HW, SearchProfile.MINIMAL)
        assert plan_for(plans, LAYER, HW, SearchProfile.FAST) is not minimal

    def test_memo_never_crosses_a_process_boundary(self):
        plans = batch.FamilyPlans()
        plan_for(plans, LAYER, HW, SearchProfile.MINIMAL)
        assert pickle.loads(pickle.dumps(plans))._plans == {}

    def test_memoized_arrays_are_read_only(self):
        plan = plan_for(batch.FamilyPlans(), LAYER, HW, SearchProfile.FAST)
        arrays = list(plan.table.columns.values())
        arrays += [array for _, array in prefix_arrays(plan.prefix)]
        for array in arrays:
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            plan.table.columns["pkg_tile_h"][0] = 1
        with pytest.raises(ValueError):
            plan.prefix["weight_ws"][0][0] = 0.0
        result = batch.evaluate_batch(LAYER, HW, plan.table, plan.prefix)
        with pytest.raises(ValueError):
            result.valid[0] = False

    def test_hit_counts_dropped_candidates_once_per_search(self):
        plans = batch.FamilyPlans()
        recorder = obs.Recorder()
        with obs.use(recorder):
            dropped = plan_for(plans, LAYER, HW, SearchProfile.EXHAUSTIVE).table.deduped
            plan_for(plans, LAYER, HW, SearchProfile.EXHAUSTIVE)
        assert dropped > 0
        counters = recorder.metrics.counters()
        assert counters["space.candidates.deduped"] == 2 * dropped


def tiny_model():
    return {
        "tiny": [
            ConvLayer("c1", h=28, w=28, ci=32, co=64, kh=3, kw=3, padding=1),
            ConvLayer("c2", h=14, w=14, ci=64, co=128, kh=1, kw=1),
            ConvLayer("c3", h=14, w=14, ci=64, co=128, kh=1, kw=1),
        ]
    }


SPACE = dse.DesignSpace(
    vector_sizes=(8,),
    lanes=(8,),
    cores=(4,),
    chiplets=(2,),
    o_l1_per_lane_bytes=(96,),
    a_l1_kb=(1, 4),
    w_l1_kb=(2, 18, 144),
    a_l2_kb=(32, 256),
)


class TestSweepLifetime:
    def test_explore_releases_every_plan(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        refs = []
        plan = batch.FamilyPlans.plan

        def recording_plan(self, hw, profile, layer):
            result = plan(self, hw, profile, layer)
            refs.extend([weakref.ref(self), weakref.ref(result.table)])
            return result

        monkeypatch.setattr(batch.FamilyPlans, "plan", recording_plan)
        points = dse.explore(
            tiny_model(), 512, space=SPACE, profile=SearchProfile.MINIMAL, jobs=1
        )
        assert any(p.valid for p in points) and refs
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_standalone_mapper_retains_no_table(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        tables = []
        unique = MappingSpace.unique_candidates

        def recording_unique(self, layer):
            table = unique(self, layer)
            tables.append(weakref.ref(table))
            return table

        monkeypatch.setattr(MappingSpace, "unique_candidates", recording_unique)
        mapper = Mapper(hw=HW, profile=SearchProfile.FAST)
        mapper.search_model(tiny_model()["tiny"])
        assert mapper.plans is None and tables
        gc.collect()
        assert all(ref() is None for ref in tables)

    def test_sweep_equals_memo_free_mappers(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        models = tiny_model()
        points = dse.explore(
            models, 512, space=SPACE, profile=SearchProfile.MINIMAL, jobs=1
        )
        assert sum(p.valid for p in points) > 1
        for point in points:
            if not point.valid:
                continue
            energy, cycles = {}, {}
            for name, layers in models.items():
                mapper = Mapper(hw=point.hw, profile=SearchProfile.MINIMAL)
                results = mapper.search_model(layers, jobs=1)
                breakdown, total, _ = dse.model_cost([r.best for r in results], point.hw)
                energy[name], cycles[name] = breakdown.total_pj, total
            assert (point.energy_pj, point.cycles) == (energy, cycles), point.label
