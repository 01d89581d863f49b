"""Tests for the post-design mapping search."""

import pytest

from repro.arch.config import case_study_hardware
from repro.core.cost import evaluate_mapping
from repro.core.mapper import Mapper, edp_objective, energy_objective, map_model
from repro.core.space import MappingSpace, SearchProfile
from repro.workloads.layer import ConvLayer


def common_layer(name="c"):
    return ConvLayer(name, h=56, w=56, ci=64, co=256, kh=3, kw=3, stride=1, padding=1)


@pytest.fixture
def mapper():
    return Mapper(hw=case_study_hardware(), profile=SearchProfile.FAST)


class TestSearchLayer:
    def test_best_is_minimum_over_candidates(self, mapper):
        layer = common_layer()
        result = mapper.search_layer(layer)
        hw = case_study_hardware()
        space = MappingSpace(hw, SearchProfile.FAST)
        for mapping in space.unique_candidates(layer):
            try:
                report = evaluate_mapping(layer, hw, mapping)
            except Exception:
                continue
            assert result.best.energy_pj <= report.energy_pj + 1e-6

    def test_statistics_reported(self, mapper):
        result = mapper.search_layer(common_layer())
        assert result.candidates_evaluated > 0
        assert result.candidates_invalid >= 0

    def test_shape_cache_shares_search(self, mapper):
        first = mapper.search_layer(common_layer("conv_a"))
        second = mapper.search_layer(common_layer("conv_b"))
        assert second.best is first.best           # same evaluation reused
        assert second.layer.name == "conv_b"       # identity preserved

    def test_objective_changes_winner_criterion(self):
        hw = case_study_hardware()
        layer = common_layer()
        by_energy = Mapper(hw=hw, profile=SearchProfile.FAST).search_layer(layer)
        by_edp = Mapper(
            hw=hw, profile=SearchProfile.FAST, objective=edp_objective
        ).search_layer(layer)
        assert by_edp.best.edp(hw) <= by_energy.best.edp(hw) + 1e-20

    def test_energy_objective_is_default(self, mapper):
        assert mapper.objective is energy_objective


class TestSearchModel:
    def test_maps_every_layer(self, mapper):
        layers = [common_layer(f"l{i}") for i in range(3)]
        results = mapper.search_model(layers)
        assert [r.layer.name for r in results] == ["l0", "l1", "l2"]

    def test_empty_model_rejected(self, mapper):
        with pytest.raises(ValueError):
            mapper.search_model([])

    def test_map_model_wrapper(self):
        results = map_model(
            [common_layer()], case_study_hardware(), profile=SearchProfile.MINIMAL
        )
        assert len(results) == 1

    def test_exhaustive_at_least_as_good_as_minimal(self):
        hw = case_study_hardware()
        layer = common_layer()
        exhaustive = Mapper(hw=hw, profile=SearchProfile.EXHAUSTIVE).search_layer(layer)
        minimal = Mapper(hw=hw, profile=SearchProfile.MINIMAL).search_layer(layer)
        assert exhaustive.best.energy_pj <= minimal.best.energy_pj + 1e-6


class TestCacheAccountingIsJobsInvariant:
    def _run(self, layers, jobs):
        from repro import obs
        from repro.core.cache import MappingCache
        from repro.core.parallel import SweepStats

        stats = SweepStats()
        recorder = obs.Recorder()
        with obs.use(recorder):
            Mapper(
                hw=case_study_hardware(),
                profile=SearchProfile.MINIMAL,
                cache=MappingCache(),
            ).search_model(layers, jobs=jobs, stats=stats)
        counters = {
            name: value
            for name, value in recorder.metrics.counters().items()
            if name.startswith("cache.")
        }
        return stats.cache_hits, stats.cache_misses, counters

    def test_each_layer_counted_once_at_every_job_count(self):
        """A prefetched shape is one miss, not a miss plus a hit."""
        shapes = [
            ConvLayer("a", h=28, w=28, ci=32, co=64, kh=3, kw=3, padding=1),
            ConvLayer("b", h=14, w=14, ci=64, co=64, kh=1, kw=1),
            ConvLayer("c", h=7, w=7, ci=64, co=128, kh=3, kw=3, padding=1),
        ]
        layers = [
            ConvLayer(f"{shape.name}{i}", h=shape.h, w=shape.w, ci=shape.ci,
                      co=shape.co, kh=shape.kh, kw=shape.kw, padding=shape.padding)
            for i in range(3)
            for shape in shapes
        ]
        serial = self._run(layers, jobs=1)
        assert serial[:2] == (6, 3)
        assert serial[2]["cache.hits"] == 6 and serial[2]["cache.misses"] == 3
        assert self._run(layers, jobs=2) == serial
