"""Property-based tests for the guided search engine's safety invariants.

Three contracts from the guided-DSE design:

* **Admissibility** -- :func:`repro.core.search.edp_lower_bound` never
  exceeds the actual EDP of any valid design, so dominance pruning (drop
  a candidate whose bound beats the incumbent's actual) can never discard
  the true optimum.
* **Congruence** -- mapping candidates that share a
  :meth:`~repro.core.space.MappingSpace.congruence_key` produce identical
  cost-model output, so symmetry dedup changes candidate counts but never
  the search result.
* **Reproducibility** -- a seeded guided run is a pure function of
  (seed, space, models): replaying it yields byte-identical trials.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import build_hardware
from repro.core.cost import InvalidMappingError, evaluate_mapping
from repro.core.dse import DesignSpace, _evaluate_point
from repro.core.search import GuidedStrategy, edp_lower_bound, guided_explore
from repro.core.space import MappingSpace, SearchProfile
from repro.workloads.layer import ConvLayer
from tests.properties import space_oracle

PROP_SPACE = DesignSpace(
    vector_sizes=(2, 4),
    lanes=(2, 4),
    cores=(1, 2),
    chiplets=(1, 2),
    o_l1_per_lane_bytes=(48, 96),
    a_l1_kb=(1, 4),
    w_l1_kb=(2, 8),
    a_l2_kb=(32, 64),
)
PROP_MACS = 16


@st.composite
def prop_layer(draw):
    return ConvLayer(
        name="prop",
        h=draw(st.sampled_from([7, 14, 28])),
        w=draw(st.sampled_from([7, 14])),
        ci=draw(st.sampled_from([3, 16, 32])),
        co=draw(st.sampled_from([16, 32])),
        kh=draw(st.sampled_from([1, 3])),
        kw=draw(st.sampled_from([1, 3])),
        stride=draw(st.sampled_from([1, 2])),
        padding=1,
    )


@st.composite
def prop_hardware(draw):
    from repro.core.search import Lattice

    lattice = Lattice(PROP_SPACE, PROP_MACS)
    index = draw(st.sampled_from(lattice.scan()))
    cand = lattice.candidate(index)
    return build_hardware(*cand.comp, memory=cand.memory)


class TestDominancePruningSafety:
    @given(prop_hardware(), prop_layer())
    @settings(max_examples=30, deadline=None)
    def test_lower_bound_is_admissible(self, hw, layer):
        """bound <= actual EDP, the exact premise the pruning rule needs.

        If this holds for every (hardware, workload) pair, a pruned
        candidate (bound > incumbent actual) can never have beaten the
        incumbent, so pruning never discards the true optimum.
        """
        models = {"prop": [layer]}
        try:
            energy, cycles, _cache = _evaluate_point(
                hw, models, SearchProfile.MINIMAL
            )
        except InvalidMappingError:
            return  # no legal mapping: nothing for pruning to discard
        actual_edp = (
            energy["prop"] * 1e-12
            * cycles["prop"] * hw.tech.cycle_time_ns() * 1e-9
        )
        bound = edp_lower_bound(hw, [layer])
        assert bound <= actual_edp * (1 + 1e-12)


class TestDedupCongruence:
    @given(prop_hardware(), prop_layer())
    @settings(max_examples=15, deadline=None)
    def test_congruent_candidates_cost_identically(self, hw, layer):
        """Every congruence class is cost-homogeneous.

        Group the *raw* candidate stream (the nested-loop oracle, before
        any dedup) by the scalar congruence key and evaluate
        every member: all members of a class must either all be invalid
        or all produce the same (energy, cycles, utilization) triple --
        which is what makes keep-first dedup result-preserving.
        """
        space = MappingSpace(hw, SearchProfile.MINIMAL)
        classes: dict[tuple, list] = {}
        for mapping in space_oracle.candidates(space, layer):
            classes.setdefault(
                space.congruence_key(layer, mapping), []
            ).append(mapping)
        multi = {k: v for k, v in classes.items() if len(v) > 1}
        for members in multi.values():
            outcomes = []
            for mapping in members:
                try:
                    report = evaluate_mapping(layer, hw, mapping)
                except InvalidMappingError:
                    outcomes.append(None)
                    continue
                outcomes.append(
                    (report.energy_pj, report.cycles, report.utilization)
                )
            assert len(set(outcomes)) == 1, outcomes

    @given(prop_hardware(), prop_layer())
    @settings(max_examples=15, deadline=None)
    def test_dedup_keeps_one_representative_per_class(self, hw, layer):
        space = MappingSpace(hw, SearchProfile.MINIMAL)
        unique = space.unique_candidates(layer)
        keys = [space.congruence_key(layer, m) for m in unique]
        assert len(keys) == len(set(keys))
        all_keys = {
            space.congruence_key(layer, m)
            for m in space_oracle.candidates(space, layer)
        }
        assert set(keys) == all_keys


class TestSeededReproducibility:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_strategy_trajectory_replays(self, seed):
        """Two strategies with one seed propose identical sequences when
        told identical results (a synthetic deterministic objective)."""
        from repro.core.search import Trial

        def drive(strategy):
            proposed = []
            for _ in range(6):
                batch = strategy.ask(8)
                if not batch:
                    break
                proposed.extend(cand.index for cand in batch)
                trials = [
                    Trial(cand, "evaluated", None, edp=float(sum(cand.index)))
                    for cand in batch
                ]
                strategy.tell(trials)
            return proposed

        a = drive(GuidedStrategy(PROP_SPACE, PROP_MACS, trials=64, seed=seed))
        b = drive(GuidedStrategy(PROP_SPACE, PROP_MACS, trials=64, seed=seed))
        assert a == b

    @given(st.integers(min_value=0, max_value=999))
    @settings(max_examples=3, deadline=None)
    def test_guided_explore_replays_end_to_end(self, seed):
        models = {
            "prop": [
                ConvLayer("c", h=14, w=14, ci=16, co=32, kh=3, kw=3, padding=1)
            ]
        }

        def run():
            points = guided_explore(
                models,
                PROP_MACS,
                space=PROP_SPACE,
                profile=SearchProfile.MINIMAL,
                trials=12,
                seed=seed,
                jobs=1,
            )
            return [
                (
                    p.label,
                    p.valid,
                    tuple(p.errors),
                    tuple(sorted(p.energy_pj.items())),
                    tuple(sorted(p.cycles.items())),
                )
                for p in points
            ]

        assert run() == run()
