"""Self-tests of the benchmark's own machinery.

Run from the repository root::

    python3 perfbench/selftest.py

They check the order statistics on known samples, that the tracer puts
every wrapped original back, that its self times add up, that a traced pass
gives the same answer as an untraced one, and that ``BENCHMARK.json`` names
exactly the metrics the runs report.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
import unittest
from pathlib import Path

from run import ROOT, SRC, WORK_ROOT, remove_work, scrub_repro_env

sys.path.insert(0, str(SRC))

from layertrace import PER_LAYER, Patches, Tracer, targets, unit_of  # noqa: E402
from stats import median, p90, percentile  # noqa: E402
import workloads  # noqa: E402


class StatsTest(unittest.TestCase):
    def test_median(self) -> None:
        self.assertEqual(median([3, 1, 2]), 2)
        self.assertEqual(median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            median([])

    def test_nearest_rank_percentile(self) -> None:
        sample = [15, 20, 35, 40, 50]
        self.assertEqual(percentile(sample, 5), 15)
        self.assertEqual(percentile(sample, 30), 20)
        self.assertEqual(percentile(sample, 40), 20)
        self.assertEqual(percentile(sample, 50), 35)
        self.assertEqual(percentile(sample, 100), 50)

    def test_p90(self) -> None:
        self.assertEqual(p90(list(range(1, 101))), 90)
        self.assertEqual(p90(list(range(200, 0, -1))), 180)
        with self.assertRaises(ValueError):
            p90(list(range(99)))  # fewer than ten samples would lie beyond it


class PatchesTest(unittest.TestCase):
    def _originals(self) -> list:
        return [
            (owner, attribute, owner.__dict__[attribute])
            for _span, owner, attribute, _probe in targets()
        ]

    def test_tracer_restores_every_original(self) -> None:
        before = self._originals()
        with Tracer():
            for owner, attribute, original in before:
                self.assertIsNot(owner.__dict__[attribute], original, attribute)
        for owner, attribute, original in before:
            self.assertIs(owner.__dict__[attribute], original, attribute)

    def test_restore_after_an_exception(self) -> None:
        before = self._originals()
        with self.assertRaises(RuntimeError):
            with Tracer():
                raise RuntimeError("boom")
        for owner, attribute, original in before:
            self.assertIs(owner.__dict__[attribute], original, attribute)

    def test_inherited_attribute_is_deleted_again(self) -> None:
        class Base:
            def f(self) -> int:
                return 1

        class Child(Base):
            pass

        with Patches() as patches:
            patches.set(Child, "f", lambda self: 2)
            self.assertEqual(Child().f(), 2)
        self.assertNotIn("f", Child.__dict__)
        self.assertEqual(Child().f(), 1)


class TracerTest(unittest.TestCase):
    def test_self_times_add_up(self) -> None:
        tracer = Tracer()

        def inner() -> None:
            time.sleep(0.02)

        wrapped_inner = tracer.wrap("inner", inner)

        def outer() -> None:
            time.sleep(0.01)
            wrapped_inner()
            wrapped_inner()

        wrapped_outer = tracer.wrap("outer", outer)
        start = time.perf_counter()
        wrapped_outer()
        wall = time.perf_counter() - start
        self.assertEqual(tracer.calls["inner"], 2)
        self.assertGreaterEqual(tracer.self_s["inner"], 0.04)
        self.assertGreaterEqual(tracer.self_s["outer"], 0.01)
        self.assertLess(tracer.self_s["outer"], 0.03)
        self.assertAlmostEqual(tracer.total_s["outer"], tracer.attributed_s(), places=9)
        self.assertLessEqual(tracer.attributed_s(), wall)

    def test_units(self) -> None:
        self.assertEqual(unit_of("space.enum_s"), "s")
        self.assertEqual(unit_of("batch.rows_per_s"), "1/s")
        self.assertEqual(unit_of("cache.hit_ratio"), "ratio")
        self.assertEqual(unit_of("cache.bytes"), "B")
        self.assertEqual(unit_of("batch.rows"), "count")


class TracedAnswersTest(unittest.TestCase):
    """An untraced pass after a traced one gives the identical answer."""

    def setUp(self) -> None:
        self.env = dict(os.environ)
        scrub_repro_env()
        WORK_ROOT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK_ROOT))

    def tearDown(self) -> None:
        remove_work(self.work)
        os.environ.clear()
        os.environ.update(self.env)

    def _check(self, workload: workloads.Workload, trim: int) -> Tracer:
        workload.prepare()
        # A few layers per model keep the self-test short.
        workload.inputs = {name: layers[:trim] for name, layers in workload.inputs.items()}
        with Tracer() as tracer:
            traced = workload.run_pass()
        untraced = workload.run_pass()
        self.assertEqual(traced.digest, untraced.digest)
        self.assertEqual(traced.items, untraced.items)
        self.assertGreater(tracer.attributed_s(), 0.9 * traced.wall_s)
        return tracer

    def test_sweep(self) -> None:
        tracer = self._check(workloads.SweepCold(0, self.work), trim=2)
        self.assertGreater(tracer.calls["mapper.search_fresh"], 0)

    def test_map(self) -> None:
        tracer = self._check(workloads.MapCold(0, self.work), trim=3)
        self.assertGreater(tracer.calls["cost.evaluate_mapping"], 0)


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self) -> None:
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
        per_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
        self.assertEqual(list(per_layer), list(PER_LAYER))
        for name, unit in per_layer.items():
            self.assertEqual(unit, unit_of(name), name)
        self.assertEqual(
            [m["name"] for m in manifest["end_to_end"]],
            ["wall_s", "items_per_s", "item_p90_ms", "setup_s", "peak_rss_mb"],
        )
        self.assertEqual(
            [w["name"] for w in manifest["workloads"]], list(workloads.WORKLOADS)
        )

    def test_every_seed_has_a_pinned_answer(self) -> None:
        reference = workloads.load_reference()
        for name, cls in workloads.WORKLOADS.items():
            for seed in range(64):
                key = cls(seed, Path(".")).reference_key
                self.assertIn(key, reference[name], f"{name} seed {seed}")


if __name__ == "__main__":
    unittest.main()
