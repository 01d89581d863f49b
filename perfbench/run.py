"""The repository benchmark: host time of NN-Baton's flows, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-cold --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, in turn

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics, the
per-span table with its ``unattributed`` row, and the tracing overhead.

Every pass's answer is digested and compared with the answer pinned in
``reference.json``; a mismatch counts every item of that pass as failed and
makes the run exit 1.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from layertrace import PER_LAYER, Tracer, unit_of
from stats import median, p90
from workloads import WORKLOADS, load_reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

#: ``setup_s`` is the median of this many fresh interpreters' set-up plus
#: the median of the workload's own set-up, done ``PREPARE_REPEATS`` times
#: (on sweep-warm a full cold pass, hence fewer).
SETUP_REPEATS = 5
PREPARE_REPEATS = 3

#: Interpreter start, ``import repro`` and the model tables, timed from outside.
_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import repro; "
    "from repro.workloads.registry import get_model; "
    "[get_model(name) for name in sys.argv[2:]]"
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def scrub_repro_env() -> None:
    """Drop every ``REPRO_*`` switch from the environment, so runs see defaults."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]


def time_interpreter_setup(models: tuple[str, ...]) -> float:
    """Seconds for a fresh interpreter to import ``repro`` and build the tables."""
    start = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms and the
    # measured time comes out quantized.
    subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), *models], cwd=ROOT, check=True)
    return time.perf_counter() - start


def remove_work(work: Path) -> None:
    """Delete one run's scratch directory, then the work root once it is empty."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Run:
    """The passes of one run and what they add up to."""

    def __init__(self, workload, reference: str | None) -> None:
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        self.errors: list[str] = []

    def one_pass(self, tracer=None, jobs: int | None = None):
        """Run one pass (traced when ``tracer`` is given) and check its answer."""
        try:
            if tracer is None:
                result = self.workload.run_pass(jobs=jobs)
            else:
                with tracer:
                    result = self.workload.run_pass(jobs=jobs)
        except Exception as exc:  # a failed pass is counted, never fatal
            self.errors.append(f"{type(exc).__name__}: {exc}")
            self.attempted += 1
            self.failed += 1
            return None
        self.attempted += result.items
        self.digests.add(result.digest)
        if self.reference is not None and result.digest != self.reference:
            self.failed += result.items
        else:
            self.failed += result.failed
        return result

    @property
    def correct(self) -> bool:
        consistent = len(self.digests) == 1
        pinned = self.reference is None or self.digests == {self.reference}
        return consistent and pinned and not self.errors and self.failed == 0


def measure(run: Run, seconds: float) -> list:
    """Untraced passes until the next one would overrun ``seconds``."""
    passes: list = []
    start = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - start + last <= seconds:
        result = run.one_pass()
        if result is None:
            break
        passes.append(result)
        last = result.wall_s
    return passes


def end_to_end(passes: list, setup_s: float) -> dict[str, tuple[float, str]]:
    latencies = [ms for result in passes for ms in result.latencies_ms]
    return {
        "wall_s": (median([r.wall_s for r in passes]), "s"),
        "items_per_s": (median([r.items / r.wall_s for r in passes]), "1/s"),
        "item_p90_ms": (p90(latencies), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced(run: Run, seconds: float) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Alternate untraced and traced passes; per-layer metrics from the traced ones."""
    plain: list = []
    traced_passes: list[tuple] = []
    start = time.perf_counter()
    last = 0.0
    while (
        not plain
        or not traced_passes
        or time.perf_counter() - start + last <= seconds
    ):
        tracer = Tracer() if len(plain) > len(traced_passes) else None
        result = run.one_pass(tracer)
        if result is None:
            return {}, []
        if tracer is None:
            plain.append(result)
        else:
            traced_passes.append((result, tracer))
        last = result.wall_s

    per_pass = []
    for result, tracer in traced_passes:
        values = tracer.layer_metrics()
        values.update(result.counts)
        values["trace.unattributed_s"] = result.wall_s - tracer.attributed_s()
        per_pass.append(values)
    metrics = {
        name: median([values.get(name, 0) for values in per_pass]) for name in PER_LAYER
    }
    untraced_wall = median([r.wall_s for r in plain])
    traced_wall = median([r.wall_s for r, _t in traced_passes])
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall
    if run.workload.name == "guided":
        # Task time at jobs=1 over (2 x the parent's executor time at jobs=2).
        serial = Tracer()
        if run.one_pass(serial, jobs=1) is None:
            return {}, []
        parallel_s = median([t.total_s["executor.run_tasks"] for _r, t in traced_passes])
        metrics["executor.parallel_eff"] = (
            serial.total_s["executor.run_tasks"] / (2 * parallel_s)
        )

    shown = len(traced_passes) // 2
    result, tracer = traced_passes[shown]
    table = [f"per-span self time, traced pass {shown + 1} of {len(traced_passes)}:"]
    table += tracer.table(result.wall_s)
    return {name: (value, unit_of(name)) for name, value in metrics.items()}, table


def run_workload(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    scrub_repro_env()
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work)
    reference = load_reference().get(workload.name, {}).get(workload.reference_key)
    run = Run(workload, reference)
    print(f"workload {workload.name}, seed {args.seed}: {workload.describe()}")
    try:
        if args.trace:
            workload.prepare()
            metrics, table = traced(run, args.seconds)
        else:
            interpreter = [time_interpreter_setup(workload.models) for _ in range(SETUP_REPEATS)]
            own = [workload.prepare() for _ in range(PREPARE_REPEATS)]
            setup_s = median(interpreter) + median(own)
            passes = measure(run, args.seconds)
            metrics = end_to_end(passes, setup_s) if passes and not run.errors else {}
            table = [f"passes: {len(passes)}, wall_s each: "
                     + " ".join(f"{r.wall_s:.4f}" for r in passes)]
    finally:
        remove_work(work)

    for line in table:
        print(line)
    for error in run.errors:
        print(f"error: {error}")
    digest = ",".join(sorted(run.digests)) or "-"
    if reference is None:
        print(f"digest {digest} (no pinned answer for [{workload.reference_key}])")
    else:
        status = "matches" if run.digests == {reference} else "MISMATCH against"
        print(f"digest {digest} {status} pinned {reference} [{workload.reference_key}]")
    if workload.name == "guided" and workload.best is not None:
        memory = workload.best.hw.memory
        print(f"recommended {workload.best.label} A-L1 {memory.a_l1_bytes // 1024} KB "
              f"W-L1 {memory.w_l1_bytes // 1024} KB A-L2 {memory.a_l2_bytes // 1024} KB")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": run.correct,
                "attempted": max(run.attempted, 1),
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if run.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own interpreter; exit 1 if any answer is wrong."""
    combined: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        if proc.returncode or not result["correct"]:
            status = 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        print()
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
