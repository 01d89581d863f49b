"""Pin the answer of every benchmark input into ``reference.json``.

Run from the repository root, only when a change is *meant* to alter the
answers (the digests are the benchmark's correctness check)::

    python3 perfbench/pin.py

Every sweep tuple, the map-cold models, and every guided sampler seed that a
run seed can pick gets one digest, so every run is checked against a pinned
answer.  ``sweep-warm`` shares the ``sweep-cold`` answers: a warm cache must
not change any result.
"""

from __future__ import annotations

import json
import os
import sys

from run import SRC, WORK_ROOT, remove_work, scrub_repro_env


def main() -> int:
    sys.path.insert(0, str(SRC))
    scrub_repro_env()
    from workloads import (
        GUIDED_SAMPLER_SEEDS,
        REFERENCE_PATH,
        SWEEP_TUPLES,
        Guided,
        MapCold,
        SweepCold,
    )

    work = WORK_ROOT / f"pin-{os.getpid()}"
    pinned: dict[str, dict[str, str]] = {"sweep-cold": {}, "map-cold": {}, "guided": {}}
    jobs = [(SweepCold, seed) for seed in range(len(SWEEP_TUPLES))]
    jobs += [(MapCold, 0)]
    jobs += [(Guided, seed) for seed in range(GUIDED_SAMPLER_SEEDS)]
    try:
        for cls, seed in jobs:
            workload = cls(seed, work)
            workload.prepare()
            result = workload.run_pass()
            pinned[workload.name][workload.reference_key] = result.digest
            print(f"{workload.name} [{workload.reference_key}] {result.digest} "
                  f"({result.items} items, {result.wall_s:.2f} s)", flush=True)
    finally:
        remove_work(work)
    pinned["sweep-warm"] = dict(pinned["sweep-cold"])
    REFERENCE_PATH.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
