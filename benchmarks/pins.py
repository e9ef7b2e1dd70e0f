"""Write benchmarks/pins.json: digests of the RNG-free outputs per workload and seed.

    python3 benchmarks/pins.py 0-31

Each (workload, seed) runs one cold pass and its reruns with every output
check on. Regenerate only for a deliberate change of those outputs, and say
which in the change's notes; a change of the DK random stream needs none.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run


def main(argv) -> int:
    lo, _, hi = argv[0].partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    run.import_program()
    pins = {}
    for name, spec in run.WORKLOADS.items():
        pins[name] = {}
        for seed in seeds:
            work = run.ROOT / ".bench_work" / f"pins-{name}-{seed}"
            try:
                workload = spec.kind(name, spec, seed, work)
                _, stable = workload.setup()
                sample = workload.iteration(0, False)
                failed = workload.finish([sample], None)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if failed or not stable:
                print(f"{name} seed {seed}: checks failed, not pinning: {sample['notes']}", file=sys.stderr)
                return 1
            pins[name][str(seed)] = sample["digests"]
    checks.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["0-31"]))
