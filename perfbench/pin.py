"""Recompute the pinned output digests in ``digests.json`` for a range of seeds.

    python3 perfbench/pin.py FIRST LAST [WORKLOAD ...]

Runs one cycle of each named workload (all three by default) per seed and
records its digest.  Pins must only change when a change to the package is
meant to change its outputs; a cycle with a failed check is never pinned.
"""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    names = sys.argv[3:] or sorted(workloads.WORKLOADS)
    workloads.use_checkout_source()
    pinned = workloads.load_pinned()
    workdir = workloads.ROOT / ".perfbench" / "pin"
    try:
        for seed in range(first, last + 1):
            for name in names:
                workload = workloads.WORKLOADS[name](seed, workdir)
                workload.setup()
                cycle = workload.cycle()
                if cycle.failed:
                    print(f"{name} seed {seed}: {cycle.failed} failed: {cycle.problems[:3]}",
                          file=sys.stderr)
                    return 1
                pinned.setdefault(name, {})[str(seed)] = cycle.digest
                print(f"{name} {seed} {cycle.digest}", flush=True)
                workloads.PINNED_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True)
                                                 + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
