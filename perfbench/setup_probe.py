"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is the package import plus the workload's own preparation (n-gram
training, predictor construction, spec parsing), in reference seconds (see
stopwatch.py).  ``run.py`` starts this script several times and reports the
median.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (does not import the package under test)
from stopwatch import Stopwatch  # noqa: E402


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = workloads.WORKLOADS[name](seed, workdir)
    workloads.use_checkout_source()
    with Stopwatch() as sw:
        workload.setup()
    print(repr(sw.seconds))


if __name__ == "__main__":
    main()
