"""Time one fresh-process set-up of a workload: from before `import demflow`
until the first step is ready (configs parsed, grids built, regime fields
initialised). Prints the seconds as its last line. run.py starts it several
times per run; by hand:

    python3 bench/setup_probe.py --workload sweep_small --seed 1
"""

import argparse
import sys
import time
from pathlib import Path

import workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)

    start = time.perf_counter()
    import demflow
    workload.setup(demflow, inputs)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
