"""Times one set-up of a workload in a fresh interpreter: importing the
package and building the workload's inputs, up to the first timed op.
Prints the seconds at the machine's reference speed (bench/speed.py; the
interpreted-Python kernel, since nothing is imported yet) and as the wall
clock read them.

    python3 bench/probe_setup.py WORKLOAD SEED WORK_DIR
"""

import sys
from pathlib import Path

from speed import SpeedClock


def main() -> int:
    workload, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    with SpeedClock("python") as clock:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        import workloads
        workloads.WORKLOADS[workload](workloads.load_package(), seed, work)
    print(clock.scaled, clock.raw)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
