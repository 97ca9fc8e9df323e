"""Set-up probe, run as a fresh interpreter by run.py.

Times a cold `import incseq` (the workload's modules) plus building the
workload's fields and embeddings, and prints the seconds it took.

    python3 perfbench/probe.py <workload> <seed> <smoke 0|1>
"""

import sys
import time
from pathlib import Path


def main():
    workload, seed, smoke = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from harness import Tracer, build_env
    from run import WORKLOADS

    plan = WORKLOADS[workload](seed, smoke)
    if "incseq" in sys.modules:
        raise SystemExit("error: incseq was imported before the timed set-up")
    start = time.perf_counter()
    build_env(plan.env, Tracer())
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
