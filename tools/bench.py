"""Write BENCH_<pr>.json: the benchmark's metrics, a few end-to-end
command timings and the src/ line count, for one commit on one machine.

    python3 tools/bench.py --pr N [--seconds 10] [--seed 1]

Runs, from the checkout this file sits in:
- each perfbench workload twice, with `--trace 0` for its end-to-end
  metrics and `--trace 1` for its per-layer ones, keeping the run's
  output digest (`digest_sha256` of its meta line);
- one run each of `incseq gb --n 7 --q 8`, `incseq interp --n 7 --q 7
  --field rational --point 1,2,2,3,5,5,7` and `incseq verify-all`, and of
  the Tier-1 test suite, timed wall to wall, with their exit codes;
- `wc -l src/incseq/*.py`.

Everything runs one process at a time, so a run takes about six times
--seconds plus the Tier-1 suite.  Stdlib only.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["closed-forms", "interp-stream", "certify"]
COMMANDS = [
    ["gb", "--n", "7", "--q", "8"],
    ["interp", "--n", "7", "--q", "7", "--field", "rational", "--point", "1,2,2,3,5,5,7"],
    ["verify-all"],
]
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
# layer cases of the bench file that this commit cannot time, and why
ABSENT = {
    "dense_elimination": "no src/ code does a dense elimination; the only one is tests/dense_reference.py, "
                         "which is test code, so it is not timed in its place",
}


def _env() -> dict:
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _timed(argv) -> tuple[float, subprocess.CompletedProcess]:
    """Run a Python subprocess from the checkout's root; its wall time and result."""
    start = time.perf_counter()
    result = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_env(), capture_output=True, text=True)
    return time.perf_counter() - start, result


def _workload(name: str, seed: int, seconds: int) -> dict:
    out = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        _, run = _timed(["perfbench/run.py", "--workload", name, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", str(trace)])
        if run.returncode != 0:
            raise RuntimeError(f"perfbench {name} --trace {trace} exited {run.returncode}:\n{run.stderr}")
        lines = run.stdout.splitlines()
        result = json.loads(lines[-1])
        meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
        out[key] = {k: v["value"] for k, v in result["metrics"].items()}
        out[f"{key}_run"] = {"correct": result["correct"], "attempted": result["attempted"],
                             "failed": result["failed"], "passes": meta["passes"],
                             "digest_sha256": meta["digest_sha256"]}
    return out


def _summary(stdout: str) -> str:
    """The last line of a pytest -q run, e.g. `762 passed in 40.12s`."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    return lines[-1].strip("= ") if lines else ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="number the file is named for")
    ap.add_argument("--seconds", type=int, default=10, help="length of each perfbench run")
    ap.add_argument("--seed", type=int, default=1, help="perfbench workload seed")
    args = ap.parse_args(argv)

    bench = {
        "pr": args.pr,
        "host": {"python": platform.python_version(), "machine": platform.machine(), "nproc": os.cpu_count()},
        "perfbench": {"seconds": args.seconds, "seed": args.seed},
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((ROOT / "src" / "incseq").glob("*.py"))),
        "workloads": {},
        "commands": {},
        "absent": ABSENT,
    }
    for name in WORKLOADS:
        print(f"perfbench {name} ...", file=sys.stderr)
        bench["workloads"][name] = _workload(name, args.seed, args.seconds)
    for cmd in COMMANDS:
        wall, run = _timed(["-m", "incseq.cli", *cmd])
        bench["commands"]["incseq " + " ".join(cmd)] = {"wall_s": round(wall, 4), "exit": run.returncode}
    print("tier-1 ...", file=sys.stderr)
    wall, run = _timed(TIER1)
    bench["tier1"] = {"wall_s": round(wall, 2), "exit": run.returncode, "summary": _summary(run.stdout)}

    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
