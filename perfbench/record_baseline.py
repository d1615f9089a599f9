"""Record the per-layer baseline of the current checkout into ``baseline.json``.

    python3 perfbench/record_baseline.py --seed 1 --seconds 25

Runs every workload once traced (``run.py --trace 1``) and stores its
per-layer ledger together with the host facts the numbers depend on.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]
    from perfbench.run import BLAS_THREADS
    from perfbench.workloads import WORKLOADS

    ledgers = {}
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "1"],
            capture_output=True, text=True, check=True, cwd=HERE.parent,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        ledgers[name] = {metric: item["value"] for metric, item in result["metrics"].items()}
    baseline = {
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "ledgers": ledgers,
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
