"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/spread.py --workloads corpus-dim3 search-dim4 \\
        --seeds 1 2 3 4 5 --seconds 30 --log bench/out/set1.jsonl

Runs go one after another, never in parallel.  For every workload and
end-to-end metric it prints the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, which is what ``BENCHMARK.json``'s bounds are set
against.  Each run's JSON result is appended to ``--log``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--log", required=True)
    args = p.parse_args()
    os.makedirs(os.path.dirname(os.path.abspath(args.log)), exist_ok=True)
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(args.log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     **res}) + "\n")
            if not res["correct"]:
                print(f"{workload} seed {seed}: incorrect", file=sys.stderr)
            shares.add((res["failed"], res["attempted"]))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        failed = {f"{f}/{a}" for f, a in shares}
        print(f"{workload}: {len(args.seeds)} runs, failed {sorted(failed)}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"  {name:14s} median {med:10.5f}  q1 {q1:10.5f}"
                  f"  q3 {q3:10.5f}  spread {(q3 - q1) / med:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
