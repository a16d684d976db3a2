"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload minheap_suite --seeds 1-5

Runs ``run.py --trace 0`` once per seed, one after another, and prints
for every end-to-end metric its median and the distance between its
first and third quartile as a share of the median, next to the bound
``BENCHMARK.json`` fixes for it.  A benchmark is steady when every share
(except ``setup_s``'s) stays well below its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from stats import iqr_share

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=600)
        if done.returncode != 0:
            print(done.stdout[-3000:], done.stderr[-3000:], sep="\n")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{name}={values[name][-1]:.4g}"
                         for name in ("setup_s", "unit_p50_s",
                                      "cpu_s_per_unit")), flush=True)
    for name, bound in bounds.items():
        share = iqr_share(values[name]) if len(values[name]) > 1 else 0.0
        flag = "" if share < bound / 3 else "  <-- above a third of bound"
        print(f"{name:18s} median {statistics.median(values[name]):12.6g}"
              f"  spread {share:7.4f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
