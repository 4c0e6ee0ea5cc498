"""Append one point to the performance trajectory, from a checkout root:

    python3 lrhbench/trajectory.py --label COMMIT [--seeds 10] [--first-seed 1]

Runs every workload of BENCHMARK.json once per seed with tracing off,
then once traced with the first seed, each in its own process, and
appends to lrhbench/trajectory.json: the label, the Python version, the
processor, and per workload and metric the ten values, their median and
quartiles, and the spread (q3 - q1) / median.  A later change is judged
against the last point by the rules of the benchmark (see BENCHMARK.json
for the bound of each end-to-end metric).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "trajectory.json")


def processor():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def one_run(bench, workload, seed, trace):
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]),
                               "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    point = {"label": args.label, "python": platform.python_version(),
             "processor": processor(), "cpus": os.cpu_count(),
             "run_seconds": bench["run_seconds"], "seeds": seeds,
             "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        results = [one_run(bench, workload, seed, 0) for seed in seeds]
        traced = one_run(bench, workload, seeds[0], 1)
        entry = {
            "correct": all(r["correct"] for r in results + [traced]),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {
                name: summary([r["metrics"][name]["value"] for r in results])
                for name in results[0]["metrics"]},
            "per_layer": {name: m["value"]
                          for name, m in traced["metrics"].items()},
        }
        point["workloads"][workload] = entry
        print(f"{workload}: done", file=sys.stderr)
    history = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY, encoding="utf-8") as handle:
            history = json.load(handle)
    history.append(point)
    with open(TRAJECTORY, "w", encoding="utf-8") as handle:
        json.dump(history, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
