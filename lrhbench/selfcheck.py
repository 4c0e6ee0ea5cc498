"""Self-check of the benchmark itself, run from the root of a checkout:

    python3 lrhbench/selfcheck.py

For every workload it runs one block of ops three times:

* with every expected verdict flipped inside the checker, where every op
  must be counted as failed and the run must not be correct;
* untraced and traced, where the printed metrics must be exactly the
  end-to-end and per-layer metrics of BENCHMARK.json, each with its
  unit and a finite value.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import math
import os
import sys

import inputs
import run
from checker import Checker


def listed(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def main():
    expected = {0: listed("end_to_end"), 1: listed("per_layer")}
    problems = []
    for name in sorted(inputs.WORKLOADS):
        flipped = run.run(name, 0, 0, 0, checker=Checker(flip=True),
                          max_blocks=1)
        if flipped["failed"] != flipped["attempted"] or flipped["correct"]:
            problems.append(f"{name}: flipped verdicts counted "
                            f"{flipped['failed']} of {flipped['attempted']} "
                            f"ops as failed")
        for trace in (0, 1):
            result = run.run(name, 0, 0, trace, max_blocks=1)
            json.loads(json.dumps(result, allow_nan=False))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) ^ set(got))
                problems.append(f"{name} --trace {trace}: metrics differ "
                                f"from BENCHMARK.json: {missing}")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v["value"], (int, float))
                   or not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{name} --trace {trace}: bad values {bad}")
        print(f"{name}: checked", file=sys.stderr)
    for line in problems:
        print(line)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
