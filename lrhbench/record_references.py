"""Record the reference output digest of every catalogue op.

    python3 lrhbench/record_references.py [WORKLOAD ...]

Run once, on the commit whose outputs define the reference; it rewrites
the entries of the named workloads (default: all) in
lrhbench/reference_digests.json.  An op whose output the checker
rejects gets no reference (null), and is listed on stderr.
"""

import contextlib
import json
import os
import shutil
import sys

import inputs
import run
from checker import Checker


def main():
    checker = Checker()
    names = sys.argv[1:] or sorted(inputs.WORKLOADS)
    out = {}
    if os.path.exists(run.REFERENCES):
        with open(run.REFERENCES, encoding="utf-8") as handle:
            out = json.load(handle)
    for name in names:
        workdir = os.path.join(run.WORK, f"record-{name}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        package = run.import_program()
        catalogue = inputs.make_inputs(name, workdir)
        digests = {}
        for op_id in sorted(catalogue):
            op = catalogue[op_id]
            outcome, _ = run.timed(package, op)
            problems = checker.check(name, op, outcome)
            if problems:
                print(f"{op_id}: {'; '.join(problems)}", file=sys.stderr)
                digests[op_id] = None
            else:
                digests[op_id] = run.digest(outcome)
        out[name] = digests
        print(f"{name}: {len(digests)} ops, "
              f"{sum(v is None for v in digests.values())} without reference",
              file=sys.stderr)
        shutil.rmtree(workdir)
    with open(run.REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    with contextlib.suppress(OSError):
        os.rmdir(run.WORK)


if __name__ == "__main__":
    main()
