"""Benchmark of the lrhopf kernel, run from the root of a checkout:

    python3 lrhbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One workload runs as a closed loop with a single client in this process,
with no threads.  Ops run in seeded blocks (see inputs.py) until they
have taken ``--seconds`` of scaled time (below) and at least MIN_OPS
ops have run, so that the 90th percentile has ten samples beyond it.
Each op builds its structures from scratch, as every CLI run does; CLI
ops call
``lrhopf.cli.main(argv)`` in-process with stdout and stderr captured.
Every output is checked by checker.py and its digest compared with the
reference recorded from the seed code (reference_digests.json).

The machine this runs on changes speed by tens of percent from one
second to the next, because it shares its cores.  So a fixed piece of
pure-Python exact arithmetic (``calibrate``) runs before and after every
op and set-up, and each time is scaled by CALIBRATION_REF_S over the
mean of the two calibration times: every time metric reads as seconds on
a machine where the calibration loop takes CALIBRATION_REF_S.  Ending
the run on scaled time makes the number of ops, and with it the peak
memory, independent of the machine's speed.  The traced run reports the
median calibration time, from which wall times can be recovered; its
per-layer times are wall seconds.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every block
twice, untraced and then with spans and counters installed (tracer.py),
and prints the per-layer metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

import inputs
from checker import Checker
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "reference_digests.json")
WORK = os.path.join(ROOT, ".lrhbench-work")

MIN_OPS = 100
SETUP_REPEATS = 9
CALIBRATION_REF_S = 0.001

END_TO_END = {
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "outputs_same_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# What each layer metric should move, and where it should not:
# - scalars.solve_linear.* and scalars.verify.*: latency and ops_per_s on
#   sl2-divide (most of its time) and partly on theorem1-sweep; nothing
#   on pbw-products.  density = nnz / cells is the dense solver's share
#   of useful work.
# - scalars.scalar_constructions (calls of Field.scalar): every workload.
# - obstruction.theorem1_pipeline.self_* (the per-degree replay loop),
#   enveloping.left_divide.* and enveloping.enumerate_basis.*: latency
#   on theorem1-sweep; nothing on pbw-products and problem-batch.
# - enveloping.normal_form.*, enveloping.rewrite_steps and
#   enveloping.check_local_confluence.*: latency, ok_ratio and
#   peak_rss_mb on pbw-products (the module-level normal-form cache keeps
#   every rewrite system alive).
# - lierinehart.*, finalg.*, problemfile.*, cli.* and reports.render.*:
#   latency on problem-batch.
#
# Layers whose self time is reported, as seconds per op and as a share
# of traced op time.
SELF_TIMED = (
    "scalars.solve_linear", "scalars.verify",
    "obstruction.theorem1_pipeline", "enveloping.left_divide",
    "enveloping.enumerate_basis", "enveloping.normal_form",
    "enveloping.check_local_confluence", "lierinehart.validate",
    "lierinehart.character_criterion", "lierinehart.make_character_module",
    "finalg.checks", "problemfile.parse_problem", "cli.main",
    "cli.build_parser", "reports.render", "op",
)
# Counts reported per op.
PER_OP_COUNTS = (
    "scalars.solve_linear.calls", "scalars.solve_linear.nnz",
    "scalars.solve_linear.cells", "scalars.verify.calls",
    "scalars.scalar_constructions", "enveloping.left_divide.calls",
    "enveloping.enumerate_basis.calls", "enveloping.enumerate_basis.words",
    "enveloping.normal_form.calls", "enveloping.normal_form.terms_in",
    "enveloping.normal_form.terms_out", "enveloping.rewrite_steps",
    "finalg.derivation_commutator.calls",
    "problemfile.parse_problem.calls", "problemfile.parse_problem.bytes",
    "cli.output_bytes",
)

PER_LAYER = {}
for _layer in SELF_TIMED:
    PER_LAYER[_layer + ".self_s"] = "s/op"
    PER_LAYER[_layer + ".self_share"] = "ratio"
for _count in PER_OP_COUNTS:
    PER_LAYER[_count] = "count/op"
PER_LAYER["scalars.solve_linear.density"] = "ratio"
PER_LAYER["op.traced_s"] = "s/op"
PER_LAYER["trace.overhead_ratio"] = "ratio"
PER_LAYER["bench.calibration_s"] = "s"


class SetupError(Exception):
    pass


# ---------------------------------------------------------------------------
# set-up

def import_program():
    """Import lrhopf afresh from this checkout's src/."""
    for name in [n for n in sys.modules
                 if n == "lrhopf" or n.startswith("lrhopf.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        importlib.import_module("lrhopf.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import lrhopf from {SRC}: {exc}") from None
    package = sys.modules["lrhopf"]
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise SetupError(f"lrhopf imported from {package.__file__}, "
                         f"not from {SRC}")
    return package


def load_references(name):
    try:
        with open(REFERENCES, encoding="utf-8") as handle:
            return json.load(handle)[name]
    except (OSError, KeyError, ValueError) as exc:
        raise SetupError(f"no reference digests for {name}: {exc}") from None


def set_up(name, workdir):
    """One full set-up: fresh import, input generation, references."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    package = import_program()
    catalogue = inputs.make_inputs(name, workdir)
    references = load_references(name)
    return package, catalogue, references


# ---------------------------------------------------------------------------
# ops

def execute(package, op):
    """Run one op against the program; returns what the checker reads."""
    if op.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = sys.modules["lrhopf.cli"].main(list(op.argv))
        return rc, out.getvalue(), err.getvalue()
    return multiply(package, op.product)


def multiply(lrh, product):
    """PBW monomial product in U(L), L over R = K, built from scratch."""
    lie, p, ea, eb = product
    fld = lrh.Field(p)
    labels, table = inputs.LIE[lie]
    brackets = {pair: tuple(fld.scalar(vec.get(c, 0))
                            for c in range(len(labels)))
                for pair, vec in table.items()}
    K = lrh.make_base_field_algebra(fld)
    L = lrh.lie_algebra_from_brackets(fld, labels, brackets)
    anchor = lrh.Anchor(tuple(lrh.Derivation.zero(K) for _ in labels))
    data = lrh.make_character_module(K, L, anchor,
                                     lrh.Character(K, (fld.one,)))
    system = lrh.build_rewrite_system(data)
    env = lrh.enumerate_basis(system, sum(ea) + sum(eb))

    def monomial(exps):
        word = tuple(lrh.l_letter(a) for a, e in enumerate(exps)
                     for _ in range(e))
        return lrh.NCElement.from_word(fld, word)

    result = lrh.multiply_truncated(monomial(ea), monomial(eb), env)
    return {tuple(sum(1 for x in w if x.index == a)
                  for a in range(len(labels))): c.value
            for w, c in result.terms.items()}


def digest(outcome):
    if isinstance(outcome, BaseException):
        text = f"exception {type(outcome).__name__}"
    elif isinstance(outcome, dict):
        text = ";".join(f"{w}:{c}" for w, c in sorted(outcome.items()))
    else:
        text = "\0".join(map(str, outcome))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def calibrate():
    """Wall time of a fixed piece of exact arithmetic, like the kernel's.
    The cyclic garbage collector is held off meanwhile, so that a
    collection of the program's garbage is not counted here."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        table = {}
        for i in range(1, 120):
            acc += Fraction(i, i + 1) * Fraction(2 * i + 1, 3)
            table[(i, i % 7)] = acc
        return time.perf_counter() - start
    finally:
        gc.enable()


def timed(package, op):
    start = time.perf_counter()
    try:
        outcome = execute(package, op)
    except Exception as exc:  # any exception is a failed op, not a crash
        outcome = exc
    return outcome, time.perf_counter() - start


class Tally:
    """Per-op results of one run."""

    def __init__(self, name, references, checker):
        self.name = name
        self.references = references
        self.checker = checker
        self.latencies = []    # scaled seconds; None for failed ops
        self.op_time = 0.0     # scaled seconds
        self.wall_time = 0.0
        self.failed = 0
        self.wrong = 0         # answers given but wrong
        self.compared = 0
        self.same = 0
        self.output_bytes = 0

    def add(self, op, outcome, wall, calibration):
        """Record one op that took `wall` seconds while the calibration
        loop took `calibration` seconds."""
        problems = self.checker.check(self.name, op, outcome)
        seconds = wall * CALIBRATION_REF_S / calibration
        self.op_time += seconds
        self.wall_time += wall
        if problems:
            self.failed += 1
            if not isinstance(outcome, BaseException):
                self.wrong += 1
        self.latencies.append(None if problems else seconds)
        reference = self.references.get(op.op_id)
        if reference is not None:
            self.compared += 1
            self.same += digest(outcome) == reference
        if isinstance(outcome, tuple):
            self.output_bytes += len(outcome[1].encode("utf-8"))

    @property
    def attempted(self):
        return len(self.latencies)


def percentile(latencies, q, penalty):
    """Nearest-rank percentile; failed ops (None) rank as slowest and
    read as `penalty`, the time of all ops of the run."""
    ordered = sorted(penalty if t is None else t for t in latencies)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# the run

def run(name, seed, seconds, trace, checker=None, max_blocks=None):
    """Run one workload; returns the result object printed as JSON."""
    checker = checker or Checker()
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    try:
        setup_times = []
        before = calibrate()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            package, catalogue, references = set_up(name, workdir)
            wall = time.perf_counter() - start
            after = calibrate()
            setup_times.append(wall * CALIBRATION_REF_S
                               / ((before + after) / 2))
            before = after
        return _measure(name, seed, seconds, trace, checker, max_blocks,
                        package, catalogue, references,
                        statistics.median(setup_times))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def _measure(name, seed, seconds, trace, checker, max_blocks,
             package, catalogue, references, setup_s):
    plain = Tally(name, references, checker)
    traced = Tally(name, references, checker) if trace else None
    tracer = Tracer() if trace else None
    calibrations = [calibrate()]

    def run_op(tally, op, root=contextlib.nullcontext):
        with root():
            outcome, wall = timed(package, op)
        calibrations.append(calibrate())
        tally.add(op, outcome, wall, (calibrations[-2] + calibrations[-1]) / 2)

    for count, block in enumerate(inputs.blocks(name, seed, catalogue)):
        if max_blocks is not None and count >= max_blocks:
            break
        if max_blocks is None and plain.attempted >= MIN_OPS and \
                plain.op_time >= seconds:
            break
        ops = [catalogue[op_id] for op_id in block]
        for op in ops:
            run_op(plain, op)
        if trace:
            tracer.install()
            try:
                for op in ops:
                    run_op(traced, op, tracer.root)
            finally:
                tracer.uninstall()

    tallies = [plain] + ([traced] if trace else [])
    result = {
        "correct": all(t.wrong == 0 for t in tallies),
        "attempted": plain.attempted,
        "failed": max(t.failed for t in tallies),
    }
    if trace:
        result["metrics"] = layer_metrics(tracer, plain, traced,
                                          statistics.median(calibrations))
    else:
        result["metrics"] = end_to_end_metrics(plain, setup_s)
    return result


def end_to_end_metrics(tally, setup_s):
    ok = tally.attempted - tally.failed
    values = {
        "latency_p50_s": percentile(tally.latencies, 0.5, tally.op_time),
        "latency_p90_s": percentile(tally.latencies, 0.9, tally.op_time),
        "ops_per_s": ok / tally.op_time,
        "ok_ratio": ok / tally.attempted,
        "outputs_same_ratio": tally.same / max(1, tally.compared),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def layer_metrics(tracer, plain, traced, calibration):
    n = traced.attempted
    total = tracer.total("op")
    self_times = tracer.self_times()
    counts = dict(tracer.counts)
    counts["cli.output_bytes"] = traced.output_bytes
    values = {}
    for layer in SELF_TIMED:
        values[layer + ".self_s"] = self_times.get(layer, 0.0) / n
        values[layer + ".self_share"] = self_times.get(layer, 0.0) / total
    for key in PER_OP_COUNTS:
        values[key] = counts.get(key, 0) / n
    cells = counts.get("scalars.solve_linear.cells", 0)
    values["scalars.solve_linear.density"] = (
        counts.get("scalars.solve_linear.nnz", 0) / cells if cells else 0.0)
    values["op.traced_s"] = total / n
    values["trace.overhead_ratio"] = traced.wall_time / plain.wall_time
    values["bench.calibration_s"] = calibration
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"lrhbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
