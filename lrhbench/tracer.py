"""In-memory spans and counters around the public functions of lrhopf.

The program is not modified.  ``Tracer.install`` replaces each traced
function by a wrapper in every ``lrhopf`` module that holds it (modules
import from each other by name, so one function can live under several
module globals) and on the classes that own traced methods.
``Tracer.uninstall`` puts the originals back.

A span records (name, start, end, parent); a layer's self time is its
spans' durations minus the durations of their direct children.  Counter
wrappers only count calls or sizes and record no span, so their time
lands in the enclosing span's self time.
"""

import contextlib
import sys
import time
from collections import defaultdict

_now = time.perf_counter

# (metric layer name, module, attribute) for every traced span; a class
# method is written "Class.method".
SPANS = (
    ("scalars.solve_linear", "lrhopf.scalars", "solve_linear"),
    ("scalars.verify", "lrhopf.scalars", "verify_witness"),
    ("scalars.verify", "lrhopf.scalars", "verify_certificate"),
    ("obstruction.theorem1_pipeline", "lrhopf.obstruction",
     "theorem1_pipeline"),
    ("enveloping.left_divide", "lrhopf.enveloping", "left_divide"),
    ("enveloping.enumerate_basis", "lrhopf.enveloping", "enumerate_basis"),
    ("enveloping.normal_form", "lrhopf.enveloping", "normal_form"),
    ("enveloping.check_local_confluence", "lrhopf.enveloping",
     "check_local_confluence"),
    ("lierinehart.validate", "lrhopf.lierinehart", "validate_lie_rinehart"),
    ("lierinehart.character_criterion", "lrhopf.lierinehart",
     "character_criterion"),
    ("lierinehart.make_character_module", "lrhopf.lierinehart",
     "make_character_module"),
    ("finalg.checks", "lrhopf.finalg", "check_algebra_axioms"),
    ("finalg.checks", "lrhopf.finalg", "check_derivation"),
    ("finalg.checks", "lrhopf.finalg", "check_character"),
    ("problemfile.parse_problem", "lrhopf.problemfile", "parse_problem"),
    ("cli.main", "lrhopf.cli", "main"),
    ("cli.build_parser", "lrhopf.cli", "build_parser"),
    ("reports.render", "lrhopf.reports", "VerdictReport.render_text"),
    ("reports.render", "lrhopf.reports", "VerdictReport.to_dict"),
)

# Counter-only wrappers: (counter name, module, attribute).
COUNTS = (
    ("scalars.scalar_constructions", "lrhopf.scalars", "Field.scalar"),
    ("enveloping.rewrite_steps", "lrhopf.enveloping", "rewrite_once_at"),
    ("finalg.derivation_commutator.calls", "lrhopf.finalg",
     "derivation_commutator"),
    ("problemfile.parse_problem.bytes", "lrhopf.problemfile",
     "parse_problem_text"),
)


def _sizes(name, args, result):
    """Extra work counts recorded when a span ends."""
    if name == "scalars.solve_linear":
        system = args[0]
        return (("scalars.solve_linear.nnz", len(system.entries)),
                ("scalars.solve_linear.cells", system.rows * system.cols))
    if name == "enveloping.enumerate_basis":
        return (("enveloping.enumerate_basis.words", result.dim),)
    if name == "enveloping.normal_form":
        return (("enveloping.normal_form.terms_in", len(args[0].terms)),
                ("enveloping.normal_form.terms_out", len(result.terms)))
    return ()


def _resolve(module, attr):
    owner = sys.modules[module]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.names = []      # per span
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []   # (owner, attribute, original)

    # ------------------------------------------------------------ recording

    def _open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(_now())
        self.ends.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index):
        self.ends[index] = _now()
        self._stack.pop()

    def span(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            for key, amount in _sizes(name, args, result):
                counts[key] += amount
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        if name.endswith(".bytes"):
            def wrapper(text, *args, **kwargs):
                counts[name] += len(text.encode("utf-8"))
                return fn(text, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def root(self, name="op"):
        """The span that encloses one whole op."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # ------------------------------------------------------------ patching

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        for kind, table in ((self.span, SPANS), (self.counter, COUNTS)):
            for name, module, attr in table:
                owner, short = _resolve(module, attr)
                original = owner.__dict__[short]
                wrapper = kind(name, original)
                self._replace(original, wrapper, owner, short)

    def _replace(self, original, wrapper, owner, short):
        targets = [(owner, short)]
        if not isinstance(owner, type):
            targets = [(mod, key) for mod_name, mod in sys.modules.items()
                       if mod_name.split(".")[0] == "lrhopf"
                       for key, value in vars(mod).items()
                       if value is original]
        for target, key in targets:
            self._patched.append((target, key, original))
            setattr(target, key, wrapper)

    def uninstall(self):
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched = []

    # ------------------------------------------------------------ summary

    def self_times(self):
        """Summed self time per span name."""
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        out = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += self.ends[i] - self.starts[i] - child_time[i]
        return out

    def total(self, name="op"):
        return sum(e - s for n, s, e in zip(self.names, self.starts,
                                            self.ends) if n == name)

