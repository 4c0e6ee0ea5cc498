"""Seeded inputs for the four workloads.

Every workload draws its ops from a fixed catalogue.  The catalogue entry
behind an op id is the same for every run (it is generated from the op
id itself), so one reference digest per op id, recorded once from the
seed code, covers every run.  The run's ``--seed`` chooses which entries
run and in what order.

Each workload runs in blocks.  A block is a stratified draw: one op per
cell of the workload's grid (size stratum x field x algebra ...), so
every block has the same mix of sizes and the run-to-run spread of the
latency percentiles stays small.  Within a cell, the size and the
variant rotate from block to block (``turn``), starting at a seeded
phase, so a few consecutive blocks cover every size of the stratum.

The ``expect`` dict of an op holds what the construction guarantees; the
checker compares the program's output against it.
"""

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

# Lie algebras as raw structure constants: labels and
# {(a, b): {c: coefficient}} for a < b, completed antisymmetrically.
LIE = {
    "sl2": (("e", "f", "h"),
            {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}}),
    "heis": (("p", "q", "c"), {(0, 1): {2: 1}}),
    "gl2": (("e", "f", "h", "t"),
            {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}}),
    "abelian": (("a", "b"), {}),
}


def bracket(lie, a, b):
    """[x_a, x_b] as {c: coefficient}, raw integers."""
    table = LIE[lie][1]
    if (a, b) in table:
        return table[(a, b)]
    if (b, a) in table:
        return {c: -v for c, v in table[(b, a)].items()}
    return {}


@dataclass(frozen=True)
class Op:
    op_id: str
    argv: tuple = None       # CLI ops: arguments of lrhopf.cli.main
    product: tuple = None    # pbw ops: (lie, p, exponents_a, exponents_b)
    expect: dict = field(default_factory=dict, compare=False)


def _field_doc(p):
    return {"kind": "rationals"} if p == 0 else {"kind": "prime-field",
                                                  "p": p}


def linear_text(coeffs, labels):
    """A linear expression in the problem-file grammar."""
    parts = []
    for c, label in zip(coeffs, labels):
        if c == 0:
            continue
        mag = abs(c)
        body = label if mag == 1 else f"{mag}*{label}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) if parts else "0"


def raw(value, p):
    """Raw field element: a Fraction over Q, an int in [0, p) over GF(p)."""
    return Fraction(value) if p == 0 else int(value) % p


# ---------------------------------------------------------------------------
# theorem1-sweep

T1_FIELDS = (("Q", 0), ("GF5", 5))
T1_STRATA = tuple(range(8, 48, 4))   # D in lo..lo+3


def theorem1_catalogue(workdir):
    ops = {}
    for flag, p in T1_FIELDS:
        for degree in range(8, 48):
            op_id = f"t1/{flag}/D{degree}"
            ops[op_id] = Op(op_id, argv=(
                "theorem1", "--format", "structured", "--field", flag,
                "--degree", str(degree)), expect={"degree": degree, "p": p})
    return ops


def theorem1_block(rng, catalogue, turn):
    return [f"t1/{flag}/D{lo + (turn + s + 2 * f) % 4}"
            for s, lo in enumerate(T1_STRATA)
            for f, (flag, _) in enumerate(T1_FIELDS)]


# ---------------------------------------------------------------------------
# sl2-divide: U(g) for g = sl2, Heisenberg, gl2 with R = K

# One truncation degree per algebra (84, 84 and 70 columns): larger
# systems would leave too few ops in a run for a 90th percentile.
DIV_DEGREE = {"sl2": 6, "heis": 6, "gl2": 4}
DIV_FIELDS = (0, 7)
DIV_VARIANTS = 4


def lie_problem_doc(lie, p):
    labels, table = LIE[lie]
    brackets = [[labels[a], labels[b], labels[c], str(v)]
                for (a, b), vec in sorted(table.items())
                for c, v in sorted(vec.items())]
    return {
        "field": _field_doc(p),
        "algebra": {"kind": "structure-constants", "dim": 1,
                    "labels": ["1"], "constants": [[0, 0, 0, "1"]]},
        "lie": {"dim": len(labels), "labels": list(labels),
                "brackets": brackets},
        "anchor": {label: {} for label in labels},
        "action": {"kind": "character", "values": {"1": "1"}},
    }


def divide_catalogue(workdir):
    """Cells: algebra x field x verdict x divisor generator a.  The
    divisor is c * x_a; the target is lam * c * x_a (feasible) or a
    multiple of the next generator (infeasible).  Variants differ only
    in the coefficients, so ops of one cell cost about the same."""
    divide_files(workdir)
    ops = {}
    for lie, degree in DIV_DEGREE.items():
        labels = LIE[lie][0]
        m = len(labels)
        for p in DIV_FIELDS:
            path = os.path.join(workdir, f"{lie}-{p}.lrh")
            for kind in ("feasible", "infeasible"):
                for a in range(m):
                    for v in range(DIV_VARIANTS):
                        op_id = f"div/{lie}/{p}/{kind}/x{a}/v{v}"
                        rng = random.Random(op_id)
                        c = raw(rng.choice((-2, -1, 1, 2)), p)
                        g = [c if i == a else 0 for i in range(m)]
                        if kind == "feasible":
                            lam = raw(Fraction(rng.choice((1, -1, 2, -3)),
                                               rng.choice((1, 2, 3)))
                                      if p == 0 else rng.randint(1, p - 1), p)
                            t = [lam * x for x in g]
                        else:
                            lam = None
                            b = (a + 1) % m
                            t = [raw(rng.choice((-2, -1, 1, 2)), p)
                                 if i == b else 0 for i in range(m)]
                        ops[op_id] = Op(op_id, argv=(
                            "divide", path,
                            "--left=" + linear_text(g, labels),
                            "--target=" + linear_text(t, labels),
                            "--degree", str(degree), "--format", "structured"),
                            expect={"lie": lie, "p": p, "degree": degree,
                                    "g": tuple(g), "t": tuple(raw(x, p)
                                                             for x in t),
                                    "lam": lam})
    return ops


def divide_files(workdir):
    for lie in DIV_DEGREE:
        for p in DIV_FIELDS:
            _write(os.path.join(workdir, f"{lie}-{p}.lrh"),
                   lie_problem_doc(lie, p))


def divide_block(rng, catalogue, turn):
    return [f"div/{lie}/{p}/{kind}/x{a}/v{(turn + a) % DIV_VARIANTS}"
            for lie in DIV_DEGREE for p in DIV_FIELDS
            for kind in ("feasible", "infeasible")
            for a in range(len(LIE[lie][0]))]


# ---------------------------------------------------------------------------
# pbw-products: library multiply_truncated of two PBW monomials

PBW_LIES = ("sl2", "heis", "abelian")
PBW_FIELDS = (0, 7)
PBW_STRATA = ((8, 10), (11, 13), (14, 16))
PBW_VARIANTS = 3
PBW_LONG = (32, 40)   # b^k . a^k in abelian L: deep rewriting


def _composition(rng, total, parts):
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    bounds = [0] + cuts + [total]
    return tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def pbw_catalogue(workdir):
    ops = {}
    for lie in PBW_LIES:
        m = len(LIE[lie][0])
        for p in PBW_FIELDS:
            for total in range(PBW_STRATA[0][0], PBW_STRATA[-1][1] + 1):
                for v in range(PBW_VARIANTS):
                    op_id = f"pbw/{lie}/{p}/T{total}/v{v}"
                    rng = random.Random(op_id)
                    da = rng.randint(total // 2 - 1, total // 2 + 1)
                    # the left factor avoids the first letter and the right
                    # one the last, so most letter pairs must be reordered
                    ops[op_id] = Op(op_id, product=(
                        lie, p, (0,) + _composition(rng, da, m - 1),
                        _composition(rng, total - da, m - 1) + (0,)))
    for p in PBW_FIELDS:
        for k in range(PBW_LONG[0], PBW_LONG[1] + 1):
            op_id = f"pbw/abelian-long/{p}/k{k}"
            ops[op_id] = Op(op_id, product=("abelian", p, (0, k), (k, 0)))
    return ops


def pbw_block(rng, catalogue, turn):
    ops = [f"pbw/{lie}/{p}/T{lo + (turn + i + p + s) % 3}/"
           f"v{(turn + i) % PBW_VARIANTS}"
           for i, lie in enumerate(PBW_LIES) for p in PBW_FIELDS
           for s, (lo, _) in enumerate(PBW_STRATA)]
    ops.append(f"pbw/abelian-long/{rng.choice(PBW_FIELDS)}/"
               f"k{rng.randint(*PBW_LONG)}")
    return ops


# ---------------------------------------------------------------------------
# problem-batch: small CLI requests over a corpus of problem files
#
# Every base algebra is square-zero: K[x1..xk] modulo all monomials of
# degree 2, with basis 1, x1..xk and the character sending each x_i to 0.
# Any linear map on span(x1..xk) is then a derivation, and the anchor
# below is a Lie homomorphism by construction (commuting images, zero on
# brackets), so every valid file satisfies the axioms.  Every fifth file
# is broken in one known way.

PB_FILES = 60
PB_LIES = {"abelian1": 1, "abelian2": 2, "abelian3": 3, "affine": 2,
           "heis": 3}
PB_BROKEN = ("antisymmetry", "anchor", "character")
PB_ENVELOPE_DEGREES = range(0, 7)
PB_DIVIDE_DEGREES = range(1, 5)
PB_COMMANDS = ("check", "partial", "envelope", "divide")
PB_VALID_PER_BLOCK = 17


def _pb_structure(idx):
    """Raw description of corpus file idx."""
    rng = random.Random(f"problem-batch/file{idx}")
    p = rng.choice((0, 5, 7))
    backend = rng.choice(("monomial-quotient", "structure-constants"))
    k = rng.randint(1, 3)
    broken = PB_BROKEN[(idx // 5) % 3] if idx % 5 == 4 else None
    if broken == "antisymmetry":
        lie = "affine"
    elif broken == "anchor":
        lie = rng.choice(("abelian2", "abelian3", "affine", "heis"))
    else:
        lie = rng.choice(sorted(PB_LIES))
    m = PB_LIES[lie]
    labels = tuple(f"b{a + 1}" for a in range(m))
    if rng.random() < 0.4:
        base = [[int(i == j) for j in range(k)] for i in range(k)]
    else:
        base = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
    scales = [rng.randint(-2, 2) for _ in range(m)]
    if broken == "anchor":
        # the anchor of b2 moves x1, so its commutator with the broken
        # anchor of b1 is not a derivation either
        scales[1] = rng.choice((-2, -1, 1, 2))
        base[0][0] = base[0][0] or 1
    if lie == "affine":
        scales[0] = 0            # [b1, b2] = b1 forces anchor(b1) = 0
    if lie == "heis":
        scales[2] = 0            # [b1, b2] = b3 is central
    brackets = {"affine": {(0, 1): {0: 1}}, "heis": {(0, 1): {2: 1}}}.get(
        lie, {})
    # anchor[a][i][j]: coefficient of basis element i (0 = unit) in
    # anchor(b_a)(basis element j)
    anchor = [[[0] * (k + 1) for _ in range(k + 1)] for _ in range(m)]
    for a in range(m):
        for i in range(k):
            for j in range(k):
                anchor[a][i + 1][j + 1] = scales[a] * base[i][j]
    chi = [1] + [0] * k
    failing = []
    if broken == "antisymmetry":
        failing = ["lie-algebra"]
    elif broken == "anchor":
        anchor[0][0][1] = 1              # x1 -> 1 breaks Leibniz on x1*x1
        failing = [f"derivation[{labels[0]}]"]
    elif broken == "character":
        chi[1] = 1                       # chi(x1)^2 = 1 but chi(x1^2) = 0
        failing = ["module-action", "character"]
    return {"p": p, "backend": backend, "k": k, "m": m,
            "labels": labels, "brackets": brackets, "anchor": anchor,
            "chi": chi, "broken": broken, "failing": failing}


def _pb_doc(s):
    k, p = s["k"], s["p"]
    rlabels = ["1"] + [f"x{i + 1}" for i in range(k)]
    if s["backend"] == "monomial-quotient":
        variables = rlabels[1:]
        relations = [f"{variables[i]}^2" if i == j
                     else f"{variables[i]}*{variables[j]}"
                     for i in range(k) for j in range(i, k)]
        algebra = {"kind": "monomial-quotient", "variables": variables,
                   "relations": relations}
    else:
        constants = [[0, j, j, "1"] for j in range(k + 1)]
        constants += [[j, 0, j, "1"] for j in range(1, k + 1)]
        algebra = {"kind": "structure-constants", "dim": k + 1,
                   "labels": rlabels, "constants": constants}
    labels = s["labels"]
    brackets = []
    for (a, b), vec in s["brackets"].items():
        for c, v in vec.items():
            brackets.append([labels[a], labels[b], labels[c], str(v)])
            if s["broken"] == "antisymmetry":
                brackets.append([labels[b], labels[a], labels[c], str(v)])
    anchor = {}
    for a, label in enumerate(labels):
        images = {}
        for j in range(1, k + 1):
            images[rlabels[j]] = linear_text(
                [s["anchor"][a][i][j] for i in range(k + 1)],
                ["1"] + rlabels[1:])
        anchor[label] = images
    values = {rlabels[j]: str(s["chi"][j]) for j in range(1, k + 1)}
    if s["backend"] == "structure-constants":
        values["1"] = "1"
    return {"field": _field_doc(p), "algebra": algebra,
            "lie": {"dim": s["m"], "labels": list(labels),
                    "brackets": brackets},
            "anchor": anchor,
            "action": {"kind": "character", "values": values}}


def problem_batch_files(workdir):
    for idx in range(PB_FILES):
        _write(os.path.join(workdir, f"pb{idx:02d}.lrh"),
               _pb_doc(_pb_structure(idx)))


def problem_batch_catalogue(workdir):
    problem_batch_files(workdir)
    ops = {}
    for idx in range(PB_FILES):
        s = _pb_structure(idx)
        path = os.path.join(workdir, f"pb{idx:02d}.lrh")
        base = {"structure": s}

        def add(op_id, argv, **extra):
            ops[op_id] = Op(op_id, argv=tuple(argv) + (
                "--format", "structured"), expect=dict(base, **extra))

        add(f"pb/{idx}/check", ("check", path), command="check")
        add(f"pb/{idx}/partial", ("partial", path), command="partial")
        for d in PB_ENVELOPE_DEGREES:
            add(f"pb/{idx}/envelope/D{d}", ("envelope", path, "--degree",
                                             str(d)),
                command="envelope", degree=d)
        rng = random.Random(f"problem-batch/divide{idx}")
        for d in PB_DIVIDE_DEGREES:
            c = rng.choice((1, 2, 3)) if s["p"] else \
                rng.choice((1, 2, -1, Fraction(1, 2), Fraction(-3, 2)))
            add(f"pb/{idx}/divide-multiple/D{d}",
                ("divide", path, "--left=x1",
                 "--target=" + linear_text([c], ["x1"]), "--degree", str(d)),
                command="divide", degree=d, lam=raw(c, s["p"]))
            if s["k"] >= 2:
                add(f"pb/{idx}/divide-other/D{d}",
                    ("divide", path, "--left=x1", "--target=x2",
                     "--degree", str(d)),
                    command="divide", degree=d, lam=None)
    return ops


def problem_batch_block(rng, catalogue, turn):
    """Per command: PB_VALID_PER_BLOCK ops on valid files and one on a
    file of each broken kind."""
    pools = {}
    for op_id in sorted(catalogue):
        op = catalogue[op_id]
        key = (op.expect["command"], op.expect["structure"]["broken"])
        pools.setdefault(key, []).append(op_id)
    return [rng.choice(pools[(cmd, kind)]) for cmd in PB_COMMANDS
            for kind in (None,) * PB_VALID_PER_BLOCK + PB_BROKEN]


# ---------------------------------------------------------------------------

def _write(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)


# name -> (catalogue(workdir) -> {op_id: Op}, writing any problem files
#          into workdir; block(rng, catalogue, turn) -> [op_id, ...])
WORKLOADS = {
    "theorem1-sweep": (theorem1_catalogue, theorem1_block),
    "sl2-divide": (divide_catalogue, divide_block),
    "pbw-products": (pbw_catalogue, pbw_block),
    "problem-batch": (problem_batch_catalogue, problem_batch_block),
}


def make_inputs(name, workdir):
    """Write the workload's files into workdir; return its catalogue."""
    return WORKLOADS[name][0](workdir)


def blocks(name, seed, catalogue):
    """Endless stream of seeded blocks of op ids."""
    rng = random.Random(f"{name}/{seed}")
    block = WORKLOADS[name][1]
    turn = rng.randrange(1 << 16)
    while True:
        ops = block(rng, catalogue, turn)
        rng.shuffle(ops)
        yield ops
        turn += 1
