"""Independent correctness checks for every benchmark op.

Nothing here calls lrhopf.  Verdicts are compared with the answer the
construction guarantees, and witnesses and certificates are replayed with
raw ``Fraction`` (over Q) or int mod p (over GF(p)) arithmetic:

* theorem1: every step passes; the extension certificate is replayed
  against the extension system rebuilt here; in the envelope x.w = 0 for
  every basis word w other than 1, so the divisibility functional must
  have u[x] = 0 and u[y] != 0.
* sl2-divide: U(g) is a domain, so t = g.z is solvable iff t is a scalar
  multiple lam of g, and then z = lam; an infeasibility functional is
  replayed on every column g.w computed by PBW collection here.
* pbw-products: the product is recomputed by PBW collection (a closed
  form for abelian L).
* problem-batch: valid files pass every axiom and broken ones fail the
  known one; envelope dimensions are counted; extension-system evidence
  is replayed and its verdict decided by an elimination of our own;
  divisibility in a square-zero algebra is x1.z = z_1 x1.

``Checker(flip=True)`` expects the opposite of every verdict; the
self-check uses it to show that a wrong verdict is counted as failed.
"""

import json
import re
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from inputs import LIE, bracket

_SCALAR_RE = re.compile(r"^-?\d+(/\d+)?$")


def scalar(text, p):
    value = Fraction(text)
    if p == 0:
        return value
    if value.denominator != 1:
        raise ValueError(f"{text!r} is not a GF({p}) literal")
    return value.numerator % p


def norm(value, p):
    return value % p if p else value


def _terms(text):
    """(coefficient text, label) per term of a rendered linear
    combination; the label is None for a bare scalar (the unit)."""
    for part in re.split(r" (?=[+-] )", text.strip()):
        part = part.replace("+ ", "").replace("- ", "-")
        sign = "-" if part.startswith("-") else ""
        part = part.lstrip("-")
        if _SCALAR_RE.match(part):
            yield sign + part, None
        else:
            mag, _, label = part.rpartition("*")
            yield sign + (mag or "1"), label


def unit_coefficient(text, p):
    """Coefficient of the empty word in a rendered element."""
    return norm(sum(scalar(c, p) for c, label in _terms(text)
                    if label is None), p)


# ---------------------------------------------------------------------------
# raw linear algebra

def raw_solve(rows, rhs, ncols, p):
    """Feasibility of sum_c rows[r][c] x_c = rhs[r], choosing the last
    usable pivot row (the program picks the first)."""
    num = Fraction if p == 0 else (lambda v: v % p)
    mat = [[num(row.get(c, 0)) for c in range(ncols)] + [num(b)]
           for row, b in zip(rows, rhs)]
    used = set()

    def inv(v):
        return pow(v, p - 2, p) if p else 1 / v  # v is a Fraction over Q

    for col in range(ncols):
        pivot = next((r for r in range(len(mat) - 1, -1, -1)
                      if r not in used and mat[r][col]), None)
        if pivot is None:
            continue
        used.add(pivot)
        scale = inv(mat[pivot][col])
        mat[pivot] = [norm(x * scale, p) for x in mat[pivot]]
        for r, row in enumerate(mat):
            if r != pivot and row[col]:
                f = row[col]
                mat[r] = [norm(a - f * b, p) for a, b in zip(row, mat[pivot])]
    return all(not row[ncols] for r, row in enumerate(mat) if r not in used)


def replays_witness(rows, rhs, x, p):
    return all(norm(sum(v * x[c] for c, v in row.items()) - b, p) == 0
               for row, b in zip(rows, rhs))


def replays_certificate(rows, rhs, ncols, u, p):
    if len(u) != len(rows):
        return False
    ua = [0] * ncols
    for ur, row in zip(u, rows):
        for c, v in row.items():
            ua[c] += ur * v
    return (all(norm(v, p) == 0 for v in ua)
            and norm(sum(ur * b for ur, b in zip(u, rhs)), p) != 0)


# ---------------------------------------------------------------------------
# square-zero base algebras: basis 1, x1..xk with x_i x_j = 0

def _sz_mul(a, b):
    """Product of two coefficient vectors in a square-zero algebra."""
    out = [a[0] * c for c in b]
    for i in range(1, len(a)):
        out[i] += a[i] * b[0]
    return out


def extension_system(s):
    """The right-extension system of the program's documented layout:
    unknown a*n + j is the e_j-coefficient of the image of b_a; rows
    value_a * (e_i - chi_i) = anchor_a(e_i), then bracket rows."""
    n, m = s["k"] + 1, s["m"]
    anchor, chi = s["anchor"], s["chi"]
    rows, rhs = [], []
    for a in range(m):
        for i in range(n):
            shifted = [int(t == i) - (chi[i] if t == 0 else 0)
                       for t in range(n)]
            cols = [_sz_mul(shifted, [int(t == j) for t in range(n)])
                    for j in range(n)]
            for k in range(n):
                rows.append({a * n + j: cols[j][k] for j in range(n)
                             if cols[j][k]})
                rhs.append(anchor[a][k][i])
    for a in range(m):
        for b in range(a + 1, m):
            br = _full_bracket(s, a, b)
            for k in range(n):
                row = {}
                for c, f in br.items():
                    row[c * n + k] = row.get(c * n + k, 0) + f
                for j in range(n):
                    if anchor[a][k][j]:
                        row[b * n + j] = row.get(b * n + j, 0) \
                            - anchor[a][k][j]
                    if anchor[b][k][j]:
                        row[a * n + j] = row.get(a * n + j, 0) \
                            + anchor[b][k][j]
                rows.append({c: v for c, v in row.items() if v})
                rhs.append(0)
    return rows, rhs, m * n


def _full_bracket(s, a, b):
    if (a, b) in s["brackets"]:
        return s["brackets"][(a, b)]
    if (b, a) in s["brackets"]:
        return {c: -v for c, v in s["brackets"][(b, a)].items()}
    return {}


OBSTRUCTED = {"k": 2, "m": 1, "brackets": {}, "chi": [1, 0, 0],
              "anchor": [[[0, 0, 0], [0, 0, 0], [0, 1, 0]]]}


def linear_coords(text, labels, p):
    """Coordinates of a rendered linear combination over labels; the
    unit is labels[0] and appears as a bare scalar."""
    out = [0] * len(labels)
    for c, label in _terms(text):
        out[0 if label is None else labels.index(label)] += scalar(c, p)
    return [norm(v, p) for v in out]


# ---------------------------------------------------------------------------
# PBW collection in U(g), R = K

class PBW:
    """Products of PBW monomials (exponent tuples) in U(g)."""

    def __init__(self, lie, p):
        self.m = len(LIE[lie][0])
        self.lie = lie
        self.p = p
        self.memo = {}

    def letter_times(self, i, mono):
        """x_i . mono as {monomial: coefficient}."""
        key = (i, mono)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        j = next((t for t, e in enumerate(mono) if e), None)
        if j is None or j >= i:
            out = {mono[:i] + (mono[i] + 1,) + mono[i + 1:]: 1}
        else:
            rest = mono[:j] + (mono[j] - 1,) + mono[j + 1:]
            # x_i x_j rest = x_j (x_i rest) + [x_i, x_j] rest
            out = {}
            for mono2, c in self.letter_times(i, rest).items():
                for mono3, d in self.letter_times(j, mono2).items():
                    out[mono3] = out.get(mono3, 0) + c * d
            for k, f in bracket(self.lie, i, j).items():
                for mono2, c in self.letter_times(k, rest).items():
                    out[mono2] = out.get(mono2, 0) + f * c
            out = {w: norm(c, self.p) for w, c in out.items()
                   if norm(c, self.p)}
        self.memo[key] = out
        return out

    def times(self, element, mono):
        """element . mono, element given as {monomial: coefficient}."""
        out = {}
        for left, c in element.items():
            acc = {mono: c}
            for i in reversed(range(self.m)):
                for _ in range(left[i]):
                    nxt = {}
                    for w, v in acc.items():
                        for w2, d in self.letter_times(i, w).items():
                            nxt[w2] = nxt.get(w2, 0) + v * d
                    acc = nxt
            for w, v in acc.items():
                out[w] = out.get(w, 0) + v
        return {w: norm(c, self.p) for w, c in out.items()
                if norm(c, self.p)}


def pbw_basis(m, degree):
    """Exponent tuples in the program's basis order: by length, then
    nondecreasing letter words in lexicographic order."""
    out = [(0,) * m]
    for t in range(1, degree + 1):
        for combo in combinations_with_replacement(range(m), t):
            out.append(tuple(combo.count(a) for a in range(m)))
    return out


def generator(coeffs):
    m = len(coeffs)
    return {tuple(int(t == a) for t in range(m)): c
            for a, c in enumerate(coeffs) if c}


# ---------------------------------------------------------------------------

class Checker:
    def __init__(self, flip=False):
        self.flip = flip

    def verdict(self, expected, opposite):
        return opposite if self.flip else expected

    def feasibility(self, feasible):
        """The verdict expected for a system known to be (in)feasible."""
        return "feasible" if feasible != self.flip else "infeasible"

    def check(self, workload, op, outcome):
        """Problems found in one op's outcome; empty when correct."""
        if isinstance(outcome, BaseException):
            return [f"raised {type(outcome).__name__}"]
        try:
            return self._check(workload, op, outcome)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"output not in the expected shape: {exc!r}"]

    def _check(self, workload, op, outcome):
        if workload == "pbw-products":
            return self.pbw(op, outcome)
        rc, out, err = outcome
        if workload == "theorem1-sweep":
            return self.theorem1(op, rc, out)
        if workload == "sl2-divide":
            return self.domain_divide(op, rc, out)
        return self.problem_batch(op, rc, out, err)

    # ------------------------------------------------------------ theorem1

    def theorem1(self, op, rc, out):
        if rc != 0:
            return [f"exit {rc}"]
        doc = json.loads(out)
        degree, p = op.expect["degree"], op.expect["p"]
        problems = []
        want = self.verdict("pass", "fail")
        if doc.get("verdict") != want or doc.get("degree") != degree:
            problems.append(f"verdict {doc.get('verdict')} at degree "
                            f"{doc.get('degree')}")
        steps = {s["name"]: s for s in doc.get("steps", [])}
        names = ["character-criterion", "local-confluence",
                 "truncated-basis", "no-right-extension",
                 "no-antipode-divisibility"]
        if list(steps) != names or any(s["verdict"] != "pass"
                                       for s in steps.values()):
            return problems + ["steps differ from the five passing steps"]
        if not steps["truncated-basis"]["narrative"][0].startswith(
                f"dimension {degree + 3}:"):
            problems.append("truncated basis dimension")
        rows, rhs, ncols = extension_system(OBSTRUCTED)
        u = [scalar(c, p) for c in
             steps["no-right-extension"]["certificates"][0]["combination"]]
        if not replays_certificate(rows, rhs, ncols, u, p):
            problems.append("extension certificate fails replay")
        u = [scalar(c, p) for c in steps["no-antipode-divisibility"]
             ["certificates"][0]["functional"]]
        if len(u) != degree + 3 or u[1] != 0 or u[2] == 0:
            problems.append("divisibility functional fails replay")
        return problems

    # ------------------------------------------------------------ U(g)

    def domain_divide(self, op, rc, out):
        if rc != 0:
            return [f"exit {rc}"]
        e = op.expect
        p, lam = e["p"], e["lam"]
        report = json.loads(out)["reports"][0]
        feasible = lam is not None
        want = self.feasibility(feasible)
        if report["verdict"] != want:
            return [f"verdict {report['verdict']}, expected {want}"]
        if report["verdict"] == "feasible":
            z = report["witnesses"][0]["z"]
            if not _SCALAR_RE.match(z) or scalar(z, p) != lam:
                return [f"witness z = {z}, expected {lam}"]
            if "solution space has 0 free parameter(s)" not in \
                    report["narrative"]:
                return ["U(g) is a domain, yet the solution is not unique"]
            return []
        return self._replay_domain_functional(e, report)

    def _replay_domain_functional(self, e, report):
        p = e["p"]
        m = len(e["g"])
        u = [scalar(c, p) for c in report["certificates"][0]["functional"]]
        rows = pbw_basis(m, e["degree"] + 1)
        if len(u) != len(rows):
            return ["functional has the wrong length"]
        index = {mono: r for r, mono in enumerate(rows)}
        algebra = PBW(e["lie"], p)
        g = generator(e["g"])
        for mono in pbw_basis(m, e["degree"]):
            column = algebra.times(g, mono)
            if norm(sum(u[index[w]] * c for w, c in column.items()), p):
                return ["functional does not vanish on g.w"]
        target = generator(e["t"])
        if not norm(sum(u[index[w]] * c for w, c in target.items()), p):
            return ["functional vanishes on the target"]
        return []

    # ------------------------------------------------------------ pbw

    def pbw(self, op, terms):
        lie, p, ea, eb = op.product
        if lie == "abelian":
            expected = {tuple(a + b for a, b in zip(ea, eb)): 1}
        else:
            expected = PBW(lie, p).times({ea: 1}, eb)
        if self.flip:
            expected = {w: norm(c + 1, p) for w, c in expected.items()}
        if terms != expected:
            return ["product differs from PBW collection"]
        return []

    # ------------------------------------------------------------ batch

    def problem_batch(self, op, rc, out, err):
        e = op.expect
        s = e["structure"]
        failing = s["failing"]
        if failing and e["command"] != "check":
            want = self.verdict(2, 0)
            if rc != want or (rc == 2 and f"axiom check '{failing[0]}' "
                              f"failed" not in err):
                return [f"exit {rc} on a table broken at {failing[0]}"]
            return []
        if rc != 0:
            return [f"exit {rc}"]
        reports = json.loads(out)["reports"]
        return getattr(self, "_pb_" + e["command"])(e, s, reports)

    def _pb_check(self, e, s, reports):
        verdicts = {r["name"]: r["verdict"] for r in reports}
        should_fail = set(s["failing"])
        for name, verdict in verdicts.items():
            if name in should_fail:
                want = self.verdict("fail", "pass")
            elif not s["failing"]:
                want = self.verdict("pass", "fail")
            else:
                continue
            if verdict != want:
                return [f"{name}: {verdict}, expected {want}"]
        if not should_fail <= set(verdicts):
            return ["a known broken axiom was not reported"]
        return []

    def _pb_envelope(self, e, s, reports):
        r_dim, m = s["k"] + 1, s["m"]
        dims = [r_dim + sum(comb(t + m - 1, m - 1) for t in range(1, d + 1))
                for d in range(e["degree"] + 1)]
        want = [f"degree {d}: dimension {n}" for d, n in enumerate(dims)]
        if reports[0]["narrative"] != want:
            return ["envelope dimensions differ from the PBW count"]
        conf = self.verdict("pass", "fail")
        if reports[1]["name"] != "local-confluence" or \
                reports[1]["verdict"] != conf:
            return ["local confluence verdict"]
        return []

    def _pb_partial(self, e, s, reports):
        p = s["p"]
        rows, rhs, ncols = extension_system(s)
        feasible = raw_solve(rows, rhs, ncols, p)
        report = reports[0]
        want = self.feasibility(feasible)
        if report["verdict"] != want:
            return [f"verdict {report['verdict']}, expected {want}"]
        if report["verdict"] == "infeasible":
            u = [scalar(c, p)
                 for c in report["certificates"][0]["combination"]]
            if not replays_certificate(rows, rhs, ncols, u, p):
                return ["extension certificate fails replay"]
            return []
        labels = ["1"] + [f"x{i + 1}" for i in range(s["k"])]
        x = []
        for label in s["labels"]:
            x.extend(linear_coords(report["witnesses"][0][label], labels, p))
        if not replays_witness(rows, rhs, x, p):
            return ["extension witness fails replay"]
        return []

    def _pb_divide(self, e, s, reports):
        p, lam = s["p"], e["lam"]
        report = reports[0]
        feasible = lam is not None
        want = self.feasibility(feasible)
        if report["verdict"] != want:
            return [f"verdict {report['verdict']}, expected {want}"]
        if report["verdict"] == "feasible":
            if unit_coefficient(report["witnesses"][0]["z"], p) != lam:
                return ["x1.z differs from the target"]
            return []
        # x1.w = 0 for every basis word w != 1: the functional must kill
        # x1 (basis position 1) and not x2 (position 2)
        u = [scalar(c, p) for c in report["certificates"][0]["functional"]]
        if u[1] != 0 or u[2] == 0:
            return ["divisibility functional fails replay"]
        return []
