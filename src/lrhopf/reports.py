"""Structured verdicts shared by every checker.

A VerdictReport carries the verdict itself plus whatever makes it
checkable: witnesses for failures, certificates for infeasibility, the
truncation degree when one was used, and an ordered narrative of the
steps taken.  The text rendering and the machine rendering are both
generated from the same object so they can never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


@dataclass
class VerdictReport:
    name: str
    verdict: str
    witnesses: list = field(default_factory=list)
    certificates: list = field(default_factory=list)
    degree_used: int = None
    narrative: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.verdict == PASS

    def to_dict(self) -> dict:
        d = {"name": self.name, "verdict": self.verdict}
        if self.witnesses:
            d["witnesses"] = self.witnesses
        if self.certificates:
            d["certificates"] = self.certificates
        if self.degree_used is not None:
            d["degree_used"] = self.degree_used
        if self.narrative:
            d["narrative"] = self.narrative
        return d

    def render_text(self, indent: str = "") -> str:
        lines = [f"{indent}{self.name}: verdict={self.verdict}"]
        if self.degree_used is not None:
            lines.append(f"{indent}  degree used: {self.degree_used}")
        for step in self.narrative:
            lines.append(f"{indent}  - {step}")
        for w in self.witnesses:
            lines.append(f"{indent}  witness: {_fmt(w)}")
        for c in self.certificates:
            lines.append(f"{indent}  certificate: {_fmt(c)}")
        return "\n".join(lines)


def _fmt(obj) -> str:
    if isinstance(obj, dict):
        return ", ".join(f"{k}={_fmt(v)}" for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return "(" + ", ".join(_fmt(x) for x in obj) + ")"
    return str(obj)

