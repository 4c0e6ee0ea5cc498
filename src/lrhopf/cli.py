"""Command-line front end.

Five commands, all reading a problem file (or a bundled preset name)
except the last, which has its inputs built in:

  check     run every axiom check and report verdicts
  envelope  truncated basis, dimensions per degree, confluence verdict
  partial   solve for the generator images of a right extension
  divide    left-divisibility query g.z = t over the truncated basis
  theorem1  the built-in end-to-end obstruction run

Exit codes speak about the run, not the mathematics: 0 means the
command completed (whatever the verdicts), 2 means bad input, 3 means
an internal invariant broke, and 1 means stdout was closed before the
report was written out (as by `| head -1`).  `--format structured`
emits one JSON document carrying exactly the data of the text report.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import replace

from .errors import (ConstructionRefusedError, LrhInputError,
                     LrhInternalError, PipelineError)
from .lierinehart import _criterion_of, validate_lie_rinehart
from .enveloping import (
    TruncatedEnvelope,
    build_rewrite_system,
    check_local_confluence,
    enumerate_basis,
    left_divide,
    verify_divide_certificate,
    verify_divide_witness,
)
from .obstruction import (
    partial_map_from_witness,
    partial_map_system,
    theorem1_pipeline,
    verify_partial,
)
from .problemfile import (
    PRESETS,
    parse_generator_expression,
    parse_problem,
)
from .reports import FEASIBLE, INFEASIBLE, PASS, VerdictReport
from .scalars import Field, solve_linear, verify_certificate

_FIELD_FLAG_RE = re.compile(r"^(?:Q|GF(\d+)|GF\((\d+)\))$")


def parse_field_flag(text: str) -> Field:
    match = _FIELD_FLAG_RE.match(text.strip())
    if not match:
        raise LrhInputError(
            f"unknown field {text!r}; use Q or GF<p>, e.g. GF2 or GF(5)")
    p = match.group(1) or match.group(2)
    if p is None:
        return Field(0)
    try:
        return Field.prime(int(p))
    except ValueError:  # more digits than int() converts from text
        raise LrhInputError(
            f"characteristic of {len(p)} digits is over the limit of 2^32 "
            f"(MAX_CHARACTERISTIC)") from None


def _validated(data):
    reports = validate_lie_rinehart(data)
    for report in reports:
        if not report.ok:
            raise ConstructionRefusedError(
                f"axiom check '{report.name}' failed; run the check "
                f"command for the full verdict list", report=report)
    return replace(data, validated=True)


def _emit(reports: list, fmt: str, command: str) -> None:
    if fmt == "structured":
        doc = {"command": command,
               "reports": [r.to_dict() for r in reports]}
        print(json.dumps(doc, indent=2))
    else:
        for report in reports:
            print(report.render_text())


def _cmd_check(args) -> int:
    data = parse_problem(args.problem)
    reports = validate_lie_rinehart(data)
    if data.action.kind == "character":
        # the criterion's condition (a) is the sweep's R-linearity check
        linear = next(r for r in reports if r.name == "anchor-r-linearity")
        reports.append(_criterion_of(data, linear))
    _emit(reports, args.format, "check")
    return 0


def _cmd_envelope(args) -> int:
    data = _validated(parse_problem(args.problem))
    system = build_rewrite_system(data)
    env = enumerate_basis(system, args.degree)
    narrative = [f"degree {d}: dimension {TruncatedEnvelope(system, d).dim}"
                 for d in range(args.degree + 1)]
    if args.basis:
        narrative.append("basis: " + ", ".join(env.basis_labels()))
    summary = VerdictReport(name="truncated-envelope", verdict=PASS,
                            degree_used=args.degree, narrative=narrative)
    _emit([summary, check_local_confluence(env)], args.format, "envelope")
    return 0


def _cmd_partial(args) -> int:
    data = _validated(parse_problem(args.problem))
    system = partial_map_system(data)
    outcome = solve_linear(system)
    if outcome.feasible:
        candidate = partial_map_from_witness(data, outcome)
        replayed = verify_partial(candidate).ok
        witnesses = [{label: str(value)
                      for label, value in zip(data.L.labels,
                                              candidate.values)}]
        report = VerdictReport(
            name="right-extension-system", verdict=FEASIBLE,
            witnesses=witnesses,
            narrative=[f"solution space has {outcome.nullity} free "
                       f"parameter(s)",
                       f"witness replay: {PASS}"])
    else:
        replayed = verify_certificate(system, outcome.certificate)
        report = VerdictReport(
            name="right-extension-system", verdict=INFEASIBLE,
            certificates=[{
                "combination": [str(c) for c in outcome.certificate],
                "replay": PASS}],
            narrative=["no generator images satisfy the extension "
                       "equations"])
    if not replayed:
        raise PipelineError("right-extension-system", "replay failed")
    _emit([report], args.format, "partial")
    return 0


def _cmd_divide(args) -> int:
    """Answer g.z = t at the given degree and replay the evidence before
    it is printed.  A witness z is rendered from its support
    (`TruncatedEnvelope.element`), as the replay builds it, so its zero
    coordinates are neither coerced nor tested."""
    data = _validated(parse_problem(args.problem))
    system = build_rewrite_system(data)
    env = enumerate_basis(system, args.degree)
    g = parse_generator_expression(args.left, system)
    t = parse_generator_expression(args.target, system)
    outcome = left_divide(g, t, env)
    if outcome.feasible:
        replayed = verify_divide_witness(g, t, env, outcome.witness)
        witness = system.render_element(env.element(outcome.witness))
        report = VerdictReport(
            name="left-divisibility", verdict=FEASIBLE,
            degree_used=args.degree,
            witnesses=[{"z": witness}],
            narrative=[f"{args.target} = ({args.left}).z with z as shown",
                       f"solution space has {outcome.nullity} free "
                       f"parameter(s)"])
    else:
        replayed = verify_divide_certificate(g, t, env, outcome.certificate)
        report = VerdictReport(
            name="left-divisibility", verdict=INFEASIBLE,
            degree_used=args.degree,
            certificates=[{
                "functional": [str(c) for c in outcome.certificate],
                "meaning": "vanishes on every left multiple of "
                           f"({args.left}) but not on {args.target}"}],
            narrative=[f"{args.target} is not a left multiple of "
                       f"({args.left}) at degree {args.degree}"])
    if not replayed:
        raise PipelineError("left-divisibility",
                            f"replay failed at degree {args.degree}")
    _emit([report], args.format, "divide")
    return 0


def _cmd_theorem1(args) -> int:
    report = theorem1_pipeline(parse_field_flag(args.field), args.degree)
    if args.format == "structured":
        doc = {"command": "theorem1", **report.to_dict()}
        print(json.dumps(doc, indent=2))
    else:
        print(report.render_text())
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrhopf",
        description="exact verification kernel for Lie-Rinehart "
                    "enveloping algebras and their right-extension "
                    "obstructions")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "structured"),
                        default="text",
                        help="report rendering (default: text)")
    sub = parser.add_subparsers(dest="command", required=True)

    problem_help = ("problem file path, or one of the bundled presets: "
                    + ", ".join(sorted(PRESETS)))

    p = sub.add_parser("check", parents=[common],
                       help="run every axiom check")
    p.add_argument("problem", help=problem_help)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("envelope", parents=[common],
                       help="truncated basis and confluence verdict")
    p.add_argument("problem", help=problem_help)
    p.add_argument("--degree", type=int, default=8,
                   help="truncation degree (default 8)")
    p.add_argument("--basis", action="store_true",
                   help="list the basis words")
    p.set_defaults(func=_cmd_envelope)

    p = sub.add_parser("partial", parents=[common],
                       help="solve for right-extension generator images")
    p.add_argument("problem", help=problem_help)
    p.set_defaults(func=_cmd_partial)

    p = sub.add_parser("divide", parents=[common],
                       help="left-divisibility query over the truncated "
                            "basis")
    p.add_argument("problem", help=problem_help)
    p.add_argument("--left", required=True,
                   help="the divisor g, a linear expression in generators")
    p.add_argument("--target", required=True,
                   help="the target t, a linear expression in generators")
    p.add_argument("--degree", type=int, default=8,
                   help="truncation degree for the unknown (default 8)")
    p.set_defaults(func=_cmd_divide)

    p = sub.add_parser("theorem1", parents=[common],
                       help="end-to-end obstruction run on the built-in "
                            "example")
    p.add_argument("--field", default="Q",
                   help="coefficient field: Q (default) or GF<p>")
    p.add_argument("--degree", type=int, default=8,
                   help="truncation degree (default 8)")
    p.set_defaults(func=_cmd_theorem1)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered nowhere, so that
        # the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConstructionRefusedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(exc.report.render_text(), file=sys.stderr)
        return 2
    except LrhInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LrhInternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
