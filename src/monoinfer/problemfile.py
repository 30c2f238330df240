"""The .problem text format: parsing and serialization.

A small line-oriented format with named sections (grammar in the README):

    monoinfer-problem 1

    variables
      a int 0..3
      c bool
    end

    regulations
      b -> a sign=anti essential
      c -> a sign=mono
    end

    observations
      F1 { a=0 b=0 c=0 }
    end

Unknown sections or fields, duplicate regulations, and out-of-domain values
are rejected with positioned errors.
"""

from __future__ import annotations

import re
from typing import Optional

from .network import (
    FixedPointObservation,
    InferenceProblem,
    NetworkVariable,
    ProblemError,
    Regulation,
    Sign,
)
from .terms import BOOL, SortError, TermError, bounded_int, INT

FORMAT_HEADER = "monoinfer-problem"
FORMAT_VERSION = "1"

_SIGNS = {
    "mono": Sign.MONOTONE,
    "monotone": Sign.MONOTONE,
    "anti": Sign.ANTI_MONOTONE,
    "anti-monotone": Sign.ANTI_MONOTONE,
    "unknown": Sign.UNKNOWN,
}
_SIGN_OUT = {
    Sign.MONOTONE: "mono",
    Sign.ANTI_MONOTONE: "anti",
    Sign.UNKNOWN: "unknown",
}

_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")
_ASSIGN_RE = re.compile(r"^([^=\s]+)=(\S+)$")


class ProblemParseError(ProblemError):
    """Parse/validation failure with a 1-based line position."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def parse_problem(text: str) -> InferenceProblem:
    lines = text.splitlines()
    variables: dict[str, NetworkVariable] = {}
    var_order: list[NetworkVariable] = []
    regulations: list[Regulation] = []
    observations: list[FixedPointObservation] = []
    section: Optional[str] = None
    header_seen = False

    for number, raw in enumerate(lines, start=1):
        line = _strip(raw)
        if not line:
            continue
        if not header_seen:
            parts = line.split()
            if len(parts) != 2 or parts[0] != FORMAT_HEADER:
                raise ProblemParseError(
                    number, f"expected header '{FORMAT_HEADER} {FORMAT_VERSION}'"
                )
            if parts[1] != FORMAT_VERSION:
                raise ProblemParseError(
                    number, f"unsupported format version {parts[1]!r}"
                )
            header_seen = True
            continue
        if section is None:
            if line in ("variables", "regulations", "observations"):
                section = line
                continue
            raise ProblemParseError(number, f"expected a section name, got {line!r}")
        if line == "end":
            section = None
            continue
        if section == "variables":
            _parse_variable(number, line, variables, var_order)
        elif section == "regulations":
            regulations.append(_parse_regulation(number, line, variables))
        else:
            observations.append(_parse_observation(number, line, variables))

    if not header_seen:
        raise ProblemParseError(1, f"missing '{FORMAT_HEADER} {FORMAT_VERSION}' header")
    if section is not None:
        raise ProblemParseError(len(lines), f"unterminated section {section!r}")
    try:
        return InferenceProblem(var_order, regulations, observations)
    except ProblemError as err:
        raise ProblemParseError(len(lines), str(err)) from err


def _parse_variable(number, line, variables, var_order) -> None:
    parts = line.split()
    if len(parts) == 2 and parts[1] == "bool":
        name, domain = parts[0], BOOL
    elif len(parts) == 3 and parts[1] == "int" and parts[2] == "unbounded":
        name, domain = parts[0], INT
    elif len(parts) == 3 and parts[1] == "int":
        m = _RANGE_RE.match(parts[2])
        if not m:
            raise ProblemParseError(number, f"malformed range {parts[2]!r}")
        lo, hi = int(m.group(1)), int(m.group(2))
        try:
            domain = bounded_int(lo, hi)
        except (SortError, TermError) as err:
            raise ProblemParseError(number, str(err))
        name = parts[0]
    else:
        raise ProblemParseError(
            number, f"expected '<name> bool' or '<name> int <lo>..<hi>', got {line!r}"
        )
    try:
        var = NetworkVariable(name, domain)
    except (TermError, ProblemError) as err:
        raise ProblemParseError(number, str(err))
    if name in variables:
        raise ProblemParseError(number, f"duplicate variable {name!r}")
    variables[name] = var
    var_order.append(var)


def _parse_regulation(number, line, variables) -> Regulation:
    parts = line.split()
    if len(parts) < 3 or parts[1] != "->":
        raise ProblemParseError(
            number, f"expected '<source> -> <target> [sign=...] [essential]', got {line!r}"
        )
    source, target = parts[0], parts[2]
    if source not in variables:
        raise ProblemParseError(number, f"unknown variable {source!r}")
    if target not in variables:
        raise ProblemParseError(number, f"unknown variable {target!r}")
    sign = Sign.UNKNOWN
    essential = False
    for field in parts[3:]:
        if field == "essential":
            essential = True
        elif field.startswith("sign="):
            value = field[len("sign=") :]
            if value not in _SIGNS:
                raise ProblemParseError(number, f"unknown sign {value!r}")
            sign = _SIGNS[value]
        else:
            raise ProblemParseError(number, f"unknown regulation field {field!r}")
    return Regulation(variables[source], variables[target], sign, essential)


def _parse_observation(number, line, variables) -> FixedPointObservation:
    m = re.match(r"^(\S+)\s*\{(.*)\}$", line)
    if not m:
        raise ProblemParseError(
            number, f"expected '<name> {{ x=v ... }}', got {line!r}"
        )
    name, body = m.group(1), m.group(2)
    assignments = []
    for token in body.split():
        am = _ASSIGN_RE.match(token)
        if not am:
            raise ProblemParseError(number, f"malformed assignment {token!r}")
        var_name, value_text = am.group(1), am.group(2)
        if var_name not in variables:
            raise ProblemParseError(number, f"unknown variable {var_name!r}")
        var = variables[var_name]
        value = _parse_value(number, value_text, var)
        assignments.append((var, value))
    try:
        return FixedPointObservation.of(assignments, name)
    except ProblemError as err:
        raise ProblemParseError(number, str(err))


def _parse_value(number, text, var: NetworkVariable):
    if var.is_boolean:
        if text in ("0", "false"):
            return False
        if text in ("1", "true"):
            return True
        raise ProblemParseError(
            number, f"value {text!r} outside the domain of {var.name}"
        )
    try:
        return int(text)
    except ValueError:
        raise ProblemParseError(number, f"malformed integer value {text!r}")


def serialize_problem(problem: InferenceProblem) -> str:
    lines = [f"{FORMAT_HEADER} {FORMAT_VERSION}", "", "variables"]
    for var in problem.variables:
        if var.is_boolean:
            lines.append(f"  {var.name} bool")
        elif var.domain.bounds is not None:
            lo, hi = var.domain.bounds
            lines.append(f"  {var.name} int {lo}..{hi}")
        else:
            lines.append(f"  {var.name} int unbounded")
    lines += ["end", "", "regulations"]
    for reg in problem.regulations:
        fields = [reg.source.name, "->", reg.target.name, f"sign={_SIGN_OUT[reg.sign]}"]
        if reg.essential:
            fields.append("essential")
        lines.append("  " + " ".join(fields))
    lines += ["end", "", "observations"]
    for i, obs in enumerate(problem.observations):
        name = obs.name or f"F{i + 1}"
        body = " ".join(
            f"{var.name}={_value_text(var, value)}" for var, value in obs.assignments
        )
        lines.append(f"  {name} {{ {body} }}")
    lines += ["end", ""]
    return "\n".join(lines)


def _value_text(var: NetworkVariable, value) -> str:
    if var.is_boolean:
        return "1" if value else "0"
    return str(value)


def load_problem(path) -> InferenceProblem:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())


def save_problem(problem: InferenceProblem, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_problem(problem))
