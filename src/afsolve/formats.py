"""Instance file parsing (apx and tgf) and extension output formatting."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from .core import ArgumentationFramework, build_framework
from .semantics import ExtensionSet


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class ParseDiagnostics:
    warnings: list[tuple[int, str]] = field(default_factory=list)
    lenient_declarations: list[str] = field(default_factory=list)


_NAME = r'(?:[a-z][A-Za-z0-9_]*|"[^"]*")'
_ARG_LINE = re.compile(rf"arg\(\s*({_NAME})\s*\)\s*\.\Z")
_ATT_LINE = re.compile(rf"att\(\s*({_NAME})\s*,\s*({_NAME})\s*\)\s*\.\Z")


def _strip_comment(line: str) -> str:
    """Cut line at the first % that is not inside a quoted name."""
    quoted = False
    for i, ch in enumerate(line):
        if ch == '"':
            quoted = not quoted
        elif ch == "%" and not quoted:
            return line[:i]
    return line


def parse_apx(
    text: str, *, strict: bool = True
) -> tuple[ArgumentationFramework, ParseDiagnostics]:
    """Parse apx facts: arg(name). and att(name,name). lines, with %
    comments and blank lines.  In lenient mode attack endpoints that were
    never declared become auto-declared arguments (with a warning)."""
    names: list[str] = []
    seen: set[str] = set()
    attacks: list[tuple[str, str]] = []
    diags = ParseDiagnostics()

    # attack lines, the most common kind, are tried first; quotes come off
    # inline, and the endpoints are looked at one by one only when one of
    # them is new
    match_att, match_arg = _ATT_LINE.match, _ARG_LINE.match
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = (_strip_comment(raw) if "%" in raw else raw).strip()
        if not line:
            continue
        m = match_att(line)
        if m:
            src, dst = m.groups()
            if src[0] == '"':
                src = src[1:-1]
            if dst[0] == '"':
                dst = dst[1:-1]
            if src not in seen or dst not in seen:
                for endpoint in (src, dst):
                    if endpoint not in seen:
                        if strict:
                            raise ParseError(
                                line_no,
                                f"attack endpoint {endpoint!r} is not declared",
                            )
                        seen.add(endpoint)
                        names.append(endpoint)
                        diags.lenient_declarations.append(endpoint)
                        diags.warnings.append(
                            (line_no, f"auto-declared argument {endpoint!r}")
                        )
            attacks.append((src, dst))
            continue
        m = match_arg(line)
        if m:
            name = m.group(1)
            if name[0] == '"':
                name = name[1:-1]
            if name in seen:
                raise ParseError(line_no, f"duplicate argument {name!r}")
            seen.add(name)
            names.append(name)
            continue
        raise ParseError(line_no, f"cannot parse {line!r}")

    return build_framework(names, attacks), diags


def parse_tgf(text: str) -> tuple[ArgumentationFramework, ParseDiagnostics]:
    """Trivial graph format: node ids, a '#' separator, then 'src dst'
    edge lines."""
    lines = text.splitlines()
    names: list[str] = []
    seen: set[str] = set()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line == "#":
            break
        if line in seen:
            raise ParseError(line_no, f"duplicate node id {line!r}")
        seen.add(line)
        names.append(line)
    else:
        raise ParseError(len(lines) or 1, "missing '#' separator")

    # edge lines: a second '#' shows up only as a line that does not split
    # into two ids, so it is looked for there
    attacks: list[tuple[str, str]] = []
    for line_no, raw in enumerate(lines[line_no:], start=line_no + 1):
        parts = raw.split()
        if len(parts) != 2:
            if not parts:
                continue
            line = raw.strip()
            if line == "#":
                raise ParseError(line_no, "duplicate '#' separator")
            raise ParseError(line_no, f"expected 'src dst', got {line!r}")
        src, dst = parts
        if src not in seen or dst not in seen:
            unknown = src if src not in seen else dst
            raise ParseError(line_no, f"unknown node id {unknown!r}")
        attacks.append((src, dst))

    return build_framework(names, attacks), ParseDiagnostics()


class OutputStyle(Enum):
    LINES = "lines"
    SINGLE = "single"


def format_extensions(
    fw: ArgumentationFramework, exts: ExtensionSet, style: OutputStyle
) -> str:
    args = fw.args
    rendered = []
    for s in exts.extensions:
        # members in ascending index order, read straight off the mask
        members = []
        while s:
            low = s & -s
            members.append(args[low.bit_length() - 1])
            s ^= low
        rendered.append("[" + ",".join(members) + "]")
    if style is OutputStyle.SINGLE:
        return "[" + ",".join(rendered) + "]"
    return "".join(line + "\n" for line in rendered)
