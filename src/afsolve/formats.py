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


def _unquote(name: str) -> str:
    if name.startswith('"'):
        return name[1:-1]
    return name


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

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = (_strip_comment(raw) if "%" in raw else raw).strip()
        if not line:
            continue
        m = _ARG_LINE.match(line)
        if m:
            name = _unquote(m.group(1))
            if name in seen:
                raise ParseError(line_no, f"duplicate argument {name!r}")
            seen.add(name)
            names.append(name)
            continue
        m = _ATT_LINE.match(line)
        if m:
            src, dst = _unquote(m.group(1)), _unquote(m.group(2))
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
        raise ParseError(line_no, f"cannot parse {line!r}")

    return build_framework(names, attacks), diags


def parse_tgf(text: str) -> tuple[ArgumentationFramework, ParseDiagnostics]:
    """Trivial graph format: node ids, a '#' separator, then 'src dst'
    edge lines."""
    names: list[str] = []
    seen: set[str] = set()
    attacks: list[tuple[str, str]] = []
    diags = ParseDiagnostics()
    in_edges = False
    separator_seen = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line == "#":
            if separator_seen:
                raise ParseError(line_no, "duplicate '#' separator")
            separator_seen = True
            in_edges = True
            continue
        if not in_edges:
            if line in seen:
                raise ParseError(line_no, f"duplicate node id {line!r}")
            seen.add(line)
            names.append(line)
        else:
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(line_no, f"expected 'src dst', got {line!r}")
            src, dst = parts
            for endpoint in (src, dst):
                if endpoint not in seen:
                    raise ParseError(line_no, f"unknown node id {endpoint!r}")
            attacks.append((src, dst))

    if not separator_seen:
        raise ParseError(len(text.splitlines()) or 1, "missing '#' separator")
    return build_framework(names, attacks), diags


class OutputStyle(Enum):
    LINES = "lines"
    SINGLE = "single"


def format_extensions(
    fw: ArgumentationFramework, exts: ExtensionSet, style: OutputStyle
) -> str:
    rendered = [
        "[" + ",".join(fw.names_of(s)) + "]" for s in exts.extensions
    ]
    if style is OutputStyle.SINGLE:
        return "[" + ",".join(rendered) + "]"
    return "".join(line + "\n" for line in rendered)
