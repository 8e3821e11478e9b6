"""Instance file parsing (apx and tgf) and extension output formatting.

Each parser has two routes.  Text in the plain layout (apx: the ``arg``
lines, then the ``att`` lines, with names ``[a-z][A-Za-z0-9_]*``; tgf: the
node lines, one ``#`` line, then ``src dst`` lines with one space; every
line ends in a newline and holds nothing else) is checked in one scan of
pattern matches and read by string splits.  Every other text, and plain
text with a duplicate name or an undeclared endpoint, takes the line pass,
the only place that raises ``ParseError`` or warns.  Both routes give the
same framework for the same arguments and attacks.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import compress

from .core import ArgumentationFramework, Record, build_framework, member_flags
from .semantics import ExtensionSet


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_FRESH = object()  # a ParseDiagnostics list left out: a new empty one


class ParseDiagnostics(Record):
    """The warnings of one parse, as (line, message), and the names that
    lenient mode declared; each list is fresh unless given."""

    __slots__ = _compared = ("warnings", "lenient_declarations")

    def __init__(
        self,
        warnings: list[tuple[int, str]] = _FRESH,
        lenient_declarations: list[str] = _FRESH,
    ):
        self.warnings = [] if warnings is _FRESH else warnings
        self.lenient_declarations = (
            [] if lenient_declarations is _FRESH else lenient_declarations
        )


_PLAIN_NAME = "[a-z][A-Za-z0-9_]*"
_NAME = rf'(?:{_PLAIN_NAME}|"[^"]*")'
_ARG_LINE = re.compile(rf"arg\(\s*({_NAME})\s*\)\s*\.\Z")
_ATT_LINE = re.compile(rf"att\(\s*({_NAME})\s*,\s*({_NAME})\s*\)\s*\.\Z")


# The lines of the plain layout, up to _LINES of them a match: the matcher
# keeps about 200 bytes a line until the match ends, so one match of a
# whole file would take hundreds of kilobytes and more resident memory
_LINES = 128
_PLAIN_ARGS = re.compile(rf"(?:arg\({_PLAIN_NAME}\)\.\n){{0,{_LINES}}}")
_PLAIN_ATTS = re.compile(rf"(?:att\({_PLAIN_NAME},{_PLAIN_NAME}\)\.\n){{0,{_LINES}}}")
_PLAIN_NODES = re.compile(rf"(?:[^\s#]\S*\n){{0,{_LINES}}}")
_PLAIN_EDGES = re.compile(rf"(?:\S+ \S+\n){{0,{_LINES}}}")


def _ends_plain(text: str, *lines: re.Pattern) -> bool:
    """Whether one of ``lines`` matches the last line of ``text``.  Tried
    before the scan, so that a file that is plain but for its end (a
    comment, a blank line, no final newline) goes to the line pass
    without one."""
    last = text.rfind("\n", 0, -1) + 1
    return any(p.match(text, last).end() == len(text) for p in lines)


def _lines_end(lines: re.Pattern, text: str, pos: int) -> int:
    """Where the run of lines that ``lines`` matches from ``pos`` ends."""
    while True:
        end = lines.match(text, pos).end()
        if end == pos:
            return pos
        pos = end


def _plain_framework(
    names: list[str], ends: list[str]
) -> ArgumentationFramework | None:
    """The framework of ``names`` and the attacks ``ends`` lists as
    source, target, source, ...; None when a name repeats or an endpoint
    is not one of the names, which the line pass then reports."""
    declared = set(names)
    if len(declared) != len(names) or not declared.issuperset(ends):
        return None
    return build_framework(names, zip(ends[::2], ends[1::2]))


def _plain_apx(text: str) -> ArgumentationFramework | None:
    """The framework of apx text in the plain layout, else None."""
    if not _ends_plain(text, _PLAIN_ATTS, _PLAIN_ARGS):
        return None
    cut = _lines_end(_PLAIN_ARGS, text, 0)
    if _lines_end(_PLAIN_ATTS, text, cut) != len(text):
        return None
    # the arg lines less the first "arg(" and the last ").\n" split into the
    # names, the att lines likewise into the endpoints
    names = text[4:cut - 3].split(").\narg(") if cut else []
    ends = (text[cut + 4:-3].replace(").\natt(", ",").split(",")
            if cut < len(text) else [])
    return _plain_framework(names, ends)


def _plain_tgf(text: str) -> ArgumentationFramework | None:
    """The framework of tgf text in the plain layout, else None."""
    if not (text.endswith("#\n") or _ends_plain(text, _PLAIN_EDGES)):
        return None
    cut = _lines_end(_PLAIN_NODES, text, 0)
    if (not text.startswith("#\n", cut)
            or _lines_end(_PLAIN_EDGES, text, cut + 2) != len(text)):
        return None
    return _plain_framework(text[:cut].split(), text[cut + 2:].split())


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
    never declared become auto-declared arguments (with a warning); a later
    arg line for one declares it, at the index it already has."""
    fw = _plain_apx(text)
    if fw is not None:
        return fw, ParseDiagnostics()

    names: list[str] = []
    seen: set[str] = set()
    auto_declared: set[str] = set()  # not yet declared by an arg line
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
                        auto_declared.add(endpoint)
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
                if name not in auto_declared:
                    raise ParseError(line_no, f"duplicate argument {name!r}")
                auto_declared.discard(name)
                continue
            seen.add(name)
            names.append(name)
            continue
        raise ParseError(line_no, f"cannot parse {line!r}")

    return build_framework(names, attacks), diags


def parse_tgf(text: str) -> tuple[ArgumentationFramework, ParseDiagnostics]:
    """Trivial graph format: node ids, a '#' separator, then 'src dst'
    edge lines."""
    fw = _plain_tgf(text)
    if fw is not None:
        return fw, ParseDiagnostics()

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
    # members in ascending index order, picked off the mask in one byte pass
    rendered = ["[" + ",".join(compress(args, member_flags(s))) + "]" for s in exts.extensions]
    if style is OutputStyle.SINGLE:
        return "[" + ",".join(rendered) + "]"
    return "".join(line + "\n" for line in rendered)
