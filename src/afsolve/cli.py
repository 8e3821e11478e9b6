"""Command-line entry point: solve, query, emit, check, bench.

Exit codes: 0 success (and YES/NO queries), 1 check found mismatches,
2 input parse error, 3 search budget exceeded, 4 I/O error, 5 usage error
(bad flags, unknown names, and any PreconditionError: bad generator specs,
the oracle cap, names no ASP constant can hold), 6 internal error (any
other exception; its traceback goes to stderr).  Payload goes to stdout
only; diagnostics go to stderr.  solve and query load neither the bench
harness nor its process pool: ``bench`` is imported only by check --gen
and bench, which generate instances.  An argv takes one of two routes:
a plain solve or query argv (the input, then --sem, --format, --cred or
--skep in full, each once, values as their own tokens) is read without
argparse; any other takes argparse, which builds its parser per call and
keeps every other option, help, abbreviations and every usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import encodings, formats, oracle, semantics
from .core import FrameworkError
from .semantics import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    PreconditionError,
    SemanticsKind,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_IO = 4
EXIT_USAGE = 5
EXIT_INTERNAL = 6

SOLVER_CMD_ENV = "AFSOLVE_SOLVER_CMD"

_SEMANTICS = [kind.value for kind in SemanticsKind]
_FORMATS = ("apx", "tgf")


class _CliError(Exception):
    """A usage error found by the command line itself."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _CliError(f"{self.prog}: {message}")


def _read_input(path: str) -> str:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    # a leading byte order mark is not input, from a file or from stdin
    return text.removeprefix("\ufeff")


def _load_framework(path: str, fmt: str, strict: bool):
    text = _read_input(path)
    if fmt == "tgf":
        fw, diags = formats.parse_tgf(text)
    else:
        fw, diags = formats.parse_apx(text, strict=strict)
    for line_no, message in diags.warnings:
        print(f"warning: line {line_no}: {message}", file=sys.stderr)
    return fw


def _generated(spec_text: str, count: int):
    """``count`` (label, framework) pairs from one generator spec, with
    seeds counting up from the spec's own."""
    from . import bench
    base = bench.parse_generator_spec(spec_text)
    specs = [
        bench.GeneratorSpec(base.model, base.params, base.seed + i)
        for i in range(count)
    ]
    return [(spec.label(), bench.generate(spec)) for spec in specs]


def _int_at_least(low: int, what: str):
    """An argparse type: an integer >= low, else a bad flag."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


def _milliseconds(text: str) -> float:
    """An argparse type: a finite number >= 0, else a bad flag."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite non-negative number, got {text!r}"
        )
    return value


def _add_input_flags(sub, nargs=None):
    sub.add_argument("input", nargs=nargs, help="instance file, or '-' for stdin")
    sub.add_argument("--format", choices=_FORMATS, default="apx")
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--strict", dest="strict", action="store_true", default=True)
    mode.add_argument("--lenient", dest="strict", action="store_false")


def _add_kind_flags(sub):
    """--sem (repeatable) or --all, not both; neither means all six."""
    kinds = sub.add_mutually_exclusive_group()
    kinds.add_argument("--sem", choices=_SEMANTICS, action="append", default=None)
    kinds.add_argument("--all", action="store_true", help="all six semantics")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="afsolve", description="Abstract argumentation solver")
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="enumerate extensions")
    _add_input_flags(p_solve)
    p_solve.add_argument("--sem", choices=_SEMANTICS, required=True)
    p_solve.add_argument("--budget", type=_non_negative_int, default=DEFAULT_BUDGET)
    p_solve.add_argument(
        "--single", action="store_true", help="one-line [[...],[...]] output"
    )

    p_query = subs.add_parser("query", help="credulous/skeptical acceptance")
    _add_input_flags(p_query)
    p_query.add_argument("--sem", choices=_SEMANTICS, required=True)
    p_query.add_argument("--budget", type=_non_negative_int, default=DEFAULT_BUDGET)
    mode = p_query.add_mutually_exclusive_group(required=True)
    mode.add_argument("--cred", metavar="ARG")
    mode.add_argument("--skep", metavar="ARG")

    p_emit = subs.add_parser("emit", help="print ASP encodings and facts")
    _add_input_flags(p_emit, nargs="?")
    p_emit.add_argument(
        "--encoding",
        type=str.lower,
        choices=[name.value for name in encodings.EncodingName],
        metavar="NAME",
    )
    p_emit.add_argument(
        "--facts", action="store_true", help="emit the instance fact base"
    )

    p_check = subs.add_parser(
        "check", help="differential test against oracle and external solver"
    )
    _add_input_flags(p_check, nargs="?")
    p_check.add_argument("--gen", metavar="SPEC", help="generator spec")
    p_check.add_argument("--count", type=_positive_int, default=1)
    _add_kind_flags(p_check)
    p_check.add_argument("--cap", type=_non_negative_int, default=oracle.DEFAULT_CAP)
    p_check.add_argument("--budget", type=_non_negative_int, default=DEFAULT_BUDGET)

    p_bench = subs.add_parser("bench", help="timeout-controlled measurements")
    p_bench.add_argument(
        "--gen", metavar="SPEC", action="append", required=True
    )
    p_bench.add_argument("--count", type=_positive_int, default=1)
    _add_kind_flags(p_bench)
    p_bench.add_argument("--timeout", type=_milliseconds, default=600000.0, metavar="MS")
    p_bench.add_argument("--budget", type=_non_negative_int, default=DEFAULT_BUDGET)
    p_bench.add_argument("--workers", type=_positive_int, default=1)
    p_bench.add_argument("--out", required=True, metavar="PATH")
    return parser


def _cmd_solve(args) -> int:
    fw = _load_framework(args.input, args.format, args.strict)
    kind = SemanticsKind(args.sem)
    exts = semantics.enumerate_extensions(fw, kind, budget=args.budget)
    style = formats.OutputStyle.SINGLE if args.single else formats.OutputStyle.LINES
    sys.stdout.write(formats.format_extensions(fw, exts, style))
    if args.single:
        sys.stdout.write("\n")
    return EXIT_OK


def _cmd_query(args) -> int:
    fw = _load_framework(args.input, args.format, args.strict)
    name = args.cred if args.cred is not None else args.skep
    if name not in fw.index:
        raise _CliError(f"unknown argument name {name!r}")
    idx = fw.index[name]
    kind = SemanticsKind(args.sem)
    if args.cred is not None:
        answer = semantics.credulous(fw, idx, kind, budget=args.budget)
    else:
        answer = semantics.skeptical(fw, idx, kind, budget=args.budget)
    print("YES" if answer else "NO")
    return EXIT_OK


def _cmd_emit(args) -> int:
    """Render the whole payload before writing any of it, so a failure
    leaves stdout empty."""
    if not args.encoding and not args.facts:
        raise _CliError("emit needs --encoding and/or --facts")
    if args.facts and not args.input:
        raise _CliError("--facts needs an instance file")
    if args.input and not args.facts:
        raise _CliError("an instance file is read only with --facts")
    facts = ""
    if args.facts:
        fw = _load_framework(args.input, args.format, args.strict)
        facts = encodings.emit_apx_facts(fw)
    if args.encoding:
        sys.stdout.write(encodings.emit_encoding(encodings.EncodingName(args.encoding)))
    sys.stdout.write(facts)
    return EXIT_OK


def _check_kinds(args) -> list[SemanticsKind]:
    """The kinds of --sem, each once, in first-seen order; none means all."""
    if not args.sem:
        return list(SemanticsKind)
    return list(dict.fromkeys(SemanticsKind(v) for v in args.sem))


def _cmd_check(args) -> int:
    if (args.input is None) == (args.gen is None):
        raise _CliError("check needs an instance file or --gen")
    kinds = _check_kinds(args)
    if args.gen:
        frameworks = _generated(args.gen, args.count)
    else:
        frameworks = [(args.input, _load_framework(args.input, args.format, args.strict))]

    solver_cmd = os.environ.get(SOLVER_CMD_ENV)
    mismatches = 0
    for label, fw in frameworks:
        for kind in kinds:
            if not oracle.check_equivalence(fw, kind, cap=args.cap, budget=args.budget):
                mismatches += 1
                print(f"MISMATCH oracle {label} {kind.value}", file=sys.stderr)
        if solver_cmd:
            for kind in (SemanticsKind.PRF, SemanticsKind.SEM, SemanticsKind.STG):
                if kind not in kinds:
                    continue
                try:
                    report = encodings.differential_check(fw, kind, solver_cmd)
                except (encodings.SolverError, encodings.AtomParseError) as exc:
                    print(f"SKIPPED solver {label}: {exc}", file=sys.stderr)
                    continue
                if not report.ok:
                    mismatches += 1
                    for line in report.mismatches:
                        print(
                            f"MISMATCH solver {label} {kind.value}: {line}",
                            file=sys.stderr,
                        )
        else:
            print(f"SKIPPED solver {label}: {SOLVER_CMD_ENV} not set", file=sys.stderr)
    checked = len(frameworks) * len(kinds)
    print(f"{'PASS' if mismatches == 0 else 'FAIL'} ({checked} checks, {mismatches} mismatches)")
    return EXIT_OK if mismatches == 0 else EXIT_MISMATCH


def _cmd_bench(args) -> int:
    from . import bench
    kinds = _check_kinds(args)
    instances = [inst for text in args.gen for inst in _generated(text, args.count)]
    summary = bench.run_suite(
        instances,
        kinds,
        timeout_ms=args.timeout,
        out_csv_path=args.out,
        budget=args.budget,
        workers=args.workers,
    )
    for kind in kinds:
        solved = summary.solved.get(kind, 0)
        median = summary.median_ms.get(kind, float("nan"))
        print(f"{kind.value}: solved={solved}/{len(instances)} median_ms={median:.2f}")
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "query": _cmd_query,
    "emit": _cmd_emit,
    "check": _cmd_check,
    "bench": _cmd_bench,
}


# The only mapping from exceptions to exit codes; the first row that
# matches wins.  Anything else is an internal error.
_EXIT_CODES = (
    ((formats.ParseError, FrameworkError, UnicodeDecodeError), EXIT_PARSE),
    (BudgetExceeded, EXIT_BUDGET),
    (OSError, EXIT_IO),
    ((_CliError, PreconditionError), EXIT_USAGE),
)

# the options of the plain route, each to its values: a tuple of choices,
# or "" for any value
_PLAIN_OPTIONS = {
    "--format": _FORMATS,
    "--sem": tuple(_SEMANTICS),
    "--cred": "",
    "--skep": "",
}


def _plain_argv(argv):
    """The Namespace argparse gives a plain solve or query argv, else None.

    Plain is the command, one input (``-`` or not starting with ``-``),
    then ``--sem`` and, if wanted, ``--format``, each once, with its value
    in its own token, not starting with ``-``, and valid; under query,
    also exactly one of ``--cred`` and ``--skep``.  argparse accepts every
    such argv without a word, so None for anything else (any other option
    included) costs nothing but this scan."""
    if len(argv) < 2 or argv[0] not in ("solve", "query"):
        return None
    command, path = argv[0], argv[1]
    if path != "-" and path[:1] == "-":
        return None
    opts = {}
    rest = iter(argv[2:])
    for opt in rest:
        if opt in opts or opt not in _PLAIN_OPTIONS:
            return None
        values = _PLAIN_OPTIONS[opt]
        value = next(rest, "-")  # "-": no value left
        if value[:1] == "-" or values and value not in values:
            return None
        opts[opt] = value
    query = command == "query"
    if "--sem" not in opts or ("--cred" in opts) + ("--skep" in opts) != query:
        return None
    args = argparse.Namespace(
        command=command,
        input=path,
        format=opts.get("--format", "apx"),
        strict=True,
        sem=opts["--sem"],
        budget=DEFAULT_BUDGET,
    )
    if query:
        args.cred, args.skep = opts.get("--cred"), opts.get("--skep")
    else:
        args.single = False
    return args


def _parse(argv) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` gives, by one of two routes.

    A plain solve or query argv (see `_plain_argv`), the shape the
    perfbench workloads use, is read in one pass and builds no parser.
    Any other argv takes one argparse pass on a parser built for this
    call: --budget, --single, --strict, --lenient, help, abbreviations,
    ``--opt=value``, ``--`` and every usage error with its message."""
    if argv is None:
        argv = sys.argv[1:]
    return _plain_argv(argv) or build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        return _COMMANDS[args.command](args)
    except Exception as exc:
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        import traceback  # only here: it loads the tokenizer modules

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
