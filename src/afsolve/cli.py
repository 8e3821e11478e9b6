"""Command-line entry point: solve, query, emit, check, bench.

Exit codes: 0 success (and YES/NO queries), 1 check found mismatches,
2 input parse error, 3 search budget exceeded, 4 I/O error, 5 usage error
(bad flags, unknown names, oracle cap).  Payload goes to stdout only;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bench, encodings, formats, oracle, semantics
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

SOLVER_CMD_ENV = "AFSOLVE_SOLVER_CMD"


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r") as handle:
            return handle.read()
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read {path}: {exc}") from exc


def _load_framework(path: str, fmt: str, strict: bool):
    text = _read_input(path)
    try:
        if fmt == "tgf":
            fw, diags = formats.parse_tgf(text)
        else:
            fw, diags = formats.parse_apx(text, strict=strict)
    except (formats.ParseError, FrameworkError) as exc:
        raise _CliError(EXIT_PARSE, str(exc)) from exc
    for line_no, message in diags.warnings:
        print(f"warning: line {line_no}: {message}", file=sys.stderr)
    return fw


def _kind(value: str) -> SemanticsKind:
    try:
        return SemanticsKind(value)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"unknown semantics {value!r}") from exc


def _add_input_flags(sub, nargs=None):
    sub.add_argument("input", nargs=nargs, help="instance file, or '-' for stdin")
    sub.add_argument("--format", choices=("apx", "tgf"), default="apx")
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--strict", dest="strict", action="store_true", default=True)
    mode.add_argument("--lenient", dest="strict", action="store_false")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afsolve", description="Abstract argumentation solver"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="enumerate extensions")
    _add_input_flags(p_solve)
    p_solve.add_argument("--sem", required=True)
    p_solve.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_solve.add_argument(
        "--single", action="store_true", help="one-line [[...],[...]] output"
    )

    p_query = subs.add_parser("query", help="credulous/skeptical acceptance")
    _add_input_flags(p_query)
    p_query.add_argument("--sem", required=True)
    p_query.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    mode = p_query.add_mutually_exclusive_group(required=True)
    mode.add_argument("--cred", metavar="ARG")
    mode.add_argument("--skep", metavar="ARG")

    p_emit = subs.add_parser("emit", help="print ASP encodings and facts")
    _add_input_flags(p_emit, nargs="?")
    p_emit.add_argument("--encoding", metavar="NAME")
    p_emit.add_argument(
        "--facts", action="store_true", help="emit the instance fact base"
    )

    p_check = subs.add_parser(
        "check", help="differential test against oracle and external solver"
    )
    _add_input_flags(p_check, nargs="?")
    p_check.add_argument("--gen", metavar="SPEC", help="generator spec")
    p_check.add_argument("--count", type=int, default=1)
    p_check.add_argument("--sem", action="append", default=None)
    p_check.add_argument("--all", action="store_true", help="all six semantics")
    p_check.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP)
    p_check.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p_bench = subs.add_parser("bench", help="timeout-controlled measurements")
    p_bench.add_argument(
        "--gen", metavar="SPEC", action="append", required=True
    )
    p_bench.add_argument("--count", type=int, default=1)
    p_bench.add_argument("--sem", action="append", default=None)
    p_bench.add_argument("--all", action="store_true")
    p_bench.add_argument("--timeout", type=float, default=600000.0, metavar="MS")
    p_bench.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_bench.add_argument("--workers", type=int, default=1)
    p_bench.add_argument("--out", required=True, metavar="PATH")
    return parser


def _cmd_solve(args) -> int:
    fw = _load_framework(args.input, args.format, args.strict)
    exts = semantics.enumerate_extensions(fw, _kind(args.sem), budget=args.budget)
    style = formats.OutputStyle.SINGLE if args.single else formats.OutputStyle.LINES
    sys.stdout.write(formats.format_extensions(fw, exts, style))
    if args.single:
        sys.stdout.write("\n")
    return EXIT_OK


def _cmd_query(args) -> int:
    fw = _load_framework(args.input, args.format, args.strict)
    name = args.cred if args.cred is not None else args.skep
    if name not in fw.index:
        raise _CliError(EXIT_USAGE, f"unknown argument name {name!r}")
    idx = fw.index[name]
    kind = _kind(args.sem)
    if args.cred is not None:
        answer = semantics.credulous(fw, idx, kind, budget=args.budget)
    else:
        answer = semantics.skeptical(fw, idx, kind, budget=args.budget)
    print("YES" if answer else "NO")
    return EXIT_OK


def _cmd_emit(args) -> int:
    if not args.encoding and not args.facts:
        raise _CliError(EXIT_USAGE, "emit needs --encoding and/or --facts")
    if args.encoding:
        try:
            name = encodings.EncodingName(args.encoding.lower())
        except ValueError as exc:
            raise _CliError(
                EXIT_USAGE, f"unknown encoding {args.encoding!r}"
            ) from exc
        sys.stdout.write(encodings.emit_encoding(name))
    if args.facts:
        if not args.input:
            raise _CliError(EXIT_USAGE, "--facts needs an instance file")
        fw = _load_framework(args.input, args.format, args.strict)
        try:
            sys.stdout.write(encodings.emit_apx_facts(fw))
        except encodings.ConstantError as exc:
            raise _CliError(EXIT_USAGE, str(exc)) from exc
    return EXIT_OK


def _check_kinds(args) -> list[SemanticsKind]:
    if args.all or not args.sem:
        return list(SemanticsKind)
    return [_kind(v) for v in args.sem]


def _cmd_check(args) -> int:
    if (args.input is None) == (args.gen is None):
        raise _CliError(EXIT_USAGE, "check needs an instance file or --gen")
    kinds = _check_kinds(args)
    if args.gen:
        try:
            base = bench.parse_generator_spec(args.gen)
        except bench.GeneratorError as exc:
            raise _CliError(EXIT_USAGE, str(exc)) from exc
        specs = [
            bench.GeneratorSpec(base.model, base.params, base.seed + i)
            for i in range(args.count)
        ]
        frameworks = [(spec.label(), bench.generate(spec)) for spec in specs]
    else:
        frameworks = [(args.input, _load_framework(args.input, args.format, args.strict))]

    solver_cmd = os.environ.get(SOLVER_CMD_ENV)
    mismatches = 0
    for label, fw in frameworks:
        for kind in kinds:
            try:
                ok = oracle.check_equivalence(fw, kind, cap=args.cap, budget=args.budget)
            except oracle.CapExceeded as exc:
                raise _CliError(EXIT_USAGE, str(exc)) from exc
            if not ok:
                mismatches += 1
                print(f"MISMATCH oracle {label} {kind.value}", file=sys.stderr)
        if solver_cmd:
            for kind in (SemanticsKind.PRF, SemanticsKind.SEM, SemanticsKind.STG):
                if kind not in kinds:
                    continue
                try:
                    report = encodings.differential_check(fw, kind, solver_cmd)
                except encodings.SolverError as exc:
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
    kinds = _check_kinds(args)
    instances = []
    for spec_text in args.gen:
        try:
            base = bench.parse_generator_spec(spec_text)
        except bench.GeneratorError as exc:
            raise _CliError(EXIT_USAGE, str(exc)) from exc
        for i in range(args.count):
            spec = bench.GeneratorSpec(base.model, base.params, base.seed + i)
            instances.append((spec.label(), bench.generate(spec)))
    try:
        summary = bench.run_suite(
            instances,
            kinds,
            timeout_ms=args.timeout,
            out_csv_path=args.out,
            budget=args.budget,
            workers=args.workers,
        )
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot write {args.out}: {exc}") from exc
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
