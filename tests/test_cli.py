import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import afsolve.bench
from afsolve import EncodingName, ExtensionSet, cli, emit_encoding
from afsolve.cli import (
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    SOLVER_CMD_ENV,
    main,
)
from afsolve.encodings import ConstantError
from afsolve.oracle import CapExceeded
from afsolve.semantics import PreconditionError

from conftest import EXAMPLE1_APX


@pytest.fixture
def apx_file(tmp_path):
    path = tmp_path / "example1.apx"
    path.write_text(EXAMPLE1_APX)
    return str(path)


def test_solve_preferred(apx_file, capsys):
    assert main(["solve", apx_file, "--sem", "prf"]) == EXIT_OK
    assert capsys.readouterr().out == "[a,c,f]\n[a,d,f]\n"


def test_solve_single(apx_file, capsys):
    assert main(["solve", apx_file, "--sem", "prf", "--single"]) == EXIT_OK
    assert capsys.readouterr().out == "[[a,c,f],[a,d,f]]\n"


def test_solve_stable_empty(tmp_path, capsys):
    path = tmp_path / "cycle.apx"
    path.write_text(
        "arg(a).\narg(b).\narg(c).\natt(a,b).\natt(b,c).\natt(c,a).\n"
    )
    assert main(["solve", str(path), "--sem", "stb"]) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_solve_adm_has_empty_extension(tmp_path, capsys):
    path = tmp_path / "one.apx"
    path.write_text("arg(a).\natt(a,a).\n")
    assert main(["solve", str(path), "--sem", "adm"]) == EXIT_OK
    assert capsys.readouterr().out == "[]\n"


def test_solve_tgf(tmp_path, capsys):
    path = tmp_path / "f.tgf"
    path.write_text("x\ny\n#\nx y\n")
    assert main(["solve", str(path), "--format", "tgf", "--sem", "prf"]) == EXIT_OK
    assert capsys.readouterr().out == "[x]\n"


def test_solve_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("arg(a).\n"))
    assert main(["solve", "-", "--sem", "stb"]) == EXIT_OK
    assert capsys.readouterr().out == "[a]\n"


def test_solve_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.apx"
    path.write_text("arg(a).\nnonsense\n")
    assert main(["solve", str(path), "--sem", "prf"]) == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_solve_lenient_warns(tmp_path, capsys):
    path = tmp_path / "undeclared.apx"
    path.write_text("att(a,b).\n")
    assert main(["solve", str(path), "--sem", "prf"]) == EXIT_PARSE
    assert main(["solve", str(path), "--lenient", "--sem", "prf"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.endswith("[a]\n")
    assert "warning:" in captured.err


@pytest.mark.parametrize("fmt, text", [
    ("apx", "arg(a).\narg(b).\natt(a,b).\n"),
    ("tgf", "1\n2\n#\n1 2\n"),
], ids=["apx", "tgf"])
def test_a_byte_order_mark_is_not_input(fmt, text, tmp_path, capsys, monkeypatch):
    import io

    plain, marked = tmp_path / f"plain.{fmt}", tmp_path / f"marked.{fmt}"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    outputs = []
    for path in (plain, marked):
        assert main(["solve", str(path), "--format", fmt, "--sem", "prf"]) == EXIT_OK
        outputs.append(capsys.readouterr())
    # the same rule holds for standard input
    for stdin in (text, "\ufeff" + text):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert main(["solve", "-", "--format", fmt, "--sem", "prf"]) == EXIT_OK
        outputs.append(capsys.readouterr())
    assert outputs[1:] == outputs[:1] * 3
    assert outputs[0].out == ("[a]\n" if fmt == "apx" else "[1]\n")


def test_solve_budget_exceeded(apx_file, capsys):
    assert main(["solve", apx_file, "--sem", "prf", "--budget", "2"]) == EXIT_BUDGET
    assert "error:" in capsys.readouterr().err


def test_solve_unknown_semantics(apx_file, capsys):
    assert main(["solve", apx_file, "--sem", "bogus"]) == EXIT_USAGE


def test_query_credulous(apx_file, capsys):
    assert main(["query", apx_file, "--sem", "prf", "--cred", "c"]) == EXIT_OK
    assert capsys.readouterr().out == "YES\n"
    assert main(["query", apx_file, "--sem", "prf", "--cred", "b"]) == EXIT_OK
    assert capsys.readouterr().out == "NO\n"


def test_query_skeptical(apx_file, capsys):
    assert main(["query", apx_file, "--sem", "prf", "--skep", "a"]) == EXIT_OK
    assert capsys.readouterr().out == "YES\n"
    assert main(["query", apx_file, "--sem", "prf", "--skep", "c"]) == EXIT_OK
    assert capsys.readouterr().out == "NO\n"


def test_query_unknown_name(apx_file, capsys):
    assert main(["query", apx_file, "--sem", "prf", "--cred", "zz"]) == EXIT_USAGE


def test_emit_encoding(capsys):
    assert main(["emit", "--encoding", "pref2"]) == EXIT_OK
    assert capsys.readouterr().out == emit_encoding(EncodingName.PREF2)


def test_emit_facts(apx_file, capsys):
    assert main(["emit", apx_file, "--facts"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("arg(a).\n")
    assert out.count("att(") == 8


def test_emit_encoding_and_facts(apx_file, capsys):
    assert main(["emit", apx_file, "--encoding", "cf", "--facts"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith(emit_encoding(EncodingName.CF))
    assert out.endswith("att(e,f).\n")


def test_emit_requires_something(capsys):
    assert main(["emit"]) == EXIT_USAGE
    assert main(["emit", "--facts"]) == EXIT_USAGE
    assert main(["emit", "--encoding", "nope"]) == EXIT_USAGE


def test_check_example1_pass(apx_file, capsys, monkeypatch):
    monkeypatch.delenv(SOLVER_CMD_ENV, raising=False)
    assert main(["check", apx_file, "--all"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == "PASS (6 checks, 0 mismatches)\n"
    assert "SKIPPED solver" in captured.err


def test_check_generated(capsys, monkeypatch):
    monkeypatch.delenv(SOLVER_CMD_ENV, raising=False)
    code = main(
        ["check", "--gen", "er:n=6,p=0.3,seed=4", "--count", "5", "--sem", "prf"]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == "PASS (5 checks, 0 mismatches)\n"


def test_check_cap_error(capsys, monkeypatch):
    monkeypatch.delenv(SOLVER_CMD_ENV, raising=False)
    code = main(["check", "--gen", "er:n=25,p=0.1,seed=1", "--sem", "cf"])
    assert code == EXIT_USAGE


def test_check_needs_exactly_one_source(apx_file):
    assert main(["check"]) == EXIT_USAGE
    assert main(["check", apx_file, "--gen", "er:n=3,p=0.1"]) == EXIT_USAGE


def test_check_with_stub_solver_mismatch(apx_file, tmp_path, capsys, monkeypatch):
    script = tmp_path / "solver.sh"
    script.write_text('#!/bin/sh\necho "Answer: 1"\necho "in(b)"\n')
    script.chmod(0o755)
    monkeypatch.setenv(SOLVER_CMD_ENV, f"{script} {{file}}")
    code = main(["check", apx_file, "--sem", "prf"])
    assert code == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert "MISMATCH solver" in captured.err
    assert captured.out == "FAIL (1 checks, 1 mismatches)\n"


def test_check_reports_an_oracle_mismatch(capsys, monkeypatch):
    # an engine that finds no extension at all disagrees with the oracle
    monkeypatch.delenv(SOLVER_CMD_ENV, raising=False)
    monkeypatch.setattr(cli.oracle, "enumerate_extensions", lambda *a, **k: ExtensionSet(()))
    code = main(["check", "--gen", "chain:n=3", "--sem", "prf", "--sem", "stb"])
    assert code == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert "MISMATCH oracle chain-n3-seed0 prf\n" in captured.err
    assert "MISMATCH oracle chain-n3-seed0 stb\n" in captured.err
    assert captured.out == "FAIL (2 checks, 2 mismatches)\n"


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(
        [
            "bench",
            "--gen",
            "chain:n=4",
            "--count",
            "3",
            "--sem",
            "prf",
            "--timeout",
            "60000",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    text = out.read_text()
    assert '"' not in text  # ids are comma-free, so no field needs quoting
    rows = list(csv.DictReader(text.splitlines()))
    assert len(rows) == 3
    assert len({r["instance_id"] for r in rows}) == 3
    assert all(r["status"] == "SOLVED" for r in rows)
    assert "prf: solved=3/3" in capsys.readouterr().out


def test_bench_unwritable_out_fails_before_any_task(tmp_path, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("a task ran before the CSV path was checked")

    monkeypatch.setattr(afsolve.bench, "_run_task", must_not_run)
    out = tmp_path / "no" / "x.csv"
    argv = ["bench", "--gen", "chain:n=3", "--sem", "prf", "--out", str(out)]
    assert main(argv) == EXIT_IO
    assert not out.parent.exists()


def test_usage_error_on_bad_gen(tmp_path):
    assert (
        main(
            [
                "bench",
                "--gen",
                "nope:n=3",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        == EXIT_USAGE
    )


def _stub_solver(body, message):
    """A solver script that prints body; check skips it with message."""

    def setup(monkeypatch, tmp_path):
        script = tmp_path / "solver.sh"
        script.write_text("#!/bin/sh\n" + body)
        script.chmod(0o755)
        monkeypatch.setenv(SOLVER_CMD_ENV, f"{script} {{file}}")
        return f"SKIPPED solver {tmp_path}/ok.apx: {message}"

    return setup


def _solver_command(value):
    def setup(monkeypatch, tmp_path):
        monkeypatch.setenv(SOLVER_CMD_ENV, value)
        return "SKIPPED solver"

    return setup


def _failing_search(monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli.semantics, "enumerate_extensions", fail)
    return "RuntimeError: injected"


# One main call per row of the exit-code table, plus the cases that used
# to escape it.  "{d}" is the test's directory (see exit_files).
EXIT_CASES = {
    "non-utf8-input": (["solve", "{d}/latin1.apx", "--sem", "prf"], EXIT_PARSE, None),
    "budget": (
        ["solve", "{d}/ok.apx", "--sem", "prf", "--budget", "2"],
        EXIT_BUDGET,
        None,
    ),
    "missing-input": (["solve", "{d}/missing.apx", "--sem", "prf"], EXIT_IO, None),
    "unwritable-out": (
        ["bench", "--gen", "chain:n=2", "--sem", "cf", "--out", "{d}/no/x.csv"],
        EXIT_IO,
        None,
    ),
    "gen-missing-param": (["check", "--gen", "er:n=5"], EXIT_USAGE, None),
    "gen-bad-value": (
        ["bench", "--gen", "chain:n=-1", "--out", "{d}/x.csv"],
        EXIT_USAGE,
        None,
    ),
    "asp-constant": (
        ["emit", "{d}/quote.tgf", "--format", "tgf", "--facts"],
        EXIT_USAGE,
        None,
    ),
    "unknown-sem": (["solve", "{d}/ok.apx", "--sem", "bogus"], EXIT_USAGE, None),
    "missing-sem": (["solve", "{d}/ok.apx"], EXIT_USAGE, None),
    "unknown-encoding": (["emit", "--encoding", "nope"], EXIT_USAGE, None),
    "emit-facts-no-input": (["emit", "--encoding", "cf", "--facts"], EXIT_USAGE, None),
    "emit-input-without-facts": (
        ["emit", "{d}/missing.apx", "--encoding", "cf"],
        EXIT_USAGE,
        None,
    ),
    "emit-facts-unparsable": (
        ["emit", "{d}/bad.apx", "--encoding", "cf", "--facts"],
        EXIT_PARSE,
        None,
    ),
    "emit-facts-asp-constant": (
        ["emit", "{d}/quote.tgf", "--format", "tgf", "--encoding", "cf", "--facts"],
        EXIT_USAGE,
        None,
    ),
    "bad-int-flag": (
        ["solve", "{d}/ok.apx", "--sem", "prf", "--budget", "x"],
        EXIT_USAGE,
        None,
    ),
    "count-zero": (["check", "--gen", "chain:n=3", "--count", "0"], EXIT_USAGE, None),
    "count-negative": (
        ["bench", "--gen", "chain:n=3", "--count", "-2", "--out", "{d}/x.csv"],
        EXIT_USAGE,
        None,
    ),
    "budget-negative": (
        ["solve", "{d}/ok.apx", "--sem", "prf", "--budget", "-1"],
        EXIT_USAGE,
        None,
    ),
    "query-budget-negative": (
        ["query", "{d}/ok.apx", "--sem", "prf", "--cred", "a", "--budget", "-1"],
        EXIT_USAGE,
        None,
    ),
    "check-budget-negative": (
        ["check", "--gen", "chain:n=3", "--budget", "-1"],
        EXIT_USAGE,
        None,
    ),
    "bench-budget-negative": (
        ["bench", "--gen", "chain:n=3", "--budget", "-1", "--out", "{d}/x.csv"],
        EXIT_USAGE,
        None,
    ),
    "bench-timeout-nan": (
        ["bench", "--gen", "chain:n=3", "--timeout", "nan", "--out", "{d}/x.csv"],
        EXIT_USAGE,
        None,
    ),
    "bench-timeout-inf": (
        ["bench", "--gen", "chain:n=3", "--timeout", "inf", "--out", "{d}/x.csv"],
        EXIT_USAGE,
        None,
    ),
    "bench-timeout-negative": (
        ["bench", "--gen", "chain:n=3", "--timeout", "-5", "--out", "{d}/x.csv"],
        EXIT_USAGE,
        None,
    ),
    "bench-workers-negative": (
        ["bench", "--gen", "chain:n=3", "--workers", "-3", "--out", "{d}/x.csv"],
        EXIT_USAGE,
        None,
    ),
    "bench-workers-zero": (
        ["bench", "--gen", "chain:n=3", "--workers", "0", "--out", "{d}/x.csv"],
        EXIT_USAGE,
        None,
    ),
    "check-sem-and-all": (
        ["check", "--gen", "chain:n=3", "--sem", "prf", "--all"],
        EXIT_USAGE,
        None,
    ),
    "bench-sem-and-all": (
        ["bench", "--gen", "chain:n=3", "--sem", "prf", "--all", "--out", "{d}/x.csv"],
        EXIT_USAGE,
        None,
    ),
    "check-cap-negative": (
        ["check", "{d}/missing.apx", "--cap", "-1"],
        EXIT_USAGE,
        None,
    ),
    "budget-zero": (
        ["solve", "{d}/ok.apx", "--sem", "prf", "--budget", "0"],
        EXIT_BUDGET,
        None,
    ),
    "unparsable-atom": (
        ["check", "{d}/ok.apx", "--sem", "prf"],
        EXIT_OK,
        _stub_solver('echo "Answer: 1"\necho "in(a) Bad!"\n', "cannot parse atom"),
    ),
    "solver-truncated-answer": (
        ["check", "{d}/ok.apx", "--sem", "prf"],
        EXIT_OK,
        _stub_solver(
            'echo "Answer: 1"\n', "truncated solver output after Answer line"
        ),
    ),
    "solver-exit-1": (
        ["check", "{d}/ok.apx", "--sem", "prf"],
        EXIT_OK,
        _stub_solver("echo broken >&2\nexit 1\n", "solver exited with 1: broken"),
    ),
    "solver-cmd-blank": (
        ["check", "{d}/ok.apx", "--sem", "prf"],
        EXIT_OK,
        _solver_command("   "),
    ),
    "solver-cmd-unclosed-quote": (
        ["check", "{d}/ok.apx", "--sem", "prf"],
        EXIT_OK,
        _solver_command('clingo "{file}'),
    ),
    "internal-error": (
        ["solve", "{d}/ok.apx", "--sem", "prf"],
        EXIT_INTERNAL,
        _failing_search,
    ),
}


@pytest.fixture
def exit_files(tmp_path):
    (tmp_path / "ok.apx").write_text(EXAMPLE1_APX)
    (tmp_path / "latin1.apx").write_bytes('arg("café").\n'.encode("latin-1"))
    (tmp_path / "quote.tgf").write_text('a"b\n#\n')
    (tmp_path / "bad.apx").write_text("arg(a).\natt(a,\n")
    return tmp_path


@pytest.mark.parametrize(
    "argv, code, setup", list(EXIT_CASES.values()), ids=list(EXIT_CASES)
)
def test_exit_code_table(argv, code, setup, exit_files, capsys, monkeypatch):
    monkeypatch.delenv(SOLVER_CMD_ENV, raising=False)
    expected = setup(monkeypatch, exit_files) if setup is not None else "error:"
    assert main([a.format(d=exit_files) for a in argv]) == code
    out, err = capsys.readouterr()
    assert expected in err
    assert ("Traceback" in err) == (code == EXIT_INTERNAL)
    if code not in (EXIT_OK, EXIT_MISMATCH):
        assert out == ""


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--sem" in capsys.readouterr().out


def test_bad_flag_in_a_subprocess(apx_file):
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "afsolve.cli", "solve", apx_file, "--sem", "bogus"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert "argument --sem: invalid choice" in proc.stderr


_LOADED_BY_SOLVE_AND_QUERY = """
import io, json, sys
from contextlib import redirect_stdout
before = set(sys.modules)
from afsolve import cli
out = io.StringIO()
with redirect_stdout(out):
    codes = [
        cli.main([cmd, path, "--format", fmt, "--sem", "prf", *flags])
        for path, fmt in zip(sys.argv[1:], ("apx", "tgf"))
        for cmd, *flags in (["solve"], ["query", "--cred", "a"], ["query", "--skep", "b"])
    ]
print(json.dumps([codes, out.getvalue(), sorted(set(sys.modules) - before)]))
"""


def test_solve_and_query_load_no_process_machinery(tmp_path):
    """solve and query, in a fresh interpreter, import neither the bench
    harness nor anything that spawns processes or opens sockets; modules
    the interpreter had loaded before afsolve do not count."""
    (tmp_path / "f.apx").write_text(EXAMPLE1_APX)
    (tmp_path / "f.tgf").write_text("a\nb\n#\na b\n")
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    files = [str(tmp_path / "f.apx"), str(tmp_path / "f.tgf")]
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_BY_SOLVE_AND_QUERY, *files],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    codes, out, added = json.loads(proc.stdout)
    assert codes == [EXIT_OK] * 6
    assert out == "[a,c,f]\n[a,d,f]\nYES\nNO\n[a]\nYES\nNO\n"
    assert "afsolve.cli" in added
    heavy = {"afsolve.bench", "multiprocessing", "concurrent.futures"}
    heavy |= {"subprocess", "shlex", "csv", "socket"}
    assert heavy.isdisjoint(added)


@pytest.mark.parametrize("error", [afsolve.bench.GeneratorError, CapExceeded, ConstantError])
def test_usage_errors_are_precondition_errors(error):
    assert issubclass(error, PreconditionError)


def test_parser_is_built_once(apx_file, capsys, monkeypatch):
    calls = []
    build = cli.build_parser

    def counting_build():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    assert main(["solve", apx_file, "--sem", "prf"]) == EXIT_OK
    assert main(["query", apx_file, "--sem", "prf", "--cred", "c"]) == EXIT_OK
    assert main(["solve", apx_file, "--sem", "bogus"]) == EXIT_USAGE
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, printed",
    [
        (["check", "--gen", "chain:n=3", "--sem", "prf", "--sem", "prf"], "PASS (1 checks,"),
        (
            ["check", "--gen", "chain:n=3", "--sem", "stb", "--sem", "prf", "--sem", "stb"],
            "PASS (2 checks,",
        ),
        (
            ["bench", "--gen", "chain:n=3", "--sem", "prf", "--sem", "prf", "--out", "{d}/x.csv"],
            "prf: solved=1/1 ",
        ),
    ],
    ids=["check-twice", "check-interleaved", "bench-twice"],
)
def test_repeated_sem_counts_once(argv, printed, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(SOLVER_CMD_ENV, raising=False)
    assert main([a.format(d=tmp_path) for a in argv]) == EXIT_OK
    out = capsys.readouterr().out
    assert printed in out
    assert len(out.splitlines()) == 1
    if argv[0] == "bench":
        rows = list(csv.DictReader((tmp_path / "x.csv").read_text().splitlines()))
        assert len(rows) == 1


# argv shapes for every subcommand: flags before and after the input, "=",
# abbreviations, repeated and mutually exclusive flags, and usage errors.
# Each is read by cli._parse (the plain route, or one full parse) and by
# build_parser().parse_args, and both must give the same Namespace or
# error, and print the same.
ARGV_SHAPES = [
    ["solve", "x.apx", "--sem", "prf"],
    ["solve", "-", "--sem", "stb", "--format", "tgf", "--lenient", "--single", "--budget", "5"],
    ["solve", "--sem=prf", "x.apx", "--strict"],
    ["solve", "x.apx", "--se", "sem", "--bud", "7"],
    ["solve", "--sem", "prf", "--", "-odd.apx"],
    ["query", "x.apx", "--sem", "prf", "--cred", "a"],
    ["query", "x.apx", "--sem", "cf", "--skep=b", "--budget=0", "--format", "tgf"],
    ["emit", "--encoding", "CF"],
    ["emit", "x.apx", "--facts", "--format", "tgf", "--lenient"],
    ["emit"],
    ["check", "--gen", "chain:n=3", "--sem", "prf", "--sem", "stb", "--count", "2", "--cap", "4"],
    ["check", "x.apx", "--all", "--budget", "9"],
    ["bench", "--gen", "a", "--gen", "b", "--out", "o.csv", "--timeout", "1.5", "--workers", "2"],
    ["bench", "--gen", "a", "--out", "o.csv", "--all", "--count", "3"],
    ["solve", "x.apx", "--sem", "bogus"],
    ["solve", "x.apx"],
    ["solve", "x.apx", "--sem", "prf", "extra", "more"],
    ["solve", "x.apx", "--sem", "prf", "--nope"],
    ["query", "x.apx", "--sem", "prf", "--cred", "a", "--skep", "b"],
    ["check", "--count", "0"],
    ["bench", "--gen", "a"],
    ["solve", "x.apx", "--sem", "prf", "--strict", "--lenient"],
    ["query", "x.apx", "--sem", "prf", "--cred", "a", "--single"],
    ["solve", "x.apx", "--sem", "prf", "--sem", "stb"],
    ["query", "x.apx", "--sem", "prf", "--cred", "-a"],
    ["solve", "x.apx", "--sem", "prf", "--budget", "²"],
    ["query", "--sem", "prf", "--cred", "a", "x.apx"],
]


def _parse_outcome(parse, argv, capsys):
    """(vars of the Namespace or the error's message, stdout, stderr)."""
    try:
        result = vars(parse(argv))
    except cli._CliError as exc:
        result = str(exc)
    out, err = capsys.readouterr()
    return result, out, err


@pytest.mark.parametrize("argv", ARGV_SHAPES, ids=" ".join)
def test_direct_dispatch_matches_the_full_parser(argv, capsys):
    parser = cli.build_parser()
    full = _parse_outcome(parser.parse_args, argv, capsys)
    assert _parse_outcome(cli._parse, argv, capsys) == full


@pytest.mark.parametrize(
    "argv", [[], ["-h"], ["--help"], ["bogus"], ["solve", "--help"], ["query", "-h"]], ids=str
)
def test_top_level_shapes_keep_their_exit_and_output(argv, capsys):
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        expected = ("exit", exc.code)
    except cli._CliError as exc:
        expected = ("error", str(exc))
    out, err = capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        assert expected == ("exit", exc.code)
        assert capsys.readouterr() == (out, err)
    else:
        assert code == EXIT_USAGE and expected[0] == "error"
        assert capsys.readouterr() == (out, f"{err}error: {expected[1]}\n")


# Tokens for solve and query argvs: every option in full, abbreviated and
# with "=", values of each kind (valid, invalid, empty, starting with "-"),
# "--", help, and a budget past the interpreter's limit on int digits.
_ARGV_TOKENS = [
    "x.apx", "-", "-5", "", "a",
    "--format", "--format=apx", "--form", "apx", "tgf", "xml",
    "--sem", "--se", "--sem=prf", "prf", "stb", "bogus",
    "--budget", "5", "0005", "+5", " 5", "²", "-1", "0", "1" * 4400,
    "--cred", "--skep", "--cr", "-a", "b",
    "--strict", "--lenient", "--single", "--", "-h", "--help", "--nope",
]
# valid option-value pairs, so that argparse accepts many argvs and the
# plain route (--format, --sem, --cred, --skep) is drawn often
_PLAIN_PAIRS = [
    ["--format", "apx"], ["--format", "tgf"], ["--sem", "prf"], ["--sem", "stg"],
    ["--sem", "stb"], ["--cred", "a"], ["--skep", "b"], ["--cred", "a"], ["--skep", "b"],
    ["--budget", "7"], ["--strict"], ["--lenient"], ["--single"],
]
_REFERENCE = cli.build_parser()


def _route_outcome(parse, argv):
    """(vars or _CliError text or SystemExit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = ("namespace", vars(parse(argv)))
        except cli._CliError as exc:
            result = ("error", str(exc))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@st.composite
def _solve_and_query_argvs(draw):
    """Mostly plain argvs: an input and option-value pairs, led by --sem
    most of the time; then, some of the time, tokens of the alphabet
    inserted anywhere and the input moved."""
    lead = draw(st.sampled_from([[], ["--sem", "prf"], ["--sem", "sem"], ["--sem", "adm"]]))
    groups = [lead] + draw(st.lists(st.sampled_from(_PLAIN_PAIRS), max_size=4))
    tokens = [token for group in groups for token in group]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(min_value=0, max_value=len(tokens)))
        tokens.insert(at, draw(st.sampled_from(_ARGV_TOKENS)))
    at = draw(st.sampled_from([0, 0, 0, len(tokens), len(tokens) // 2]))
    path = draw(st.sampled_from(["x.apx", "x.apx", "-", "-5", "", "--sem"]))
    return [draw(st.sampled_from(["solve", "query"])), *tokens[:at], path, *tokens[at:]]


@given(_solve_and_query_argvs())
@example(["solve", "x.apx", "--sem", "prf", "--budget", "1" * 4400])
@example(["query", "-", "--sem", "stb", "--skep", "b", "--lenient"])
@settings(max_examples=400, deadline=None)
def test_both_argv_routes_agree(argv):
    """`_parse`, which reads plain argvs itself, and the full parser give
    the same namespace, or the same error, exit code and output."""
    assert _route_outcome(cli._parse, argv) == _route_outcome(_REFERENCE.parse_args, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "x.apx", "--format", "tgf", "--sem", "stb"],
        ["query", "x.apx", "--format", "apx", "--sem", "prf", "--cred", "a"],
        ["query", "-", "--sem", "sem", "--skep", "a"],
        ["solve", "x.apx", "--sem", "cf"],
    ],
    ids=" ".join,
)
def test_plain_argvs_build_no_parser(argv, monkeypatch):
    def no_build():
        raise AssertionError("a plain argv built a parser")

    monkeypatch.setattr(cli, "build_parser", no_build)
    assert cli._plain_argv(argv) is not None
    assert vars(cli._parse(argv)) == vars(_REFERENCE.parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "x.apx", "--sem", "prf", "--budget", "5"],
        ["solve", "x.apx", "--sem", "prf", "--single"],
        ["solve", "x.apx", "--sem", "prf", "--strict"],
        ["query", "x.apx", "--sem", "prf", "--cred", "a", "--lenient"],
    ],
    ids=" ".join,
)
def test_other_options_take_argparse(argv):
    """The plain route reads --format, --sem, --cred and --skep only."""
    assert cli._plain_argv(argv) is None
    assert vars(cli._parse(argv)) == vars(_REFERENCE.parse_args(argv))


_LOADED_BY_A_PLAIN_RUN = """
import io, json, sys
from contextlib import redirect_stdout
before = set(sys.modules)
from afsolve import cli
with redirect_stdout(io.StringIO()):
    codes = [
        cli.main([cmd, path, "--format", fmt, "--sem", sem, *flags])
        for path, fmt in zip(sys.argv[1:], ("apx", "tgf"))
        for sem in ("prf", "stg")
        for cmd, *flags in (["solve"], ["query", "--cred", "a"], ["query", "--skep", "b"])
    ]
print(json.dumps([codes, sorted(set(sys.modules) - before)]))
"""


def test_solve_and_query_load_no_dataclasses(tmp_path):
    """The records are plain classes: solve and query, in a fresh
    interpreter, never import dataclasses or the introspection modules it
    brings (inspect, ast); modules loaded before afsolve do not count."""
    (tmp_path / "f.apx").write_text(EXAMPLE1_APX)
    (tmp_path / "f.tgf").write_text("a\nb\n#\na b\n")
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    files = [str(tmp_path / "f.apx"), str(tmp_path / "f.tgf")]
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_BY_A_PLAIN_RUN, *files],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    codes, added = json.loads(proc.stdout)
    assert codes == [EXIT_OK] * 12
    assert "afsolve.cli" in added
    assert {"dataclasses", "inspect", "ast"}.isdisjoint(added)
