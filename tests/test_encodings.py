import stat
import tempfile
from pathlib import Path

import pytest

from afsolve import (
    EncodingName,
    SemanticsKind,
    build_framework,
    differential_check,
    emit_apx_facts,
    emit_encoding,
    parse_apx,
    project_answer_set,
)
from afsolve.encodings import (
    AtomParseError,
    ConstantError,
    R_ADMCOV,
    SolverError,
    parse_solver_output,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"

GOLDEN_FILES = {
    EncodingName.CF: "cf.lp",
    EncodingName.DEF: "def.lp",
    EncodingName.RANGE: "range.lp",
    EncodingName.SATPREF2: "satpref2.lp",
    EncodingName.SATSEMI2: "satsemi2.lp",
    EncodingName.STAGE2: "stage2.lp",
}


@pytest.mark.parametrize("name", list(GOLDEN_FILES))
def test_encoding_matches_golden_bytes(name):
    golden = (GOLDEN_DIR / GOLDEN_FILES[name]).read_bytes()
    assert emit_encoding(name).encode() == golden


def test_cf_rule_count_and_constraint():
    lines = emit_encoding(EncodingName.CF).splitlines()
    assert len(lines) == 3
    assert lines[-1] == ":- att(X,Y), in(X), in(Y)."


def test_satsemi2_rule_count_and_constraint():
    lines = emit_encoding(EncodingName.SATSEMI2).splitlines()
    assert len(lines) == 8
    assert lines[-1] == ":- not spoil, unstable."


def test_composites_are_concatenations():
    assert emit_encoding(EncodingName.ADM) == emit_encoding(
        EncodingName.CF
    ) + emit_encoding(EncodingName.DEF)
    assert emit_encoding(EncodingName.PREF2) == emit_encoding(
        EncodingName.ADM
    ) + emit_encoding(EncodingName.SATPREF2)
    assert emit_encoding(EncodingName.SEMI2) == (
        emit_encoding(EncodingName.ADM)
        + emit_encoding(EncodingName.RANGE)
        + emit_encoding(EncodingName.SATSEMI2)
    )


def test_stage2_omits_exactly_the_admissible_cover_rule():
    stage2 = emit_encoding(EncodingName.STAGE2).splitlines()
    assert len(stage2) == 3 + 4 + 7
    assert R_ADMCOV not in stage2
    semi_rules = emit_encoding(EncodingName.SATSEMI2).splitlines()
    assert [r for r in semi_rules if r != R_ADMCOV] == stage2[7:]


def test_pref2_line_count():
    assert len(emit_encoding(EncodingName.PREF2).splitlines()) == 13


# --- fact emission -----------------------------------------------------------

def test_facts_simple():
    fw = build_framework(["a", "b"], [("a", "b")])
    assert emit_apx_facts(fw) == "arg(a).\narg(b).\natt(a,b).\n"


def test_facts_example1(example1):
    lines = emit_apx_facts(example1).splitlines()
    assert len(lines) == 14
    assert lines[:6] == [f"arg({x})." for x in "abcdef"]
    att_lines = lines[6:]
    assert att_lines == sorted(att_lines)


def test_facts_empty():
    assert emit_apx_facts(build_framework([], [])) == ""


def test_facts_quote_nonidentifier_names():
    fw = build_framework(["A1", "ok"], [("A1", "ok")])
    assert emit_apx_facts(fw) == 'arg("A1").\narg(ok).\natt("A1",ok).\n'


def test_facts_quote_keyword_name():
    fw = build_framework(["not", "a"], [("not", "a")])
    facts = emit_apx_facts(fw)
    assert facts == 'arg("not").\narg(a).\natt("not",a).\n'
    parsed, _ = parse_apx(facts)
    assert parsed.args == fw.args and parsed.attacks == fw.attacks
    assert project_answer_set(['in("not")']).in_atoms == {"not"}


def test_facts_reject_unrepresentable_name():
    fw = build_framework(['has"quote'], [])
    with pytest.raises(ConstantError):
        emit_apx_facts(fw)


# --- answer-set projection ------------------------------------------------------

def test_projection_keeps_only_in_atoms():
    proj = project_answer_set(["in(a)", "range(a)", "spoil"])
    assert proj.in_atoms == {"a"}
    assert proj.raw_atoms == ("in(a)", "range(a)", "spoil")


def test_projection_empty():
    assert project_answer_set([]).in_atoms == frozenset()


def test_projection_quoted_and_nonunary():
    proj = project_answer_set(['in("A1")', "att(a,b)", "range(c)"])
    assert proj.in_atoms == {"A1"}


def test_projection_idempotent():
    proj = project_answer_set(["in(a)", "out(b)", "nontrivial"])
    again = project_answer_set(proj.raw_atoms)
    assert again == proj


def test_projection_rejects_garbage():
    with pytest.raises(AtomParseError):
        project_answer_set(["Not An Atom!"])


def test_parse_solver_output():
    text = (
        "clingo version x\nSolving...\n"
        "Answer: 1\nin(a) in(c) in(f)\n"
        "Answer: 2\nin(a) in(d) in(f)\n"
        "SATISFIABLE\n"
    )
    answers = parse_solver_output(text)
    assert len(answers) == 2
    assert answers[0] == ["in(a)", "in(c)", "in(f)"]


# --- differential check against a stub solver ------------------------------------

def _stub_solver(tmp_path, body: str) -> str:
    script = tmp_path / "fake_solver.sh"
    script.write_text("#!/bin/sh\n" + body)
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return f"{script} {{file}}"


def test_differential_check_agreement(example1, tmp_path):
    # two answer sets per extension: projection must dedup them
    cmd = _stub_solver(
        tmp_path,
        'echo "Answer: 1"\n'
        'echo "in(a) in(c) in(f) spoil"\n'
        'echo "Answer: 2"\n'
        'echo "in(a) in(c) in(f) nontrivial"\n'
        'echo "Answer: 3"\n'
        'echo "in(a) in(d) in(f)"\n',
    )
    report = differential_check(example1, SemanticsKind.PRF, cmd)
    assert report.ok
    assert report.mismatches == []


def test_differential_check_mismatch(example1, tmp_path):
    cmd = _stub_solver(tmp_path, 'echo "Answer: 1"\necho "in(b)"\n')
    report = differential_check(example1, SemanticsKind.SEM, cmd)
    assert not report.ok
    assert any("solver only" in m for m in report.mismatches)
    assert any("native only" in m for m in report.mismatches)


def test_differential_check_launch_failure(example1):
    with pytest.raises(SolverError):
        differential_check(
            example1, SemanticsKind.PRF, "/nonexistent/solver {file}"
        )


@pytest.mark.parametrize("cmd", ["   ", 'clingo "{file}'], ids=["blank", "unclosed-quote"])
def test_malformed_solver_command_leaves_no_temp_file(example1, cmd, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(SolverError):
        differential_check(example1, SemanticsKind.PRF, cmd)
    assert list(tmp_path.iterdir()) == []


def test_differential_check_rejects_other_kinds(example1):
    with pytest.raises(ValueError):
        differential_check(example1, SemanticsKind.CF, "true")
