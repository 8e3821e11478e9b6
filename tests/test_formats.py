import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afsolve import (
    OutputStyle,
    ParseError,
    SemanticsKind,
    build_framework,
    emit_apx_facts,
    enumerate_extensions,
    format_extensions,
    parse_apx,
    parse_tgf,
)

from conftest import EXAMPLE1_APX, frameworks, random_framework


def test_parse_apx_simple():
    fw, diags = parse_apx("arg(a).\narg(b).\natt(a,b).\n")
    assert fw.args == ("a", "b")
    assert len(fw.attacks) == 1
    assert diags.warnings == []


def test_parse_apx_example1(example1):
    fw, _ = parse_apx(EXAMPLE1_APX)
    assert fw.args == example1.args
    assert fw.attacks == example1.attacks


def test_parse_apx_comments_and_whitespace():
    fw, _ = parse_apx("% header\n\n  arg( a ).  % trailing\narg(b).\natt( a , b ).\n")
    assert fw.args == ("a", "b")


def test_parse_apx_quoted_names():
    fw, _ = parse_apx('arg("A b").\narg(c).\natt("A b",c).\n')
    assert fw.args == ("A b", "c")


def test_parse_apx_undeclared_strict():
    with pytest.raises(ParseError) as err:
        parse_apx("att(a,b).\n")
    assert err.value.line_no == 1


def test_parse_apx_undeclared_lenient():
    fw, diags = parse_apx("att(a,b).\n", strict=False)
    assert fw.args == ("a", "b")
    assert diags.lenient_declarations == ["a", "b"]
    assert len(diags.warnings) == 2


def test_parse_apx_syntax_error_has_line_number():
    with pytest.raises(ParseError) as err:
        parse_apx("arg(a).\nfoo(bar).\n")
    assert err.value.line_no == 2


def test_parse_apx_duplicate_arg():
    with pytest.raises(ParseError):
        parse_apx("arg(a).\narg(a).\n")


def test_parse_tgf_simple():
    fw, _ = parse_tgf("1\n2\n#\n1 2\n")
    assert fw.args == ("1", "2")
    assert len(fw.attacks) == 1


def test_parse_tgf_empty():
    fw, _ = parse_tgf("#\n")
    assert fw.n == 0


def test_parse_tgf_errors():
    with pytest.raises(ParseError):
        parse_tgf("1\n2\n1 2\n")  # missing separator
    with pytest.raises(ParseError):
        parse_tgf("1\n#\n1 2\n")  # unknown node
    with pytest.raises(ParseError):
        parse_tgf("1\n#\n1 2 3\n")  # malformed edge
    with pytest.raises(ParseError, match="line 3: duplicate node id '1'") as exc:
        parse_tgf("1\n2\n1\n#\n")
    assert exc.value.line_no == 3
    with pytest.raises(ParseError, match="line 5: duplicate '#' separator") as exc:
        parse_tgf("1\n2\n#\n1 2\n #\n2 1\n")
    assert exc.value.line_no == 5


def test_tgf_matches_apx_up_to_naming(example1):
    idx = {name: str(i + 1) for i, name in enumerate(example1.args)}
    tgf = "".join(f"{idx[a]}\n" for a in example1.args) + "#\n" + "".join(
        f"{idx[example1.args[s]]} {idx[example1.args[t]]}\n"
        for s, t in sorted(example1.attacks)
    )
    fw, _ = parse_tgf(tgf)
    assert fw.n == example1.n
    assert fw.attacks == example1.attacks


def test_format_extensions_lines(example1):
    exts = enumerate_extensions(example1, SemanticsKind.PRF)
    out = format_extensions(example1, exts, OutputStyle.LINES)
    assert out == "[a,c,f]\n[a,d,f]\n"


def test_format_extensions_single(example1):
    fw = build_framework(["x"], [("x", "x")])
    exts = enumerate_extensions(fw, SemanticsKind.STB)
    assert format_extensions(fw, exts, OutputStyle.SINGLE) == "[]"
    prf = enumerate_extensions(example1, SemanticsKind.PRF)
    assert (
        format_extensions(example1, prf, OutputStyle.SINGLE)
        == "[[a,c,f],[a,d,f]]"
    )


def test_format_empty_extension_prints_brackets():
    fw = build_framework([], [])
    exts = enumerate_extensions(fw, SemanticsKind.ADM)
    assert format_extensions(fw, exts, OutputStyle.LINES) == "[]\n"


def test_round_trip_random():
    rng = random.Random(3)
    for _ in range(100):
        fw = random_framework(rng, max_args=9)
        back, diags = parse_apx(emit_apx_facts(fw))
        assert back.args == fw.args
        assert back.attacks == fw.attacks
        assert diags.warnings == []


def test_round_trip_percent_in_name():
    fw = build_framework(["a", "50%"], [("a", "50%")])
    text = emit_apx_facts(fw)
    assert 'arg("50%").' in text
    back, _ = parse_apx(text)
    assert back.args == fw.args
    assert back.attacks == fw.attacks
    # a comment after a quoted name with a % is still a comment
    back, _ = parse_apx(text + 'att("50%",a). % "50%" attacks a\n')
    assert back.attacks == fw.attacks | {(1, 0)}


@given(frameworks())
@settings(max_examples=100)
def test_round_trip_property(fw):
    back, _ = parse_apx(emit_apx_facts(fw))
    assert back.args == fw.args
    assert back.attacks == fw.attacks
    assert back.index == fw.index
    assert back.attackers_of == fw.attackers_of
    assert back.attacked_by == fw.attacked_by


@given(frameworks())
@settings(max_examples=100)
def test_tgf_round_trip_property(fw):
    ids = [str(i) for i in range(fw.n)]
    edges = sorted(f"{ids[s]} {ids[t]}" for s, t in fw.attacks)
    back, diags = parse_tgf("".join(i + "\n" for i in ids) + "#\n"
                           + "".join(e + "\n" for e in edges))
    assert back.args == tuple(ids)
    assert back.attacks == fw.attacks
    assert back.index == {i: k for k, i in enumerate(ids)}
    assert back.attackers_of == fw.attackers_of
    assert back.attacked_by == fw.attacked_by
    assert diags.warnings == []


def test_parse_apx_undeclared_target_strict():
    with pytest.raises(ParseError) as err:
        parse_apx("arg(a).\natt(a,b).\n")
    assert err.value.line_no == 2
    assert "'b'" in str(err.value)


def test_parse_apx_lenient_self_attack_declares_once():
    fw, diags = parse_apx("att(a,a).\n", strict=False)
    assert fw.args == ("a",)
    assert fw.attacks == {(0, 0)}
    assert diags.lenient_declarations == ["a"]
    assert diags.warnings == [(1, "auto-declared argument 'a'")]


def test_parse_tgf_unknown_destination():
    with pytest.raises(ParseError) as err:
        parse_tgf("1\n2\n#\n1 2\n2 3\n")
    assert err.value.line_no == 5
    assert "'3'" in str(err.value)


@given(st.text(max_size=200))
@settings(max_examples=200)
def test_parser_never_crashes(text):
    try:
        parse_apx(text)
    except ParseError:
        pass
    try:
        parse_tgf(text)
    except ParseError:
        pass
