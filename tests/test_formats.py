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
from afsolve import formats

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


def test_parse_apx_lenient_declared_after_use():
    fw, diags = parse_apx("att(a,b).\narg(a).\n", strict=False)
    assert fw.args == ("a", "b")
    assert fw.attacks == {(0, 1)}
    assert diags.lenient_declarations == ["a", "b"]
    assert diags.warnings == [
        (1, "auto-declared argument 'a'"),
        (1, "auto-declared argument 'b'"),
    ]
    with pytest.raises(ParseError, match="line 3: duplicate argument 'a'"):
        parse_apx("att(a,b).\narg(a).\narg(a).\n", strict=False)


def test_parse_tgf_unknown_destination():
    with pytest.raises(ParseError) as err:
        parse_tgf("1\n2\n#\n1 2\n2 3\n")
    assert err.value.line_no == 5
    assert "'3'" in str(err.value)


# A leading line sends a text through the line pass (tgf has no comments,
# so there it is a blank line); the plain route must read the text the same
# way, and leave every error, with its line number, to the line pass.
_LINE_PASS_PREFIX = {"apx": "% x\n", "tgf": "\n"}


def _plain_text(fw, fmt: str) -> str:
    if fmt == "apx":
        return emit_apx_facts(fw)
    edges = sorted((fw.args[s], fw.args[t]) for s, t in fw.attacks)
    return ("".join(a + "\n" for a in fw.args) + "#\n"
            + "".join(f"{s} {t}\n" for s, t in edges))


def _outcome(fmt: str, text: str, strict: bool, shift: int = 0):
    """What parsing ``text`` gives, with every line number less ``shift``."""
    try:
        if fmt == "apx":
            fw, diags = parse_apx(text, strict=strict)
        else:
            fw, diags = parse_tgf(text)
    except ParseError as exc:
        message = str(exc)
        assert message.startswith(f"line {exc.line_no}: ")
        return exc.line_no - shift, message.split(": ", 1)[1]
    return (fw.args, fw.index, fw.attackers_of, fw.attacked_by,
            [(line - shift, warning) for line, warning in diags.warnings],
            diags.lenient_declarations)


def _routes_agree(fmt: str, text: str, strict: bool = True):
    """The outcome of ``text``, equal to that of the line pass; also
    whether the plain route built it."""
    built = []
    real = formats._plain_framework

    def spy(names, ends):
        fw = real(names, ends)
        built.append(fw is not None)
        return fw

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_plain_framework", spy)
        result = _outcome(fmt, text, strict)
        through_lines = _outcome(fmt, _LINE_PASS_PREFIX[fmt] + text, strict, shift=1)
    assert result == through_lines
    assert built in ([], [False], [True])
    return result, built == [True]


def _edit(fmt, fw, edit, k, text):
    """``text`` with one edit.  Most edits take it out of the plain
    layout; a duplicate declaration, and in strict mode an undeclared
    endpoint, make it an error."""
    lines = text.splitlines(keepends=True)
    if edit == "no final newline":
        return text[:-1]
    if edit == "duplicate declaration" and fw.n:
        lines.insert(fw.n, lines[k % fw.n])
    elif edit == "undeclared endpoint":
        lines.append("att(zz,a0).\n" if fmt == "apx" else "zz a0\n")
    elif edit == "attack first" and lines:
        lines.insert(0, lines.pop())
    return "".join(lines)


@given(
    frameworks(),
    st.sampled_from(["apx", "tgf"]),
    st.booleans(),
    st.lists(
        st.sampled_from(["no final newline", "duplicate declaration",
                         "undeclared endpoint", "attack first"]),
        max_size=2,
        unique=True,
    ),
    st.integers(min_value=0, max_value=7),
)
@settings(max_examples=300)
def test_plain_route_agrees_with_the_line_pass(fw, fmt, strict, edits, k):
    text = _plain_text(fw, fmt)
    for edit in edits:
        text = _edit(fmt, fw, edit, k, text)
    result, plain = _routes_agree(fmt, text, strict)
    if not edits:
        assert plain
        assert result[:4] == (fw.args, fw.index, fw.attackers_of, fw.attacked_by)


@pytest.mark.parametrize("fmt", ["apx", "tgf"])
def test_plain_route_across_matches(fmt):
    """A file of more lines than one match takes, plain and with one line
    off the layout (a space before its newline) at or next to the edge
    of a match."""
    names = [f"a{i}" for i in range(300)]
    fw = build_framework(names, list(zip(names, names[1:])))
    lines = _plain_text(fw, fmt).splitlines(keepends=True)
    assert _routes_agree(fmt, "".join(lines))[1]
    n = formats._LINES
    for i in (0, n - 1, n, n + 1, 2 * n, 300, len(lines) - 1):
        off = lines[:i] + [lines[i].replace("\n", " \n")] + lines[i + 1:]
        result, plain = _routes_agree(fmt, "".join(off))
        assert not plain
        assert result[:4] == (fw.args, fw.index, fw.attackers_of, fw.attacked_by)


@pytest.mark.parametrize("fmt, change", [
    ("apx", lambda text: text[:-1] + " % end\n"),
    ("apx", lambda text: text[:-1]),
    ("tgf", lambda text: text + "\n"),
    ("tgf", lambda text: text[:-1]),
], ids=["apx comment", "apx no newline", "tgf blank line", "tgf no newline"])
def test_a_file_plain_but_for_its_end_is_not_scanned(fmt, change, monkeypatch):
    names = [f"a{i}" for i in range(300)]
    fw = build_framework(names, list(zip(names, names[1:])))
    text = change(_plain_text(fw, fmt))

    def scan(lines, text, pos):
        raise AssertionError("scanned")

    monkeypatch.setattr(formats, "_lines_end", scan)
    back, _ = parse_apx(text) if fmt == "apx" else parse_tgf(text)
    assert back == fw


@pytest.mark.parametrize("fmt, text", [
    ("tgf", "1\n2\n1 2\n"),  # the errors of test_parse_tgf_errors
    ("tgf", "1\n#\n1 2\n"),
    ("tgf", "1\n#\n1 2 3\n"),
    ("tgf", "1\n2\n1\n#\n"),
    ("tgf", "1\n2\n#\n1 2\n #\n2 1\n"),
    ("tgf", "1\n2\n#\n1\n2\n1 2\n"),  # one id on each of two edge lines
    ("tgf", "1 2\n#\n"),  # one node id, with a space
    ("tgf", "1\n2\n% 1 2\n1 2\n"),  # node ids with spaces, no '#'
    ("apx", "att(a,b).\narg(a).\narg(b).\n"),
])
def test_the_line_pass_reads_what_is_not_plain(fmt, text):
    _, plain = _routes_agree(fmt, text)
    assert not plain


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
