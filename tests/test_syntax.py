"""The package supports Python 3.10 (pyproject's requires-python): every
source file must parse under 3.10's grammar.  Best effort: this catches
newer syntax, not calls to library functions newer than 3.10."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for top in ("src", "tests", "scripts") for p in (ROOT / top).rglob("*.py"))


def test_every_source_directory_has_files():
    assert {p.relative_to(ROOT).parts[0] for p in SOURCES} == {"src", "tests", "scripts"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
