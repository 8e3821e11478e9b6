"""Emission of the saturation-style ASP encodings and the apx fact base,
plus projection of external answer sets back to argument sets.

The rule texts are static string resources, one rule per line.  Canonical
spacing: no space after commas inside an atom's argument list, one space
after commas separating body literals, single spaces around ":-" and "|",
no spaces around the ":" of a conditional literal.

Only `run_solver` starts a process, and it imports the process and
temp-file modules itself, so emitting and solving load none of them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .core import ArgumentationFramework
from .semantics import PreconditionError, SemanticsKind, enumerate_extensions

CF_RULES = """\
in(X) :- arg(X), not out(X).
out(X) :- arg(X), not in(X).
:- att(X,Y), in(X), in(Y).
"""

DEF_RULES = """\
defeated(X) :- in(Y), att(Y,X).
undefended(X) :- att(Y,X), not defeated(Y).
:- in(X), undefended(X).
"""

RANGE_RULES = """\
range(X) :- in(X).
range(Y) :- in(X), att(X,Y).
out_of_range(X) :- not range(X), arg(X).
unstable :- out_of_range(X), arg(X).
"""

SATPREF2_RULES = """\
nontrivial :- out(X).
witness(X):out(X) :- nontrivial.
spoil | witness(Z):att(Z,Y) :- witness(X), att(Y,X).
spoil :- witness(X), witness(Y), att(X,Y).
spoil :- in(X), witness(Y), att(X,Y).
witness(X) :- spoil, arg(X).
:- not spoil, nontrivial.
"""

SATSEMI2_RULES = """\
larger_range(X):out_of_range(X) :- unstable.
larger_range(X) :- range(X), unstable.
witness(X) | witness(Z):att(Z,X) :- larger_range(X), unstable.
spoil :- witness(X), witness(Y), att(X,Y), unstable.
spoil | witness(Z):att(Z,Y) :- witness(X), att(Y,X), unstable.
witness(X) :- spoil, arg(X), unstable.
larger_range(X) :- spoil, arg(X), unstable.
:- not spoil, unstable.
"""

# the admissible-cover rule dropped when candidates are only conflict-free
R_ADMCOV = "spoil | witness(Z):att(Z,Y) :- witness(X), att(Y,X), unstable."


class EncodingName(Enum):
    CF = "cf"
    DEF = "def"
    ADM = "adm"
    RANGE = "range"
    SATPREF2 = "satpref2"
    SATSEMI2 = "satsemi2"
    PREF2 = "pref2"
    SEMI2 = "semi2"
    STAGE2 = "stage2"


_ADM_RULES = CF_RULES + DEF_RULES
_SATSTAGE2_RULES = SATSEMI2_RULES.replace(R_ADMCOV + "\n", "")

_ENCODINGS = {
    EncodingName.CF: CF_RULES,
    EncodingName.DEF: DEF_RULES,
    EncodingName.ADM: _ADM_RULES,
    EncodingName.RANGE: RANGE_RULES,
    EncodingName.SATPREF2: SATPREF2_RULES,
    EncodingName.SATSEMI2: SATSEMI2_RULES,
    EncodingName.PREF2: _ADM_RULES + SATPREF2_RULES,
    EncodingName.SEMI2: _ADM_RULES + RANGE_RULES + SATSEMI2_RULES,
    EncodingName.STAGE2: CF_RULES + RANGE_RULES + _SATSTAGE2_RULES,
}


def emit_encoding(name: EncodingName) -> str:
    return _ENCODINGS[name]


_BARE_CONST = re.compile(r"[a-z][A-Za-z0-9_]*\Z")


class ConstantError(PreconditionError):
    """Argument name is not expressible as an ASP constant."""


def _as_constant(name: str) -> str:
    if _BARE_CONST.match(name) and name != "not":  # `not` is an ASP keyword
        return name
    if '"' in name or "\\" in name or "\n" in name:
        raise ConstantError(f"argument name {name!r} is not a valid ASP constant")
    return f'"{name}"'


def emit_apx_facts(fw: ArgumentationFramework) -> str:
    """arg/1 facts in argument order, then att/2 facts lexicographically."""
    lines = [f"arg({_as_constant(a)})." for a in fw.args]
    pairs = sorted((fw.args[s], fw.args[t]) for s, t in fw.attacks)
    lines += [f"att({_as_constant(s)},{_as_constant(t)})." for s, t in pairs]
    return "".join(line + "\n" for line in lines)


@dataclass(frozen=True)
class ProjectedAnswerSet:
    in_atoms: frozenset[str]
    raw_atoms: tuple[str, ...]


_ATOM = re.compile(r"([a-z][A-Za-z0-9_]*)(?:\((.*)\))?\Z")


class AtomParseError(ValueError):
    pass


def project_answer_set(atoms) -> ProjectedAnswerSet:
    """Keep the arguments named by unary in(.) atoms; everything else is
    retained only verbatim."""
    in_atoms = set()
    raw = []
    for atom in atoms:
        atom = atom.strip()
        if not atom:
            continue
        m = _ATOM.match(atom)
        if not m:
            raise AtomParseError(f"cannot parse atom {atom!r}")
        raw.append(atom)
        pred, args = m.groups()
        if pred == "in" and args is not None:
            name = args.strip()
            if len(name) >= 2 and name[0] == '"' and name[-1] == '"':
                name = name[1:-1]
                if '"' not in name:
                    in_atoms.add(name)
            elif "," not in name:
                in_atoms.add(name)
    return ProjectedAnswerSet(frozenset(in_atoms), tuple(raw))


_KIND_TO_ENCODING = {
    SemanticsKind.PRF: EncodingName.PREF2,
    SemanticsKind.SEM: EncodingName.SEMI2,
    SemanticsKind.STG: EncodingName.STAGE2,
}


class SolverError(RuntimeError):
    """External solver failed to launch or produced unparsable output."""


@dataclass
class DifferentialReport:
    kind: SemanticsKind
    native: frozenset[frozenset[str]]
    projected: frozenset[frozenset[str]]

    @property
    def ok(self) -> bool:
        return self.native == self.projected

    @property
    def mismatches(self) -> list[str]:
        out = []
        for s in sorted(self.native - self.projected, key=sorted):
            out.append(f"native only: {{{','.join(sorted(s))}}}")
        for s in sorted(self.projected - self.native, key=sorted):
            out.append(f"solver only: {{{','.join(sorted(s))}}}")
        return out


def parse_solver_output(text: str) -> list[list[str]]:
    """Answer sets from the de-facto text format: a line "Answer: N"
    followed by one line of space-separated atoms."""
    answers = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("Answer:"):
            if i + 1 >= len(lines):
                raise SolverError("truncated solver output after Answer line")
            answers.append(lines[i + 1].split())
    return answers


def run_solver(program: str, solver_command: str) -> list[list[str]]:
    """Write the program to a temp file and run the command template;
    {file} is replaced by the program path.  The enumerate-all flag is the
    template author's responsibility (e.g. "clingo --outf=0 -n 0 {file}").
    A template that does not split into a command raises SolverError."""
    import shlex
    import subprocess
    import tempfile
    from pathlib import Path
    try:
        template = shlex.split(solver_command)
    except ValueError as exc:
        raise SolverError(f"cannot split solver command: {exc}") from exc
    if not template:
        raise SolverError("solver command is empty")
    with tempfile.NamedTemporaryFile("w", suffix=".lp", delete=False) as handle:
        handle.write(program)
        path = handle.name
    try:
        argv = [part.replace("{file}", path) for part in template]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise SolverError(f"failed to run {argv[0]!r}: {exc}") from exc
        # clingo-style exit codes: 10/20/30 encode SAT/UNSAT, not failure
        if proc.returncode not in (0, 10, 20, 30):
            raise SolverError(
                f"solver exited with {proc.returncode}: {proc.stderr.strip()}"
            )
        return parse_solver_output(proc.stdout)
    finally:
        Path(path).unlink(missing_ok=True)


def differential_check(
    fw: ArgumentationFramework,
    kind: SemanticsKind,
    solver_command: str,
) -> DifferentialReport:
    """Compare deduped in(.)-projections of all answer sets of the kind's
    encoding over the fact base against native enumeration."""
    if kind not in _KIND_TO_ENCODING:
        raise ValueError(f"differential check supports prf/sem/stg, got {kind}")
    program = emit_encoding(_KIND_TO_ENCODING[kind]) + emit_apx_facts(fw)
    answer_sets = run_solver(program, solver_command)
    projected = frozenset(
        project_answer_set(atoms).in_atoms for atoms in answer_sets
    )
    native = frozenset(
        frozenset(fw.names_of(s))
        for s in enumerate_extensions(fw, kind).extensions
    )
    return DifferentialReport(kind=kind, native=native, projected=projected)
