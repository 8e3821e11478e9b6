"""Brute-force reference semantics: all 2^n subsets, definitions applied
literally.  Deliberately unoptimized and independent of the search engines
in semantics.py; the only shared code is the bit primitives of core.py.
"""

from __future__ import annotations

from .core import (
    ArgumentationFramework,
    defends,
    is_conflict_free,
    iter_bits,
    range_of,
)
from .semantics import (
    DEFAULT_BUDGET, ExtensionSet, PreconditionError, SemanticsKind, enumerate_extensions,
)

DEFAULT_CAP = 20


class CapExceeded(PreconditionError):
    """Framework too large for exhaustive subset enumeration."""


def brute_force(
    fw: ArgumentationFramework, kind: SemanticsKind, cap: int = DEFAULT_CAP
) -> ExtensionSet:
    if fw.n > cap:
        raise CapExceeded(f"{fw.n} arguments exceeds the oracle cap of {cap}")

    cf = [s for s in range(1 << fw.n) if is_conflict_free(fw, s)]
    adm = [
        s for s in cf if all(defends(fw, s, a) for a in iter_bits(s))
    ]

    if kind is SemanticsKind.CF:
        result = cf
    elif kind is SemanticsKind.ADM:
        result = adm
    elif kind is SemanticsKind.STB:
        result = [s for s in cf if range_of(fw, s) == fw.all_mask]
    elif kind is SemanticsKind.PRF:
        # subset-maximal admissible
        result = [
            s for s in adm if not any(t != s and s & ~t == 0 for t in adm)
        ]
    elif kind is SemanticsKind.SEM:
        result = _range_maximal(fw, adm)
    elif kind is SemanticsKind.STG:
        result = _range_maximal(fw, cf)
    else:  # pragma: no cover
        raise ValueError(f"unknown semantics {kind}")

    return ExtensionSet(tuple(sorted(result)))


def _range_maximal(fw, candidates):
    ranges = [(s, range_of(fw, s)) for s in candidates]
    kept = []
    for s, r in ranges:
        if not any(t_r != r and r & ~t_r == 0 for _, t_r in ranges):
            kept.append(s)
    return kept


def check_equivalence(
    fw: ArgumentationFramework,
    kind: SemanticsKind,
    cap: int = DEFAULT_CAP,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Differential check of the search engine against the oracle."""
    expected = brute_force(fw, kind, cap=cap)
    actual = enumerate_extensions(fw, kind, budget=budget)
    return expected.as_set() == actual.as_set()
