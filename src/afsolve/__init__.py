"""Native solver for abstract argumentation frameworks.

Computes conflict-free, admissible, stable, preferred, semi-stable, and
stage extensions over bitmask-interned frameworks, and emits the
saturation-style ASP encodings for differential testing against external
answer-set solvers.
"""

from .core import (
    ArgumentSet,
    ArgumentationFramework,
    FrameworkError,
    build_framework,
    defends,
    is_conflict_free,
    range_of,
)
from .semantics import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    ExtensionSet,
    PreconditionError,
    SemanticsKind,
    credulous,
    enumerate_extensions,
    is_admissible,
    is_preferred_by_maximality,
    is_preferred_by_witness,
    is_range_supreme_by_cover,
    is_range_supreme_by_superset,
    is_stable,
    skeptical,
)
from .oracle import CapExceeded, brute_force, check_equivalence
from .encodings import (
    EncodingName,
    ProjectedAnswerSet,
    differential_check,
    emit_apx_facts,
    emit_encoding,
    project_answer_set,
)
from .formats import (
    OutputStyle,
    ParseDiagnostics,
    ParseError,
    format_extensions,
    parse_apx,
    parse_tgf,
)

__all__ = [
    "ArgumentSet",
    "ArgumentationFramework",
    "BudgetExceeded",
    "CapExceeded",
    "DEFAULT_BUDGET",
    "EncodingName",
    "ExtensionSet",
    "FrameworkError",
    "OutputStyle",
    "ParseDiagnostics",
    "ParseError",
    "PreconditionError",
    "ProjectedAnswerSet",
    "SemanticsKind",
    "brute_force",
    "build_framework",
    "check_equivalence",
    "credulous",
    "defends",
    "differential_check",
    "emit_apx_facts",
    "emit_encoding",
    "enumerate_extensions",
    "format_extensions",
    "is_admissible",
    "is_conflict_free",
    "is_preferred_by_maximality",
    "is_preferred_by_witness",
    "is_range_supreme_by_cover",
    "is_range_supreme_by_superset",
    "is_stable",
    "parse_apx",
    "parse_tgf",
    "project_answer_set",
    "range_of",
    "skeptical",
]

__version__ = "0.1.0"
