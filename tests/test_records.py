"""The package's records are plain classes; they behave as the dataclasses
they replaced.

Each record is checked against a written list of the fields it compares
and against a dataclass built here from that list: the same ``==``, hash
(or none), ``repr`` and constructor, assignment refused on the frozen
ones, and pickling."""

import copy
import pickle
from dataclasses import FrozenInstanceError, field, make_dataclass

import pytest

from afsolve import SemanticsKind, build_framework
from afsolve.core import ArgumentationFramework
from afsolve.encodings import DifferentialReport, ProjectedAnswerSet
from afsolve.formats import ParseDiagnostics
from afsolve.semantics import ExtensionSet

# record -> (its fields in constructor order, the fields == and repr read,
# frozen, two value tuples that differ in every field)
RECORDS = {
    ArgumentationFramework: (
        ("args", "attackers_of", "attacked_by", "index", "self_attackers"),
        ("args", "attackers_of", "attacked_by"),
        True,
        [
            (("a", "b"), (1, 1), (3, 0), {"a": 0, "b": 1}, 1),
            (("a", "c"), (0, 1), (2, 0), {"a": 0, "c": 1}, 0),
        ],
    ),
    ExtensionSet: (
        ("extensions", "nodes"),
        ("extensions",),
        True,
        [((1, 6), 17), ((0,), 3)],
    ),
    ParseDiagnostics: (
        ("warnings", "lenient_declarations"),
        ("warnings", "lenient_declarations"),
        False,
        [([(2, "auto-declared b")], ["b"]), ([], [])],
    ),
    ProjectedAnswerSet: (
        ("in_atoms", "raw_atoms"),
        ("in_atoms", "raw_atoms"),
        True,
        [(frozenset({"a"}), ("in(a)", "out(b)")), (frozenset(), ("out(a)",))],
    ),
    DifferentialReport: (
        ("kind", "native", "projected"),
        ("kind", "native", "projected"),
        False,
        [
            (SemanticsKind.PRF, frozenset({frozenset({"a"})}), frozenset()),
            (SemanticsKind.STG, frozenset(), frozenset({frozenset({"b"})})),
        ],
    ),
}


def _reference(cls):
    """The dataclass the record was: every field, compared or not."""
    fields, compared, frozen, _ = RECORDS[cls]
    spec = [
        (name, object, field(compare=name in compared, repr=name in compared))
        for name in fields
    ]
    return make_dataclass(cls.__name__, spec, frozen=frozen)


def _mixes(cls):
    """(changed field, values): the first sample with no field changed, and
    for each field the first sample with that one taken from the second."""
    fields, _, _, (first, second) = RECORDS[cls]
    yield None, first
    for i, name in enumerate(fields):
        yield name, first[:i] + (second[i],) + first[i + 1:]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equality_hash_and_repr_match_the_dataclass(cls):
    fields, compared, frozen, (first, _) = RECORDS[cls]
    ref = _reference(cls)
    base, ref_base = cls(*first), ref(*first)
    for changed, values in _mixes(cls):
        record, expected = cls(*values), ref(*values)
        assert repr(record) == repr(expected)
        assert (record == base) == (expected == ref_base)
        # only a change to a compared field makes a record unequal
        assert (record == base) == (changed not in compared)
        assert record != expected  # another class
        if frozen:
            assert hash(record) == hash(expected)
        else:
            with pytest.raises(TypeError):
                hash(record)
    assert cls(**dict(zip(fields, first))) == base


@pytest.mark.parametrize(
    "cls", [c for c in RECORDS if RECORDS[c][2]], ids=lambda cls: cls.__name__
)
def test_frozen_records_refuse_assignment(cls):
    fields, _, _, (values, _) = RECORDS[cls]
    record = cls(*values)
    for name in (*fields, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert record == cls(*values)
    # the messages are those of the dataclass
    ref = _reference(cls)(*values)
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{fields[0]}'"):
        setattr(ref, fields[0], None)


@pytest.mark.parametrize(
    "cls", [c for c in RECORDS if not RECORDS[c][2]], ids=lambda cls: cls.__name__
)
def test_mutable_records_take_assignment(cls):
    fields, _, _, (first, second) = RECORDS[cls]
    record = cls(*first)
    setattr(record, fields[0], second[0])
    assert record == cls(second[0], *first[1:])


def test_parse_diagnostics_lists_are_fresh():
    one, two = ParseDiagnostics(), ParseDiagnostics()
    one.warnings.append((1, "x"))
    one.lenient_declarations.append("a")
    assert two == ParseDiagnostics([], [])
    assert one == ParseDiagnostics(warnings=[(1, "x")], lenient_declarations=["a"])


def test_parse_diagnostics_keep_what_is_given():
    """As with the dataclass's default factories, only a list left out is
    made fresh: one given, None included, is kept as it is."""
    reference = make_dataclass(
        "ParseDiagnostics",
        [(name, object, field(default_factory=list)) for name in RECORDS[ParseDiagnostics][0]],
    )
    shared = [(1, "x")]
    for args, kwargs in [((None,), {}), ((), {"lenient_declarations": None}), ((shared,), {})]:
        record, expected = ParseDiagnostics(*args, **kwargs), reference(*args, **kwargs)
        assert record.warnings == expected.warnings
        assert record.lenient_declarations == expected.lenient_declarations
    assert ParseDiagnostics(shared).warnings is shared
    assert ParseDiagnostics(None).warnings is None


def test_extension_set_nodes_default_to_zero():
    assert ExtensionSet((1,)).nodes == 0
    assert ExtensionSet((1,), nodes=5).nodes == 5


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_pickle_and_copy(cls):
    fields, _, frozen, (values, _) = RECORDS[cls]
    record = cls(*values)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls
        assert twin == record
        assert [getattr(twin, name) for name in fields] == list(values)
        if frozen:
            assert hash(twin) == hash(record)


def test_framework_and_extensions_survive_pickling():
    fw = build_framework(["a", "b", "c"], [("a", "b"), ("b", "b"), ("c", "a")])
    back = pickle.loads(pickle.dumps(fw))
    assert back == fw and hash(back) == hash(fw)
    assert back.index == fw.index == {"a": 0, "b": 1, "c": 2}
    assert back.self_attackers == fw.self_attackers == 0b010
    assert back.attacks == fw.attacks
    exts = ExtensionSet((0b100, 0b101), nodes=9)
    back = pickle.loads(pickle.dumps(exts))
    assert back == exts and hash(back) == hash(exts)
    assert back.nodes == 9 and back.extensions == (0b100, 0b101)
