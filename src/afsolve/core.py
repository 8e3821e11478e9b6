"""Immutable argumentation frameworks and the primitive mask operations.

Arguments are interned to dense integer indices in first-appearance order,
every set of arguments is a plain int bitmask over them, and the attack
relation is held once, as per-argument masks, so each operation is bitwise.
"""

from __future__ import annotations

# A set of arguments is an int bitmask: bit i set <=> argument with index i
# is a member.  The empty set is 0.
ArgumentSet = int


class FrameworkError(ValueError):
    """Malformed framework input (duplicate names, undeclared endpoints)."""


class Record:
    """Plain-class plumbing for the package's records, without the import
    and class-creation cost of ``dataclasses``.  A subclass lists its
    constructor arguments in ``__slots__`` and the fields ``==`` and
    ``repr`` read in ``_compared``; ``==`` holds only between records of
    the same class.  A record pickles by its constructor arguments."""

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def _key(self):
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


class FrozenRecord(Record):
    """A record that cannot change after ``__init__``, hashed by its
    compared fields.  Assignment and deletion raise ``AttributeError``
    with the messages of ``dataclasses.FrozenInstanceError``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ArgumentationFramework(FrozenRecord):
    """A directed attack graph over interned arguments.

    Immutable after construction; safe to share across workers.  ``==``,
    ``hash`` and ``repr`` read the names and the masks only.
    """

    # args: the names in index order; per-argument masks: attackers_of[i]
    # = who attacks i, attacked_by[i] = whom i attacks; index: name ->
    # index; self_attackers: the arguments that attack themselves, fixed
    # by the masks
    __slots__ = ("args", "attackers_of", "attacked_by", "index", "self_attackers")
    _compared = ("args", "attackers_of", "attacked_by")

    def __init__(
        self,
        args: tuple[str, ...],
        attackers_of: tuple[int, ...],
        attacked_by: tuple[int, ...],
        index: dict[str, int],
        self_attackers: ArgumentSet,
    ):
        init = object.__setattr__
        init(self, "args", args)
        init(self, "attackers_of", attackers_of)
        init(self, "attacked_by", attacked_by)
        init(self, "index", index)
        init(self, "self_attackers", self_attackers)

    @property
    def attacks(self) -> frozenset[tuple[int, int]]:
        """The attack relation as (source, target) index pairs."""
        return frozenset(
            (i, j) for i, out in enumerate(self.attacked_by) for j in iter_bits(out)
        )

    @property
    def n(self) -> int:
        return len(self.args)

    @property
    def all_mask(self) -> ArgumentSet:
        return (1 << len(self.args)) - 1

    def set_of(self, names) -> ArgumentSet:
        mask = 0
        for name in names:
            mask |= 1 << self.index[name]
        return mask

    def names_of(self, s: ArgumentSet) -> tuple[str, ...]:
        return tuple(self.args[i] for i in iter_bits(s))


def iter_bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_framework(names, attack_pairs) -> ArgumentationFramework:
    """Intern arguments and build the masks, with the self-attackers, in one
    pass over ``attack_pairs``.

    Indices follow first appearance in ``names``; every endpoint in
    ``attack_pairs`` must be one of them.  Duplicate attack pairs collapse.
    """
    ordered = tuple(names)
    index: dict[str, int] = dict(zip(ordered, range(len(ordered))))
    if len(index) != len(ordered):
        seen: set[str] = set()
        for name in ordered:
            if name in seen:
                raise FrameworkError(f"duplicate argument name: {name!r}")
            seen.add(name)

    n = len(ordered)
    attackers_of = [0] * n
    attacked_by = [0] * n
    self_attackers = 0
    try:
        for src, dst in attack_pairs:
            i, j = index[src], index[dst]
            attackers_of[j] |= 1 << i
            attacked_by[i] |= 1 << j
            if i == j:
                self_attackers |= 1 << i
    except KeyError as exc:
        # the first undeclared endpoint in pair order, source before target
        raise FrameworkError(
            f"attack endpoint {exc.args[0]!r} is not a declared argument"
        ) from None
    return ArgumentationFramework(
        args=ordered,
        attackers_of=tuple(attackers_of),
        attacked_by=tuple(attacked_by),
        index=index,
        self_attackers=self_attackers,
    )


def is_conflict_free(fw: ArgumentationFramework, s: ArgumentSet) -> bool:
    """No attack has both endpoints in ``s`` (self-attacks count)."""
    for i in iter_bits(s):
        if fw.attacked_by[i] & s:
            return False
    return True


def defends(fw: ArgumentationFramework, s: ArgumentSet, a: int) -> bool:
    """Every attacker of ``a`` is attacked by some member of ``s``."""
    attacked = attacked_mask(fw, s)
    return fw.attackers_of[a] & ~attacked == 0


def attacked_mask(fw: ArgumentationFramework, s: ArgumentSet) -> ArgumentSet:
    """All arguments attacked by some member of ``s``."""
    out = 0
    for i in iter_bits(s):
        out |= fw.attacked_by[i]
    return out


def attackers_mask(fw: ArgumentationFramework, s: ArgumentSet) -> ArgumentSet:
    """All arguments that attack some member of ``s``."""
    out = 0
    for i in iter_bits(s):
        out |= fw.attackers_of[i]
    return out


def range_of(fw: ArgumentationFramework, s: ArgumentSet) -> ArgumentSet:
    """``s`` together with everything ``s`` attacks."""
    return s | attacked_mask(fw, s)

