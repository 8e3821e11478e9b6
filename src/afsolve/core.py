"""Immutable argumentation frameworks and the primitive predicates.

Arguments are interned to dense integer indices in first-appearance order;
every set of arguments is a plain int bitmask over those indices, so the
predicates below are a handful of bitwise operations each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# A set of arguments is an int bitmask: bit i set <=> argument with index i
# is a member.  The empty set is 0.
ArgumentSet = int


class FrameworkError(ValueError):
    """Malformed framework input (duplicate names, undeclared endpoints)."""


@dataclass(frozen=True)
class ArgumentationFramework:
    """A directed attack graph over interned arguments.

    Immutable after construction; safe to share across workers.
    """

    args: tuple[str, ...]
    attacks: frozenset[tuple[int, int]]
    # per-argument masks: attackers_of[i] = who attacks i, attacked_by[i] =
    # whom i attacks
    attackers_of: tuple[int, ...]
    attacked_by: tuple[int, ...]
    index: dict[str, int] = field(compare=False, repr=False)

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


def build_framework(
    names, attack_pairs, *, lenient: bool = False
) -> ArgumentationFramework:
    """Intern arguments and build adjacency.

    Indices follow first appearance in ``names``.  In lenient mode,
    arguments occurring only in ``attack_pairs`` are auto-declared after
    the explicit ones, in first-appearance order.  Duplicate attack pairs
    are deduplicated.
    """
    index: dict[str, int] = {}
    ordered: list[str] = []
    for name in names:
        if name in index:
            raise FrameworkError(f"duplicate argument name: {name!r}")
        index[name] = len(ordered)
        ordered.append(name)

    for src, dst in attack_pairs:
        for endpoint in (src, dst):
            if endpoint not in index:
                if not lenient:
                    raise FrameworkError(
                        f"attack endpoint {endpoint!r} is not a declared argument"
                    )
                index[endpoint] = len(ordered)
                ordered.append(endpoint)

    attacks = frozenset(
        (index[src], index[dst]) for src, dst in attack_pairs
    )
    n = len(ordered)
    attackers_of = [0] * n
    attacked_by = [0] * n
    for src, dst in attacks:
        attackers_of[dst] |= 1 << src
        attacked_by[src] |= 1 << dst

    return ArgumentationFramework(
        args=tuple(ordered),
        attacks=attacks,
        attackers_of=tuple(attackers_of),
        attacked_by=tuple(attacked_by),
        index=index,
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


def range_of(fw: ArgumentationFramework, s: ArgumentSet) -> ArgumentSet:
    """``s`` together with everything ``s`` attacks."""
    return s | attacked_mask(fw, s)


def is_cover(
    fw: ArgumentationFramework, e: ArgumentSet, target: ArgumentSet
) -> bool:
    """``target`` is contained in the range of ``e``."""
    return target & ~range_of(fw, e) == 0

