"""Extension enumeration and verification engines.

Two routes exist for the hard semantics and are cross-checked by the test
suite: textbook maximality/range searches, and witness/cover searches that
mirror the saturation-style second guess (an admissible set not contained
in the candidate, or a conflict-free/admissible cover of a strictly larger
range).

Collection engines are depth-first searches in argument-index order with
conflict pruning and, for admissibility-based semantics, defense-
feasibility pruning.  The admissible candidate pool that bounds those
searches is one linear worklist pass.  Preferred enumeration is
output-sensitive: it computes the pool once, then alternates
goal-directed searches for an admissible set not yet covered with
witness-driven maximization, so its cost scales with the number of
preferred extensions rather than the number of admissible sets.  It
yields extensions as it finds them, so a skeptical preferred query stops
at the first extension that lacks the argument; a credulous preferred
query is a single goal search.  Work is metered by a node budget;
exhausting it raises BudgetExceeded ("unknown"), never a wrong answer.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass

from .core import (
    ArgumentSet,
    ArgumentationFramework,
    attacked_mask,
    is_conflict_free,
    iter_bits,
    range_of,
)

DEFAULT_BUDGET = 10**8


class SemanticsKind(enum.Enum):
    CF = "cf"
    ADM = "adm"
    STB = "stb"
    PRF = "prf"
    SEM = "sem"
    STG = "stg"


class BudgetExceeded(RuntimeError):
    """Search node budget exhausted; the answer is unknown."""


class PreconditionError(ValueError):
    """Caller violated a documented precondition."""


class _Budget:
    __slots__ = ("left",)

    def __init__(self, nodes: int):
        self.left = nodes

    def tick(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("search node budget exhausted")


@dataclass(frozen=True)
class ExtensionSet:
    """Extensions of one framework, sorted ascending by bitmask."""

    extensions: tuple[ArgumentSet, ...]

    def __len__(self):
        return len(self.extensions)

    def __contains__(self, s: ArgumentSet) -> bool:
        i = bisect_left(self.extensions, s)
        return i < len(self.extensions) and self.extensions[i] == s

    def as_set(self) -> frozenset[ArgumentSet]:
        return frozenset(self.extensions)

    def to_name_sets(self, fw: ArgumentationFramework) -> list[tuple[str, ...]]:
        return [fw.names_of(s) for s in self.extensions]


# ---------------------------------------------------------------------------
# verifiers

def is_admissible(fw: ArgumentationFramework, s: ArgumentSet) -> bool:
    if not is_conflict_free(fw, s):
        return False
    attacked = attacked_mask(fw, s)
    for a in iter_bits(s):
        if fw.attackers_of[a] & ~attacked:
            return False
    return True


def is_stable(fw: ArgumentationFramework, s: ArgumentSet) -> bool:
    return is_conflict_free(fw, s) and range_of(fw, s) == fw.all_mask


def _check_base(fw, s, base: SemanticsKind):
    if base is SemanticsKind.CF:
        ok = is_conflict_free(fw, s)
    elif base is SemanticsKind.ADM:
        ok = is_admissible(fw, s)
    else:
        raise PreconditionError(f"base must be CF or ADM, got {base}")
    if not ok:
        raise PreconditionError(
            f"candidate set does not satisfy base property {base.value}"
        )


# ---------------------------------------------------------------------------
# candidate pools

def _non_self_attacking(fw: ArgumentationFramework) -> ArgumentSet:
    mask = 0
    for i in range(fw.n):
        if (i, i) not in fw.attacks:
            mask |= 1 << i
    return mask


def admissible_candidates(fw: ArgumentationFramework) -> ArgumentSet:
    """Monotone over-approximation of the arguments that can belong to
    some admissible set: the greatest set of non-self-attackers each of
    whose attackers keeps a potential counter-attacker inside the set.

    One worklist pass in O(n+m) set operations: live[b] counts the
    attackers of b still in the pool; once it drops to 0, b can never be
    counter-attacked, so everything b attacks leaves the pool."""
    attackers_of = fw.attackers_of
    attacked_by = fw.attacked_by
    pool = _non_self_attacking(fw)
    live = [(attackers_of[b] & pool).bit_count() for b in range(fw.n)]
    undefended = [b for b in range(fw.n) if not live[b]]
    while undefended:
        b = undefended.pop()
        for a in iter_bits(attacked_by[b] & pool):
            pool &= ~(1 << a)
            for c in iter_bits(attacked_by[a]):
                live[c] -= 1
                if not live[c]:
                    undefended.append(c)
    return pool


def _pool_suffixes(fw, pool_bits):
    """future_in[i] / future_attacked[i]: what positions >= i can still add."""
    n = len(pool_bits)
    future_in = [0] * (n + 1)
    future_attacked = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        a = pool_bits[i]
        future_in[i] = future_in[i + 1] | (1 << a)
        future_attacked[i] = future_attacked[i + 1] | fw.attacked_by[a]
    return future_in, future_attacked


# ---------------------------------------------------------------------------
# labelling DFS engines
#
# Each engine grows an IN set element by element in pool order, so every
# node of the recursion is one conflict-free set; OUT is implicit (the
# skipped arguments).  Feasibility prunes use suffix masks: once the
# positions still ahead cannot counter-attack a pending attacker (or cover
# an uncovered argument, for stable), the whole loop tail is dead.

def _collect_conflict_free(fw: ArgumentationFramework, budget: _Budget):
    pool = list(iter_bits(_non_self_attacking(fw)))
    n = len(pool)
    conflict = [fw.attackers_of[a] | fw.attacked_by[a] for a in pool]
    out = [0]

    def rec(start, in_mask):
        budget.tick()
        for j in range(start, n):
            if conflict[j] & in_mask:
                continue
            a = pool[j]
            s = in_mask | (1 << a)
            out.append(s)
            rec(j + 1, s)

    rec(0, 0)
    return out


def _collect_admissible(fw: ArgumentationFramework, budget: _Budget):
    pool = list(iter_bits(admissible_candidates(fw)))
    n = len(pool)
    conflict = [fw.attackers_of[a] | fw.attacked_by[a] for a in pool]
    attacked_by = fw.attacked_by
    attackers_of = fw.attackers_of
    _, future_attacked = _pool_suffixes(fw, pool)
    out = []

    def rec(start, in_mask, attacked, need):
        budget.tick()
        if need & ~attacked == 0:
            out.append(in_mask)
        for j in range(start, n):
            # suffixes only shrink, so the first uncoverable pending
            # attacker ends the loop
            if need & ~(attacked | future_attacked[j]):
                break
            if conflict[j] & in_mask:
                continue
            a = pool[j]
            rec(
                j + 1,
                in_mask | (1 << a),
                attacked | attacked_by[a],
                need | attackers_of[a],
            )

    rec(0, 0, 0, 0)
    return out


def _collect_stable(fw: ArgumentationFramework, budget: _Budget):
    pool = list(iter_bits(_non_self_attacking(fw)))
    n = len(pool)
    conflict = [fw.attackers_of[a] | fw.attacked_by[a] for a in pool]
    attacked_by = fw.attacked_by
    future_in, future_attacked = _pool_suffixes(fw, pool)
    all_mask = fw.all_mask
    out = []

    def rec(start, in_mask, attacked):
        budget.tick()
        if in_mask | attacked == all_mask:
            out.append(in_mask)
        for j in range(start, n):
            if all_mask & ~(in_mask | attacked | future_in[j] | future_attacked[j]):
                break
            if conflict[j] & in_mask:
                continue
            a = pool[j]
            rec(j + 1, in_mask | (1 << a), attacked | attacked_by[a])

    rec(0, 0, 0)
    return out


# ---------------------------------------------------------------------------
# witness searches (the saturation-style second guess, natively)

def _grow_admissible(fw, seed, pool_mask, must_hits, budget):
    """First admissible E with seed <= E <= seed|pool_mask and E & m != 0
    for every m in must_hits, as a mask; None when no such set exists.
    The seed must be conflict-free and compatible with every pool
    argument."""
    pool = list(iter_bits(pool_mask & ~seed))
    n = len(pool)
    conflict = [fw.attackers_of[a] | fw.attacked_by[a] for a in pool]
    attacked_by = fw.attacked_by
    attackers_of = fw.attackers_of
    future_in, future_attacked = _pool_suffixes(fw, pool)
    seed_attacked = attacked_mask(fw, seed)
    seed_need = 0
    for a in iter_bits(seed):
        seed_need |= attackers_of[a]

    def rec(start, in_mask, attacked, need):
        budget.tick()
        if need & ~attacked == 0 and all(in_mask & m for m in must_hits):
            return in_mask
        for j in range(start, n):
            if need & ~(attacked | future_attacked[j]):
                break
            # suffixes shrink, so a must-hit mask no longer reachable
            # stays unreachable for the rest of the loop
            reach = in_mask | future_in[j]
            if any(not reach & m for m in must_hits):
                break
            if conflict[j] & in_mask:
                continue
            a = pool[j]
            found = rec(
                j + 1,
                in_mask | (1 << a),
                attacked | attacked_by[a],
                need | attackers_of[a],
            )
            if found is not None:
                return found
        return None

    return rec(0, seed, seed_attacked, seed_need)


def _find_admissible_in_pool(fw, pool_mask, must_hit, budget):
    """First admissible E within pool_mask with E & must_hit != 0, as a
    mask, or None when no such set exists."""
    return _grow_admissible(fw, 0, pool_mask, [must_hit], budget)


def _exists_admissible_in_pool(fw, pool_mask, must_hit, budget) -> bool:
    """Is there an admissible E within pool_mask with E & must_hit != 0?"""
    return _find_admissible_in_pool(fw, pool_mask, must_hit, budget) is not None


def _compatible_outside(fw, s: ArgumentSet, pool: ArgumentSet) -> ArgumentSet:
    """Arguments of the candidate pool outside s that neither attack nor
    are attacked by s."""
    blocked = s
    for a in iter_bits(s):
        blocked |= fw.attackers_of[a] | fw.attacked_by[a]
    return pool & ~blocked


def is_preferred_by_witness(
    fw: ArgumentationFramework, s: ArgumentSet, budget: int = DEFAULT_BUDGET
) -> bool:
    """s is preferred iff no admissible witness E exists with E not
    contained in s and E union s conflict-free."""
    if not is_admissible(fw, s):
        raise PreconditionError("is_preferred_by_witness requires an admissible set")
    b = budget if isinstance(budget, _Budget) else _Budget(budget)
    outside = _compatible_outside(fw, s, admissible_candidates(fw))
    if not outside:
        return True
    return not _exists_admissible_in_pool(fw, s | outside, outside, b)


def is_preferred_by_maximality(
    fw: ArgumentationFramework, s: ArgumentSet, budget: int = DEFAULT_BUDGET
) -> bool:
    """Textbook route: admissible with no admissible proper superset."""
    if not is_admissible(fw, s):
        return False
    b = budget if isinstance(budget, _Budget) else _Budget(budget)
    pool = admissible_candidates(fw)
    addable = list(iter_bits(_compatible_outside(fw, s, pool)))
    n = len(addable)
    conflict = [fw.attackers_of[a] | fw.attacked_by[a] for a in addable]
    base_attacked = attacked_mask(fw, s)
    base_need = 0
    for a in iter_bits(s):
        base_need |= fw.attackers_of[a]
    future_attacked = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        future_attacked[i] = future_attacked[i + 1] | fw.attacked_by[addable[i]]

    def superset_exists(start, in_mask, attacked, need):
        b.tick()
        if in_mask != s and need & ~attacked == 0:
            return True
        for j in range(start, n):
            if need & ~(attacked | future_attacked[j]):
                break
            if conflict[j] & in_mask:
                continue
            a = addable[j]
            if superset_exists(
                j + 1,
                in_mask | (1 << a),
                attacked | fw.attacked_by[a],
                need | fw.attackers_of[a],
            ):
                return True
        return False

    return not superset_exists(0, s, base_attacked, base_need)


def exists_cover_with_property(
    fw: ArgumentationFramework,
    target: ArgumentSet,
    base: SemanticsKind,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Is there a conflict-free (resp. admissible) E whose range covers
    target?  E is assembled per uncovered target element from the element
    itself or one of its attackers, then (admissible base) completed with
    counter-attackers of undefeated attackers."""
    if base not in (SemanticsKind.CF, SemanticsKind.ADM):
        raise PreconditionError(f"base must be CF or ADM, got {base}")
    b = budget if isinstance(budget, _Budget) else _Budget(budget)
    return _exists_cover(fw, target, base, _cover_pool(fw, base), b)


def _cover_pool(fw, base: SemanticsKind) -> ArgumentSet:
    """The arguments a cover with the base property may contain."""
    if base is SemanticsKind.ADM:
        return admissible_candidates(fw)
    return _non_self_attacking(fw)


def _exists_cover(fw, target, base, allowed, b) -> bool:
    """exists_cover_with_property over a precomputed _cover_pool."""
    failed: set[int] = set()

    def rec(e_mask, attacked, need):
        b.tick()
        if e_mask in failed:
            return False
        uncovered = target & ~(e_mask | attacked)
        if uncovered:
            t = (uncovered & -uncovered).bit_length() - 1
            choices = ((1 << t) | fw.attackers_of[t]) & allowed & ~e_mask
        elif base is SemanticsKind.ADM and need & ~attacked:
            pend = need & ~attacked
            bad = (pend & -pend).bit_length() - 1
            choices = fw.attackers_of[bad] & allowed & ~e_mask
        else:
            return True
        for c in iter_bits(choices):
            if (fw.attackers_of[c] | fw.attacked_by[c]) & e_mask:
                continue
            if rec(
                e_mask | (1 << c),
                attacked | fw.attacked_by[c],
                need | fw.attackers_of[c],
            ):
                return True
        failed.add(e_mask)
        return False

    return rec(0, 0, 0)


def is_range_supreme_by_cover(
    fw: ArgumentationFramework,
    s: ArgumentSet,
    base: SemanticsKind,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Cover route: no base-satisfying set covers the range of s plus one
    extra argument.  Trivially true when s is already stable."""
    _check_base(fw, s, base)
    b = budget if isinstance(budget, _Budget) else _Budget(budget)
    rng = range_of(fw, s)
    if rng == fw.all_mask:
        return True
    allowed = _cover_pool(fw, base)
    for a in iter_bits(fw.all_mask & ~rng):
        if _exists_cover(fw, rng | (1 << a), base, allowed, b):
            return False
    return True


def is_range_supreme_by_superset(
    fw: ArgumentationFramework,
    s: ArgumentSet,
    base: SemanticsKind,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Direct route: no base-satisfying set has a strictly larger range."""
    _check_base(fw, s, base)
    b = budget if isinstance(budget, _Budget) else _Budget(budget)
    rng = range_of(fw, s)
    if rng == fw.all_mask:
        return True
    candidates = (
        _collect_conflict_free(fw, b)
        if base is SemanticsKind.CF
        else _collect_admissible(fw, b)
    )
    for t in candidates:
        t_rng = range_of(fw, t)
        if rng & ~t_rng == 0 and t_rng != rng:
            return False
    return True


def _find_admissible_goal(fw, seed, allowed, must_hits, budget, dead=None):
    """Goal-directed admissible search: first admissible E with
    seed <= E <= seed|allowed and E & m != 0 for every mask in must_hits.
    Elements are added only to hit an unmet mask or to counter-attack a
    pending attacker, so branching stays narrow; dead sets are memoized.
    The seed must be conflict-free and compatible with every allowed
    argument.

    `dead` collects sets proven to have no admissible superset within
    `allowed` at all (failures with every must-hit already satisfied);
    such entries stay valid across calls with different must_hits, so
    callers running several searches over the same `allowed` pool may
    share one set."""
    attacked_by = fw.attacked_by
    attackers_of = fw.attackers_of
    seed_attacked = attacked_mask(fw, seed)
    seed_need = 0
    for a in iter_bits(seed):
        seed_need |= attackers_of[a]
    if dead is None:
        dead = set()
    failed: set[int] = set()

    def rec(e_mask, attacked, need):
        budget.tick()
        if e_mask in dead or e_mask in failed:
            return None
        choices = None
        for m in must_hits:
            if not e_mask & m:
                choices = m & allowed & ~e_mask
                break
        defending = choices is None
        if defending:
            pend = need & ~attacked
            if not pend:
                return e_mask
            # fail-first: defend the pending attacker with the fewest
            # compatible counter-attackers
            best = -1
            for b in iter_bits(pend):
                options = attackers_of[b] & allowed & ~e_mask
                cnt = options.bit_count()
                if best < 0 or cnt < best:
                    best, choices = cnt, options
                    if cnt <= 1:
                        break
        for c in iter_bits(choices):
            if (attackers_of[c] | attacked_by[c]) & e_mask:
                continue
            found = rec(
                e_mask | (1 << c),
                attacked | attacked_by[c],
                need | attackers_of[c],
            )
            if found is not None:
                return found
        (dead if defending else failed).add(e_mask)
        return None

    return rec(seed, seed_attacked, seed_need)


def _find_admissible_uncovered(fw, covers, candidates, budget, dead):
    """First admissible set not contained in any mask in `covers`, or None
    when every admissible set is covered."""
    complements = [fw.all_mask & ~p for p in covers]
    return _find_admissible_goal(fw, 0, candidates, complements, budget, dead)


def _maximize_admissible(fw, s, candidates, budget, dead):
    """Grow an admissible set to a maximal admissible (preferred) set by
    repeatedly adding an admissible superset that hits the compatible
    outside."""
    while True:
        outside = _compatible_outside(fw, s, candidates)
        if not outside:
            return s
        bigger = _find_admissible_goal(fw, s, candidates, [outside], budget, dead)
        if bigger is None:
            return s
        s = bigger


def _collect_preferred(fw, budget):
    """Output-sensitive preferred enumeration: find an admissible set not
    covered by the preferred extensions found so far, grow it to a maximal
    admissible set, repeat until everything is covered.  Extensions are
    yielded as they are found, so a caller may stop early."""
    candidates = admissible_candidates(fw)
    dead: set[int] = set()
    found: list[ArgumentSet] = []
    while True:
        e = _find_admissible_uncovered(fw, found, candidates, budget, dead)
        if e is None:
            return
        found.append(_maximize_admissible(fw, e, candidates, budget, dead))
        yield found[-1]


# ---------------------------------------------------------------------------
# enumeration

def _range_maximal_prefilter(fw, masks):
    """Drop sets whose range is properly contained in another's range;
    distinct sets with equal ranges all survive."""
    ranged = [(s, range_of(fw, s)) for s in masks]
    ranges = sorted({r for _, r in ranged}, key=lambda m: -m.bit_count())
    maximal_ranges = []
    for r in ranges:
        if not any(r & ~k == 0 for k in maximal_ranges):
            maximal_ranges.append(r)
    maximal = set(maximal_ranges)
    return [s for s, r in ranged if r in maximal]


def _extensions(fw, kind: SemanticsKind, b: _Budget):
    """The extensions as an iterable, unsorted.  Preferred extensions are
    produced lazily, so a query can stop at the first decisive one."""
    if kind is SemanticsKind.CF:
        return _collect_conflict_free(fw, b)
    if kind is SemanticsKind.ADM:
        return _collect_admissible(fw, b)
    if kind is SemanticsKind.STB:
        return _collect_stable(fw, b)
    if kind is SemanticsKind.PRF:
        return _collect_preferred(fw, b)
    if kind is SemanticsKind.SEM:
        candidates = _range_maximal_prefilter(fw, _collect_admissible(fw, b))
        return [
            s
            for s in candidates
            if is_range_supreme_by_cover(fw, s, SemanticsKind.ADM, b)
        ]
    if kind is SemanticsKind.STG:
        candidates = _range_maximal_prefilter(fw, _collect_conflict_free(fw, b))
        return [
            s
            for s in candidates
            if is_range_supreme_by_cover(fw, s, SemanticsKind.CF, b)
        ]
    raise ValueError(f"unknown semantics {kind}")  # pragma: no cover


def enumerate_extensions(
    fw: ArgumentationFramework,
    kind: SemanticsKind,
    budget: int = DEFAULT_BUDGET,
) -> ExtensionSet:
    b = _Budget(budget)
    return ExtensionSet(tuple(sorted(set(_extensions(fw, kind, b)))))


def credulous(
    fw: ArgumentationFramework,
    a: int,
    kind: SemanticsKind,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Some extension under kind contains argument index a."""
    if not 0 <= a < fw.n:
        raise PreconditionError(f"argument index {a} out of range")
    b = _Budget(budget)
    bit = 1 << a
    if kind is SemanticsKind.PRF:
        # every admissible set lies inside a preferred one, so credulous
        # preferred is credulous admissible: one goal search decides it
        pool = admissible_candidates(fw)
        return _find_admissible_goal(fw, 0, pool, [bit], b) is not None
    return any(s & bit for s in _extensions(fw, kind, b))


def skeptical(
    fw: ArgumentationFramework,
    a: int,
    kind: SemanticsKind,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Every extension under kind contains a (vacuously true when none)."""
    if not 0 <= a < fw.n:
        raise PreconditionError(f"argument index {a} out of range")
    b = _Budget(budget)
    bit = 1 << a
    return all(s & bit for s in _extensions(fw, kind, b))
