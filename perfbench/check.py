"""Checkers for the program's outputs, written apart from the program.

Nothing here imports the program under test.  Extensions are checked
against brute force for small frameworks and against properties every
answer must have (admissibility, maximality, grounded containment, range
incomparability, closed forms, agreement between ``--cred``/``--skep``
answers and the enumerated extensions, and sem = stg = stb when a stable
extension exists).  A failed check raises ``CheckError``.
"""

from __future__ import annotations

from gen import Framework

BRUTE_FORCE_MAX_N = 16


class CheckError(AssertionError):
    pass


class AF:
    """Bitmask view of a generated framework: bit i is argument i."""

    def __init__(self, fw: Framework):
        self.fw = fw
        self.n = n = fw.n
        self.all = (1 << n) - 1
        self.index = {name: i for i, name in enumerate(fw.names)}
        self.att_of = [0] * n  # who attacks i
        self.atk_by = [0] * n  # whom i attacks
        for i, j in fw.attacks:
            self.att_of[j] |= 1 << i
            self.atk_by[i] |= 1 << j
        self.self_att = sum(1 << i for i in range(n) if self.atk_by[i] >> i & 1)

    def bits(self, s: int):
        while s:
            low = s & -s
            yield low.bit_length() - 1
            s ^= low

    def attacked(self, s: int) -> int:
        out = 0
        for i in self.bits(s):
            out |= self.atk_by[i]
        return out

    def range(self, s: int) -> int:
        return s | self.attacked(s)

    def is_cf(self, s: int) -> bool:
        return self.attacked(s) & s == 0

    def is_adm(self, s: int) -> bool:
        hit = self.attacked(s)
        if hit & s:
            return False
        return all(self.att_of[i] & ~hit == 0 for i in self.bits(s))

    def grounded(self) -> int:
        """Least fixpoint of the characteristic function, by a worklist
        pass: an argument is IN once all its attackers are OUT, and OUT once
        an IN argument attacks it."""
        live = [self.att_of[i].bit_count() for i in range(self.n)]
        todo = [i for i in range(self.n) if live[i] == 0]
        g = out = 0
        while todo:
            i = todo.pop()
            if (g | out) >> i & 1:
                continue
            g |= 1 << i
            for j in self.bits(self.atk_by[i] & ~out):
                out |= 1 << j
                for k in self.bits(self.atk_by[j]):
                    live[k] -= 1
                    if live[k] == 0:
                        todo.append(k)
        return g

    def stable_extensions(self, limit: int | None = None) -> list[int]:
        """Stable extensions by labelling search with propagation, using an
        explicit stack so that no size hits the recursion limit."""
        att_of, atk_by = self.att_of, self.atk_by
        found: list[int] = []
        # state: (in_mask, out_mask); OUT means "not in", and must end up
        # attacked by IN
        stack = [(0, self.self_att)]
        while stack:
            state = self._propagate(*stack.pop())
            if state is None:
                continue
            in_mask, out_mask = state
            undecided = self.all & ~(in_mask | out_mask)
            if not undecided:
                found.append(in_mask)
                if limit is not None and len(found) >= limit:
                    break
                continue
            # branch on the undecided argument with the most attackers
            a = max(self.bits(undecided), key=lambda i: (att_of[i] | atk_by[i]).bit_count())
            stack.append((in_mask, out_mask | 1 << a))
            stack.append((in_mask | 1 << a, out_mask))
        return found

    def _propagate(self, in_mask: int, out_mask: int):
        att_of = self.att_of
        while True:
            if in_mask & out_mask or self.attacked(in_mask) & in_mask:
                return None
            hit = self.attacked(in_mask)
            new_out = out_mask | hit
            for i in self.bits(in_mask):
                new_out |= att_of[i]
            new_in = in_mask
            for i in self.bits(self.all & ~(in_mask | new_out)):
                # nothing left that could attack i: it must be IN
                if att_of[i] & ~new_out == 0:
                    new_in |= 1 << i
            for i in self.bits(new_out & ~hit):
                # an OUT argument not yet attacked needs an IN attacker
                options = att_of[i] & ~new_out
                if not options:
                    return None
                if options & (options - 1) == 0:
                    new_in |= options
            if new_in == in_mask and new_out == out_mask:
                return in_mask, out_mask
            in_mask, out_mask = new_in, new_out

    def brute_force(self) -> dict[str, set[int]]:
        """All six semantics over every subset; only for small n."""
        if self.n > BRUTE_FORCE_MAX_N:
            raise ValueError("brute force is for small frameworks only")
        size = 1 << self.n
        hit = [0] * size
        for s in range(1, size):
            low = s & -s
            hit[s] = hit[s ^ low] | self.atk_by[low.bit_length() - 1]
        cf = [s for s in range(size) if hit[s] & s == 0]
        adm = [
            s for s in cf if all(self.att_of[i] & ~hit[s] == 0 for i in self.bits(s))
        ]

        def maximal(sets, key):
            keyed = [(s, key(s)) for s in sets]
            return {
                s for s, k in keyed
                if not any(k2 != k and k & ~k2 == 0 for _, k2 in keyed)
            }

        return {
            "cf": set(cf),
            "adm": set(adm),
            "stb": {s for s in cf if s | hit[s] == self.all},
            "prf": maximal(adm, lambda s: s),
            "sem": maximal(adm, lambda s: s | hit[s]),
            "stg": maximal(cf, lambda s: s | hit[s]),
        }


def parse_extensions(af: AF, text: str) -> set[int]:
    """Read ``solve`` output: one ``[a,b,...]`` line per extension."""
    out: set[int] = set()
    for line in text.splitlines():
        if not (line.startswith("[") and line.endswith("]")):
            raise CheckError(f"malformed extension line {line!r}")
        body = line[1:-1]
        mask = 0
        for name in body.split(",") if body else []:
            if name not in af.index:
                raise CheckError(f"unknown argument {name!r} in output")
            mask |= 1 << af.index[name]
        if mask in out:
            raise CheckError(f"extension {line} printed twice")
        out.add(mask)
    return out


def _pairwise_incomparable(exts, key, what):
    keyed = [key(e) for e in exts]
    for k1 in keyed:
        for k2 in keyed:
            if k1 != k2 and k1 & ~k2 == 0:
                raise CheckError(f"{what} of one extension lies inside another's")


def check_extensions(af: AF, kind: str, exts: set[int], facts: "Facts") -> None:
    """Every property ``kind`` extensions must have on this framework."""
    if kind != "stb" and not exts:
        raise CheckError(f"{kind}: no extension printed, at least one exists")
    for e in exts:
        if kind in ("prf", "sem") and not af.is_adm(e):
            raise CheckError(f"{kind}: extension is not admissible")
        if not af.is_cf(e):
            raise CheckError(f"{kind}: extension is not conflict-free")
        if kind == "stb" and af.range(e) != af.all:
            raise CheckError("stb: extension does not attack everything outside")
        if kind in ("prf", "sem", "stb") and facts.grounded & ~e:
            raise CheckError(f"{kind}: extension misses a grounded argument")
    if kind == "prf":
        _pairwise_incomparable(exts, lambda e: e, "prf extension")
        for e in exts:
            for a in af.bits(af.all & ~e):
                if af.is_adm(e | 1 << a):
                    raise CheckError("prf: extension plus one argument is admissible")
    if kind in ("sem", "stg"):
        _pairwise_incomparable(exts, af.range, f"{kind} range")
    # when a stable extension exists, sem = stg = stb
    if facts.stable is not None and (kind == "stb" or facts.stable and kind != "prf"):
        if exts != facts.stable:
            raise CheckError(f"{kind}: differs from the stable extensions")
    if facts.closed is not None and exts != {facts.closed}:
        raise CheckError(f"{kind}: differs from the closed form")
    if facts.brute is not None and exts != facts.brute[kind]:
        raise CheckError(f"{kind}: differs from brute force")


def check_query(
    af: AF, kind: str, mode: str, arg: str, answer: str, exts: set[int], facts: "Facts"
) -> None:
    """A ``query`` answer against the checked extensions and the grounded
    extension."""
    if answer not in ("YES", "NO"):
        raise CheckError(f"query printed {answer!r}")
    bit = 1 << af.index[arg]
    if mode == "cred":
        expected = any(e & bit for e in exts)
    else:
        expected = all(e & bit for e in exts)
    if (answer == "YES") != expected:
        raise CheckError(f"{mode} {kind} {arg}: {answer} disagrees with the extensions")
    if kind in ("prf", "sem", "stb"):
        if mode == "skep" and facts.grounded & bit and answer != "YES":
            raise CheckError(f"skep {kind} {arg}: grounded argument not accepted")
        if mode == "cred" and facts.grounded_attacks & bit and answer != "NO":
            raise CheckError(f"cred {kind} {arg}: argument attacked by grounded accepted")


class Facts:
    """What the checker knows about one framework before seeing any output."""

    def __init__(self, af: AF, kinds):
        fw = af.fw
        self.grounded = af.grounded()
        self.grounded_attacks = af.attacked(self.grounded)
        self.closed = None if fw.closed is None else sum(1 << i for i in fw.closed)
        self.brute = af.brute_force() if af.n <= BRUTE_FORCE_MAX_N else None
        # the set of stable extensions, where a check needs it
        self.stable = None
        if self.brute is not None:
            self.stable = self.brute["stb"]
        elif self.closed is not None:
            self.stable = {self.closed}
        elif set(kinds) & {"sem", "stg", "stb"}:
            self.stable = set(af.stable_extensions())
