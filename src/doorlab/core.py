"""Ground-set arithmetic: subsets as bitmasks, families as power-set bitsets.

A subset of X = {0, ..., n-1} is an n-bit integer (bit i set iff point i is
in the subset).  A family of subsets is a 2^n-bit integer indexed by subset
mask.  CAPS["ground set"] bounds n and so the width of every family word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Iterable

# The size caps.  "ground set" bounds n everywhere and sizes every per-n
# table; each other entry is the largest n a job accepts, keyed by the job's
# name in the error message.
CAPS = {
    "ground set": 10,
    "raw_scan": 4,
    "closure_dfs": 6,
    "occ-door enumeration": 6,
    "brute solution scan": 4,
    "modular solution scan": 6,
    "counts report": 6,
}


class DomainError(ValueError):
    """Input outside the declared domain (bad point index, bad mask, ...)."""


class CapabilityError(ValueError):
    """Requested scale exceeds the mode's cap."""


class ClaimFalsified(Exception):
    """A claim the engine checks failed; `witness` is JSON-ready."""

    def __init__(self, claim: str, witness) -> None:
        super().__init__(f"{claim}: {witness}")
        self.claim = claim
        self.witness = witness


def check_cap(job: str, n: int) -> None:
    if n > CAPS[job]:
        raise CapabilityError(f"{job} caps at n = {CAPS[job]}")
    check_ground(n)


def check_ground(n: int) -> None:
    if not 1 <= n <= CAPS["ground set"]:
        raise DomainError(f"ground set size {n} outside [1, {CAPS['ground set']}]")


# WORD_END[n] bounds the family words of n points; HEX_SPEC[n] formats one
# as 2^n / 4 hex digits.
WORD_END = tuple(1 << (1 << n) for n in range(CAPS["ground set"] + 1))
HEX_SPEC = tuple(f"0{(1 << n) // 4 or 1}x" for n in range(CAPS["ground set"] + 1))


def full_mask(n: int) -> int:
    return (1 << n) - 1


# REV8[x] is the byte x with its eight bits in reverse order.
REV8 = bytes(int(f"{x:08b}"[::-1], 2) for x in range(256))


def complement_family(n: int, bits: int) -> int:
    """The family of complements of the members of `bits`.  The complement
    of mask m is full - m, so this is the family's 2^n-bit word reversed:
    its bytes, each reversed, read in the opposite order, less the pad bits
    that round 2^n up to whole bytes."""
    k = ((1 << n) + 7) // 8
    pad = 8 * k - (1 << n)
    return int.from_bytes(bits.to_bytes(k, "big").translate(REV8), "little") >> pad


def subsets_word(s: int) -> int:
    """The family word of every subset of mask s.  It starts from {empty
    set}; each bit b of s doubles it by w |= w << b, since m + b = m | b
    for every m without b.  The order fact: disjoint nonzero masks
    d_0 < ... < d_{k-1} are superincreasing (the top bit of d_i lies above
    every bit of the smaller ones), so `points_of` lists the word of their
    subset sums with the sum over J at position sum(2^i for i in J)."""
    w = 1
    while s:
        lsb = s & -s
        w |= w << lsb
        s ^= lsb
    return w


def supersets_word(n: int, s: int) -> int:
    """The family word of every superset of mask s within {0,...,n-1}.
    Each superset is s | c for one c disjoint from s, and then s | c = s + c,
    so the word is the subset word of the complement of s shifted up by s."""
    return subsets_word(full_mask(n) & ~s) << s


@cache
def _lanes(n: int) -> tuple[int, ...]:
    """The word of the sets holding x, for each point x of n points."""
    return tuple(supersets_word(n, 1 << x) for x in range(n))


def least_members(n: int, word: int) -> list[int]:
    """U_x for each point x, the lowest set bit of `word & lanes[x]`: in a
    family closed under meets that covers the points, U_x lies within every
    member holding x, so it is the numerically least one."""
    return [((w := word & lane) & -w).bit_length() - 1 for lane in _lanes(n)]


def is_lattice(n: int, bits: int) -> bool:
    """Whether the family word `bits` is closed under union and meet: it
    equals R, the masks between its meet and union that hold V_x for each
    point x they hold, V_x the least member holding x.  R is closed under
    both for any V_x holding x, and a closed family is its own R, each
    member being the meet or the union of its V_x = U_x (Birkhoff, 1937)."""
    r = WORD_END[n] - 1
    for lane, v in zip(_lanes(n), least_members(n, bits)):
        r &= ~lane if v < 0 else ~lane | supersets_word(n, v)
        if not bits & ~lane:  # every member holds x
            r &= lane
    return r == bits


def lattice_witness(bits: int) -> tuple[str, int, int] | None:
    """The first pair u < v of members of the family word `bits`, in
    ascending order, whose union or intersection is not a member, as
    ("union" | "intersection", u, v); None when the family is closed under
    both."""
    members = points_of(bits)
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            if not (bits >> (u | v)) & 1:
                return ("union", u, v)
            if not (bits >> (u & v)) & 1:
                return ("intersection", u, v)
    return None


def mask_from_points(points: Iterable[int], n: int) -> int:
    mask = 0
    for p in points:
        if not 0 <= p < n:
            raise DomainError(f"point {p} out of range for ground set of size {n}")
        mask |= 1 << p
    return mask


def points_of(word: int) -> list[int]:
    """The set bits of `word` in ascending order: the points of a subset
    mask, or the member masks of a family word."""
    out = []
    while word:
        low = word & -word
        out.append(low.bit_length() - 1)
        word ^= low
    return out


# SUBSET_ORDER[n] is the 2^n masks of n points by cardinality, then sorted
# point list: the order in which `combinations` yields each size's masks.
SUBSET_ORDER = tuple(
    tuple(sum(c) for k in range(n + 1) for c in combinations([1 << p for p in range(n)], k))
    for n in range(CAPS["ground set"] + 1))


def in_subset_order(n: int, word: int) -> list[int]:
    """The member masks of the n-point word `word`, in `SUBSET_ORDER[n]`'s combinations order."""
    return [m for m in SUBSET_ORDER[n] if (word >> m) & 1]


@dataclass(frozen=True, slots=True)
class Family:
    """A set of subsets of {0,...,n-1}, stored as a 2^n-bit membership bitset."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if not (0 < self.n <= CAPS["ground set"] and 0 <= self.bits < WORD_END[self.n]):
            check_ground(self.n)
            raise DomainError(f"family bits out of range for n={self.n}")

    def __contains__(self, subset: int) -> bool:
        return bool((self.bits >> subset) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def to_subsets(self) -> list[list[int]]:
        """Members as point lists, sorted by (cardinality, lexicographic)."""
        return [points_of(m) for m in in_subset_order(self.n, self.bits)]

    def to_hex(self) -> str:
        return format(self.bits, HEX_SPEC[self.n])


def parse_family(n: int, subsets: list[list[int]]) -> Family:
    """Build a family from point lists, as decoded from JSON; duplicates
    are collapsed.  A member holding a list is refused as nested too deeply,
    whatever depth the JSON decoder reaches before its own limit."""
    check_ground(n)
    if not isinstance(subsets, list):
        raise DomainError("a family must be a list of point lists")
    bits = 0
    for pts in subsets:
        if isinstance(pts, list) and any(type(p) is list for p in pts):
            raise DomainError("family is nested too deeply")
        if not isinstance(pts, list) or not all(type(p) is int for p in pts):
            raise DomainError(f"family member {pts!r} is not a list of integer points")
        bits |= 1 << mask_from_points(pts, n)
    return Family(n, bits)


def powerset(n: int) -> Family:
    check_ground(n)
    return Family(n, (1 << (1 << n)) - 1)


def restrict_family(fam: Family, a: int) -> Family:
    """F|_A = {F in fam : F subset of A}, re-indexed onto the points of A:
    local mask i is the i-th subset of A (the order fact, `subsets_word`)."""
    if not 0 <= a <= full_mask(fam.n):
        raise DomainError(f"subset mask {a} out of range for n={fam.n}")
    if not a:  # the paper restricts only to nonempty subsets
        raise DomainError("cannot restrict onto the empty set")
    local = points_of(subsets_word(a))
    return Family(a.bit_count(), sum(1 << i for i, m in enumerate(local) if fam.bits >> m & 1))
