"""Topology axioms and structural predicates: connectedness, the door
property, OCC, T1, singleton profiles, and the open/closed union witness
check for connected door spaces."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache
from itertools import combinations

from .core import (
    CAPS, SUBSET_ORDER, ClaimFalsified, Family, complement_family, full_mask,
    is_lattice, lattice_witness, least_members, points_of, subsets_word)


class TopologyError(ValueError):
    """Axiom violation, with a witness in the message."""


class PreconditionError(ValueError):
    """Operation applied to a space that does not satisfy its hypothesis."""


@dataclass(frozen=True, slots=True)
class Topology(Family):
    """A family that satisfies the topology axioms: its members are the open sets."""

    @property
    def opens(self) -> Topology:  # only for perfbench/workloads.py: t.opens.to_hex()
        return self

    def to_json(self) -> dict:
        return {"n": self.n, "opens": self.to_subsets(), "hex": self.to_hex()}


def is_topology_bits(n: int, bits: int) -> bool:
    """The topology axioms on a raw word: holds the empty set and X, and `is_lattice`."""
    ends = 1 | 1 << full_mask(n)
    return bits & ends == ends and is_lattice(n, bits)


def validate_topology(fam: Family) -> Topology:
    n, bits = fam.n, fam.bits
    if not bits & 1:
        raise TopologyError("empty set missing from the family")
    if not (bits >> full_mask(n)) & 1:
        raise TopologyError(f"whole space {points_of(full_mask(n))} missing from the family")
    if is_lattice(n, bits):
        return Topology(n, bits)
    kind, u, v = lattice_witness(bits)
    op, w = ("|", u | v) if kind == "union" else ("&", u & v)
    raise TopologyError(
        f"{kind} {points_of(u)} {op} {points_of(v)} = {points_of(w)} missing")


@dataclass(frozen=True, slots=True)
class SpaceReport:
    connected: bool
    door: bool
    connected_door: bool
    t1: bool
    open_singletons: tuple[int, ...]
    closed_singletons: tuple[int, ...]
    clopen_proper_count: int

    def to_json(self) -> dict:
        return asdict(self)  # json writes the two tuples as arrays


# Bit 1 << p of a family word is the singleton {p}, so SINGLETON_BITS[n]
# keeps the singletons of an n-point space.
SINGLETON_BITS = tuple(
    sum(1 << (1 << p) for p in range(n)) for n in range(CAPS["ground set"] + 1))


@cache
def _singleton_points(singles: int) -> tuple[int, ...]:
    """The points of a word masked to the singleton bits, one shared tuple per word."""
    return tuple(m.bit_length() - 1 for m in points_of(singles))


@cache
def _shared_report(connected: bool, door: bool, connected_door: bool, t1: bool,
                   open_singles: int, closed_singles: int, clopen_proper: int) -> SpaceReport:
    """The report of these fields, its singletons given as words masked to
    the singleton bits: one-to-one with point tuples, so equal reports share
    one instance (5,630 of them up to n = 6)."""
    return SpaceReport(connected, door, connected_door, t1, _singleton_points(open_singles),
                       _singleton_points(closed_singles), clopen_proper)


def space_report(top: Topology) -> SpaceReport:
    n = top.n
    every = (1 << (1 << n)) - 1
    ends = 1 | (1 << full_mask(n))
    o = top.bits
    c = complement_family(n, o)
    door = o | c == every
    clopen_proper = (o & c & ~ends).bit_count()
    connected = clopen_proper == 0
    connected_door = connected and door

    # Cross-check against the xor characterization: every proper nonempty
    # subset open or closed but not both.
    if connected_door != ((o ^ c) | ends == every):
        raise ClaimFalsified("connected-door characterizations agree",
                             {"n": n, "hex": top.to_hex()})

    singles = SINGLETON_BITS[n]
    return _shared_report(connected, door, connected_door, c & singles == singles,
                          o & singles, c & singles, clopen_proper)


@cache
def _subset_rank(n: int) -> dict[int, int]:
    return {m: i for i, m in enumerate(SUBSET_ORDER[n])}


def _least_sets(n: int, word: int) -> list[int]:
    """The distinct least members U_x of `word`, in `SUBSET_ORDER`.  Each set
    of an OCC witness shrinks to a least set that comes no later, so the
    first witness is of these."""
    return sorted(set(least_members(n, word)), key=_subset_rank(n).__getitem__)


def occ_satisfied(top: Topology) -> tuple[bool, tuple[int, int, int, int] | None]:
    """OCC: no pairwise disjoint nonempty A, B open and C, D closed.

    Returns (True, None) or (False, (A, B, C, D)) with the first witness
    when opens and closeds are each read in `SUBSET_ORDER`: cardinality,
    then sorted point list, so {0, 3} (mask 9) comes before {1, 2} (mask 6).
    """
    closeds = _least_sets(top.n, complement_family(top.n, top.bits))
    for a, b in combinations(_least_sets(top.n, top.bits), 2):
        if a & b:
            continue
        for c, d in combinations(closeds, 2):
            if not (a | b) & c and not (a | b | c) & d:
                return False, (a, b, c, d)
    return True, None


def lemma1_check(top: Topology) -> tuple[bool, tuple[int, int, int] | None]:
    """For every disjoint nonempty pair (A open, B closed) and every
    C inside the remainder: A|C must be open and B|C closed.  The witness
    C is the largest failing one."""
    report = space_report(top)
    if not report.connected_door:
        raise PreconditionError("space is not a connected door space")
    n = top.n
    full = full_mask(n)
    opens = top.bits
    closed = complement_family(n, opens)
    closed_nonempty = points_of(closed & ~1)
    for a in points_of(opens & ~1):
        for b in closed_nonempty:
            if a & b:
                continue
            # C is disjoint from A and B, so A|C = A + C and B|C = B + C.
            rest = full & ~(a | b)
            bad = ((~opens >> a) | (~closed >> b)) & subsets_word(rest)
            if bad:
                return False, (a, b, bad.bit_length() - 1)
    return True, None
