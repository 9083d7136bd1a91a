"""Algebras of sets, filters, and ultrafilters (absolute and relative to an
algebra).  On a finite ground set every algebra is the block algebra of a
partition and every ultrafilter is principal at a block."""

from __future__ import annotations

from typing import Sequence

from .core import (
    ClaimFalsified, DomainError, Family, check_ground, complement_family, full_mask,
    is_lattice, least_members, points_of, supersets_word)


def is_algebra(fam: Family) -> bool:
    """Nonempty and closed under complement and pairwise union (and
    therefore contains the empty set and X).  Under complements, union and
    intersection closure are equivalent, so the lattice check decides it."""
    return (len(fam) > 0 and complement_family(fam.n, fam.bits) == fam.bits
            and is_lattice(fam.n, fam.bits))


def algebra_from_partition(n: int, blocks: Sequence[int]) -> Family:
    """All unions of blocks of a partition of the ground set."""
    check_ground(n)
    if not blocks:
        raise DomainError("partition needs at least one block")
    seen = 0
    for b in blocks:
        if b < 0 or b >> n:
            raise DomainError(f"block {b} out of range for n={n}")
        if b == 0:
            raise DomainError("empty block in partition")
        if b & seen:
            p = (b & seen).bit_length() - 1
            raise DomainError(f"point {p} covered twice by partition")
        seen |= b
    if seen != full_mask(n):
        p = (full_mask(n) & ~seen).bit_length() - 1
        raise DomainError(f"point {p} not covered by partition")
    # The blocks are disjoint, so m | b = m + b for every union m of the
    # blocks before b, as in core.subsets_word.
    bits = 1
    for b in blocks:
        bits |= bits << b
    return Family(n, bits)


def atoms_of_algebra(sigma: Family) -> list[int]:
    """The atoms of the algebra sigma, ascending: its partition blocks, which
    are the distinct least members U_x of its points."""
    return sorted(set(least_members(sigma.n, sigma.bits)))


def is_filter(fam: Family, sigma: Family) -> bool:
    """Nonempty, excludes the empty set, intersection-closed, and upward
    closed within sigma, for sigma closed under meets (an algebra or a
    topology).  Then a filter is principal: its least member lo is the meet
    of its members, and it is every member of sigma holding lo."""
    if fam.n != sigma.n:
        raise DomainError("filter and algebra ground sets differ")
    if fam.bits & ~sigma.bits:
        raise DomainError("family is not contained in the algebra")
    lo = (fam.bits & -fam.bits).bit_length() - 1
    return lo > 0 and fam.bits == sigma.bits & supersets_word(fam.n, lo)


def is_ultrafilter(fam: Family, sigma: Family) -> bool:
    """A filter within sigma containing exactly one of U, U^c for every
    U in sigma."""
    f = fam.bits
    return is_filter(fam, sigma) and not sigma.bits & ~(f ^ complement_family(fam.n, f))


def enumerate_ultrafilters(sigma: Family) -> list[Family]:
    """All ultrafilters with respect to sigma: the principal one at each
    atom (block), in `atoms_of_algebra` order.  Only that each one is an
    ultrafilter is checked here.  Completeness, that every ultrafilter on a
    finite algebra is principal, is the classical fact that "exactly the
    ultrafilters" in `verify_relative` relies on; the tests check it by
    brute scan."""
    if not is_algebra(sigma):
        raise DomainError("family is not an algebra")
    out = []
    for atom in atoms_of_algebra(sigma):
        u = Family(sigma.n, sigma.bits & supersets_word(sigma.n, atom))
        if not is_ultrafilter(u, sigma):
            raise ClaimFalsified("the principal filter at each atom is an ultrafilter",
                                 {"sigma": sigma.to_subsets(), "atom": points_of(atom)})
        out.append(u)
    return out


def is_connected_door_wrt(top_family: Family, sigma: Family) -> bool:
    """Every proper nonempty member of sigma is open or closed but not both
    (openness meaning membership in top_family)."""
    if top_family.n != sigma.n:
        raise DomainError("topology and algebra ground sets differ")
    if top_family.bits & ~sigma.bits:
        return False
    t = top_family.bits
    proper = sigma.bits & ~(1 | (1 << full_mask(sigma.n)))
    return not proper & ~(t ^ complement_family(sigma.n, t))


def partitions_of(n: int) -> list[list[int]]:
    """All set partitions of {0,...,n-1}, blocks as masks: each point joins
    one block of a partition of the points before it, or opens a new block."""
    parts: list[list[int]] = [[]]
    for point in range(n):
        bit = 1 << point
        parts = [p[:i] + [p[i] | bit] + p[i + 1:] if i < len(p) else p + [bit]
                 for p in parts for i in range(len(p) + 1)]
    return parts
