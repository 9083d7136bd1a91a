import pytest

import doorlab.filters as filters
from doorlab.core import (
    ClaimFalsified, DomainError, Family, full_mask, lattice_witness, parse_family, points_of,
    powerset, restrict_family, subsets_word, supersets_word)
from doorlab.filters import (
    algebra_from_partition,
    atoms_of_algebra,
    enumerate_ultrafilters,
    is_algebra,
    is_connected_door_wrt,
    is_filter,
    is_ultrafilter,
    partitions_of,
)
from doorlab.search import topology_words


def complement(m, n):
    return full_mask(n) & ~m


def family_of(n, members):
    return Family(n, sum(1 << m for m in members))


def meet_of(fam):
    """The intersection of the members of `fam`."""
    meet = full_mask(fam.n)
    for m in points_of(fam.bits):
        meet &= m
    return meet


def principal_family(p, sigma):
    """{U in sigma : p in U}: the principal ultrafilter at p."""
    return Family(sigma.n, sigma.bits & supersets_word(sigma.n, 1 << p))


def test_powerset_is_algebra():
    assert is_algebra(powerset(3))


def test_block_algebra_is_algebra():
    fam = parse_family(3, [[], [0, 1], [2], [0, 1, 2]])
    assert is_algebra(fam)


def test_missing_complement_not_algebra():
    assert not is_algebra(parse_family(2, [[], [0], [0, 1]]))


def test_algebra_from_singleton_blocks_is_powerset():
    sigma = algebra_from_partition(3, [0b001, 0b010, 0b100])
    assert sigma.bits == powerset(3).bits


def test_algebra_from_two_blocks():
    sigma = algebra_from_partition(3, [0b011, 0b100])
    assert points_of(sigma.bits) == [0b000, 0b011, 0b100, 0b111]


def test_partition_overlap_error():
    with pytest.raises(DomainError, match="point 0 covered twice"):
        algebra_from_partition(3, [0b001, 0b011])


def test_partition_cover_error():
    with pytest.raises(DomainError, match="not covered"):
        algebra_from_partition(3, [0b001])


@pytest.mark.parametrize("n, blocks, message", [
    (2, [0b100, 0b011], "block 4 out of range for n=2"),
    (2, [-1], "block -1 out of range for n=2"),
    (3, [0b011, -4], "block -4 out of range for n=3"),
    (0, [0b1], "ground set size 0 outside [1, 10]"),
    (0, [], "ground set size 0 outside [1, 10]"),
    (11, [0b11111111111], "ground set size 11 outside [1, 10]"),
])
def test_partition_outside_ground_set_is_named(n, blocks, message):
    # Neither reaches the cover check, which would name point -1.
    with pytest.raises(DomainError) as exc:
        algebra_from_partition(n, blocks)
    assert str(exc.value) == message


def test_filter_test_is_not_the_lattice_check():
    # Intersection- and upward-closed within itself, but not union-closed:
    # a filter with respect to a family that is not an algebra.
    fam = family_of(3, [0b001, 0b011, 0b101])
    assert is_filter(fam, fam)
    assert lattice_witness(fam.bits) == ("union", 0b011, 0b101)


def test_principal_is_ultrafilter():
    sigma = powerset(3)
    fam = family_of(3, [m for m in range(8) if m & 0b010])
    assert is_ultrafilter(fam, sigma)


def test_whole_space_alone_not_ultrafilter():
    sigma = powerset(3)
    assert not is_ultrafilter(family_of(3, [0b111]), sigma)


def test_block_ultrafilter():
    sigma = algebra_from_partition(3, [0b011, 0b100])
    fam = family_of(3, [0b011, 0b111])
    assert is_ultrafilter(fam, sigma)


def test_principal_ultrafilter_examples():
    uf = principal_family(0, powerset(2))
    assert points_of(uf.bits) == [0b01, 0b11]
    uf = principal_family(2, powerset(3))
    assert len(uf) == 4
    sigma = algebra_from_partition(3, [0b011, 0b100])
    uf = principal_family(0, sigma)
    assert points_of(uf.bits) == [0b011, 0b111]
    assert is_ultrafilter(uf, sigma)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumerate_ultrafilters_matches_brute_scan(n):
    sigma = powerset(n)
    brute = sorted(
        bits for bits in range(1 << (1 << n))
        if is_ultrafilter(Family(n, bits), sigma))
    fast = sorted(u.bits for u in enumerate_ultrafilters(sigma))
    assert brute == fast
    assert len(fast) == n
    # Every finite ultrafilter is principal at exactly one point.
    principal = {principal_family(p, sigma).bits for p in range(n)}
    assert principal == set(fast)
    # Each one is principal: its members meet in a nonempty atom of sigma.
    atoms = atoms_of_algebra(sigma)
    for u in enumerate_ultrafilters(sigma):
        assert meet_of(u) != 0
        assert meet_of(u) in atoms


def test_enumerate_block_ultrafilters():
    sigma = algebra_from_partition(3, [0b011, 0b100])
    ufs = enumerate_ultrafilters(sigma)
    assert len(ufs) == 2
    assert {meet_of(u) for u in ufs} == {0b011, 0b100}
    assert [meet_of(u) for u in ufs] == atoms_of_algebra(sigma)


def test_nonprincipal_ultrafilter_witness_names_atom(monkeypatch):
    monkeypatch.setattr(filters, "is_ultrafilter", lambda fam, sigma: False)
    sigma = algebra_from_partition(3, [0b110, 0b001])
    with pytest.raises(ClaimFalsified) as exc:
        enumerate_ultrafilters(sigma)
    assert exc.value.witness == {"sigma": sigma.to_subsets(), "atom": [0]}


def reference_partitions_of(n):
    """Depth-first: point p goes into each open block in turn, then into a
    new block; the reference route for the level-by-level build."""
    out = []

    def recurse(point, blocks):
        if point == n:
            out.append(list(blocks))
            return
        bit = 1 << point
        for i in range(len(blocks)):
            blocks[i] |= bit
            recurse(point + 1, blocks)
            blocks[i] &= ~bit
        blocks.append(bit)
        recurse(point + 1, blocks)
        blocks.pop()

    recurse(0, [])
    return out


@pytest.mark.parametrize("n", range(7))
def test_partitions_match_depth_first_reference(n):
    # Same partitions, same blocks, same order; Bell numbers 1, 1, 2, 5, 15, 52, 203.
    assert partitions_of(n) == reference_partitions_of(n)
    assert len(partitions_of(n)) == [1, 1, 2, 5, 15, 52, 203][n]


def test_atoms_of_partition_algebra():
    for n in (2, 3, 4):
        for blocks in partitions_of(n):
            sigma = algebra_from_partition(n, blocks)
            assert sorted(atoms_of_algebra(sigma)) == sorted(blocks)
            assert len(sigma) == 1 << len(blocks)
            assert len(enumerate_ultrafilters(sigma)) == len(blocks)


def reference_atoms_of_algebra(sigma):
    """The nonempty members m that are the only nonempty member inside m: the
    scan of `atoms_of_algebra` before `least_members`."""
    return [m for m in points_of(sigma.bits & ~1)
            if sigma.bits & subsets_word(m) & ~1 == 1 << m]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_atoms_match_the_subset_scan(n):
    for blocks in partitions_of(n):
        sigma = algebra_from_partition(n, blocks)
        assert atoms_of_algebra(sigma) == reference_atoms_of_algebra(sigma)


def test_restrict_principal_ultrafilter():
    # Restriction to a set containing the point is the principal
    # ultrafilter on that set.
    uf = principal_family(0, powerset(3))
    got = restrict_family(uf, 0b011)
    local = principal_family(0, powerset(2))
    assert got.bits == local.bits


def test_exactly_one_of_u_or_complement():
    for n in (2, 3):
        sigma = powerset(n)
        for u in enumerate_ultrafilters(sigma):
            for m in points_of(sigma.bits):
                assert (m in u) != (complement(m, n) in u)


# Per-member loops: the reference routes for the bitset predicates.

def reference_is_algebra(fam):
    if len(fam) == 0:
        return False
    members = points_of(fam.bits)
    if any(complement(u, fam.n) not in fam for u in members):
        return False
    return all((u | v) in fam for i, u in enumerate(members) for v in members[i + 1:])


def reference_is_filter(fam, sigma):
    members = points_of(fam.bits)
    if not members or 0 in fam:
        return False
    if any((u & v) not in fam for u in members for v in members):
        return False
    return all(a in fam for u in members for a in points_of(sigma.bits) if u & ~a == 0)


def reference_is_ultrafilter(fam, sigma):
    if not reference_is_filter(fam, sigma):
        return False
    return all((u in fam) != (complement(u, fam.n) in fam) for u in points_of(sigma.bits))


def reference_is_connected_door_wrt(top_family, sigma):
    n = sigma.n
    if top_family.bits & ~sigma.bits:
        return False
    return all((u in top_family) != (complement(u, n) in top_family)
               for u in points_of(sigma.bits) if u not in (0, full_mask(n)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_principal_filter_test_matches_pair_loop_within_topologies(n):
    # A topology is closed under meets but need not be an algebra: every
    # subfamily of each one, the empty family included.
    for sigma_bits in topology_words(n)[0]:
        sigma = Family(n, sigma_bits)
        sub = sigma_bits
        while True:
            fam = Family(n, sub)
            assert is_filter(fam, sigma) == reference_is_filter(fam, sigma)
            if sub == 0:
                break
            sub = (sub - 1) & sigma_bits


@pytest.mark.parametrize("n", [1, 2, 3])
def test_complement_predicates_match_per_member_loops(n):
    for blocks in partitions_of(n):
        sigma = algebra_from_partition(n, blocks)
        sub = sigma.bits
        while True:
            fam = Family(n, sub)
            assert is_algebra(fam) == reference_is_algebra(fam)
            assert is_filter(fam, sigma) == reference_is_filter(fam, sigma)
            assert is_ultrafilter(fam, sigma) == reference_is_ultrafilter(fam, sigma)
            assert (is_connected_door_wrt(fam, sigma)
                    == reference_is_connected_door_wrt(fam, sigma))
            if sub == 0:
                break
            sub = (sub - 1) & sigma.bits


def test_ground_set_mismatch_is_refused():
    # Read on two points, the three-point word 0b1011 would pass as a
    # connected door family of the power set.
    with pytest.raises(DomainError, match="ground sets differ"):
        is_connected_door_wrt(Family(3, 0b1011), powerset(2))
    with pytest.raises(DomainError, match="ground sets differ"):
        is_filter(Family(3, 0b1010), powerset(2))


@pytest.mark.parametrize("n, blocks, message", [
    (3, [], "partition needs at least one block"),
    (3, [0b011, 0, 0b100], "empty block in partition"),
])
def test_partition_without_blocks_or_with_an_empty_block_is_named(n, blocks, message):
    with pytest.raises(DomainError) as exc:
        algebra_from_partition(n, blocks)
    assert str(exc.value) == message


def test_filter_outside_the_algebra_is_refused():
    sigma = algebra_from_partition(3, [0b011, 0b100])
    with pytest.raises(DomainError) as exc:
        is_filter(family_of(3, [0b001, 0b111]), sigma)
    assert str(exc.value) == "family is not contained in the algebra"


def test_ultrafilters_of_a_non_algebra_are_refused():
    with pytest.raises(DomainError) as exc:
        enumerate_ultrafilters(parse_family(2, [[], [0], [0, 1]]))
    assert str(exc.value) == "family is not an algebra"


def test_family_outside_the_algebra_is_not_connected_door_wrt_it():
    # The included-point space at 0: connected door on the power set, but
    # {0} is no member of the block algebra {{0, 1}, {2}}.
    fam = family_of(3, [0b000, 0b001, 0b011, 0b101, 0b111])
    assert is_connected_door_wrt(fam, powerset(3)) is True
    assert is_connected_door_wrt(fam, algebra_from_partition(3, [0b011, 0b100])) is False
