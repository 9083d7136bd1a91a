import random

import pytest
from hypothesis import given, strategies as st

from doorlab.core import (
    DomainError,
    Family,
    complement_family,
    full_mask,
    is_lattice,
    lattice_witness,
    least_members,
    mask_from_points,
    parse_family,
    points_of,
    powerset,
    restrict_family,
    subsets_word,
    supersets_word,
)
from doorlab.filters import algebra_from_partition, partitions_of
from doorlab.search import census, topology_words
from doorlab.topology import Topology, TopologyError, validate_topology


def test_parse_family_sierpinski():
    fam = parse_family(2, [[], [0], [0, 1]])
    assert points_of(fam.bits) == [0b00, 0b01, 0b11]


def test_parse_family_dedup():
    fam = parse_family(3, [[0, 1], [0, 1]])
    assert points_of(fam.bits) == [0b011]


def reference_complement_family(n, bits):
    """Per-mask definition: m is a member iff its complement is in bits."""
    full = full_mask(n)
    return sum(1 << m for m in range(1 << n) if (bits >> (full & ~m)) & 1)


def words_to_check(n):
    """Every family word on n points for n <= 3; above that, 300 seeded
    random words together with the empty and the full word."""
    if n <= 3:
        return range(1 << (1 << n))
    rng = random.Random(n)
    return [0, (1 << (1 << n)) - 1] + [rng.getrandbits(1 << n) for _ in range(300)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_complement_family_matches_per_mask_definition(n):
    for bits in words_to_check(n):
        assert complement_family(n, bits) == reference_complement_family(n, bits)


def reference_points_shift(word):
    """The shift loop `points_of` used to be."""
    out, i = [], 0
    while word:
        if word & 1:
            out.append(i)
        word >>= 1
        i += 1
    return out


def reference_members(bits):
    """The lowest-set-bit generator `Family.members` used to be."""
    while bits:
        lsb = bits & -bits
        yield lsb.bit_length() - 1
        bits ^= lsb


def test_points_of_matches_reference():
    rng = random.Random(64)
    words = [w for n in (1, 2, 3) for w in words_to_check(n)]
    words += [rng.getrandbits(64) for _ in range(2000)] + [(1 << 64) - 1]
    for w in words:
        assert points_of(w) == reference_points_shift(w) == list(reference_members(w))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_subset_words_match_per_mask_definitions(n):
    for s in range(1 << n):
        assert subsets_word(s) == sum(1 << m for m in range(1 << n) if m & ~s == 0)
        assert supersets_word(n, s) == sum(1 << m for m in range(1 << n) if s & ~m == 0)


def test_parse_family_out_of_range():
    with pytest.raises(DomainError, match="point 5 out of range"):
        parse_family(2, [[5]])


@pytest.mark.parametrize("n,bits,message", [
    (0, 0, "ground set size 0 outside [1, 10]"),
    (11, 0, "ground set size 11 outside [1, 10]"),
    (3, -1, "family bits out of range for n=3"),
    (3, 1 << 8, "family bits out of range for n=3"),
    (6, 1 << 64, "family bits out of range for n=6"),
    (1, 1 << 2, "family bits out of range for n=1"),
])
def test_family_error_messages(n, bits, message):
    with pytest.raises(DomainError) as exc:
        Family(n, bits)
    assert str(exc.value) == message


@pytest.mark.parametrize("n,width", [(1, 1), (2, 1), (3, 2), (4, 4), (5, 8), (6, 16), (10, 256)])
def test_family_hex_width(n, width):
    assert Family(n, 1).to_hex() == "0" * (width - 1) + "1"
    assert len(Family(n, (1 << (1 << n)) - 1).to_hex()) == width


def test_powerset_sizes():
    assert len(powerset(1)) == 2
    assert len(powerset(2)) == 4
    assert len(powerset(3)) == 8


def reference_lattice_witness(bits):
    """Members read by a scan over every mask, kept as the reference
    route."""
    members = [m for m in range(bits.bit_length()) if (bits >> m) & 1]
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            for kind, w in (("union", u | v), ("intersection", u & v)):
                if not (bits >> w) & 1:
                    return (kind, u, v)
    return None


@pytest.mark.parametrize("n", [2, 3])
def test_lattice_witness_matches_reference(n):
    for bits in range(1 << (1 << n)):
        assert lattice_witness(bits) == reference_lattice_witness(bits)


def test_is_lattice_is_the_pair_check_on_every_word():
    # Every family word on up to four points, the empty family included.
    for n in (1, 2, 3, 4):
        for bits in range(1 << (1 << n)):
            assert is_lattice(n, bits) == (lattice_witness(bits) is None)


def reference_axiom_message(n, bits):
    """The `TopologyError` message of the first violated axiom, read off
    `reference_lattice_witness`; None for a topology."""
    if not bits & 1:
        return "empty set missing from the family"
    if not (bits >> full_mask(n)) & 1:
        return f"whole space {list(range(n))} missing from the family"
    witness = reference_lattice_witness(bits)
    if witness is None:
        return None
    kind, u, v = witness
    op, w = ("|", u | v) if kind == "union" else ("&", u & v)
    return f"{kind} {points_of(u)} {op} {points_of(v)} = {points_of(w)} missing"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_validate_topology_messages_match_the_pair_reference(n):
    for bits in range(1 << (1 << n)):
        expected = reference_axiom_message(n, bits)
        if expected is None:
            assert validate_topology(Family(n, bits)) == Topology(n, bits)
            continue
        with pytest.raises(TopologyError) as exc:
            validate_topology(Family(n, bits))
        assert str(exc.value) == expected


def reference_least_members(n, word):
    """U_x for each point x from one pass over the members in ascending
    order, the first member holding a point being its U_x: the walk of the
    one-point extension before `least_members`, kept as the reference."""
    mins, covered = [0] * n, 0
    for m in points_of(word):
        for x in points_of(m & ~covered):
            mins[x] = m
        if (covered := covered | m) == full_mask(n):
            break
    return mins


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_least_members_match_the_ascending_walk(n):
    # Every topology and its closed-set word up to five points, with every
    # block algebra; on six points the 343 door words and their closed sets.
    if n == 6:
        words = [t.bits for t in census(6)[1]["door"]]
    else:
        words = topology_words(n)[0]
        words += [algebra_from_partition(n, b).bits for b in partitions_of(n)]
    for word in words + [complement_family(n, w) for w in words]:
        assert least_members(n, word) == reference_least_members(n, word)


def family_of(n, members):
    return Family(n, sum(1 << m for m in members))


def test_restrict_supersets():
    # All supersets of {0} on three points, restricted to {0, 1}.
    fam = family_of(3, [m for m in range(8) if m & 1])
    got = restrict_family(fam, 0b011)
    assert got.n == 2
    assert points_of(got.bits) == [0b01, 0b11]


def test_restrict_powerset_to_singleton():
    got = restrict_family(powerset(3), 0b100)
    assert got.n == 1
    assert points_of(got.bits) == [0, 1]


def test_restrict_empty_result():
    fam = family_of(3, [0b111])
    got = restrict_family(fam, 0b011)
    assert len(got) == 0


def test_restrict_to_full_is_identity():
    fam = parse_family(3, [[0], [1, 2], []])
    assert restrict_family(fam, full_mask(3)).bits == fam.bits


@pytest.mark.parametrize("a, message", [
    (0b1000, "subset mask 8 out of range for n=3"),
    (-1, "subset mask -1 out of range for n=3"),
    (0, "cannot restrict onto the empty set"),
])
def test_restrict_family_refusals_are_named(a, message):
    with pytest.raises(DomainError) as exc:
        restrict_family(powerset(3), a)
    assert str(exc.value) == message


def test_serialization_roundtrip_exhaustive_n2():
    for bits in range(1 << 4):
        fam = Family(2, bits)
        assert parse_family(2, fam.to_subsets()).bits == bits
        assert int(fam.to_hex(), 16) == bits


@given(st.integers(min_value=0, max_value=255))
def test_serialization_roundtrip_n3(bits):
    fam = Family(3, bits)
    assert parse_family(3, fam.to_subsets()).bits == bits


def test_subsets_sorted_by_cardinality_then_lex():
    fam = parse_family(3, [[0, 1], [2], [0], [1, 2], []])
    assert fam.to_subsets() == [[], [0], [2], [0, 1], [1, 2]]


def reference_compress_mask(subset, within):
    """The bit-by-bit re-indexing `core.compress_mask` used to be: subset (a
    submask of `within`) onto the points of `within`, renumbered in
    increasing order."""
    out = 0
    i = 0
    m = within
    while m:
        lsb = m & -m
        if subset & lsb:
            out |= 1 << i
        i += 1
        m ^= lsb
    return out


def reference_restrict_family(fam, a):
    """`restrict_family` through the reference re-indexing."""
    bits = 0
    for m in points_of(fam.bits & subsets_word(a)):
        bits |= 1 << reference_compress_mask(m, a)
    return Family(a.bit_count(), bits)


def restrict_cases():
    """Every family and every nonempty A for n <= 3; above that, 300 seeded
    random (family, A) pairs for each n up to 10."""
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            for a in range(1, 1 << n):
                yield Family(n, bits), a
    for n in range(4, 11):
        rng = random.Random(n)
        for _ in range(300):
            yield Family(n, rng.getrandbits(1 << n)), rng.randrange(1, 1 << n)


def test_restrict_family_matches_compress_reference():
    for fam, a in restrict_cases():
        assert restrict_family(fam, a) == reference_restrict_family(fam, a)


def expand_mask(local, within):
    """Inverse of the re-indexing onto within: bit i of local goes to the
    i-th point of within."""
    points = points_of(within)
    return sum(1 << points[i] for i in range(len(points)) if (local >> i) & 1)


def test_compress_expand_inverse():
    # Restricting the one-member family {expand_mask(local)} onto within
    # re-indexes that member to local.
    within = 0b10110
    for local in range(1 << 3):
        fam = family_of(5, [expand_mask(local, within)])
        assert restrict_family(fam, within).bits == 1 << local


@given(st.lists(st.integers(min_value=0, max_value=6), max_size=12))
def test_order_fact_subset_sums_in_binary_order(labels):
    # Point p joins block labels[p]; label 0 leaves it out.  The nonzero
    # blocks are disjoint nonzero masks, and their subset sums, sorted, are
    # the sums over the index sets read in binary order.
    blocks = sorted({sum(1 << p for p, x in enumerate(labels) if x == b)
                     for b in set(labels) - {0}})
    sums = [sum(d for i, d in enumerate(blocks) if (j >> i) & 1) for j in range(1 << len(blocks))]
    assert sorted(sums) == sums
    word = 1
    for d in blocks:
        word |= word << d
    assert points_of(word) == sums


def test_mask_points_roundtrip():
    assert points_of(mask_from_points([0, 2, 3], 4)) == [0, 2, 3]


def test_ground_cap():
    assert len(powerset(10)) == 1 << 10
    with pytest.raises(DomainError, match=r"ground set size 11 outside \[1, 10\]"):
        powerset(11)
    with pytest.raises(DomainError, match=r"ground set size 0 outside \[1, 10\]"):
        powerset(0)
