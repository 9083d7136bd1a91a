import random
from dataclasses import fields, replace

import pytest

import doorlab.topology
from doorlab.classify import FormDescriptor, construct_topology, descriptors
from doorlab.core import (
    SUBSET_ORDER, ClaimFalsified, Family, complement_family, in_subset_order, parse_family,
    points_of, powerset)
from doorlab.search import census, enumerate_topologies
from doorlab.topology import (
    PreconditionError,
    SpaceReport,
    Topology,
    TopologyError,
    _least_sets,
    lemma1_check,
    occ_satisfied,
    space_report,
    validate_topology,
)


def subset_key(mask):
    """The reference member order: cardinality, then sorted point list."""
    return (mask.bit_count(), points_of(mask))


def is_open(top, m):
    return m in top


def is_closed(top, m):
    return (((1 << top.n) - 1) & ~m) in top


def sierpinski():
    return validate_topology(parse_family(2, [[], [0], [0, 1]]))


def discrete(n):
    return validate_topology(powerset(n))


def indiscrete(n):
    return validate_topology(parse_family(n, [[], list(range(n))]))


def test_validate_sierpinski():
    assert is_open(sierpinski(), 0b01)


def test_validate_missing_whole_space():
    with pytest.raises(TopologyError, match="missing"):
        validate_topology(parse_family(2, [[], [0], [1]]))


def test_validate_missing_union():
    with pytest.raises(TopologyError, match="union"):
        validate_topology(parse_family(3, [[], [0], [1], [0, 1, 2]]))


@pytest.mark.parametrize("n,subsets,message", [
    (2, [[0], [0, 1]], "empty set missing from the family"),
    (2, [[], [0]], "whole space [0, 1] missing from the family"),
    (3, [[], [0], [1], [0, 1, 2]], "union [0] | [1] = [0, 1] missing"),
    (3, [[], [0, 1], [1, 2], [0, 1, 2]], "intersection [0, 1] & [1, 2] = [1] missing"),
])
def test_validate_exact_messages(n, subsets, message):
    with pytest.raises(TopologyError) as exc:
        validate_topology(parse_family(n, subsets))
    assert str(exc.value) == message


def test_space_report_raises_when_its_two_characterizations_disagree():
    # Built unchecked, the empty family on one point is not door by its
    # complement word, but connected door by the xor word, which takes the
    # empty set and X as given.
    with pytest.raises(ClaimFalsified) as exc:
        space_report(Topology(1, 0))
    assert exc.value.claim == "connected-door characterizations agree"
    assert exc.value.witness == {"n": 1, "hex": "0"}


def reference_space_report(top):
    """The per-subset route: test every subset for openness and closedness."""
    n = top.n
    full = (1 << n) - 1
    clopen_proper = 0
    door = True
    for m in range(1 << n):
        is_o, is_c = is_open(top, m), is_closed(top, m)
        if not is_o and not is_c:
            door = False
        if is_o and is_c and m not in (0, full):
            clopen_proper += 1
    closed_singles = tuple(p for p in range(n) if is_closed(top, 1 << p))
    return SpaceReport(
        connected=clopen_proper == 0,
        door=door,
        connected_door=clopen_proper == 0 and door,
        t1=len(closed_singles) == n,
        open_singletons=tuple(p for p in range(n) if is_open(top, 1 << p)),
        closed_singletons=closed_singles,
        clopen_proper_count=clopen_proper,
    )


# Distinct reports per n, counted before equal reports were shared.
DISTINCT_REPORTS = {1: 1, 2: 4, 3: 29, 4: 185, 5: 1043}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_space_report_matches_per_subset_reference(n):
    seen = {}
    for top in enumerate_topologies(n)[0]:
        r = space_report(top)
        assert r == reference_space_report(top)
        # Equal reports are one shared instance.
        assert seen.setdefault(r, r) is r
    assert len(seen) == DISTINCT_REPORTS[n]


def test_replace_leaves_shared_report_unchanged():
    shared = space_report(discrete(3))
    fields = shared.to_json()
    changed = replace(shared, t1=not shared.t1)
    assert changed is not shared and changed.t1 != shared.t1
    assert space_report(discrete(3)) is shared and shared.to_json() == fields


def test_equal_singletons_share_one_tuple():
    # Distinct reports with equal open or closed singletons hold one tuple.
    reports = {space_report(top) for top in enumerate_topologies(4)[0]}
    first = {}
    for rep in reports:
        for points in (rep.open_singletons, rep.closed_singletons):
            assert first.setdefault(points, points) is points
    assert len(first) < len(reports)


def point_spaces(n):
    """The excluded-point and included-point spaces at every point."""
    return [construct_topology(FormDescriptor(kind, a=p), n)
            for kind in ("ExcludedPoint", "IncludedPoint") for p in range(n)]


@pytest.mark.parametrize("n", range(1, 11))
def test_singleton_table_matches_point_loop(n):
    # The report's singleton table (open and closed singletons, and t1) is
    # read from the singleton bits of its words; here, point by point.
    if n <= 4:
        tops = enumerate_topologies(n)[0]
    else:
        tops = [discrete(n), indiscrete(n), *point_spaces(n)]
    for top in tops:
        rep = space_report(top)
        closed = tuple(p for p in range(n) if is_closed(top, 1 << p))
        assert rep.open_singletons == tuple(p for p in range(n) if is_open(top, 1 << p))
        assert rep.closed_singletons == closed
        assert rep.t1 == (len(closed) == n)


@pytest.mark.parametrize("n", range(11))
def test_subset_order_is_the_subset_key_sort(n):
    assert SUBSET_ORDER[n] == tuple(sorted(range(1 << n), key=subset_key))


@pytest.mark.parametrize("n", range(1, 11))
def test_member_order_is_the_subset_key_sort(n):
    # `to_subsets` reads the order of a word, and `occ_satisfied` that of
    # its nonempty opens and closeds.
    rng = random.Random(n)
    for _ in range(4):
        w = rng.getrandbits(1 << n)
        expected = sorted(points_of(w), key=subset_key)
        assert Family(n, w).to_subsets() == [points_of(m) for m in expected]
        for word in (w & ~1, complement_family(n, w) & ~1):
            assert in_subset_order(n, word) == sorted(points_of(word), key=subset_key)


def test_per_topology_dataclasses_have_no_dict():
    top = sierpinski()
    for obj in (top, space_report(top)):
        assert not hasattr(obj, "__dict__")


def test_topology_is_its_family():
    # Every route yields the family word itself: no inner Family, no dict.
    tops = [*enumerate_topologies(3)[0], *census(4)[1]["door"], sierpinski(),
            construct_topology(FormDescriptor("Form3", a=0, b=1), 4)]
    assert [f.name for f in fields(Topology)] == ["n", "bits"]
    for top in tops:
        assert isinstance(top, Family)
        assert top.opens is top
        assert not hasattr(top, "__dict__")


def test_report_sierpinski():
    rep = space_report(sierpinski())
    assert rep.connected and rep.door and rep.connected_door


def test_report_discrete():
    rep = space_report(discrete(2))
    assert not rep.connected and rep.door and not rep.connected_door
    assert rep.clopen_proper_count == 2


def test_report_indiscrete_n3():
    rep = space_report(indiscrete(3))
    assert rep.connected and not rep.door


def test_occ_discrete_n4_witness():
    ok, witness = occ_satisfied(discrete(4))
    assert not ok
    assert witness == (0b0001, 0b0010, 0b0100, 0b1000)


def reference_occ_satisfied(top):
    """Closed sets found by testing every subset, kept as the reference
    route."""
    opens = sorted((m for m in points_of(top.bits) if m), key=subset_key)
    closeds = sorted((m for m in range(1, 1 << top.n) if is_closed(top, m)), key=subset_key)
    for ia, a in enumerate(opens):
        for b in opens[ia + 1:]:
            for ic, c in enumerate(closeds):
                for d in closeds[ic + 1:]:
                    if not (a & b or (a | b) & c or (a | b | c) & d):
                        return False, (a, b, c, d)
    return True, None


def reference_lemma1_check(top):
    full = (1 << top.n) - 1
    for a in points_of(top.bits):
        for b in range(1, 1 << top.n):
            if a == 0 or not is_closed(top, b) or a & b:
                continue
            rest = full & ~(a | b)
            for c in range(rest, -1, -1):
                if c & ~rest == 0 and not (is_open(top, a | c) and is_closed(top, b | c)):
                    return False, (a, b, c)
    return True, None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_occ_matches_per_subset_reference(n):
    # On five points, the 131 door words: the ones the census tests.
    for top in census(5)[1]["door"] if n == 5 else enumerate_topologies(n)[0]:
        assert occ_satisfied(top) == reference_occ_satisfied(top)


def reference_least_sets(n, word):
    """The members holding a point that no earlier one holds, read in
    `SUBSET_ORDER`: the walk of `_least_sets` before `least_members`."""
    least, covered = [], 0
    for m in SUBSET_ORDER[n]:
        if (word >> m) & 1 and m & ~covered:
            least.append(m)
            covered |= m
            if covered == (1 << n) - 1:
                break
    return least


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_least_sets_match_the_subset_order_walk(n):
    # Every topology up to five points and the 343 door words on six, each
    # with its closed-set word.
    tops = census(6)[1]["door"] if n == 6 else enumerate_topologies(n)[0]
    for word in [t.bits for t in tops] + [complement_family(n, t.bits) for t in tops]:
        assert _least_sets(n, word) == reference_least_sets(n, word)


def pair_loop_occ_satisfied(top):
    """Every pair of nonempty opens against every pair of nonempty closed
    sets, each in `SUBSET_ORDER`: the route before the least sets."""
    n = top.n
    opens = in_subset_order(n, top.bits & ~1)
    closeds = in_subset_order(n, complement_family(n, top.bits) & ~1)
    for ia, a in enumerate(opens):
        for b in opens[ia + 1:]:
            if a & b:
                continue
            ab = a | b
            for ic, c in enumerate(closeds):
                if c & ab:
                    continue
                for d in closeds[ic + 1:]:
                    if d & (ab | c):
                        continue
                    return False, (a, b, c, d)
    return True, None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_occ_matches_pair_loop(n):
    # Every topology up to five points, the 343 door words on six, and the
    # point and preimage forms on seven.
    if n <= 5:
        tops = enumerate_topologies(n)[0]
    elif n == 6:
        tops = census(6)[1]["door"]
    else:
        kinds = ("ExcludedPoint", "IncludedPoint", "Form1A", "Form1B", "Form3")
        tops = [construct_topology(d, n) for d in descriptors(n, kinds)]
    for top in tops:
        assert occ_satisfied(top) == pair_loop_occ_satisfied(top)


@pytest.mark.parametrize("n", [8, 9, 10])
def test_occ_holds_on_point_spaces(n):
    for top in point_spaces(n):
        assert occ_satisfied(top) == (True, None)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lemma1_matches_per_subset_reference(n):
    for top in census(n)[1]["connected_door"]:
        assert lemma1_check(top) == reference_lemma1_check(top)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lemma1_witness_matches_descending_loop(monkeypatch, n):
    # The precondition admits only connected door spaces, where the check
    # passes; reporting every space as one runs the witness path.
    monkeypatch.setattr(doorlab.topology, "space_report",
                        lambda top: replace(space_report(top), connected_door=True))
    for top in enumerate_topologies(n)[0]:
        assert lemma1_check(top) == reference_lemma1_check(top)


def test_occ_excluded_point_n4():
    top = construct_topology(FormDescriptor("ExcludedPoint", a=3), 4)
    assert occ_satisfied(top)[0]


def test_occ_vacuous_below_four_points():
    for fam_bits in range(1 << 8):
        fam = Family(3, fam_bits)
        try:
            top = validate_topology(fam)
        except TopologyError:
            continue
        assert occ_satisfied(top)[0]


def test_lemma1_included_point_n3():
    top = construct_topology(FormDescriptor("IncludedPoint", a=0), 3)
    # A={0} open, B={1} closed, C={2}: {0,2} open and {1,2} closed.
    assert is_open(top, 0b101)
    assert is_closed(top, 0b110)
    assert lemma1_check(top)[0]


def test_lemma1_excluded_point_n4_exhaustive():
    top = construct_topology(FormDescriptor("ExcludedPoint", a=3), 4)
    assert lemma1_check(top)[0]


def test_lemma1_precondition():
    with pytest.raises(PreconditionError):
        lemma1_check(discrete(2))


def test_n1_indiscrete_is_degenerate_connected_door():
    rep = space_report(indiscrete(1))
    assert rep.connected_door


def test_connected_door_singleton_profile():
    # At least one closed singleton always.  The biconditional "at least
    # two open points iff exactly one closed singleton" needs three or more
    # points: the two-point space has one open point and one closed
    # singleton at once.
    for n in range(2, 6):
        for top in census(n)[1]["connected_door"]:
            rep = space_report(top)
            assert len(rep.closed_singletons) >= 1
            if n >= 3:
                two_open = len(rep.open_singletons) >= 2
                one_closed = len(rep.closed_singletons) == 1
                assert two_open == one_closed


def test_t1_connected_door_empty_on_finite_sets():
    for n in range(2, 6):
        for top in census(n)[1]["connected_door"]:
            assert not space_report(top).t1
