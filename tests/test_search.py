import hashlib
import json
from itertools import product

import pytest

import doorlab.search as search
import doorlab.verify as verify
from doorlab.cli import run
from doorlab.core import (
    CAPS, ClaimFalsified, DomainError, complement_family, points_of, subsets_word,
    supersets_word)
from doorlab.search import (
    CapabilityError,
    census,
    compare_with_golden,
    counts_report,
    enumerate_solutions,
    enumerate_topologies,
    induced_topology_survey,
    load_golden,
    solution_codes,
    _closure_dfs,
    _raw_scan,
)
from doorlab.topology import Topology, is_topology_bits, occ_satisfied, space_report
from doorlab.valuations import (
    EC_ZERO, ExactComplex, SetFunction, ec, int_codes, modular_compose)


TOPOLOGY_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_topology_totals(n):
    tops, rep = enumerate_topologies(n)
    assert len(tops) == TOPOLOGY_COUNTS[n]
    bits = [t.bits for t in tops]
    assert bits == sorted(bits)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mode_agreement_topologies(n):
    raw = [t.bits for t in enumerate_topologies(n, "raw_scan")[0]]
    dfs = [t.bits for t in enumerate_topologies(n, "closure_dfs")[0]]
    assert raw == dfs


def reference_raw_scan(n):
    """The raw scan one candidate word at a time."""
    space = 1 << (1 << n)
    base = 1 | (1 << ((1 << n) - 1))
    return [b for b in range(space) if b & base == base and is_topology_bits(n, b)], space


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_raw_scan_matches_reference(n):
    assert _raw_scan(n) == reference_raw_scan(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_subset_lanes_match_per_word_definition(n):
    # The raw scan's lane of mask s: the supersets of {s} on the 2^n masks.
    has = [supersets_word(1 << n, 1 << s) for s in range(1 << n)]
    assert len(has) == 1 << n
    for s, lane in enumerate(has):
        assert lane == sum(1 << b for b in range(1 << (1 << n)) if (b >> s) & 1)


def test_raw_scan_makes_no_per_word_axiom_call(monkeypatch):
    expected = reference_raw_scan(4)

    def per_word(n, bits):
        raise AssertionError("per-word axiom check")

    monkeypatch.setattr(search, "is_topology_bits", per_word)
    monkeypatch.setattr("doorlab.topology.is_lattice", per_word)
    assert _raw_scan(4) == expected


def reference_close_with(bits, members, m):
    """Add m to a sublattice, then every union and meet with a member until
    nothing is new; None as soon as a new set lies below m."""
    new_bits = bits | (1 << m)
    mem = list(members)
    queue = [m]
    while queue:
        x = queue.pop()
        for u in mem:
            for y in (u | x, u & x):
                if not (new_bits >> y) & 1:
                    if y < m:
                        return None
                    new_bits |= 1 << y
                    queue.append(y)
        mem.append(x)
    return new_bits, mem


def reference_closure_dfs(n):
    """Orderly generation of the families holding the empty set and X that
    are closed under union and meet: each has one increasing generator
    chain, and a branch ends when closure makes a new set below its
    generator."""
    full = (1 << n) - 1
    results = []
    visited = 0

    def dfs(bits, members, last):
        nonlocal visited
        visited += 1
        results.append(bits)
        for m in range(last + 1, full):
            if (bits >> m) & 1:
                continue
            nxt = reference_close_with(bits, members, m)
            if nxt is not None:
                dfs(nxt[0], nxt[1], m)

    dfs(1 | (1 << full), [0, full], 0)
    return results, visited


def minimal_opens(n, bits):
    """U_x for each point x: the meet of every member holding x."""
    full = (1 << n) - 1
    out = []
    for x in range(n):
        u = full
        for y in range(full + 1):
            if (bits >> y) & 1 and (y >> x) & 1:
                u &= y
        out.append(u)
    return out


def reference_words(n):
    return _raw_scan(n)[0] if n <= 4 else reference_closure_dfs(n)[0]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_one_point_extension_is_a_bijection(n):
    # Each topology W on n points is read off as (T, B, A): its trace T on
    # the first k = n - 1 points, the points B whose U_x holds k, and A =
    # U_k minus k.  The triple is valid and rebuilds W, so W -> (T, B, A)
    # is one to one; as many valid triples exist as topologies, so it is
    # onto.
    k = n - 1
    full = (1 << k) - 1
    triples = set()
    for w in reference_words(n):
        t = 0
        for m in range(1 << n):
            if (w >> m) & 1:
                t |= 1 << (m & full)
        mins_w = minimal_opens(n, w)
        mins_t = minimal_opens(k, t)
        b = sum(1 << x for x in range(k) if (mins_w[x] >> k) & 1)
        a = mins_w[k] & full
        assert (t >> (full & ~b)) & 1
        assert (t >> a) & 1
        assert all(a & ~mins_t[x] == 0 for x in range(k) if (b >> x) & 1)
        assert (t & subsets_word(full & ~b)) | ((t & supersets_word(k, a)) << (1 << k)) == w
        triples.add((t, b, a))
    valid = 0
    for t in reference_words(k):
        mins_t = minimal_opens(k, t)
        opens = [m for m in range(full + 1) if (t >> m) & 1]
        valid += sum(all(a & ~mins_t[x] == 0 for x in range(k) if not (u >> x) & 1)
                     for u in opens for a in opens)
    assert len(triples) == valid == TOPOLOGY_COUNTS[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_closure_dfs_matches_reference_dfs(n):
    # Generation order belongs to the reference DFS alone;
    # enumerate_topologies sorts the words.
    words, visited = _closure_dfs(n)
    ref_words, ref_visited = reference_closure_dfs(n)
    assert sorted(words) == sorted(ref_words)
    assert visited == ref_visited


def reference_extension(n, door_traces=False):
    """The one-point extension as `_closure_dfs` ran it before its caps
    table: each U_x read by its own scan of the opens, and the cap of each
    open u the meet of the U_x for the x outside u, point by point."""
    words, skipped = [3], 0
    for k in range(1, n):
        full, shift, nxt = (1 << k) - 1, 1 << k, []
        every, last = (1 << shift) - 1, door_traces and k == n - 1
        sub = [subsets_word(m) for m in range(shift)]
        sup = [supersets_word(k, m) << shift for m in range(shift)]
        for t in words:
            opens, high = points_of(t), t << shift
            mins = [next(m for m in opens if (m >> x) & 1) for x in range(k)]
            build = not last or t | complement_family(k, t) == every
            for u in opens:
                cap = full
                for x in range(k):
                    if not (u >> x) & 1:
                        cap &= mins[x]
                if build:
                    low = t & sub[u]
                    nxt += [low | (high & sup[a]) for a in opens if not a & ~cap]
                else:
                    skipped += (t & sub[cap]).bit_count()
        words = nxt
    return words, len(words) + skipped


@pytest.mark.parametrize("door_traces", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_closure_dfs_matches_per_open_cap_loop(n, door_traces):
    # Same words in the same order, and the same count.
    assert _closure_dfs(n, door_traces) == reference_extension(n, door_traces)


@pytest.mark.optin
def test_extension_census_at_seven_points():
    # OEIS A000798 at n = 7; the children of door traces hold every door
    # word, n*2^n - n^2 - n + 1 of them, and 2n are connected door.
    words, visited = _closure_dfs(7, door_traces=True)
    assert visited == 9535241
    every = (1 << (1 << 7)) - 1
    door = [w for w in words if w | complement_family(7, w) == every]
    assert len(door) == 7 * 2 ** 7 - 7 ** 2 - 7 + 1 == 841
    assert sum(space_report(Topology(7, w)).connected_door for w in door) == 14


def test_closure_dfs_counts_through_six_points():
    # OEIS A000798: labelled topologies on n points.
    for n, count in {**TOPOLOGY_COUNTS, 6: 209527}.items():
        words, visited = _closure_dfs(n)
        assert len(words) == len(set(words)) == visited == count


def test_closure_dfs_six_point_words_match_recorded_digest():
    # sha256 of the sorted n = 6 words, one decimal per line, recorded from
    # the extension before its per-level subset and superset tables.
    words = sorted(_closure_dfs(6)[0])
    digest = hashlib.sha256("\n".join(map(str, words)).encode()).hexdigest()
    assert digest == "ca6dd369f54f7bcd3af57225d025ee655ebe2377b2b5825cff75ed785c16c795"


def test_raw_scan_cap():
    with pytest.raises(CapabilityError, match="n = 4"):
        enumerate_topologies(5, "raw_scan")


def test_closure_cap():
    with pytest.raises(CapabilityError, match="n = 6"):
        enumerate_topologies(7, "closure_dfs")


# The entry point of each job in `CAPS`, called on n points.  The CLI's
# `enumerate` verb checks the occ-door cap itself (see tests/test_cli.py).
CAP_ENTRY_POINTS = {
    "raw_scan": lambda n: enumerate_topologies(n, "raw_scan"),
    "closure_dfs": lambda n: enumerate_topologies(n, "closure_dfs"),
    "brute solution scan": lambda n: enumerate_solutions(n, [ec(0), ec(1)], mode="brute"),
    "modular solution scan": lambda n: enumerate_solutions(n, [ec(0), ec(1)], mode="modular"),
    "counts report": counts_report,
}


@pytest.mark.parametrize("job", sorted(set(CAPS) - {"ground set", "occ-door enumeration"}))
def test_every_job_refuses_past_its_cap_then_outside_the_ground_set(job):
    entry = CAP_ENTRY_POINTS[job]
    with pytest.raises(CapabilityError) as exc:
        entry(CAPS[job] + 1)
    assert str(exc.value) == f"{job} caps at n = {CAPS[job]}"
    with pytest.raises(DomainError) as exc:
        entry(0)
    assert str(exc.value) == "ground set size 0 outside [1, 10]"


@pytest.mark.parametrize("n", [3, 5])
def test_occ_door_refuses_an_unknown_mode_at_every_n(n):
    with pytest.raises(CapabilityError, match="unknown enumeration mode 'bogus'"):
        census(n, "bogus")


@pytest.mark.parametrize("n,count", [(2, 2), (3, 6), (4, 8), (5, 10)])
def test_connected_door_counts(n, count):
    assert len(census(n)[1]["connected_door"]) == count


def test_occ_door_matches_connected_door():
    for n in (4, 5):
        lists = census(n)[1]
        occ = {t.bits for t in lists["occ_door"]}
        cd = {t.bits for t in lists["connected_door"]}
        assert occ == cd


def reference_census(n, mode):
    """The census lists by one filter per topology and list."""
    tops = enumerate_topologies(n, mode)[0]
    out = {"topologies": tops,
           "door": [t for t in tops if space_report(t).door],
           "connected_door": [t for t in tops if space_report(t).connected_door]}
    if n >= 4:
        out["occ_door"] = [t for t in out["door"] if occ_satisfied(t)[0]]
    return out


@pytest.mark.parametrize("n,mode", [
    (n, mode) for n in (1, 2, 3, 4) for mode in ("raw_scan", "closure_dfs")]
    + [(5, "auto"), (6, "closure_dfs")])
def test_census_matches_per_topology_filters(n, mode):
    rep, lists = census(n, mode)
    reference = reference_census(n, mode)
    assert rep.counts["topologies"] == len(reference.pop("topologies"))
    assert lists == reference
    golden = load_golden(n)
    keys = ("topologies", "door", "connected_door", "occ_door")
    counts = {k: len(v) for k, v in lists.items()} | rep.counts
    assert counts == {k: golden[k] for k in keys if k in golden}
    # A third route for the door count: the closed count n·2^n − n² − n + 1.
    assert counts["door"] == n * 2**n - n * n - n + 1


@pytest.mark.parametrize("n", [4, 5])
def test_census_wraps_and_reports_door_words_only(monkeypatch, n):
    wrapped, reported = [], []
    original_topology, original_report = search.Topology, search.space_report

    def counted_topology(size, bits):
        wrapped.append(bits)
        return original_topology(size, bits)

    def counted_report(top):
        reported.append(top.bits)
        return original_report(top)

    monkeypatch.setattr(search, "Topology", counted_topology)
    monkeypatch.setattr(search, "space_report", counted_report)
    door = [t.bits for t in census(n)[1]["door"]]
    assert wrapped == reported == door
    assert len(door) == load_golden(n)["door"]


def test_census_builds_only_children_of_door_traces(monkeypatch):
    # A subspace of a door space is door, so at n = 6 the census's last
    # extension level builds the children of the 131 door traces on five
    # points, not all 209,527 words, and still counts every topology.
    door5 = {t.bits for t in census(5)[1]["door"]}
    low = (1 << 32) - 1
    children = [w for w in search.topology_words(6)[0] if (w | w >> 32) & low in door5]
    built = []
    original = search._closure_dfs

    def recorded(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(search, "_closure_dfs", recorded)
    rep = census(6)[0]
    [(words, count)] = built
    assert len(door5) == 131
    assert sorted(words) == children
    assert len(children) == 6358
    assert count == rep.counts["topologies"] == rep.total_scanned == 209527


def test_door_occ_claim_is_checked(monkeypatch):
    monkeypatch.setattr(search, "occ_satisfied", lambda top: (True, None))
    for check in (census, counts_report):
        with pytest.raises(ClaimFalsified) as exc:
            check(4)
        assert exc.value.claim == "door + OCC implies connected door"


def test_point_topology_claim_exits_1_from_report(monkeypatch, capsys):
    first = next(t for t in enumerate_topologies(4)[0] if space_report(t).connected_door)
    point_words = search.form_bits(4, ("ExcludedPoint", "IncludedPoint"))
    monkeypatch.setattr(search, "form_bits", lambda n, kinds: point_words - {first.bits})
    assert run(["report", "--n", "4"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "claim_falsified": "connected door spaces are point topologies",
        "witness": {"n": 4, "hex": first.to_hex()},
    }


@pytest.mark.parametrize("vid,most", [
    ("thm1-classification", 4), ("lemmas-1-2", 4), ("occ-converse", 2), ("infrastructure", 15)])
def test_enumerations_per_verifier(monkeypatch, vid, most):
    # One census per ground set: a verifier that needs the topologies on n
    # points more than once reads them from the census or report it built.
    # `_words` is the one enumeration behind `topology_words` and `census`.
    calls = []
    original = search._words

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(search, "_words", counted)
    assert verify.VERIFIERS[vid]()["ok"]
    assert len(calls) <= most, calls


class TestSolutions:
    def test_two_valued_n3(self):
        sols = enumerate_solutions(3, [ec(0), ec(1)], "eq1_disjoint", "brute")
        assert len(sols) == 3
        # Each solution is the indicator of one point.
        for f in sols:
            ones = [p for p in range(3) if f.values[1 << p] == ec(1)]
            assert len(ones) == 1

    def test_no_zero_no_solutions(self):
        assert enumerate_solutions(3, [ec(1), ec(2)], "eq1_disjoint", "brute") == []

    def test_three_valued_counts_n4(self):
        sym = enumerate_solutions(4, [ec(-1), ec(0), ec(1)], "eq1_disjoint", "brute")
        lad = enumerate_solutions(4, [ec(0), ec(1), ec(2)], "eq1_disjoint", "brute")
        assert len(sym) == 12
        assert len(lad) == 6

    @pytest.mark.parametrize("equation,values", [
        ("eq1_disjoint", [ec(0), ec(1)]),
        ("eq1_disjoint", [ec(-1), ec(0), ec(1)]),
        ("eq2", [ec(-1), ec(0), ec(1)]),
    ])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_brute_equals_modular(self, n, equation, values):
        brute = enumerate_solutions(n, values, equation, "brute")
        modular = enumerate_solutions(n, values, equation, "modular")
        assert [f.values for f in brute] == [f.values for f in modular]

    def test_bad_value_set(self):
        with pytest.raises(CapabilityError):
            enumerate_solutions(3, [ec(1)], "eq1_disjoint")
        with pytest.raises(CapabilityError):
            enumerate_solutions(3, [ec(1), ec(1)], "eq1_disjoint")

    def test_brute_cap(self):
        with pytest.raises(CapabilityError):
            enumerate_solutions(5, [ec(0), ec(1)], "eq1_disjoint", "brute")

    def test_unknown_equation_and_mode(self):
        with pytest.raises(CapabilityError, match="unknown equation 'eq3'"):
            solution_codes(3, [ec(0), ec(1)], "eq3")
        with pytest.raises(CapabilityError, match="unknown solution mode 'bogus'"):
            solution_codes(3, [ec(0), ec(1)], "eq2", "bogus")


@pytest.mark.parametrize("mode", ["brute", "modular"])
@pytest.mark.parametrize("equation", ["eq1_disjoint", "eq2"])
@pytest.mark.parametrize("values", [
    [ec(0), ec(1)], [ec(1), ec(2)], [ec(-1), ec(0), ec(1)], [ec(0), ec(1), ec(2)],
    [ec(0), ec(1), ec(3)], [ec(1), ec(2), ec(3)], [ec(0), ec(1, 1), ec(2, 2)],
], ids=["0,1", "1,2", "-1,0,1", "0,1,2", "0,1,3", "1,2,3", "0,1+i,2+2i"])
def test_solution_codes_decode_to_enumerate_solutions(values, equation, mode):
    # The verifiers read the code tuples: decoded, they are the solutions in
    # the same order, and an integer value set comes back as its own ints,
    # with 0 at the empty set for eq1.
    decode = {0: EC_ZERO, **dict(zip(int_codes(values), values))}
    for n in (2, 3, 4):
        codes = solution_codes(n, values, equation, mode)
        sols = enumerate_solutions(n, values, equation, mode)
        assert [tuple(decode[c] for c in t) for t in codes] == [f.values for f in sols]
        if all(v.im == 0 and v.re.denominator == 1 for v in values):
            assert codes == [tuple(int(v.re) for v in f.values) for f in sols]
            assert equation == "eq2" or all(t[0] == 0 for t in codes)


def reference_modular_solutions(n, values, equation):
    """The weight route on `ExactComplex` values, kept as the reference:
    every candidate is composed, and its value set compared."""
    if equation == "eq1_disjoint":
        cases = [(EC_ZERO, values, False)]
    else:
        cases = [(c, [v - c for v in values], True) for c in values]
    out = []
    for c, choices, includes_empty in cases:
        for weights in product(choices, repeat=n):
            f = SetFunction(n, includes_empty, modular_compose(c, weights).values)
            if {f.values[m] for m in f.domain()} == set(values):
                out.append(f)
    return sorted(out, key=lambda f: tuple(v.sort_key() for v in f.values))


@pytest.mark.parametrize("equation", ["eq1_disjoint", "eq2"])
@pytest.mark.parametrize("values", [
    [ec(0), ec(1)],
    [ec(0), ec(1), ec(2)],
    [ec("-1/3"), ec(0), ec("1/3")],
    [ec(0), ec("1/2", "1/3"), ec(1, "2/3")],
    [ec(1), ec(0, 1)],
], ids=["0,1", "0,1,2", "-1/3,0,1/3", "0,1/2+1/3i,1+2/3i", "1,i"])
def test_modular_route_matches_reference(values, equation):
    for n in range(1, 6):
        modular = enumerate_solutions(n, values, equation, "modular")
        reference = reference_modular_solutions(n, values, equation)
        assert modular == reference
        assert [f.to_json() for f in modular] == [f.to_json() for f in reference]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_modular_range_test_base_covers_the_identity(n):
    # f(m) - v has coefficients of total size up to 2n: with B = 1 + max|r|
    # a real part carries into the imaginary part, and the modular route
    # would report 24 (n = 4) and 40 (n = 5) functions that are not onto
    # this set.
    values = [ec(2, -2), ec(0, 2), ec(-3, 1)]
    brute = search._brute_solutions(n, int_codes(values), 0)
    modular = enumerate_solutions(n, values, "eq2", "modular")
    assert brute == modular == reference_modular_solutions(n, values, "eq2") == []


def test_solution_routes_do_no_exact_arithmetic(monkeypatch):
    # Both routes run on integer codes and decode only the survivors, so
    # neither adds nor subtracts an ExactComplex.
    expected = {(eq, mode): enumerate_solutions(3, [ec(0), ec(1, 1), ec(2, 2)], eq, mode)
                for eq in ("eq1_disjoint", "eq2") for mode in ("brute", "modular")}

    def refuse(self, other):
        raise AssertionError("exact arithmetic in a solution route")

    monkeypatch.setattr(ExactComplex, "__add__", refuse)
    monkeypatch.setattr(ExactComplex, "__sub__", refuse)
    for (eq, mode), sols in expected.items():
        assert sols
        assert enumerate_solutions(3, [ec(0), ec(1, 1), ec(2, 2)], eq, mode) == sols


def test_survey_n3_both_modes():
    for mode in ("brute", "modular"):
        rep = induced_topology_survey(3, mode)
        assert rep["matches_forms"]
        assert rep["form2_instances"] == 0


def test_counts_report_n2():
    rep = counts_report(2)
    assert rep["topologies"] == 4
    assert rep["door"] == 3
    assert rep["connected_door"] == 2


def test_counts_report_n1_degenerate():
    rep = counts_report(1)
    assert rep["topologies"] == 1
    assert rep["connected_door"] == 1
    assert rep["degenerate"]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_golden_files_match(n):
    golden = load_golden(n)
    assert golden is not None, "golden file missing"
    result = compare_with_golden(n)
    assert result["match"] is True
