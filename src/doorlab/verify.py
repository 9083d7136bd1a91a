"""End-to-end empirical verification pipelines.  Each function checks one
claim at desk scale and returns a JSON-ready report with an "ok" flag; a
False flag means the claim was falsified by the engine, which must never
happen on a correct build."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from . import filters
from .classify import (
    VALID_KINDS, classify_connected_door, construct_topology, descriptors, form_bits)
from .core import Family, full_mask, points_of, powerset
from .search import (
    census,
    compare_with_golden,
    enumerate_solutions,
    induced_topology_survey,
    topology_words,
)
from .topology import lemma1_check, occ_satisfied, space_report, validate_topology
from .valuations import (
    ExactComplex,
    SetFunction,
    check_inclusion_exclusion3,
    classify_value_shape,
    ec,
    f_from_form,
    form1a_pair_subcase,
    increasing_filter_check,
    induced_family,
    int_codes,
    lemma_two_valued_report,
    modular_compose,
    preimage,
    satisfies_valuation,
    valuation_on_algebra,
    valuation_witness,
    verify_two_valued_additive,
)

CONNECTED_DOOR_COUNTS = {2: 2, 3: 6, 4: 8, 5: 10}
TOPOLOGY_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}


def verify_classification() -> dict:
    """Connected door spaces on 2..5 points: counts, and every instance is
    an excluded-point or included-point topology; no free-ultrafilter type."""
    per_n = {}
    ok = True
    for n in range(2, 6):
        tops = census(n)[1]["connected_door"]
        label_kinds = set()
        for t in tops:
            lab = classify_connected_door(t)
            label_kinds |= {d.kind for d in lab.labels}
            expected_labels = 2 if n == 2 else 1
            if len(lab.labels) != expected_labels:
                ok = False
        count_ok = len(tops) == CONNECTED_DOOR_COUNTS[n]
        kinds_ok = label_kinds <= {"ExcludedPoint", "IncludedPoint"}
        ok = ok and count_ok and kinds_ok
        per_n[n] = {
            "count": len(tops),
            "expected": CONNECTED_DOOR_COUNTS[n],
            "label_kinds": sorted(label_kinds),
            "free_instances": 0,
        }
    return {"id": "thm1-classification", "ok": ok, "per_n": per_n}


def verify_lemmas_1_2() -> dict:
    """Every connected door topology on up to 5 points passes the
    open/closed union check and satisfies OCC."""
    ok = True
    checked = 0
    for n in range(2, 6):
        for t in census(n)[1]["connected_door"]:
            checked += 1
            if not lemma1_check(t)[0] or not occ_satisfied(t)[0]:
                ok = False
    return {"id": "lemmas-1-2", "ok": ok, "checked": checked}


def verify_occ_converse() -> dict:
    """On 4 and 5 points, door + OCC coincides exactly with connected
    door."""
    ok = True
    per_n = {}
    for n in (4, 5):
        lists = census(n)[1]
        occ = {t.bits for t in lists["occ_door"]}
        cd = {t.bits for t in lists["connected_door"]}
        per_n[n] = {"door_occ": len(occ), "connected_door": len(cd)}
        ok = ok and occ == cd
    return {"id": "occ-converse", "ok": ok, "per_n": per_n}


def verify_theorem2() -> dict:
    """Two-valued disjoint-additive surjections: with a zero value there
    are exactly n solutions, each inducing a principal ultrafilter and a
    connected door topology; with no zero value there are none (three or
    more points), and exactly one on two points."""
    ok = True
    details = {}
    for n in (3, 4):
        sols = enumerate_solutions(n, [ec(0), ec(1)], "eq1_disjoint", "brute")
        reports = [verify_two_valued_additive(f) for f in sols]
        count_ok = len(sols) == n
        all_ok = all(r["ok"] for r in reports)
        ok = ok and count_ok and all_ok
        details[f"n{n}_values_0_1"] = {"solutions": len(sols), "expected": n,
                                       "all_verified": all_ok}
    for n, expected in ((2, 1), (3, 0), (4, 0)):
        sols = enumerate_solutions(n, [ec(1), ec(2)], "eq1_disjoint", "brute")
        ok = ok and len(sols) == expected
        details[f"n{n}_values_1_2"] = {"solutions": len(sols), "expected": expected}
    return {"id": "thm2", "ok": ok, "details": details}


def verify_theorem4() -> dict:
    """Three-valued disjoint-additive surjections on four points exist only
    for value sets shaped {-z, 0, z} or {0, z, 2z}; induced topologies are
    the single-ultrafilter and two-ultrafilter-union shapes."""
    n = 4
    ok = True
    details: dict = {}

    sols_sym = enumerate_solutions(n, [ec(-1), ec(0), ec(1)], "eq1_disjoint", "brute")
    details["values_-1_0_1"] = len(sols_sym)
    ok = ok and len(sols_sym) == 12
    shape = classify_value_shape([ec(-1), ec(0), ec(1)])
    ok = ok and shape["shape"] == "NegZeroPos"
    t1_bits = form_bits(n, ("Form1A",))
    for f in sols_sym:
        for v in (ec(1), ec(-1)):
            fam = induced_family(f, v)
            if fam.bits not in t1_bits:
                ok = False

    sols_lad = enumerate_solutions(n, [ec(0), ec(1), ec(2)], "eq1_disjoint", "brute")
    details["values_0_1_2"] = len(sols_lad)
    ok = ok and len(sols_lad) == 6
    shape = classify_value_shape([ec(0), ec(1), ec(2)])
    ok = ok and shape["shape"] == "ZeroZ2Z"
    # A T2Shape topology is C({p, q}, {p, q}), the word of Form1B at {p, q}:
    # it depends only on {p, q}, not on A.
    t2_bits = form_bits(n, ("T2Shape",))
    for f in sols_lad:
        fam = induced_family(f, ec(2))
        if fam.bits not in t2_bits:
            ok = False

    for values, key in (([ec(0), ec(1), ec(3)], "values_0_1_3"),
                        ([ec(1), ec(2), ec(3)], "values_1_2_3")):
        sols = enumerate_solutions(n, values, "eq1_disjoint", "brute")
        details[key] = len(sols)
        ok = ok and len(sols) == 0

    # Sharpness of the four-point hypothesis: on three points the value set
    # {1, 2, 3} does admit a solution (cardinality).
    sharp = enumerate_solutions(3, [ec(1), ec(2), ec(3)], "eq1_disjoint", "brute")
    details["sharpness_n3_1_2_3"] = len(sharp)
    ok = ok and len(sharp) == 1

    return {"id": "thm4", "ok": ok, "details": details}


def verify_theorem3() -> dict:
    """Topologies induced by valuation surjections onto {-1, 0, 1} are
    exactly the Form1A / Form1B / Form3 instances; no free-ultrafilter
    form appears.  Checked by full scan on three points and by the modular
    route (with brute cross-check) on four."""
    s3_brute = induced_topology_survey(3, "brute")
    s3_mod = induced_topology_survey(3, "modular")
    s4_mod = induced_topology_survey(4, "modular")
    s4_brute = induced_topology_survey(4, "brute")
    ok = all(s["matches_forms"] and s["form2_instances"] == 0
             for s in (s3_brute, s3_mod, s4_mod, s4_brute))
    ok = ok and s3_brute["solutions"] == s3_mod["solutions"]
    ok = ok and s4_brute["solutions"] == s4_mod["solutions"]
    return {"id": "thm3", "ok": ok,
            "n3": s3_brute, "n4": s4_mod,
            "cross_check": {"n3": s3_mod["solutions"], "n4": s4_brute["solutions"]}}


def verify_part2() -> dict:
    """Every constructible form's explicit function is a valuation whose
    induced family at the designated value reproduces the form's topology;
    the ten pair subcases of the Form1A check all occur on four points."""
    ok = True
    checked = 0
    for n in range(2, 6):
        for d in descriptors(n, VALID_KINDS):
            f, designated = f_from_form(d, n)
            if not satisfies_valuation(f)[0]:
                ok = False
            if induced_family(f, designated).bits != construct_topology(d, n).bits:
                ok = False
            checked += 1

    subcases = set()
    n = 4
    for A in range(1 << n):
        for B in range(1 << n):
            subcases.add(form1a_pair_subcase(0, 1, A, B))
    cover_ok = subcases == set(range(1, 11))
    ok = ok and cover_ok
    return {"id": "part2-constructions", "ok": ok, "descriptors_checked": checked,
            "form1a_subcases_covered": sorted(subcases)}


def two_valued_valuations(sigma: Family) -> list[dict[int, int]]:
    """The functions from the algebra sigma onto {0, 1} that are valuations,
    as plain ints keyed by the members of sigma.  sigma is the power set of its
    k atoms, so these are the modular route's valuations onto {0, 1} on k points
    (Birkhoff), read at `points_of(sigma.bits)` (order fact: `core.subsets_word`)."""
    members = points_of(sigma.bits)
    sols = enumerate_solutions(len(members).bit_length() - 1, [ec(0), ec(1)], "eq2", "modular")
    return [{u: int(v.re) for u, v in zip(members, f.values)} for f in sols]


def verify_relative() -> dict:
    """Over every block algebra on up to 4 points and every two-valued
    valuation on it (`two_valued_valuations`): the solutions satisfy the
    two-valued lemma, their top preimages are exactly the ultrafilters with
    respect to the algebra, and the induced families are connected door
    with respect to the algebra (classically so when it is the power set)."""
    ok = True
    algebras = 0
    solutions = 0
    for n in range(2, 5):
        pw = powerset(n)
        full = full_mask(n)
        for blocks in filters.partitions_of(n):
            sigma = filters.algebra_from_partition(n, blocks)
            algebras += 1
            ultras = {u.bits for u in filters.enumerate_ultrafilters(sigma)}
            seen_preimages = set()
            for values in two_valued_valuations(sigma):
                solutions += 1
                pre_bits = preimage(values, values, values[full])
                seen_preimages.add(pre_bits)
                induced = Family(n, pre_bits | 1)
                if not (valuation_on_algebra(values, sigma)
                        and lemma_two_valued_report(values, sigma)["ok"]
                        and filters.is_ultrafilter(Family(n, pre_bits), sigma)
                        and filters.is_connected_door_wrt(induced, sigma)
                        and (sigma.bits != pw.bits
                             or space_report(validate_topology(induced)).connected_door)):
                    ok = False
            # S1 forward direction: every ultrafilter arises from a solution.
            if seen_preimages != ultras:
                ok = False
    return {"id": "relative-s1-s3", "ok": ok,
            "algebras": algebras, "solutions": solutions}


def verify_remarks() -> dict:
    """The three-set inclusion-exclusion identity is equivalent to the
    valuation identity (full scan on three points), and increasing
    valuations have filter top-preimages."""
    n = 3
    ie_ok = True
    scanned = 0
    # Both identities run on the codes of {-1, 0, 1}, encoded once.
    for codes in product(int_codes([ec(-1), ec(0), ec(1)]), repeat=1 << n):
        scanned += 1
        is_valuation = valuation_witness(codes, n) is None
        if is_valuation != check_inclusion_exclusion3(n, codes):
            ie_ok = False
    inc_ok = True
    checked_inc = 0
    # Every valuation with values in {0, 1, 2}: the constants and the
    # solutions onto each larger value set (brute on two and three points,
    # modular on four), checked in ascending order of their value tuples.
    vals = [ec(0), ec(1), ec(2)]
    for nn, mode in ((2, "brute"), (3, "brute"), (4, "modular")):
        fs = [SetFunction(nn, True, (v,) * (1 << nn)) for v in vals]
        for vs in (vals[:2], vals[::2], vals[1:], vals):
            fs += enumerate_solutions(nn, vs, "eq2", mode)
        for f in sorted(fs, key=lambda f: [v.re for v in f.values]):
            rep = increasing_filter_check(f)
            checked_inc += 1
            if not rep["ok"]:
                inc_ok = False
    # Modular route: deterministic rational-weight samples on four points.
    samples = [
        (Fraction(0), (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(0))),
        (Fraction(-3, 2), (Fraction(1), Fraction(3), Fraction(1, 3), Fraction(5, 2))),
        (Fraction(7), (Fraction(0), Fraction(0), Fraction(4, 5), Fraction(1))),
        (Fraction(1, 4), (Fraction(2), Fraction(1, 7), Fraction(3, 2), Fraction(6))),
    ]
    for c, ws in samples:
        f = modular_compose(ExactComplex(c), tuple(ExactComplex(w) for w in ws))
        rep = increasing_filter_check(f)
        checked_inc += 1
        if not (rep["is_increasing"] and rep["ok"]):
            inc_ok = False
    ok = ie_ok and inc_ok
    return {"id": "remarks", "ok": ok, "ie_functions_scanned": scanned,
            "increasing_checked": checked_inc}


def verify_infrastructure() -> dict:
    """Mode agreement, repeat determinism, topology totals, and golden-file
    consistency."""
    details: dict = {}

    goldens = [compare_with_golden(n) for n in range(1, 6)]
    totals = {g["n"]: g["report"]["topologies"] for g in goldens}
    details["topology_totals"] = totals

    raw = {n: topology_words(n, "raw_scan")[0] for n in range(1, 5)}
    topologies_ok = all(raw[n] == topology_words(n, "closure_dfs")[0] for n in range(1, 5))
    details["mode_agreement_topologies"] = topologies_ok

    solutions_ok = True
    for n in (3, 4):
        for eq, values in (("eq1_disjoint", [ec(0), ec(1)]),
                           ("eq2", [ec(-1), ec(0), ec(1)])):
            brute = enumerate_solutions(n, values, eq, "brute")
            mod = enumerate_solutions(n, values, eq, "modular")
            if [f.values for f in brute] != [f.values for f in mod]:
                solutions_ok = False
    details["mode_agreement_solutions"] = solutions_ok

    # The key predates the single-threaded scan; it now checks that a
    # repeated raw scan yields the same list in the same order.
    repeat_ok = all(topology_words(n, "raw_scan")[0] == raw[n] for n in (3, 4))
    details["worker_determinism"] = repeat_ok

    golden_ok = all(g["match"] for g in goldens)
    details["golden_match"] = golden_ok

    ok = (totals == TOPOLOGY_COUNTS and topologies_ok and solutions_ok
          and repeat_ok and golden_ok)
    return {"id": "infrastructure", "ok": ok, "details": details}


VERIFIERS = {
    "thm1-classification": verify_classification,
    "lemmas-1-2": verify_lemmas_1_2,
    "occ-converse": verify_occ_converse,
    "thm2": verify_theorem2,
    "thm4": verify_theorem4,
    "thm3": verify_theorem3,
    "part2-constructions": verify_part2,
    "relative-s1-s3": verify_relative,
    "remarks": verify_remarks,
    "infrastructure": verify_infrastructure,
}
