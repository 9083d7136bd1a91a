"""The scans of `verify.verify_remarks` by two routes.  The verifier runs the
inclusion-exclusion scan on the integer codes of {-1, 0, 1}, encoded once,
and takes the {0, 1, 2}-valued valuations from `enumerate_solutions`.  The
references are the routes it ran before: one `ExactComplex` `SetFunction`
per assignment, each encoded on its own, and on four points the weight
route."""

import random
from fractions import Fraction
from itertools import product

from doorlab import verify
from doorlab.core import Family, powerset
from doorlab.filters import is_filter
from doorlab.valuations import (
    SetFunction, check_inclusion_exclusion3, ec, increasing_filter_check, int_codes,
    modular_compose, preimage, satisfies_valuation)


def reference_ie_scan():
    """Every function from the subsets of three points to {-1, 0, 1}: how
    many, and whether the two identities agree on each."""
    scanned, agree = 0, True
    for assignment in product([ec(-1), ec(0), ec(1)], repeat=8):
        f = SetFunction(3, True, assignment)
        scanned += 1
        if satisfies_valuation(f)[0] != check_inclusion_exclusion3(3, int_codes(f.values)):
            agree = False
    return scanned, agree


def reference_brute_scan():
    """The valuations with values in {0, 1, 2} on two and three points."""
    return [f for n in (2, 3)
            for assignment in product([ec(0), ec(1), ec(2)], repeat=1 << n)
            if satisfies_valuation(f := SetFunction(n, True, assignment))[0]]


def reference_weight_route():
    """The valuations with values in {0, 1, 2} on four points, as the
    verifier built them before it read the modular route: a constant c and
    weights in the difference range, kept when c + (the negative weights)
    and c + (the positive weights), the extremes of the values, lie in
    [0, 2]."""
    return [modular_compose(ec(c), tuple(ec(w) for w in ws))
            for c in range(3) for ws in product(range(-2, 3), repeat=4)
            if c + sum(w for w in ws if w < 0) >= 0 and c + sum(w for w in ws if w > 0) <= 2]


def test_remarks_scans_match_exact_complex_reference(monkeypatch):
    checked = []

    def recording(f):
        checked.append(f)
        return increasing_filter_check(f)

    monkeypatch.setattr(verify, "increasing_filter_check", recording)
    report = verify.verify_remarks()
    scanned, agree = reference_ie_scan()
    brute = reference_brute_scan()
    assert report["ie_functions_scanned"] == scanned == 6561
    # The brute scans check exactly the reference's valuations (19 on two
    # points, 33 on three), in order; the weight route and the samples are
    # on four points.
    assert [f for f in checked if f.n < 4] == brute
    assert len(brute) == 52
    # On four points the verifier checks the weight route's valuations, as a
    # set, then the four rational-weight samples.
    four = [f.values for f in checked if f.n == 4][:-4]
    assert sorted(four, key=lambda vs: [v.re for v in vs]) == four
    assert set(four) == {f.values for f in reference_weight_route()}
    assert len(four) == 51
    assert report["increasing_checked"] == len(checked)
    assert report["ok"] is (agree and all(increasing_filter_check(f)["ok"] for f in brute))
    assert report["ok"] is True


def reference_increasing_filter_check(f):
    """`increasing_filter_check` by `.re` comparisons and `ExactComplex`
    equality, the route before it read the integer codes."""
    v = f.values
    increasing = all(v[a].re <= v[a | 1 << x].re for a in range(1 << f.n) for x in range(f.n))
    report = {"is_increasing": increasing, "is_valuation": satisfies_valuation(f)[0]}
    if increasing and report["is_valuation"]:
        bits = preimage(v, f.domain(), v[-1])
        pw = powerset(f.n)
        report["preimage_is_filter"] = bits == pw.bits or is_filter(Family(f.n, bits), pw)
        report["preimage_is_proper"] = not bits & 1
        report["ok"] = report["preimage_is_filter"]
    else:
        report["ok"] = True
    return report


def test_increasing_check_matches_re_comparison_reference(monkeypatch):
    checked = []

    def recording(f):
        checked.append(f)
        return increasing_filter_check(f)

    monkeypatch.setattr(verify, "increasing_filter_check", recording)
    verify.verify_remarks()
    assert len(checked) == 107
    # The increasing and non-increasing examples of tests/test_valuations.py.
    examples = [SetFunction(3, True, tuple(ec(g(m)) for m in range(8)))
                for g in (int.bit_count, lambda m: (m >> 1) & 1,
                          lambda m: -m.bit_count(), lambda m: 5)]
    # Rational weights of mixed denominators, some negative, on three and four points.
    rng = random.Random(30)
    weights = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3, 7)]
    samples = [modular_compose(ec(rng.choice(weights)),
                               tuple(ec(rng.choice(weights)) for _ in range(n)))
               for n in (3, 4) for _ in range(100)]
    reports = [increasing_filter_check(f) for f in checked + examples + samples]
    assert reports == [reference_increasing_filter_check(f) for f in checked + examples + samples]
    assert {r["is_increasing"] for r in reports} == {True, False}
