"""The scans of `verify.verify_remarks` by two routes.  The verifier runs the
inclusion-exclusion scan on the integer codes of {-1, 0, 1}, encoded once,
and takes the {0, 1, 2}-valued valuations from `enumerate_solutions`.  The
references are the routes it ran before: one `ExactComplex` `SetFunction`
per assignment, each encoded on its own, and on four points the weight
route."""

from itertools import product

from doorlab import verify
from doorlab.valuations import (
    SetFunction, check_inclusion_exclusion3, ec, increasing_filter_check, int_codes,
    modular_compose, satisfies_valuation)


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
