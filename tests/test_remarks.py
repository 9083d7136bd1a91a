"""The two scans of `verify.verify_remarks` by two routes: on the integer
codes of each value set, encoded once (the verifier), and on one
`ExactComplex` `SetFunction` per assignment, each encoded on its own (the
reference route, which the verifier ran before)."""

from itertools import product

from doorlab import verify
from doorlab.valuations import (
    SetFunction, check_inclusion_exclusion3, ec, increasing_filter_check, int_codes,
    satisfies_valuation)


def reference_ie_scan():
    """Every function from the subsets of three points to {-1, 0, 1}: how
    many, and whether the two identities agree on each."""
    scanned, agree = 0, True
    for assignment in product([ec(-1), ec(0), ec(1)], repeat=8):
        f = SetFunction(3, True, assignment)
        scanned += 1
        if satisfies_valuation(f)[0] != check_inclusion_exclusion3(3, int_codes(f.values, 8)):
            agree = False
    return scanned, agree


def reference_brute_scan():
    """The valuations with values in {0, 1, 2} on two and three points."""
    return [f for n in (2, 3)
            for assignment in product([ec(0), ec(1), ec(2)], repeat=1 << n)
            if satisfies_valuation(f := SetFunction(n, True, assignment))[0]]


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
    assert report["increasing_checked"] == len(checked)
    assert report["ok"] is (agree and all(increasing_filter_check(f)["ok"] for f in brute))
    assert report["ok"] is True
