"""Acceptance suite: one test per verified claim, each printing a pass/fail
line.  All checks are exact; the time bounds are generous sanity caps."""

import time

import pytest

from doorlab.verify import VERIFIERS

TIME_CAPS = {
    "thm1-classification": 31.0,
    "lemmas-1-2": 31.0,
    "occ-converse": 31.0,
    "thm2": 5.0,
    "thm4": 60.0,
    "thm3": 120.0,
    "part2-constructions": 5.0,
    "relative-s1-s3": 10.0,
    "remarks": 5.0,
    "infrastructure": 60.0,
}

# Answers known independently of the engine.  relative-s1-s3 scans one
# algebra per partition of 2, 3 and 4 points (Bell numbers 2 + 5 + 15), and
# each algebra has one two-valued valuation per ultrafilter and sign, so
# twice its number of blocks.
KNOWN_ANSWERS = {
    "relative-s1-s3": {"algebras": 22, "solutions": 100},
}


@pytest.mark.parametrize("criterion", list(VERIFIERS))
def test_acceptance(criterion, capsys):
    start = time.monotonic()
    report = VERIFIERS[criterion]()
    elapsed = time.monotonic() - start
    status = "PASS" if report["ok"] else "FAIL"
    with capsys.disabled():
        print(f"[{status}] {criterion} ({elapsed:.2f}s)")
    assert report["ok"], report
    for key, expected in KNOWN_ANSWERS.get(criterion, {}).items():
        assert report[key] == expected, (key, report[key])
    assert elapsed < TIME_CAPS[criterion], f"{criterion} too slow: {elapsed:.1f}s"
