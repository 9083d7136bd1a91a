"""Sections S1-S3 by three routes: the weight route of
`verify.two_valued_valuations`, the scan of every proper nonempty subfamily
of the algebra (the reference route), and the closed count.  The weight
route's reading at hand-built atom unions is kept as a reference too."""

import pytest

from doorlab import verify
from doorlab.core import full_mask, points_of
from doorlab.filters import (
    algebra_from_partition, atoms_of_algebra, enumerate_ultrafilters, partitions_of)
from doorlab.search import enumerate_solutions
from doorlab.valuations import ec, preimage, valuation_on_algebra


def scan_two_valued_valuations(sigma):
    """The reference route: a function onto {1, 0} is the indicator of a
    proper nonempty subfamily p of sigma; keep those that are valuations.
    Returns the valuations and the number of subfamilies scanned."""
    members = points_of(sigma.bits)
    found, scanned = [], 0
    p = sigma.bits
    while p := (p - 1) & sigma.bits:
        scanned += 1
        values = {m: (p >> m) & 1 for m in members}
        if valuation_on_algebra(values, sigma):
            found.append(values)
    return found, scanned


def union_list_two_valued_valuations(sigma):
    """The weight route as it read its solutions before: at a list of atom
    unions doubled atom by atom, unions[j] the union of the atoms i for the
    bits i of j."""
    atoms = atoms_of_algebra(sigma)
    unions = [0]
    for a in atoms:
        unions += [u | a for u in unions]
    return [{u: int(v.re) for u, v in zip(unions, f.values)}
            for f in enumerate_solutions(len(atoms), [ec(0), ec(1)], "eq2", "modular")]


def algebras(n):
    return [algebra_from_partition(n, blocks) for blocks in partitions_of(n)]


def solutions(n, route):
    """(algebra, valuation) for every solution on n points."""
    return [(sigma, values) for sigma in algebras(n) for values in route(sigma)]


def top_preimage_pairs(sols):
    """(algebra word, top-preimage word) of each solution."""
    return sorted((sigma.bits, preimage(values, values, values[full_mask(sigma.n)]))
                  for sigma, values in sols)


def bell(n):
    """Bell numbers by the Bell triangle: each row starts with the last
    entry of the row before, and B(n) is the first entry of row n."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


@pytest.mark.parametrize("n, pairs, scanned", [(2, 6, 16), (3, 20, 298), (4, 74, 67158)])
def test_weight_route_matches_subfamily_scan(n, pairs, scanned):
    weight = solutions(n, verify.two_valued_valuations)
    scans = [(sigma, *scan_two_valued_valuations(sigma)) for sigma in algebras(n)]
    reference = [(sigma, values) for sigma, found, _ in scans for values in found]
    assert (sorted((sigma.bits, sorted(values.items())) for sigma, values in weight)
            == sorted((sigma.bits, sorted(values.items())) for sigma, values in reference))
    assert all(type(v) is int for _, values in weight for v in values.values())
    # f and 1 - f share their top preimage, so each pair comes twice.
    assert top_preimage_pairs(weight) == top_preimage_pairs(reference)
    assert len(weight) == 2 * len(set(top_preimage_pairs(weight))) == pairs
    # Over n = 2, 3 and 4 the scan checks 67,472 subfamilies.
    assert sum(count for _, _, count in scans) == scanned


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_weight_route_reads_members_in_atom_union_order(n):
    # Dict order included: points_of lists the members of sigma in the
    # binary order of their atom sets.
    for sigma in algebras(n):
        assert ([list(values.items()) for values in verify.two_valued_valuations(sigma)]
                == [list(values.items()) for values in union_list_two_valued_valuations(sigma)])


@pytest.mark.parametrize("n, count", [(2, 6), (3, 20), (4, 74), (5, 302), (6, 1348)])
def test_weight_route_count_is_closed_form(n, count):
    # One principal ultrafilter indicator per block, or one minus it, and
    # the blocks of all partitions of n points number B(n + 1) - B(n).
    assert count == 2 * (bell(n + 1) - bell(n))
    sols = solutions(n, verify.two_valued_valuations)
    assert len(sols) == count
    ultras = [(sigma.bits, u.bits) for sigma in algebras(n)
              for u in enumerate_ultrafilters(sigma)]
    assert top_preimage_pairs(sols) == sorted(2 * ultras)


def test_verify_relative_checks_each_valuation_once(monkeypatch):
    # The subfamily scan called valuation_on_algebra 67,472 times and kept
    # 100; the weight route builds the 100 and checks each once.
    calls = []

    def counted(values, sigma):
        calls.append(sigma.bits)
        return valuation_on_algebra(values, sigma)

    monkeypatch.setattr(verify, "valuation_on_algebra", counted)
    report = verify.verify_relative()
    assert report == {"id": "relative-s1-s3", "ok": True, "algebras": 22, "solutions": 100}
    assert len(calls) == 100
