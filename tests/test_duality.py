"""Duality past enumeration, n = 7..10: the closed sets of a finite
topology form a topology, and door, connectedness, the clopen count and OCC
read the same on both, while the open and closed singletons swap.  A form
C(S, T) has the dual C(S, S minus T)."""

import random

import pytest

from doorlab.classify import FormDescriptor, form_word
from doorlab.core import Family, complement_family
from doorlab.topology import occ_satisfied, space_report, validate_topology


def preorder_topology(n, rng):
    """A seeded random Alexandroff topology: the union-closure of the least
    open sets U_x = {y : y <= x} of a random preorder, the reflexive and
    transitive closure of random arcs, each drawn with one random
    probability below 2/n."""
    density = 2 * rng.random() / n
    below = [1 << x | sum(1 << y for y in range(n) if rng.random() < density)
             for x in range(n)]
    for z in range(n):  # Warshall: whatever lies below z lies below all above z
        for x in range(n):
            if below[x] >> z & 1:
                below[x] |= below[z]
    opens = {0}
    for u in below:
        opens |= {o | u for o in opens}
    return validate_topology(Family(n, sum(1 << o for o in opens)))


def dual(top):
    """The closed sets, through the axiom check."""
    return validate_topology(Family(top.n, complement_family(top.n, top.bits)))


def assert_dual_reports(top):
    co = dual(top)
    rep, corep = space_report(top), space_report(co)
    assert (rep.door, rep.connected, rep.connected_door, rep.clopen_proper_count) == (
        corep.door, corep.connected, corep.connected_door, corep.clopen_proper_count)
    assert (rep.open_singletons, rep.closed_singletons) == (
        corep.closed_singletons, corep.open_singletons)
    assert occ_satisfied(top)[0] == occ_satisfied(co)[0]
    assert dual(co) == top


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_random_preorder_topologies_are_self_dual_in_reports(n):
    rng = random.Random(n)
    tops = [preorder_topology(n, rng) for _ in range(10)]
    # The seeds give connected and disconnected spaces, with and without
    # OCC, at every n.
    assert {space_report(t).connected for t in tops} == {True, False}
    assert {occ_satisfied(t)[0] for t in tops} == {True, False}
    for top in tops:
        assert_dual_reports(top)


def dual_form_pairs(n):
    """(form, dual form) for each point a and each ordered pair (a, seed)."""
    for a in range(n):
        yield FormDescriptor("IncludedPoint", a=a), FormDescriptor("ExcludedPoint", a=a)
        for seed in range(n):
            if seed != a:
                yield (FormDescriptor("Form1A", a=a, seed=seed),
                       FormDescriptor("Form1A", a=seed, seed=a))
                yield (FormDescriptor("Form1B", a=a, seed=seed),
                       FormDescriptor("Form3", a=min(a, seed), b=max(a, seed)))


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_form_duals(n):
    for form, co in dual_form_pairs(n):
        assert complement_family(n, form_word(form, n)) == form_word(co, n)
        assert_dual_reports(validate_topology(Family(n, form_word(form, n))))
