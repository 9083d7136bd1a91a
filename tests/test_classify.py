import dataclasses

import pytest

from doorlab.classify import (
    VALID_KINDS,
    FormDescriptor,
    UnconstructibleError,
    classify_connected_door,
    construct_topology,
    descriptors,
    form_word,
    recognize_form,
    _matching,
)
from doorlab.core import DomainError, full_mask, parse_family, points_of
from doorlab.search import enumerate_topologies
from doorlab.topology import PreconditionError, Topology, space_report, validate_topology


def test_excluded_point_n3():
    top = construct_topology(FormDescriptor("ExcludedPoint", a=2), 3)
    assert top.to_subsets() == [[], [0], [1], [0, 1], [0, 1, 2]]


def test_form3_n4():
    top = construct_topology(FormDescriptor("Form3", a=0, b=1), 4)
    assert top.to_subsets() == [[], [2], [3], [2, 3], [0, 1, 2, 3]]


def test_form1a_n3():
    top = construct_topology(FormDescriptor("Form1A", a=0, seed=1), 3)
    assert top.to_subsets() == [[], [1], [1, 2], [0, 1, 2]]


def test_t2shape_supersets_of_pair():
    top = construct_topology(
        FormDescriptor("T2Shape", A=0b0011, p=0, q=2), 4)
    expected = {m for m in range(16) if m & 0b0101 == 0b0101} | {0}
    assert set(points_of(top.bits)) == expected


def test_form2_unconstructible():
    with pytest.raises(UnconstructibleError, match="free ultrafilters"):
        construct_topology(FormDescriptor("Form2", A=0b01), 3)


def test_unknown_kind_rejected_at_construction():
    """`construct_topology` has no branch for an unknown kind: the
    descriptor refuses one, also when made by `dataclasses.replace`."""
    with pytest.raises(DomainError, match="unknown form kind"):
        FormDescriptor("Bogus")
    valid = FormDescriptor("T2Shape", A=0b01, p=0, q=1)
    with pytest.raises(DomainError, match="unknown form kind"):
        dataclasses.replace(valid, kind="Bogus")


def test_classify_included_point_n3():
    top = construct_topology(FormDescriptor("IncludedPoint", a=0), 3)
    labels = classify_connected_door(top).labels
    assert labels == (FormDescriptor("IncludedPoint", a=0),)


def test_classify_sierpinski_coincidence():
    top = validate_topology(parse_family(2, [[], [0], [0, 1]]))
    kinds = {(d.kind, d.a) for d in classify_connected_door(top).labels}
    assert kinds == {("IncludedPoint", 0), ("ExcludedPoint", 1)}


def test_classify_excluded_point_n4():
    top = construct_topology(FormDescriptor("ExcludedPoint", a=3), 4)
    labels = classify_connected_door(top).labels
    assert labels == (FormDescriptor("ExcludedPoint", a=3),)


def test_classify_precondition():
    from doorlab.core import powerset
    with pytest.raises(PreconditionError):
        classify_connected_door(validate_topology(powerset(2)))


def test_classify_n1_degenerate():
    top = validate_topology(parse_family(1, [[], [0]]))
    lab = classify_connected_door(top)
    assert lab.degenerate
    assert {d.kind for d in lab.labels} == {"IncludedPoint", "ExcludedPoint"}


def test_recognize_form3():
    top = construct_topology(FormDescriptor("Form3", a=0, b=1), 4)
    labels = recognize_form(top).labels
    assert FormDescriptor("Form3", a=0, b=1) in labels


def test_recognize_t2_all_separating_sets():
    top = construct_topology(FormDescriptor("T2Shape", A=0b0001, p=0, q=2), 4)
    t2 = [d for d in recognize_form(top).labels if d.kind == "T2Shape"]
    # One label per subset separating 0 from 2, for each admissible seed pair.
    seps = [(A, p, q) for A in range(1, 15)
            for p in (0, 2) for q in (0, 2)
            if p != q and (A >> p) & 1 and not (A >> q) & 1]
    assert len(t2) == len(seps)
    # Supersets of a pair are also the Form1B instance at that pair.
    assert any(d.kind == "Form1B" for d in recognize_form(top).labels)


def test_recognize_indiscrete_empty():
    top = validate_topology(parse_family(3, [[], [0, 1, 2]]))
    assert recognize_form(top).labels == ()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_roundtrip_constructible_descriptors(n):
    descs = []
    descs += [FormDescriptor("ExcludedPoint", a=a) for a in range(n)]
    descs += [FormDescriptor("IncludedPoint", a=a) for a in range(n)]
    for a in range(n):
        for s in range(n):
            if s != a:
                descs.append(FormDescriptor("Form1A", a=a, seed=s))
                descs.append(FormDescriptor("Form1B", a=a, seed=s))
    descs += [FormDescriptor("Form3", a=a, b=b)
              for a in range(n) for b in range(a + 1, n)]
    for d in descs:
        top = construct_topology(d, n)
        if d.kind in ("ExcludedPoint", "IncludedPoint"):
            assert d in classify_connected_door(top).labels
        else:
            assert d in recognize_form(top).labels


def reference_matching(top, kinds):
    """The descriptors of `kinds` whose constructed, axiom-checked topology
    equals `top`: the route before matching by word."""
    return tuple(d for d in descriptors(top.n, kinds) if construct_topology(d, top.n) == top)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_labels_match_construct_reference(n):
    for top in enumerate_topologies(n)[0]:
        assert recognize_form(top).labels == reference_matching(
            top, ("Form1A", "Form1B", "Form3", "T2Shape"))
        if n > 1 and space_report(top).connected_door:
            assert classify_connected_door(top).labels == reference_matching(
                top, ("ExcludedPoint", "IncludedPoint"))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 10])
def test_recognize_form_matches_one_scan_of_every_kind(n):
    # T2Shape labels are listed from the Form1B pairs; one scan matches all four.
    if n <= 4:
        tops = enumerate_topologies(n)[0]
    elif n == 10:  # the T2Shape space A = {0}, p = 0, q = 1
        tops = [construct_topology(FormDescriptor("T2Shape", A=1, p=0, q=1), n)]
        assert len(recognize_form(tops[0]).labels) == 514
    else:
        words = {form_word(d, n) for d in descriptors(n, VALID_KINDS)}
        tops = [Topology(n, w) for w in sorted(words)]
    for top in tops:
        assert recognize_form(top).labels == _matching(
            top, ("Form1A", "Form1B", "Form3", "T2Shape"))


def reference_descriptors(n):
    """Every constructible descriptor on n points, listed kind by kind."""
    out = [FormDescriptor("ExcludedPoint", a=a) for a in range(n)]
    out += [FormDescriptor("IncludedPoint", a=a) for a in range(n)]
    out += [FormDescriptor("UltrafilterType", seed=p) for p in range(n)]
    for a in range(n):
        for s in range(n):
            if s != a:
                out.append(FormDescriptor("Form1A", a=a, seed=s))
                out.append(FormDescriptor("Form1B", a=a, seed=s))
    for a in range(n):
        for b in range(a + 1, n):
            out.append(FormDescriptor("Form3", a=a, b=b))
    full = full_mask(n)
    for A in range(1, full):
        for p in points_of(A):
            for q in points_of(full & ~A):
                out.append(FormDescriptor("T2Shape", A=A, p=p, q=q))
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_descriptors_order(n):
    assert descriptors(n, VALID_KINDS) == reference_descriptors(n)


def test_descriptor_json():
    d = FormDescriptor("Form3", a=0, b=1)
    assert d.to_json() == {"kind": "Form3", "a": 0, "b": 1}


def reference_construct_bits(d, n):
    """The open-set word of a form, built by testing every mask: the
    reference route for the subset and superset words."""
    full = full_mask(n)
    if d.kind == "ExcludedPoint":
        keep = lambda m: m == full or not (m >> d.a) & 1
    elif d.kind in ("IncludedPoint", "UltrafilterType"):
        point = d.a if d.kind == "IncludedPoint" else d.seed
        keep = lambda m: m == 0 or (m >> point) & 1
    elif d.kind == "Form1A":
        keep = lambda m: m in (0, full) or ((m >> d.seed) & 1 and not (m >> d.a) & 1)
    elif d.kind == "Form1B":
        keep = lambda m: m in (0, full) or ((m >> d.a) & 1 and (m >> d.seed) & 1)
    elif d.kind == "Form3":
        keep = lambda m: m == full or not m & ((1 << d.a) | (1 << d.b))
    else:
        need = (1 << d.p) | (1 << d.q)
        keep = lambda m: m in (0, full) or m & need == need
    return sum(1 << m for m in range(1 << n) if keep(m))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_construct_matches_per_mask_reference(n):
    for d in descriptors(n, VALID_KINDS):
        assert construct_topology(d, n).bits == reference_construct_bits(d, n)


def reference_cylinders(n):
    """The words of C(S, T) = {∅, X} ∪ {A : A ∩ S = T} for 1 ≤ |S| ≤ 2 and
    T ⊆ S, built by testing every mask."""
    full = full_mask(n)
    out = set()
    for S in range(1, 1 << n):
        if len(points_of(S)) <= 2:
            for T in range(1 << n):
                if T & ~S == 0:
                    out.add(sum(1 << m for m in range(1 << n)
                                if m in (0, full) or m & S == T))
    return out


@pytest.mark.parametrize("n, count", [(1, 1), (2, 3), (3, 18), (4, 32), (5, 50),
                                      (6, 72), (7, 98)])
def test_form_words_are_the_small_cylinders(n, count):
    """The named forms are exactly the cylinders with 1 ≤ |S| ≤ 2, 2n² of
    them for n ≥ 3."""
    words = {form_word(d, n) for d in descriptors(n, VALID_KINDS)}
    assert words == reference_cylinders(n)
    assert len(words) == count
    assert n < 3 or count == 2 * n * n
