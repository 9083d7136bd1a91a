"""Constructors and recognizers for the named topology forms: excluded and
included point topologies, the three preimage-induced forms, and the
two-ultrafilter union shape; and the explicit function of Part 2 whose
preimage induces each of them.

Ultrafilter parameters are given by their principal point; free ultrafilters
do not exist on finite ground sets, so forms requiring them are rejected as
unconstructible rather than silently skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ClaimFalsified, DomainError, Family, check_ground, full_mask, points_of, subsets_word)
from .topology import PreconditionError, Topology, space_report, validate_topology


class UnconstructibleError(ValueError):
    """The descriptor needs a free ultrafilter, which no finite set has."""


# One row per constructible kind.  The kind is the cylinder
# C(S, T) = {∅, X} ∪ {A : A ∩ S = T}: the row names the points of S, and bit i
# of its flags puts the i-th named point in T.  Then come the columns of its
# Part 2 function, which on a finite set reads a mask m at its own watched
# points only: bit i of the code of m is m's bit at the i-th of them.  They
# give the names of those points, the value at each code and the designated
# value.  Form2 has no row: it needs free ultrafilters.
FORMS = {
    "ExcludedPoint": (("a",), 0b0, ("a",), (1, 0), 1),
    "IncludedPoint": (("a",), 0b1, ("a",), (0, 1), 1),
    "UltrafilterType": (("seed",), 0b1, ("seed",), (0, 1), 1),
    "Form1A": (("a", "seed"), 0b10, ("seed", "a"), (0, 1, -1, 0), 1),
    "Form1B": (("a", "seed"), 0b11, ("seed", "a"), (-1, 0, 0, 1), 1),
    "Form3": (("a", "b"), 0b00, ("a", "b"), (-1, 0, 0, 1), -1),
    "T2Shape": (("p", "q"), 0b11, ("p", "q"), (0, 1, 1, 2), 2),
}
VALID_KINDS = (*FORMS, "Form2")


@dataclass(frozen=True)
class FormDescriptor:
    """Symbolic name of a topology form.  Each constructible kind is the
    cylinder C(S, T) = {∅, X} ∪ {A : A ∩ S = T}.

    kind            parameters  S          T
    ExcludedPoint   a           {a}        ∅
    IncludedPoint   a           {a}        {a}
    UltrafilterType seed        {seed}     {seed}  (principal point)
    Form1A          a, seed     {a, seed}  {seed}  (ultrafilter on X minus {a}, principal at seed)
    Form1B          a, seed     {a, seed}  {a, seed}  (same seed convention)
    Form2           A plus two free seeds -- never constructible here
    Form3           a, b        {a, b}     ∅
    T2Shape         A, p, q     {p, q}     {p, q}  (principal seeds on A and its complement)
    """

    kind: str
    a: int | None = None
    b: int | None = None
    seed: int | None = None
    A: int | None = None
    p: int | None = None
    q: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise DomainError(f"unknown form kind {self.kind!r}")

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        for field in ("a", "b", "seed", "p", "q"):
            v = getattr(self, field)
            if v is not None:
                out[field] = v
        if self.A is not None:
            out["A"] = points_of(self.A)
        return out


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def _checked_row(d: FormDescriptor, n: int) -> tuple[int, int, list]:
    """S and T of the cylinder of `d` on n points and the Part 2 columns of
    its `FORMS` row, after the one check of its parameters that `form_word`
    and `f_from_form` share."""
    check_ground(n)  # before any 2^n-bit word is built
    k = d.kind
    if k == "Form2":
        raise UnconstructibleError(
            "unconstructible: free ultrafilters do not exist on finite sets")
    names, flags, *part2 = FORMS[k]
    if k == "T2Shape":
        _require(d.p is None or d.p >= 0, "p must lie in A")  # before any shift by p
        _require(d.p is None or d.p < n, "parameter p out of range")
        _require(d.A is not None, "parameter A missing")
        _require(0 < d.A < full_mask(n), "A must be proper nonempty")
    elif k == "Form3":
        _require(d.a is not None, "parameter a missing")
        _require(d.b is not None, "parameter b missing")
    S = T = 0
    for i, name in enumerate(names):
        point = getattr(d, name)
        if point is None:
            raise DomainError(f"parameter {name} missing")
        if not 0 <= point < n:
            raise DomainError(f"parameter {name} out of range")
        if k == "T2Shape":  # p on the A side, q off it
            _require((d.A >> point) & 1 != i, "q must lie outside A" if i else "p must lie in A")
        S |= 1 << point
        T |= ((flags >> i) & 1) << point
    if S.bit_count() < len(names):  # T2Shape's p and q differ by their sides of A
        raise DomainError("need distinct points a, b" if k == "Form3"
                          else "seed must be a point distinct from a")
    return S, T, part2


def form_word(d: FormDescriptor, n: int) -> int:
    """The family word of the form `d` on n points."""
    S, T, _ = _checked_row(d, n)
    full = full_mask(n)
    # A ∩ S = T exactly when A = T + B for some B ⊆ X minus S
    return 1 | (1 << full) | (subsets_word(full & ~S) << T)


def f_from_form(d: FormDescriptor, n: int) -> tuple[list[int], int]:
    """The explicit piecewise function attached to a constructible form, as
    its integer values by mask, with its designated preimage value.  The
    function is a valuation and its induced family at the designated value
    reproduces the form's topology.  The table code of every mask is built
    by doubling over the points, as `core.subsets_word` doubles a word."""
    _, _, (names, table, designated) = _checked_row(d, n)
    bit_of = [0] * n
    for i, name in enumerate(names):
        bit_of[getattr(d, name)] |= 1 << i
    idx = [0]
    for bit in bit_of:
        idx += [c | bit for c in idx]
    return [table[c] for c in idx], designated


def construct_topology(d: FormDescriptor, n: int) -> Topology:
    return validate_topology(Family(n, form_word(d, n)))


@dataclass(frozen=True)
class ClassificationLabel:
    labels: tuple[FormDescriptor, ...]
    degenerate: bool = False

    def to_json(self) -> dict:
        out: dict = {"labels": [d.to_json() for d in self.labels]}
        if self.degenerate:
            out["degenerate"] = True
        return out


def descriptors(n: int, kinds: tuple[str, ...]) -> list[FormDescriptor]:
    """Every constructible descriptor on n points (principal seeds) whose
    kind is in `kinds`, in a fixed order: ExcludedPoint, IncludedPoint,
    UltrafilterType, Form1A / Form1B interleaved per (a, seed), Form3,
    T2Shape."""
    full = full_mask(n)
    out = [FormDescriptor(k, a=a) for k in ("ExcludedPoint", "IncludedPoint")
           if k in kinds for a in range(n)]
    if "UltrafilterType" in kinds:
        out += [FormDescriptor("UltrafilterType", seed=p) for p in range(n)]
    out += [FormDescriptor(k, a=a, seed=s) for a in range(n) for s in range(n)
            if s != a for k in ("Form1A", "Form1B") if k in kinds]
    if "Form3" in kinds:
        out += [FormDescriptor("Form3", a=a, b=b)
                for a in range(n) for b in range(a + 1, n)]
    if "T2Shape" in kinds:
        out += [FormDescriptor("T2Shape", A=A, p=p, q=q) for A in range(1, full)
                for p in points_of(A) for q in points_of(full & ~A)]
    return out


def form_bits(n: int, kinds: tuple[str, ...]) -> set[int]:
    """The family words of the constructible instances of `kinds` on n
    points, one per distinct topology."""
    return {form_word(d, n) for d in descriptors(n, kinds)}


def _matching(top: Topology, kinds: tuple[str, ...]) -> tuple[FormDescriptor, ...]:
    """The descriptors of `kinds` whose word is the word of `top`, which is
    a validated topology, so each match is one too."""
    return tuple(d for d in descriptors(top.n, kinds) if form_word(d, top.n) == top.bits)


def classify_connected_door(top: Topology) -> ClassificationLabel:
    """All excluded-point / included-point descriptors matching a connected
    door topology.  The ultrafilter type never occurs on a finite set."""
    n = top.n
    if n == 1:
        return ClassificationLabel(
            (FormDescriptor("IncludedPoint", a=0), FormDescriptor("ExcludedPoint", a=0)),
            degenerate=True)
    if not space_report(top).connected_door:
        raise PreconditionError("space is not a connected door space")
    labels = _matching(top, ("ExcludedPoint", "IncludedPoint"))
    if not labels:
        raise ClaimFalsified("connected door space has a finite type",
                             {"n": n, "hex": top.to_hex()})
    return ClassificationLabel(labels)


def recognize_form(top: Topology) -> ClassificationLabel:
    """All Form1A / Form1B / Form3 / T2Shape descriptors (principal seeds)
    matching `top`.  A T2Shape word is the Form1B word at {p, q}, so its
    labels are the A holding p and missing q for each Form1B match (p, q)."""
    labels = _matching(top, ("Form1A", "Form1B", "Form3"))
    t2 = tuple(FormDescriptor("T2Shape", A=A, p=d.a, q=d.seed)
               for A in range(1, full_mask(top.n)) for d in labels
               if d.kind == "Form1B" and (A >> d.a) & 1 and not (A >> d.seed) & 1)
    return ClassificationLabel(labels + t2)
