"""Exact-arithmetic set functions and the identities they solve.

Two identities are checked throughout:

  disjoint additivity   f(A) + f(B) = f(A|B)          (A, B disjoint nonempty)
  valuation             f(A) + f(B) = f(A|B) + f(A&B) (all A, B)

Both go through `valuation_witness`: disjoint additivity is the valuation
identity of `extend_by_zero_at_empty(f)` on the pairs with empty meet.

Values are exact complex rationals; no floating point is used anywhere.
They stay `ExactComplex` at the API and JSON boundary, and every identity
loop runs on the exact integer codes of `int_codes`, one base for every
identity any check forms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement

from . import filters
from .classify import FormDescriptor, form_word
from .core import (
    CAPS, DomainError, Family, check_ground, complement_family, full_mask, lattice_witness,
    points_of, powerset, subsets_word, supersets_word)
from .topology import Topology, is_topology_bits, space_report


@dataclass(frozen=True)
class ExactComplex:
    re: Fraction
    im: Fraction = Fraction(0)

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def sort_key(self) -> tuple[Fraction, Fraction]:
        return (self.re, self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def to_json(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}


EC_ZERO = ExactComplex(Fraction(0))


def ec(re, im=0) -> ExactComplex:
    return ExactComplex(Fraction(re), Fraction(im))


def _fraction(part: str, text: str) -> Fraction:
    """Fraction(part), for a part of the value literal `text`, refused when
    its numerator or denominator has more digits than the int digit limit,
    as `str` could not print it.  Fraction would expand 10**exp unbounded,
    so the exponent is read first: a nonzero mantissa of k digits has such a
    numerator or denominator once |exp| > limit + k, and the literal with
    exponent 0 has the same form and is 0 exactly when the mantissa is.  An
    int of more than limit digits has more than 3 * limit bits, so
    bit_length settles most values without building 10**limit."""
    limit = sys.get_int_max_str_digits() or math.inf
    mantissa, _, exp = part.lower().partition("e")
    try:
        shift = abs(int(exp)) if exp else 0
        # Fraction refuses a space after the e, which int(exp) would skip.
        far = shift > limit + sum(map(str.isdigit, mantissa)) and not exp[0].isspace()
        q = Fraction(mantissa + "e0" if far else part)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse value {text!r}") from exc
    big = max(abs(q.numerator), q.denominator)
    if far and q or big.bit_length() > 3 * limit and big >= 10 ** limit:
        raise DomainError(f"exponent of value {text!r} exceeds {limit}" if shift > limit
                          else f"value {text!r} has more than {limit} digits")
    return q


def parse_value(text: str) -> ExactComplex:
    """Parse '3', '-1/2', '2i', '1+2i', '1/2-3/4i', '1e-2+1e-3i'."""
    t = text.strip().replace(" ", "")
    if not t:
        raise DomainError("empty value")
    if not t.endswith("i"):
        return ExactComplex(_fraction(t, text))
    body = t[:-1]
    # The last sign that does not open an exponent, as in 1e-3.
    split = next((i for i in range(len(body) - 1, 0, -1)
                  if body[i] in "+-" and body[i - 1] not in "eE"), 0)
    re_txt, im_txt = (body[:split], body[split:]) if split > 0 else ("", body)
    # "i" alone, or after a bare sign, is 1i.
    im_txt += "1" if im_txt in ("", "+", "-") else ""
    return ExactComplex(_fraction(re_txt, text) if re_txt else Fraction(0),
                        _fraction(im_txt, text))


@dataclass(frozen=True)
class SetFunction:
    """Total assignment from P(X) (or P(X) minus the empty set) to exact
    complex values."""

    n: int
    includes_empty: bool
    values: tuple[ExactComplex, ...]  # indexed by mask; slot 0 unused if no empty

    def __post_init__(self) -> None:
        check_ground(self.n)
        if len(self.values) != 1 << self.n:
            raise DomainError("value table size does not match the ground set")

    def domain(self) -> range:
        return range(0 if self.includes_empty else 1, 1 << self.n)

    def __call__(self, mask: int) -> ExactComplex:
        if mask == 0 and not self.includes_empty:
            raise DomainError("function not defined on the empty set")
        return self.values[mask]

    def value_set(self) -> list[ExactComplex]:
        return sorted({self.values[m] for m in self.domain()},
                      key=ExactComplex.sort_key)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "includes_empty": self.includes_empty,
            "values": [
                {"set": points_of(m), **self.values[m].to_json()}
                for m in self.domain()
            ],
        }


def int_codes(values) -> list[int]:
    """Exact integer codes of a list of `ExactComplex` values.

    With d the lcm of every `re` and `im` denominator, r = re*d and
    i = im*d are ints, and the code is r + B*i with B = 1 + T*max|r| and
    T = 2*CAPS["ground set"] + 2 (just r when no value has an imaginary
    part).  The map is additive over the integers.  For an identity
    sum c_j*v_j = 0 with integer coefficients and sum |c_j| <= T, the code
    of the left side is R + B*I with R = sum c_j*r_j and I = sum c_j*i_j,
    and |R| <= T*max|r| < B; so it is 0 exactly when R = I = 0, that is,
    exactly when the identity holds on the values.  T covers the longest
    identity any check forms, the modular route's f(m) - v on n points with
    f(m) = c + sum (v_i - c): the point values' coefficients total at most
    n, c's is 1 - |m| and v's is 1, so at most 2n + 2 terms.  A valuation
    pair has 4, disjoint additivity 3 and three-set inclusion-exclusion 8.
    The denominators are read in list passes: hashing `Fraction`s would cost
    more than the checks the codes speed up.
    """
    res = [v.re.as_integer_ratio() for v in values]
    ims = [v.im.as_integer_ratio() for v in values]
    d = math.lcm(*[q for _, q in res], *[q for _, q in ims])
    r = [p * (d // q) for p, q in res]
    if not any(p for p, _ in ims):
        return r
    base = 1 + (2 * CAPS["ground set"] + 2) * max(map(abs, r))
    return [x + base * (p * (d // q)) for x, (p, q) in zip(r, ims)]


@cache
def _pair_rows(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """(a, b, a|b, a&b) for the masks a < b on n points with a not within b,
    ascending, (4^n - 2*3^n + 2^n)/2 rows: a within b reads f(a) + f(b) = f(b) + f(a)."""
    return tuple((a, b, a | b, a & b) for a, b in combinations(range(1 << n), 2) if a & ~b)


def valuation_witness(values, n: int, meets: int = -1,
                      members: int = -1) -> tuple[int, int] | None:
    """The first pair A <= B (ascending) of the family `members` with A&B in
    `meets` (-1 holds every set, -2 every nonempty one, 1 the empty set alone)
    and values[A] + values[B] != values[A|B] + values[A&B], values read at every
    mask; None if none.  Only a pair of `_pair_rows(n)` can be one."""
    for a, b, j, m in _pair_rows(n):
        if (values[a] + values[b] != values[j] + values[m]
                and (members >> a) & (members >> b) & (meets >> m) & 1):
            return a, b
    return None


def satisfies_valuation(f: SetFunction) -> tuple[bool, tuple[int, int] | None]:
    """f(A) + f(B) = f(A|B) + f(A&B) over all pairs of the domain.  The
    witness, if any, is the lexicographically least violating (A, B),
    checked on the integer codes."""
    witness = valuation_witness(int_codes(f.values), f.n, -1 if f.includes_empty else -2)
    return witness is None, witness


def satisfies_disjoint_additivity(f: SetFunction) -> tuple[bool, tuple[int, int] | None]:
    """f(A) + f(B) = f(A|B) for disjoint nonempty A, B: the valuation
    identity of the zero extension on the pairs with empty meet, on the
    integer codes.  f must leave out the empty set."""
    witness = valuation_witness(int_codes(extend_by_zero_at_empty(f).values), f.n, 1)
    return witness is None, witness


def modular_compose(c: ExactComplex, weights: tuple[ExactComplex, ...]) -> SetFunction:
    """f(A) = c + the weights of the points of A, on n = len(weights)
    points: f(m) = f(m minus its lowest point) + the weight of that point,
    one exact add per mask."""
    n = len(weights)
    vals = [c] * (1 << n)
    for m in range(1, 1 << n):
        vals[m] = vals[m & (m - 1)] + weights[(m & -m).bit_length() - 1]
    return SetFunction(n, True, tuple(vals))


def preimage(values, members, v) -> int:
    """The family bitset of the members m with values[m] == v."""
    return sum(1 << m for m in members if values[m] == v)


def induced_family(f: SetFunction, v: ExactComplex) -> Family:
    """{empty, X} together with the preimage of v, read on the integer codes."""
    *codes, code = int_codes((*f.values, v))
    return Family(f.n, 1 | (1 << full_mask(f.n)) | preimage(codes, f.domain(), code))


def extend_by_zero_at_empty(f: SetFunction) -> SetFunction:
    """The extension by 0 at the empty set, which takes disjoint additivity
    to the valuation identity on disjoint pairs (`satisfies_disjoint_additivity`)."""
    if f.includes_empty:
        raise DomainError("function already defined on the empty set")
    vals = list(f.values)
    vals[0] = EC_ZERO
    return SetFunction(f.n, True, tuple(vals))


def verify_two_valued_additive(f: SetFunction) -> dict:
    """For a two-valued surjective solution of disjoint additivity on at
    least three points: 0 is a value, the preimage of f(X) is an
    ultrafilter, and adding the empty set gives a connected door topology.
    """
    if f.includes_empty:
        raise DomainError("disjoint additivity uses the empty-free domain")
    if f.n < 3:
        raise DomainError("needs a ground set with at least three points")
    values = f.value_set()
    if len(values) != 2:
        raise DomainError("function is not onto a two-element value set")
    ok, witness = satisfies_disjoint_additivity(f)
    if not ok:
        raise DomainError(f"disjoint additivity fails at pair {witness}")

    zero_in_values = any(v.is_zero for v in values)
    pre_bits = preimage(f.values, f.domain(), f.values[full_mask(f.n)])
    pre = Family(f.n, pre_bits)
    is_uf = filters.is_ultrafilter(pre, powerset(f.n))

    bits = pre_bits | 1
    is_cd = is_topology_bits(f.n, bits) and space_report(Topology(f.n, bits)).connected_door

    return {
        "zero_in_values": zero_in_values,
        "preimage_is_ultrafilter": is_uf,
        "induces_connected_door": is_cd,
        "ok": zero_in_values and is_uf and is_cd,
    }


def classify_value_shape(values: list[ExactComplex]) -> dict:
    """Decide whether a 3-element value set is {-z, 0, z} or {0, z, 2z}."""
    if len(set(values)) != 3:
        raise DomainError("need exactly three distinct values")
    vs = set(values)
    nonzero = [v for v in vs if not v.is_zero]
    if len(nonzero) == 3:
        return {"shape": "Other"}
    u, w = sorted(nonzero, key=ExactComplex.sort_key)
    if u == -w:
        z = w  # the larger of the pair in sort order
        return {"shape": "NegZeroPos", "z": z}
    if w == u + u:
        return {"shape": "ZeroZ2Z", "z": u}
    if u == w + w:
        return {"shape": "ZeroZ2Z", "z": w}
    return {"shape": "Other"}


# The explicit function of each constructible form, as one table row.  On a
# finite set each function reads a mask m at one or two watched points only:
# bit i of the code of m is m's bit at the i-th named point.  A row gives the
# names of the watched points, the value at each code and the designated
# value.  Form2 has no row: it needs free ultrafilters.
_PART2_TABLES = {
    "IncludedPoint": (("a",), (0, 1), 1),
    "UltrafilterType": (("seed",), (0, 1), 1),
    "ExcludedPoint": (("a",), (1, 0), 1),
    "Form1A": (("seed", "a"), (0, 1, -1, 0), 1),
    "Form1B": (("seed", "a"), (-1, 0, 0, 1), 1),
    "Form3": (("a", "b"), (-1, 0, 0, 1), -1),
    "T2Shape": (("p", "q"), (0, 1, 1, 2), 2),
}


def _code(m: int, points: tuple[int, ...]) -> int:
    code = 0
    for i, x in enumerate(points):
        code |= ((m >> x) & 1) << i
    return code


def f_from_form(d: FormDescriptor, n: int) -> tuple[SetFunction, ExactComplex]:
    """The explicit piecewise function attached to a constructible form,
    with its designated preimage value.  The function is a valuation and its
    induced family at the designated value reproduces the form's topology.
    """
    form_word(d, n)  # refuses exactly the descriptors construct_topology refuses
    names, table, designated = _PART2_TABLES[d.kind]
    points = tuple(getattr(d, name) for name in names)
    by_code = [ec(v) for v in table]
    vals = tuple(by_code[_code(m, points)] for m in range(1 << n))
    return SetFunction(n, True, vals), ec(designated)


# The ten pair subcases of the Form1A valuation check, keyed by the
# unordered pair of the operands' Form1A codes (bit 0 the seed, bit 1 a):
#   1: in the ultrafilter on X minus {a}
#   0: inside X minus {a} but not in the ultrafilter
#   3: {a} joined with an ultrafilter member
#   2: {a} joined with a non-member
_SUBCASE_INDEX = {
    frozenset((1,)): 1, frozenset((1, 0)): 2, frozenset((1, 3)): 3,
    frozenset((1, 2)): 4, frozenset((0, 3)): 5, frozenset((3,)): 6,
    frozenset((3, 2)): 7, frozenset((0,)): 8, frozenset((0, 2)): 9,
    frozenset((2,)): 10,
}


def form1a_pair_subcase(a: int, seed: int, A: int, B: int) -> int:
    """Which of the ten Form1A verification subcases the pair (A, B) is."""
    return _SUBCASE_INDEX[frozenset((_code(A, (seed, a)), _code(B, (seed, a))))]


@cache
def _ie3_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """(a|b|c, a&b, b&c, a&c, a, b, c, a&b&c) for the first triple a <= b <= c
    of each formally distinct, nonzero three-set inclusion-exclusion identity
    on n points (11 on three, 119 on four); the others cancel or repeat one."""
    rows = {}
    for a, b, c in combinations_with_replacement(range(1 << n), 3):
        row = (a | b | c, a & b, b & c, a & c, a, b, c, a & b & c)
        # The key holds the identity's coefficient of mask m, in [-4, 4], as digit m in base 16.
        rows.setdefault(sum(1 << 4 * m for m in row[:4]) - sum(1 << 4 * m for m in row[4:]), row)
    rows.pop(0, None)
    return tuple(rows.values())


def check_inclusion_exclusion3(n: int, codes) -> bool:
    """Three-set inclusion-exclusion for every triple, on the integer codes (by
    mask) of a function on the power set of n points: once per `_ie3_rows(n)` row."""
    for u, ab, bc, ac, a, b, c, abc in _ie3_rows(n):
        if codes[u] + codes[ab] + codes[bc] + codes[ac] != (
                codes[a] + codes[b] + codes[c] + codes[abc]):
            return False
    return True


def increasing_filter_check(f: SetFunction) -> dict:
    """For a real-valued monotone valuation, the preimage of f(X) is a
    filter."""
    if not f.includes_empty:
        raise DomainError("check ranges over the full power set")
    v = f.values
    if not all(x.is_real for x in v):
        raise DomainError("non-real value encountered")
    increasing = all(v[a].re <= v[a | 1 << x].re for a in range(1 << f.n) for x in range(f.n))
    report: dict = {"is_increasing": increasing}
    ok_val, _ = satisfies_valuation(f)
    report["is_valuation"] = ok_val
    if increasing and ok_val:
        bits = preimage(f.values, f.domain(), f.values[full_mask(f.n)])
        pw = powerset(f.n)
        # A constant function's preimage is pw, the improper filter; the
        # monotone-preimage fact holds in that generality.
        report["preimage_is_filter"] = bits == pw.bits or filters.is_filter(Family(f.n, bits), pw)
        report["preimage_is_proper"] = not bits & 1
        report["ok"] = report["preimage_is_filter"]
    else:
        report["ok"] = True  # hypothesis not met; nothing to assert
    return report


def lemma_two_valued_report(values: dict[int, ExactComplex | int], sigma: Family) -> dict:
    """The three structural facts about a two-valued surjective valuation
    on an algebra: complement values split, preimages are down/up closed,
    and both preimages are union- and intersection-closed."""
    n = sigma.n
    members = points_of(sigma.bits)
    vset = {values[m] for m in members}
    if len(vset) != 2:
        raise DomainError("function is not onto a two-element value set")
    full = full_mask(n)

    # Two values: m and its complement differ exactly when one of them is
    # in the preimage of f(X).
    upper = preimage(values, members, values[full])
    split_ok = not sigma.bits & ~(upper ^ complement_family(n, upper))

    lower = preimage(values, members, values[0])
    down_ok = not any(sigma.bits & subsets_word(y) & ~lower for y in points_of(lower))
    up_ok = not any(sigma.bits & supersets_word(n, u) & ~upper for u in points_of(upper))

    closed_ok = all(lattice_witness(preimage(values, members, z)) is None for z in vset)

    return {
        "complement_split": split_ok,
        "down_up_closed": down_ok and up_ok,
        "preimages_lattice_closed": closed_ok,
        "ok": split_ok and down_ok and up_ok and closed_ok,
    }


def valuation_on_algebra(values: dict[int, ExactComplex | int], sigma: Family) -> bool:
    at = [values.get(m, values[0]) for m in range(1 << sigma.n)]  # f(empty) outside sigma
    return valuation_witness(at, sigma.n, sigma.bits, sigma.bits) is None
