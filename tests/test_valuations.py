import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, strategies as st

from doorlab import classify, valuations, verify
from doorlab.cli import run
from doorlab.classify import (
    VALID_KINDS, FormDescriptor, UnconstructibleError, construct_topology, descriptors,
    f_from_form)
from doorlab.core import CAPS, DomainError, points_of, powerset
from doorlab.filters import algebra_from_partition, partitions_of
from doorlab.search import enumerate_solutions
from doorlab.valuations import (
    EC_ZERO,
    ExactComplex,
    SetFunction,
    check_inclusion_exclusion3,
    classify_value_shape,
    ec,
    form1a_pair_subcase,
    increasing_filter_check,
    induced_word,
    int_codes,
    lemma_two_valued_report,
    modular_compose,
    parse_value,
    preimage,
    satisfies_valuation,
    valuation_on_algebra,
    valuation_witness,
)


def modular_decompose(f):
    """(c, weights) of a valuation solution, the inverse of
    modular_compose; raises ValueError with the violating pair otherwise."""
    ok, witness = satisfies_valuation(f)
    if not ok:
        raise ValueError(f"not a valuation; violated at pair {witness}")
    c = f.values[0]
    return c, tuple(f.values[1 << x] - c for x in range(f.n))


def scale(v, k):
    return ExactComplex(v.re * k, v.im * k)


def cardinality_fn(n, includes_empty=True):
    vals = tuple(ec(m.bit_count()) for m in range(1 << n))
    return SetFunction(n, includes_empty, vals)


def indicator_fn(n, p, includes_empty=True):
    vals = tuple(ec(1) if (m >> p) & 1 else ec(0) for m in range(1 << n))
    return SetFunction(n, includes_empty, vals)


def exact_f_from_form(d, n):
    """`f_from_form`'s integer values and designated value as `ExactComplex`."""
    values, designated = f_from_form(d, n)
    return SetFunction(n, True, tuple(map(ec, values))), ec(designated)


def check_reads_like_fraction(text):
    """A literal Fraction reads parses to the same value, and one it refuses
    is refused as unparseable.  The grammar is Python 3.11's: from 3.12 on
    Fraction also reads whitespace beside "/", which the parser refuses on
    every version."""
    try:
        if re.search(r"\s/|/\s", text):
            raise ValueError("whitespace beside /")
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(DomainError, match="cannot parse"):
            valuations._fraction(text, text)
    else:
        assert valuations._fraction(text, text) == expected


class TestExactComplex:
    def test_arithmetic(self):
        a, b = ec(1, 2), ec("1/2", -1)
        assert a + b == ExactComplex(Fraction(3, 2), Fraction(1))
        assert a - a == EC_ZERO
        assert (-a).re == -1
        assert a + a == ec(2, 4)

    def test_parse(self):
        assert parse_value("3") == ec(3)
        assert parse_value("-1/2") == ec("-1/2")
        assert parse_value("2i") == ec(0, 2)
        assert parse_value("1+2i") == ec(1, 2)
        assert parse_value("1/2-3/4i") == ec("1/2", "-3/4")
        assert parse_value("-i") == ec(0, -1)
        assert parse_value("1e-3") == ec("1/1000")
        assert parse_value("1e-3i") == ec(0, "1/1000")
        assert parse_value("1e-2+1e-3i") == ec("1/100", "1/1000")
        assert parse_value("1E+2-1e-3i") == ec(100, "-1/1000")
        with pytest.raises(DomainError):
            parse_value("spam")

    @pytest.mark.parametrize("text", ["", "  "])
    def test_parse_refuses_an_empty_value(self, text):
        with pytest.raises(DomainError) as exc:
            parse_value(text)
        assert str(exc.value) == "empty value"

    @pytest.mark.parametrize("text", ["1e4301", "1e-4301", "2+1E4301i", "1e-20000i"])
    def test_parse_refuses_exponent_beyond_digit_limit(self, text):
        # Each value has more than 4,300 digits and an exponent beyond 4,300,
        # and the refusal names the exponent.
        with pytest.raises(DomainError) as exc:
            parse_value(text)
        assert str(exc.value) == f"exponent of value {text!r} exceeds 4300"

    def test_parse_reads_small_values_with_far_exponents(self):
        # The value decides, not the exponent: a zero mantissa is 0 at any
        # exponent, and a long mantissa brings the value back in range.
        assert parse_value("0e99999") == EC_ZERO
        assert parse_value("-0.00e-999999999999i") == EC_ZERO
        assert parse_value("1000e-4302").re == Fraction(1, 10 ** 4299)
        assert parse_value("0.001e4302").re == 10 ** 4299
        for text in ("0/5e99999", "0e\t99999"):  # malformed for Fraction too
            with pytest.raises(DomainError, match="cannot parse"):
                parse_value(text)

    def test_parse_keeps_values_at_digit_limit(self):
        # 4,300 digits: the most that str, and so the JSON output, prints.
        assert parse_value("1e-4299").re == Fraction(1, 10 ** 4299)
        assert parse_value("-9999e4296").re == -9999 * 10 ** 4296
        assert parse_value("1e4299i").im == 10 ** 4299

    @pytest.mark.parametrize("text", [
        "1e4300", "-1e4300", "1e-4300", "15e4299", "1e4300i", "2-1e-4300i",
        *(pytest.param(text, id=name) for name, text in (
            ("nines", "9" * 4301), ("decimal", "0." + "0" * 4400 + "1"),
            ("ratio", "1/" + "9" * 4301), ("signed", "-0" + "9" * 4301 + ".0")))])
    def test_parse_refuses_values_beyond_digit_limit(self, text):
        # An exponent at the limit passes the exponent test, but its power
        # of ten has 4,301 digits, one more than str prints; and 4,301
        # significant digits are as many, however the literal places them.
        with pytest.raises(DomainError) as exc:
            parse_value(text)
        assert str(exc.value) == f"value {text!r} has more than 4300 digits"

    def test_parse_without_digit_limit_keeps_every_value(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        assert parse_value("1e5000").re == 10 ** 5000
        assert parse_value("1e-5000i").im == Fraction(1, 10 ** 5000)

    @pytest.mark.parametrize("text,value", [
        ("0" * 5000, 0), ("0" * 4400 + "5", 5), ("1." + "0" * 5000, 1),
        ("5" + "0" * 4400 + "e-4400", 5), ("0e" + "1" * 5000, 0),
        ("1/" + "0" * 5000 + "3", Fraction(1, 3))],
        ids=["zeros", "leading", "decimal", "exponent", "long-exponent", "ratio"])
    def test_parse_ignores_zeros_that_do_not_change_the_value(self, text, value, monkeypatch):
        # Leading zeros, and trailing zeros that the decimal point or the
        # exponent cancels, do not count towards the digit limit; and no
        # digit string past the limit reaches int, which would refuse it.
        def short_int(x=0, *args):
            assert not isinstance(x, str) or len(x) <= 4300, len(x)
            return int(x, *args)

        monkeypatch.setattr(valuations, "int", short_int, raising=False)
        assert parse_value(text) == ec(value)
        assert parse_value(text + "i") == ec(0, value)

    @given(st.text("0123456789._eE+-/\t", max_size=10))
    def test_parse_reads_fraction_grammar(self, text):
        # Exponents stay below 4 digits, so every value is within the limit.
        if not re.search(r"e[-+]?[\d_]{4}", text, re.IGNORECASE):
            check_reads_like_fraction(text)

    @pytest.mark.parametrize("text", [
        "1\t/2", "\t-.5e+1_2 ", "1_0/0_0", "1__0", "_1", "1.e5", ".e5", "5/", "+-1", "1.d"])
    def test_parse_reads_fraction_grammar_at_its_edges(self, text):
        check_reads_like_fraction(text)

    def test_str_roundtrip(self):
        for v in (ec(3), ec("-1/2"), ec(0, 2), ec(1, -2), ec("1/2", "3/4")):
            assert parse_value(str(v)) == v


def reference_satisfies_valuation(f):
    """The pair loop over the domain, kept as the reference route."""
    dom = list(f.domain())
    for a in dom:
        for b in dom:
            if b < a or (a & b == 0 and not f.includes_empty):
                continue
            if f.values[a] + f.values[b] != f.values[a | b] + f.values[a & b]:
                return False, (a, b)
    return True, None


def reference_disjoint_additivity(f):
    """The ExactComplex pair loop, kept as the reference route."""
    top = 1 << f.n
    for a in range(1, top):
        for b in range(a + 1, top):
            if not a & b and f.values[a] + f.values[b] != f.values[a | b]:
                return False, (a, b)
    return True, None


def reference_inclusion_exclusion3(f):
    """The ExactComplex triple loop, kept as the reference route."""
    top = 1 << f.n
    v = f.values
    return all(
        v[a | b | c] == (v[a] + v[b] + v[c] - v[a & b] - v[b & c] - v[a & c]
                         + v[a & b & c])
        for a in range(top) for b in range(a, top) for c in range(b, top))


def ie3(f):
    """`check_inclusion_exclusion3` on the codes of f's values."""
    return check_inclusion_exclusion3(f.n, int_codes(f.values))


SMALL_INTS = st.sampled_from([ec(-1), ec(0), ec(1)])

# Small Gaussian rationals: both parts in {0, +-1/3, +-1/2, +-2/3, +-1, +-3/2, +-2}.
_PARTS = sorted({Fraction(k, d) for k in range(-3, 4) for d in (1, 2, 3)
                 if abs(Fraction(k, d)) <= 2})
GAUSSIAN_RATIONALS = st.builds(ExactComplex, st.sampled_from(_PARTS),
                               st.sampled_from(_PARTS))


@st.composite
def near_modular_functions(draw, values=SMALL_INTS, includes_empty=st.booleans(),
                           constant=None):
    """A modular function, with one value sometimes overwritten, so that
    both valuations and witnesses anywhere in the pair order occur."""
    n = draw(st.integers(1, 3))
    c = draw(values if constant is None else constant)
    f = modular_compose(c, tuple(draw(values) for _ in range(n)))
    f = SetFunction(n, draw(includes_empty), f.values)
    if draw(st.booleans()):
        vals = list(f.values)
        vals[draw(st.integers(0, (1 << n) - 1))] = draw(values)
        f = SetFunction(n, f.includes_empty, tuple(vals))
    return f


class TestValuation:
    def test_cardinality_is_modular(self):
        assert satisfies_valuation(cardinality_fn(3))[0]

    def test_cardinality_on_seven_points(self):
        # Past every job cap, inside the ground set bound.
        f = cardinality_fn(7)
        assert satisfies_valuation(f)[0]
        assert modular_decompose(f) == (EC_ZERO, (ec(1),) * 7)

    def test_indicator_difference(self):
        vals = tuple(
            ec(((m >> 1) & 1) - (m & 1)) for m in range(8))
        assert satisfies_valuation(SetFunction(3, True, vals))[0]

    def test_threshold_violates_with_witness(self):
        vals = tuple(ec(1 if m.bit_count() >= 2 else 0) for m in range(8))
        ok, witness = satisfies_valuation(SetFunction(3, True, vals))
        assert not ok
        assert witness == (0b001, 0b010)

    @given(near_modular_functions())
    def test_witness_matches_reference_loop(self, f):
        assert satisfies_valuation(f) == reference_satisfies_valuation(f)

    @given(near_modular_functions(GAUSSIAN_RATIONALS))
    def test_gaussian_rationals_match_reference_loop(self, f):
        assert satisfies_valuation(f) == reference_satisfies_valuation(f)

    def test_value_table_of_the_wrong_size_is_refused(self):
        with pytest.raises(DomainError) as exc:
            SetFunction(3, True, (EC_ZERO,) * 7)
        assert str(exc.value) == "value table size does not match the ground set"


def zero_extension_codes(f):
    """The codes of `f`'s values by mask with 0 at the empty set, whatever
    f holds there: the form in which the eq1 scan hands a solution to
    `verify_theorem2`.  Disjoint additivity is `valuation_witness` on them
    with meets {empty}."""
    return int_codes((EC_ZERO, *f.values[1:]))


class TestDisjointAdditivity:
    def test_weight_sums(self):
        for ws in ((1, 2, 3), (0, -1, 5)):
            vals = tuple(
                ec(sum(w for x, w in enumerate(ws) if (m >> x) & 1))
                for m in range(8))
            codes = zero_extension_codes(SetFunction(3, False, vals))
            assert valuation_witness(codes, 3, 1) is None

    def test_indicator_all_nine_pairs(self):
        assert valuation_witness(zero_extension_codes(indicator_fn(3, 0, False)), 3, 1) is None

    def test_constant_one_fails(self):
        vals = tuple(ec(1) for _ in range(4))
        witness = valuation_witness(zero_extension_codes(SetFunction(2, False, vals)), 2, 1)
        assert witness == (0b01, 0b10)

    @given(near_modular_functions(GAUSSIAN_RATIONALS, includes_empty=st.just(False),
                                  constant=st.one_of(st.just(EC_ZERO), GAUSSIAN_RATIONALS)))
    def test_gaussian_rationals_match_reference_loop(self, f):
        witness = valuation_witness(zero_extension_codes(f), f.n, 1)
        assert (witness is None, witness) == reference_disjoint_additivity(f)

    @given(near_modular_functions(GAUSSIAN_RATIONALS, includes_empty=st.just(False),
                                  constant=st.one_of(st.just(EC_ZERO), GAUSSIAN_RATIONALS)),
           GAUSSIAN_RATIONALS.filter(lambda v: not v.is_zero))
    def test_is_the_valuation_identity_of_the_zero_extension(self, f, slot0):
        # Slot 0 lies outside the domain; a nonzero value there must not
        # reach the check, which reads the codes with 0 at the empty set.
        f = SetFunction(f.n, False, (slot0,) + f.values[1:])
        zero_extension = SetFunction(f.n, True, (EC_ZERO,) + f.values[1:])
        assert ((valuation_witness(zero_extension_codes(f), f.n, 1) is None)
                == satisfies_valuation(zero_extension)[0])


class TestModular:
    def test_decompose_cardinality(self):
        c, weights = modular_decompose(cardinality_fn(3))
        assert c == EC_ZERO
        assert all(w == ec(1) for w in weights)

    def test_decompose_form3_function(self):
        f, _ = exact_f_from_form(FormDescriptor("Form3", a=0, b=1), 4)
        c, weights = modular_decompose(f)
        assert c == ec(-1)
        assert weights == (ec(1), ec(1), ec(0), ec(0))
        assert modular_compose(c, weights).values == f.values

    def test_decompose_failure(self):
        vals = tuple(ec(1 if m.bit_count() >= 2 else 0) for m in range(8))
        with pytest.raises(ValueError, match="pair"):
            modular_decompose(SetFunction(3, True, vals))

    def test_compose_satisfies_valuation(self):
        weights = (ec(1), ec(-1), ec(0))
        f = modular_compose(ec(0), weights)
        assert satisfies_valuation(f)[0]
        # Disjoint additivity holds exactly when the constant term is zero.
        assert valuation_witness(zero_extension_codes(f), 3, 1) is None
        shifted = modular_compose(ec(2), weights)
        assert valuation_witness(zero_extension_codes(shifted), 3, 1) is not None

    def test_mutual_inverse_exhaustive_n3(self):
        # Brute scan over all {-1,0,1}-valued functions equals the modular
        # image.
        vals3 = [ec(-1), ec(0), ec(1)]
        brute = set()
        for assignment in product(vals3, repeat=8):
            f = SetFunction(3, True, assignment)
            if satisfies_valuation(f)[0]:
                brute.add(assignment)
                assert modular_compose(*modular_decompose(f)).values == assignment
        modular = set()
        for c in vals3:
            for ws in product([v - c for v in vals3], repeat=3):
                f = modular_compose(c, ws)
                if set(f.values) <= set(vals3):
                    modular.add(f.values)
        assert brute == modular


class TestInducedFamily:
    """`induced_word` on the codes of a function's values and of v."""

    def test_form1_function(self):
        f = modular_compose(ec(0), (ec(-1), ec(1), ec(0)))
        *codes, one = int_codes((*f.values, ec(1)))
        word = induced_word(codes, one)
        assert points_of(word) == [0b000, 0b010, 0b110, 0b111]
        from doorlab.topology import is_topology_bits
        assert is_topology_bits(3, word)
        # The zero preimage happens to be the partition family
        # {empty, {0,1}, {2}, X}, a valid topology; the axiom check
        # decides mechanically either way.
        *codes, zero = int_codes((*f.values, ec(0)))
        zero_word = induced_word(codes, zero)
        assert points_of(zero_word) == [0b000, 0b011, 0b100, 0b111]
        assert is_topology_bits(3, zero_word)

    def test_empty_preimage(self):
        f = modular_compose(ec(0), (EC_ZERO,) * 3)
        *codes, one = int_codes((*f.values, ec(1)))
        assert points_of(induced_word(codes, one)) == [0, 7]


class TestTwoValuedAdditive:
    """Theorem 2's conclusions are `verify.two_valued_holds` on the power set."""

    def test_indicator_verifies(self):
        f = indicator_fn(3, 0, includes_empty=False)
        assert verify.two_valued_holds(dict(enumerate(zero_extension_codes(f))), powerset(3))

    def test_n2_sharpness_counterexample(self):
        # Onto {1, 2} with no zero value: its zero extension takes three values.
        codes = zero_extension_codes(SetFunction(2, False, (EC_ZERO, ec(1), ec(1), ec(2))))
        assert valuation_witness(codes, 2, 1) is None
        assert not verify.two_valued_holds(dict(enumerate(codes)), powerset(2))

    def test_preimage_that_is_no_topology_fails(self, monkeypatch, capsys):
        singletons = (1 << 0b01) | (1 << 0b10)  # with the empty set, misses {0, 1}
        monkeypatch.setattr(verify, "preimage", lambda *args: singletons)
        f = indicator_fn(3, 0, includes_empty=False)
        codes = dict(enumerate(zero_extension_codes(f)))
        assert verify.two_valued_holds(codes, powerset(3)) is False
        assert run(["verify-theorem", "--id", "thm2"]) == 1
        assert json.loads(capsys.readouterr().out)["ok"] is False

    def test_power_set_case_needs_a_topology(self, monkeypatch):
        # The classical check runs on the power set only.
        monkeypatch.setattr(verify, "is_topology_bits", lambda n, bits: False)
        values = {m: m & 1 for m in range(8)}
        assert not verify.two_valued_holds(values, powerset(3))
        sigma = algebra_from_partition(3, [0b001, 0b110])
        assert verify.two_valued_holds({m: values[m] for m in points_of(sigma.bits)}, sigma)

    def test_scaling_invariance(self):
        base = indicator_fn(3, 0, includes_empty=False)
        scaled = SetFunction(
            3, False, tuple(scale(v, Fraction(3, 2)) for v in base.values))
        codes = zero_extension_codes(scaled)
        assert set(codes) == {0, 3}
        assert verify.two_valued_holds(dict(enumerate(codes)), powerset(3))
        *scaled_codes, three_halves = int_codes((*scaled.values, ec("3/2")))
        *base_codes, one = int_codes((*base.values, ec(1)))
        assert induced_word(scaled_codes, three_halves) == induced_word(base_codes, one)


class TestValueShape:
    def test_neg_zero_pos(self):
        got = classify_value_shape([ec(-1), ec(0), ec(1)])
        assert got == {"shape": "NegZeroPos", "z": ec(1)}

    def test_zero_z_2z(self):
        got = classify_value_shape([ec(0), ec(1), ec(2)])
        assert got == {"shape": "ZeroZ2Z", "z": ec(1)}
        # Sorted, the nonzero pair is (-2, -1): the smaller is twice the larger.
        got = classify_value_shape([ec(-2), ec(-1), ec(0)])
        assert got == {"shape": "ZeroZ2Z", "z": ec(-1)}

    def test_other(self):
        assert classify_value_shape([ec(0), ec(1), ec(3)])["shape"] == "Other"
        assert classify_value_shape([ec(1), ec(2), ec(3)])["shape"] == "Other"

    def test_complex_z(self):
        got = classify_value_shape([ec(0, -1), ec(0), ec(0, 1)])
        assert got["shape"] == "NegZeroPos"

    def test_wrong_cardinality(self):
        with pytest.raises(DomainError):
            classify_value_shape([ec(0), ec(1)])


class TestFFromForm:
    def test_form1a_table_n3(self):
        f, designated = exact_f_from_form(FormDescriptor("Form1A", a=0, seed=1), 3)
        assert designated == ec(1)
        expected = {0b010: 1, 0b110: 1, 0b000: 0, 0b100: 0, 0b011: 0,
                    0b111: 0, 0b001: -1, 0b101: -1}
        for mask, value in expected.items():
            assert f.values[mask] == ec(value)
        assert satisfies_valuation(f)[0]

    def test_form3_n4(self):
        f, designated = exact_f_from_form(FormDescriptor("Form3", a=0, b=1), 4)
        assert designated == ec(-1)
        for m in range(16):
            assert f.values[m] == ec((m & 0b0011).bit_count() - 1)
        top = construct_topology(FormDescriptor("Form3", a=0, b=1), 4)
        *codes, code = int_codes((*f.values, designated))
        assert induced_word(codes, code) == top.bits

    def test_form1b_shares_form3_function(self):
        f1b, d1b = exact_f_from_form(FormDescriptor("Form1B", a=0, seed=1), 4)
        f3, d3 = exact_f_from_form(FormDescriptor("Form3", a=0, b=1), 4)
        assert f1b.values == f3.values
        assert (d1b, d3) == (ec(1), ec(-1))

    def test_form2_rejected(self):
        with pytest.raises(UnconstructibleError):
            f_from_form(FormDescriptor("Form2", A=0b01), 4)

    def test_all_ten_subcases_occur_at_n4(self):
        seen = {form1a_pair_subcase(0, 1, A, B)
                for A in range(16) for B in range(16)}
        assert seen == set(range(1, 11))

    def test_subcase_consistent_with_valuation(self):
        f, _ = exact_f_from_form(FormDescriptor("Form1A", a=0, seed=1), 4)
        for A in range(16):
            for B in range(16):
                form1a_pair_subcase(0, 1, A, B)
                assert (f.values[A] + f.values[B]
                        == f.values[A | B] + f.values[A & B])


def _in_principal(m, seed, avoid):
    """Membership in the principal ultrafilter at seed on X minus avoid."""
    return bool((m >> seed) & 1) and not (m >> avoid) & 1


def reference_f_from_form(d, n):
    """One branch per kind, each function spelt out by its case analysis:
    the reference route for the table of `f_from_form`."""
    one, zero, neg = ec(1), EC_ZERO, ec(-1)
    vals = []
    if d.kind in ("IncludedPoint", "UltrafilterType"):
        point = d.a if d.kind == "IncludedPoint" else d.seed
        vals = [one if (m >> point) & 1 else zero for m in range(1 << n)]
        return SetFunction(n, True, tuple(vals)), one
    if d.kind == "ExcludedPoint":
        vals = [zero if (m >> d.a) & 1 else one for m in range(1 << n)]
        return SetFunction(n, True, tuple(vals)), one
    if d.kind == "Form1A":
        a, s = d.a, d.seed
        for m in range(1 << n):
            if _in_principal(m, s, a):
                vals.append(one)
            elif not (m >> a) & 1 or _in_principal(m & ~(1 << a), s, a):
                # outside the filter below X minus {a}, or {a} joined with
                # a filter member
                vals.append(zero)
            else:
                vals.append(neg)
        return SetFunction(n, True, tuple(vals)), one
    if d.kind == "Form1B":
        a, s = d.a, d.seed
        for m in range(1 << n):
            has_a = bool((m >> a) & 1)
            rest_in = _in_principal(m & ~(1 << a), s, a)
            if has_a and rest_in:
                vals.append(one)
            elif (not has_a and _in_principal(m, s, a)) or (has_a and not rest_in):
                vals.append(zero)
            else:
                vals.append(neg)
        return SetFunction(n, True, tuple(vals)), one
    if d.kind == "Form3":
        pair = (1 << d.a) | (1 << d.b)
        vals = [(neg, zero, one)[(m & pair).bit_count()] for m in range(1 << n)]
        return SetFunction(n, True, tuple(vals)), neg
    if d.kind == "T2Shape":
        need = (1 << d.p) | (1 << d.q)
        vals = [(zero, one, ec(2))[(m & need).bit_count()] for m in range(1 << n)]
        return SetFunction(n, True, tuple(vals)), ec(2)
    raise DomainError(f"unknown form kind {d.kind!r}")


# The four operand categories of the reference subcase split:
#   1: in the ultrafilter on X minus {a}
#   2: inside X minus {a} but not in the ultrafilter
#   3: {a} joined with an ultrafilter member
#   4: {a} joined with a non-member
REFERENCE_SUBCASE_INDEX = {
    frozenset((1,)): 1, frozenset((1, 2)): 2, frozenset((1, 3)): 3,
    frozenset((1, 4)): 4, frozenset((2, 3)): 5, frozenset((3,)): 6,
    frozenset((3, 4)): 7, frozenset((2,)): 8, frozenset((2, 4)): 9,
    frozenset((4,)): 10,
}


def reference_form1a_pair_subcase(a, seed, A, B):
    def cat(m):
        has_a = bool((m >> a) & 1)
        rest_in = _in_principal(m & ~(1 << a), seed, a)
        if not has_a:
            return 1 if _in_principal(m, seed, a) else 2
        return 3 if rest_in else 4

    return REFERENCE_SUBCASE_INDEX[frozenset((cat(A), cat(B)))]


def code_read_f_from_form(d, n):
    """The route `verify_part2` read before the integer values: each mask's
    table code by `_code`, one `ExactComplex` per mask in a `SetFunction`,
    from the function columns of the kind's `classify.FORMS` row."""
    _, _, names, table, designated = classify.FORMS[d.kind]
    points = tuple(getattr(d, name) for name in names)
    vals = tuple(ec(table[valuations._code(m, points)]) for m in range(1 << n))
    return SetFunction(n, True, vals), ec(designated)


def part2_verdicts(d, n):
    """`verify_part2`'s two checks of one descriptor, on the integer values:
    (is a valuation, induced family is the constructed word)."""
    values, designated = f_from_form(d, n)
    return (valuation_witness(values, n) is None,
            induced_word(values, designated) == construct_topology(d, n).bits)


def reference_part2_verdicts(d, n):
    """The same two checks on the code-read `SetFunction`, through
    `satisfies_valuation` and `induced_word` on its codes."""
    f, designated = code_read_f_from_form(d, n)
    *codes, code = int_codes((*f.values, designated))
    return (satisfies_valuation(f)[0],
            induced_word(codes, code) == construct_topology(d, n).bits)


def test_f_from_form_matches_reference_branches():
    """The integer values and designated value against the branch reference
    and the code-read route, and the verifier's two verdicts against the
    code-read route's."""
    checked = 0
    for n in range(2, 7):
        for d in descriptors(n, VALID_KINDS):
            assert (exact_f_from_form(d, n) == reference_f_from_form(d, n)
                    == code_read_f_from_form(d, n)), (n, d)
            assert part2_verdicts(d, n) == reference_part2_verdicts(d, n) == (True, True), (n, d)
            checked += 1
    assert checked == 937


@pytest.mark.parametrize("kind, row, verdicts", [
    # f(seed) + f(a) = 0 but f(X) + f(empty) = 2, while the preimage of 1 is
    # still the code 1 alone: only the valuation check can catch this row.
    ("Form1A", (("seed", "a"), (0, 1, -1, 2), 1), (False, True)),
    # The Form3 valuation read at 0 in place of -1: only the family check can.
    ("Form3", (("a", "b"), (-1, 0, 0, 1), 0), (True, False)),
])
def test_part2_fails_on_a_broken_table_row(monkeypatch, capsys, kind, row, verdicts):
    # `row` breaks only the function columns: the cylinder columns still build the word.
    monkeypatch.setitem(classify.FORMS, kind, (*classify.FORMS[kind][:2], *row))
    for n in range(2, 6):
        for d in descriptors(n, (kind,)):
            assert part2_verdicts(d, n) == reference_part2_verdicts(d, n) == verdicts, (n, d)
    assert verify.verify_part2()["ok"] is False
    assert run(["verify-theorem", "--id", "part2-constructions"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_f_from_form_builds_no_form_word(monkeypatch):
    """The function reads its row through the parameter check alone: no
    family word is built, and the values are still the branch reference's."""
    def no_word(*_):
        raise AssertionError("f_from_form built a family word")

    monkeypatch.setattr(classify, "form_word", no_word)
    monkeypatch.setattr(classify, "subsets_word", no_word)
    for n in range(2, 6):
        for d in descriptors(n, VALID_KINDS):
            assert exact_f_from_form(d, n) == reference_f_from_form(d, n), (n, d)


def test_form1a_subcase_matches_reference_categories():
    n = 4
    for a in range(n):
        for seed in range(n):
            if seed == a:
                continue
            for A in range(1 << n):
                for B in range(1 << n):
                    assert (form1a_pair_subcase(a, seed, A, B)
                            == reference_form1a_pair_subcase(a, seed, A, B))


class TestInclusionExclusion:
    def test_cardinality(self):
        assert ie3(cardinality_fn(3))

    def test_non_valuation_fails(self):
        vals = tuple(ec(1 if m.bit_count() >= 2 else 0) for m in range(8))
        assert not ie3(SetFunction(3, True, vals))

    def test_modular_composition(self):
        f = modular_compose(ec(1), (ec(-1), ec(1), ec(0)))
        assert ie3(f)

    @given(near_modular_functions(GAUSSIAN_RATIONALS, includes_empty=st.just(True)))
    def test_gaussian_rationals_match_reference_loop(self, f):
        assert ie3(f) == reference_inclusion_exclusion3(f)


class TestIntCodes:
    def test_codes_separate_real_and_imaginary_parts(self):
        # f is 1 on {0}, i on {0, 1} and 0 elsewhere.  With B = 1 the codes
        # r + i would be the indicator of point 0, a modular function, so
        # all three identities would hold on them; they fail on f.
        values = (EC_ZERO, ec(1), EC_ZERO, ec(0, 1))
        naive = SetFunction(2, True, tuple(ec(v.re + v.im) for v in values))
        assert naive.values == indicator_fn(2, 0).values
        assert satisfies_valuation(naive)[0]
        assert valuation_witness(zero_extension_codes(naive), 2, 1) is None
        assert ie3(naive)

        assert int_codes(values) == [0, 1, 0, 23]
        f = SetFunction(2, True, values)
        assert satisfies_valuation(f) == (False, (0b01, 0b10))
        assert valuation_witness(zero_extension_codes(f), 2, 1) == (0b01, 0b10)
        assert not ie3(f)

    def test_common_denominator(self):
        assert int_codes([ec("1/2"), ec("-1/3"), ec(2)]) == [3, -2, 12]
        assert int_codes([ec("1/2", "1/3"), EC_ZERO]) == [3 + 67 * 2, 0]
        assert int_codes([ec(2, -2), ec(0, 2), ec(-3, 1)]) == [2 - 134, 134, -3 + 67]

    def test_base_covers_the_stated_identity_length(self):
        # 21*1 - (-1 + i) = 22 - i != 0 has 2 * CAPS["ground set"] + 2 = 22
        # terms.  Its real part 22 would carry into the imaginary part with
        # B = 1 + 21*1, whose codes 1 and 21 sum to 0; with B = 1 + 22*1
        # they sum to -1.
        codes = int_codes([ec(1), ec(-1, 1)])
        assert codes == [1, 22]
        assert 21 * codes[0] - codes[1] == -1

    @given(st.lists(GAUSSIAN_RATIONALS, min_size=2, max_size=3, unique=True), st.data())
    def test_coded_sum_is_zero_exactly_when_the_sum_is(self, values, data):
        # Any integer coefficients of total size up to the longest identity
        # a check forms, 2 * CAPS["ground set"] + 2 terms.
        budget = 2 * CAPS["ground set"] + 2
        coeffs = []
        for _ in values:
            coeffs.append(data.draw(st.integers(-budget, budget)))
            budget -= abs(coeffs[-1])
        total = sum((scale(v, c) for c, v in zip(coeffs, values)), EC_ZERO)
        coded = sum(c * x for c, x in zip(coeffs, int_codes(values)))
        assert (coded == 0) == total.is_zero


class TestIncreasing:
    def test_cardinality_filter(self):
        rep = increasing_filter_check(cardinality_fn(3))
        assert rep["is_increasing"] and rep["ok"] and rep["preimage_is_proper"]

    def test_indicator_principal_filter(self):
        rep = increasing_filter_check(indicator_fn(3, 1))
        assert rep["is_increasing"] and rep["ok"]

    def test_decreasing_skipped(self):
        vals = tuple(ec(-m.bit_count()) for m in range(8))
        rep = increasing_filter_check(SetFunction(3, True, vals))
        assert not rep["is_increasing"] and rep["ok"]

    def test_non_real_rejected(self):
        vals = tuple(ec(0, 1) for _ in range(8))
        with pytest.raises(DomainError, match="non-real"):
            increasing_filter_check(SetFunction(3, True, vals))

    def test_constant_gives_improper_filter(self):
        vals = tuple(ec(5) for _ in range(8))
        rep = increasing_filter_check(SetFunction(3, True, vals))
        assert rep["ok"] and not rep["preimage_is_proper"]

    def test_function_without_the_empty_set_is_refused(self):
        with pytest.raises(DomainError) as exc:
            increasing_filter_check(cardinality_fn(3, includes_empty=False))
        assert str(exc.value) == "check ranges over the full power set"


class TestAlgebraRelative:
    def test_lemma_report_on_block_algebra(self):
        sigma = algebra_from_partition(3, [0b011, 0b100])
        values = {0b000: ec(0), 0b011: ec(1), 0b100: ec(0), 0b111: ec(1)}
        assert valuation_on_algebra(values, sigma)
        assert lemma_two_valued_report(values, sigma)["ok"]

    def test_non_surjective_rejected(self):
        sigma = powerset(2)
        values = {m: ec(1) for m in range(4)}
        with pytest.raises(DomainError):
            lemma_two_valued_report(values, sigma)


def reference_lemma_two_valued_report(values, sigma):
    """The member loops of the two-valued lemma, kept as the reference
    route."""
    n = sigma.n
    members = points_of(sigma.bits)
    z_pair = {values[m] for m in members}
    full = (1 << n) - 1
    split_ok = all({values[m], values[full & ~m]} == z_pair for m in members)
    v_empty, v_full = values[0], values[full]
    down_ok = all(values[a] == v_empty for y in members if values[y] == v_empty
                  for a in members if a & ~y == 0)
    up_ok = all(values[v] == v_full for u in members if values[u] == v_full
                for v in members if u & ~v == 0)
    closed_ok = all(values[a | b] == z and values[a & b] == z
                    for z in z_pair
                    for a in members if values[a] == z
                    for b in members if values[b] == z)
    return {
        "complement_split": split_ok,
        "down_up_closed": down_ok and up_ok,
        "preimages_lattice_closed": closed_ok,
        "ok": split_ok and down_ok and up_ok and closed_ok,
    }


@pytest.mark.parametrize("n", [2, 3])
def test_lemma_report_same_for_int_and_exact_values(n):
    # Every function onto {1, 0} on every block algebra, valuation or not.
    for blocks in partitions_of(n):
        sigma = algebra_from_partition(n, blocks)
        members = points_of(sigma.bits)
        p = sigma.bits
        while p := (p - 1) & sigma.bits:
            ints = {m: (p >> m) & 1 for m in members}
            exact = {m: ec(v) for m, v in ints.items()}
            report = lemma_two_valued_report(ints, sigma)
            assert report == lemma_two_valued_report(exact, sigma)
            assert report == reference_lemma_two_valued_report(exact, sigma)
            assert valuation_on_algebra(ints, sigma) == valuation_on_algebra(exact, sigma)


class TestHomogeneity:
    @given(st.sampled_from([Fraction(2), Fraction(-1), Fraction(1, 3),
                            Fraction(7, 2)]))
    def test_scaling_preserves_both_identities(self, lam):
        f = modular_compose(ec(0), (ec(1), ec(-1), ec(2)))
        scaled = SetFunction(3, True, tuple(scale(v, lam) for v in f.values))
        assert satisfies_valuation(scaled)[0]


def test_set_function_constructor_and_json():
    f = cardinality_fn(3, includes_empty=False)
    doc = f.to_json()
    assert doc["n"] == 3 and not doc["includes_empty"]
    assert len(doc["values"]) == 7
    assert doc["values"][0] == {"set": [0], "re": "1", "im": "0"}


def reference_brute_solutions(n, values, equation):
    """Every assignment in mask order with ExactComplex sums, pruned by
    the equation on every pair below the current mask: the reference route
    for the brute scan on integer codes."""
    top = 1 << n
    first = 0 if equation == "eq2" else 1
    assigned = [EC_ZERO] * top
    out = []

    def consistent(m):
        for a in range(1, m):
            for b in range(a, m):
                if a | b != m:
                    continue
                if equation == "eq1_disjoint":
                    if not a & b and assigned[a] + assigned[b] != assigned[m]:
                        return False
                elif assigned[a] + assigned[b] != assigned[m] + assigned[a & b]:
                    return False
        return True

    def dfs(m):
        if m == top:
            if set(assigned[first:]) == set(values):
                out.append(SetFunction(n, equation == "eq2", tuple(assigned)))
            return
        for v in values:
            assigned[m] = v
            if consistent(m):
                dfs(m + 1)

    dfs(first)
    return sorted(out, key=lambda f: tuple(v.sort_key() for v in f.values))


@pytest.mark.parametrize("equation", ["eq1_disjoint", "eq2"])
@pytest.mark.parametrize("values", [
    "0,1", "-1,0,1", "0,1,2", "0,1/2", "0,i", "-2,0,2"])
def test_brute_solutions_match_reference_scan(equation, values):
    vals = [parse_value(v) for v in values.split(",")]
    for n in (1, 2, 3):
        assert (enumerate_solutions(n, vals, equation, "brute")
                == reference_brute_solutions(n, vals, equation))


# The row tables and the loops they replaced.  `valuation_witness` walks
# `_pair_rows(n)` and `check_inclusion_exclusion3` walks `_ie3_rows(n)`;
# the member-pair loop and the triple loop below are the routes before them.

def reference_valuation_witness(values, members, domain_bits=-1):
    """The first pair A <= B of `members` (ascending) whose meet lies in the
    family `domain_bits` and whose valuation identity fails: every pair,
    those that hold by their form included."""
    for i, a in enumerate(members):
        fa = values[a]
        for b in members[i:]:
            m = a & b
            if (domain_bits >> m) & 1 and fa + values[b] != values[a | b] + values[m]:
                return a, b
    return None


def reference_ie3_codes(n, codes):
    """The identity on every triple a <= b <= c of masks: 120 on three points."""
    top = 1 << n
    for a in range(top):
        for b in range(a, top):
            for c in range(b, top):
                lhs = codes[a | b | c]
                rhs = (codes[a] + codes[b] + codes[c]
                       - codes[a & b] - codes[b & c] - codes[a & c]
                       + codes[a & b & c])
                if lhs != rhs:
                    return False
    return True


def coefficients(plus, minus):
    """The nonzero coefficients, by mask, of sum f(plus) - sum f(minus)."""
    vec = Counter(plus)
    vec.subtract(minus)
    return frozenset((m, c) for m, c in vec.items() if c)


# The meets of the three callers: the valuation identity with and without
# the empty set in the domain, and disjoint additivity; each walked the
# members from the first mask of its domain.
CALLER_MEETS = [(-1, 0), (-2, 1), (1, 1)]


@pytest.mark.parametrize("meets, first", CALLER_MEETS)
def test_valuation_witness_matches_member_pair_loop_on_every_n3_tuple(meets, first):
    for codes in product(int_codes([ec(-1), ec(0), ec(1)]), repeat=8):
        assert (valuation_witness(codes, 3, meets)
                == reference_valuation_witness(codes, range(first, 8), meets))


def seeded_near_modular_codes(rng, n):
    """The codes of c + a weight sum, with up to two values moved by one."""
    codes = [rng.randint(-2, 2)]
    for _ in range(n):
        w = rng.randint(-2, 2)
        codes += [x + w for x in codes]
    for _ in range(rng.randint(0, 2)):
        codes[rng.randrange(1 << n)] += rng.choice((-1, 1))
    return codes


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_valuation_witness_matches_member_pair_loop_on_seeded_tuples(n):
    rng = random.Random(n)
    parts = partitions_of(n)
    for _ in range(30):
        codes = seeded_near_modular_codes(rng, n)
        for meets, first in CALLER_MEETS:
            assert (valuation_witness(codes, n, meets)
                    == reference_valuation_witness(codes, range(first, 1 << n), meets))
        # On a block algebra, with junk outside it that the members filter skips.
        sigma = algebra_from_partition(n, rng.choice(parts))
        junk = [c if (sigma.bits >> m) & 1 else 99 for m, c in enumerate(codes)]
        assert (valuation_witness(junk, n, sigma.bits, sigma.bits)
                == reference_valuation_witness(codes, points_of(sigma.bits), sigma.bits))


def test_valuation_witness_matches_member_pair_loop_on_every_relative_solution(monkeypatch):
    # Each (sigma, values) that verify_relative checks, and each with one
    # member's value flipped, by the rows with the members filter and by
    # the member-pair loop `valuation_witness` ran before them.
    seen = []

    def recorded(values, sigma):
        seen.append((values, sigma))
        return valuation_on_algebra(values, sigma)

    monkeypatch.setattr(verify, "valuation_on_algebra", recorded)
    assert verify.verify_relative()["ok"]
    assert len(seen) == 100
    witnesses = 0
    for values, sigma in seen:
        members = points_of(sigma.bits)
        for flip in [None, *members]:
            moved = {m: v ^ (m == flip) for m, v in values.items()}
            at = [moved.get(m, 99) for m in range(1 << sigma.n)]
            witness = valuation_witness(at, sigma.n, sigma.bits, sigma.bits)
            assert witness == reference_valuation_witness(moved, members, sigma.bits)
            assert valuation_on_algebra(moved, sigma) is (witness is None)
            witnesses += witness is not None
    assert witnesses > 0


@pytest.mark.parametrize("n", range(1, 8))
def test_pair_rows_skip_only_pairs_that_hold_by_form(n):
    rows = valuations._pair_rows(n)
    assert len(rows) == (4 ** n - 2 * 3 ** n + 2 ** n) // 2
    kept = iter(rows)
    row = next(kept, None)
    for a in range(1 << n):
        for b in range(a, 1 << n):
            vec = coefficients((a, b), (a | b, a & b))
            if row is not None and row[:2] == (a, b):
                assert row == (a, b, a | b, a & b) and vec
                row = next(kept, None)
            else:
                assert not vec
    assert row is None


@pytest.mark.parametrize("n, count", [(1, 0), (2, 1), (3, 11), (4, 119)])
def test_ie3_rows_skip_only_zero_or_repeated_identities(n, count):
    rows = valuations._ie3_rows(n)
    assert len(rows) == count
    first = {}
    for a, b, c in combinations_with_replacement(range(1 << n), 3):
        vec = coefficients((a | b | c, a & b, b & c, a & c), (a, b, c, a & b & c))
        if vec:
            first.setdefault(vec, (a | b | c, a & b, b & c, a & c, a, b, c, a & b & c))
    # Each kept row is the first triple of its identity, and every nonzero
    # identity is kept once, in the order of its first triple.
    assert rows == tuple(first.values())


def test_ie3_matches_triple_loop():
    for codes in product(int_codes([ec(-1), ec(0), ec(1)]), repeat=8):
        assert check_inclusion_exclusion3(3, codes) == reference_ie3_codes(3, codes)
    rng = random.Random(4)
    for _ in range(60):
        codes = seeded_near_modular_codes(rng, 4)
        assert check_inclusion_exclusion3(4, codes) == reference_ie3_codes(4, codes)


def value_preimage_family(f, v):
    """The induced family's word by `ExactComplex` equality, the route before
    the codes."""
    return 1 | (1 << ((1 << f.n) - 1)) | preimage(f.values, f.domain(), v)


def coded_induced_word_matches(f, v):
    """`induced_word` on the codes of f's values and of v, against the
    `ExactComplex` equality route."""
    *codes, code = int_codes((*f.values, v))
    return induced_word(codes, code) == value_preimage_family(f, v)


def test_induced_family_matches_value_equality_preimage():
    for n in range(2, 6):
        for d in descriptors(n, VALID_KINDS):
            f, designated = exact_f_from_form(d, n)
            for v in {designated, ec(7), *f.values}:
                assert coded_induced_word_matches(f, v)
    # The solutions thm3 and thm4 read.
    for n, values, eq, mode in ((3, (-1, 0, 1), "eq2", "brute"),
                                (4, (-1, 0, 1), "eq2", "modular"),
                                (4, (-1, 0, 1), "eq1_disjoint", "brute"),
                                (4, (0, 1, 2), "eq1_disjoint", "brute")):
        for f in enumerate_solutions(n, [ec(x) for x in values], eq, mode):
            for v in (*map(ec, values), ec(-2)):
                assert coded_induced_word_matches(f, v)


@given(near_modular_functions(GAUSSIAN_RATIONALS), GAUSSIAN_RATIONALS)
def test_induced_family_matches_value_equality_on_gaussian_rationals(f, v):
    for w in (v, *f.values):
        assert coded_induced_word_matches(f, w)
