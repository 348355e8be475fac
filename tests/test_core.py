import math
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from vocagg import (
    Domain,
    DomainMismatch,
    EndpointMultiset,
    InvalidVocabulary,
    ParseError,
    Profile,
    ShapeMismatch,
    Vocabulary,
    as_rational,
    between,
    decode_endpoints,
    encode_vocabulary,
    profile_between,
)
from vocagg.core import order_key

UNIT = Domain(F(0), F(1))
# the interpreter's int-from-text limit (0 when switched off)
INT_TEXT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300
# corners whose order keys floor(q * 2**64) equal those of values 2**-80 away
THIRDS = Domain(F(1, 3), F(2, 3))
TINY = F(1, 2**80)


class TestAsRational:
    def test_fraction_and_int_pass_through(self):
        assert as_rational(F(3, 7)) == F(3, 7)
        assert as_rational(5) == F(5)

    def test_fraction_strings(self):
        assert as_rational("3/7") == F(3, 7)
        assert as_rational(" -2/9 ") == F(-2, 9)

    def test_decimal_strings_expand_exactly(self):
        assert as_rational("48.33") == F(4833, 100)
        assert as_rational("0.1") == F(1, 10)
        assert as_rational("-1.25") == F(-5, 4)

    @pytest.mark.parametrize("bad", ["1/0", "abc", "", "1.2.3"])
    def test_malformed_strings(self, bad):
        with pytest.raises(ParseError):
            as_rational(bad)

    @pytest.mark.parametrize("bad", [0.5, True, None, [1]])
    def test_non_numerals_rejected(self, bad):
        with pytest.raises(ParseError):
            as_rational(bad)

    @given(st.fractions(max_denominator=1000))
    def test_roundtrip_through_str(self, q):
        assert as_rational(str(q)) == q


# The numeral grammar, written out as the ``fractions`` module of Python 3.13
# writes it, so that no test asks the running interpreter's ``Fraction(str)``.
REFERENCE_GRAMMAR = re.compile(
    r"""
    \A\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(_\d+)*)
    (?:(?:\s*/\s*(?P<denom>\d+(_\d+)*))?
    |(?:\.(?P<decimal>\d*|\d+(_\d+)*))?(?:E(?P<exp>[-+]?\d+(_\d+)*))?)
    \s*\Z
    """,
    re.VERBOSE | re.IGNORECASE,
)


def reference_rational(text):
    """The value of ``text`` under the written grammar, evaluated through ``Decimal``; None
    stands for a rejection."""
    match = REFERENCE_GRAMMAR.match(text)
    if match is None:
        return None
    sign, num, denom, decimal, exp = match.group("sign", "num", "denom", "decimal", "exp")
    if denom is None:
        return F(Decimal(f"{sign}{num or 0}.{decimal or 0}e{exp or 0}"))
    if Decimal(denom) == 0:
        return None
    return F(Decimal(sign + num)) / F(Decimal(denom))


# digit runs: plain, with leading zeros, underscores, non-ASCII digits, and
# runs just short of and just past the int-from-text limit
DIGIT_RUNS = st.one_of(
    st.text("0123456789", min_size=1, max_size=8),
    st.text("00123456789_\u0663\uff15", min_size=0, max_size=6),
    st.integers(INT_TEXT_LIMIT - 2, INT_TEXT_LIMIT + 2).map(lambda k: "7" * k),
)
NUMERALS = st.builds(
    lambda space, sign, whole, separator, part, exponent, tail: (
        f"{space}{sign}{whole}{separator}{part}{exponent}{tail}"
    ),
    st.sampled_from(["", " ", "\t\n", "\u00a0"]),
    st.sampled_from(["", "-", "+", "+-"]),
    DIGIT_RUNS,
    st.sampled_from(["", "/", ".", " / ", "/-"]),
    DIGIT_RUNS | st.sampled_from(["", "0", "00"]),
    st.sampled_from(["", "e3", "E-2", "e"]),
    st.sampled_from(["", " ", "\n"]),
)


# any order of numeral characters, exponents kept below 10**4 so that the
# reference's ``Decimal`` stays fast
NUMERAL_LIKE_TEXT = st.text("0123456789_./eE+- \t\u0663x", max_size=10).filter(
    lambda text: not re.search(r"[eE][-+]?[\d_]{4}", text)
)


def assert_reads_like_the_reference(text):
    expected = reference_rational(text)
    if expected is None:
        with pytest.raises(ParseError):
            as_rational(text)
    else:
        value = as_rational(text)
        assert type(value) is F and value == expected


class TestNumeralScanner:
    @given(NUMERALS)
    @example("1_0")
    @example("\u0663/4")
    @example(".5")
    @example("5.")
    @example("-1.5e3")
    @example("1 / 2")
    @example("7/0")
    @example("-007/000")
    @example("-0.000")
    @example("1/" + "9" * (INT_TEXT_LIMIT + 1))
    @example("-" + "9" * (INT_TEXT_LIMIT + 1) + ".5")
    @example("9" * (INT_TEXT_LIMIT + 1) + "/0")
    # the edges of the plain form that ``int`` reads without the grammar
    @example("+5/3")
    @example("+-5/3")
    @example("-0/5")
    @example("05/3")
    @example("-7/0")
    @example("1/2 ")
    @example("-.5")
    @example("7" * 319 + "/" + "3" * 320)
    @example("7" * 320 + "/" + "3" * 320)
    @example("9" * (INT_TEXT_LIMIT + 1) + "/7")
    def test_agrees_with_the_reference_grammar(self, text):
        assert_reads_like_the_reference(text)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-from-text limit to lower"
    )
    @pytest.mark.parametrize(
        "text",
        ["-" + "7" * 319 + "/" + "3" * 320, "+" + "7" * 639, "7" * 320 + "." + "3" * 319],
    )
    def test_plain_numerals_read_at_the_lowest_int_text_limit(self, text):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert as_rational(text) == reference_rational(text)
        finally:
            sys.set_int_max_str_digits(limit)

    @given(NUMERAL_LIKE_TEXT)
    @example("1.d")
    @example("e1")
    @example("1e.5")
    @example("1.5/2")
    @example("1_/2")
    @example("- 1")
    @example("\u06631e2")
    def test_free_numeral_like_text_agrees_with_the_reference_grammar(self, text):
        assert_reads_like_the_reference(text)

    # forms that Python 3.10 to 3.13 read differently with ``Fraction(str)``,
    # and forms that none of them reads
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1_000", F(1000)),
            ("3 / 4", F(3, 4)),
            (".5", F(1, 2)),
            ("5.", F(5)),
            ("-.5", F(-1, 2)),
            ("1e3", F(1000)),
            ("\u0663/4", F(3, 4)),
            ("1.d", None),
            ("1.5/2", None),
            ("1_/2", None),
            ("./2", None),
            ("- 1", None),
        ],
    )
    def test_reads_the_same_on_every_interpreter(self, text, value):
        if value is None:
            with pytest.raises(ParseError, match="^not a rational numeral: "):
                as_rational(text)
        else:
            assert as_rational(text) == value


class TestNonNumeralRejection:
    TEXT = "1" * 100_000 + "x"

    def test_a_long_non_numeral_is_refused_at_once(self):
        def refuse():
            start = time.perf_counter()
            with pytest.raises(ParseError):
                as_rational(self.TEXT)
            return time.perf_counter() - start

        assert min(refuse() for _ in range(3)) < 0.010

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("1" * 19_998 + "_", id="trailing-underscore"),
            pytest.param("1" * 10_000 + "." + "1" * 9_999 + "_", id="decimals-trailing-underscore"),
        ],
    )
    def test_numeral_like_text_is_refused_by_the_pre_filter(self, text):
        # the grammar refuses it in its one scan, before any digit is read
        with pytest.raises(ParseError, match="^not a rational numeral: ") as caught:
            as_rational(text)
        assert caught.value.__cause__ is None

    def test_the_message_quotes_an_excerpt(self):
        with pytest.raises(ParseError) as caught:
            as_rational(self.TEXT)
        message = str(caught.value)
        assert len(message) < 200
        assert message == "not a rational numeral: '11111111111111111111'... (100001 characters)"


class TestNumeralBound:
    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("1e19999", id="1e19999"),
            pytest.param("5e-19998", id="5e-19998"),
            pytest.param("9" * 20_000, id="20000-nines"),
            pytest.param("-0." + "0" * 19_998 + "1", id="19999-decimals"),
            pytest.param("1/" + "0" * 30_000 + "7", id="zero-padded-denominator"),
            pytest.param("0" * 30_000 + "7", id="zero-padded-numerator"),
            pytest.param("7" * 5_000 + "e3", id="5000-digits-with-exponent"),
            pytest.param("1e" + "0" * 5_000 + "5", id="zero-padded-exponent"),
            # leading zeros of another script count as zeros too
            pytest.param("1e" + "\u0660" * 8 + "5", id="arabic-indic-zero-padded-exponent"),
            pytest.param("1e" + "\u0660\uff10" * 25_000 + "5", id="long-non-ascii-zero-padded-exponent"),
            pytest.param("\u0660" * 30_000 + "7", id="non-ascii-zero-padded-numerator"),
        ],
    )
    def test_numerals_up_to_the_bound_read(self, text):
        assert as_rational(text) == reference_rational(text)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("1e20000", id="1e20000"),
            pytest.param("1e-20000", id="1e-20000"),
            pytest.param("0e999999999", id="0e999999999"),
            pytest.param("7e-1_000_000_000", id="7e-1_000_000_000"),
            pytest.param("1.5E+1000000000", id="1.5E+1000000000"),
            pytest.param("1e" + "9" * 50_000, id="50000-digit-exponent"),
            pytest.param("9" * 20_001, id="20001-nines"),
            pytest.param("1/" + "7" * 20_001, id="20001-digit-denominator"),
            pytest.param("1." + "0" * 20_000, id="20000-decimals"),
            pytest.param("1e" + "\u0660" * 50_000 + "20001", id="non-ascii-zero-padded-exponent-past"),
        ],
    )
    def test_numerals_past_the_bound_are_refused(self, text):
        with pytest.raises(ParseError, match="numeral past 20,000 digits"):
            as_rational(text)


class TestOrderKey:
    @given(st.fractions())
    def test_is_the_floor_of_q_times_two_to_the_64(self, q):
        assert order_key(q) == math.floor(q * 2**64)

    @given(st.fractions(), st.fractions())
    def test_distinct_keys_order_their_values(self, a, b):
        if order_key(a) < order_key(b):
            assert a < b

    def test_values_2_to_the_minus_80_apart_share_a_key(self):
        """So the edge cases below reach the exact comparison."""
        for q in (F(0), F(1, 3), F(1, 2), F(2, 3), F(1)):
            assert order_key(q + TINY) == order_key(q)
        assert order_key(F(1, 3) - TINY) == order_key(F(1, 3))


class TestDomain:
    def test_membership_open_vs_closed(self):
        d = Domain(F(0), F(100))
        assert d.contains(F(50)) and not d.contains(F(0)) and not d.contains(F(100))
        assert d.contains_closed(F(0)) and d.contains_closed(F(100))
        assert not d.contains_closed(F(101))

    def test_reflect_swaps_corners(self):
        d = Domain(F(1), F(4))
        assert d.reflect(d.lower) == d.upper
        assert d.reflect(F(2)) == F(3)
        assert d.reflect(d.reflect(F(7, 3))) == F(7, 3)

    @pytest.mark.parametrize("lo,hi", [(1, 1), (2, 1)])
    def test_empty_domain_rejected(self, lo, hi):
        with pytest.raises(ValueError):
            Domain(F(lo), F(hi))


class TestEndpointMultiset:
    def test_bound_pads_with_corners(self):
        s = EndpointMultiset(UNIT, (F(1, 4), F(1, 2)))
        assert s.m == 2
        assert [s.bound(k) for k in range(4)] == [F(0), F(1, 4), F(1, 2), F(1)]
        with pytest.raises(IndexError):
            s.bound(4)
        with pytest.raises(IndexError):
            s.bound(-1)

    @pytest.mark.parametrize(
        "values,message",
        [
            ((F(1, 2), F(1, 4)), "endpoints not sorted: 1/2 > 1/4"),
            ((F(1, 4), F(1, 2) + TINY, F(1, 2)), f"endpoints not sorted: {F(1, 2) + TINY} > 1/2"),
            ((F(1, 3), F(1, 3) - TINY), f"endpoints not sorted: 1/3 > {F(1, 3) - TINY}"),
        ],
        ids=["half-then-quarter", "2^-80-above-half-then-half", "third-then-2^-80-below"],
    )
    def test_unsorted_rejected(self, values, message):
        with pytest.raises(ValueError) as caught:
            EndpointMultiset(UNIT, values)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "domain,value",
        [
            (UNIT, F(-1, 4)),
            (UNIT, -TINY),
            (UNIT, 1 + TINY),
            (THIRDS, F(1, 3) - TINY),
            (THIRDS, F(2, 3) + TINY),
        ],
        ids=["below", "lower-minus-2^-80", "upper-plus-2^-80", "third-minus-2^-80", "two-thirds-plus-2^-80"],
    )
    def test_out_of_domain_rejected(self, domain, value):
        with pytest.raises(ValueError) as caught:
            EndpointMultiset(domain, (value,))
        assert str(caught.value) == f"endpoint {value} outside [{domain.lower}, {domain.upper}]"

    @pytest.mark.parametrize(
        "domain,values",
        [
            (UNIT, (F(0), F(0), F(1), F(1))),
            (UNIT, (TINY, 1 - TINY)),
            (THIRDS, (F(1, 3), F(1, 3) + TINY, F(2, 3) - TINY, F(2, 3))),
        ],
        ids=["corners", "unit-corners-2^-80-inside", "thirds-corners-2^-80-inside"],
    )
    def test_values_at_and_just_inside_the_corners_accepted(self, domain, values):
        assert EndpointMultiset(domain, values).values == values

    def test_corners_are_legal_values(self):
        s = EndpointMultiset(UNIT, (F(0), F(1)))
        assert s.active_words() == (1,)

    def test_active_words(self):
        assert EndpointMultiset(UNIT, (F(1, 4), F(1, 2))).active_words() == (0, 1, 2)
        assert EndpointMultiset(UNIT, (F(1, 4), F(1, 4))).active_words() == (0, 2)
        assert EndpointMultiset(UNIT, (F(0), F(1, 2))).active_words() == (1, 2)
        assert EndpointMultiset(UNIT, (F(1, 2), F(1))).active_words() == (0, 1)

    def test_keeps_its_order_keys_outside_equality(self):
        values = (F(1, 3), F(1, 3) + TINY, F(1, 2))
        kept = EndpointMultiset(UNIT, values)
        assert kept.keys == tuple(map(order_key, values))
        # the same values with other keys set by hand: only the keys differ
        other = EndpointMultiset(UNIT, ("1/3", str(F(1, 3) + TINY), "1/2"))
        object.__setattr__(other, "keys", ())
        assert kept == other and hash(kept) == hash(other)
        assert repr(kept) == repr(other) and "keys" not in repr(kept)

    def test_strictly_increasing_interior_flag(self):
        assert EndpointMultiset(UNIT, (F(1, 4), F(1, 2))).strictly_increasing_interior
        assert not EndpointMultiset(UNIT, (F(1, 4), F(1, 4))).strictly_increasing_interior
        assert not EndpointMultiset(UNIT, (F(0), F(1, 2))).strictly_increasing_interior


class TestVocabulary:
    def test_full_tiling(self):
        v = Vocabulary(
            UNIT, ((F(0), F(1, 4)), (F(1, 4), F(1, 2)), (F(1, 2), F(1)))
        )
        assert v.word_count == 3 and v.m == 2
        assert v.active_words() == (0, 1, 2)
        assert not v.degenerate

    def test_inactive_word_in_the_middle(self):
        v = Vocabulary(UNIT, ((F(0), F(1, 2)), None, (F(1, 2), F(1))))
        assert v.active_words() == (0, 2)

    def test_single_active_word_is_degenerate(self):
        v = Vocabulary(UNIT, (None, (F(0), F(1)), None))
        assert v.degenerate

    def test_gap_in_tiling_rejected(self):
        with pytest.raises(InvalidVocabulary):
            Vocabulary(UNIT, ((F(0), F(1, 4)), (F(1, 2), F(1))))

    def test_overlap_rejected(self):
        with pytest.raises(InvalidVocabulary):
            Vocabulary(UNIT, ((F(0), F(1, 2)), (F(1, 4), F(1))))

    def test_short_tiling_rejected(self):
        with pytest.raises(InvalidVocabulary):
            Vocabulary(UNIT, ((F(0), F(1, 2)), None))

    def test_empty_extent_rejected(self):
        with pytest.raises(InvalidVocabulary):
            Vocabulary(UNIT, ((F(0), F(0)), (F(0), F(1))))

    def test_all_inactive_rejected(self):
        with pytest.raises(InvalidVocabulary):
            Vocabulary(UNIT, (None, None))


class TestDuality:
    def test_decode_three_words(self):
        a, b = F(1, 4), F(1, 2)
        v = decode_endpoints(EndpointMultiset(UNIT, (a, b)))
        assert v.extents == ((F(0), a), (a, b), (b, F(1)))

    def test_decode_repeated_value_leaves_word_inactive(self):
        a = F(1, 4)
        v = decode_endpoints(EndpointMultiset(UNIT, (a, a)))
        assert v.extents == ((F(0), a), None, (a, F(1)))

    def test_decode_corner_value_kills_end_word(self):
        a = F(1, 2)
        v = decode_endpoints(EndpointMultiset(UNIT, (F(0), a)))
        assert v.extents == (None, (F(0), a), (a, F(1)))

    def test_decode_all_values_at_one_corner_is_degenerate(self):
        v = decode_endpoints(EndpointMultiset(UNIT, (F(0), F(0))))
        assert v.degenerate and v.active_words() == (2,)

    def test_encode_requires_two_active_words(self):
        v = Vocabulary(UNIT, (None, (F(0), F(1)), None))
        with pytest.raises(InvalidVocabulary):
            encode_vocabulary(v)

    def test_encode_mixed_activity(self):
        a, b = F(1, 4), F(1, 2)
        v = Vocabulary(UNIT, ((F(0), a), (a, b), None, (b, F(1))))
        assert encode_vocabulary(v).values == (a, b, b)

    def test_encode_inactive_leading_words(self):
        a = F(1, 2)
        v = Vocabulary(UNIT, (None, None, (F(0), a), (a, F(1))))
        assert encode_vocabulary(v).values == (F(0), F(0), a)

    def test_exhaustive_roundtrip_on_a_lattice(self):
        lattice = [F(j, 4) for j in range(5)]
        triples = [
            (x, y, z)
            for x in lattice
            for y in lattice
            for z in lattice
            if x <= y <= z
        ]
        assert len(triples) == 35
        for values in triples:
            s = EndpointMultiset(UNIT, values)
            v = decode_endpoints(s)
            # the right ends' keys that decoding keeps are those validation computes
            assert v._right_keys == Vocabulary(UNIT, v.extents)._right_keys
            if v.degenerate:
                continue
            assert encode_vocabulary(v).values == values
            assert encode_vocabulary(v).keys == s.keys

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=16),
            min_size=1,
            max_size=6,
        )
    )
    def test_roundtrip_property(self, raw):
        s = EndpointMultiset(UNIT, tuple(sorted(raw)))
        v = decode_endpoints(s)
        assert v._right_keys == Vocabulary(UNIT, v.extents)._right_keys
        if not v.degenerate:
            assert encode_vocabulary(v) == s
            assert encode_vocabulary(v).keys == s.keys


class TestProfile:
    def test_shape_and_access(self, grading_profile):
        p = grading_profile
        assert (p.n, p.m) == (3, 4)
        assert p.row(2).values == (10, 20, 30, 50)
        assert p.column(3) == (60, 30, 55)
        assert p.values()[0] == (20, 40, 60, 80)

    def test_indices_are_one_based(self, grading_profile):
        with pytest.raises(ShapeMismatch):
            grading_profile.row(0)
        with pytest.raises(ShapeMismatch):
            grading_profile.row(4)
        with pytest.raises(ShapeMismatch):
            grading_profile.column(0)
        with pytest.raises(ShapeMismatch):
            grading_profile.column(5)

    def test_with_row_is_a_unilateral_deviation(self, grading_profile, grades):
        replacement = EndpointMultiset(grades, (F(5), F(15), F(25), F(35)))
        deviated = grading_profile.with_row(1, replacement)
        assert deviated.row(1) == replacement
        assert deviated.row(2) == grading_profile.row(2)
        assert grading_profile.row(1).values == (20, 40, 60, 80)

    def test_with_row_validates_shape_and_domain(self, grading_profile, grades):
        with pytest.raises(ShapeMismatch):
            grading_profile.with_row(1, EndpointMultiset(grades, (F(5),)))
        other = EndpointMultiset(UNIT, (F(1, 4), F(1, 3), F(1, 2), F(2, 3)))
        with pytest.raises(DomainMismatch):
            grading_profile.with_row(1, other)

    def test_with_row_indices_are_one_based(self, grading_profile):
        with pytest.raises(ShapeMismatch, match="agent index 0 outside 1..3"):
            grading_profile.with_row(0, grading_profile.row(1))

    def test_mixed_rows_rejected(self, grades):
        with pytest.raises(ShapeMismatch):
            Profile.from_rows(grades, [(10, 20), (10, 20, 30)])
        with pytest.raises(ShapeMismatch):
            Profile(())
        with pytest.raises(DomainMismatch):
            Profile(
                (
                    EndpointMultiset(grades, (F(10),)),
                    EndpointMultiset(UNIT, (F(1, 2),)),
                )
            )


class TestBetweenness:
    def test_between_accepts_either_order(self):
        assert between(F(0), F(1, 2), F(1))
        assert between(F(1), F(1, 2), F(0))
        assert between(F(1), F(1), F(0))
        assert not between(F(0), F(2), F(1))

    def test_profile_between_is_componentwise(self):
        lo = EndpointMultiset(UNIT, (F(0), F(1, 4)))
        mid = EndpointMultiset(UNIT, (F(0), F(1, 2)))
        hi = EndpointMultiset(UNIT, (F(1, 4), F(3, 4)))
        assert profile_between(lo, mid, hi)
        assert not profile_between(mid, hi, lo)

    def test_profile_between_shape_checks(self):
        a = EndpointMultiset(UNIT, (F(1, 2),))
        b = EndpointMultiset(UNIT, (F(1, 4), F(1, 2)))
        with pytest.raises(ShapeMismatch):
            profile_between(a, b, b)
        c = EndpointMultiset(Domain(F(0), F(2)), (F(1, 2),))
        with pytest.raises(DomainMismatch):
            profile_between(a, c, a)
