from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest

from doublebase.oracle import block_count, block_counts, brute_classify, verify_membership
from doublebase.expansions import expansion_bounds
from doublebase.words import Word, parse_word, compare, shift


def test_block_count_examples():
    assert block_count(parse_word("0(1)"), parse_word("1(0)"), 3) == 8
    assert block_count(parse_word("(01)"), parse_word("(10)"), 4) == 8
    assert block_count(Word("", "0"), parse_word("(10)"), 6) == 2


def test_block_counts_monotone_structure():
    counts = block_counts(parse_word("(01)"), parse_word("1(0)"), 12)
    assert counts[0] == 2
    for x, y in zip(counts, counts[1:]):
        assert x <= y <= 2 * x


def test_block_count_guard():
    with pytest.raises(ValueError):
        block_count(parse_word("(01)"), parse_word("(10)"), 23)


def test_brute_classify_examples():
    assert brute_classify(Word("", "0"), parse_word("(10)")) == "TrivialLike"
    assert brute_classify(parse_word("01(0)"), parse_word("1(0)")) == "SubexponentialLike"
    assert brute_classify(parse_word("0(1)"), parse_word("(10)")) == "ExponentialLike"


def test_verify_membership_examples():
    assert verify_membership(2, 1.6, Word("", "0")) == "In"
    assert verify_membership(2, 1.6, parse_word("1(0)")) == "Boundary"
    # hole at (2,2) degenerates to the point 1/2; the orbit of (01) is {1/3, 2/3}
    assert verify_membership(2, 2, parse_word("(01)")) == "In"
    assert verify_membership(2, 2, parse_word("0(1)")) == "Boundary"  # value 1/2
    # exact orbit values: shift^2 of (0010) lands at 0.6434... inside
    # the hole [0.5882..., 0.7518...], while the (0110) orbit misses it
    assert verify_membership(1.9, 1.7, parse_word("(0010)")) == "Out"
    assert verify_membership(1.9, 1.7, parse_word("(0110)")) == "In"


@pytest.mark.parametrize("q0, q1", [
    (Decimal("2"), Decimal("1.6")),
    (Fraction(2), Fraction(8, 5)),
    (mp.mpf(2), mp.mpf(1.6)),
], ids=["decimal", "fraction", "mpf"])
def test_verify_membership_is_exact_on_every_input_type(q0, q1):
    # each base is taken as the exact rational it is: 8/5 as a Decimal
    # or a Fraction, the dyadic rational nearest it as a float or an
    # mpf; the verdicts agree with the float call's
    for text, verdict in (("1(0)", "Boundary"), ("(0110)", "Out")):
        assert verify_membership(2, 1.6, parse_word(text)) == verdict
        assert verify_membership(q0, q1, parse_word(text)) == verdict, text


@pytest.mark.parametrize("n", [0, -2])
def test_verify_membership_needs_a_shift(n):
    # checking no shift proves nothing, so it must not answer In
    with pytest.raises(ValueError):
        verify_membership(1.5, 1.8, parse_word("1(0)"), n)


def test_verify_membership_matches_lexicographic_test():
    # hole avoidance for all shifts is the strict two-sided comparison with
    # the expansion bounds
    q0, q1 = 1.9, 1.7
    a, b = expansion_bounds(q0, q1)
    for text in ["(0)", "(1)", "(01)", "(10)", "(0010)", "(0110)", "01(0011)", "(000101)"]:
        u = parse_word(text)
        member = verify_membership(q0, q1, u)
        lexic = all(
            (compare(shift(u, j), a, 400) == -1)
            if u.letter(j) == "0"
            else (compare(shift(u, j), b, 400) == 1)
            for j in range(u.complexity)
        )
        assert (member == "In") == lexic, text


def test_block_count_table():
    from doublebase.oracle import block_count_table

    # pure exponential growth is exactly log-linear: no violations
    table = block_count_table(parse_word("0(1)"), parse_word("1(0)"), 10)
    assert table.counts == tuple(2 ** k for k in range(1, 11))
    assert table.log_convexity_violations() == []
    # the Fibonacci-minus-one counts of the 011-free shift are marginally
    # log-concave at every index, which the diagnostic flags
    table = block_count_table(parse_word("(01)"), parse_word("1(0)"), 12)
    assert table.counts[:5] == (2, 4, 7, 12, 20)
    assert table.log_convexity_violations() == list(range(1, 11))
