import pytest

from doublebase.words import (
    Word,
    WordError,
    parse_word,
    compare,
    reflect,
    shift,
    sup0,
    inf1,
    LetterStream,
)

from conftest import naive_expand, random_word


def test_parse_examples():
    assert parse_word("(01)") == Word("", "01")
    # 0101... has minimal period 01 and empty preperiod
    assert parse_word("0(10)") == Word("", "01")
    # 0111... keeps the single preperiod letter
    assert parse_word("01(1)") == Word("0", "1")


def test_parse_rejects_bad_text():
    for bad in ["", "01", "(", "()", "0()", "(012)", "a(b)"]:
        with pytest.raises(WordError):
            parse_word(bad)


def test_compare_examples():
    assert compare(parse_word("01(10)"), parse_word("(01)")) == 1
    assert compare(parse_word("(0)"), parse_word("01(0)")) == -1
    assert compare(parse_word("(10)"), parse_word("10(01)")) == 1


def test_extremal_suffix_examples():
    assert sup0(parse_word("(01)")) == parse_word("(01)")
    assert inf1(parse_word("(10)")) == parse_word("(10)")
    assert sup0(parse_word("1(10)")) == parse_word("(01)")
    with pytest.raises(WordError):
        sup0(Word("", "1"))
    with pytest.raises(WordError):
        inf1(Word("", "0"))


def test_reflect_examples():
    assert reflect(parse_word("(01)")) == parse_word("(10)")
    assert reflect(parse_word("01(10)")) == parse_word("10(01)")
    assert reflect(Word("", "0")) == Word("", "1")


def test_shift_examples():
    assert shift(parse_word("01(10)"), 2) == parse_word("(10)")
    assert shift(parse_word("(01)"), 1) == parse_word("(10)")
    u = parse_word("0110(010)")
    assert shift(u, 0) == u


def test_compare_is_total_order_against_expansion(rng):
    # sign of compare agrees with 200-letter prefix comparison
    words = [random_word(rng) for _ in range(1000)]
    for i in range(0, 1000, 2):
        u, v = words[i], words[i + 1]
        pu = naive_expand(u.pre, u.per, 200)
        pv = naive_expand(v.pre, v.per, 200)
        expected = 0 if pu == pv else (-1 if pu < pv else 1)
        assert compare(u, v) == expected
        assert compare(v, u) == -expected  # antisymmetry
    # transitivity on sorted triples
    for i in range(0, 999, 3):
        a, b, c = sorted(words[i : i + 3])
        assert a <= b <= c and a <= c


def test_extremal_suffix_idempotent(rng):
    for _ in range(300):
        u = random_word(rng)
        if "0" in u.pre + u.per:
            s = sup0(u)
            assert sup0(s) == s
        if "1" in u.pre + u.per:
            s = inf1(u)
            assert inf1(s) == s


def test_reflect_swaps_operators(rng):
    for _ in range(300):
        u = random_word(rng)
        if "0" in u.pre + u.per and "1" in u.pre + u.per:
            assert reflect(sup0(u)) == inf1(reflect(u))


def test_canonicalization_roundtrip(rng):
    # expanding to 3 * (|pre| + |per|) letters and re-parsing reproduces
    # the canonical form
    for _ in range(500):
        u = random_word(rng)
        n = 3 * u.complexity
        prefix = naive_expand(u.pre, u.per, n)
        # continue the period at the phase the prefix stopped at
        phase = (n - len(u.pre)) % len(u.per)
        again = Word(prefix, u.per[phase:] + u.per[:phase])
        assert again == u
        # and the canonical form is a fixed point
        assert Word(u.pre, u.per) == u


def test_letters_and_prefix():
    u = parse_word("01(10)")
    assert u.prefix(8) == "01101010"
    assert [u.letter(i) for i in range(6)] == list("011010")


def test_stream_compare_depth():
    ones = LetterStream(lambda: iter(lambda: "1", None), "ones")

    def gen():
        while True:
            yield "1"

    s = LetterStream(gen, "ones")
    assert compare(s, Word("", "1"), 64) is None  # tie to depth
    assert compare(s, Word("10", "1"), 64) == 1   # strict difference found
    assert s.prefix(5) == "11111"
