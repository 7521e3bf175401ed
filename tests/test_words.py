import copy
import itertools
import os
import pickle
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

import doublebase
from doublebase.words import (
    Word,
    WordError,
    _minimal_period,
    parse_word,
    compare,
    reflect,
    shift,
    sup0,
    inf1,
    LetterStream,
)

from conftest import naive_expand, random_word, word_corpus


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
    u = parse_word("110(011)")
    assert u.prefix(0) == ""
    assert u.prefix(2) == "11"          # inside the preperiod
    assert u.prefix(3) == "110"
    assert u.prefix(4) == "1100"        # into the first period
    assert u.prefix(3 + 3 * 5 + 2) == "110" + "011" * 5 + "01"
    assert parse_word("(0)").prefix(7) == "0000000"
    with pytest.raises(ValueError):
        u.prefix(-2)
    with pytest.raises(ValueError):
        parse_word("(01)").prefix(-1)


def test_stream_compare_depth():
    ones = LetterStream(lambda: iter(lambda: "1", None), "ones")

    def gen():
        while True:
            yield "1"

    s = LetterStream(gen, "ones")
    assert compare(s, Word("", "1"), 64) is None  # tie to depth
    assert compare(s, Word("10", "1"), 64) == 1   # strict difference found
    assert s.prefix(5) == "11111"
    assert s.prefix(0) == ""
    with pytest.raises(WordError):
        s.prefix(-1)


def _sign(a, b):
    return (a > b) - (a < b)


def test_compare_agrees_with_the_lcm_bound_on_the_corpus():
    # reference: prefixes of |pre_u| + |pre_v| + lcm(|per_u|, |per_v|)
    # letters decide the order of two eventually periodic words
    words = word_corpus("0", 5) + word_corpus("1", 5)
    for u in words:
        for v in words:
            p, q = len(u.per), len(v.per)
            n = len(u.pre) + len(v.pre) + p * q // gcd(p, q)
            expected = _sign(naive_expand(u.pre, u.per, n), naive_expand(v.pre, v.per, n))
            assert compare(u, v) == expected, (u, v)


@pytest.mark.parametrize("x, y, order", [("010", "01001", -1), ("01001", "01001010", 1)])
def test_compare_on_fine_wilf_extremal_pairs(x, y, order):
    # x^inf and y^inf agree on exactly p + q - gcd(p, q) - 1 letters, so
    # the Fine-Wilf bound is tight: one letter fewer would call them equal.
    # Behind unequal preperiods (x x^inf against x y^inf, and y x^inf
    # against y y^inf) the agreement starts past the longer preperiod.
    for (u_pre, v_pre) in [("", ""), ("", x), (y, "")]:
        u, v = Word(u_pre, x), Word(v_pre, y)
        assert (u.pre, v.pre) == (u_pre, v_pre)  # canonical forms keep them
        p, q = len(x), len(y)
        n = max(len(u_pre), len(v_pre)) + p + q - gcd(p, q)
        hu, hv = naive_expand(u_pre, x, n), naive_expand(v_pre, y, n)
        assert hu[:-1] == hv[:-1] and hu[-1] != hv[-1], (u, v)
        assert compare(u, v) == order, (u, v)
        assert compare(v, u) == -order, (u, v)


def _brute_minimal_period(s: str) -> str:
    n = len(s)
    return next(s[:p] for p in range(1, n + 1) if n % p == 0 and s[:p] * (n // p) == s)


@pytest.mark.parametrize("alphabet, max_len", [("01", 12), ("LMR", 7)])
def test_minimal_period_matches_brute_force(alphabet, max_len):
    for n in range(1, max_len + 1):
        for letters in itertools.product(alphabet, repeat=n):
            s = "".join(letters)
            assert _minimal_period(s) == _brute_minimal_period(s), s


@pytest.mark.parametrize("spelled, canonical", [
    (("0101", "01"), ("", "01")),
    (("", "0101"), ("", "01")),
    (("1", "01"), ("", "10")),
    (("0110", "10"), ("01", "10")),
])
def test_equal_words_hash_equal(spelled, canonical):
    # the hash is taken once, from the canonical form
    u, v = Word(*spelled), Word(*canonical)
    assert u == v and hash(u) == hash(v) == hash((v.pre, v.per))


@pytest.mark.parametrize("clone", [
    lambda w: pickle.loads(pickle.dumps(w)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_copied_words_hash_equal(clone):
    for w in (Word("0110", "10"), Word("", "1"), parse_word("10(011)")):
        c = clone(w)
        assert c == w and hash(c) == hash(w) and {c: 1}[w] == 1


def test_pickled_word_rehashes_where_it_is_loaded():
    # a word pickled under another string hash seed hashes as this
    # process's words do
    env = dict(os.environ, PYTHONPATH=str(Path(doublebase.__file__).parents[1]), PYTHONHASHSEED="12345")
    code = "import pickle, sys; from doublebase.words import Word; sys.stdout.buffer.write(pickle.dumps(Word('01', '10')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
    w = pickle.loads(out.stdout)
    assert w == Word("01", "10") and hash(w) == hash(Word("01", "10"))
