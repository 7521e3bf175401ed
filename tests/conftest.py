"""Shared helpers: independent naive oracles the tests check against."""

from __future__ import annotations

import itertools
import random

import pytest

from doublebase.words import Word

# naive substitution tables, kept separate from the package on purpose
NAIVE_SUBS = {
    "L": {"0": "0", "1": "10"},
    "M": {"0": "01", "1": "10"},
    "R": {"0": "01", "1": "1"},
}


def naive_image(directive: str, text: str) -> str:
    """directive(text) by straightforward repeated rewriting."""
    for letter in reversed(directive):
        text = "".join(NAIVE_SUBS[letter][c] for c in text)
    return text


def naive_expand(pre: str, per: str, n: int) -> str:
    out = pre
    while len(out) < n:
        out += per
    return out[:n]


def word_corpus(first_letter: str, max_complexity: int = 4) -> list[Word]:
    """All distinct eventually periodic words with |pre| + |per| bounded,
    starting with the given letter."""
    seen, out = set(), []
    for total in range(1, max_complexity + 1):
        for lp in range(0, total):
            lq = total - lp
            for pre in itertools.product("01", repeat=lp):
                for per in itertools.product("01", repeat=lq):
                    w = Word("".join(pre), "".join(per))
                    if w.complexity <= max_complexity and w.letter(0) == first_letter:
                        if w not in seen:
                            seen.add(w)
                            out.append(w)
    return out


def directive_compare(d1, d2, depth: int = 256) -> int:
    """Lexicographic order (-1, 0, 1) with L < M < R on the first depth
    expanded letters of two directives; a finite directive that is a
    prefix of the other counts as smaller."""
    a, b = d1.letters(depth), d2.letters(depth)
    for x, y in zip(a, b):
        if x != y:
            return -1 if "LMR".index(x) < "LMR".index(y) else 1
    return (len(a) > len(b)) - (len(a) < len(b))


def random_word(rng: random.Random, max_pre: int = 8, max_per: int = 8) -> Word:
    pre = "".join(rng.choice("01") for _ in range(rng.randrange(0, max_pre + 1)))
    per = "".join(rng.choice("01") for _ in range(rng.randrange(1, max_per + 1)))
    return Word(pre, per)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xD0B1)
