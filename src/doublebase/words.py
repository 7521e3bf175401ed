"""Exact eventually periodic binary words and lexicographic operators.

A word is an infinite sequence over {0,1} stored as ``preperiod + period
repeated forever`` and kept in a canonical form (minimal period, minimal
preperiod), so that equality of canonical forms is equality of infinite
sequences.  The text format is ``PRE(PER)``, e.g. ``01(10)`` for
0110101010...

Aperiodic sequences (limit words of primitive directive sequences, digit
expansions at generic bases) are handled through the :class:`LetterStream`
protocol: anything with a ``letters()`` method yielding '0'/'1' forever.
Stream comparisons are resolved up to a caller-supplied depth and report
``None`` (undecided) when two streams agree that far.
"""

from __future__ import annotations

import re
from itertools import islice
from math import gcd
from typing import Iterator

STREAM_COMPARE_DEPTH = 4096  # default letters examined before giving up


class WordError(ValueError):
    """Malformed word text or an operator applied outside its domain."""


def _minimal_period(s: str) -> str:
    # the least p > 0 at which s occurs in s + s is the least rotation
    # fixing s, and it divides |s|: s = (s[:p])^(|s|/p)
    return s[:(s + s).find(s, 1)]


def _canonical(pre: str, per: str) -> tuple[str, str]:
    per = _minimal_period(per)
    # absorb preperiod letters that agree with the period read backwards
    m = 0
    lp = len(per)
    while m < len(pre) and pre[len(pre) - 1 - m] == per[(lp - 1 - m) % lp]:
        m += 1
    if m:
        pre = pre[: len(pre) - m]
        r = m % lp
        if r:
            per = per[-r:] + per[:-r]
    return pre, per


class Word:
    """Canonical eventually periodic binary sequence ``pre (per)^inf``.

    The hash is computed once, from the canonical form, so words spelled
    differently but equal as sequences hash equal; a pickled or copied
    word is rebuilt from its text (__reduce__), so it rehashes where it
    is loaded.
    """

    __slots__ = ("pre", "per", "_hash")

    def __init__(self, pre: str, per: str):
        if not per:
            raise WordError("period must be nonempty")
        if not set(pre + per) <= {"0", "1"}:
            raise WordError(f"letters must be 0/1, got {pre!r}({per!r})")
        self.pre, self.per = _canonical(pre, per)
        self._hash = hash((self.pre, self.per))

    # -- basic access -------------------------------------------------
    def letter(self, i: int) -> str:
        if i < len(self.pre):
            return self.pre[i]
        return self.per[(i - len(self.pre)) % len(self.per)]

    def letters(self) -> Iterator[str]:
        yield from self.pre
        while True:
            yield from self.per

    def prefix(self, n: int) -> str:
        """The first n letters as one string (n // |per| + 1 periods
        always reach n letters); WordError for n < 0."""
        if n < 0:
            raise WordError(f"prefix length must be >= 0, got {n}")
        return (self.pre + self.per * (n // len(self.per) + 1))[:n]

    @property
    def complexity(self) -> int:
        return len(self.pre) + len(self.per)

    # -- text format --------------------------------------------------
    def __str__(self) -> str:
        return f"{self.pre}({self.per})"

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.pre == other.pre and self.per == other.per

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), (self.pre, self.per)

    # -- order --------------------------------------------------------
    def __lt__(self, other: "Word") -> bool:
        return compare(self, other) < 0

    def __le__(self, other: "Word") -> bool:
        return compare(self, other) <= 0

    def __gt__(self, other: "Word") -> bool:
        return compare(self, other) > 0

    def __ge__(self, other: "Word") -> bool:
        return compare(self, other) >= 0


_WORD_RE = re.compile(r"^([01]*)\(([01]+)\)$")


def parse_word(text: str) -> Word:
    """Parse ``PRE(PER)`` text, e.g. '01(10)'; bare '0101' is rejected."""
    m = _WORD_RE.match(text.strip())
    if not m:
        raise WordError(f"expected PRE(PER) over 0/1, got {text!r}")
    return Word(m.group(1), m.group(2))


def compare(u, v, depth: int | None = None):
    """Lexicographic comparison; -1/0/+1, or None for undecided streams.

    Two :class:`Word` arguments are decided exactly, as strings: past both
    preperiods the words have periods p and q, so by Fine and Wilf (1965)
    they are equal once they agree on ``max(|pre_u|, |pre_v|) + p + q -
    gcd(p, q)`` letters, and their order is that of these prefixes.  If
    either argument is a stream, the first ``depth`` letters are compared
    and None is returned when they all agree.
    """
    if isinstance(u, Word) and isinstance(v, Word):
        p, q = len(u.per), len(v.per)
        n = max(len(u.pre), len(v.pre)) + p + q - gcd(p, q)
        hu, hv = u.prefix(n), v.prefix(n)
        return (hu > hv) - (hu < hv)
    it_u, it_v = u.letters(), v.letters()
    for _ in range(STREAM_COMPARE_DEPTH if depth is None else depth):
        a, b = next(it_u), next(it_v)
        if a != b:
            return -1 if a < b else 1
    return None


def reflect(u: Word) -> Word:
    """Letterwise 0 <-> 1 exchange; an involution."""
    tr = str.maketrans("01", "10")
    return Word(u.pre.translate(tr), u.per.translate(tr))


def shift(u: Word, n: int) -> Word:
    """Drop the first n letters."""
    if n < 0:
        raise WordError("shift count must be >= 0")
    if n <= len(u.pre):
        return Word(u.pre[n:], u.per)
    k = (n - len(u.pre)) % len(u.per)
    return Word("", u.per[k:] + u.per[:k])


def suffixes(u: Word) -> list[Word]:
    """The finitely many distinct suffixes of an eventually periodic word."""
    return [shift(u, n) for n in range(len(u.pre) + len(u.per))]


def extremal_suffix(u: Word, side: str) -> Word:
    """sup0: lexicographically largest suffix starting 0; inf1: smallest
    suffix starting 1.  These are the sup/inf over the shift orbit used to
    test membership of a word's orbit closure in a lexicographic interval.
    """
    if side == "sup0":
        cands = [s for s in suffixes(u) if s.letter(0) == "0"]
        if not cands:
            raise WordError(f"{u} has no suffix starting with 0")
        return max(cands)
    if side == "inf1":
        cands = [s for s in suffixes(u) if s.letter(0) == "1"]
        if not cands:
            raise WordError(f"{u} has no suffix starting with 1")
        return min(cands)
    raise WordError(f"side must be 'sup0' or 'inf1', got {side!r}")


def sup0(u: Word) -> Word:
    return extremal_suffix(u, "sup0")


def inf1(u: Word) -> Word:
    return extremal_suffix(u, "inf1")


class LetterStream:
    """Deterministic infinite binary sequence given by a generator factory.

    Repeated calls to ``letters()`` must replay the same sequence, so
    prefixes are nested and comparisons are reproducible.
    """

    def __init__(self, factory, describe: str = "<stream>"):
        self._factory = factory
        self._describe = describe

    def letters(self) -> Iterator[str]:
        return self._factory()

    def prefix(self, n: int) -> str:
        """The first n letters as one string; WordError for n < 0, as
        for a Word."""
        if n < 0:
            raise WordError(f"prefix length must be >= 0, got {n}")
        return "".join(islice(self.letters(), n))

    def __repr__(self) -> str:
        return f"LetterStream({self._describe})"


def first_letter(u) -> str:
    """u's first letter: a Word's read from its text, a stream's from
    its letters."""
    return (u.pre or u.per)[0] if isinstance(u, Word) else u.prefix(1)


# frequently used constants
ZERO = Word("", "0")        # 0^inf
ONE = Word("", "1")         # 1^inf
ZERO_ONE = Word("0", "1")   # 0 1^inf
ONE_ZERO = Word("1", "0")   # 1 0^inf
W_010 = Word("01", "0")     # 01 0^inf
W_101 = Word("10", "1")     # 10 1^inf
