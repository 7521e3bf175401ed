"""The L/M/R substitution monoid, directive sequences and the s-map.

The three substitutions act on binary words by

    L: 0 -> 0,  1 -> 10      M: 0 -> 01, 1 -> 10      R: 0 -> 01, 1 -> 1

A directive sequence is a word over {L,M,R}, finite or with an infinite
tail (constant L, constant R, or a repeated block).  Limit words of
constant-tail directives are eventually periodic; limit words of
primitive directives (not ending in L^inf or R^inf) are aperiodic
(Sturmian for {L,R} directives, Thue-Morse for M^inf).

The s-map sends a binary sequence to the directive sequence of the
partition cell containing it; it is the workhorse of the subshift
classifier and of the critical-value descent.  The substitutions
preserve lexicographic order, so the s-map walks by desubstitution: at
each level the input's preimage under the directive walked so far is
compared with the six root words M(seed), then decoded by the letter
taken (decode).  Words stay exact at every depth, limit words decode
symbolically, and other streams decode lazily.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .words import (
    Word,
    LetterStream,
    compare,
    ZERO,
    ONE,
    ZERO_ONE,
    ONE_ZERO,
    W_010,
    W_101,
)

SUBS = {
    "L": {"0": "0", "1": "10"},
    "M": {"0": "01", "1": "10"},
    "R": {"0": "01", "1": "1"},
}

MAX_IMAGE_LEN = 4_000_000  # guard for materialized substitution images


class DirectiveError(ValueError):
    pass


class WordTooLong(ValueError):
    """Materializing this substitution image would exceed MAX_IMAGE_LEN."""


def image_lengths(w: str) -> tuple[int, int]:
    """|w(0)|, |w(1)| without materializing the images.

    Peeling the innermost letter d of w = w'd gives |w(c)| as the sum of
    |w'(x)| over the letters x of d(c), so the recursion consumes w from
    the left with (n0, n1) holding the lengths of the prefix processed
    so far.
    """
    n0, n1 = 1, 1
    for letter in w:
        if letter == "L":
            n0, n1 = n0, n1 + n0
        elif letter == "M":
            n0, n1 = n0 + n1, n1 + n0
        elif letter == "R":
            n0, n1 = n0 + n1, n1
        else:
            raise DirectiveError(f"bad directive letter {letter!r}")
    return n0, n1


def image_string(w: str, s: str) -> str:
    """w(s) for a finite word s, w acting as w1(w2(...(s)))."""
    for letter in reversed(w):
        table = SUBS[letter]
        s = "".join(table[c] for c in s)
        if len(s) > MAX_IMAGE_LEN:
            raise WordTooLong(f"|{w}(...)| exceeds {MAX_IMAGE_LEN}")
    return s


def apply(w: str, u: Word) -> Word:
    """Image of an eventually periodic word under a finite directive word."""
    return Word(image_string(w, u.pre), image_string(w, u.per))


def _expand(letter: str, stream: Iterator[str]) -> Iterator[str]:
    table = SUBS[letter]
    for c in stream:
        yield from table[c]


def morphic_letters(w: str, source) -> Iterator[str]:
    """Letters of w(u) generated lazily; `source` is a Word or stream."""
    it = source.letters()
    for letter in reversed(w):
        it = _expand(letter, it)
    return it


# ----------------------------------------------------------------------
# directive sequences
# ----------------------------------------------------------------------

FINITE = "finite"
REPEAT_L = "repeat_L"
REPEAT_R = "repeat_R"
PERIODIC = "periodic"


def _minimal_block(block: str) -> str:
    n = len(block)
    for d in range(1, n + 1):
        if n % d == 0 and block == block[:d] * (n // d):
            return block[:d]
    return block


@dataclass(frozen=True)
class Directive:
    """Directive sequence ``head . tail`` over {L,M,R}, canonicalized.

    Canonical form: a constant-letter periodic block becomes a repeat
    tail; repeats absorb equal trailing head letters; the junctions
    L.R^inf and R.L^inf are rewritten to M.R^inf and M.L^inf (they
    define the same parameter point, cf. the identities
    L R^inf(0^inf) = M(0^inf) = R L^inf(0^inf)).
    """

    head: str = ""
    tail: str = FINITE
    block: str = ""

    def __post_init__(self):
        if not set(self.head) <= set("LMR"):
            raise DirectiveError(f"bad head {self.head!r}")
        if self.tail not in (FINITE, REPEAT_L, REPEAT_R, PERIODIC):
            raise DirectiveError(f"bad tail {self.tail!r}")
        head, tail, block = self.head, self.tail, self.block
        if tail == PERIODIC:
            if not block or not set(block) <= set("LMR"):
                raise DirectiveError(f"bad periodic block {block!r}")
            block = _minimal_block(block)
            if block == "L":
                tail, block = REPEAT_L, ""
            elif block == "R":
                tail, block = REPEAT_R, ""
            else:
                # absorb trailing head letters into the block phase
                while head and head[-1] == block[-1]:
                    head = head[:-1]
                    block = block[-1] + block[:-1]
        if tail == REPEAT_L:
            while head.endswith("L"):
                head = head[:-1]
            if head.endswith("R"):
                head = head[:-1] + "M"
        elif tail == REPEAT_R:
            while head.endswith("R"):
                head = head[:-1]
            if head.endswith("L"):
                head = head[:-1] + "M"
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "block", block)

    def __str__(self) -> str:
        if self.tail == FINITE:
            return self.head
        if self.tail == REPEAT_L:
            return f"{self.head}(L)"
        if self.tail == REPEAT_R:
            return f"{self.head}(R)"
        return f"{self.head}({self.block})"

    def letters(self, n: int) -> str:
        """First n directive letters (tail expanded)."""
        out = self.head[:n]
        while len(out) < n:
            if self.tail == FINITE:
                break
            out += {REPEAT_L: "L", REPEAT_R: "R"}.get(self.tail, self.block)
        return out[:n]


def parse_directive(text: str) -> Directive:
    """Parse directive text: 'LM', 'LM(R)', '(M)', '(LR)'."""
    text = text.strip()
    if "(" in text:
        head, rest = text.split("(", 1)
        if not rest.endswith(")"):
            raise DirectiveError(f"unbalanced parentheses in {text!r}")
        block = rest[:-1]
        if block == "L":
            return Directive(head, REPEAT_L)
        if block == "R":
            return Directive(head, REPEAT_R)
        return Directive(head, PERIODIC, block)
    return Directive(text, FINITE)


def is_primitive(d):
    """True iff the directive sequence does not end with L^inf or R^inf.

    Finite directives are not infinite sequences, hence not primitive.
    A truncated s-map result returns None (undecided).
    """
    if hasattr(d, "truncated"):
        if d.truncated:
            return None
        d = d.directive
    return d.tail == PERIODIC


def directive_compare(d1: Directive, d2: Directive, depth: int = 256):
    """Lexicographic order with L < M < R on expanded directive letters."""
    a, b = d1.letters(depth), d2.letters(depth)
    order = {"L": 0, "M": 1, "R": 2}
    for x, y in zip(a, b):
        if x != y:
            return -1 if order[x] < order[y] else 1
    if len(a) != len(b):
        # a finite directive is a prefix of the other: undecided in general,
        # but never needed by the classifier; treat prefix as smaller
        return -1 if len(a) < len(b) else 1
    return 0


# ----------------------------------------------------------------------
# limit words
# ----------------------------------------------------------------------


class LimitWordStream(LetterStream):
    """Aperiodic limit word of a periodic-tail directive, with provenance.

    Knowing the generating directive keeps otherwise semi-decidable
    questions (primitivity, equality of two limit words) decidable.
    """

    def __init__(self, factory, directive: Directive, seed: str):
        super().__init__(factory, f"{directive}({seed}^inf)")
        self.directive = directive
        self.seed = seed


def _fixed_point_letters(block: str, seed: str) -> Iterator[str]:
    # F = block(F), F starting with seed; grow the known prefix on demand
    img0, img1 = image_string(block, "0"), image_string(block, "1")
    table = {"0": img0, "1": img1}
    buf = list(table[seed])
    assert buf[0] == seed
    p = 0
    emitted = 0
    while True:
        while emitted < len(buf):
            yield buf[emitted]
            emitted += 1
        p += 1
        buf.extend(table[buf[p]])


def limit_word(d: Directive, seed, n: Optional[int] = None):
    """Limit word of a directive sequence applied to seed^inf.

    Returns an exact :class:`Word` when the tail is finite or a constant
    repeat (via L^inf(1^inf) = 1 0^inf, R^inf(0^inf) = 0 1^inf and
    friends), and a :class:`LetterStream` for periodic tails.  With n
    given, returns the length-n prefix string instead.
    """
    seed = str(seed)
    if seed not in ("0", "1"):
        raise DirectiveError(f"seed must be 0 or 1, got {seed!r}")
    if d.tail == FINITE:
        out = apply(d.head, ZERO if seed == "0" else ONE)
    elif d.tail == REPEAT_L:
        out = apply(d.head, ZERO if seed == "0" else ONE_ZERO)
    elif d.tail == REPEAT_R:
        out = apply(d.head, ZERO_ONE if seed == "0" else ONE)
    else:
        block, head = d.block, d.head
        out = LimitWordStream(
            lambda: morphic_letters(head, LetterStream(lambda: _fixed_point_letters(block, seed))),
            d,
            seed,
        )
    if n is not None:
        return out.prefix(n)
    return out


# ----------------------------------------------------------------------
# node boundary words
# ----------------------------------------------------------------------

NODE_SEEDS = {
    "s0": ZERO,        # sigma(0^inf)
    "s010": W_010,     # sigma(01 0^inf)
    "s01": ZERO_ONE,   # sigma(0 1^inf)
    "s10": ONE_ZERO,   # sigma(1 0^inf)
    "s101": W_101,     # sigma(10 1^inf)
    "s1": ONE,         # sigma(1^inf)
}


@dataclass(frozen=True)
class NodeBoundaries:
    """The six boundary words of the node sigma = wM."""

    s0: Word
    s010: Word
    s01: Word
    s10: Word
    s101: Word
    s1: Word

    def as_dict(self):
        return {k: getattr(self, k) for k in NODE_SEEDS}


def node_boundaries(w: str) -> NodeBoundaries:
    sigma = w + "M"
    return NodeBoundaries(**{k: apply(sigma, v) for k, v in NODE_SEEDS.items()})


# ----------------------------------------------------------------------
# the s-map
# ----------------------------------------------------------------------

# the root node's boundary words M(seed), with the letters a stream is
# compared over before a tie: |pre| + 2|per| + 64 of M(seed) as built
_ROOT_WORDS = {
    key: (apply("M", seed), 2 * len(seed.pre) + 4 * len(seed.per) + 64)
    for key, seed in NODE_SEEDS.items()
}


def _cmp_root(u, key: str):
    """Sign of u against the root boundary word M(seed), None on a
    stream tie.  Words and sentinel strings compare exactly."""
    v, depth = _ROOT_WORDS[key]
    if isinstance(u, str):
        return -1 if u < v.prefix(len(u)) else 1
    return compare(u, v, depth)


# branch outcomes at a node, in directive order
BR_L, BR_STOP_L, BR_M, BR_STOP_R, BR_R = range(5)


def _branch0(u):
    """Locate a 0-word, given by its preimage u under the node's head w,
    relative to the node wM: the partition of (w(010^inf), w(01^inf))
    into the L-subtree, [s0, s010] (directive wM L^inf), the open
    M-subtree, {s01} (directive wM R^inf), and the R-subtree.  The
    substitutions preserve order, so u is compared with the root
    words M(seed) in place of wM(seed)."""
    c0 = _cmp_root(u, "s0")
    if c0 is None:
        return None
    if c0 < 0:
        return BR_L
    c010 = _cmp_root(u, "s010")
    if c010 is None:
        return None
    if c010 <= 0:
        return BR_STOP_L
    c01 = _cmp_root(u, "s01")
    if c01 is None:
        return None
    if c01 < 0:
        return BR_M
    if c01 == 0:
        return BR_STOP_R
    return BR_R


def _branch1(u):
    """Dual location of a 1-word: {s10} is wM L^inf, [s101, s1] is wM R^inf."""
    c10 = _cmp_root(u, "s10")
    if c10 is None:
        return None
    if c10 < 0:
        return BR_L
    if c10 == 0:
        return BR_STOP_L
    c101 = _cmp_root(u, "s101")
    if c101 is None:
        return None
    if c101 < 0:
        return BR_M
    c1 = _cmp_root(u, "s1")
    if c1 is None:
        return None
    if c1 <= 0:
        return BR_STOP_R
    return BR_R


@dataclass(frozen=True)
class SMapResult:
    directive: Directive
    truncated: bool

    def __str__(self):
        return str(self.directive) + ("..." if self.truncated else "")


def s_map(u, max_depth: int = 48) -> SMapResult:
    """Directive sequence of the partition cell containing u.

    For u starting 0 this is the sequence s with s(0^inf) <= u <= s(01^inf);
    for u starting 1, s(10^inf) <= u <= s(1^inf).  Each level compares
    u's preimage under the directive walked so far with the root words
    and then desubstitutes it by the letter taken.  Eventually periodic
    inputs terminate with a repeat tail unless max_depth is hit; streams
    come back truncated when a comparison ties.
    """
    first = u.letter(0) if isinstance(u, Word) else u.prefix(1)
    if first == "0":
        # corner cells: [0^inf, 010^inf] -> L^inf, {01^inf} -> R^inf
        c = compare(u, W_010)
        if c is not None and c <= 0:
            return SMapResult(Directive("", REPEAT_L), False)
        c = compare(u, ZERO_ONE)
        if c == 0:
            return SMapResult(Directive("", REPEAT_R), False)
        if c is None:
            return SMapResult(Directive("", FINITE), True)
        branch = _branch0
    else:
        c = compare(u, W_101)
        if c is not None and c >= 0:
            return SMapResult(Directive("", REPEAT_R), False)
        c = compare(u, ONE_ZERO)
        if c == 0:
            return SMapResult(Directive("", REPEAT_L), False)
        if c is None:
            return SMapResult(Directive("", FINITE), True)
        branch = _branch1
    w = ""
    for _ in range(max_depth):
        b = branch(u)
        if b is None:
            return SMapResult(Directive(w, FINITE), True)
        if b == BR_STOP_L:
            return SMapResult(Directive(w + "M", REPEAT_L), False)
        if b == BR_STOP_R:
            return SMapResult(Directive(w + "M", REPEAT_R), False)
        w += "LMR"[b // 2]
        u = _preimage(u, w[-1])
    return SMapResult(Directive(w, FINITE), True)


def split_descent(a, b, max_depth: int):
    """Joint s-map descent of a 0-word a and a 1-word b.

    Returns (order, w, ba, bb): order ">" when s(a) > s(b) certified at
    node w with branch pair (ba, bb), "<" symmetrically, "=" when the
    walk stayed joint (including repeat-tail stops, which keep their
    branch pair) for max_depth levels or hit undecidable stream ties
    (ba = bb = None, with len(w) the depth reached).
    """
    w = ""
    for _ in range(max_depth):
        ba, bb = _branch0(a), _branch1(b)
        if ba is None or bb is None:
            return "=", w, None, None
        if ba > bb:
            return ">", w, ba, bb
        if ba < bb:
            return "<", w, ba, bb
        if ba in (BR_STOP_L, BR_STOP_R):
            return "=", w, ba, bb
        w += "LMR"[ba // 2]
        a, b = _preimage(a, w[-1]), _preimage(b, w[-1])
    return "=", w, None, None


# ----------------------------------------------------------------------
# desubstitution (inverse parsing): the s-map's descent and mu's precondition
# ----------------------------------------------------------------------

TOP, BOTTOM = "2", "/"  # sentinels: above and below both letters in string order


def decode(letter: str, letters) -> Iterator[str]:
    """Preimage of a letter sequence under one substitution, lazily.

    Every block of L, M and R starts with the letter it encodes, so each
    block's letter is yielded as soon as it is read.  Where the input
    leaves the image inside a block, one sentinel follows and decoding
    stops: TOP if the letter read is above the expected one, BOTTOM if
    below.  The input then lies above (below) the image of every
    continuation of what was decoded, so for every binary v the input
    compares with letter(v) as the decoded sequence compares with v.  A
    sentinel in the input passes through the same rule, which makes
    decoding compose.  The input must be infinite or end with a sentinel.
    """
    table = SUBS[letter]
    it = iter(letters)
    for c in it:
        yield c
        if c not in table:
            return
        for expected in table[c][1:]:
            got = next(it)
            if got != expected:
                yield TOP if got > expected else BOTTOM
                return


def desubstitute(u: Word, letter: str) -> Optional[Word]:
    """Preimage of u under one substitution letter, or None.

    The block codes {0,10} (L), {01,10} (M), {01,1} (R) are prefix
    decodable, so the preimage is unique when it exists.  Past the
    preperiod, the first block start whose phase in the period repeats
    closes the preimage's period.
    """
    table, lp, lq = SUBS[letter], len(u.pre), len(u.per)
    decoded, seen, i = [], {}, 0
    for c in decode(letter, u.letters()):
        if c not in table:
            return None
        if i >= lp:
            phase = (i - lp) % lq
            if phase in seen:
                k = seen[phase]
                return Word("".join(decoded[:k]), "".join(decoded[k:]))
            seen[phase] = len(decoded)
        decoded.append(c)
        i += len(table[c])


def _preimage(u, letter: str):
    """u's preimage under one substitution letter, in a form whose order
    against every v is u's order against letter(v): a Word, a finite
    sentinel-terminated string where a word or string leaves the image,
    the limit word of the directive's tail, or a lazily decoded stream."""
    if isinstance(u, Word):
        return desubstitute(u, letter) or "".join(decode(letter, u.letters()))
    if isinstance(u, str):
        return "".join(decode(letter, u))
    if isinstance(u, LimitWordStream) and u.directive.letters(1) == letter:
        d = u.directive
        if d.head:
            return limit_word(Directive(d.head[1:], PERIODIC, d.block), u.seed)
        return limit_word(Directive("", PERIODIC, d.block[1:] + d.block[0]), u.seed)
    return LetterStream(lambda: decode(letter, u.letters()), f"{letter}^-1 {u!r}")


def common_node_image(u: Word, v: Word, max_depth: int = 64) -> bool:
    """True iff u = p(M(x)) and v = p(M(y)) for a common p in {L,R}*.

    This is the structural hypothesis under which the crossing value
    mu_{u,v} is well defined (u the 0-side word, v the 1-side word).
    """
    seen = set()

    def rec(a: Word, b: Word, depth: int) -> bool:
        key = (a, b)
        if key in seen or depth > max_depth:
            return False
        seen.add(key)
        if desubstitute(a, "M") is not None and desubstitute(b, "M") is not None:
            return True
        for letter in "LR":
            a1, b1 = desubstitute(a, letter), desubstitute(b, letter)
            if a1 is not None and b1 is not None and rec(a1, b1, depth + 1):
                return True
        return False

    return rec(u, v, 0)
