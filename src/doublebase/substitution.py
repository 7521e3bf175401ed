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
classifier and of the critical-value descent.  Its partition is stated
once, as one cut table per side: the boundary words in increasing
order, each with the branch taken below and at it.  The root's corner
cells are the cuts at the seed words themselves; a node wM has the cuts
at wM(seed).  The substitutions preserve lexicographic order, so the
s-map walks by desubstitution: at each level the input's preimage under
the directive walked so far is located among the root words M(seed)
(one routine, _locate, for corners and nodes), then decoded by the
letter taken (decode).  Words stay exact at every depth, limit words
decode symbolically, and other streams decode lazily.  The branches one
word takes form its walk (walk), which depends on that word alone: the
s-map and the joint descent of two words both read walks, a Word's walk
is computed once and kept in a bounded cache, and a stream's is read
lazily up to where its reader stops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    _minimal_period,
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
            block = _minimal_period(block)
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
        return Directive(head, PERIODIC, rest[:-1])
    return Directive(text, FINITE)


def is_primitive(d):
    """True iff the directive sequence does not end with L^inf or R^inf.

    Finite directives are not infinite sequences, hence not primitive.
    A truncated s-map result returns None (undecided).
    """
    if isinstance(d, SMapResult):
        if d.truncated:
            return None
        d = d.directive
    return d.tail == PERIODIC


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

# branch outcomes at a node, in directive order
BR_L, BR_STOP_L, BR_M, BR_STOP_R, BR_R = range(5)

# The partition at a node wM, one cut table per side: the seeds of its
# boundary words wM(seed) in increasing order, each with the branch taken
# below and at the word, then the branch taken past them all.  0-words
# split into the L-subtree, [s0, s010] (directive wM L^inf), the open
# M-subtree, {s01} (wM R^inf) and the R-subtree; 1-words dually, with
# {s10} for wM L^inf and [s101, s1] for wM R^inf.
_PARTITION = {
    "0": ((("s0", BR_L, BR_STOP_L), ("s010", BR_STOP_L, BR_STOP_L), ("s01", BR_M, BR_STOP_R)), BR_R),
    "1": ((("s10", BR_L, BR_STOP_L), ("s101", BR_M, BR_STOP_R), ("s1", BR_STOP_R, BR_STOP_R)), BR_R),
}


def _cuts(side: str, word, depth) -> list:
    """side's cuts as (word(seed), depth(seed), branch below, branch at)."""
    return [(word(NODE_SEEDS[k]), depth(NODE_SEEDS[k]), below, at) for k, below, at in _PARTITION[side][0]]


# The substitutions preserve order, so a node's preimage under its head w
# is located among the root words M(seed).  A stream is compared with
# M(seed) over |pre| + 2|per| + 64 letters (of M(seed) as built) before
# the comparison counts as a tie.
_NODE_CUTS = {
    side: (_cuts(side, lambda s: apply("M", s), lambda s: 2 * len(s.pre) + 4 * len(s.per) + 64),
           _PARTITION[side][1])
    for side in "01"
}

# The root's corner cells [0^inf, 010^inf] (L^inf), {01^inf} (R^inf),
# {10^inf} (L^inf) and [101^inf, 1^inf] (R^inf) are the same cuts at the
# seeds themselves, compared over the default stream depth; their M
# branch is the tree under the root node M.  No sequence lies below
# 0^inf or above 1^inf, so those two cuts are left out, which keeps a
# stream that agrees with 0^inf or 1^inf decided.
_CORNER_CUTS = {
    "0": (_cuts("0", lambda s: s, lambda s: None)[1:], BR_R),
    "1": (_cuts("1", lambda s: s, lambda s: None)[:-1], BR_STOP_R),
}


def _locate(u, cuts):
    """The branch of the cell holding u in a cut table, None on a stream
    tie.  Words compare exactly; a sentinel-terminated string never
    equals a cut, so its order is that of the cut's prefix."""
    table, past = cuts
    for v, depth, below, at in table:
        if isinstance(u, str):
            c = -1 if u < v.prefix(len(u)) else 1
        else:
            c = compare(u, v, depth)
            if c is None:
                return None
        if c < 0:
            return below
        if c == 0:
            return at
    return past


_TAILS = {BR_STOP_L: REPEAT_L, BR_STOP_R: REPEAT_R}


def _step(u, side: str) -> tuple:
    """One step of a walk: the branch u takes, located among the root
    words, and u's preimage under the letter taken, where the walk goes
    on; the preimage is None after a repeat-tail stop or a stream tie
    (branch None)."""
    b = _locate(u, _NODE_CUTS[side])
    if b is None or b in _TAILS:
        return b, None
    return b, _preimage(u, "LMR"[b // 2])


def _steps(u, side: str) -> Iterator[int]:
    """The branches u takes at the nodes under the root node M, lazily
    and uncached (_step after _step)."""
    while u is not None:
        b, u = _step(u, side)
        yield b


class _Record:
    """A Word's walk, recorded as its branches are first read: one
    (branches, preimage) pair, the branches walked so far and the
    preimage still to walk, None once the walk has ended.  A reader
    walking past the record replaces the pair whole with a longer one,
    and every pair is a prefix of the one walk, so readers that race or
    are interrupted at worst repeat a step.  A complete record iterates
    as its tuple of branches."""

    __slots__ = ("_side", "_walked")

    def __init__(self, u: Word, side: str):
        self._side, self._walked = side, ((), u)

    def __iter__(self) -> Iterator[int]:
        branches, u = self._walked
        return iter(branches) if u is None else self._read(branches, u)

    def _read(self, branches: tuple, u) -> Iterator[int]:
        i = 0
        while i < len(branches) or u is not None:
            if i == len(branches):
                walked = self._walked
                if len(walked[0]) > i:  # another reader walked further
                    branches, u = walked
                else:
                    b, u = _step(u, self._side)
                    branches += (b,)
                    self._walked = branches, u
            yield branches[i]
            i += 1


WALK_CACHE_SIZE = 1024  # words whose walks are kept, least recently used dropped


@lru_cache(maxsize=WALK_CACHE_SIZE)
def _word_walk(u: Word, side: str) -> tuple:
    """A word's corner cell and its recorded node walk: a word's walk
    depends on it alone, so it is walked once, whatever it is paired
    with."""
    return _locate(u, _CORNER_CUTS[side]), _Record(u, side)


def corner(u, side: str):
    """The root's corner cell holding u, a word starting with `side`:
    BR_STOP_L for s(u) = L^inf, BR_STOP_R for R^inf, BR_M for the tree
    under the root node M, None on a stream tie.  A Word's corner is
    cached with its walk."""
    if isinstance(u, Word):
        return _word_walk(u, side)[0]
    return _locate(u, _CORNER_CUTS[side])


def walk(u, side: str):
    """The branches u, a word starting with `side`, takes at the nodes
    under the root node M, one _step at a time.  A Word's walk is cached
    and recorded (_Record), and a complete one is read as its tuple; a
    stream's is lazy and uncached, so it reads no further than its
    reader stops."""
    if isinstance(u, Word):
        return _word_walk(u, side)[1]
    return _steps(u, side)


@dataclass(frozen=True)
class SMapResult:
    directive: Directive
    truncated: bool

    def __str__(self):
        return str(self.directive) + ("..." if self.truncated else "")


def s_map(u, max_depth: int = 48) -> SMapResult:
    """Directive sequence of the partition cell containing u.

    For u starting 0 this is the sequence s with s(0^inf) <= u <= s(01^inf);
    for u starting 1, s(10^inf) <= u <= s(1^inf).  Past the root's corner
    cells it reads u's walk (`walk`, cached for a Word) for at most
    max_depth nodes.  Eventually periodic inputs terminate with a repeat
    tail unless max_depth is hit; streams come back truncated when a
    comparison ties.  max_depth must be at least 1.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    side = u.letter(0) if isinstance(u, Word) else u.prefix(1)
    b, w = corner(u, side), ""
    if b in _TAILS:
        return SMapResult(Directive("", _TAILS[b]), False)
    if b == BR_M:
        for _, b in zip(range(max_depth), walk(u, side)):
            if b in _TAILS:
                return SMapResult(Directive(w + "M", _TAILS[b]), False)
            if b is None:
                break
            w += "LMR"[b // 2]
    return SMapResult(Directive(w, FINITE), True)


def split_descent(a, b, max_depth: int):
    """Joint s-map descent of a 0-word a and a 1-word b.

    Reads the walks of a and b (`walk`) side by side: each depends on
    one word only, so a Word's walk is computed once however many
    partners it is paired with, and streams are read only up to the
    first difference.  Returns (order, w, ba, bb): order ">" when
    s(a) > s(b) certified at node w with branch pair (ba, bb), "<"
    symmetrically, "=" when the walks stayed joint (including
    repeat-tail stops, which keep their branch pair) for max_depth
    levels or hit undecidable stream ties (ba = bb = None, with len(w)
    the depth reached).
    """
    w = ""
    for _, ba, bb in zip(range(max_depth), walk(a, "0"), walk(b, "1")):
        if ba is None or bb is None:
            return "=", w, None, None
        if ba > bb:
            return ">", w, ba, bb
        if ba < bb:
            return "<", w, ba, bb
        if ba in _TAILS:
            return "=", w, ba, bb
        w += "LMR"[ba // 2]
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
