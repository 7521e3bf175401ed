"""Cardinality classification of lexicographic subshifts and univoque sets.

Omega_{a,b} is the set of binary sequences all of whose suffixes avoid
the open interval (a, b); it is trivial ({0^inf, 1^inf}), countable,
uncountable with zero entropy, or uncountable with positive entropy, and
which of these holds is decided by comparing the s-map directive
sequences of a and b:

    s(a) > s(b)                 positive entropy
    s(a) < s(b)                 countable (trivial or not)
    s(a) = s(b) repeat tail     countable, nontrivial
    s(a) = s(b) primitive       uncountable with zero entropy

The walk starts in the root's corner cells (substitution.corner_walk):
s(a) = L^inf for a <= 01 0^inf and R^inf for a = 0 1^inf, s(b) = L^inf
for b = 1 0^inf and R^inf for b >= 10 1^inf, otherwise the tree under
the root node M.  Corners are ordered as the descent orders its
branches: a ahead of b gives positive entropy, a behind b a trivial set,
equal stops a countable nontrivial one, and two M corners go on to the
joint descent of the two walks (substitution.joint_descent).

The trivial/nontrivial refinement depends only on the walk before the
first M step: a node sigma = wM with w over {L,R} witnesses nontriviality
as soon as a >= sigma(0^inf) and b <= sigma(1^inf); if the walks diverge
earlier with a below or b above every such window, Omega collapses to
{0^inf, 1^inf}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

from .config import DEFAULT, Config
from .critical import _at_or_below, _g_cell, _k_cell
from .expansions import regular
from .substitution import (
    BR_M,
    BR_STOP_L,
    BR_STOP_R,
    LimitWordStream,
    corner_walk,
    is_primitive,
    joint_descent,
)
from .words import Word, LetterStream, first_letter


class Label(Enum):
    TRIVIAL = "Trivial"
    COUNTABLE_NONTRIVIAL = "CountableNontrivial"
    UNCOUNTABLE_ZERO_ENTROPY = "UncountableZeroEntropy"
    POSITIVE_ENTROPY = "PositiveEntropy"
    UNDECIDED = "Undecided"
    # labels used by the closed-interval variant Sigma_{a,b}
    EMPTY = "Empty"
    COUNTABLE = "Countable"


@dataclass(frozen=True)
class Classification:
    label: Label
    depth: Optional[int] = None  # descent depth at truncation, for UNDECIDED

    def __str__(self):
        if self.label is Label.UNDECIDED and self.depth is not None:
            return f"Undecided({self.depth})"
        return self.label.value


# Every settled result is one shared constant (Classification is frozen),
# so a classifier builds nothing but an Undecided result's depth.
TRIVIAL = Classification(Label.TRIVIAL)
COUNTABLE_NONTRIVIAL = Classification(Label.COUNTABLE_NONTRIVIAL)
UNCOUNTABLE_ZERO_ENTROPY = Classification(Label.UNCOUNTABLE_ZERO_ENTROPY)
POSITIVE_ENTROPY = Classification(Label.POSITIVE_ENTROPY)
EMPTY = Classification(Label.EMPTY)
COUNTABLE = Classification(Label.COUNTABLE)


def classify_omega(a, b, max_depth: int = 48) -> Classification:
    """Classify Omega_{a,b} for a starting 0 and b starting 1.

    Exact for eventually periodic words; limit-word streams of one
    common primitive directive are recognized directly, other streams
    are classified to depth max_depth >= 1 (Undecided when ties persist).
    """
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    if first_letter(a) != "0":
        raise ValueError("a must start with 0")
    if first_letter(b) != "1":
        raise ValueError("b must start with 1")

    if isinstance(a, LimitWordStream) and isinstance(b, LimitWordStream):
        if a.directive == b.directive and is_primitive(a.directive) and (a.seed, b.seed) == ("0", "1"):
            return UNCOUNTABLE_ZERO_ENTROPY

    # the root's corner cells, ordered as the descent orders its branches
    ca, walk_a = corner_walk(a, "0")
    cb, walk_b = corner_walk(b, "1")
    if ca is None or cb is None:
        return Classification(Label.UNDECIDED, 0)
    if ca > cb:
        return POSITIVE_ENTROPY
    if ca < cb:
        # s(a) = L^inf below every window, or s(b) = R^inf above it
        return TRIVIAL
    if ca != BR_M:
        # s(a) = s(b) = L^inf or R^inf, a repeat tail
        return COUNTABLE_NONTRIVIAL

    order, w, ba, bb = joint_descent(walk_a, walk_b, max_depth)
    if order == ">":
        return POSITIVE_ENTROPY
    if order == "<":
        # some {L,R}*M node has a >= sigma(0^inf) and b <= sigma(1^inf):
        # a joint M step before the split, or the split node itself
        witness = "M" in w or (ba >= BR_STOP_L and bb <= BR_STOP_R)
        return COUNTABLE_NONTRIVIAL if witness else TRIVIAL
    if ba is None:
        return Classification(Label.UNDECIDED, len(w))
    # s(a) = s(b) ends with a repeat tail: countable, and the stop node
    # itself (or the first M step) witnesses nontriviality
    return COUNTABLE_NONTRIVIAL


PREPEND_CACHE_SIZE = 1024  # words kept with a letter prepended, least recently used dropped


@lru_cache(maxsize=PREPEND_CACHE_SIZE)
def _prepend_word(letter: str, x: Word) -> Word:
    return Word(letter + x.pre, x.per)


def _prepend(letter: str, x):
    """letter followed by x: a Word built once per word and letter (a
    corpus of pairs meets each word many times), a stream uncached."""
    if isinstance(x, Word):
        return _prepend_word(letter, x)
    def factory():
        yield letter
        yield from x.letters()
    return LetterStream(factory, f"{letter}+{x!r}")


def classify_sigma(a, b, max_depth: int = 48) -> Classification:
    """Classify Sigma_{a,b}, the sequences whose every suffix stays in the
    closed interval [a, b]; reduces to Omega_{0b,1a} (whose elements are
    exactly 0*Sigma, 1*Sigma and the two constants)."""
    res = classify_omega(_prepend("0", b), _prepend("1", a), max_depth)
    if res is TRIVIAL:
        return EMPTY
    if res is COUNTABLE_NONTRIVIAL:
        return COUNTABLE
    return res


def classify_univoque(q0: float, q1: float, tol: float = 1e-9,
                      config: Config = DEFAULT) -> Classification:
    """Cardinality of the unique-expansion set for the base pair (q0, q1).

    Irregular pairs have every sequence unique (full shift).  Otherwise
    q1 is placed against G(q0) and then K(q0), each found by its descent
    to q0's cell: at most the curve plus a window gives Trivial (G) or
    CountableNontrivial (K), and above K gives PositiveEntropy.  On a
    formula cell that q0 lies in for sure, one certified sign of the
    node function at q1 - window decides, window = max(tol, config.tol),
    with no root solved; on a formula cell q0 may miss (within a
    crossing's bracket of its edge) and on an exhausted walk the curve's
    bracket is solved, the window is max(tol, its width), and within the
    window of an exhausted walk's bracket the label is Undecided.  tol
    must be finite and positive.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    if not regular(q0, q1):  # which rejects bases outside (1, inf)
        return POSITIVE_ENTROPY
    below_g = _at_or_below(_g_cell(q0, config), q0, q1, tol, config)
    if below_g is not None:
        if below_g:
            return TRIVIAL
        below_k = _at_or_below(_k_cell(q0, config), q0, q1, tol, config)
        if below_k is not None:
            return COUNTABLE_NONTRIVIAL if below_k else POSITIVE_ENTROPY
    # at G over a primitive Sturmian point the set is already uncountable,
    # but that cannot be certified from a numeric q0
    return Classification(Label.UNDECIDED, config.max_depth)
