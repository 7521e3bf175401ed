"""Quasi-greedy and quasi-lazy digit generation for two-base expansions.

The quasi-greedy expansion of x is the lexicographically largest digit
sequence not ending 0^inf: emit 1 exactly when q1*x - 1 > 0 (then
x <- q1*x - 1), else emit 0 (x <- q0*x).  The quasi-lazy expansion is the
smallest sequence not ending 1^inf and is generated through the mirror
identity (q1-1) pi(u) + (q0-1) pit-as-pi(reflect u) = 1: reflect the
quasi-greedy digits of the mirrored point in the swapped bases.

One generator (_digit_steps) produces both, behind quasi_greedy,
quasi_lazy and ExpansionStream.  Its arithmetic is exact: every finite
input (int, float, Fraction, Decimal, numpy scalar or mpf) is converted
to a Fraction once, and the digits are stepped on integers over the
bases' common denominator, so a digit is flagged 'boundary' only on an
exact hit of q1*x = 1 and every digit is certain.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator

from .words import LetterStream


class ExpansionError(ValueError):
    pass


def _to_fraction(x) -> Fraction:
    """x as an exact rational (floats of every width and finite mpf
    values, read by the mpmath loaded to make them, are dyadic
    rationals); ExpansionError unless x is finite."""
    try:
        return Fraction(x) if isinstance(x, (numbers.Rational, Decimal)) else Fraction(*x.as_integer_ratio())
    except (OverflowError, ValueError):
        pass
    except AttributeError:
        mp = sys.modules.get("mpmath")
        if mp is not None and isinstance(x, mp.mpf) and mp.isfinite(x):
            return Fraction(*mp.libmp.to_rational(x._mpf_))
    raise ExpansionError(f"{x} is not a finite number")


def _check_bases(q0, q1) -> None:
    """ExpansionError unless both bases are finite and exceed 1: the one
    rule of every entry point taking a base pair (nan fails it too)."""
    if not (1 < q0 < math.inf and 1 < q1 < math.inf):
        raise ExpansionError(f"bases ({q0}, {q1}) must be finite and exceed 1")


def regular(q0, q1) -> bool:
    """The pair admits expansions of every point of [0, 1/(q1-1)]:
    equivalent to the hole left endpoint 1/q1 not exceeding the right
    endpoint 1/(q0(q1-1)).  Decided exactly, as q0 + q1 >= q0 q1 on the
    bases' integer ratios n/d (the digit steps' test, which floats get
    wrong within an ulp of q1 = q0/(q0-1)).  ExpansionError for bases
    outside (1, inf)."""
    _check_bases(q0, q1)
    try:
        (n0, d0), (n1, d1) = q0.as_integer_ratio(), q1.as_integer_ratio()
    except AttributeError:  # an mpf
        (n0, d0), (n1, d1) = _to_fraction(q0).as_integer_ratio(), _to_fraction(q1).as_integer_ratio()
    return n0 * d1 + n1 * d0 >= n0 * n1


@dataclass(frozen=True)
class BasePair:
    """A pair of finite expansion bases q0, q1 > 1."""

    q0: float
    q1: float

    def __post_init__(self):
        _check_bases(self.q0, self.q1)

    @property
    def regular(self) -> bool:
        return regular(self.q0, self.q1)

    @property
    def hole(self):
        return hole(self.q0, self.q1)


def hole(q0, q1):
    """The interval [1/q1, 1/(q0(q1-1))] that orbits of unique expansions
    must avoid.  ExpansionError for bases outside (1, inf)."""
    _check_bases(q0, q1)
    return 1 / q1, 1 / (q0 * (q1 - 1))


@dataclass(frozen=True)
class DigitRun:
    """A finite run of expansion digits with boundary marks: boundary
    holds the 0-based indices where q1*x = 1 exactly at emission time
    (the digit is then 0 in a quasi-greedy run, 1 in a quasi-lazy one)."""

    digits: str
    boundary: frozenset

    def flagged(self, i: int) -> bool:
        return i in self.boundary


def _digit_steps(q0, q1, x, lazy: bool) -> tuple[Callable[[], Iterator[tuple[str, bool]]], str]:
    """The infinite (digit, at_boundary) pairs of the quasi-greedy
    expansion of x, or with lazy of the quasi-lazy one (the reflected
    quasi-greedy digits of the mirrored point (1 - (q1-1)x)/(q0-1) in
    bases (q1, q0)), as a function that starts them afresh on each call,
    and a description of the expansion by its exact inputs.  The inputs
    are checked and converted to Fractions once, here; the steps run on
    integers over the bases' common denominator d, keeping the point as
    num/den with den multiplied by d at every digit, so no step reduces
    a fraction."""
    q0, q1, x = _to_fraction(q0), _to_fraction(q1), _to_fraction(x)
    describe = f"{'quasi-lazy' if lazy else 'quasi-greedy'}({q0},{q1},{x})"
    if not regular(q0, q1):
        raise ExpansionError(f"pair ({q0}, {q1}) is not regular (q0+q1 < q0*q1)")
    if not (0 <= x and x * (q1 - 1) <= 1):  # so is the mirrored point, in bases (q1, q0)
        raise ExpansionError(f"x={x} outside the attractor [0, 1/(q1-1)]")
    if lazy:
        q0, q1, x = q1, q0, (1 - (q1 - 1) * x) / (q0 - 1)
    one, zero = ("0", "1") if lazy else ("1", "0")
    d = math.lcm(q0.denominator, q1.denominator)  # q0 = a/d, q1 = b/d
    a, b = q0.numerator * (d // q0.denominator), q1.numerator * (d // q1.denominator)

    def steps():
        num, den = x.numerator, x.denominator  # y = num/den
        while True:
            t = b * num - d * den  # q1*y - 1 = t/(d*den)
            den *= d
            if t > 0:
                yield one, False
                num = t
            else:
                yield zero, t == 0
                num *= a

    return steps, describe


def _digit_run(q0, q1, x, n: int, lazy: bool) -> DigitRun:
    steps = list(islice(_digit_steps(q0, q1, x, lazy)[0](), n))
    return DigitRun("".join(d for d, _ in steps), frozenset(i for i, (_, b) in enumerate(steps) if b))


def quasi_greedy(q0, q1, x, n: int) -> DigitRun:
    """First n digits of the quasi-greedy (q0,q1)-expansion of x."""
    return _digit_run(q0, q1, x, n, lazy=False)


def quasi_lazy(q0, q1, x, n: int) -> DigitRun:
    """First n digits of the quasi-lazy (q0,q1)-expansion of x: the
    reflection of the quasi-greedy expansion of the mirrored point
    (1 - (q1-1)x)/(q0-1) in bases (q1, q0)."""
    return _digit_run(q0, q1, x, n, lazy=True)


class ExpansionStream(LetterStream):
    """Unbounded quasi-greedy/lazy digit stream.

    Used by the crosschecks that feed the s-map descent with expansion
    words; regeneration from the factory keeps prefixes nested.
    """

    def __init__(self, q0, q1, x, lazy: bool = False):
        steps, describe = _digit_steps(q0, q1, x, lazy)
        super().__init__(lambda: (d for d, _ in steps()), describe)


def expansion_bounds(q0, q1) -> tuple[ExpansionStream, ExpansionStream]:
    """The words a = quasi-greedy expansion of 1/q1 and b = quasi-lazy
    expansion of 1/(q0(q1-1)), which bound the unique-expansion shift:
    a sequence is a unique expansion iff all its suffixes fall strictly
    below a or strictly above b."""
    left, right = hole(_to_fraction(q0), _to_fraction(q1))
    return ExpansionStream(q0, q1, left, lazy=False), ExpansionStream(q0, q1, right, lazy=True)
