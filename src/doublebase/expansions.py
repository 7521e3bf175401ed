"""Quasi-greedy and quasi-lazy digit generation for two-base expansions.

The quasi-greedy expansion of x is the lexicographically largest digit
sequence not ending 0^inf: emit 1 exactly when q1*x - 1 > 0 (then
x <- q1*x - 1), else emit 0 (x <- q0*x).  The quasi-lazy expansion is the
smallest sequence not ending 1^inf and is generated through the mirror
identity (q1-1) pi(u) + (q0-1) pit-as-pi(reflect u) = 1: reflect the
quasi-greedy digits of the mirrored point in the swapped bases.

Arithmetic is exact (fractions) whenever the inputs are floats, ints or
Fractions, so a digit is flagged 'boundary' only on exact hits of
q1*x = 1 and is still certain.  With mpmath inputs the flags mark genuine
numeric uncertainty instead and downstream consumers treat flagged digits
as undecidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterator

import mpmath as mp

from .words import LetterStream


class ExpansionError(ValueError):
    pass


def _exactable(x) -> bool:
    if isinstance(x, (int, float, Fraction)):
        return True
    if isinstance(x, mp.mpf):
        _, man, _, _ = x._mpf_
        return man != 0 or x == 0  # finite mpf values are dyadic rationals
    return False


def _to_fraction(x) -> Fraction:
    if isinstance(x, mp.mpf):
        sign, man, exp, _ = x._mpf_
        frac = Fraction(man) * (Fraction(2) ** exp)
        return -frac if sign else frac
    return Fraction(x)


def regular(q0, q1) -> bool:
    """The pair admits expansions of every point of [0, 1/(q1-1)]:
    equivalent to the hole left endpoint 1/q1 not exceeding the right
    endpoint 1/(q0(q1-1))."""
    return q0 + q1 >= q0 * q1


@dataclass(frozen=True)
class BasePair:
    """A pair of expansion bases q0, q1 > 1."""

    q0: float
    q1: float

    def __post_init__(self):
        if not (self.q0 > 1 and self.q1 > 1):
            raise ExpansionError("bases must exceed 1")

    @property
    def regular(self) -> bool:
        return regular(self.q0, self.q1)

    @property
    def hole(self):
        return hole(self.q0, self.q1)


def hole(q0, q1):
    """The interval [1/q1, 1/(q0(q1-1))] that orbits of unique expansions
    must avoid."""
    return 1 / q1, 1 / (q0 * (q1 - 1))


@dataclass(frozen=True)
class DigitRun:
    """A finite run of expansion digits with per-digit boundary marks.

    boundary holds the 0-based indices where |q1*x - 1| <= tol at
    emission time; `exact` records whether the run was produced by exact
    rational arithmetic (flags then mark exact boundary hits, and every
    digit is certain) or by floating arithmetic (flags mark digits whose
    value the computation could not certify).
    """

    digits: str
    boundary: frozenset
    exact: bool

    def flagged(self, i: int) -> bool:
        return i in self.boundary

    def uncertain(self) -> bool:
        return bool(self.boundary) and not self.exact


def _digit_steps(q0, q1, x, tol) -> Iterator[tuple[str, bool]]:
    """Infinite (digit, at_boundary) pairs of the quasi-greedy expansion."""
    if _exactable(q0) and _exactable(q1) and _exactable(x):
        q0, q1, x = _to_fraction(q0), _to_fraction(q1), _to_fraction(x)
        zero = Fraction(0)
        for _ in count():
            t = q1 * x - 1
            if t > zero:
                yield "1", False
                x = t
            else:
                yield "0", t == zero
                x = q0 * x
    else:
        q0, q1, x = mp.mpf(q0), mp.mpf(q1), mp.mpf(x)
        for _ in count():
            t = q1 * x - 1
            flag = abs(t) <= tol
            if t > 0:
                yield "1", flag
                x = t
            else:
                yield "0", flag
                x = q0 * x


def quasi_greedy(q0, q1, x, n: int, tol: float = 1e-12) -> DigitRun:
    """First n digits of the quasi-greedy (q0,q1)-expansion of x."""
    if not regular(q0, q1):
        raise ExpansionError(f"pair ({q0}, {q1}) is not regular (q0+q1 < q0*q1)")
    if not (0 <= x and x * (q1 - 1) <= 1):
        raise ExpansionError(f"x={x} outside the attractor [0, 1/(q1-1)]")
    digits, flags = [], set()
    for i, (d, b) in zip(range(n), _digit_steps(q0, q1, x, tol)):
        digits.append(d)
        if b:
            flags.add(i)
    return DigitRun("".join(digits), frozenset(flags),
                    _exactable(q0) and _exactable(q1) and _exactable(x))


def quasi_lazy(q0, q1, x, n: int, tol: float = 1e-12) -> DigitRun:
    """First n digits of the quasi-lazy (q0,q1)-expansion of x: the
    reflection of the quasi-greedy expansion of the mirrored point
    (1 - (q1-1)x)/(q0-1) in bases (q1, q0)."""
    if not regular(q0, q1):
        raise ExpansionError(f"pair ({q0}, {q1}) is not regular (q0+q1 < q0*q1)")
    if _exactable(q0) and _exactable(q1) and _exactable(x):
        mirrored = (1 - (_to_fraction(q1) - 1) * _to_fraction(x)) / (_to_fraction(q0) - 1)
    else:
        mirrored = (1 - (q1 - 1) * x) / (q0 - 1)
    run = quasi_greedy(q1, q0, mirrored, n, tol)
    tr = str.maketrans("01", "10")
    return DigitRun(run.digits.translate(tr), run.boundary, run.exact)


class ExpansionStream(LetterStream):
    """Unbounded quasi-greedy/lazy digit stream (exact arithmetic only).

    Used by the crosschecks that feed the s-map descent with expansion
    words; regeneration from the factory keeps prefixes nested.
    """

    def __init__(self, q0, q1, x, lazy: bool = False):
        if not _exactable(q0) or not _exactable(q1) or not _exactable(x):
            raise ExpansionError("digit streams need exactly representable inputs")
        if not regular(q0, q1):
            raise ExpansionError(f"pair ({q0}, {q1}) is not regular")
        q0, q1, x = _to_fraction(q0), _to_fraction(q1), _to_fraction(x)
        self.q0, self.q1, self.x, self.lazy = q0, q1, x, lazy

        def factory():
            if lazy:
                mirrored = (1 - (Fraction(q1) - 1) * Fraction(x)) / (Fraction(q0) - 1)
                for d, _ in _digit_steps(q1, q0, mirrored, 0.0):
                    yield "1" if d == "0" else "0"
            else:
                for d, _ in _digit_steps(q0, q1, x, 0.0):
                    yield d

        kind = "quasi-lazy" if lazy else "quasi-greedy"
        super().__init__(factory, f"{kind}({q0},{q1},{x})")


def expansion_bounds(q0, q1) -> tuple[ExpansionStream, ExpansionStream]:
    """The words a = quasi-greedy expansion of 1/q1 and b = quasi-lazy
    expansion of 1/(q0(q1-1)), which bound the unique-expansion shift:
    a sequence is a unique expansion iff all its suffixes fall strictly
    below a or strictly above b."""
    left, right = hole(Fraction(q0), Fraction(q1))
    return ExpansionStream(q0, q1, left, lazy=False), ExpansionStream(q0, q1, right, lazy=True)
