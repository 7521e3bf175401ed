"""Exact evaluation of the two-base expansion value maps.

pi(q0, q1, u)  = sum_k u_k / (q_{u_1} ... q_{u_k})   (digit 0 scaled by q0)
pit(q0, q1, v) = sum_k (1 - v_k) / (q_{v_1} ... q_{v_k})

For eventually periodic words the value is a finite sum plus a geometric
tail, evaluated with whatever scalar type the bases carry (float,
Fraction or decimal.Decimal), so the same code serves both exact
rational work and the solvers' 30-digit Decimal signs.

The module also provides the affine forms used by the critical-value
descent: reading a letter c maps the value of the remaining tail x to
a_c + s_c * x, and substitution images compose these maps, so pi of huge
node boundary words costs arithmetic in the directive, not in the
exponential word lengths.  directive_affine composes over the runs of
the directive: a run L^k or R^k applies the k-th power of one letter map,
taken by squaring, so one evaluation costs O(runs * log run) operations
on four scalars, and builds one AffinePair at the end.

Every word value comes from one evaluator (AffinePair.of_word).  For
float bases node_f_bound repeats the float evaluation of a value
function (value_fns, of node boundary words or plain words), from its
kept composition, with a proven bound on its error: the affine pairs'
roundings are counted once per directive (directive_roundings, Higham's
gamma_n), the word's letters add theirs in log form, and a running
error bound covers the three subtractions that cancel.  The value
functions of one directive built together, such as a crossing's two,
keep one dict of compositions, float points under (q0, q1) and Decimal
points under (q0, q1, precision), so a point both are signed at is
composed once.
"""

from __future__ import annotations

import math
from decimal import Decimal, getcontext
from functools import lru_cache
from itertools import groupby

from .expansions import _check_bases
from .substitution import PERIODIC, Directive, DirectiveError
from .words import Word


class DegenerateSystemError(ValueError):
    """Alphabet-base system whose expansions all have the same value."""


def pi(q0, q1, u: Word):
    """Value of the expansion with digit word u in bases (q0, q1).

    Finite preperiod sum plus geometric period tail; needs q0, q1 > 1
    (q1 = 1 is allowed when the period contains a 0, as used by the
    solver boundary checks).
    """
    return AffinePair(*_identity(q0, q1)).of_word(u)


def pi_tilde(q0, q1, v: Word):
    """Mirror value sum_k (1 - v_k)/(q_{v_1}...q_{v_k}): the letter maps
    are x -> (1 + x)/q0 and x -> x/q1, which keep its zeros exact (f~
    takes pit from pi by the reflection identity instead)."""
    one = q0 / q0
    return AffinePair(one / q0, one / q0, one - one, one / q1).of_word(v)


def f(u: Word, q0, q1):
    """q0 (q1 pi(u) - 1); strictly decreasing in q0 and q1.

    Its root in q1 is the base pair at which u is the quasi-greedy
    expansion of 1/q1.
    """
    return f_from_pi(pi(q0, q1, u), q0, q1)


def f_tilde(v: Word, q0, q1):
    """q1 (q0 pit(v) - 1), the mirror of f, by the reflection identity."""
    return f_tilde_from_pi(pi(q0, q1, v), q0, q1)


def reduce_system(d0, q0, d1, q1):
    """Affine identification of {(d0,q0),(d1,q1)}-expansions with the
    standard digits {(0,q0),(1,q1)}.

    Returns (offset, scale) with value = offset + scale * pi(q0,q1,digits).
    Raises DegenerateSystemError when every digit sequence has the same
    value (d0/(q0-1) = d1/(q1-1)), and ExpansionError (a ValueError) for
    bases outside (1, inf).
    """
    _check_bases(q0, q1)
    offset = d0 / (q0 - 1)
    scale = d1 - d0 * (q1 - 1) / (q0 - 1)
    if scale == 0:
        raise DegenerateSystemError(
            f"system {{({d0},{q0}),({d1},{q1})}} is degenerate: all expansions equal {offset}"
        )
    return offset, scale


# ----------------------------------------------------------------------
# affine forms of substitution images
# ----------------------------------------------------------------------


class AffinePair:
    """Maps (a0,s0), (a1,s1) with pi(w(c) . tail) = a_c + s_c * pi(tail).

    Building the pair for a directive word w (directive_affine) costs
    O(runs * log run) regardless of the exponential image lengths.
    """

    __slots__ = ("a0", "s0", "a1", "s1")

    def __init__(self, a0, s0, a1, s1):
        self.a0, self.s0, self.a1, self.s1 = a0, s0, a1, s1

    def of_word(self, u: Word):
        """pi(w(u)) for eventually periodic u: the map of u's period,
        composed from the right (Horner), its fixed point a / (1 - s),
        then the preperiod's letters folded in from the right."""
        per = u.per
        if per[-1] == "0":
            a, s = self.a0, self.s0
        else:
            a, s = self.a1, self.s1
        if len(per) > 1:  # a node seed's period has one letter: no empty loop
            for c in per[-2::-1]:
                a, s = (self.a0 + self.s0 * a, self.s0 * s) if c == "0" else (self.a1 + self.s1 * a, self.s1 * s)
        p = a / (1 - s)
        for c in reversed(u.pre):
            p = self.a0 + self.s0 * p if c == "0" else self.a1 + self.s1 * p
        return p


def _identity(q0, q1) -> tuple:
    """(a0, s0, a1, s1) of the empty directive's pair at (q0, q1)."""
    one = q0 / q0
    r1 = one / q1
    return one - one, one / q0, r1, r1


def _power(a, s, k: int):
    """(A, S) such that x -> A + S * x is the k-fold (k >= 1) power of
    x -> a + s * x, by squaring.  No geometric-series closed form: it
    cancels badly for s near 1 and squaring stays exact on Fraction."""
    pa = ps = None
    while True:
        if k & 1:
            pa, ps = (a, s) if pa is None else (pa + ps * a, ps * s)
        k >>= 1
        if not k:
            return pa, ps
        a, s = a + s * a, s * s


def letter_runs(w: str) -> tuple:
    """Run-length encoding ((letter, count), ...) of a directive word."""
    return tuple((c, sum(1 for _ in g)) for c, g in groupby(w))


def directive_affine(w, q0, q1) -> AffinePair:
    """Affine pair of the directive w, given as a word or as its
    letter_runs: a run L^k fixes (a0, s0) and maps (a1, s1) to
    (a1 + s1 * A, s1 * S), (A, S) the k-th power of x -> a0 + s0 * x;
    R^k is the mirror; each M letter applies its map once (_compose)."""
    return _compose(_identity(q0, q1), w)


def _compose(start, w) -> AffinePair:
    a0, s0, a1, s1 = start  # the pair w follows, folded on four scalars
    for letter, k in (letter_runs(w) if isinstance(w, str) else w):
        if letter == "M":           # blocks 0 -> "01", 1 -> "10"
            for _ in range(k):
                a0, s0, a1, s1 = a0 + s0 * a1, s0 * s1, a1 + s1 * a0, s1 * s0
        elif letter == "L":         # 0 -> "0", 1 -> "10"
            a, s = _power(a0, s0, k) if k > 1 else (a0, s0)
            a1, s1 = a1 + s1 * a, s1 * s
        elif letter == "R":         # 0 -> "01", 1 -> "1"
            a, s = _power(a1, s1, k) if k > 1 else (a1, s1)
            a0, s0 = a0 + s0 * a, s0 * s
        else:
            raise DirectiveError(f"bad directive letter {letter!r}")
    return AffinePair(a0, s0, a1, s1)


def node_pi(runs, q0, q1, seed, kept=None):
    """pi of boundary words of a node sigma, from affine forms.

    runs are letter_runs(w + "M") of the node sigma = wM, which a caller
    evaluating one node many times computes once (() give pi of the seed
    itself).  With one seed word, the value of sigma(seed); with a tuple
    of words, the tuple of their values from the one composition.  A
    dict kept, if given, stores the composition: under (q0, q1) at float
    bases, where a value function's bound reads it, and under (q0, q1,
    precision) at Decimal bases, where it is read first.  A Decimal equal
    to a float hashes and compares equal to it, so the digits of the
    current decimal context in the key keep a Decimal point from a float
    composition, and one point's compositions at two precisions apart.
    """
    if kept is not None and isinstance(q0, Decimal) and isinstance(q1, Decimal):
        key = (q0, q1, getcontext().prec)
        pair = kept[key] = kept.get(key) or _compose(_identity(q0, q1), runs)
    else:
        pair = _compose(_identity(q0, q1), runs)
        if kept is not None and isinstance(q0, float) and isinstance(q1, float):
            kept[q0, q1] = pair
    if isinstance(seed, tuple):
        return tuple(map(pair.of_word, seed))
    return pair.of_word(seed)


def value_fns(runs, *functions) -> list:
    """For each (seed, tilde) of functions, f of sigma(seed), or f~ with
    tilde, as a function of (q0, q1) via node_pi, sigma of letter runs
    `runs` (() for a plain word); its bounded is the same float
    evaluation with a proven error bound (node_f_bound).  They share one
    dict of compositions for their life (one solve or crossing): at a
    float point the first evaluation or bound composes and every later
    bound there starts from it, and at a Decimal point the first
    evaluation at a precision composes for every later one, so a
    crossing's two functions signed at one corner compose it once."""
    kept, fns = {}, []
    roundings = directive_roundings(runs)
    for seed, tilde in functions:  # defaults bind each function's own seed
        from_pi = f_tilde_from_pi if tilde else f_from_pi

        def fn(q0, q1, seed=seed, from_pi=from_pi):
            return from_pi(node_pi(runs, q0, q1, seed, kept), q0, q1)

        def bounded(q0, q1, seed=seed, tilde=tilde):
            pair = kept[q0, q1] = kept.get((q0, q1)) or _compose(_identity(q0, q1), runs)
            return node_f_bound(runs, roundings, seed, tilde, q0, q1, pair)
        fn.bounded = bounded
        fn.parts = (runs, seed, from_pi)
        fns.append(fn)
    return fns


def value_pair(fu, fv):
    """(q0, q1) -> (fu(q0, q1), fv(q0, q1)), from one node_pi composition
    where both are value functions (value_fns) of the same runs."""
    parts = getattr(fu, "parts", None), getattr(fv, "parts", None)
    if None in parts or parts[0][0] != parts[1][0]:
        return lambda q0, q1: (fu(q0, q1), fv(q0, q1))
    (runs, su, from_u), (_, sv, from_v) = parts

    def both(q0, q1):
        pu, pv = node_pi(runs, q0, q1, (su, sv))
        return from_u(pu, q0, q1), from_v(pv, q0, q1)
    return both


def f_from_pi(p, q0, q1):
    return q0 * (q1 * p - 1)


def f_tilde_from_pi(p, q0, q1):
    # pit(v) = (1 - (q1-1) pi(v)) / (q0-1), the reflection identity
    pt = (1 - (q1 - 1) * p) / (q0 - 1)
    return q1 * (q0 * pt - 1)


# ----------------------------------------------------------------------
# float node values with a proven error bound
# ----------------------------------------------------------------------

# The unit roundoff 2^-53 = 1.1102e-16, raised by 0.9%: every term of the
# bounds below carries this factor and takes a few dozen float sums,
# products and quotients of nonnegative numbers, whose own roundings the
# margin covers, so the computed bounds are never below the exact ones.
_U = 1.12e-16


class _Roundings(int):
    """The rounding count n of a float x_hat computed from exact inputs by
    sums and products of nonnegative floats: (1-u)^n <= x_hat/x <=
    (1-u)^-n (Higham 2002, Lemma 3.1).  A sum takes max(n_a, n_b) + 1
    (the exact sum of two nonnegative terms has a ratio between theirs)
    and a product n_a + n_b + 1.  For bases q0, q1 >= 1 the affine pairs
    are nonnegative, so the composition code run on counts counts the
    roundings of every float it computes; the counts do not depend on
    the bases."""

    __slots__ = ()

    def __add__(self, other):
        return _Roundings(max(int(self), int(other)) + 1)

    def __mul__(self, other):
        return _Roundings(int(self) + int(other) + 1)


@lru_cache(maxsize=1024)
def directive_roundings(w) -> AffinePair:
    """Rounding counts of the four floats of directive_affine(w, q0, q1)
    for any float q0, q1 >= 1: the identity's 0 is exact and its three
    reciprocals round once.  Cached, since they cost a few float
    evaluations and a warm descent asks again for the nodes it reaches."""
    n = _compose(map(_Roundings, (0, 1, 1, 1)), w)
    return AffinePair(int(n.a0), int(n.s0), int(n.a1), int(n.s1))


def _grown(r):
    # e^r - 1 <= r / (1 - r): the relative error of a value whose log is
    # within r of the exact one
    return r / (1 - r) if r < 1 else math.inf


def node_f_bound(runs, roundings: AffinePair, seed: Word, tilde: bool, q0: float, q1: float,
                 pair: AffinePair | None = None) -> tuple:
    """(f_hat, err) with |f - f_hat| <= err, f the function
    value_fns(runs, (seed, tilde)) (f of sigma(seed), or f~ with tilde) at
    floats q0 > 1, q1 >= 1; roundings is directive_roundings(runs), and
    pair directive_affine(runs, q0, q1) where the caller has it.
    f_hat is computed by the operations of AffinePair.of_word and
    f_from_pi / f_tilde_from_pi, in their order, so it equals that
    float evaluation bit for bit.

    Through the sums and products of nonnegative numbers (the period's
    Horner loop and the preperiod's), r bounds |log(x_hat / x)|: one u
    per rounding, added over products and quotients, the larger over
    sums.  At the subtractions that cancel (1 - s of the periodic tail,
    the last subtractions of f and f~) the bound becomes absolute, a
    running error bound (Wilkinson 1963).  err is inf where a product
    could have underflowed.
    """
    pair = pair or _compose(_identity(q0, q1), runs)
    # the map x -> a + s x of each digit and the log-error bounds of a and s
    zero = (pair.a0, pair.s0, roundings.a0 * _U, roundings.s0 * _U)
    one = (pair.a1, pair.s1, roundings.a1 * _U, roundings.s1 * _U)
    low = m = min(pair.s0, pair.s1)  # low: the least nonzero value an s multiplies
    a, s, ra, rs = zero if seed.per[-1] == "0" else one
    for c in seed.per[-2::-1]:
        x, y, rx, ry = zero if c == "0" else one
        low = min(low, a or low, s)
        a, s = x + y * a, y * s
        ra, rs = max(rx, ry + ra + _U) + _U, ry + rs + _U
    d = 1 - s
    p = a / d
    # d is within s (e^rs - 1) + u d of 1 - s_exact
    r = ra + _grown((s * _grown(rs) + _U * d) / d) + _U
    for c in seed.pre[::-1]:
        x, y, rx, ry = zero if c == "0" else one
        low = min(low, p or low)
        p = x + y * p
        r = max(rx, ry + r + _U) + _U
    # every product or quotient formed is 0 or at least m low / q1,
    # (q1 - 1) m low / q1 or 2^-106 / q0: in these ranges none underflows,
    # so every rounding is relative
    normal = m * low >= q1 * 2.0 ** -960 and q0 < 2.0 ** 400
    if not tilde:  # q0 (q1 p - 1)
        t = q1 * p
        d = t - 1
        f = q0 * d
        err = q0 * (t * _grown(r + _U) + _U * abs(d)) + _U * abs(f)
    else:  # q1 (q0 pt - 1), pt = (1 - (q1 - 1) p) / (q0 - 1)
        # q - 1 is exact for q <= 2 (Sterbenz) and rounds once above
        t = (q1 - 1) * p
        n = 1 - t
        k = q0 - 1
        pt = n / k
        e = t * _grown((_U if q1 > 2 else 0.0) + r + _U) + _U * abs(n)
        e = (e + (abs(n) + e) * _grown(_U if q0 > 2 else 0.0)) / k + _U * abs(pt)
        x = q0 * pt
        y = x - 1
        f = q1 * y
        err = q1 * (q0 * e + _U * abs(x) + _U * abs(y)) + _U * abs(f)
    # inf, not nan, where an infinite bound met a zero factor
    return f, (err if normal and err < math.inf else math.inf)


def pi_limit(d: Directive, seed, q0, q1):
    """pi of the limit word of a periodic-tail directive.

    Uses the self-similarity F = head(Fix), Fix = block(Fix): the
    affine pair of head block^k steps through the block's letters
    (_compose) at every round, which multiplies its contraction by the
    block's, until the unknown-tail contribution (bounded by scale *
    sup pi) is below a scale of 1e-60.  Comparing consecutive values
    would be wrong here: prepended zeros leave the value unchanged.
    """
    if d.tail != PERIODIC:
        raise DirectiveError("pi_limit needs a periodic-tail directive")
    seed = str(seed)
    psi = directive_affine(d.head, q0, q1)
    block = letter_runs(d.block)
    for _ in range(160):
        a, s = (psi.a0, psi.s0) if seed == "0" else (psi.a1, psi.s1)
        if abs(s) < 1e-60:
            return a
        psi = _compose((psi.a0, psi.s0, psi.a1, psi.s1), block)
    return (psi.a0 if seed == "0" else psi.a1)
