"""Reference values for the benchmark checks, computed without doublebase.

Everything here comes from definitions and closed forms in the paper's
setting: plain rewriting under the L/M/R substitutions, direct series
for the value maps evaluated with mpmath, polynomial cell endpoints and
the Thue-Morse sequence.  Nothing is imported from the package under
test, so a fault shared by the library's own code paths cannot hide.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp

PHI = (1 + math.sqrt(5)) / 2

SUBS = {
    "L": {"0": "0", "1": "10"},
    "M": {"0": "01", "1": "10"},
    "R": {"0": "01", "1": "1"},
}

# seed words PRE(PER) of the six boundary words sigma(seed) of a node
SEEDS = {
    "s0": ("", "0"),
    "s010": ("01", "0"),
    "s01": ("0", "1"),
    "s10": ("1", "0"),
    "s101": ("10", "1"),
    "s1": ("", "1"),
}

# (map, case) -> (boundary word, equation) whose root in q1 is the value
FORMULA = {
    ("G", "LeftFormula"): ("s0", "f"),
    ("G", "RightFormula"): ("s1", "ft"),
    ("K", "LeftFormula"): ("s10", "ft"),
    ("K", "RightFormula"): ("s01", "f"),
}

REWRITE_CAP = 600  # letters of pre + per rebuilt for the sign check


def rewrite(directive: str, text: str) -> str:
    """directive(text) by repeated rewriting, innermost letter first."""
    for letter in reversed(directive):
        text = "".join(SUBS[letter][c] for c in text)
    return text


def image_size(directive: str, text: str) -> int:
    """|directive(text)| without rewriting: appending a letter d to the
    directive makes |.(c)| the sum of the lengths over the letters of d(c)."""
    n = {"0": 1, "1": 1}
    for letter in directive:
        n = {c: sum(n[x] for x in SUBS[letter][c]) for c in "01"}
    return sum(n[c] for c in text)


def _fold(word: str, q0, q1, tilde: bool):
    # reading letter c maps the tail value x to (numerator(c) + x) / q_c
    a, s = 0, 1
    for c in word:
        q = q0 if c == "0" else q1
        s = s / q
        if (c == "1") != tilde:
            a = a + s
    return a, s


def value(pre: str, per: str, q0, q1, tilde: bool = False):
    """pi (or pi~ with tilde) of the eventually periodic word pre(per)."""
    a_pre, s_pre = _fold(pre, q0, q1, tilde)
    a_per, s_per = _fold(per, q0, q1, tilde)
    return a_pre + s_pre * a_per / (1 - s_per)


def equation(kind: str, pre: str, per: str, q0, q1):
    """f_u = q0 (q1 pi(u) - 1) or f~_v = q1 (q0 pi~(v) - 1)."""
    if kind == "f":
        return q0 * (q1 * value(pre, per, q0, q1) - 1)
    return q1 * (q0 * value(pre, per, q0, q1, tilde=True) - 1)


def boundary_word(node: str, key: str):
    """(pre, per) of sigma(seed) for sigma = node + M, or None when it is
    longer than REWRITE_CAP letters."""
    pre, per = SEEDS[key]
    sigma = node + "M"
    if image_size(sigma, pre + per) > REWRITE_CAP:
        return None
    return rewrite(sigma, pre), rewrite(sigma, per)


def sign_change(which: str, case: str, node: str, q0: float, lo: float, hi: float):
    """True/False: the node equation of a formula result is positive at lo
    and negative at hi (both equations decrease in q1); None when the
    boundary word is too long to rebuild."""
    key, kind = FORMULA[(which, case)]
    word = boundary_word(node, key)
    if word is None:
        return None
    with mp.workdps(40):
        x = mp.mpf(q0)
        return (equation(kind, *word, x, mp.mpf(lo)) > 0
                and equation(kind, *word, x, mp.mpf(hi)) < 0)


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------


def _bisect(fn, lo: float, hi: float, iters: int = 200) -> float:
    pos = fn(lo) > 0
    if (fn(hi) > 0) == pos:
        raise ArithmeticError("no sign change on the reference interval")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (fn(mid) > 0) == pos:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=None)
def g_cells(k: int):
    """Cell of the node L^k M for G: (mu1, mumid, mu2) from the crossing
    polynomials 2x^(k+1) = x^k + 2, x^(k+2) = x + 1 and x^(k+1) = 2."""
    mu2 = 2 ** (1 / (k + 1))
    mu1 = 1.5 if k == 0 else _bisect(lambda x: 2 * x ** (k + 1) - x ** k - 2, 1.0, mu2)
    mumid = _bisect(lambda x: x ** (k + 2) - x - 1, 1.0, mu2)
    return mu1, mumid, mu2


def g_closed(q0: float, margin: float = 1e-6):
    """(value, node, case) of G(q0) on an L^k cell, or None off the L spine
    cells (or within margin of a cell edge)."""
    if not q0 > 1:
        return None
    k = 0
    while True:
        mu1, mumid, mu2 = g_cells(k)
        if q0 > mu2 + margin:
            return None
        if mu1 + margin < q0 < mumid - margin:
            return 1 / (q0 ** k * (q0 - 1)), "L" * k, "LeftFormula"
        if mumid + margin < q0 < mu2 - margin:
            return (q0 ** (k + 2) - 1) / (q0 ** (k + 1) * (q0 - 1)), "L" * k, "RightFormula"
        if q0 >= mu1 - margin:
            return None
        k += 1


def _k_left(q0):
    return (q0 + 2 + math.sqrt(q0 * q0 + 4)) / (2 * q0)


def _k_right(q0):
    return (2 * q0 - 1) / (q0 * (q0 - 1))


@lru_cache(maxsize=None)
def k_root_cells():
    """Ends of the two formula cells of K at the root node M: the left
    cell [3/2, x] ends where the left formula meets the root of
    f_{M(010^inf)}, the right cell [y, 2] starts where the right formula
    meets the root of f~_{M(101^inf)}."""
    u = (rewrite("M", "01"), rewrite("M", "0"))
    v = (rewrite("M", "10"), rewrite("M", "1"))
    left_end = _bisect(lambda x: equation("f", *u, x, _k_left(x)), 1.5, 1.75)
    right_start = _bisect(lambda x: equation("ft", *v, x, _k_right(x)), 1.75, 2.0)
    return left_end, right_start


def k_closed(q0: float, margin: float = 1e-6):
    """(value, node, case) of K(q0) on a root formula cell, else None."""
    left_end, right_start = k_root_cells()
    if 1.5 + margin < q0 < left_end - margin:
        return _k_left(q0), "", "LeftFormula"
    if right_start + margin < q0 < 2.0 - margin:
        return _k_right(q0), "", "RightFormula"
    return None


def g_chain(q0: float, g: float, slack: float) -> bool:
    """max(1/(q0+1), 1/(G+1)) <= (q0-1)(G-1) <= 1/2, widened by slack."""
    pg = (q0 - 1) * (g - 1)
    return max(1 / (q0 + 1), 1 / (g + 1)) - slack <= pg <= 0.5 + slack


def chain(q0: float, g: float, k: float, slack: float) -> bool:
    """The G part above and 1/2 <= (q0-1)(K-1) < min(q0/(q0+1), K/(K+1))."""
    pk = (q0 - 1) * (k - 1)
    return g_chain(q0, g, slack) and 0.5 - slack <= pk < min(q0 / (q0 + 1), k / (k + 1)) + slack


# ----------------------------------------------------------------------
# Komornik-Loreti constant and the univoque regions
# ----------------------------------------------------------------------


def thue_morse(i: int) -> int:
    return bin(i).count("1") & 1


@lru_cache(maxsize=None)
def komornik_loreti_constant() -> float:
    """The q in (1, 2) with sum_{i>=1} t_i q^-i = 1, t the Thue-Morse
    sequence 1101 0011 ...; the series decreases in q."""
    terms = [thue_morse(i) for i in range(1, 240)]

    def excess(q):
        return sum(t * q ** -i for i, t in enumerate(terms, 1)) - 1

    return _bisect(excess, 1.7, 1.9)


def univoque_region(q0: float, q1: float, margin: float = 1e-6):
    """Label of the univoque set decided without the critical maps, or
    None when the pair is not in a decidable region.

    Irregular pairs give the full shift.  On the diagonal the golden
    ratio and the Komornik-Loreti constant separate trivial, countable
    and positive entropy (Glendinning-Sidorov).  Off it the product
    bounds place q1 below G or above K.
    """
    if q0 + q1 < q0 * q1:
        return "PositiveEntropy"
    if q0 == q1:
        qkl = komornik_loreti_constant()
        if q0 < PHI - margin:
            return "Trivial"
        if PHI + margin < q0 < qkl - margin:
            return "CountableNontrivial"
        if q0 > qkl + margin:
            return "PositiveEntropy"
        return None
    prod = (q0 - 1) * (q1 - 1)
    if prod < max(1 / (q0 + 1), 1 / (q1 + 1)) - margin:
        return "Trivial"  # q1 < G(q0): the lower product bound fails at q1
    if prod > q0 / (q0 + 1) + margin:
        return "PositiveEntropy"  # q1 > K(q0): the upper bound fails at q1
    return None
