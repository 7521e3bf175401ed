"""Brute-force ground truth at desk scale.

block_count enumerates candidate blocks letter by letter, carrying the
raw comparison frontiers against a and b, and only counts words that
both never violate a constraint and admit an infinite continuation.  It
shares no code with the automaton module on purpose: agreement of the
two routes is one of the acceptance checks.

brute_classify fits the growth of A_n.  Countable survivor sets grow
polynomially (degree up to the directive depth), positive-entropy ones
exponentially; on the whole eventually-periodic test corpus with
complexity <= 4 per side the measured per-step growth rates are <= 1.14
versus >= 1.23, so the rate threshold 1.185 separates them with margin
on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .expansions import _to_fraction
from .series import pi
from .words import Word, shift

MAX_BLOCK_LEN = 22
SUBEXP_RATE_THRESHOLD = 1.185  # per-step growth (A_N / A_{N-4})^(1/4)


def _frontier_stepper(a: Word, b: Word):
    """Transition function on (a-frontier, b-frontier) pairs.

    A frontier entry is the index of the next letter of a (resp. b) that
    an open suffix comparison will meet; indices past the preperiod are
    reduced modulo the period.  Returns None on a violated constraint.
    """
    la, qa = len(a.pre), len(a.per)
    lb, qb = len(b.pre), len(b.per)

    def wrap_a(i):
        return i if i < la else la + (i - la) % qa

    def wrap_b(i):
        return i if i < lb else lb + (i - lb) % qb

    def step(state, c):
        fa, fb = state
        nfa, nfb = [], []
        for i in fa:
            x = a.letter(i)
            if c > x:
                return None
            if c == x:
                nfa.append(wrap_a(i + 1))
        for i in fb:
            x = b.letter(i)
            if c < x:
                return None
            if c == x:
                nfb.append(wrap_b(i + 1))
        if c == "0":
            nfa.append(wrap_a(1))
        else:
            nfb.append(wrap_b(1))
        return frozenset(nfa), frozenset(nfb)

    return step


def _frontier_graph(a: Word, b: Word, step):
    """All reachable frontier states with their admissible successors, and
    the live ones (greatest fixed point of 'has an admissible successor')."""
    init = (frozenset(), frozenset())
    graph = {}
    todo = [init]
    while todo:
        s = todo.pop()
        if s in graph:
            continue
        graph[s] = [t for c in "01" if (t := step(s, c)) is not None]
        todo.extend(t for t in graph[s] if t not in graph)
    live = set(graph)
    while True:
        dead = [s for s in live if not any(t in live for t in graph[s])]
        if not dead:
            return graph, live
        live.difference_update(dead)


def block_counts(a: Word, b: Word, n: int) -> list[int]:
    """A_1, ..., A_n for Omega_{a,b} by depth-first enumeration of the
    admissible prefix tree (pruned at dead frontiers, which can never
    recover: any continuation of a dead state is dead)."""
    if n > MAX_BLOCK_LEN:
        raise ValueError(f"oracle block counting is capped at n = {MAX_BLOCK_LEN}")
    step = _frontier_stepper(a, b)
    graph, live = _frontier_graph(a, b, step)
    succ = {s: [t for t in ts if t in live] for s, ts in graph.items() if s in live}
    counts = [0] * n
    init = (frozenset(), frozenset())
    if init not in live:
        return counts
    stack = [(init, 0)]
    while stack:
        state, depth = stack.pop()
        if depth >= n:
            continue
        for t in succ[state]:
            counts[depth] += 1
            stack.append((t, depth + 1))
    return counts


def block_count(a: Word, b: Word, n: int) -> int:
    """Number of length-n blocks occurring in elements of Omega_{a,b}."""
    return block_counts(a, b, n)[n - 1]


@dataclass(frozen=True)
class BlockCountTable:
    """A_1..A_N with basic sanity structure made explicit."""

    counts: tuple

    def __post_init__(self):
        assert self.counts[0] <= 2
        for x, y in zip(self.counts, self.counts[1:]):
            assert y <= 2 * x

    def log_convexity_violations(self) -> list[int]:
        """1-based n where A_{n+1}^2 > A_n * A_{n+2}; exponential growth
        settles into log-convexity, so violations flag transient regimes."""
        out = []
        for i in range(len(self.counts) - 2):
            if self.counts[i + 1] ** 2 > self.counts[i] * self.counts[i + 2]:
                out.append(i + 1)
        return out


def block_count_table(a: Word, b: Word, n: int) -> BlockCountTable:
    return BlockCountTable(tuple(block_counts(a, b, n)))


def brute_classify(a: Word, b: Word, n: int = 18) -> str:
    """Growth-based label: TrivialLike (A_n = 2), SubexponentialLike, or
    ExponentialLike by the per-step rate (A_n / A_{n-4})^(1/4)."""
    if n > 20:
        raise ValueError("brute_classify is capped at n = 20")
    if n < 5:
        raise ValueError("brute_classify needs n >= 5")
    counts = block_counts(a, b, n)
    if counts[-1] == 2:
        return "TrivialLike"
    rate = (counts[-1] / counts[-5]) ** 0.25
    return "SubexponentialLike" if rate < SUBEXP_RATE_THRESHOLD else "ExponentialLike"


def verify_membership(q0, q1, u: Word, n: int | None = None, tol: float = 0.0) -> str:
    """Check the hole condition on the orbit of u: u is a unique
    expansion iff no shifted value lands in [1/q1, 1/(q0(q1-1))].

    Exact rational arithmetic on every finite input (int, float,
    Fraction, Decimal or mpf, converted by expansions._to_fraction);
    returns 'In', 'Out', or 'Boundary' when some orbit point sits within
    tol of (or exactly on) a hole endpoint.
    """
    if not (1 < q0 < math.inf and 1 < q1 < math.inf):
        raise ValueError(f"bases ({q0}, {q1}) must be finite and exceed 1")
    if n is not None and n < 1:
        raise ValueError(f"need at least one shift to check, got {n}")
    q0, q1 = _to_fraction(q0), _to_fraction(q1)
    left = 1 / q1
    right = 1 / (q0 * (q1 - 1))
    if n is None:
        n = len(u.pre) + len(u.per)
    n = min(n, len(u.pre) + len(u.per))  # orbit repeats afterwards
    boundary = False
    for j in range(n):
        val = pi(q0, q1, shift(u, j))
        if abs(val - left) <= tol or abs(val - right) <= tol:
            boundary = True
        elif left < val < right:
            return "Out"
    return "Boundary" if boundary else "In"
