"""Sofic presentation of Omega_{a,b}, topological entropy, and Hausdorff
dimension lower bounds for the value set of unique expansions.

A word lies in Omega_{a,b} iff every suffix starting 0 is <= a and every
suffix starting 1 is >= b.  Reading letters left to right, the automaton
state is the pair of sets of open comparison positions inside a and
inside b (subset construction), each an int bitmask over the word's
canonical positions; positions beyond the preperiod wrap modulo the
period, so the state space is finite.  Strictly resolved comparisons
retire, violations reject, and the open ones advance by one left
shift.  Entropy is the log of the largest Perron root over the strongly
connected components of the live part, found from reachability bitsets
(one int per state); a one-state component's root is its loop count, a
larger one's comes from Newton's method on its characteristic
polynomial, from a Collatz-Wielandt upper bound down to the root.

Dimensions are Moran exponents, bracketed by solvers.solve_decreasing:
a float search, and signs that no float proves, each a 30-digit decimal
sign (Decimal.ln and Decimal.exp in a decimal context of
config.precision digits); below tol 1e-13 the bracket's ends are
Decimal.
"""

from __future__ import annotations

import math
from dataclasses import replace
from decimal import Decimal, localcontext

from .config import DEFAULT, Config
from .critical import komornik_loreti
from .expansions import expansion_bounds, regular
from .solvers import Bracket, PreconditionError, solve_decreasing, _context, _decimal
from .substitution import BR_L, BR_R, apply, image_string, split_descent
from .words import Word, compare, sup0, inf1


# ----------------------------------------------------------------------
# subset-construction automaton
# ----------------------------------------------------------------------


def _canonical_position(word: Word, i: int) -> int:
    # positions index the next letter to compare (0-based); beyond the
    # preperiod only the residue matters
    lp, lq = len(word.pre), len(word.per)
    return i if i < lp else lp + (i - lp) % lq


def _position_masks(word: Word) -> tuple[int, int, int, int, int]:
    """Bitmasks over word's canonical positions 0 .. complexity - 1: its
    0-positions, its 1-positions, the last position, the wrap target
    1 << len(pre) that the last position advances to, and the bit of
    canonical position 1, where a new comparison starts."""
    text = word.pre + word.per
    ones = int(text[::-1], 2)  # bit i is letter i
    last = 1 << (len(text) - 1)
    return (2 * last - 1) ^ ones, ones, last, 1 << len(word.pre), 1 << _canonical_position(word, 1)


class SubshiftAutomaton:
    """Deterministic presentation of the factor language of Omega_{a,b}.

    states[0] is the empty-constraint start state; `live` marks states
    with an infinite continuation.  Length-n paths from the start ending
    in live states biject with the n-blocks of Omega_{a,b}.
    """

    def __init__(self, states, transitions, live, a: Word, b: Word):
        self.states = states          # list of (int, int): open positions of a and b, as bitmasks
        self.transitions = transitions  # list of {letter: state index}
        self.live = live              # frozenset of live state indices
        self.a, self.b = a, b

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, a: Word, b: Word, validate: bool = True) -> "SubshiftAutomaton":
        """Subset construction on position bitmasks: bit i of a state's
        mask for a (or b) is set while the comparison at canonical
        position i is open.  Reading 0, an open 1 of b rejects, open 1s
        of a retire and a comparison with a opens; reading 1, an open 0
        of a rejects, open 0s of b retire and one with b opens.  The open
        comparisons advance one position: a left shift, the last bit
        wrapping to len(pre).  States are numbered in the order a stack
        visits them, letters in the order 0, 1."""
        if validate:
            if sup0(a) != a:
                raise PreconditionError(f"a = {a} is not sup0-fixed")
            if inf1(b) != b:
                raise PreconditionError(f"b = {b} is not inf1-fixed")
        if a.letter(0) != "0" or b.letter(0) != "1":
            raise PreconditionError("need a in 0{0,1}^inf and b in 1{0,1}^inf")
        zeros_a, _, last_a, wrap_a, one_a = _position_masks(a)
        _, ones_b, last_b, wrap_b, one_b = _position_masks(b)
        keep_a, keep_b = last_a - 1, last_b - 1  # every position but the last

        init = (0, 0)
        index = {init: 0}
        states = [init]
        transitions = [{}]
        todo = [init]
        while todo:
            s = todo.pop()
            sa, sb = s
            row = transitions[index[s]]
            steps = []
            if not sb & ones_b:  # reading 0
                m = sa & zeros_a
                steps.append(("0", ((m & keep_a) << 1 | (wrap_a if m & last_a else 0) | one_a,
                                    (sb & keep_b) << 1 | (wrap_b if sb & last_b else 0))))
            if not sa & zeros_a:  # reading 1
                m = sb & ones_b
                steps.append(("1", ((sa & keep_a) << 1 | (wrap_a if sa & last_a else 0),
                                    (m & keep_b) << 1 | (wrap_b if m & last_b else 0) | one_b)))
            for c, t in steps:
                i = index.get(t)
                if i is None:
                    i = index[t] = len(states)
                    states.append(t)
                    transitions.append({})
                    todo.append(t)
                row[c] = i
        return cls(states, transitions, cls._live_set(transitions), a, b)

    @staticmethod
    def _live_set(transitions) -> frozenset:
        """The states with an infinite continuation: one peel of the states
        whose successors are all dead, each edge counted down once over the
        predecessor lists (an edge per letter, so a state both letters
        reach is counted twice); a state is live iff edges are left."""
        out = [len(row) for row in transitions]
        preds = [[] for _ in transitions]
        for s, row in enumerate(transitions):
            for t in row.values():
                preds[t].append(s)
        dead = [s for s, k in enumerate(out) if not k]
        for t in dead:  # grows as states die
            for s in preds[t]:
                out[s] -= 1
                if not out[s]:
                    dead.append(s)
        return frozenset(s for s, k in enumerate(out) if k)

    # -- derived data ----------------------------------------------------

    def path_count(self, n: int) -> int:
        """Number of length-n words readable from the start state that end
        in a live state; equals the block count A_n of Omega_{a,b}.  A dead
        state reaches no live one, so each step keeps live states only."""
        live = self.live
        counts = {0: 1} if 0 in live else {}
        for _ in range(n):
            nxt: dict[int, int] = {}
            for s, k in counts.items():
                for t in self.transitions[s].values():
                    if t in live:
                        nxt[t] = nxt.get(t, 0) + k
            counts = nxt
        return sum(counts.values())

    def minimized(self) -> "SubshiftAutomaton":
        """Moore partition refinement over the live part.  Classes are
        numbered by their first live state, so a live start state 0 stays
        state 0."""
        live = sorted(self.live)
        if not live:
            return self
        cls_of = {s: 0 for s in live}
        n_classes = 1
        while True:
            sigs = {}
            new_cls = {}
            for s in live:
                sig = tuple(
                    cls_of.get(self.transitions[s].get(c, -1), -1) for c in "01"
                )
                key = (cls_of[s], sig)
                if key not in sigs:
                    sigs[key] = len(sigs)
                new_cls[s] = sigs[key]
            if len(sigs) == n_classes:
                break
            n_classes = len(sigs)
            cls_of = new_cls
        reps = {}
        for s in live:
            reps.setdefault(cls_of[s], s)
        order = [reps[c] for c in range(n_classes)]
        states = [self.states[s] for s in order]
        transitions = []
        for s in order:
            row = {}
            for c, t in self.transitions[s].items():
                if t in self.live:
                    row[c] = cls_of[t]
            transitions.append(row)
        return SubshiftAutomaton(states, transitions, frozenset(range(n_classes)), self.a, self.b)

    def dump_lines(self) -> list[str]:
        lines = []
        for s in sorted(self.live):
            for c, t in sorted(self.transitions[s].items()):
                if t in self.live:
                    lines.append(f"{s} {c} -> {t}")
        return lines

    def __len__(self):
        return len(self.states)


def build_automaton(a: Word, b: Word, validate: bool = True) -> SubshiftAutomaton:
    return SubshiftAutomaton.build(a, b, validate)


# ----------------------------------------------------------------------
# entropy
# ----------------------------------------------------------------------


def entropy(m: SubshiftAutomaton) -> float:
    """Topological entropy: log of the largest Perron root over the
    strongly connected components of the live transition counts, 0 when
    no component grows (Lind and Marcus 1995, section 4.4).

    Each live state's reach set is a bitset (bit t for state t), grown
    over the live successors until nothing changes; two states lie in
    one component iff their reach sets are equal.  Each root comes from
    its component's own block: equal roots of chained components are a
    multiple root of the whole matrix's characteristic polynomial, which
    no float method reads to the last bits (computed eigenvalues split
    by about eps^(1/k)).  A component of one state is read exactly: its
    root is its loop count (0 for a transient state); a larger one's
    comes from `_perron_root`.
    """
    live = sorted(m.live)
    succ = {s: [t for t in m.transitions[s].values() if t in m.live] for s in live}
    reach = {s: 1 << s for s in live}
    changed = True
    while changed:
        changed = False
        for s in reversed(live):  # successors are mostly found later
            r = reach[s]
            for t in succ[s]:
                r |= reach[t]
            changed |= r != reach[s]
            reach[s] = r
    comps: dict[int, list[int]] = {}
    for s in live:
        comps.setdefault(reach[s], []).append(s)
    best = 1.0
    for comp in comps.values():
        if len(comp) == 1:
            best = max(best, succ[comp[0]].count(comp[0]))
            continue
        # last found first: the early states that many others return to
        # are eliminated last, where they fill in little
        comp.reverse()
        local = {t: k for k, t in enumerate(comp)}
        best = max(best, _perron_root([[local[u] for u in succ[t] if u in local] for t in comp]))
    return math.log(best)


def _perron_root(rows: list[list[int]]) -> float:
    """Perron root rho of a strongly connected block B of two or more
    states; rows[i] lists the successors of state i (twice for a state
    that both letters reach).

    Newton's method on p(x) = det(xI - B), from above.  It starts at the
    Collatz-Wielandt bound max_i (Bv)_i / v_i >= rho for the integer
    vector v = (I + B)^k 1, k = n // 2, which tightens with k even on a
    periodic block, since I + B is primitive.  By Gauss-Lucas every root
    of p' and p'' has real part at most rho, so p is increasing and
    convex on (rho, inf) and the iterates fall monotonically to rho.  The
    loop stops when an iterate no longer decreases or the elimination
    finds x <= rho; a pure cycle starts at its root 1.
    """
    v = [1] * len(rows)
    for _ in range(len(rows) // 2):
        v = [vi + sum(v[j] for j in row) for vi, row in zip(v, rows)]
    x = max(sum(v[j] for j in row) / vi for vi, row in zip(v, rows))
    while True:
        s = _log_det_slope(rows, x)
        if not s or (nxt := x - 1 / s) >= x:
            return x
        x = nxt


def _log_det_slope(rows: list[list[int]], x: float) -> float | None:
    """p'(x)/p(x) for p(x) = det(xI - B), or None when x <= rho.

    Gaussian elimination of xI - B on dict rows, each entry a pair of its
    value and its d/dx: det is the product of the pivots, so p'/p is the
    sum of pivot'/pivot.  For x > rho, xI - B is a nonsingular M-matrix,
    whose pivots are positive without pivoting; so a pivot that is not
    positive means x <= rho.
    """
    a = []
    for i, row in enumerate(rows):
        r = {i: (x, 1.0)}
        for j in row:
            v, d = r.get(j, (0.0, 0.0))
            r[j] = (v - 1.0, d)
        a.append(r)
    slope = 0.0
    for k, pivot_row in enumerate(a):
        p, dp = pivot_row.pop(k)
        if p <= 0:
            return None
        slope += dp / p
        for r in a[k + 1:]:
            if k in r:
                e, de = r.pop(k)
                f = e / p
                df = (de - f * dp) / p
                for j, (u, du) in pivot_row.items():
                    v, dv = r.get(j, (0.0, 0.0))
                    r[j] = (v - f * u, dv - df * u - f * du)
    return slope


# ----------------------------------------------------------------------
# block-entropy estimate from truncated expansion bounds
# ----------------------------------------------------------------------


def entropy_estimate(q0: float, q1: float, digits: int = 48) -> float:
    """Entropy of Omega for the periodized length-`digits` truncations of
    the expansion bounds a_{q0,q1}, b_{q0,q1}.

    Exact on the truncated system; approaches h(U_{q0,q1}) as digits grow
    (entropy is continuous in the bounds).  Truncations need not stay
    sup0/inf1-fixed, which the subset construction does not require.
    """
    a, b = (Word("", bound.prefix(digits)) for bound in expansion_bounds(q0, q1))
    return entropy(build_automaton(a, b, validate=False))


# ----------------------------------------------------------------------
# iterated-function-system dimension
# ----------------------------------------------------------------------


def _moran_exponent(logs, tol: float, dps: int) -> Bracket:
    """The root s > 0 of r0^s + r1^s = 1 (Moran 1946), strictly
    decreasing in s, by solvers.solve_decreasing; logs(log) is the pair
    log r0, log r1 < 0 by the log given: math.log for the float search,
    Decimal.ln for the signs in a decimal context of dps digits (no sign
    is proven in floats)."""
    def F(s, log=math.log, exp=math.exp):
        log_r0, log_r1 = logs(log)
        return exp(s * log_r0) + exp(s * log_r1) - 1

    def sign(s, dps):
        if dps is None:
            return 0.0
        with localcontext(_context(dps)):
            return F(_decimal(s), lambda x: _decimal(x).ln(), Decimal.exp)

    return solve_decreasing(F, sign, 0.0, (0.0, 0.0, 1.0), tol, dps)  # F(0) = 1 > 0


def ifs_dimension(r0: float, r1: float, tol: float = 1e-12) -> float:
    """Similarity dimension of a two-map IFS with contraction ratios
    r0, r1: the unique s with r0^s + r1^s = 1, the midpoint of its
    bracket as a float; tol is checked by Config's rule."""
    if not (0 < r0 < 1 and 0 < r1 < 1):
        raise ValueError("contraction ratios must lie in (0, 1)")
    tol = replace(DEFAULT, tol=tol).tol
    return float(_moran_exponent(lambda log: (log(r0), log(r1)), tol, DEFAULT.precision).mid)


def univoque_dimension_lower_bound(q0: float, q1: float,
                                   digits: int = 4000, max_depth: int = 64,
                                   config: Config = DEFAULT) -> float:
    """A positive lower bound for the Hausdorff dimension of the set of
    values with unique (q0, q1)-expansion, valid for q1 > K(q0).

    The split node sigma of the expansion-bound descent yields two words
    sigma(0(01)^k), sigma(0(01)^{k+1}) (or their reflections) whose
    free concatenations are all unique expansions; their value set is
    self-similar with the open set condition, so its dimension is the
    Moran exponent of the two contraction ratios q0^-zeros q1^-ones.
    The bound returned is the lower end of the exponent's bracket,
    proven below it by a sign at config.precision digits.
    """
    if max_depth < 1 or digits < 1:
        raise ValueError("max_depth and digits must be at least 1")
    if not regular(q0, q1):
        # every expansion is unique; use the unconstrained generator pair
        return _generator_dimension(q0, q1, "0", "001", config.precision)
    kres = komornik_loreti(q0, config=config)
    if q1 <= kres.value.hi:
        raise PreconditionError(
            f"q1 = {q1} is not above K(q0) = {kres.value}; no positive bound available"
        )
    a, b = expansion_bounds(q0, q1)
    order, w, ba, bb = split_descent(a, b, max_depth)
    if order != ">":
        raise ArithmeticError("descent did not certify s(a) > s(b); raise depth/digits")
    # b < wM(1 0^inf): the minimal k with b < w(1 (0(01)^k)^inf); or,
    # reflected, a > wM(0 1^inf): the minimal k with a > w(0 (1(10)^k)^inf)
    if bb == BR_L:
        word, c, d, want = b, "0", "1", -1
    elif ba == BR_R:
        word, c, d, want = a, "1", "0", 1
    else:
        raise ArithmeticError(f"unexpected split branches ({ba}, {bb})")
    for k in range(0, 64):
        tail = c + (c + d) * k
        if compare(word, apply(w, Word(d, tail)), digits) == want:
            return _generator_dimension(q0, q1, image_string(w, tail), image_string(w, tail + c + d),
                                        config.precision)
    raise ArithmeticError("no separating marker word found; raise digits")


def _generator_dimension(q0, q1, g0, g1, dps: int) -> float:
    """The proven lower end of the Moran exponent of the two words' value
    maps, with contraction ratios q0^-zeros q1^-ones."""
    counts = [(g.count("0"), g.count("1")) for g in (g0, g1)]
    return _moran_exponent(lambda log: tuple(-(z * log(q0) + o * log(q1)) for z, o in counts),
                           1e-12, dps).lo
