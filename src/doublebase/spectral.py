"""Sofic presentation of Omega_{a,b}, topological entropy, and Hausdorff
dimension lower bounds for the value set of unique expansions.

A word lies in Omega_{a,b} iff every suffix starting 0 is <= a and every
suffix starting 1 is >= b.  Reading letters left to right, the automaton
state is the pair of sets of open comparison positions inside a and
inside b (subset construction); positions beyond the preperiod wrap
modulo the period, so the state space is finite.  Strictly resolved
comparisons retire, violations reject.  Entropy is the log of the
largest Perron root over the strongly connected components of the live
part, each found from a boolean reachability closure; a one-state
component's root is its loop count, a larger one's comes from numpy's
`eigvals`.
"""

from __future__ import annotations

import math

import numpy as np

from .config import Config, resolve
from .critical import komornik_loreti
from .expansions import expansion_bounds, regular
from .solvers import PreconditionError, _step_out
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


class SubshiftAutomaton:
    """Deterministic presentation of the factor language of Omega_{a,b}.

    states[0] is the empty-constraint start state; `live` marks states
    with an infinite continuation.  Length-n paths from the start ending
    in live states biject with the n-blocks of Omega_{a,b}.
    """

    def __init__(self, states, transitions, live, a: Word, b: Word):
        self.states = states          # list of (frozenset, frozenset)
        self.transitions = transitions  # list of {letter: state index}
        self.live = live              # frozenset of live state indices
        self.a, self.b = a, b

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, a: Word, b: Word, validate: bool = True) -> "SubshiftAutomaton":
        if validate:
            if sup0(a) != a:
                raise PreconditionError(f"a = {a} is not sup0-fixed")
            if inf1(b) != b:
                raise PreconditionError(f"b = {b} is not inf1-fixed")
        if a.letter(0) != "0" or b.letter(0) != "1":
            raise PreconditionError("need a in 0{0,1}^inf and b in 1{0,1}^inf")

        def step(state, c):
            sa, sb = state
            na, nb = [], []
            for i in sa:
                x = a.letter(i)
                if c > x:
                    return None
                if c == x:
                    na.append(_canonical_position(a, i + 1))
            for i in sb:
                x = b.letter(i)
                if c < x:
                    return None
                if c == x:
                    nb.append(_canonical_position(b, i + 1))
            if c == "0":
                na.append(_canonical_position(a, 1))
            else:
                nb.append(_canonical_position(b, 1))
            return frozenset(na), frozenset(nb)

        init = (frozenset(), frozenset())
        index = {init: 0}
        states = [init]
        transitions = [dict()]
        todo = [init]
        while todo:
            s = todo.pop()
            si = index[s]
            for c in "01":
                t = step(s, c)
                if t is None:
                    continue
                if t not in index:
                    index[t] = len(states)
                    states.append(t)
                    transitions.append(dict())
                    todo.append(t)
                transitions[si][c] = index[t]
        live = cls._live_set(transitions)
        return cls(states, transitions, frozenset(live), a, b)

    @staticmethod
    def _live_set(transitions) -> set:
        live = set(range(len(transitions)))
        changed = True
        while changed:
            changed = False
            for s in list(live):
                if not any(t in live for t in transitions[s].values()):
                    live.discard(s)
                    changed = True
        return live

    # -- derived data ----------------------------------------------------

    def trimmed_matrix(self) -> tuple[np.ndarray, list[int]]:
        """Adjacency counts over live states (entry = number of letters)."""
        order = sorted(self.live)
        pos = {s: i for i, s in enumerate(order)}
        m = np.zeros((len(order), len(order)))
        for s in order:
            for t in self.transitions[s].values():
                if t in self.live:
                    m[pos[s], pos[t]] += 1
        return m, order

    def path_count(self, n: int) -> int:
        """Number of length-n words readable from the start state that end
        in a live state; equals the block count A_n of Omega_{a,b}."""
        if 0 not in self.live:
            return 0
        counts = {0: 1}
        for _ in range(n):
            nxt: dict[int, int] = {}
            for s, k in counts.items():
                for t in self.transitions[s].values():
                    nxt[t] = nxt.get(t, 0) + k
            counts = nxt
        return sum(k for s, k in counts.items() if s in self.live)

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

    Row i of reach & reach.T, with reach the transitive closure of I + A,
    is the component of state i.  Each root comes from its component's
    own block: equal roots of chained components form Jordan blocks of
    the whole matrix, whose computed eigenvalues split by about
    eps^(1/k): whole-matrix eigenvalues read h up to 6e-4 on shuffled
    chains of zero-entropy cycles.  A component of one state is read
    exactly: its root is its diagonal entry, the state's loop count (0
    for a transient state), and only larger components call `eigvals`.
    """
    mat, _ = m.trimmed_matrix()
    n = len(mat)
    reach = (mat > 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = reach @ reach
    strong = reach & reach.T
    best = 1.0
    for i in range(n):
        comp = np.flatnonzero(strong[i])
        if comp[0] != i:  # once per component, at its first state
            continue
        if len(comp) == 1:
            root = mat[i, i]
        else:
            root = np.abs(np.linalg.eigvals(mat[np.ix_(comp, comp)])).max()
        best = max(best, float(root))
    return math.log(best)


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


def _moran_exponent(log_r0: float, log_r1: float, tol: float) -> float:
    # unique s > 0 with exp(s log r0) + exp(s log r1) = 1, log r < 0
    def F(s):
        return math.exp(s * log_r0) + math.exp(s * log_r1) - 1.0

    lo, hi = _step_out(F, 0.0, 0.0, 0.0, 1.0, tol)  # F(0) = 1 > 0
    return 0.5 * (lo + hi)


def ifs_dimension(r0: float, r1: float, tol: float = 1e-12) -> float:
    """Similarity dimension of a two-map IFS with contraction ratios
    r0, r1: the unique s with r0^s + r1^s = 1."""
    if not (0 < r0 < 1 and 0 < r1 < 1):
        raise ValueError("contraction ratios must lie in (0, 1)")
    return _moran_exponent(math.log(r0), math.log(r1), tol)


def univoque_dimension_lower_bound(q0: float, q1: float,
                                   digits: int = 4000, max_depth: int = 64,
                                   config: Config | None = None) -> float:
    """A positive lower bound for the Hausdorff dimension of the set of
    values with unique (q0, q1)-expansion, valid for q1 > K(q0).

    The split node sigma of the expansion-bound descent yields two words
    sigma(0(01)^k), sigma(0(01)^{k+1}) (or their reflections) whose
    free concatenations are all unique expansions; their value set is
    self-similar with the open set condition, so its dimension is the
    Moran exponent of the two contraction ratios q0^-zeros q1^-ones.
    """
    cfg = resolve(config)
    if not regular(q0, q1):
        # every expansion is unique; use the unconstrained generator pair
        return _generator_dimension(q0, q1, "0", "001")
    kres = komornik_loreti(q0, config=cfg)
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
            return _generator_dimension(q0, q1, image_string(w, tail), image_string(w, tail + c + d))
    raise ArithmeticError("no separating marker word found; raise digits")


def _generator_dimension(q0, q1, g0, g1):
    log_r0 = -(g0.count("0") * math.log(q0) + g0.count("1") * math.log(q1))
    log_r1 = -(g1.count("0") * math.log(q0) + g1.count("1") * math.log(q1))
    return _moran_exponent(log_r0, log_r1, 1e-12)
