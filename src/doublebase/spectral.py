"""Sofic presentation of Omega_{a,b}, topological entropy, and Hausdorff
dimension lower bounds for the value set of unique expansions.

A word lies in Omega_{a,b} iff every suffix starting 0 is <= a and every
suffix starting 1 is >= b.  Reading letters left to right, the automaton
state is the pair of sets of open comparison positions inside a and
inside b (subset construction); positions beyond the preperiod wrap
modulo the period, so the state space is finite.  Strictly resolved
comparisons retire, violations reject.  Entropy is the log Perron root
of the live part, computed per strongly connected component by power
iteration (the +identity shift makes each component primitive).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .config import Config, resolve
from .critical import komornik_loreti
from .expansions import expansion_bounds, hole, quasi_greedy, quasi_lazy, regular
from .solvers import PreconditionError, bracket_root, expand_upper
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
        """Moore partition refinement over the live part."""
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
        remap = {cls_of[s]: i for i, s in enumerate(order)}
        states = [self.states[s] for s in order]
        transitions = []
        for s in order:
            row = {}
            for c, t in self.transitions[s].items():
                if t in self.live:
                    row[c] = remap[cls_of[t]]
            transitions.append(row)
        out = SubshiftAutomaton(states, transitions, frozenset(range(n_classes)), self.a, self.b)
        if 0 in self.live:
            # keep the start state first
            start = remap[cls_of[0]]
            if start != 0:
                perm = list(range(n_classes))
                perm[0], perm[start] = perm[start], perm[0]
                inv = {old: new for new, old in enumerate(perm)}
                out = SubshiftAutomaton(
                    [states[p] for p in perm],
                    [{c: inv[t] for c, t in transitions[p].items()} for p in perm],
                    frozenset(range(n_classes)),
                    self.a,
                    self.b,
                )
        return out

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


def _strongly_connected_components(adj: list[list[int]]) -> list[list[int]]:
    # iterative Tarjan
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for j in range(pi, len(adj[v])):
                u = adj[v][j]
                if index[u] == -1:
                    work[-1] = (v, j + 1)
                    work.append((u, 0))
                    advanced = True
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp.append(u)
                    if u == v:
                        break
                sccs.append(comp)
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sccs


def _perron_root(m: np.ndarray, tol: float) -> float:
    """Dominant eigenvalue of a nonnegative irreducible matrix by power
    iteration on m + I (primitive, so the iteration converges)."""
    n = m.shape[0]
    b = m + np.eye(n)
    v = np.ones(n)
    lam = 0.0
    for _ in range(200000):
        w = b @ v
        nl = float(w.max())
        if nl == 0.0:
            return 0.0
        w /= nl
        if np.max(np.abs(w - v)) < tol and abs(nl - lam) < tol * max(nl, 1.0):
            return nl - 1.0
        lam, v = nl, w
    return lam - 1.0


def entropy(m: SubshiftAutomaton, tol: float = 1e-12) -> float:
    """Topological entropy: log of the largest per-component Perron root
    of the live transition counts (0 when no component grows)."""
    mat, order = m.trimmed_matrix()
    if len(order) == 0:
        return 0.0
    adj = [[j for j in range(len(order)) if mat[i, j] > 0] for i in range(len(order))]
    best = 1.0
    for comp in _strongly_connected_components(adj):
        sub = mat[np.ix_(comp, comp)]
        if len(comp) == 1 and sub[0, 0] == 0:
            continue  # transient singleton
        best = max(best, _perron_root(sub, tol))
    return math.log(best)


# ----------------------------------------------------------------------
# block-entropy estimate from truncated expansion bounds
# ----------------------------------------------------------------------


def entropy_estimate(q0: float, q1: float, digits: int = 48, tol: float = 1e-12) -> float:
    """Entropy of Omega for the periodized length-`digits` truncations of
    the expansion bounds a_{q0,q1}, b_{q0,q1}.

    Exact on the truncated system; approaches h(U_{q0,q1}) as digits grow
    (entropy is continuous in the bounds).  Truncations need not stay
    sup0/inf1-fixed, which the subset construction does not require.
    """
    left, right = hole(Fraction(q0), Fraction(q1))
    ra = quasi_greedy(q0, q1, left, digits)
    rb = quasi_lazy(q0, q1, right, digits)
    a, b = Word("", ra.digits), Word("", rb.digits)
    return entropy(build_automaton(a, b, validate=False), tol)


# ----------------------------------------------------------------------
# iterated-function-system dimension
# ----------------------------------------------------------------------


def _moran_exponent(log_r0: float, log_r1: float, tol: float) -> float:
    # unique s > 0 with exp(s log r0) + exp(s log r1) = 1, log r < 0
    def F(s):
        return math.exp(s * log_r0) + math.exp(s * log_r1) - 1.0

    lo, hi = bracket_root(F, 0.0, expand_upper(F, 1.0), tol)
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
    if bb == BR_L:
        # b < wM(1 0^inf): find minimal k with b < w(1 (0(01)^k)^inf)
        for k in range(0, 64):
            marker = apply(w, Word("1", "0" + "01" * k))
            if compare(b, marker, digits) == -1:
                g0 = image_string(w, "0" + "01" * k)
                g1 = image_string(w, "0" + "01" * (k + 1))
                return _generator_dimension(q0, q1, g0, g1)
        raise ArithmeticError("no separating marker word found; raise digits")
    if ba == BR_R:
        # reflected construction: a > wM(0 1^inf) side
        for k in range(0, 64):
            marker = apply(w, Word("0", "1" + "10" * k))
            if compare(a, marker, digits) == 1:
                g0 = image_string(w, "1" + "10" * k)
                g1 = image_string(w, "1" + "10" * (k + 1))
                return _generator_dimension(q0, q1, g0, g1)
        raise ArithmeticError("no separating marker word found; raise digits")
    raise ArithmeticError(f"unexpected split branches ({ba}, {bb})")


def _generator_dimension(q0, q1, g0, g1):
    log_r0 = -(g0.count("0") * math.log(q0) + g0.count("1") * math.log(q1))
    log_r1 = -(g1.count("0") * math.log(q0) + g1.count("1") * math.log(q1))
    return _moran_exponent(log_r0, log_r1, 1e-12)
