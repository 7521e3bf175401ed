"""The benchmark workloads: inputs made from a seed, the timed public
calls of one round, and the checks of their outputs.

A round runs in a fresh interpreter (see round.py).  Each workload has
three phases: `setup` (untimed, counted in setup_s), `run` (the timed
calls, one Op each) and `check` (after the timer stops).  Checks compare
against refs.py, which imports nothing from doublebase, against
doublebase.oracle, which shares no code with the automaton or the s-map,
and against properties the paper proves.
"""

from __future__ import annotations

import itertools
import math
import random
from time import monotonic

import refs


class Op:
    """One timed public call and the verdict on its output."""

    __slots__ = ("kind", "args", "out", "error", "start", "seconds", "failure", "wrong")

    def __init__(self, kind, args, out, error, start, seconds):
        self.kind, self.args, self.out, self.error = kind, args, out, error
        self.start, self.seconds = start, seconds  # time.monotonic() clock
        self.failure = error   # first reason the operation counts as failed
        self.wrong = False     # failed a check on its output

    def fail(self, reason: str, wrong: bool = True):
        if self.failure is None:
            self.failure = reason
        self.wrong = self.wrong or wrong

    def expect(self, ok, reason: str):
        if not ok:
            self.fail(f"{self.kind}{self.args}: {reason}")


class Ops(list):
    def call(self, kind: str, fn, *args, **kwargs) -> Op:
        t0 = monotonic()
        try:
            out, error = fn(*args, **kwargs), None
        except Exception as exc:  # a raising call is a failed operation
            out, error = None, f"{kind}{args}: {type(exc).__name__}: {exc}"
        op = Op(kind, args, out, error, t0, monotonic() - t0)
        self.append(op)
        return op


def bracket(out):
    """(lo, hi) of a returned bracket or critical result, else None."""
    value = getattr(out, "value", out)
    if hasattr(value, "lo") and hasattr(value, "hi"):
        return float(value.lo), float(value.hi)
    return None


def fingerprint(op: Op) -> str:
    """Canonical text of an operation's outcome, equal across rounds
    exactly when the library returned the same thing."""
    b = bracket(op.out)
    if b is not None:
        case = getattr(op.out, "case", None)
        out = (b, getattr(op.out, "node", None), getattr(case, "value", None))
    elif hasattr(op.out, "transitions"):  # an automaton: its state graph
        out = (len(op.out.states), op.out.transitions)
    else:
        out = op.out
    return repr((op.kind, op.error, out))


def stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform point in each of n equal strata of [lo, hi]: seeded
    inputs whose coverage, and so whose cost, barely moves with the seed."""
    step = (hi - lo) / n
    return [lo + (i + rng.random()) * step for i in range(n)]


# ----------------------------------------------------------------------
# checks shared by the numeric workloads
# ----------------------------------------------------------------------


def finite(op: Op) -> bool:
    """Mark raised calls and non-finite brackets as failed (not wrong)."""
    if op.error is not None:
        return False
    b = bracket(op.out)
    if b is None or not all(math.isfinite(x) for x in b) or b[0] > b[1]:
        op.fail(f"{op.kind}{op.args}: non-finite bracket {op.out}", wrong=False)
        return False
    return True


def check_critical(op: Op, which: str, q0: float):
    """Closed forms on the L^k cells (G) and root cells (K), and the sign
    of the rebuilt node equation across the returned bracket."""
    r = op.out
    lo, hi = bracket(r)
    mid = 0.5 * (lo + hi)
    closed = refs.g_closed(q0) if which == "G" else refs.k_closed(q0)
    if closed is not None:
        val, node, case = closed
        op.expect(abs(mid - val) <= 1e-9 + (hi - lo), f"value {mid} != closed form {val}")
        op.expect((r.node, r.case.value) == (node, case), f"cell {r.node}/{r.case.value} != {node}/{case}")
    if r.case.value in ("LeftFormula", "RightFormula"):
        sign = refs.sign_change(which, r.case.value, r.node, q0, lo, hi)
        op.expect(sign is not False, "node equation has no sign change across the bracket")


def check_pair(g: Op, k: Op, q0: float):
    """The product chain and G <= K at one q0."""
    if g.failure or k.failure:
        return
    (glo, ghi), (klo, khi) = bracket(g.out), bracket(k.out)
    gm, km = 0.5 * (glo + ghi), 0.5 * (klo + khi)
    slack = (ghi - glo) + (khi - klo) + 1e-11
    k.expect(refs.chain(q0, gm, km, slack), "product chain violated")
    k.expect(gm <= km + slack, f"G {gm} > K {km}")


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class CurveSweep:
    """Cold rows of sample_curve(1.05, 3, 60, 'both') and kl_fixed_point().

    Each row is one public call, G or K at one q0 of sample_curve's grid,
    so every row's latency is seen.  The seed permutes the order of the
    grid points: that moves which call meets a node first and pays its
    crossing, but not the set of nodes, so the work per round stays put.
    """

    N = 60
    LO, HI = 1.05, 3.0

    def __init__(self, seed: int):
        grid = [self.LO + (self.HI - self.LO) * i / (self.N - 1) for i in range(self.N)]
        self.order = random.Random(seed).sample(grid, self.N)

    def setup(self, db):
        pass

    def run(self, db, ops: Ops):
        for q0 in self.order:
            ops.call("G", db.generalized_golden_ratio, q0)
            ops.call("K", db.komornik_loreti, q0)
        ops.call("kl", db.kl_fixed_point)

    def check(self, db, ops: Ops):
        prev = {}
        for i, q0 in sorted(enumerate(self.order), key=lambda x: x[1]):
            g, k = ops[2 * i], ops[2 * i + 1]
            for which, op in (("G", g), ("K", k)):
                if not finite(op):
                    continue
                check_critical(op, which, q0)
                mid = sum(bracket(op.out)) / 2
                if which in prev:
                    last_mid, last_w = prev[which]
                    op.expect(mid <= last_mid + last_w + 1e-11, "map increased along the grid")
                prev[which] = (mid, bracket(op.out)[1] - bracket(op.out)[0])
            check_pair(g, k, q0)
        kl = ops[-1]
        if finite(kl):
            lo, hi = bracket(kl.out)
            qkl = refs.komornik_loreti_constant()
            kl.expect(lo - 1e-9 <= qkl <= hi + 1e-9, f"{qkl} outside the fixed-point bracket")


class WarmQueries:
    """G, K and classify_univoque point queries on [1.3, 2.5], repeated.

    An untimed first pass fills the crossing cache (setup); the timed
    passes then repeat the same queries, so no crossing is solved there.
    Every fifth pair lies on the diagonal, where Glendinning-Sidorov
    thresholds decide the label independently of the library.
    """

    N = 100
    PASSES = 6

    def __init__(self, seed: int):
        rng = random.Random(seed)
        q0s = stratified(rng, 1.3, 2.5, self.N)
        q1s = stratified(rng, 1.3, 2.5, self.N)
        rng.shuffle(q1s)
        self.pairs = [(q0, q0 if i % 5 == 0 else q1) for i, (q0, q1) in enumerate(zip(q0s, q1s))]
        self.cold = Ops()

    def _pass(self, db, ops: Ops):
        for q0, q1 in self.pairs:
            ops.call("G", db.generalized_golden_ratio, q0)
            ops.call("K", db.komornik_loreti, q0)
            ops.call("U", db.classify_univoque, q0, q1)

    def setup(self, db):
        self._pass(db, self.cold)

    def run(self, db, ops: Ops):
        for _ in range(self.PASSES):
            self._pass(db, ops)

    def _label(self, db, q0, q1):
        region = refs.univoque_region(q0, q1)
        if region is not None:
            return {region}
        order = db.ks_crosscheck(q0, q1).order
        if order == ">":
            return {"PositiveEntropy"}
        if order == "<":
            return {"Trivial", "CountableNontrivial"}
        return None

    def check(self, db, ops: Ops):
        cold = self.cold
        for i, (q0, q1) in enumerate(self.pairs):
            g, k, u = cold[3 * i: 3 * i + 3]
            if finite(g):
                check_critical(g, "G", q0)
            if finite(k):
                check_critical(k, "K", q0)
            check_pair(g, k, q0)
            if u.error is None:
                allowed = self._label(db, q0, q1)
                u.expect(allowed is None or u.out.label.value in allowed,
                         f"label {u.out.label.value} outside {allowed}")
        # the timed passes must reproduce the cold pass exactly
        n = len(cold)
        for j, op in enumerate(ops):
            ref = cold[j % n]
            if ref.failure:
                op.fail(ref.failure, ref.wrong)
            elif op.error is None:
                if op.kind == "U":
                    same = op.out.label == ref.out.label
                else:
                    same = (bracket(op.out), op.out.node) == (bracket(ref.out), ref.out.node)
                op.expect(same, "warm result differs from the cold one")


class DeepSpine:
    """Far bases on the R spine at max_depth=100, their mirrors G(G(q0))
    on the L spine near 1, and G(1.01) at the default depth.

    The cost grows with directive depth.  G(1.01) returns [36.09, inf]
    (the all-L walk never sets an upper bound); it fails every round, on
    an input that does not depend on the seed.
    """

    BASES = (6.0, 10.0, 16.0)
    DEPTH = 100
    NEAR_ONE = 1.01

    def __init__(self, seed: int):
        rng = random.Random(seed)
        # the jitter keeps each base inside one R^k formula cell
        self.bases = [q * (1 + 1e-4 * rng.random()) for q in self.BASES]

    def setup(self, db):
        pass

    def run(self, db, ops: Ops):
        for q0 in self.bases:
            far = ops.call("G", db.generalized_golden_ratio, q0, max_depth=self.DEPTH)
            if far.error is None:
                ops.call("G", db.generalized_golden_ratio, far.out.value.mid, max_depth=self.DEPTH)
            else:
                ops.append(Op("G", ("mirror",), None, f"no mirror: {far.error}", monotonic(), 0.0))
        ops.call("G", db.generalized_golden_ratio, self.NEAR_ONE)

    def check(self, db, ops: Ops):
        swap = {"LeftFormula": "RightFormula", "RightFormula": "LeftFormula"}
        for i, q0 in enumerate(self.bases):
            far, mirror = ops[2 * i], ops[2 * i + 1]
            if not (finite(far) and finite(mirror)):
                continue
            x = sum(bracket(far.out)) / 2
            for op, at in ((far, q0), (mirror, x)):
                check_critical(op, "G", at)
                lo, hi = bracket(op.out)
                op.expect(refs.g_chain(at, 0.5 * (lo + hi), 1e-11 + hi - lo), "product bound violated")
            back = sum(bracket(mirror.out)) / 2
            mirror.expect(abs(back - q0) <= 1e-8 * q0, f"G(G({q0})) = {back}")
            closed = refs.g_closed(x)
            if closed is not None:
                val, node, case = closed
                far.expect(abs(val - q0) <= 1e-8 * q0, f"closed form at G({q0}) gives {val}")
                far.expect((far.out.node, far.out.case.value) == (node.replace("L", "R"), swap[case]),
                           f"cell {far.out.node}/{far.out.case.value} is not the mirror of {node}/{case}")
        near, closed = ops[-1], refs.g_closed(self.NEAR_ONE)
        if finite(near) and closed is not None:
            lo, hi = bracket(near.out)
            near.expect(lo - 1e-9 <= closed[0] <= hi + 1e-9, f"closed form {closed[0]} outside the bracket")


class Symbolic:
    """Classifiers over the complexity-5 corpus, automata over the
    complexity-4 corpus, s-maps of limit words and a q1 line at q0 = 1.9.

    No crossing is solved here, so numeric changes should not move it.
    The seed orders the corpus pairs and places the q1 points.
    """

    DIRECTIVES = ("(M)", "(LR)", "(RL)", "(LMR)", "(RRL)", "L(MR)", "(LLM)")
    SMAP_DEPTH = 16
    Q0 = 1.9
    LINE = (1.45, 1.85, 24)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.line = stratified(self.rng, *self.LINE)

    def setup(self, db):
        a5, b5 = self._corpus(db, "0", 5), self._corpus(db, "1", 5)
        self.pairs5 = list(itertools.product(a5, b5))
        self.rng.shuffle(self.pairs5)
        self.pairs4 = [(a, b) for a, b in self.pairs5 if a.complexity <= 4 and b.complexity <= 4]
        self.limits = [(d, db.limit_word(db.parse_directive(d), s)) for d in self.DIRECTIVES for s in "01"]

    @staticmethod
    def _corpus(db, first: str, max_complexity: int):
        seen = set()
        for total in range(1, max_complexity + 1):
            for lp in range(total):
                for pre in itertools.product("01", repeat=lp):
                    for per in itertools.product("01", repeat=total - lp):
                        w = db.Word("".join(pre), "".join(per))
                        if w.complexity <= max_complexity and w.letter(0) == first:
                            seen.add(w)
        return sorted(seen, key=str)

    def run(self, db, ops: Ops):
        for a, b in self.pairs5:
            ops.call("omega", db.classify_omega, a, b)
        for a, b in self.pairs5:
            ops.call("sigma", db.classify_sigma, a, b)
        for a, b in self.pairs4:
            m = ops.call("automaton", db.build_automaton, a, b, validate=False).out
            if m is not None:
                ops.call("entropy", db.entropy, m)
                ops.call("paths", m.path_count, 14)
        for _, u in self.limits:
            ops.call("s_map", db.s_map, u, self.SMAP_DEPTH)
        for q1 in self.line:
            ops.call("ks", db.ks_crosscheck, self.Q0, q1)
            ops.call("entropy_estimate", db.entropy_estimate, self.Q0, q1)

    def check(self, db, ops: Ops):
        from doublebase.oracle import block_counts, brute_classify

        growth = {"Trivial": "TrivialLike", "CountableNontrivial": "SubexponentialLike",
                  "PositiveEntropy": "ExponentialLike"}
        sigma_growth = {"Empty": "TrivialLike", "Countable": "SubexponentialLike",
                        "PositiveEntropy": "ExponentialLike"}
        n5 = len(self.pairs5)
        omega = {pair: op for pair, op in zip(self.pairs5, ops[:n5])}
        for (a, b), op in omega.items():
            if op.error:
                continue
            label = op.out.label.value
            mirrored = db.classify_omega(db.reflect(b), db.reflect(a)).label.value
            op.expect(label == mirrored, f"reflection gives {mirrored}")
            if a.complexity <= 4 and b.complexity <= 4:
                op.expect(growth.get(label) == brute_classify(a, b, 18), "label disagrees with block growth")
        for (a, b), op in zip(self.pairs5, ops[n5: 2 * n5]):
            if op.error is None and a.complexity <= 3 and b.complexity <= 3:
                oa, ob = db.Word("0" + b.pre, b.per), db.Word("1" + a.pre, a.per)
                op.expect(sigma_growth.get(op.out.label.value) == brute_classify(oa, ob, 18),
                          "Sigma label disagrees with block growth")
        rest = iter(ops[2 * n5:])
        ln_phi = math.log(refs.PHI)
        for a, b in self.pairs4:
            auto = next(rest)
            if auto.error:
                continue
            ent, paths = next(rest), next(rest)
            if ent.error is None:
                h = ent.out
                if (str(a), str(b)) == ("0(1)", "1(0)"):
                    ent.expect(abs(h - math.log(2)) <= 1e-12, f"full shift entropy {h}")
                if (str(a), str(b)) == ("(01)", "1(0)"):
                    ent.expect(abs(h - ln_phi) <= 1e-9, f"golden mean shift entropy {h}")
                label = omega[(a, b)].out
                if label is not None and label.label.value in ("Trivial", "CountableNontrivial"):
                    ent.expect(h <= 1e-12, f"countable shift has entropy {h}")
            if paths.error is None:
                paths.expect(paths.out == block_counts(a, b, 14)[-1], "path count != oracle block count")
        for d, _ in self.limits:
            op = next(rest)
            if op.error:
                continue
            got = op.out.directive
            n = len(got.head) if op.out.truncated else 32
            want = db.parse_directive(d)
            op.expect(n > 0 and got.letters(n) == want.letters(n), f"s-map {op.out} is not a prefix of {d}")
        k_ref = refs.k_closed(self.Q0)[0]
        for q1 in self.line:
            ks, est = next(rest), next(rest)
            if abs(q1 - k_ref) < 1e-3:
                continue
            if ks.error is None:
                ks.expect(ks.out.order == ("<" if q1 < k_ref else ">"), f"order {ks.out.order} vs K = {k_ref}")
            if est.error is None:
                if q1 < k_ref - 0.03:
                    est.expect(est.out <= 0.02, f"entropy {est.out} below K")
                if q1 > k_ref + 0.05:
                    est.expect(est.out > 0.05, f"entropy {est.out} above K")


WORKLOADS = {
    "curve_sweep": CurveSweep,
    "warm_queries": WarmQueries,
    "deep_spine": DeepSpine,
    "symbolic": Symbolic,
}
