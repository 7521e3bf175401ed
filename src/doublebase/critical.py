"""Critical bases: the generalized golden ratio G(q0) and generalized
Komornik-Loreti constant K(q0) by directive-tree descent.

For each directive node sigma = wM the six boundary words define crossing
values mu (cached per node, since they do not depend on q0).  The G
descent walks {L,R}* nodes: q0 left of [mu_{s0,s10}, mu_{s01,s1}] appends
L, right appends R, inside picks the left formula (root of f_{sigma(0^inf)})
or the right formula (root of f~_{sigma(1^inf)}) according to the middle
crossing mu_{s0,s1}.  The K descent walks {L,M,R}* nodes with the two
formula intervals [mu_{s0,s10}, mu_{s010,s10}] and [mu_{s01,s101},
mu_{s01,s1}]; strictly between them it appends M.

Both descents cross a constant L^k or R^k spine by galloping (_run_end):
the spine crossings are monotone along the run, so an exponential search
followed by a binary search finds where q0 stops being beyond the node
cells with O(log k) crossings, and the skipped nodes change neither the
node nor the case reached.  max_depth still counts directive letters.

Membership is decided against certified mu brackets; a q0 within bracket
width of an endpoint is resolved into the adjacent closed formula
interval (the formulas agree at shared endpoints, so this is the
tightest enclosure) and the returned value bracket is padded by a local
slope estimate times the ambiguity.  At max_depth the result is the
enclosure of the two adjacent formula values, which is valid because the
critical maps are strictly decreasing, intersected with the product
chain of the curve (1/(q0+1) <= (q0-1)(G-1) <= 1/2 <= (q0-1)(K-1) <
q0/(q0+1)), so a walk down one spine still returns a finite bracket.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

import mpmath as mp

from .config import Config, resolve
from .expansions import expansion_bounds, regular
from .series import letter_runs, node_pi, f_from_pi, f_tilde_from_pi
from .solvers import Bracket, bracket_root, crossing, root_q1, _certify_mp, _FLOAT_TOL_FLOOR
from .substitution import NODE_SEEDS, apply, image_lengths, split_descent
from .words import Word

_BOUNDARY_WORD_CAP = 200_000  # letters; larger node words are not materialized


class Case(Enum):
    LEFT_FORMULA = "LeftFormula"
    RIGHT_FORMULA = "RightFormula"
    PRIMITIVE_LIMIT = "PrimitiveLimit"
    DEPTH_EXHAUSTED = "DepthExhausted"


@dataclass(frozen=True)
class CriticalResult:
    value: Bracket
    node: str                      # directive head w; the node is sigma = wM
    case: Case
    boundary_word: Optional[Word]  # sigma(seed) for formula cases, when small
    inequality_witness: float      # (q0-1) * (value.mid - 1)

    def __str__(self):
        return f"{self.value} node={self.node} case={self.case.value}"


# ----------------------------------------------------------------------
# per-node machinery
# ----------------------------------------------------------------------


def _node_f(w: str, key: str, kind: str):
    """f or f~ of a node boundary word as a function of (q0, q1), via the
    composed affine forms (no word materialization); the node's letter
    runs are encoded once, not per evaluation."""
    runs = letter_runs(w + "M")
    if kind == "f":
        def fn(q0, q1):
            return f_from_pi(node_pi(runs, q0, q1, key), q0, q1)
    else:
        def fn(q0, q1):
            return f_tilde_from_pi(node_pi(runs, q0, q1, key), q0, q1)
    return fn


_MU_CACHE: dict = {}


def node_mu(w: str, ukey: str, vkey: str, config: Config | None = None) -> Bracket:
    """Cached crossing value of a node pair; keyed on the directive head,
    the precision and the solving tolerance.

    The cache is shared across descents (crossings do not depend on q0);
    concurrent readers are safe, concurrent writers at worst recompute.
    """
    cfg = resolve(config)
    tol = min(cfg.tol, 1e-13)
    key = (w, ukey, vkey, cfg.precision, tol)
    hit = _MU_CACHE.get(key)
    if hit is None:
        hit = crossing(_node_f(w, ukey, "f"), _node_f(w, vkey, "ft"), tol, cfg.precision)
        _MU_CACHE[key] = hit
    return hit


def _boundary_word(w: str, key: str) -> Optional[Word]:
    n, seed = image_lengths(w + "M"), NODE_SEEDS[key]
    if sum(n[int(c)] for c in seed.pre + seed.per) > _BOUNDARY_WORD_CAP:
        return None
    return apply(w + "M", seed)


def _slack(mu: Bracket) -> float:
    """Distance within which q0 is too close to a crossing to place."""
    return max(mu.width, _FLOAT_TOL_FLOOR)


def _ambiguity(q0: float, left: Bracket, right: Bracket) -> float:
    """Membership uncertainty of q0 in the formula interval spanned by
    the crossings left and right: twice the slack of an endpoint q0 is
    close to, else 0."""
    ambiguity = 0.0
    if q0 <= left.hi + _slack(left):
        ambiguity = max(ambiguity, 2 * _slack(left))
    if q0 >= right.lo - _slack(right):
        ambiguity = max(ambiguity, 2 * _slack(right))
    return ambiguity


# the crossing that ends a node's cell on the side of a spine letter
_SPINE_PAIR = {"L": ("s0", "s10"), "R": ("s01", "s1")}


def _beyond(q0: float, mu: Bracket, letter: str) -> bool:
    """q0 lies left (letter L) or right (R) of crossing mu by more than
    its slack, so the descent appends that letter."""
    if letter == "L":
        return q0 < mu.lo - _slack(mu)
    return q0 > mu.hi + _slack(mu)


def _run_end(w: str, letter: str, q0: float, cfg: Config, max_depth: int) -> int:
    """Length k of the run the descent appends at node w, where q0 lies
    beyond w's cell on the side of letter: every node w letter^j, j < k,
    sends q0 on by letter, and w letter^k does not or has max_depth
    letters.

    Along a constant run the spine crossings are monotone (the cell of
    w c^(j+1) lies in the range that w c^j sends on by c), so "beyond"
    holds for a prefix of the run; an exponential search followed by a
    binary search finds its end with O(log k) crossings (Bentley and
    Yao's unbounded search), and the skipped nodes change nothing.
    """
    pair = _SPINE_PAIR[letter]

    def beyond(j: int) -> bool:
        return _beyond(q0, node_mu(w + letter * j, *pair, cfg), letter)

    cap = max_depth - len(w)
    lo, hi = 0, cap  # beyond at lo; hi is the first node not beyond, or the cap
    while lo < cap - 1:
        j = min(max(2 * lo, 1), cap - 1)
        if not beyond(j):
            hi = j
            break
        lo = j
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if beyond(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _spine_bound(w: str, key: str, kind: str, cfg: Config) -> tuple:
    """Exhaustion bound of the last spine step of head w: the node
    formula (key, kind) of the node the step left, at its spine crossing."""
    last, letter = w[:-1], w[-1]
    return (last, key, kind, node_mu(last, *_SPINE_PAIR[letter], cfg).mid)


def _formula_result(w: str, key: str, kind: str, q0: float, case: Case,
                    tol: float, dps: int, ambiguity: float) -> CriticalResult:
    fn = _node_f(w, key, kind)
    val = root_q1(fn, q0, tol, dps)
    if ambiguity > 0:
        # q0 could belong to an adjacent cell: widen by the local slope of
        # the critical map times the membership uncertainty
        h = 1e-6
        slope = abs(root_q1(fn, q0 + h, tol, dps).mid - val.mid) / h + 1.0
        pad = 8.0 * slope * ambiguity
        val = Bracket(val.lo - pad, val.hi + pad)
    return CriticalResult(
        value=val,
        node=w,
        case=case,
        boundary_word=_boundary_word(w, key),
        inequality_witness=(q0 - 1.0) * (val.mid - 1.0),
    )


def _outward(x: Fraction, up: bool) -> float:
    """The float nearest the exact x, stepped once when on the wrong side."""
    near = float(x)
    if (near < x) if up else (near > x):
        near = math.nextafter(near, math.inf if up else -math.inf)
    return near


def _exact(x) -> Fraction:
    """x as an exact Fraction: floats, ints and Fractions directly, mpf
    values from their binary mantissa and exponent."""
    if isinstance(x, mp.mpf):
        man, exp = x.man_exp
        return Fraction(int(man)) * Fraction(2) ** exp
    return Fraction(x)


def _chain(x: Fraction, lo_product: Fraction, hi_product: Fraction) -> tuple[float, float]:
    """The values c with lo_product <= (x - 1)(c - 1) <= hi_product,
    rounded outward."""
    return _outward(1 + lo_product / (x - 1), False), _outward(1 + hi_product / (x - 1), True)


def _exhausted_result(q0, lo_bound, hi_bound, chain, tol, dps) -> CriticalResult:
    """Enclosure from the last spine bounds of the walk, intersected with
    the product chain (lo, hi) of the curve, which keeps it finite on a
    one-letter walk; the case is read off the spine bounds alone."""
    lo_val = 1.0
    hi_val = math.inf
    if lo_bound is not None:
        w, key, kind, at = lo_bound
        lo_val = root_q1(_node_f(w, key, kind), at, tol, dps).lo
    if hi_bound is not None:
        w, key, kind, at = hi_bound
        hi_val = root_q1(_node_f(w, key, kind), at, tol, dps).hi
    lo_val, hi_val = min(lo_val, hi_val), max(lo_val, hi_val)
    width = hi_val - lo_val
    case = Case.PRIMITIVE_LIMIT if width <= 1e4 * max(tol, _FLOAT_TOL_FLOOR) else Case.DEPTH_EXHAUSTED
    val = Bracket(max(lo_val, chain[0]), min(hi_val, chain[1]))
    return CriticalResult(val, "", case, None, (q0 - 1.0) * (val.mid - 1.0))


def generalized_golden_ratio(q0: float, tol: float | None = None,
                             max_depth: int | None = None,
                             config: Config | None = None) -> CriticalResult:
    """G(q0): the infimum of bases q1 for which some sequence other than
    0^inf and 1^inf is a unique (q0, q1)-expansion."""
    cfg = resolve(config)
    tol = cfg.tol if tol is None else tol
    max_depth = cfg.max_depth if max_depth is None else max_depth
    if not q0 > 1:
        raise ValueError("q0 must exceed 1")
    dps = cfg.precision
    w = ""
    lo_bound = hi_bound = None  # lazy value bounds for exhaustion
    while len(w) < max_depth:
        mu1 = node_mu(w, "s0", "s10", cfg)
        if _beyond(q0, mu1, "L"):
            w += "L" * _run_end(w, "L", q0, cfg, max_depth)
            lo_bound = _spine_bound(w, "s0", "f", cfg)  # G(q0) > G(mu1) = left formula there
            continue
        mu2 = node_mu(w, "s01", "s1", cfg)
        if _beyond(q0, mu2, "R"):
            w += "R" * _run_end(w, "R", q0, cfg, max_depth)
            hi_bound = _spine_bound(w, "s1", "ft", cfg)
            continue
        ambiguity = _ambiguity(q0, mu1, mu2)
        if q0 <= node_mu(w, "s0", "s1", cfg).mid:
            return _formula_result(w, "s0", "f", q0, Case.LEFT_FORMULA, tol, dps, ambiguity)
        return _formula_result(w, "s1", "ft", q0, Case.RIGHT_FORMULA, tol, dps, ambiguity)
    x = _exact(q0)  # 1/(q0+1) <= (q0-1)(G-1) <= 1/2
    chain = _chain(x, 1 / (x + 1), Fraction(1, 2))
    return _exhausted_result(q0, lo_bound, hi_bound, chain, tol, dps)


def komornik_loreti(q0: float, tol: float | None = None,
                    max_depth: int | None = None,
                    config: Config | None = None) -> CriticalResult:
    """K(q0): the infimum of bases q1 with uncountably many unique
    (q0, q1)-expansions; also the right end of the first entropy plateau."""
    cfg = resolve(config)
    tol = cfg.tol if tol is None else tol
    max_depth = cfg.max_depth if max_depth is None else max_depth
    if not q0 > 1:
        raise ValueError("q0 must exceed 1")
    dps = cfg.precision
    w = ""
    lo_bound = hi_bound = None
    while len(w) < max_depth:
        muL1 = node_mu(w, "s0", "s10", cfg)
        if _beyond(q0, muL1, "L"):
            w += "L" * _run_end(w, "L", q0, cfg, max_depth)
            lo_bound = _spine_bound(w, "s10", "ft", cfg)
            continue
        muR2 = node_mu(w, "s01", "s1", cfg)
        if _beyond(q0, muR2, "R"):
            w += "R" * _run_end(w, "R", q0, cfg, max_depth)
            hi_bound = _spine_bound(w, "s01", "f", cfg)
            continue
        muL2 = node_mu(w, "s010", "s10", cfg)
        if q0 <= muL2.hi + _slack(muL2):
            return _formula_result(w, "s10", "ft", q0, Case.LEFT_FORMULA, tol, dps,
                                   _ambiguity(q0, muL1, muL2))
        muR1 = node_mu(w, "s01", "s101", cfg)
        if q0 >= muR1.lo - _slack(muR1):
            return _formula_result(w, "s01", "f", q0, Case.RIGHT_FORMULA, tol, dps,
                                   _ambiguity(q0, muR1, muR2))
        # strictly between the formula intervals: the cell is below node wM
        hi_bound = (w, "s10", "ft", muL2.mid)
        lo_bound = (w, "s01", "f", muR1.mid)
        w += "M"
    x = _exact(q0)  # 1/2 <= (q0-1)(K-1) < q0/(q0+1)
    chain = _chain(x, Fraction(1, 2), x / (x + 1))
    return _exhausted_result(q0, lo_bound, hi_bound, chain, tol, dps)


def kl_fixed_point(tol: float = 1e-9, lo: float = 1.7, hi: float = 1.9,
                   config: Config | None = None) -> Bracket:
    """The unique base q* with K(q*) = q*: the root of the continuous,
    strictly decreasing q -> K(q) - q on [lo, hi], solved to tol / 2 by
    solvers.bracket_root.  An end that lands within K's bracket of q* is
    then pushed outward until the whole K bracket lies on its side, so
    both ends are sign-verified."""
    cfg = resolve(config)

    def excess(q: float) -> float:
        return komornik_loreti(q, config=cfg).value.mid - q

    def verified(q) -> float:
        # the sign of K(q) - q where the K bracket decides it, else 0
        value = komornik_loreti(float(q), config=cfg).value
        return max(value.lo - q, 0.0) + min(value.hi - q, 0.0)

    if not excess(lo) > 0:
        raise ValueError("K(lo) - lo must be positive")
    if excess(hi) > 0:
        raise ValueError("K(hi) - hi must not be positive")
    lo, hi = bracket_root(excess, lo, hi, tol / 2)
    return Bracket(*_certify_mp(verified, lo, hi, cfg.precision))


# ----------------------------------------------------------------------
# s-map cross-check on expansion words
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KsResult:
    order: str          # "<", "=", ">" (or "Undecided" for blocked digits)
    node: str           # common directive prefix walked before the verdict
    depth: int          # directive letters examined


def ks_crosscheck(q0, q1, depth: int = 24, config: Config | None = None) -> KsResult:
    """Order of s(a_{q0,q1}) versus s(b_{q0,q1}) from the digit streams.

    Above K(q0) the order is ">", below it "<"; at K the streams agree
    to every depth examined.  Digit arithmetic is exact, so boundary
    hits do not block the verdict.
    """
    if not regular(q0, q1):
        raise ValueError(f"pair ({q0}, {q1}) is not regular")
    a, b = expansion_bounds(q0, q1)
    order, w, _, _ = split_descent(a, b, depth)
    return KsResult(order, w, len(w))


# ----------------------------------------------------------------------
# curve sampling
# ----------------------------------------------------------------------

CSV_HEADER = ["q0", "which", "value_lo", "value_hi", "node", "case"]


@dataclass(frozen=True)
class CurveRow:
    q0: float
    which: str
    value_lo: float
    value_hi: float
    node: str
    case: str


def sample_curve(q0_lo: float, q0_hi: float, n: int, which: str = "both",
                 tol: float | None = None, max_depth: int | None = None,
                 config: Config | None = None) -> list[CurveRow]:
    """Evaluate the critical maps on a uniform grid; rows are independent."""
    if not (1 < q0_lo < q0_hi):
        raise ValueError("need 1 < q0_lo < q0_hi")
    if n < 2:
        raise ValueError("need at least two samples")
    if which not in ("gr", "kl", "both"):
        raise ValueError("which must be gr, kl or both")
    rows = []
    for i in range(n):
        q0 = q0_lo + (q0_hi - q0_lo) * i / (n - 1)
        if which in ("gr", "both"):
            r = generalized_golden_ratio(q0, tol, max_depth, config)
            rows.append(CurveRow(q0, "gr", r.value.lo, r.value.hi, r.node, r.case.value))
        if which in ("kl", "both"):
            r = komornik_loreti(q0, tol, max_depth, config)
            rows.append(CurveRow(q0, "kl", r.value.lo, r.value.hi, r.node, r.case.value))
    return rows


def curve_csv(rows: list[CurveRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([repr(r.q0), r.which, repr(r.value_lo), repr(r.value_hi), r.node, r.case])
    return buf.getvalue()


def parse_curve_csv(text: str) -> list[CurveRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected header {header!r}")
    return [
        CurveRow(float(q0), which, float(lo), float(hi), node, case)
        for q0, which, lo, hi, node, case in reader
    ]
