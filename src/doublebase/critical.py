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

A node's cell lies inside the range where its parent's crossings sent
q0, so the crossings one descent reads lie close together: a crossing
below the root is solved by Newton from the end of the crossing
node_mu returned last (solvers.crossing's start), and the root's cold
from (1.5, 0.45).  A cold G(50, max_depth=100) makes 296 node
evaluations (518 with every crossing started cold).

Each descent only finds q0's cell (_g_cell, _k_cell): the node, the
formula's NODE_SEEDS key, the case and the membership ambiguity, or the
last spine bounds of a walk that reached max_depth.  One solve (_solve)
turns a cell into the returned bracket, and classify_univoque takes the
cell alone where one sign of the node function decides.

Membership is decided against certified mu brackets; a q0 within bracket
width of an endpoint is resolved into the adjacent closed formula
interval (the formulas agree at shared endpoints, so this is the
tightest enclosure) and the returned value bracket is padded by a local
slope estimate times the ambiguity.  At max_depth the result is the
enclosure of the two adjacent formula values, which is valid because the
critical maps are strictly decreasing, intersected with the product
chain of the curve (1/(q0+1) <= (q0-1)(G-1) <= 1/2 <= (q0-1)(K-1) <
q0/(q0+1)), so a walk down one spine still returns a finite bracket.
The same chain (one table, _CHAIN) is where the roots of those spine
bounds start their search.

A formula cell's two ends are crossings the descent has just read, and
each cached crossing keeps Newton's end (x, p) and its Jacobian, so the
curve's value and slope at both ends are at hand: a formula root starts
from their cubic Hermite interpolant at q0 (_hermite), a median 9e-8
(relative) off the root, and the function's slope in q1 there, and
secant steps reach the float noise in two to four evaluations.  The
solve checks the signs, so a poor start costs evaluations only.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .config import DEFAULT, Config
from .expansions import _to_fraction, expansion_bounds, regular
from .series import letter_runs, value_fn
from .solvers import Bracket, crossing, root_q1, solve_decreasing, _FLOAT_TOL_FLOOR
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
    key: Optional[str]             # the formula's NODE_SEEDS key, for formula cases
    inequality_witness: float      # (q0-1) * (value.mid - 1)

    @property
    def boundary_word(self) -> Optional[Word]:
        """sigma(seed) of the formula, built when read; None for other
        cases and for words longer than _BOUNDARY_WORD_CAP letters."""
        if self.key is None:
            return None
        n, seed = image_lengths(self.node + "M"), NODE_SEEDS[self.key]
        if sum(n[int(c)] for c in seed.pre + seed.per) > _BOUNDARY_WORD_CAP:
            return None
        return apply(self.node + "M", seed)

    def __str__(self):
        return f"{self.value} node={self.node} case={self.case.value}"


# ----------------------------------------------------------------------
# per-node machinery
# ----------------------------------------------------------------------


def _node_f(w: str, key: str):
    """f (seeds s0, s010, s01) or f~ (s10, s101, s1) of a node boundary
    word, with a proven float error bound (series.value_fn)."""
    return value_fn(letter_runs(w + "M"), NODE_SEEDS[key], not key.startswith("s0"))


MU_CACHE_SIZE = 4096  # crossings kept, the least recently read dropped first
_last_end = None  # Newton's end of the crossing node_mu returned last


def node_mu(w: str, ukey: str, vkey: str, config: Config = DEFAULT) -> Bracket:
    """Cached crossing value of a node pair, within min(config.tol, 2e-13);
    keyed on the directive head, the precision and that tolerance.

    The cache (_node_mu) is shared across descents, since crossings do
    not depend on q0, and holds the MU_CACHE_SIZE crossings read most
    recently, so the root crossings every descent reads first stay;
    concurrent misses of one key at worst solve it twice.  A crossing
    of a node below the root is solved from the end of the crossing
    read last (_last_end), which a descent read in or next to the same
    cell; the root's start cold, so no end outlives an emptied cache.
    """
    global _last_end
    mu, _last_end = _node_mu(w, ukey, vkey, config.precision, min(config.tol, 2e-13))
    return mu


@lru_cache(maxsize=MU_CACHE_SIZE)
def _node_mu(w: str, ukey: str, vkey: str, dps: int, tol: float) -> tuple[Bracket, tuple]:
    return crossing(_node_f(w, ukey), _node_f(w, vkey), tol, dps, _last_end if w else None)


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


def _spine_bound(w: str, key: str, cfg: Config) -> tuple:
    """Exhaustion bound of the last spine step of head w: the node
    formula key of the node the step left, at its spine crossing."""
    last, letter = w[:-1], w[-1]
    return (last, key, node_mu(last, *_SPINE_PAIR[letter], cfg).mid)


# the product chain 1/(q0+1) <= (q0-1)(G-1) <= 1/2 <= (q0-1)(K-1) < q0/(q0+1):
# each curve's lower and upper product, as functions of q0 and of 1/2 in
# q0's type (so a float end divides no Fraction)
_CHAIN = {  # one lambda a line: a profile keys code by (file, line, name)
    "G": (lambda x, half: 1 / (x + 1),
          lambda x, half: half),
    "K": (lambda x, half: half,
          lambda x, half: x / (x + 1)),
}


def _chain(curve: str, x) -> tuple:
    """The ends 1 + p/(x - 1) of the curve's chain products p at x, exact
    for a Fraction x and floats for a float x."""
    half = Fraction(1, 2) if isinstance(x, Fraction) else 0.5
    return tuple(1 + p(x, half) / (x - 1) for p in _CHAIN[curve])


def _outward(x: Fraction, up: bool) -> float:
    """The float nearest the exact x, stepped once when on the wrong side."""
    near = float(x)
    if (near < x) if up else (near > x):
        near = math.nextafter(near, math.inf if up else -math.inf)
    return near


@dataclass(frozen=True)
class _Cell:
    """Where the descent of a curve ("G" or "K") stopped: the formula
    cell of node w (formula key, case, the membership ambiguity of q0
    and the Newton ends of the two crossings that bound the cell, as
    node_mu left them in _last_end), or, with key None, the last spine
    bounds (w, key, at) of a walk that reached max_depth, either of them
    None when never set."""
    curve: str
    node: str = ""
    key: Optional[str] = None
    case: Optional[Case] = None
    ambiguity: float = 0.0
    lo_bound: Optional[tuple] = None
    hi_bound: Optional[tuple] = None
    ends: Optional[tuple] = None


def _hermite(key: str, ends: tuple, x: float) -> Optional[tuple]:
    """The start (guess, slope) of formula key's root at x from the
    Newton ends (x_i, p_i, fu_x, fu_p, fv_x, fv_p) of the two crossings
    that bound its cell: the cubic Hermite interpolant of p = (x - 1)(y - 1)
    along the curve, from p_i and the slope dp/dx = -f_x/f_p of the
    formula's own function at each end (the u half of the Jacobian for
    an f key, the v half for an f~ key: every formula key is the same
    half of both its crossings), and f's slope in q1 there, f_p (x - 1),
    f_p linear between the ends; None where the guess is not finite."""
    k = 2 if key.startswith("s0") else 4  # the index of f_x in an end
    e0, e1 = ends
    x0, p0, x1, p1 = e0[0], e0[1], e1[0], e1[1]
    try:
        m0, m1 = -e0[k] / e0[k + 1], -e1[k] / e1[k + 1]
        t = (x - x0) / (x1 - x0)
    except ZeroDivisionError:
        return None
    s, h = 1 - t, x1 - x0
    y = 1 + (s * s * ((1 + 2 * t) * p0 + t * h * m0) + t * t * ((3 - 2 * t) * p1 - s * h * m1)) / (x - 1)
    if not math.isfinite(y):
        return None
    return y, (s * e0[k + 1] + t * e1[k + 1]) * (x - 1)


def _formula_root(curve: str, w: str, key: str, q0, tol: float, dps: int, ends=None) -> Bracket:
    """The root in q1 of node w's formula key at q0, which is the curve's
    value where q0 lies in the formula's cell.  Its search takes secant
    steps from the Hermite guess and slope of the cell's crossing ends
    (_hermite), or, without ends, starts from the curve's chain
    enclosure at q0; the solve checks the signs, so a start off the
    root costs evaluations, never correctness."""
    start = _hermite(key, ends, float(q0)) if ends else None
    if start is None:
        lo, hi = _chain(curve, float(q0))
        start = lo, 0.5 * (lo + hi), hi
    return root_q1(_node_f(w, key), q0, tol, dps, start=start)


def _formula_result(cell: _Cell, q0: float, tol: float, dps: int) -> CriticalResult:
    val = _formula_root(cell.curve, cell.node, cell.key, q0, tol, dps, cell.ends)
    if cell.ambiguity > 0:
        # q0 could belong to an adjacent cell: widen by the local slope of
        # the critical map times the membership uncertainty
        h = 1e-6
        slope = abs(_formula_root(cell.curve, cell.node, cell.key, q0 + h, tol, dps, cell.ends).mid - val.mid) / h + 1.0
        pad = 8.0 * slope * cell.ambiguity
        val = Bracket(val.lo - pad, val.hi + pad)
    return CriticalResult(
        value=val,
        node=cell.node,
        case=cell.case,
        key=cell.key,
        inequality_witness=(q0 - 1.0) * (val.mid - 1.0),
    )


def _exhausted_result(cell: _Cell, q0: float, tol: float, dps: int) -> CriticalResult:
    """Enclosure from the last spine bounds of the walk, intersected with
    the product chain of the curve, which keeps it finite on a one-letter
    walk; the case is read off the spine bounds alone."""
    lo_val = 1.0
    hi_val = math.inf
    if cell.lo_bound is not None:
        w, key, at = cell.lo_bound
        lo_val = _formula_root(cell.curve, w, key, at, tol, dps).lo
    if cell.hi_bound is not None:
        w, key, at = cell.hi_bound
        hi_val = _formula_root(cell.curve, w, key, at, tol, dps).hi
    lo_val, hi_val = min(lo_val, hi_val), max(lo_val, hi_val)
    width = hi_val - lo_val
    case = Case.PRIMITIVE_LIMIT if width <= 1e4 * max(tol, _FLOAT_TOL_FLOOR) else Case.DEPTH_EXHAUSTED
    lo, hi = _chain(cell.curve, _to_fraction(q0))
    val = Bracket(max(lo_val, _outward(lo, False)), min(hi_val, _outward(hi, True)))
    return CriticalResult(val, "", case, None, (q0 - 1.0) * (val.mid - 1.0))


def _solve(cell: _Cell, q0: float, tol: float, dps: int) -> CriticalResult:
    """The curve's bracket at q0 on the cell its descent found."""
    if cell.key is None:
        return _exhausted_result(cell, q0, tol, dps)
    return _formula_result(cell, q0, tol, dps)


def _g_cell(q0: float, cfg: Config, max_depth: int) -> _Cell:
    """The cell of q0 in the G descent over {L,R}* nodes."""
    w = ""
    lo_bound = hi_bound = None  # lazy value bounds for exhaustion
    while len(w) < max_depth:
        mu1 = node_mu(w, "s0", "s10", cfg)
        end1 = _last_end
        if _beyond(q0, mu1, "L"):
            w += "L" * _run_end(w, "L", q0, cfg, max_depth)
            lo_bound = _spine_bound(w, "s0", cfg)  # G(q0) > G(mu1) = left formula there
            continue
        mu2 = node_mu(w, "s01", "s1", cfg)
        end2 = _last_end
        if _beyond(q0, mu2, "R"):
            w += "R" * _run_end(w, "R", q0, cfg, max_depth)
            hi_bound = _spine_bound(w, "s1", cfg)
            continue
        ambiguity = _ambiguity(q0, mu1, mu2)
        if q0 <= node_mu(w, "s0", "s1", cfg).mid:
            return _Cell("G", w, "s0", Case.LEFT_FORMULA, ambiguity, ends=(end1, _last_end))
        return _Cell("G", w, "s1", Case.RIGHT_FORMULA, ambiguity, ends=(_last_end, end2))
    return _Cell("G", lo_bound=lo_bound, hi_bound=hi_bound)


def _k_cell(q0: float, cfg: Config, max_depth: int) -> _Cell:
    """The cell of q0 in the K descent over {L,M,R}* nodes."""
    w = ""
    lo_bound = hi_bound = None
    while len(w) < max_depth:
        muL1 = node_mu(w, "s0", "s10", cfg)
        endL1 = _last_end
        if _beyond(q0, muL1, "L"):
            w += "L" * _run_end(w, "L", q0, cfg, max_depth)
            lo_bound = _spine_bound(w, "s10", cfg)
            continue
        muR2 = node_mu(w, "s01", "s1", cfg)
        endR2 = _last_end
        if _beyond(q0, muR2, "R"):
            w += "R" * _run_end(w, "R", q0, cfg, max_depth)
            hi_bound = _spine_bound(w, "s01", cfg)
            continue
        muL2 = node_mu(w, "s010", "s10", cfg)
        if q0 <= muL2.hi + _slack(muL2):
            return _Cell("K", w, "s10", Case.LEFT_FORMULA, _ambiguity(q0, muL1, muL2), ends=(endL1, _last_end))
        muR1 = node_mu(w, "s01", "s101", cfg)
        if q0 >= muR1.lo - _slack(muR1):
            return _Cell("K", w, "s01", Case.RIGHT_FORMULA, _ambiguity(q0, muR1, muR2), ends=(_last_end, endR2))
        # strictly between the formula intervals: the cell is below node wM
        hi_bound = (w, "s10", muL2.mid)
        lo_bound = (w, "s01", muR1.mid)
        w += "M"
    return _Cell("K", lo_bound=lo_bound, hi_bound=hi_bound)


def _settings(q0: float, tol, max_depth, config: Config) -> tuple[float, int]:
    """The tolerance and depth of a curve call, q0 checked."""
    if not 1 < q0 < math.inf:
        raise ValueError("q0 must be finite and exceed 1")
    return (config.tol if tol is None else tol,
            config.max_depth if max_depth is None else max_depth)


def generalized_golden_ratio(q0: float, tol: float | None = None,
                             max_depth: int | None = None,
                             config: Config = DEFAULT) -> CriticalResult:
    """G(q0): the infimum of bases q1 for which some sequence other than
    0^inf and 1^inf is a unique (q0, q1)-expansion."""
    tol, max_depth = _settings(q0, tol, max_depth, config)
    return _solve(_g_cell(q0, config, max_depth), q0, tol, config.precision)


def komornik_loreti(q0: float, tol: float | None = None,
                    max_depth: int | None = None,
                    config: Config = DEFAULT) -> CriticalResult:
    """K(q0): the infimum of bases q1 with uncountably many unique
    (q0, q1)-expansions; also the right end of the first entropy plateau."""
    tol, max_depth = _settings(q0, tol, max_depth, config)
    return _solve(_k_cell(q0, config, max_depth), q0, tol, config.precision)


def kl_fixed_point(tol: float = 1e-9, lo: float = 1.7, hi: float = 1.9,
                   config: Config = DEFAULT) -> Bracket:
    """The unique base q* with K(q*) = q*: the root of the continuous,
    strictly decreasing q -> K(q) - q, by solvers.solve_decreasing from
    the guess [lo, hi], searched outward from lo until the signs at its
    ends differ (a guess off q* costs K evaluations, never correctness).
    Each end is proven by K's whole bracket lying on its side, and
    nudged outward while it does not, so the width is floored by K's
    own brackets (about 8e-13 at the default config)."""
    def excess(q: float) -> float:
        return komornik_loreti(q, config=config).value.mid - q

    def proven(q: float, dps) -> float:
        # the side of q that K's bracket proves, else 0; dps None asks
        # for a floats-only proof, which K has not
        if dps is None:
            return 0.0
        value = komornik_loreti(q, config=config).value
        return max(value.lo - q, 0.0) + min(value.hi - q, 0.0)

    # below 1e-13 an mp refinement would converge onto the plateau where
    # proven is 0, about as wide as K's bracket
    return solve_decreasing(excess, proven, 1.0, (lo, lo, hi), max(tol, _FLOAT_TOL_FLOOR), config.precision)


# ----------------------------------------------------------------------
# s-map cross-check on expansion words
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KsResult:
    order: str          # "<", ">", or "=" when the streams tie
    node: str           # common directive prefix walked before the verdict
    depth: int          # directive letters examined


def ks_crosscheck(q0, q1, depth: int = 24) -> KsResult:
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
                 config: Config = DEFAULT) -> list[CurveRow]:
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
