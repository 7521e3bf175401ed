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
formula's NODE_SEEDS key, the case and the other formulas near q0
(_near), or the last spine bounds of a walk that reached max_depth.  One
solve (_solve) turns a cell into the returned bracket, and _at_or_below
places a q1 against it for classify_univoque, by one sign of the node
function where that decides.

Membership is decided against certified mu brackets; a q0 within slack
of a crossing of its cell gets the hull of the roots of the crossing's
two functions at q0.  At max_depth the result is the enclosure of the
two adjacent formula values, which is valid because the critical maps
are strictly decreasing, intersected with the product chain of the curve
(1/(q0+1) <= (q0-1)(G-1) <= 1/2 <= (q0-1)(K-1) < q0/(q0+1)), so a walk
down one spine still returns a finite bracket.

Every formula value the library needs lies at a crossing the descent
has just read or between two of them: a formula cell's root between its
two ends, a spine bound's or a near formula's at its one crossing.
node_mu returns each crossing with the Newton end (x, p) and Jacobian
its cache keeps, so the curve's value and slope there are at hand: a
formula root starts from their cubic Hermite interpolant at q0
(_hermite), a median 9e-8 (relative) off the root, or from the one
crossing's own point, and from the function's slope in q1 there, and
secant steps reach the float noise in two to four evaluations.  The
solve checks the signs, so a poor start costs evaluations only.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .config import DEFAULT, Config
from .expansions import _to_fraction, expansion_bounds, regular
from .series import letter_runs, value_fns
from .solvers import Bracket, crossing, root_q1, solve_decreasing, _context, _end_text, _sign, _FLOAT_TOL_FLOOR
from .substitution import NODE_SEEDS, apply, image_lengths, split_descent
from .words import Word

_BOUNDARY_WORD_CAP = 200_000  # letters; larger node words are not materialized
_DECIMAL_TOL_FLOOR = Decimal(_FLOAT_TOL_FLOOR)


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
    inequality_witness: float      # (q0-1) * (value.mid - 1), in floats

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
    word, with a proven float error bound (series.value_fns)."""
    return value_fns(letter_runs(w + "M"), (NODE_SEEDS[key], not key.startswith("s0")))[0]


def _node_fns(w: str, *keys: str) -> list:
    """The value functions (_node_f) of several boundary words of node
    w, sharing one dict of compositions (series.value_fns)."""
    return value_fns(letter_runs(w + "M"), *((NODE_SEEDS[key], not key.startswith("s0")) for key in keys))


MU_CACHE_SIZE = 4096  # crossings kept, the least recently read dropped first
_last_end = None  # Newton's end of the crossing node_mu returned last


def node_mu(w: str, ukey: str, vkey: str, config: Config = DEFAULT) -> tuple[Bracket, tuple]:
    """Cached crossing of a node pair, (mu, end): mu within min(config.tol,
    2e-13) and Newton's end (x, p, fu_x, fu_p, fv_x, fv_p); keyed on the
    directive head, the precision and that tolerance.

    The cache (_node_mu) is shared across descents, since crossings do
    not depend on q0, and holds the MU_CACHE_SIZE crossings read most
    recently, so the root crossings every descent reads first stay;
    concurrent misses of one key at worst solve it twice.  A crossing
    of a node below the root is solved from the end of the crossing
    read last (_last_end), which a descent read in or next to the same
    cell; the root's start cold, so no end outlives an emptied cache.
    """
    global _last_end
    crossed = _node_mu(w, ukey, vkey, config.precision, min(config.tol, 2e-13))
    _last_end = crossed[1]
    return crossed


@lru_cache(maxsize=MU_CACHE_SIZE)
def _node_mu(w: str, ukey: str, vkey: str, dps: int, tol: float) -> tuple[Bracket, tuple]:
    return crossing(*_node_fns(w, ukey, vkey), tol, dps, _last_end if w else None)


def _slack(mu: Bracket):
    """Distance within which q0 is too close to a crossing to place: its
    width, at least 1e-13, a Decimal for a crossing refined below that
    float floor (read on every descent step, so no property call)."""
    width = mu.hi - mu.lo
    if width > _FLOAT_TOL_FLOOR:
        return width
    return _FLOAT_TOL_FLOOR if type(width) is float else _DECIMAL_TOL_FLOOR


def _near(q0: float, *crossings) -> tuple:
    """(key, end) of the other function of each crossing (mu, end, key)
    of a formula cell that q0 lies within _slack of; the curve's bracket
    is the hull of the cell's root and these keys' roots at q0.  That is
    exact at G's middle crossing, both sides being cells of the node.
    An end crossing's far side is a spine of cells whose formula words
    converge to its other word (L R^k M(1^inf) to M(10^inf)), so the
    curve tends to that root; that it lies between the two is checked."""
    near = ()
    for mu, end, key in crossings:
        if mu.lo - (slack := _slack(mu)) <= q0 <= mu.hi + slack:
            near += ((key, end),)
    return near


# the crossing that ends a node's cell on the side of a spine letter
_SPINE_PAIR = {"L": ("s0", "s10"), "R": ("s01", "s1")}


def _beyond(q0: float, mu: Bracket, letter: str) -> bool:
    """q0 lies left (letter L) or right (R) of crossing mu by more than
    its slack, so the descent appends that letter."""
    if letter == "L":
        return q0 < mu.lo - _slack(mu)
    return q0 > mu.hi + _slack(mu)


def _run_end(w: str, letter: str, q0: float, cfg: Config) -> int:
    """Length k of the run the descent appends at node w, where q0 lies
    beyond w's cell on the side of letter: every node w letter^j, j < k,
    sends q0 on by letter, and w letter^k does not or has cfg.max_depth
    letters.

    Along a constant run the spine crossings are monotone (the cell of
    w c^(j+1) lies in the range that w c^j sends on by c), so "beyond"
    holds for a prefix of the run; an exponential search followed by a
    binary search finds its end with O(log k) crossings (Bentley and
    Yao's unbounded search), and the skipped nodes change nothing.
    """
    pair = _SPINE_PAIR[letter]

    def beyond(j: int) -> bool:
        return _beyond(q0, node_mu(w + letter * j, *pair, cfg)[0], letter)

    cap = cfg.max_depth - len(w)
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
    """Exhaustion bound (w, key, at, end) of the last spine step of head
    w: formula key of the node w the step left, at the end of its spine
    crossing the decreasing formula proves (hi for an L step's lower
    bound, lo for an R step's upper one), and that crossing's end."""
    last, letter = w[:-1], w[-1]
    mu, end = node_mu(last, *_SPINE_PAIR[letter], cfg)
    return (last, key, mu.hi if letter == "L" else mu.lo, end)


def _chain(curve: str, q0: float, dps: int | None) -> tuple:
    """The curve's enclosure at q0 by the product chain 1/(q0+1) <=
    (q0-1)(G-1) <= 1/2 <= (q0-1)(K-1) < q0/(q0+1): the ends 1 + p/(q0 - 1)
    of its two products p, exact, each rounded outward once: to a float,
    or with dps to a Decimal of a refined root's digits (solvers._context)."""
    x, half = _to_fraction(q0), Fraction(1, 2)
    ends = []
    for p, up in zip((1 / (x + 1), half) if curve == "G" else (half, x / (x + 1)), (False, True)):
        exact = 1 + p / (x - 1)
        if dps is None:
            near = float(exact)
            if (near < exact) if up else (near > exact):
                near = math.nextafter(near, math.inf if up else -math.inf)
        else:  # Context.divide rounds the exact quotient once, in its rounding
            outward = Context(prec=_context(dps).prec, rounding=ROUND_CEILING if up else ROUND_FLOOR)
            near = outward.divide(exact.numerator, exact.denominator)
        ends.append(near)
    return tuple(ends)


@dataclass(frozen=True)
class _Cell:
    """Where the descent of a curve ("G" or "K") stopped: the formula
    cell of node w (formula key, case, the other formulas near q0 by
    _near and the Newton ends node_mu returned with the two crossings
    that bound the cell), or, with key None, the last spine bounds (w,
    key, at, end) of a walk that reached max_depth, each with the Newton end
    of the crossing it sits on, either of them None when never set."""
    curve: str
    node: str = ""
    key: Optional[str] = None
    case: Optional[Case] = None
    near: tuple = ()
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
    f_p linear between the ends.  A one-crossing cell (x1 == x0, a spine
    bound's) is read at t = 0: (1 + p0/(x - 1), f_p (x - 1)) from its
    end.  None where the guess is not finite."""
    k = 2 if key.startswith("s0") else 4  # the index of f_x in an end
    e0, e1 = ends
    x0, p0, x1, p1 = e0[0], e0[1], e1[0], e1[1]
    try:
        m0, m1 = -e0[k] / e0[k + 1], -e1[k] / e1[k + 1]
        t = (x - x0) / (x1 - x0) if x1 != x0 else 0.0
    except ZeroDivisionError:
        return None
    s, h = 1 - t, x1 - x0
    y = 1 + (s * s * ((1 + 2 * t) * p0 + t * h * m0) + t * t * ((3 - 2 * t) * p1 - s * h * m1)) / (x - 1)
    if not math.isfinite(y):
        return None
    return y, (s * e0[k + 1] + t * e1[k + 1]) * (x - 1)


def _formula_root(w: str, key: str, q0, ends: tuple, cfg: Config) -> Bracket:
    """The root in q1 of node w's formula key at q0, which is the curve's
    value where q0 lies in the formula's cell (or at a spine bound's
    crossing).  Its search takes secant steps from the Hermite guess and
    slope of the cell's crossing ends (_hermite), or starts cold where
    those give none; the solve checks the signs, so a start off the
    root costs evaluations, never correctness."""
    return root_q1(_node_f(w, key), q0, cfg.tol, cfg.precision, start=_hermite(key, ends, float(q0)))


def _formula_result(cell: _Cell, q0: float, cfg: Config) -> CriticalResult:
    val = _formula_root(cell.node, cell.key, q0, cell.ends, cfg)
    for key, end in cell.near:  # the hull with each near formula's root
        other = _formula_root(cell.node, key, q0, (end, end), cfg)
        val = Bracket(min(val.lo, other.lo), max(val.hi, other.hi))
    return CriticalResult(val, cell.node, cell.case, cell.key, (q0 - 1.0) * (float(val.mid) - 1.0))


def _exhausted_result(cell: _Cell, q0: float, cfg: Config) -> CriticalResult:
    """Enclosure from the last spine bounds of the walk, each root started
    at the crossing its bound sits on, intersected with the product chain
    of the curve, which keeps it finite on a one-letter walk; the case is
    read off the spine bounds alone."""
    lo_val, hi_val = 1.0, math.inf
    if cell.lo_bound is not None:
        w, key, at, end = cell.lo_bound
        lo_val = _formula_root(w, key, at, (end, end), cfg).lo
    if cell.hi_bound is not None:
        w, key, at, end = cell.hi_bound
        hi_val = _formula_root(w, key, at, (end, end), cfg).hi
    lo_val, hi_val = min(lo_val, hi_val), max(lo_val, hi_val)
    width = float(hi_val) - float(lo_val)
    case = Case.PRIMITIVE_LIMIT if width <= 1e4 * max(cfg.tol, _FLOAT_TOL_FLOOR) else Case.DEPTH_EXHAUSTED
    lo, hi = _chain(cell.curve, q0, cfg.precision if cfg.tol < _FLOAT_TOL_FLOOR else None)
    val = Bracket(max(lo, lo_val), min(hi, hi_val))  # a tie keeps the chain's end, of the solve's type
    return CriticalResult(val, "", case, None, (q0 - 1.0) * (float(val.mid) - 1.0))


def _solve(cell: _Cell, q0: float, cfg: Config) -> CriticalResult:
    """The curve's bracket at q0 on the cell its descent found."""
    if cell.key is None:
        return _exhausted_result(cell, q0, cfg)
    return _formula_result(cell, q0, cfg)


def _at_or_below(cell: _Cell, q0: float, q1: float, tol: float, cfg: Config) -> Optional[bool]:
    """Whether q1 lies at or below the curve of a descent cell at q0, or
    within its window: True or False, or None when q1 lies within the
    window of a curve whose cell is not a formula cell.

    Where q0 lies in a formula cell for sure (near empty), the curve is
    the root in q1 of the node function, which decreases in q1, so one
    certified sign at q1 - window decides, window = max(tol, cfg.tol).
    Other cells solve the curve's bracket and compare q1 with it, the
    window being max(tol, width)."""
    if cell.key is not None and not cell.near:
        y = q1 - max(tol, cfg.tol)
        return y <= 1.0 or _sign(_node_f(cell.node, cell.key), q0, y, cfg.precision) >= 0
    value = _solve(cell, q0, cfg).value
    if abs(q1 - float(value.mid)) <= max(tol, value.width):
        return True if cell.key is not None else None
    return q1 < value.mid


def _g_cell(q0: float, cfg: Config) -> _Cell:
    """The cell of q0 in the G descent over {L,R}* nodes."""
    w = ""
    lo_bound = hi_bound = None  # lazy value bounds for exhaustion
    while len(w) < cfg.max_depth:
        mu1, end1 = node_mu(w, "s0", "s10", cfg)
        if _beyond(q0, mu1, "L"):
            w += "L" * _run_end(w, "L", q0, cfg)
            lo_bound = _spine_bound(w, "s0", cfg)  # G(q0) > G(mu1) = left formula there
            continue
        mu2, end2 = node_mu(w, "s01", "s1", cfg)
        if _beyond(q0, mu2, "R"):
            w += "R" * _run_end(w, "R", q0, cfg)
            hi_bound = _spine_bound(w, "s1", cfg)
            continue
        mu0, end0 = node_mu(w, "s0", "s1", cfg)
        if q0 <= mu0.mid:
            near = _near(q0, (mu1, end1, "s10"), (mu0, end0, "s1"))
            return _Cell("G", w, "s0", Case.LEFT_FORMULA, near, ends=(end1, end0))
        near = _near(q0, (mu0, end0, "s0"), (mu2, end2, "s01"))
        return _Cell("G", w, "s1", Case.RIGHT_FORMULA, near, ends=(end0, end2))
    return _Cell("G", lo_bound=lo_bound, hi_bound=hi_bound)


def _k_cell(q0: float, cfg: Config) -> _Cell:
    """The cell of q0 in the K descent over {L,M,R}* nodes."""
    w = ""
    lo_bound = hi_bound = None
    while len(w) < cfg.max_depth:
        muL1, endL1 = node_mu(w, "s0", "s10", cfg)
        if _beyond(q0, muL1, "L"):
            w += "L" * _run_end(w, "L", q0, cfg)
            lo_bound = _spine_bound(w, "s10", cfg)
            continue
        muR2, endR2 = node_mu(w, "s01", "s1", cfg)
        if _beyond(q0, muR2, "R"):
            w += "R" * _run_end(w, "R", q0, cfg)
            hi_bound = _spine_bound(w, "s01", cfg)
            continue
        muL2, endL2 = node_mu(w, "s010", "s10", cfg)
        if q0 <= muL2.hi + _slack(muL2):
            near = _near(q0, (muL1, endL1, "s0"), (muL2, endL2, "s010"))
            return _Cell("K", w, "s10", Case.LEFT_FORMULA, near, ends=(endL1, endL2))
        muR1, endR1 = node_mu(w, "s01", "s101", cfg)
        if q0 >= muR1.lo - _slack(muR1):
            near = _near(q0, (muR1, endR1, "s101"), (muR2, endR2, "s1"))
            return _Cell("K", w, "s01", Case.RIGHT_FORMULA, near, ends=(endR1, endR2))
        # strictly between the formula intervals: the cell is below node wM
        hi_bound = (w, "s10", muL2.lo, endL2)  # bounds on the proven side, as _spine_bound's
        lo_bound = (w, "s01", muR1.hi, endR1)
        w += "M"
    return _Cell("K", lo_bound=lo_bound, hi_bound=hi_bound)


def _settings(q0: float, max_depth: int | None, config: Config) -> Config:
    """The config of a curve call, q0 checked: config itself, or a copy
    with max_depth in its place, checked by Config's rule, when given."""
    if not 1 < q0 < math.inf:
        raise ValueError("q0 must be finite and exceed 1")
    return config if max_depth is None else replace(config, max_depth=max_depth)


def generalized_golden_ratio(q0: float, max_depth: int | None = None,
                             config: Config = DEFAULT) -> CriticalResult:
    """G(q0): the infimum of bases q1 for which some sequence other than
    0^inf and 1^inf is a unique (q0, q1)-expansion."""
    cfg = _settings(q0, max_depth, config)
    return _solve(_g_cell(q0, cfg), q0, cfg)


def komornik_loreti(q0: float, max_depth: int | None = None,
                    config: Config = DEFAULT) -> CriticalResult:
    """K(q0): the infimum of bases q1 with uncountably many unique
    (q0, q1)-expansions; also the right end of the first entropy plateau."""
    cfg = _settings(q0, max_depth, config)
    return _solve(_k_cell(q0, cfg), q0, cfg)


def kl_fixed_point(tol: float = 1e-9, lo: float = 1.7, hi: float = 1.9,
                   config: Config = DEFAULT) -> Bracket:
    """The unique base q* with K(q*) = q*: the root of the continuous,
    strictly decreasing q -> K(q) - q, by solvers.solve_decreasing from
    the guess [lo, hi], searched outward from lo until the signs at its
    ends differ (a guess off q* costs K evaluations, never correctness).
    Each end is proven by K's whole bracket lying on its side, and
    nudged outward while it does not, so the width is floored by K's
    own brackets (about 8e-13 at the default config).  tol is checked
    by Config's rule."""
    tol = replace(config, tol=tol).tol

    def excess(q: float) -> float:
        return float(komornik_loreti(q, config=config).value.mid) - q

    def proven(q: float, dps) -> float:
        # the side of q that K's bracket proves, else 0; dps None asks
        # for a floats-only proof, which K has not
        if dps is None:
            return 0.0
        value = komornik_loreti(q, config=config).value
        return 1.0 if value.lo > q else -1.0 if value.hi < q else 0.0

    # below 1e-13 a Decimal refinement would converge onto the plateau where
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

    def __str__(self):
        return f"{self.order}  node={self.node}"


def ks_crosscheck(q0, q1, depth: int = 24) -> KsResult:
    """Order of s(a_{q0,q1}) versus s(b_{q0,q1}) from the digit streams.

    Above K(q0) the order is ">", below it "<"; at K the streams agree
    to every depth examined.  Digit arithmetic is exact, so boundary
    hits do not block the verdict.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
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
                 config: Config = DEFAULT) -> list[CurveRow]:
    """Evaluate the critical maps on a uniform grid; rows are independent."""
    if not 1 < q0_lo < q0_hi < math.inf:
        raise ValueError("need 1 < q0_lo < q0_hi < inf")
    if n < 2:
        raise ValueError("need at least two samples")
    if which not in ("gr", "kl", "both"):
        raise ValueError("which must be gr, kl or both")
    rows = []
    for i in range(n):
        q0 = q0_lo + (q0_hi - q0_lo) * i / (n - 1)
        if which in ("gr", "both"):
            r = generalized_golden_ratio(q0, config=config)
            rows.append(CurveRow(q0, "gr", r.value.lo, r.value.hi, r.node, r.case.value))
        if which in ("kl", "both"):
            r = komornik_loreti(q0, config=config)
            rows.append(CurveRow(q0, "kl", r.value.lo, r.value.hi, r.node, r.case.value))
    return rows


def _parse_end(text: str):
    # a float's repr reads back as that float; other text is a Decimal's
    x = float(text)
    return x if repr(x) == text else Decimal(text)


def curve_csv(rows: list[CurveRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([_end_text(r.q0), r.which, _end_text(r.value_lo), _end_text(r.value_hi), r.node, r.case])
    return buf.getvalue()


def parse_curve_csv(text: str) -> list[CurveRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected header {header!r}")
    return [
        CurveRow(_parse_end(q0), which, _parse_end(lo), _parse_end(hi), node, case)
        for q0, which, lo, hi, node, case in reader
    ]
