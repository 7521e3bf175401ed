"""Bracketed root solvers for the base equations.

All roots are reported as closed brackets, never bare points.  Each
function solved here is continuous and strictly monotone on a
half-line (proven properties of the value maps), and every root, in q1
or in x, is found by one certified solve (solve_decreasing): one start
search (_step_out) hands the two ends it evaluated to one Brent loop
(bracket_root, Brent's zeroin), which runs on floats and on mpf values
alike; the float ends are certified (_certify) by one sign routine
(_sign: a float value above its proven error bound, which the value
functions of series.value_fn carry, proves a sign; otherwise a
multiprecision evaluation at config.precision digits decides it, which
is not a proof).  A root's end within float noise of the root is proven
in floats one nudge outward, within tol, before any mp sign is taken;
crossings sign their ends by side.  Below 1e-13 the same Brent loop
refines the bracket in multiprecision.

g(u, q0)   -- the unique q1 > 1 with f_u(q0, q1) = 0, or BELOW_ONE
gt(v, q0)  -- the unique q1 > 1 with f~_v(q0, q1) = 0
mu(u, v)   -- the unique crossing g_u(x) = g~_v(x), with
              g_u > g~_v left of the crossing and < right of it
side(...)  -- the side of a float x relative to such a crossing, by
              certified signs: +1 left, -1 right, 0 too close

All of them, and the node formulas and crossings of the critical-value
descent, go through one q1-root routine (root_q1) and one crossing
solver (crossing) on value functions of (q0, q1); critical_base and the
Moran exponent of spectral use the same search.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass

import mpmath as mp

from .config import Config, resolve
from .series import pi_limit, f_from_pi, f_tilde_from_pi, value_fn
from .substitution import Directive, is_primitive, common_node_image
from .words import Word, sup0, inf1

_FLOAT_TOL_FLOOR = 1e-13
_FLOAT_Q1_TOL = 1e-15  # crossing's float roots in q1, at about the float spacing


class PreconditionError(ValueError):
    """Solver input outside the domain where the root is known unique."""


@dataclass(frozen=True)
class Bracket:
    """Closed interval [lo, hi] certified to contain the root.

    Endpoints are floats at default tolerances; tolerances below the
    float64 floor keep the multiprecision endpoints so the width stays
    meaningful.
    """

    lo: float
    hi: float

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi

    def __str__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


class _BelowOne:
    """Returned by g when f_u(q0, 1) <= 0, encoding g_u(q0) = 1."""

    def __repr__(self):
        return "BELOW_ONE"


BELOW_ONE = _BelowOne()


def bracket_root(fn, lo, hi, tol):
    """Brent's zeroin (Brent 1973, ch. 4, after Dekker 1969) on a
    continuous fn with fn(lo) > 0 >= fn(hi): returns evaluated points
    (lo, hi) with the same signs and hi - lo <= tol, or adjacent
    representable points when tol is below their spacing.

    Floats and mpf values (at the caller's working precision) run the
    same code.  Each step takes an inverse quadratic or secant step when
    it lands well inside the bracket and shrinks it fast enough, else
    bisects; steps shorter than t = eps*|b| + tol/2 are lengthened to t,
    and a bracket within 2t of closing is bisected, so the loop ends
    even when tol is below one ulp of the root.

    Rounding can make fn exactly 0 on a haze of points around the root.
    An exact zero at b is a valid hi, but the other end c may still be
    far off, and interpolation from a zero only gives steps of t back
    into the haze.  So after a zero the steps from b toward c grow as
    t, 4t, 16t, ..., alternating with bisections of [b, c]: a haze of a
    few ulps is left in a few evaluations, and a wide one costs at most
    about twice as many as bisection.
    """
    return _zeroin(fn, lo, fn(lo), hi, fn(hi), tol)


def _zeroin(fn, a, fa, b, fb, tol):
    """bracket_root from ends a, b already evaluated: fa = fn(a) > 0 >= fb = fn(b)."""
    eps = 2 * mp.eps if isinstance(a, mp.mpf) else sys.float_info.epsilon
    c, fc = a, fa
    d = e = b - a
    z, galloped = 0, False  # the step out of a haze of exact zeros
    while True:
        if (fb > 0) == (fc > 0):  # keep c on the other side of the root
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):  # b is the better of the two ends
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        m = 0.5 * (c - b)
        mid = b + m
        if abs(c - b) <= tol or mid == b or mid == c:
            break
        t = eps * abs(b) + 0.5 * tol
        if fb == 0:  # steps of t, 4t, 16t, ... from b toward c, between bisections
            galloped = not galloped
            z = 2 * z or t
            e = d = (z if m > 0 else -z) if galloped else m
        elif abs(m) > t and abs(e) >= t and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2 * m * s, 1 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2 * m * q * (q - r) - (b - a) * (r - 1))
                q = (q - 1) * (r - 1) * (s - 1)
            if p > 0:
                q = -q
            p = abs(p)
            if 2 * p < min(3 * m * q - abs(t * q), abs(e * q)):
                e, d = d, p / q
            else:
                e = d = m
        else:
            e = d = m  # bisection
        if abs(m) > t and abs(d) <= t:
            d = t if m > 0 else -t
        x = b + d
        if not min(b, c) < x < max(b, c):
            x = mid
        a, fa = b, fb
        b, fb = x, fn(x)
    return (b, c) if fb > 0 else (c, b)


def _sign(fn, x, y, dps: int | None):
    """fn(x, y) or a float of the same sign: where fn carries a proven
    error bound (fn.bounded(x, y) -> (value, err), as the value
    functions of series.value_fn do) and x and y are floats, the float
    value when |value| > err, which proves its sign; otherwise, as for
    every function without a bound and every mpf point, fn on mpf
    inputs at dps digits, or, with dps None (floats only), 0.0, which
    proves no sign."""
    bounded = getattr(fn, "bounded", None)
    if bounded is not None and isinstance(x, float) and isinstance(y, float):
        value, err = bounded(x, y)
        if abs(value) > err:
            return value
    if dps is None:
        return 0.0
    with mp.workdps(dps):
        return fn(mp.mpf(x), mp.mpf(y))


def _outward(x: float, up: bool, step: float, n: int):
    """x and the n - 1 points after it stepping outward, above x (up) or
    below it, by step, 2 step, 4 step, ... (never below (x + 1) / 2, the
    functions being roots in a base > 1)."""
    for _ in range(n):
        yield x
        x = x + step if up else max(x - step, 0.5 * (x + 1.0))
        step *= 2


def _certify(sign, lo: float, hi: float, proven=None, budget: float = 0.0) -> tuple[float, float]:
    """Verify sign(lo) > 0 > sign(hi), sign giving a certified sign at a
    float point (from _sign or side), nudging endpoints outward past any
    float rounding haze near the root: each end steps out by the
    bracket's width, doubling, until its sign is certified.

    proven, when given, is a sign that only proves (0 where it cannot,
    as _sign with dps None): each end first tries it at the end and at
    the end moved outward by half of what the bracket leaves unused of
    the width budget (less one ulp, so the rounded ends stay within
    it), and only when both stay open does it take sign and the
    doubling steps from the end."""
    def end(x: float, up: bool) -> float:
        tries = []
        if proven is not None:
            pad = (budget - (hi - lo)) / 2 - math.ulp(hi)
            tries.append((proven, _outward(x, up, pad, 2 if pad > 0 else 1)))
        tries.append((sign, _outward(x, up, max(hi - lo, 1e-15), 80)))
        for at, points in tries:
            for y in points:
                value = at(y)
                if value < 0 if up else value > 0:
                    return y
        raise ArithmeticError(f"could not certify {'upper' if up else 'lower'} bracket endpoint")

    lo = end(lo, False)
    hi = end(hi, True)
    return lo, hi


def _step_out(fn, floor, lo, p, hi, tol):
    """The ends (lo, hi) that bracket_root returns for the root of a
    strictly decreasing fn, searched from a guess p in an expected
    bracket [lo, hi] (either end may be p; points below floor are raised
    to it), or None when the root lies at or below floor.

    The sign at p picks the side of the root.  The far end on that side
    is hi (or lo) first, taken as it is, and then steps
    out from p, four times as far each time, until its sign is right;
    a step toward the floor keeps an eighth of the last point's distance
    to floor, so a root just above it is approached geometrically, not
    jumped over.  The Brent loop starts from the two ends the search
    evaluated last, so no point is evaluated twice.
    """
    lo, p, hi = (max(y, floor) for y in (lo, p, hi))
    near, fnear = p, fn(p)
    up = fnear > 0  # the root lies above p
    sign = 1 if up else -1
    end = hi if up else lo
    step = max(sign * (end - p), tol)
    far = None if end == p else end
    for _ in range(200):
        if not up and near <= floor:
            return None
        if far is None:
            far = p + step if up else max(p - step, floor + (near - floor) / 8)
        ffar = fn(far)
        if (ffar > 0) != up:
            return _zeroin(fn, *((near, fnear, far, ffar) if up else (far, ffar, near, fnear)), tol)
        near, fnear, far, step = far, ffar, None, 4 * step
    raise ArithmeticError("no sign change found while expanding the bracket")


def solve_decreasing(fn, fn_mp, floor: float, start: tuple[float, float, float], tol: float,
                     dps: int, proven=None) -> Bracket | None:
    """Bracket the root of a strictly decreasing function to tol, or None
    when it lies at or below floor: the one certified solve, behind
    root_q1, critical_base and crossing.

    fn is the float64 evaluation, fn_mp the certified one: at a float
    point a number of the certified sign of the function, at an mpf
    point its value at dps digits; proven, when given, a sign at float
    points that only proves (0 where it cannot).  The float search
    (_step_out, from the guess start = (lo, p, hi)) brackets the root to
    half of the budget max(tol, 1e-13), and _certify spends the rest on
    the ends: an end that lands within float noise of the root, where
    proven cannot decide its sign, is proven one nudge outward instead,
    by half the unused budget (at the default tol about 100 times the
    noise).  Only an end that proven leaves open at both points is
    signed by fn_mp and nudged outward, doubling, while that cannot
    certify it.  Below 1e-13 the same Brent loop then refines the
    certified bracket on fn_mp at mpf points.
    """
    budget = max(tol, _FLOAT_TOL_FLOOR)
    ends = _step_out(fn, floor, *start, budget / 2)
    if ends is None:
        return None
    flo, fhi = _certify(fn_mp, *ends, proven, budget)
    if tol < _FLOAT_TOL_FLOOR:
        with mp.workdps(dps):
            flo, fhi = bracket_root(fn_mp, mp.mpf(flo), mp.mpf(fhi), tol)
    return Bracket(flo, fhi)


def _q1_search(x: float, tol: float) -> tuple[float, float]:
    """The floor 1 + min(tol, 1e-12) of a root in q1 at x, at or below
    which the root counts as 1, and x/(x-1) + 1, the first upper end of
    a cold search from the floor (above the root for every value
    function met here)."""
    return 1.0 + min(tol, 1e-12), x / (x - 1) + 1.0


def _float_q1(fn, x: float, tol: float, near=None) -> float:
    """The root in q1 of fn(x, .) to tol in floats, 1.0 when it is at or
    below 1 (past the critical base of an f function).  It starts cold
    as _q1_search sets it up, or from a guess near = (lo, p, hi) as
    _step_out does."""
    floor, hi = _q1_search(x, tol)
    ends = _step_out(lambda y: fn(x, y), floor, *(near or (floor, floor, hi)), tol)
    return 1.0 if ends is None else 0.5 * (ends[0] + ends[1])


# ----------------------------------------------------------------------
# domain validation
# ----------------------------------------------------------------------


def in_W(u: Word) -> bool:
    """u is a sup0-fixed word, not eventually constant."""
    return len(u.per) > 1 and sup0(u) == u


def in_W_tilde(v: Word) -> bool:
    return len(v.per) > 1 and inf1(v) == v


def _is_limit_stream(x) -> bool:
    return hasattr(x, "directive") and isinstance(getattr(x, "directive"), Directive)


def _value_fn(u, tilde: bool):
    """f_u(q0, q1), or f~_u with tilde, of a word (series.value_fn, with
    a proven float error bound) or of a limit word (pi_limit, without)."""
    if isinstance(u, Word):
        return value_fn((), u, tilde)
    from_pi = f_tilde_from_pi if tilde else f_from_pi
    return lambda q0, q1: from_pi(pi_limit(u.directive, u.seed, q0, q1), q0, q1)


# ----------------------------------------------------------------------
# public solvers
# ----------------------------------------------------------------------


def root_q1(fn, q0, tol: float, dps: int, start=None) -> Bracket:
    """The unique q1 > 1 with fn(q0, q1) = 0, fn strictly decreasing in
    q1, or [1, 1 + min(tol, 1e-12)] when the root lies that close to 1 or
    below it.  The float search starts cold from the floor, or from a
    guess start = (lo, p, hi) as _step_out takes it.  The ends are
    certified by _sign: proven in floats where fn carries an error bound
    that decides, at the end or one nudge outward within tol, and only
    otherwise signed in mp.  q0 may be an mpf: the float stage then runs
    at float(q0), and the certification and any multiprecision
    refinement in mp at q0 itself."""
    qf = float(q0)
    floor, hi = _q1_search(qf, tol)
    br = solve_decreasing(lambda y: fn(qf, y), lambda y: _sign(fn, q0, y, dps), floor,
                          start or (floor, floor, hi), tol, dps,
                          proven=lambda y: _sign(fn, q0, y, None))
    return Bracket(1.0, floor) if br is None else br


def g(u, q0: float, tol: float | None = None, config: Config | None = None):
    """The unique q1 > 1 with f_u(q0, q1) = 0, or BELOW_ONE when
    f_u(q0, 1) <= 0 (i.e. q0 at or past the critical base of u)."""
    cfg = resolve(config)
    tol = cfg.tol if tol is None else tol
    if isinstance(u, Word) and not in_W(u):
        raise PreconditionError(f"{u} is not sup0-fixed aperiodic-tail (not in W)")
    fu = _value_fn(u, False)
    if not 1 < q0 < math.inf:
        raise PreconditionError("q0 must be finite and exceed 1")
    if fu(q0, 1.0) <= 0:
        return BELOW_ONE
    return root_q1(fu, q0, tol, cfg.precision)


def g_tilde(v, q0: float, tol: float | None = None, config: Config | None = None) -> Bracket:
    """The unique q1 > 1 with f~_v(q0, q1) = 0; exists for every q0 > 1."""
    cfg = resolve(config)
    tol = cfg.tol if tol is None else tol
    if isinstance(v, Word) and not in_W_tilde(v):
        raise PreconditionError(f"{v} is not inf1-fixed aperiodic-tail (not in W~)")
    if not 1 < q0 < math.inf:
        raise PreconditionError("q0 must be finite and exceed 1")
    return root_q1(_value_fn(v, True), q0, tol, cfg.precision)


def critical_base(u, tol: float | None = None, config: Config | None = None) -> Bracket:
    """The base q_u with f_u(q_u, 1) = 0: g_u(q0) > 1 exactly on (1, q_u)."""
    cfg = resolve(config)
    tol = cfg.tol if tol is None else tol
    fu = _value_fn(u, False)
    floor = 1.0 + 1e-9
    br = solve_decreasing(lambda x: fu(x, 1.0), lambda x: _sign(fu, x, 1.0, cfg.precision), floor,
                          (floor, floor, 4.0), tol, cfg.precision,
                          proven=lambda x: _sign(fu, x, 1.0, None))
    return Bracket(1.0, floor) if br is None else br


def _validate_mu_pair(u, v):
    if _is_limit_stream(u) and _is_limit_stream(v):
        du, dv = u.directive, v.directive
        if du != dv or not is_primitive(du):
            raise PreconditionError("limit-word mu needs one primitive directive for both words")
        if (u.seed, v.seed) != ("0", "1"):
            raise PreconditionError("limit-word mu needs seeds 0 (left) and 1 (right)")
        return
    if not (isinstance(u, Word) and isinstance(v, Word)):
        raise PreconditionError("mu needs two words or two matching limit-word streams")
    if not in_W(u):
        raise PreconditionError(f"{u} not in W")
    if not in_W_tilde(v):
        raise PreconditionError(f"{v} not in W~")
    if not common_node_image(u, v):
        raise PreconditionError(
            f"({u}, {v}) are not images of a common {{L,R}}*M substitution node; "
            "the crossing is not known to be unique"
        )


def side(fu, fv, x: float, dps: int) -> int:
    """The side of a float x relative to the crossing of g_u (the root
    in q1 of fu(x, .)) and g~_v (of fv(x, .)), from signs certified by
    _sign (proven in floats where the error bound decides, else at dps
    digits): +1 left of it (g_u(x) > g~_v(x)), -1 right of it, 0 when
    too close to call.

    Both functions are strictly decreasing in q1, so at any y >= 1
    between the two roots the signs of fu(x, y) and fv(x, y) order
    them: fu > 0 > fv means g_u > y > g~_v, and fu < 0 < fv means
    g_u < y < g~_v.  y is the midpoint of the two float roots
    (_float_q1: g_u cold, g~_v from a guess at g_u, near which it lies
    at a crossing end).  Past the critical base of fu, where
    fu(x, 1) <= 0, g_u is taken as 1 and x is right of the crossing;
    that third sign is needed only when the two at y do not decide.
    """
    yu = _float_q1(fu, x, _FLOAT_Q1_TOL)
    y = 0.5 * (yu + _float_q1(fv, x, _FLOAT_Q1_TOL, near=(yu, yu, yu)))
    at_u, at_v = _sign(fu, x, y, dps), _sign(fv, x, y, dps)
    if at_u > 0 > at_v:
        return 1
    if at_u < 0 < at_v or (at_v <= 0 and _sign(fu, x, 1.0, dps) <= 0):
        return -1
    return 0


def crossing(fu, fv, tol: float, dps: int) -> Bracket:
    """The unique x > 1 where the roots in q1 of fu(x, .) and fv(x, .)
    cross, fu being an f and fv an f~ function of (q0, q1): the root of
    the discriminant -f~_v(x, g_u(x)), which has the sign of
    g_u(x) - g~_v(x), by solve_decreasing from x = 1.5 (first ends 1.0625
    and 2, floor 1 + 1e-15; no crossing above it raises
    PreconditionError).

    In floats g_u(x) is a root at about the float spacing, started
    between the roots already solved at the nearest x on both sides
    (g_u decreases in x), and 1 past the critical base of fu, which keeps
    the discriminant continuous and negative there.  A float end is
    certified by side, which solves g_u cold: within the haze of exact
    zeros a float root depends on its start bracket.  At an mpf point
    the discriminant takes g_u(x) from root_q1 in mp and its sign from
    _sign.
    """
    xs, ys = [], []  # the x solved so far in increasing order, and g_u there

    def gu(x: float) -> float:
        i = bisect.bisect(xs, x)
        near = None
        if 0 < i < len(xs) and ys[i] > 1.0:
            # g_u decreases in x: start between the neighbours' roots
            xl, xr = xs[i - 1], xs[i]
            hi, lo = ys[i - 1], ys[i]
            near = (lo, lo + (hi - lo) * (xr - x) / (xr - xl), hi)
        y = _float_q1(fu, x, _FLOAT_Q1_TOL, near)
        xs.insert(i, x)
        ys.insert(i, y)
        return y

    def disc(x: float) -> float:
        # > 0 while g_u(x) > g~_v(x) (left of the crossing), else <= 0
        return -fv(x, gu(x))

    def certified(x):
        if isinstance(x, float):
            return side(fu, fv, x, dps)
        return -_sign(fv, x, root_q1(fu, x, tol * 1e-4, dps).mid, dps)

    br = solve_decreasing(disc, certified, 1.0 + 1e-15, (1.0625, 1.5, 2.0), tol, dps)
    if br is None:
        raise PreconditionError("no crossing found above 1")
    return br


def mu(u, v, tol: float | None = None, config: Config | None = None) -> Bracket:
    """The unique x > 1 where g_u and g~_v cross (see :func:`crossing`)."""
    cfg = resolve(config)
    tol = cfg.tol if tol is None else tol
    _validate_mu_pair(u, v)
    return crossing(_value_fn(u, False), _value_fn(v, True), tol, cfg.precision)
