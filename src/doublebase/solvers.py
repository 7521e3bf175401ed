"""Bracketed root solvers for the base equations.

All roots are reported as closed brackets, never bare points.  Each
function solved here is continuous and strictly monotone on a
half-line (proven properties of the value maps).  Every root in q1,
the critical base, the fixed point of K and the Moran exponent are found
by one certified solve (solve_decreasing): one start search (_step_out)
hands the two ends it evaluated to one Brent loop (bracket_root), which
runs on floats and mpf values alike; from a guess and a slope, secant
steps (_secant) end at two points whose bounded signs prove the bracket.
Every sign is certified by one routine (_sign: a float value above its
proven error bound, which the value functions of series.value_fn carry,
proves its sign; else a multiprecision evaluation at config.precision
digits decides, which is not a proof).  A crossing of two roots is one
Newton solve in two variables (crossing), its ends proven by the signs
of both functions at one corner point each (_corner).

g(u, q0)   -- the unique q1 > 1 with f_u(q0, q1) = 0, or BELOW_ONE
gt(v, q0)  -- the unique q1 > 1 with f~_v(q0, q1) = 0
mu(u, v)   -- the unique crossing g_u(x) = g~_v(x), with
              g_u > g~_v left of the crossing and < right of it

The node formulas and crossings of the critical-value descent use the
same root_q1 and crossing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import mpmath as mp

from .config import DEFAULT, Config
from .series import pi_limit, f_from_pi, f_tilde_from_pi, value_fn, value_pair
from .substitution import LimitWordStream, is_primitive, common_node_image
from .words import Word, sup0, inf1

_FLOAT_TOL_FLOOR = 1e-13


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
    continuous fn with fn(lo) > 0 >= fn(hi): evaluated points (lo, hi)
    with the same signs and hi - lo <= tol, or adjacent representable
    points when tol is below their spacing.  Floats and mpf values (at
    the caller's working precision) run the same code.  Each step is an
    inverse quadratic or secant step when it lands well inside the
    bracket and shrinks it fast enough, else a bisection; steps shorter
    than t = eps*|b| + tol/2 are lengthened to t, and a bracket within
    2t of closing is bisected, so the loop ends even below one ulp.

    Rounding can make fn exactly 0 on a haze of points around the root:
    a zero at b is a valid hi, but the other end c may be far off, and
    interpolation from a zero only steps by t back into the haze.  So
    after a zero the steps from b toward c grow as t, 4t, 16t, ...,
    alternating with bisections of [b, c]: a haze of a few ulps is left
    in a few evaluations, a wide one in about twice bisection's count.
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
    """fn(x, y) or a float of the same sign: at float points the float
    value when it exceeds fn's proven error bound (fn.bounded(x, y) ->
    (value, err), as series.value_fn gives), which proves its sign;
    otherwise fn on mpf inputs at dps digits, or, with dps None (floats
    only), 0.0, which proves no sign."""
    bounded = getattr(fn, "bounded", None)
    if bounded is not None and isinstance(x, float) and isinstance(y, float):
        value, err = bounded(x, y)
        if abs(value) > err:
            return value
    if dps is None:
        return 0.0
    with mp.workdps(dps):
        return fn(mp.mpf(x), mp.mpf(y))


def _outward(x: float, up: bool, step: float, n: int, floor: float):
    """x and the n - 1 points after it stepping outward, above x (up) or
    below it, by step, 2 step, 4 step, ... (never below (x + floor) / 2,
    the root lying above floor)."""
    for _ in range(n):
        yield x
        x = x + step if up else max(x - step, 0.5 * (x + floor))
        step *= 2


def _step_out(fn, floor, lo, p, hi, tol):
    """The ends (lo, hi) that bracket_root returns for the root of a
    strictly decreasing fn, searched from a guess p in an expected
    bracket [lo, hi] (either end may be p; points below floor are raised
    to it), or None when the root lies at or below floor.

    The sign at p picks the side of the root.  The far end on that side
    is hi (or lo) first, taken as it is, then steps out from p, four
    times as far each time, until its sign is right; the first step is
    the guess's width where that end is p.  A step toward the floor
    keeps an eighth of the last point's distance to it, so a root just
    above it is approached geometrically, not jumped over.  Brent's loop
    starts from the two ends evaluated last, so no point is evaluated twice.
    """
    lo, p, hi = (max(y, floor) for y in (lo, p, hi))
    near, fnear = p, fn(p)
    up = fnear > 0  # the root lies above p
    sign = 1 if up else -1
    end = hi if up else lo
    step = max(sign * (end - p) if end != p else hi - lo, tol)
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


def _secant(fn, sign, floor, y, slope, tol, signs):
    """The ends of the root of a strictly decreasing fn from a guess y
    and fn's slope there: a Newton step, secant steps until one is below
    tol / 8, then the points tol / 4 either side of its end, whose
    floats-only signs (sign(., None), put in signs) check the bracket and
    prove it where they can.  A failed step (not finite, near floor, onto
    a point evaluated, a repeated value), no short step in six or a wrong
    sign hands all values taken to _step_out, from the one nearest 0."""
    seen = {y: fn(y)}
    x = y - seen[y] / slope if slope else y
    for _ in range(6):  # the Newton step and five secant steps at most
        lo, hi = x - tol / 4, x + tol / 4
        if not floor < lo < hi < math.inf:
            break
        if len(seen) > 1 and abs(x - y) < tol / 8:
            signs[lo], signs[hi] = sign(lo, None), sign(hi, None)
            if signs[lo] >= 0 >= signs[hi]:
                return lo, hi
            seen.update((z, v) for z, v in signs.items() if v)
            break
        if x in seen:
            break
        seen[x] = fx = fn(x)
        if fx == seen[y]:
            break
        x, y = x + fx * (x - y) / (seen[y] - fx), x
    p = min(seen, key=lambda z: abs(seen[z]))  # the value nearest 0
    return _step_out(lambda z: seen[z] if z in seen else fn(z), floor, min(seen), p, max(seen), tol / 2)


def solve_decreasing(fn, sign, floor: float, start: tuple, tol: float, dps: int) -> Bracket:
    """Bracket the root of a strictly decreasing function to tol, or
    [1, floor] when it lies at or below floor: the one certified solve,
    behind root_q1, critical_base, critical.kl_fixed_point and the Moran
    exponent of spectral.

    fn is the float evaluation, sign(y, dps) the certified sign (_sign;
    with dps None a sign that only proves, 0 where it cannot).  The
    float search brackets the root to half of the budget max(tol,
    1e-13), by _secant from start = (p, slope), a guess and fn's slope
    there, or by _step_out from start = (lo, p, hi), a guess in an
    expected bracket.  Each end is then proven in floats, at the end
    (where _secant took its sign, not again) or one nudge outward by
    the unused budget less one ulp, half of it at the lower end, which
    is proven first (at the default tol about 100 times the float
    noise), and only then signed at dps digits, stepping outward by half
    the unused budget (the bracket's width where none is left),
    doubling, while that cannot certify it.  Below 1e-13 the same Brent
    loop refines the certified bracket at mpf points.
    """
    budget = max(tol, _FLOAT_TOL_FLOOR)
    signs = {}
    ends = (_secant(fn, sign, floor, *start, budget, signs) if len(start) == 2
            else _step_out(fn, floor, *start, budget / 2))
    if ends is None:
        return Bracket(1.0, floor)
    lo, hi = ends

    def end(x: float, up: bool) -> float:
        spare = budget - (hi - lo) - math.ulp(hi)
        pad = spare if up else spare / 2  # the upper end, proven last, may take all of it
        value = signs.get(x)
        for at, points in ((None, _outward(x, up, pad, 2 if pad > 0 else 1, floor)),
                           (dps, _outward(x, up, spare / 2 if spare > 0 else max(hi - lo, 1e-15), 80, floor))):
            for y in points:
                value = sign(y, at) if value is None else value
                if value < 0 if up else value > 0:
                    return y
                value = None
        raise ArithmeticError(f"could not certify {'upper' if up else 'lower'} bracket endpoint")

    if not signs.get(lo, 0) > 0 > signs.get(hi, 0):  # else _secant proved both
        lo = end(lo, False)
        hi = end(hi, True)
    if tol < _FLOAT_TOL_FLOOR:
        with mp.workdps(dps):
            lo, hi = bracket_root(lambda y: sign(y, dps), mp.mpf(lo), mp.mpf(hi), tol)
    return Bracket(lo, hi)


# ----------------------------------------------------------------------
# domain validation
# ----------------------------------------------------------------------


def in_W(u: Word) -> bool:
    """u is a sup0-fixed word, not eventually constant."""
    return len(u.per) > 1 and sup0(u) == u


def in_W_tilde(v: Word) -> bool:
    return len(v.per) > 1 and inf1(v) == v


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
    below it, by solve_decreasing from a start: a guess and fn's slope
    in q1 there (p, slope), a guess in an expected bracket (lo, p, hi),
    or cold from that floor with q0/(q0 - 1) + 1 (above the root of every
    value function met here) as the first upper end.  q0 may be an mpf:
    the float search then runs at float(q0), the signs at q0 itself."""
    qf = float(q0)
    floor = 1.0 + min(tol, 1e-12)
    return solve_decreasing(lambda y: fn(qf, y),  # one lambda a line: a profile keys code by (file, line, name)
                            lambda y, dps: _sign(fn, q0, y, dps),
                            floor, start or (floor, floor, qf / (qf - 1) + 1.0), tol, dps)


def g(u, q0: float, tol: float | None = None, config: Config = DEFAULT):
    """The unique q1 > 1 with f_u(q0, q1) = 0, or BELOW_ONE when
    f_u(q0, 1) <= 0 (i.e. q0 at or past the critical base of u)."""
    tol = config.tol if tol is None else tol
    if isinstance(u, Word) and not in_W(u):
        raise PreconditionError(f"{u} is not sup0-fixed aperiodic-tail (not in W)")
    fu = _value_fn(u, False)
    if not 1 < q0 < math.inf:
        raise PreconditionError("q0 must be finite and exceed 1")
    if fu(q0, 1.0) <= 0:
        return BELOW_ONE
    return root_q1(fu, q0, tol, config.precision)


def g_tilde(v, q0: float, tol: float | None = None, config: Config = DEFAULT) -> Bracket:
    """The unique q1 > 1 with f~_v(q0, q1) = 0; exists for every q0 > 1."""
    tol = config.tol if tol is None else tol
    if isinstance(v, Word) and not in_W_tilde(v):
        raise PreconditionError(f"{v} is not inf1-fixed aperiodic-tail (not in W~)")
    if not 1 < q0 < math.inf:
        raise PreconditionError("q0 must be finite and exceed 1")
    return root_q1(_value_fn(v, True), q0, tol, config.precision)


def critical_base(u, tol: float | None = None, config: Config = DEFAULT) -> Bracket:
    """The base q_u with f_u(q_u, 1) = 0: g_u(q0) > 1 exactly on (1, q_u)."""
    tol = config.tol if tol is None else tol
    fu = _value_fn(u, False)
    floor = 1.0 + 1e-9
    return solve_decreasing(lambda x: fu(x, 1.0),  # one lambda a line, as in root_q1
                            lambda x, dps: _sign(fu, x, 1.0, dps),
                            floor, (floor, floor, 4.0), tol, config.precision)


def _validate_mu_pair(u, v):
    if isinstance(u, LimitWordStream) and isinstance(v, LimitWordStream):
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


def _corner(fu, fv, x, y, dps: int | None) -> int:
    """The side of x relative to the crossing of g_u and g~_v (the roots
    in q1 of fu(x, .) and fv(x, .)) by the signs _sign certifies at the
    one point (x, max(y, 1)) (dps None: floats only): +1 left of it
    (g_u > g~_v), -1 right of it, 0 too close to call.  Both functions
    decrease in q1, so fu > 0 > fv means g_u > y > g~_v and fu < 0 < fv
    the reverse (the monotone case of Poincare-Miranda, Miranda 1940);
    fu(x, 1) < 0, a third sign taken only when those do not decide,
    means g_u = 1 < g~_v, past the critical base of fu."""
    y = max(y, 1.0)
    at_u = _sign(fu, x, y, dps)
    if at_u == 0:
        return 0
    at_v = _sign(fv, x, y, dps)
    if at_u > 0:
        return 1 if at_v < 0 else 0
    return -1 if at_v > 0 or _sign(fu, x, 1.0, dps) < 0 else 0


def _newton(both, start=None):
    """Damped Newton (Kantorovich 1948) on both(x, y) = (0, 0) in x and
    p = (x - 1)(y - 1): the end point (x, p) and the forward-difference
    Jacobian (fu_x, fu_p, fv_x, fv_p) there.  Cold it starts from
    (1.5, 0.45) (the product chain holds p in [1/(x+1), x/(x+1)) on
    both curves); from start = (x, p, fu_x, fu_p, fv_x, fv_p), a nearby
    crossing's end, the first step takes that Jacobian and every later
    one its own.  Steps are cut to keep an eighth of x - 1 and of p at
    least, as _step_out steps toward a floor; after a step below 1e-10
    of both, one more with the same Jacobian ends.  Where the curves run
    parallel x steps out, y kept: to an eighth of x - 1 where the linear
    model puts g_u below g~_v, else to four times it.  x - 1 below 1e-15
    raises PreconditionError, and no end after 60 steps ArithmeticError.
    """
    x, p = start[:2] if start else (1.5, 0.45)
    close = False
    for i in range(60):
        if x - 1 < 1e-15:
            raise PreconditionError("no crossing found above 1")
        a, b = both(x, 1 + p / (x - 1))
        if i == 0 and start:  # a start's Jacobian serves its first step only
            jac = start[2:]
        elif not close:
            hx, hp = 2.0 ** -26 * (x - 1), 2.0 ** -26 * p  # relative steps of the forward differences
            ax, bx = both(x + hx, 1 + p / (x + hx - 1))
            ap, bp = both(x, 1 + (p + hp) / (x - 1))
            jac = (ax - a) / hx, (ap - a) / hp, (bx - b) / hx, (bp - b) / hp
        ux, up, vx, vp = jac
        det = ux * vp - up * vx
        if not abs(det) > 1e-9 * (abs(ux * vp) + abs(up * vx)):
            scale = 4.0 if a * vp < b * up else 0.125  # g_u above g~_v: the crossing is above x
            x, p = 1 + scale * (x - 1), scale * p
            continue
        dx, dp = (b * up - a * vp) / det, (a * vx - b * ux) / det
        if close:
            return x + dx, p + dp, jac
        t = min(1.0, -0.875 * (x - 1) / dx if dx < 0 else 1.0, -0.875 * p / dp if dp < 0 else 1.0)
        x, p = x + t * dx, p + t * dp
        close = (i > 0 or not start) and abs(t * dx) < 1e-10 * x and abs(t * dp) < 1e-10 * p
    raise ArithmeticError("Newton's steps found no crossing")


def crossing(fu, fv, tol: float, dps: int, start=None) -> tuple[Bracket, tuple]:
    """The unique x > 1 where the roots in q1 of fu(x, .) and fv(x, .)
    cross, fu an f and fv an f~ function of (q0, q1): g_u > g~_v left of
    it and < right of it, as a bracket, and Newton's end (x, p, fu_x,
    fu_p, fv_x, fv_p), a start for a nearby crossing.  One Newton solve
    (_newton, both functions from one evaluation by series.value_pair)
    gives a point (x, p), from start or cold; a start that ends in no
    crossing is solved again cold.  Each end is the first x -/+ d that
    _corner proves, p on the line of the curves' mean slope through the
    point, d growing in floats from 2.5e-14 x by 1.25 up to tol / 2.
    What floats cannot close (tol below 1e-13, functions without a float
    bound such as limit-word streams, an end open at tol / 2) takes a
    Newton step at dps digits and mp corners at d = tol / 4, again while
    they do not decide; the ends stay floats unless tol is below 1e-13.
    """
    both = value_pair(fu, fv)
    try:
        x, p, (ux, up, vx, vp) = _newton(both, start)
    except (PreconditionError, ArithmeticError):
        if start is None:
            raise
        x, p, (ux, up, vx, vp) = _newton(both)
    end = (x, p, ux, up, vx, vp)
    slope = -0.5 * (ux / up + vx / vp)  # dp/dx halfway between the curves

    def ends(x, p, ds, dps):
        found = []
        for side in (1, -1):  # the left end is proven left of the crossing
            for d in ds:
                end = x - side * d
                if _corner(fu, fv, end, 1 + (p - side * slope * d) / (end - 1), dps) == side:
                    found.append(end)
                    break
            else:
                return None
        return Bracket(*found)

    floats = tol >= _FLOAT_TOL_FLOOR
    half = min(tol, x - 1) / 2  # ends within tol of each other, and above 1
    cap = half - math.ulp(x)
    grown = [d for d in (2.5e-14 * x * 1.25 ** k for k in range(40)) if d < cap] + [cap]
    if floats and cap > 0 and (br := ends(x, p, grown, None)):
        return br, end
    det = ux * vp - up * vx
    with mp.workdps(dps):
        d = max(half / 2, 2 * math.ulp(x)) if floats else mp.mpf(half) / 2
        x, p = mp.mpf(x), mp.mpf(p)
        for _ in range(4):
            a, b = both(x, 1 + p / (x - 1))
            x, p = x + (b * up - a * vp) / det, p + (a * vx - b * ux) / det
            if (br := ends(float(x) if floats else x, p, [d], dps)):
                return br, end
    raise ArithmeticError("could not certify the crossing's ends")


def mu(u, v, tol: float | None = None, config: Config = DEFAULT) -> Bracket:
    """The unique x > 1 where g_u and g~_v cross (see :func:`crossing`)."""
    tol = config.tol if tol is None else tol
    _validate_mu_pair(u, v)
    return crossing(_value_fn(u, False), _value_fn(v, True), tol, config.precision)[0]
