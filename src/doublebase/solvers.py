"""Bracketed root solvers for the base equations.

All roots are reported as closed brackets, never bare points.  The
functions solved here are continuous and strictly monotone (proven
properties of the value maps), so one bracketing routine, Brent's
zeroin (bracket_root), serves every level: it keeps a sign-verified
bracket and converges superlinearly, falling back to bisection when an
interpolation step would not shrink the bracket fast enough.  The same
code runs on floats and on mpf values.  A float64 solve does the bulk
of the work and the endpoint signs are then re-verified in
multiprecision arithmetic (config.precision decimal digits); tolerances
below the float64 floor continue in multiprecision from the certified
float bracket.

g(u, q0)   -- the unique q1 > 1 with f_u(q0, q1) = 0, or BELOW_ONE
gt(v, q0)  -- the unique q1 > 1 with f~_v(q0, q1) = 0
mu(u, v)   -- the unique crossing g_u(x) = g~_v(x), with
              g_u > g~_v left of the crossing and < right of it

All of them, and the node formulas and crossings of the critical-value
descent, go through one q1-root routine (root_q1) and one crossing
solver (crossing) on value functions of (q0, q1).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import mpmath as mp

from .config import Config, resolve
from .series import f, f_tilde, pi_limit, f_from_pi, f_tilde_from_pi
from .substitution import Directive, is_primitive, common_node_image
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
    continuous fn with fn(lo) > 0 >= fn(hi): returns evaluated points
    (lo, hi) with the same signs and hi - lo <= tol, or adjacent
    representable points when tol is below their spacing.

    Floats and mpf values (at the caller's working precision) run the
    same code.  Each step takes an inverse quadratic or secant step when
    it lands well inside the bracket and shrinks it fast enough, else
    bisects; steps shorter than t = eps*|b| + tol/2 are lengthened to t,
    and a bracket within 2t of closing is bisected, so the loop ends
    even when tol is below one ulp of the root.
    """
    eps = 2 * mp.eps if isinstance(lo, mp.mpf) else sys.float_info.epsilon
    a, fa = lo, fn(lo)
    b, fb = hi, fn(hi)
    c, fc = a, fa
    d = e = b - a
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
        if abs(m) > t and abs(e) >= t and abs(fa) > abs(fb):
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


def _certify_mp(fn_mp, lo: float, hi: float, dps: int) -> tuple[float, float]:
    """Verify fn(lo) > 0 > fn(hi) at dps digits, nudging endpoints outward
    past any float rounding haze near the root (never below 1, the
    functions being roots in a base > 1)."""
    with mp.workdps(dps):
        step = max(hi - lo, 1e-15)
        for _ in range(80):
            if fn_mp(mp.mpf(lo)) > 0:
                break
            lo = max(lo - step, 0.5 * (lo + 1.0))
            step *= 2
        else:
            raise ArithmeticError("could not certify lower bracket endpoint")
        step = max(hi - lo, 1e-15)
        for _ in range(80):
            if fn_mp(mp.mpf(hi)) < 0:
                break
            hi += step
            step *= 2
        else:
            raise ArithmeticError("could not certify upper bracket endpoint")
    return lo, hi


def solve_decreasing(fn, fn_mp, lo: float, hi: float, tol: float, dps: int) -> Bracket:
    """Bracket the root of a strictly decreasing function.

    fn is the float64 evaluation, fn_mp the same function on mpf inputs.
    Precondition: fn(lo) > 0 >= fn(hi).
    """
    # half the width, so that one outward nudge of the certification,
    # needed when an end lands within float noise of the root, keeps it
    flo, fhi = bracket_root(fn, lo, hi, max(tol, _FLOAT_TOL_FLOOR) / 2)
    flo, fhi = _certify_mp(fn_mp, flo, fhi, dps)
    if tol < _FLOAT_TOL_FLOOR:
        with mp.workdps(dps):
            flo, fhi = bracket_root(fn_mp, mp.mpf(flo), mp.mpf(fhi), tol)
    return Bracket(flo, fhi)


def expand_upper(fn, hi: float, limit: int = 200) -> float:
    for _ in range(limit):
        if fn(hi) <= 0:
            return hi
        hi *= 2.0
    raise ArithmeticError("no sign change found while expanding the bracket")


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


def _value_fn(u, kind: str):
    """f_u(q0, q1) (kind 'f') or f~_u (kind 'ft') as a generic callable,
    accepting eventually periodic words or periodic-directive limit words."""
    if isinstance(u, Word):
        if kind == "f":
            return lambda q0, q1: f(u, q0, q1)
        return lambda q0, q1: f_tilde(u, q0, q1)
    d, seed = u.directive, u.seed
    if kind == "f":
        return lambda q0, q1: f_from_pi(pi_limit(d, seed, q0, q1), q0, q1)
    # pit via the reflection identity on pi of the same word
    return lambda q0, q1: f_tilde_from_pi(pi_limit(d, seed, q0, q1), q0, q1)


# ----------------------------------------------------------------------
# public solvers
# ----------------------------------------------------------------------


def root_q1(fn, q0: float, tol: float, dps: int) -> Bracket:
    """The unique q1 > 1 with fn(q0, q1) = 0, fn strictly decreasing in
    q1 and positive at q1 = 1 (the caller's precondition)."""
    lo = 1.0 + min(tol, 1e-12)
    if fn(q0, lo) <= 0:
        return Bracket(1.0, lo)
    hi = expand_upper(lambda y: fn(q0, y), q0 / (q0 - 1) + 1.0)
    q0m = mp.mpf(q0)
    return solve_decreasing(
        lambda y: fn(q0, y), lambda y: fn(q0m, y), lo, hi, tol, dps
    )


def g(u, q0: float, tol: float | None = None, config: Config | None = None):
    """The unique q1 > 1 with f_u(q0, q1) = 0, or BELOW_ONE when
    f_u(q0, 1) <= 0 (i.e. q0 at or past the critical base of u)."""
    cfg = resolve(config)
    tol = cfg.tol if tol is None else tol
    if isinstance(u, Word) and not in_W(u):
        raise PreconditionError(f"{u} is not sup0-fixed aperiodic-tail (not in W)")
    fu = _value_fn(u, "f")
    if q0 <= 1:
        raise PreconditionError("q0 must exceed 1")
    if fu(q0, 1.0) <= 0:
        return BELOW_ONE
    return root_q1(fu, q0, tol, cfg.precision)


def g_tilde(v, q0: float, tol: float | None = None, config: Config | None = None) -> Bracket:
    """The unique q1 > 1 with f~_v(q0, q1) = 0; exists for every q0 > 1."""
    cfg = resolve(config)
    tol = cfg.tol if tol is None else tol
    if isinstance(v, Word) and not in_W_tilde(v):
        raise PreconditionError(f"{v} is not inf1-fixed aperiodic-tail (not in W~)")
    if q0 <= 1:
        raise PreconditionError("q0 must exceed 1")
    return root_q1(_value_fn(v, "ft"), q0, tol, cfg.precision)


def critical_base(u, tol: float | None = None, config: Config | None = None) -> Bracket:
    """The base q_u with f_u(q_u, 1) = 0: g_u(q0) > 1 exactly on (1, q_u)."""
    cfg = resolve(config)
    tol = cfg.tol if tol is None else tol
    fu = _value_fn(u, "f")
    lo = 1.0 + 1e-9
    if fu(lo, 1.0) <= 0:
        return Bracket(1.0, lo)
    hi = expand_upper(lambda x: fu(x, 1.0), 4.0)
    return solve_decreasing(
        lambda x: fu(x, 1.0), lambda x: fu(x, mp.mpf(1)), lo, hi, tol, cfg.precision
    )


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


def crossing(fu, fv, tol: float, dps: int) -> Bracket:
    """The unique x > 1 where the roots in q1 of fu(x, .) and fv(x, .)
    cross, fu being an f and fv an f~ function of (q0, q1).

    The outer solve is bracket_root on the discriminant
    -f~_v(x, g_u(x)), continuous and of the sign of g_u(x) - g~_v(x)
    (f~_v is strictly decreasing in q1), with g_u(x) itself an inner
    bracket_root of width 1e-13 (tol * 1e-3 below the float floor); past
    the critical base q_u of fu, where g_u = 1, the discriminant is
    -f~_v(x, 1), which keeps it continuous and negative.  The float
    bracket's endpoints are then certified at dps digits by signs read
    off an inner root refined to 1e-20, nudged outward by _certify_mp,
    which raises ArithmeticError for an end it cannot certify.
    """

    def disc(x: float, inner: float) -> float:
        # > 0 while g_u(x) > g~_v(x) (left of the crossing), else <= 0
        if fu(x, 1.0) <= 0:
            return -fv(x, 1.0)  # x >= q_u, g_u = 1 < g~_v
        hi = expand_upper(lambda y: fu(x, y), 8.0)
        glo, ghi = bracket_root(lambda y: fu(x, y), 1.0 + 1e-12, hi, inner)
        return -fv(x, 0.5 * (glo + ghi))

    def sign_mp(x, inner) -> float:
        # +1 left of the crossing, -1 right of it, certified at dps
        # digits; 0 when too close to call
        with mp.workdps(dps):
            xm, xf = mp.mpf(x), float(x)
            if fu(xm, mp.mpf(1)) <= 0:
                return -1.0
            hi = expand_upper(lambda y: fu(xf, y), 8.0)
            glo, ghi = bracket_root(lambda y: fu(xf, y), 1.0 + 1e-12, hi, 1e-9)
            glo, ghi = _certify_mp(lambda y: fu(xm, y), glo, ghi, dps)
            glo, ghi = bracket_root(lambda y: fu(xm, y), mp.mpf(glo), mp.mpf(ghi), inner)
            s_lo, s_hi = fv(xm, glo), fv(xm, ghi)
            if (s_lo > 0) != (s_hi > 0):
                return 0.0
            return -1.0 if s_lo > 0 else 1.0

    lo = 1.0 + 1e-9
    while not disc(lo, 1e-9) > 0:
        lo = 1.0 + (lo - 1.0) / 100
        if lo - 1.0 < 1e-15:
            raise PreconditionError("no crossing found above 1")
    hi = expand_upper(lambda x: disc(x, 1e-9), 4.0, limit=60)
    inner = 1e-13 if tol >= _FLOAT_TOL_FLOOR else tol * 1e-3
    flo, fhi = bracket_root(lambda x: disc(x, inner), lo, hi, max(tol, _FLOAT_TOL_FLOOR))
    flo, fhi = _certify_mp(lambda x: sign_mp(x, 1e-20), flo, fhi, dps)
    if tol < _FLOAT_TOL_FLOOR:
        with mp.workdps(dps):
            a, b = mp.mpf(flo), mp.mpf(fhi)
            inner_deep = tol * mp.mpf("1e-4")
            while b - a > tol:
                m = (a + b) / 2
                sg = sign_mp(m, inner_deep)
                if sg > 0:
                    a = m
                elif sg < 0:
                    b = m
                else:
                    break
            flo, fhi = a, b
    return Bracket(flo, fhi)


def mu(u, v, tol: float | None = None, config: Config | None = None) -> Bracket:
    """The unique x > 1 where g_u and g~_v cross (see :func:`crossing`)."""
    cfg = resolve(config)
    tol = cfg.tol if tol is None else tol
    _validate_mu_pair(u, v)
    return crossing(_value_fn(u, "f"), _value_fn(v, "ft"), tol, cfg.precision)
