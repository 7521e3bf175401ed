import itertools
import math
import sys
import threading
from decimal import Context, Decimal, localcontext
from functools import lru_cache
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from doublebase import series, solvers
from doublebase.config import Config
from doublebase.critical import _node_f, node_mu
from doublebase.solvers import (
    BELOW_ONE,
    Bracket,
    PreconditionError,
    _corner,
    _sign,
    _step_out,
    bracket_root,
    critical_base,
    crossing,
    g,
    g_tilde,
    mu,
    root_q1,
)
from doublebase.series import f
from doublebase.substitution import apply, limit_word, node_boundaries, parse_directive
from doublebase.words import Word, parse_word

PHI = (1 + 5 ** 0.5) / 2


def poly_root(coeffs, lo, hi, tol=1e-15):
    """Largest-interval bisection root of a polynomial given by coeffs
    (highest degree first); independent check for the golden values."""
    def p(x):
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc

    sign_lo = p(lo) > 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (p(mid) > 0) == sign_lo:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------- g


def test_g_examples():
    assert abs(g(parse_word("(01)"), 1.5).mid - 2.0) < 1e-11
    assert abs(g(parse_word("01(10)"), 2.0).mid - 1.5) < 1e-11
    assert g(parse_word("(01)"), 3.0) is BELOW_ONE
    # the BELOW_ONE case is exactly f(u, q0, 1) <= 0
    assert f(parse_word("(01)"), 3.0, 1.0) < 0


def test_g_closed_forms_L_nodes():
    # g at sigma(0^inf) for sigma = L^k M is 1/(q0^k (q0-1))
    for k in range(3):
        u = apply("L" * k + "M", Word("", "0"))
        for q0 in [1.1, 1.15, 1.2]:
            expected = 1 / (q0 ** k * (q0 - 1))
            assert abs(g(u, q0).mid - expected) < 1e-10


def test_g_tilde_examples():
    assert abs(g_tilde(parse_word("(10)"), 2.0).mid - 1.5) < 1e-11
    assert abs(g_tilde(parse_word("10(01)"), 1.5).mid - 2.0) < 1e-11
    assert abs(g_tilde(parse_word("(10)"), PHI).mid - PHI) < 1e-11


def test_g_tilde_closed_form():
    # g~ at sigma(1^inf) for sigma = L^k M is (q0^(k+2)-1)/(q0^(k+1)(q0-1))
    for k in range(3):
        v = apply("L" * k + "M", Word("", "1"))
        for q0 in [1.2, 1.5, 2.0]:
            expected = (q0 ** (k + 2) - 1) / (q0 ** (k + 1) * (q0 - 1))
            assert abs(g_tilde(v, q0).mid - expected) < 1e-10


def test_solver_consistency():
    # |f(u, q0, mid)| is bounded by the local slope times the bracket width
    u = parse_word("01(0010)")
    q0 = 1.3  # below the critical base of u, so the root exists
    br = g(u, q0)
    slope = abs(f(u, q0, br.hi + 1e-6) - f(u, q0, br.lo - 1e-6)) / (br.width + 2e-6)
    assert abs(f(u, q0, br.mid)) <= slope * max(br.width, 1e-15) + 1e-13


def test_order_structure(rng):
    # g is order preserving in u, g~ order reversing in v
    nodes = ["M", "LM", "LLM", "LRM", "MM", "RM"]
    q0 = 1.05  # below every critical base in play
    gs = []
    for w in nodes:
        u = apply(w, Word("", "0"))
        gs.append((u, g(u, q0).mid))
    for (u1, g1) in gs:
        for (u2, g2) in gs:
            if u1 < u2:
                assert g1 < g2
    q0 = 1.4
    gts = [(apply(w, Word("", "1")), g_tilde(apply(w, Word("", "1")), q0).mid) for w in nodes]
    for (v1, t1) in gts:
        for (v2, t2) in gts:
            if v1 < v2:
                assert t1 > t2


def test_g_precondition():
    with pytest.raises(PreconditionError):
        g(parse_word("0(01)"), 1.5)        # not sup0-fixed
    with pytest.raises(PreconditionError):
        g(Word("", "0"), 1.5)              # eventually constant
    with pytest.raises(PreconditionError):
        g_tilde(parse_word("1(10)"), 1.5)  # not inf1-fixed


def test_critical_base():
    assert abs(critical_base(parse_word("(01)")).mid - 2.0) < 1e-10
    # q_u for u = LM(0^inf): root of f = 0 at q1 = 1, i.e. 1/(q0(q0-1)) = 1
    u = apply("LM", Word("", "0"))
    expected = poly_root([1, -1, -1], 1.0, 3.0)  # q0^2 - q0 - 1 = 0
    assert abs(critical_base(u).mid - expected) < 1e-10


# ---------------------------------------------------------------- mu


def test_mu_golden_values():
    assert abs(mu(parse_word("(01)"), parse_word("(10)")).mid - PHI) < 1e-9
    assert abs(mu(parse_word("(01)"), parse_word("10(01)")).mid - 1.5) < 1e-9
    assert abs(mu(parse_word("01(10)"), parse_word("(10)")).mid - 2.0) < 1e-9


def test_mu_cubic_value():
    # crossing of the LM node: root of x^3 = x + 1
    u = apply("LM", Word("", "0"))
    v = apply("LM", Word("", "1"))
    expected = poly_root([1, 0, -1, -1], 1.0, 2.0)
    assert abs(mu(u, v).mid - expected) < 1e-9
    assert abs(expected - 1.3247) < 1e-4


def test_mu_interval_endpoints_match_polynomials():
    # left end of the K left interval at the root node: x^3 = 3x^2 - 4x + 3
    nb = node_boundaries("")
    got = mu(nb.s010, nb.s10).mid
    expected = poly_root([1, -3, 4, -3], 1.5, 1.75)
    assert abs(got - expected) < 1e-9
    assert abs(got - 1.6823278) < 1e-7
    # left end of the K right interval: 3x^3 = 8x^2 - 5x + 1
    got = mu(nb.s01, nb.s101).mid
    expected = poly_root([3, -8, 5, -1], 1.75, 2.0)
    assert abs(got - expected) < 1e-9
    assert abs(got - 1.8711568) < 1e-7


def test_mu_sign_structure():
    u, v = parse_word("(01)"), parse_word("(10)")
    crossing = mu(u, v)
    for x in [1.2, 1.5, crossing.lo - 1e-6]:
        assert g(u, x).mid > g_tilde(v, x).mid
    for x in [crossing.hi + 1e-6, 1.8]:
        gu = g(u, x)
        gu_mid = 1.0 if gu is BELOW_ONE else gu.mid
        assert gu_mid < g_tilde(v, x).mid


def test_mu_precondition():
    with pytest.raises(PreconditionError):
        mu(Word("", "0"), parse_word("(10)"))
    with pytest.raises(PreconditionError):
        mu(parse_word("(01)"), parse_word("1(0)"))  # eventually constant


def test_mu_limit_word_streams():
    d = parse_directive("(M)")
    tm0, tm1 = limit_word(d, 0), limit_word(d, 1)
    crossing = mu(tm0, tm1)
    # the Thue-Morse crossing is the classical Komornik-Loreti constant
    assert abs(crossing.mid - 1.787231650) < 2e-9
    with pytest.raises(PreconditionError):
        mu(tm0, limit_word(parse_directive("(LR)"), 1))
    with pytest.raises(PreconditionError, match="seeds"):
        mu(tm1, tm0)
    with pytest.raises(PreconditionError, match="two words"):
        mu(parse_word("(01)"), tm1)
    with pytest.raises(PreconditionError, match="common"):
        mu(parse_word("(01)"), parse_word("(100)"))


def test_tight_tolerance_uses_multiprecision():
    # below the float floor the ends are Decimal at the config's digits
    br = g(parse_word("(01)"), 1.5, tol=1e-20, config=Config(precision=40))
    assert isinstance(br.lo, Decimal) and br.width <= 1e-20
    assert abs(br.mid - 2) < 1e-19
    br = mu(parse_word("(01)"), parse_word("(10)"), tol=1e-18, config=Config(precision=40))
    assert isinstance(br.lo, Decimal) and br.width <= 1e-18
    with localcontext(Context(prec=40)):
        assert abs(br.mid - (1 + Decimal(5).sqrt()) / 2) < Decimal("1e-16")


def test_brackets_contain_roots():
    u = parse_word("(01)")
    br = g(u, 1.5)
    assert f(u, 1.5, br.lo) > 0 > f(u, 1.5, br.hi)
    assert br.lo <= br.mid <= br.hi and br.width >= 0
    assert 2.0 in br


def test_g_limit_word_stream():
    # direct g on an aperiodic limit word: at the crossing base, g equals it
    d = parse_directive("(M)")
    tm0 = limit_word(d, 0)
    qkl = mu(tm0, limit_word(d, 1)).mid
    assert abs(g(tm0, qkl).mid - qkl) < 1e-8


def test_mu_deep_tolerance_at_interval_endpoint():
    from doublebase.config import Config

    nb = node_boundaries("")
    br = mu(nb.s01, nb.s101, tol=1e-15, config=Config(precision=35))
    assert br.width <= 1e-15
    expected = poly_root([3, -8, 5, -1], 1.75, 2.0)
    assert abs(br.mid - Decimal(expected)) < 1e-12


# ---------------------------------------------------------------- corner test

SIDE_NODES = ["", "R" * 6, "RRLR", "LMR", "R" * 20]
SIDE_PAIRS = [("s0", "s10"), ("s0", "s1"), ("s01", "s1")]  # the crossings of G


@pytest.mark.parametrize("w", ["", "R", "LMR", "RRLR"])
def test_node_crossings_below_the_float_floor_are_within_tol(w):
    # the Decimal stage refines the certified float bracket on the Brent
    # loop; the root's crossing mu_{s0,s10} lies exactly at 1.5, where the
    # float discriminant is 0 on a haze of points around it
    cfg = Config(tol=1e-20, precision=40)
    for u, v in SIDE_PAIRS:
        br = node_mu(w, u, v, cfg)[0]
        assert isinstance(br.lo, Decimal) and 0 < br.width <= 1e-20, (u, v)
        with localcontext(Context(prec=40)):
            fu, fv = _node_f(w, u), _node_f(w, v)
            for x in (br.lo - Decimal("1e-18"), br.hi + Decimal("1e-18")):
                gu = root_q1(fu, x, 1e-30, 40).mid
                gv = root_q1(fv, x, 1e-30, 40).mid
                assert (gu > gv) == (x < br.lo), (u, v, x)
    assert 1.5 in node_mu("", "s0", "s10", cfg)[0]


MU_CORPUS_NODES = ["", "L", "R", "M", "LR", "RL", "LM", "MR", "LL", "RR", "LMR", "RRLR"]
MU_CORPUS_PAIRS = SIDE_PAIRS + [("s010", "s10"), ("s01", "s101")]  # and those of K


@pytest.mark.parametrize("tol", [1e-12, 1e-13])
def test_word_mu_is_within_tol(tol):
    # one outward nudge of a certified end keeps the bracket within tol,
    # since the float search brackets to half of it
    for w in MU_CORPUS_NODES:
        nb = node_boundaries(w)
        for u, v in MU_CORPUS_PAIRS:
            br = mu(getattr(nb, u), getattr(nb, v), tol=tol)
            assert 0 < br.width <= tol, (w, u, v, br)
    for text in ["(M)", "(LR)", "(LMR)"]:
        d = parse_directive(text)
        br = mu(limit_word(d, 0), limit_word(d, 1), tol=tol)
        assert 0 < br.width <= tol, (text, br)


def _between(fu, fv, x):
    """A q1 halfway between the roots in q1 of fu(x, .) and fv(x, .),
    each solved to 1e-25 (a root at or below 1 counts as 1)."""
    with localcontext(Context(prec=30)):
        return (root_q1(fu, x, 1e-25, 30).mid + root_q1(fv, x, 1e-25, 30).mid) / 2


@pytest.mark.parametrize("w", SIDE_NODES)
@pytest.mark.parametrize("u, v", SIDE_PAIRS)
def test_side_of_node_crossings(w, u, v):
    # the corner test at a q1 between the two roots
    fu, fv = _node_f(w, u), _node_f(w, v)
    m = node_mu(w, u, v)[0]
    # the certified ends, and points 1e-10 relative off the crossing
    for x, side in [(m.lo, 1), (m.hi, -1), (m.mid * (1 - 1e-10), 1), (m.mid * (1 + 1e-10), -1)]:
        assert _corner(fu, fv, x, _between(fu, fv, x), 30) == side, (x, side)
    # past the critical base of u, where g_u = 1 < g~_v
    q_u = critical_base(getattr(node_boundaries(w), u))
    for x in (q_u.hi * (1 + 1e-9), 2 * q_u.hi):
        assert fu(x, 1.0) < 0
        assert _corner(fu, fv, x, _between(fu, fv, x), 30) == -1


def test_side_outcomes_on_linear_functions():
    # g_u = 2/x and g~_v = 1: left of the crossing x = 2
    assert _corner(lambda x, y: 2 - x * y, lambda x, y: 1 - y, 1.5, 7 / 6, 30) == 1
    # a tie below the float spacing is too close to call
    assert _corner(lambda x, y: 2 - x * y, lambda x, y: 2 / x + Decimal("1e-25") - y, 1.5, 4 / 3, 30) == 0
    # g_u = 1/x < 1 is taken as 1, and the evaluations at y = 1 (a y below
    # it is raised to 1) do not separate the roots: fu(x, 1) < 0 alone
    # puts x on the right
    assert _corner(lambda x, y: 1 - x * y, lambda x, y: 1 - y, 1.5, 0.9, 30) == -1


def test_sign_proves_in_floats_only_at_float_points():
    seen = []

    def fn(x, y):
        return 2 - x * y

    def bounded(x, y):
        seen.append((x, y))
        return fn(x, y), bound[0]

    fn.bounded = bounded
    bound = [1e-15]
    # at float points a bound below |value| decides, with no Decimal
    # evaluation
    assert _sign(fn, 1.5, 1.0, 30) == 0.5 and seen == [(1.5, 1.0)]
    # a Decimal x that differs from float(x) is evaluated in Decimal only,
    # and so is an mpf, taken at 30 digits
    with localcontext(Context(prec=30)):
        x = Decimal(1.5) + Decimal(2) ** -80
        assert float(x) == 1.5 != x
        at = _sign(fn, x, 1.0, 30)
        assert isinstance(at, Decimal) and at == 2 - x
        with mp.workdps(40):
            at = _sign(fn, mp.mpf(1.5) + mp.mpf(2) ** -80, mp.mpf(1), 30)
        assert isinstance(at, Decimal) and abs(at - (2 - x)) < Decimal("1e-29")
    assert seen == [(1.5, 1.0)]
    # a bound that does not decide falls through to Decimal
    bound[0] = 1.0
    assert isinstance(_sign(fn, 1.5, 1.0, 30), Decimal) and len(seen) == 2
    # functions without a bound are evaluated in Decimal
    assert isinstance(_sign(lambda x, y: 2 - x * y, 1.5, 1.0, 30), Decimal)


def test_threads_keep_their_own_precision():
    # a decimal context belongs to one thread: with threads switched
    # every microsecond, mu at tol 1e-25 at 40 digits in one thread and
    # roots in q1 at tol 1e-15 at 16 digits in another each certify
    # their bracket within their own tol.  The crossing of (01) and (10)
    # is the golden ratio; the other thread's function q0 - q1, its root
    # q1 = q0, takes signs that rounding cannot flip, so at 16 digits a
    # bracket holds the root whenever its signs were taken at 16 digits
    # or more
    u, v = parse_word("(01)"), parse_word("(10)")
    found = {"mu": [], "roots": []}

    def crossings():
        for _ in range(4):
            found["mu"].append(mu(u, v, tol=1e-25, config=Config(precision=40)))

    def roots():
        for i in range(200):
            x = 1.2 + 0.004 * i
            found["roots"].append((x, root_q1(lambda q0, q1: q0 - q1, x, 1e-15, 16)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=crossings), threading.Thread(target=roots)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert len(found["mu"]) == 4 and len(found["roots"]) == 200
    with localcontext(Context(prec=60)):
        phi = (1 + Decimal(5).sqrt()) / 2
    for br in found["mu"]:
        assert isinstance(br.lo, Decimal) and 0 < br.width <= 1e-25 and phi in br, br
    for x, br in found["roots"]:
        assert isinstance(br.lo, Decimal) and 0 < br.width <= 1e-15 and x in br, (x, br)


def test_word_signs_are_proven_in_floats(monkeypatch):
    # word value functions carry the proven float bound of the node
    # functions, so most certified signs of g, g_tilde, mu and
    # critical_base on words are floats (every one was a multiprecision
    # evaluation when words had no bound)
    in_decimal = []
    sign = solvers._sign

    def counted(fn, x, y, dps):
        value = sign(fn, x, y, dps)
        in_decimal.append(isinstance(value, Decimal))
        return value

    monkeypatch.setattr(solvers, "_sign", counted)
    for w in ("LR", "RL", "LLR"):
        nb = node_boundaries(w)
        g(nb.s0, 1.7)
        g_tilde(nb.s1, 1.7)
        mu(nb.s0, nb.s10)
        critical_base(nb.s010)
    assert len(in_decimal) >= 24 and sum(in_decimal) * 3 <= len(in_decimal), (sum(in_decimal), len(in_decimal))


@pytest.mark.parametrize("q0", [1.0, 0.5, math.inf, math.nan], ids=repr)
def test_g_rejects_bases_outside_the_domain(q0):
    with pytest.raises(PreconditionError):
        g(parse_word("(01)"), q0)
    with pytest.raises(PreconditionError):
        g_tilde(parse_word("(10)"), q0)


def test_crossing_exits_without_a_sign_change():
    # g_u = 2 below g~_v = 3 everywhere: the search toward 1 gives up
    with pytest.raises(PreconditionError):
        crossing(lambda x, y: 2 - y, lambda x, y: 3 - y, 1e-12, 30)
    # g_u = 3 above g~_v = 2 everywhere: the search upward gives up
    with pytest.raises(ArithmeticError):
        crossing(lambda x, y: 3 - y, lambda x, y: 2 - y, 1e-12, 30)


# every node of depth at most 3 and each of its five crossings
SHALLOW_NODES = ["".join(w) for n in range(4) for w in itertools.product("LMR", repeat=n)]
NODE_PAIRS = [("s0", "s10"), ("s0", "s1"), ("s01", "s1"), ("s010", "s10"), ("s01", "s101")]


@lru_cache(maxsize=None)
def _cold_crossing(w, u, v):
    return crossing(_node_f(w, u), _node_f(w, v), 2e-13, 30)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(SHALLOW_NODES), st.sampled_from(NODE_PAIRS),
       st.floats(1, 40, exclude_min=True, exclude_max=True), st.floats(0, 1, exclude_min=True, exclude_max=True),
       st.sampled_from(SHALLOW_NODES), st.sampled_from(NODE_PAIRS))
def test_crossing_from_any_start_agrees_with_the_cold_one(w, pair, x, p, other, other_pair):
    # Newton started anywhere, with the Jacobian of another node's
    # crossing, ends at the crossing or is solved again cold: it never
    # raises, and its bracket is within tol and overlaps the cold one
    cold, _ = _cold_crossing(w, *pair)
    _, end = _cold_crossing(other, *other_pair)
    br, _ = crossing(_node_f(w, pair[0]), _node_f(w, pair[1]), 2e-13, 30, (x, p) + end[2:])
    assert 0 < br.width <= 2e-13, br
    assert br.lo <= cold.hi and cold.lo <= br.hi, (br, cold)


def test_crossing_from_a_start_still_exits_without_a_sign_change():
    # a start that ends in no crossing is solved again cold, which raises
    start = (2.0, 0.5, -1.0, 0.0, 0.0, -1.0)
    with pytest.raises(PreconditionError):
        crossing(lambda x, y: 2 - y, lambda x, y: 3 - y, 1e-12, 30, start)
    with pytest.raises(ArithmeticError):
        crossing(lambda x, y: 3 - y, lambda x, y: 2 - y, 1e-12, 30, start)


# ---------------------------------------------------------------- bracket_root


def _counted(fn):
    calls = []

    def wrapped(x):
        calls.append(x)
        assert len(calls) < 1000, "bracket_root does not terminate"
        return fn(x)

    return wrapped, calls


BRACKET_CASES = [
    # (name, float fn, Decimal fn, lo, hi, float evaluations allowed at
    # tol 1e-13; bisection takes 46, 50 and 57)
    ("2 - x^2", lambda x: 2 - x * x, lambda x: 2 - x * x, 1, 8, 12),
    ("exp(-x) - 0.3", lambda x: math.exp(-x) - 0.3, lambda x: (-x).exp() - Decimal("0.3"), 0, 80, 20),
    ("1/x - 1e-3", lambda x: 1 / x - 1e-3, lambda x: 1 / x - Decimal("1e-3"), 1, 10 ** 4, 20),
]


def _assert_contract(fn, lo, hi, tol, ulp):
    # the signs hold, and the width is tol or, below the spacing of the
    # representable points at the root, one or two ulps
    assert fn(lo) > 0 >= fn(hi)
    assert lo < hi and (hi - lo <= tol or hi - lo <= 2 * ulp)


@pytest.mark.parametrize("name, fn, fn_dec, lo, hi, budget", BRACKET_CASES)
def test_bracket_root_contract_on_floats(name, fn, fn_dec, lo, hi, budget):
    # tol 1e-13 is below one ulp of the root 1000 of 1/x - 1e-3: the
    # routine must still stop, at adjacent floats
    counted, calls = _counted(fn)
    a, b = bracket_root(counted, float(lo), float(hi), 1e-13)
    _assert_contract(fn, a, b, 1e-13, math.ulp(b))
    assert a in calls and b in calls  # both ends were evaluated
    assert len(calls) <= budget, (name, len(calls))


@pytest.mark.parametrize("name, fn, fn_dec, lo, hi, budget", BRACKET_CASES)
@pytest.mark.parametrize("tol", ["1e-25", "1e-40"])
def test_bracket_root_contract_on_decimal(name, fn, fn_dec, lo, hi, budget, tol):
    # at 30 digits, in the caller's decimal context; 1e-40 is below the
    # spacing of the digits at every root
    with localcontext(Context(prec=30)):
        tol = Decimal(tol)
        counted, calls = _counted(fn_dec)
        a, b = bracket_root(counted, Decimal(lo), Decimal(hi), tol)
        ulp = b.next_plus() - b
        _assert_contract(fn_dec, a, b, tol, ulp)
        assert a in calls and b in calls
        if tol > ulp:
            assert len(calls) <= math.ceil(math.log2((hi - lo) / tol))


PLATEAU_CASES = [
    # (name, fn, lo, hi): fn is exactly 0 on a plateau at its root, 1e-12,
    # 1e-13 and 1.6e-5 wide
    ("floor((1.5 - x) 1e12) / 1e12", lambda x: math.floor((1.5 - x) * 1e12) / 1e12, 1.0, 2.0),
    ("round(0.7 - x/2, 13)", lambda x: round(0.7 - 0.5 * x, 13), 1.0, 100.0),
    ("round(-(x - 1.3)^3, 15)", lambda x: round(-(x - 1.3) ** 3, 15), 1.0, 4.0),
]


@pytest.mark.parametrize("name, fn, lo, hi", PLATEAU_CASES)
@pytest.mark.parametrize("tol", [1e-13, 1e-15])
def test_bracket_root_steps_out_of_exact_zeros(name, fn, lo, hi, tol):
    # after a zero, steps of t, 4t, 16t, ... leave a narrow plateau in a
    # few evaluations, and the bisections between them keep a wide one
    # (the cube's) within twice the cost of bisection
    counted, calls = _counted(fn)
    a, b = bracket_root(counted, lo, hi, tol)
    _assert_contract(fn, a, b, tol, math.ulp(b))
    assert a in calls and b in calls
    budget = 2 * math.ceil(math.log2((hi - lo) / tol)) if "^3" in name else 30
    assert len(calls) <= budget, (name, len(calls))


def test_step_out_approaches_the_floor_by_eighths():
    # a root just above the floor, searched down from far above it: no
    # point comes nearer the floor than an eighth of the last point's
    # distance to it, so the root is bracketed without a jump onto floor
    floor, root = 1.0, 1.0 + 1e-9
    points = []

    def fn(y):
        points.append(y)
        return root - y

    lo, hi = _step_out(fn, floor, 1.5, 2.0, 2.5, 1e-15)
    assert lo <= root <= hi and hi - lo <= 1e-15
    assert floor not in points
    nearest = points[0] - floor
    for y in points[1:]:
        assert y - floor >= nearest / 8
        nearest = min(nearest, y - floor)
    # and a root below the floor is reported once the floor is reached
    assert _step_out(lambda y: 0.5 - y, floor, 1.5, 2.0, 2.5, 1e-15) is None


def test_step_out_takes_a_given_lower_end_as_it_is():
    # a lower end nearer the floor than an eighth of p's distance to it is
    # the first far point evaluated, not raised to floor + (p - floor)/8;
    # an end below the floor is raised to the floor
    floor, root = 1.0, 1.005
    for lo, first in ((1.01, 1.01), (0.5, floor)):
        points = []

        def fn(y):
            points.append(y)
            return root - y

        ends = _step_out(fn, floor, lo, 1.5, 2.0, 1e-15)
        assert points[:2] == [1.5, first]
        assert ends[0] <= root <= ends[1] and ends[1] - ends[0] <= 1e-15


def test_crossing_search_toward_one():
    # g_u = 2 and g~_v(x) = 1 + 1e6 (x - 1) cross at x = 1 + 1e-6; Newton's
    # steps from x = 1.5 keep at least an eighth of x - 1, so the first
    # one toward 1 stops at 1.0625, and no point evaluated (the forward
    # differences' included) comes nearer 1 than an eighth of the
    # nearest before it
    xs = []

    def fv(x, y):
        if isinstance(x, float) and x not in xs:
            xs.append(x)
        return 1 + 10 ** 6 * (x - 1) - y

    br, _ = crossing(lambda x, y: 2 - y, fv, 1e-12, 30)
    assert br.lo <= 1 + 1e-6 <= br.hi
    assert xs[0] == 1.5 and xs[2] == pytest.approx(1.0625, abs=1e-14)
    nearest = xs[0] - 1
    for x in xs[1:]:
        assert x - 1 >= nearest / 8 - 1e-15, x
        nearest = min(nearest, x - 1)


def test_root_q1_evaluates_each_float_point_once():
    # the start search evaluates 1 + 1e-12 and x/(x-1) + 1 = 4, and
    # Brent's loop goes on from those two values: on the linear 2 - x y
    # two more points close the bracket
    points = []

    def fn(x, y):
        if not isinstance(y, Decimal):
            points.append(y)
        return 2 - x * y

    br = root_q1(fn, 1.5, 1e-12, 30)
    assert br.lo <= 4 / 3 <= br.hi
    assert len(points) == len(set(points)) == 4


def test_root_q1_from_a_start_off_the_root():
    # a start beside the root, around it, on it or below the floor costs
    # evaluations, never the bracket
    fn = lambda x, y: 2 - x * y
    for start in [(1.2, 1.3, 1.4), (2.0, 3.0, 4.0), (1.3, 1.35, 1.4), (4 / 3, 4 / 3, 4 / 3), (0.5, 0.7, 0.9)]:
        br = root_q1(fn, 1.5, 1e-12, 30, start=start)
        assert br.lo <= 4 / 3 <= br.hi and br.width <= 1e-12, start


def test_float_q1_from_a_wrong_guess():
    # a guessed bracket on the wrong side of the root, or a bare guess
    # far from it, is widened by the float search in q1 until its signs
    # are right: the root is the cold one (roots 2/x)
    fn = lambda x, y: 2 - x * y
    for x in (1.1, 1.3, 1.5, 1.7):
        r = 2 / x
        cold = root_q1(fn, x, 1e-12, 30)
        for start in [(r - 0.2, r - 0.1, r - 0.05), (r + 1e-3, r + 2e-3, r + 3e-3), (r - 1e-9, r + 1e-3, r + 2e-3),
                      (r, r, r), (r + 0.5, r + 0.5, r + 0.5), (1.0, 1.0, 1.0), (0.5, 0.7, 0.9)]:
            br = root_q1(fn, x, 1e-12, 30, start=start)
            assert br.lo <= r <= br.hi and br.width <= 1e-12, (x, start)
            assert abs(br.mid - cold.mid) <= 1e-12, (x, start)
    # a root below 1 is reported as 1, as from the cold start
    assert root_q1(lambda x, y: 1 - 2 * y, 1.5, 1e-12, 30, start=(1.2, 1.3, 1.4)).lo == 1.0
    # from a guess above it, the search steps down toward the floor
    # 1 + 1e-12 by eighths of the distance and brackets a root just
    # above it
    r = 1 + 1e-9
    for start in [(1.2, 1.3, 1.4), None]:
        br = root_q1(lambda x, y: 10 ** 9 + 1 - 10 ** 9 * y, 1.5, 1e-12, 30, start=start)
        assert br.lo <= r <= br.hi and br.width <= 1e-12, start


def test_root_q1_far_root_below_the_float_spacing():
    # G's left formula on node L^k M at q0 = 1.001 has the closed form
    # 1/(q0^k (q0 - 1)), about 500 at k = 693; tol 1e-15 is below the
    # float spacing there (5.7e-14), so the multiprecision stage finishes
    q0, k = 1.001, 693
    br = root_q1(_node_f("L" * k, "s0"), q0, 1e-15, 30)
    assert br.width <= 1e-15
    assert isinstance(br.lo, Decimal)
    with mp.workdps(40):
        q = mp.mpf(q0)
        assert 1 / (q ** k * (q - 1)) in br


@pytest.mark.parametrize("w, key, q0", [("LLLLLLLL", "s010", 1.1087513367773125), ("LLLLLR", "s101", 1.1051124455196175)])
def test_root_q1_flat_root_stays_within_tol(w, key, q0):
    # flat in q1: the float bound proves neither one of Brent's ends
    # nor its nudge, and the Decimal sign at that end puts the root beyond
    # it; the Decimal signs then step out by half the unused budget, not by
    # the bracket's width, which left these brackets 1.25e-12 wide at
    # tol 1e-12
    fn = _node_f(w, key)
    br = root_q1(fn, q0, 1e-12, 30)
    assert br.width <= 1e-12, br
    with mp.workdps(40):
        assert fn(mp.mpf(q0), mp.mpf(br.lo)) > 0 > fn(mp.mpf(q0), mp.mpf(br.hi))


def _signs_taken(monkeypatch):
    """Record (dps, value) of every solvers._sign call."""
    taken = []
    sign = solvers._sign

    def counted(fn, x, y, dps):
        value = sign(fn, x, y, dps)
        taken.append((dps, value))
        return value

    monkeypatch.setattr(solvers, "_sign", counted)
    return taken


def test_root_q1_ends_fall_back_to_mp_when_no_bound_decides(monkeypatch):
    # a bound that never decides leaves both float tries of each end open
    # (at the end and one nudge outward): the ends are signed on Decimal and
    # the bracket still certifies within tol
    def fn(x, y):
        return 2 - x * y

    fn.bounded = lambda x, y: (fn(x, y), math.inf)
    taken = _signs_taken(monkeypatch)
    br = root_q1(fn, 1.5, 1e-12, 30)
    assert br.lo <= 4 / 3 <= br.hi and br.width <= 1e-12
    assert all(value == 0.0 for dps, value in taken if dps is None)
    assert sum(dps is None for dps, _ in taken) >= 2
    assert sum(isinstance(value, Decimal) for _, value in taken) >= 2
    with mp.workdps(40):
        assert fn(mp.mpf(1.5), mp.mpf(br.lo)) > 0 > fn(mp.mpf(1.5), mp.mpf(br.hi))


FORMULA_KEYS = ["s0", "s010", "s01", "s10", "s101", "s1"]
SLOPE_SCALES = [1.0, 1.5, 0.3, -1.0, 0.0, 1e-300, 1e300, math.inf, math.nan]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(SHALLOW_NODES), st.sampled_from(FORMULA_KEYS), st.floats(1.03, 2.5),
       st.floats(-1, 1), st.sampled_from(SLOPE_SCALES))
def test_root_q1_from_a_guess_and_slope_keeps_the_cold_contract(w, key, q0, offset, scale):
    # the secant stage from a guess up to half of r - 1 off the root r
    # (wider than a formula cell's value span) and the true slope
    # scaled to the wrong sign, 0, tiny, huge, infinite or not a number
    # keeps the cold solve's contract: within tol, a sign change at 40
    # digits, the cold root (or the same floor bracket below 1 + 1e-12),
    # and no point composed twice
    cold = root_q1(_node_f(w, key), q0, 1e-12, 30)
    r = cold.mid
    h = 1e-6 * r
    probe = _node_f(w, key)
    slope = (probe(q0, r + h) - probe(q0, r - h)) / (2 * h) * scale
    fn, points, identity = _node_f(w, key), [], series._identity

    def composed(x, y):
        points.append((type(y), y))
        return identity(x, y)

    with mock.patch.object(series, "_identity", composed):
        br = root_q1(fn, q0, 1e-12, 30, start=(r + offset * (r - 1) / 2, slope))
    assert len(set(points)) == len(points), points
    if cold.lo == 1.0:
        assert br == cold
        return
    assert br.width <= 1e-12 and br.lo <= cold.hi and cold.lo <= br.hi, (br, cold)
    with mp.workdps(40):
        assert fn(mp.mpf(q0), mp.mpf(br.lo)) > 0 > fn(mp.mpf(q0), mp.mpf(br.hi))


def test_root_q1_certifies_a_secant_end_proven_on_the_wrong_side():
    # (r - y)^3 is steep at the guess r - 1/4 and flat near r: the slope
    # given sends the Newton step to r - 1e-5, where the secant step is
    # below tol / 8 with the root 1e-5 on, so the secant ends at two
    # points both below the root; the certification pass proves the
    # lower end, steps the upper one out past the root and halves the
    # bracket back to tol by signs alone, so the float search evaluates
    # two points and no more
    r, y = 1.3, 1.3 - 0.25
    points = []

    def fn(x, q1):
        points.append(q1)
        return (r - q1) ** 3

    fn.bounded = lambda x, q1: ((r - q1) ** 3, 0.0)  # the sign of a cube of an exact difference
    br = root_q1(fn, 1.5, 1e-12, 30, start=(y, -(r - y) ** 3 / (0.25 - 1e-5)))
    assert points[:2] == [y, r - 1e-5]
    assert br.lo <= r <= br.hi and br.width <= 1e-12, br
    assert len(set(points)) == len(points)
    assert len(points) == 2


def test_solve_decreasing_stops_halving_at_a_midpoint_with_no_sign():
    # floats prove nothing and the dps signs are 0 within 4e-12 of the
    # root 1.5, while the float search sits 1e-9 below it: the upper end
    # steps out past the root by doubling steps, and the halving back to
    # the budget stops at the first midpoint with no sign, so the bracket
    # is proven but wider than tol
    taken = []

    def sign(y, dps):
        value = 0.0 if dps is None else 1 if y < 1.5 - 4e-12 else -1 if y > 1.5 + 4e-12 else 0
        taken.append((y, dps, value))
        return value

    br = solvers.solve_decreasing(lambda y: (1.5 - 1e-9) - y, sign, 1.0, (1.0, 1.0, 2.0), 1e-12, 30)
    assert taken[-1] == (br.mid, 30, 0)  # the halving's last midpoint
    assert (sign(br.lo, 30), sign(br.hi, 30)) == (1, -1)
    assert br.lo <= 1.5 <= br.hi and br.width > 1e-12, br


def test_root_q1_from_a_guess_and_slope_falls_back_to_mp_when_no_bound_decides(monkeypatch):
    # a bound that never decides proves neither end the secant stage
    # ends at, nor their nudges: the ends are signed on Decimal, from a good
    # slope as from a useless one, and the bracket certifies within tol
    def fn(x, y):
        return 2 - x * y

    fn.bounded = lambda x, y: (fn(x, y), math.inf)
    for start in [(1.3, -1.5), (1.4, -3.0), (4 / 3 + 1e-3, -1e300), (1.2, 0.0), (1.5, math.nan)]:
        taken = _signs_taken(monkeypatch)
        br = root_q1(fn, 1.5, 1e-12, 30, start=start)
        assert br.lo <= 4 / 3 <= br.hi and br.width <= 1e-12, start
        assert all(value == 0.0 for dps, value in taken if dps is None)
        assert sum(isinstance(value, Decimal) for _, value in taken) >= 2, start
        with mp.workdps(40):
            assert fn(mp.mpf(1.5), mp.mpf(br.lo)) > 0 > fn(mp.mpf(1.5), mp.mpf(br.hi))


def test_root_q1_at_an_mpf_point_certifies_in_mp(monkeypatch):
    # floats prove no sign at an mpf q0, even where the value function
    # carries a bound: G's left formula on the root node, root
    # 1/(q0 - 1), is certified on Decimal at q0 itself, taken exactly and
    # rounded to the sign's digits, within tol
    taken = _signs_taken(monkeypatch)
    with mp.workdps(30):
        q0 = mp.mpf(1.55) + mp.mpf(2) ** -80
    assert float(q0) != q0
    br = root_q1(_node_f("", "s0"), q0, 1e-12, 30)
    assert br.width <= 1e-12
    assert all(value == 0.0 for dps, value in taken if dps is None)
    assert sum(isinstance(value, Decimal) for _, value in taken) >= 2
    with mp.workdps(40):
        assert br.lo <= 1 / (q0 - 1) <= br.hi


@pytest.mark.parametrize("lo, hi", [(1.5, Decimal("1.6")), (Decimal("1.5"), math.inf)])
def test_bracket_of_two_number_types_is_a_type_error(lo, hi):
    # every library bracket rounds its ends to one type; a mixed pair is
    # input from outside, never repaired
    with pytest.raises(TypeError):
        Bracket(lo, hi)
