import itertools
import math

import mpmath as mp
import pytest

from doublebase import classify, critical, series, solvers
from doublebase.classify import classify_univoque
from doublebase.config import DEFAULT, Config
from doublebase.critical import (
    _SPINE_PAIR,
    _beyond,
    _run_end,
    _slack,
    Case,
    curve_csv,
    generalized_golden_ratio,
    kl_fixed_point,
    komornik_loreti,
    ks_crosscheck,
    node_mu,
    parse_curve_csv,
    sample_curve,
)
from doublebase.solvers import mu
from doublebase.substitution import node_boundaries

PHI = (1 + 5 ** 0.5) / 2


@pytest.fixture
def cold_mu():
    """An empty crossing cache, as in a new process, emptied again after
    the test, with no Newton end to start from, so no crossing it solved
    or stubbed outlives it."""
    critical._node_mu.cache_clear()
    critical._last_end = None
    yield
    critical._node_mu.cache_clear()
    critical._last_end = None


def test_golden_ratio_examples():
    r = generalized_golden_ratio(1.55)
    assert abs(r.value.mid - 1 / 0.55) < 1e-10
    assert r.case is Case.LEFT_FORMULA and r.node == ""
    r = generalized_golden_ratio(1.75)
    assert abs(r.value.mid - 2.75 / 1.75) < 1e-10
    assert r.case is Case.RIGHT_FORMULA and r.node == ""
    r = generalized_golden_ratio(PHI)
    assert abs(r.value.mid - PHI) < 1e-9


def test_komornik_loreti_examples():
    r = komornik_loreti(1.5)
    assert abs(r.value.mid - 2.0) < 1e-9
    assert r.case is Case.LEFT_FORMULA and r.node == ""
    r = komornik_loreti(1.9)
    assert abs(r.value.mid - 2.8 / 1.71) < 1e-10
    assert r.case is Case.RIGHT_FORMULA and r.node == ""
    # the closed form on the left interval, evaluated at the golden ratio
    r = komornik_loreti(PHI)
    expected = (PHI + 2 + math.sqrt(PHI * PHI + 4)) / (2 * PHI)
    assert abs(r.value.mid - expected) < 1e-10


def test_interval_memberships_deeper_node():
    # q0 = 1.7 lies strictly between the level-zero K intervals: one M step
    r = komornik_loreti(1.7)
    assert r.node == "ML"
    assert r.case is Case.LEFT_FORMULA
    # boundary word is the node's sigma(1 0^inf)
    assert r.boundary_word == node_boundaries("ML").s10


NODE_PAIRS = [("s0", "s1"), ("s0", "s10"), ("s01", "s1"), ("s010", "s10"), ("s01", "s101")]


def test_node_mu_agrees_with_word_mu():
    # the affine node path and the materialized-word path solve the same
    # crossing: their brackets overlap and both are tight
    for w in ["", "L", "R", "LR", "RRL"]:
        nb = node_boundaries(w)
        for u, v in NODE_PAIRS:
            by_word = mu(getattr(nb, u), getattr(nb, v), tol=1e-13)
            by_node = node_mu(w, u, v)
            assert by_word.lo <= by_node.hi and by_node.lo <= by_word.hi, (w, u, v)
            assert by_word.width <= 1e-12 and by_node.width <= 1e-12, (w, u, v)


def test_node_mu_honours_tight_tolerance_after_warm_cache():
    # a crossing cached at the default tolerance must not answer a
    # request for a tighter one
    node_mu("", "s0", "s1")
    br = node_mu("", "s0", "s1", Config(tol=1e-15))
    assert br.width <= 1e-15
    with mp.workdps(30):
        assert (1 + mp.sqrt(5)) / 2 in br


def test_result_invariants():
    for q0 in [1.2, 1.5, 1.618, 1.75, 1.9, 2.5]:
        for fn in (generalized_golden_ratio, komornik_loreti):
            r = fn(q0)
            assert r.value.lo > 1.0
            assert r.value.hi < q0 / (q0 - 1) + 1e-6
            assert r.value.lo <= r.value.hi
            assert abs(r.inequality_witness - (q0 - 1) * (r.value.mid - 1)) < 1e-12


def test_kl_fixed_point():
    br = kl_fixed_point(tol=1e-10)
    assert abs(br.mid - 1.787231650) < 5e-9
    r = komornik_loreti(br.mid)
    assert abs(r.value.mid - br.mid) < 1e-8


@pytest.mark.parametrize("q0", [math.inf, mp.inf, math.nan, 1.0], ids=repr)
def test_critical_maps_reject_bases_that_are_not_finite_above_one(q0):
    # an infinite float base would end in OverflowError at the product
    # chain, and an infinite mpf one descend to an inverted bracket
    for fn in (generalized_golden_ratio, komornik_loreti):
        with pytest.raises(ValueError):
            fn(q0)


def test_kl_fixed_point_brackets_the_constant():
    # the Komornik-Loreti constant, root of sum_{k>=1} t_k q^-k = 1 with
    # t the Thue-Morse sequence; the ends are verified against K's bracket
    br = kl_fixed_point(tol=1e-9)
    assert br.width <= 1e-9
    assert br.lo <= 1.7872316501829659 <= br.hi


@pytest.mark.parametrize("lo, hi", [(1.7, 1.75), (1.8, 1.9)])
def test_kl_fixed_point_searches_a_guess_that_misses_the_constant(lo, hi):
    # (1.7, 1.75) lies below the constant, (1.8, 1.9) above it: the start
    # search steps outward until the signs differ
    br = kl_fixed_point(tol=1e-9, lo=lo, hi=hi)
    assert br.width <= 1e-9
    assert br.lo <= 1.7872316501829659 <= br.hi


def test_kl_fixed_point_steps_down_from_a_guess_above_the_constant_by_its_width(monkeypatch):
    # the guess's lower end is the search's start, so the step down from
    # it starts at the guess's width, not at the tolerance: a guess above
    # the constant costs about as many K calls as one around it (12)
    calls = []
    k = critical.komornik_loreti

    def counted(q, **kwargs):
        calls.append(q)
        return k(q, **kwargs)

    monkeypatch.setattr(critical, "komornik_loreti", counted)
    br = kl_fixed_point(tol=1e-9, lo=1.8, hi=1.9)
    assert br.lo <= 1.7872316501829659 <= br.hi
    assert calls[:2] == [1.8, pytest.approx(1.7)] and len(calls) <= 12, calls


def test_ks_crosscheck_examples():
    assert ks_crosscheck(1.9, 1.70).order == ">"
    assert ks_crosscheck(1.9, 1.55).order == "<"
    assert ks_crosscheck(2.0, 1.5).order == "="


def test_ks_crosscheck_brackets_K(monkeypatch):
    for q0 in [1.6, 1.75, 1.9]:
        k = komornik_loreti(q0).value.mid
        assert ks_crosscheck(q0, k + 1e-3).order == ">"
        assert ks_crosscheck(q0, k - 1e-3).order == "<"


def test_node_consistency_with_ks():
    # the K node is a prefix of the joint descent walk at q1 = mid(K)
    for q0 in [1.7, 1.75, 1.82]:
        r = komornik_loreti(q0)
        ks = ks_crosscheck(q0, r.value.mid, depth=16)
        assert ks.node.startswith(r.node)


def test_sample_curve_values_and_monotonicity():
    rows = sample_curve(1.5, 2.0, 3, "gr")
    mids = [(r.value_lo + r.value_hi) / 2 for r in rows]
    assert abs(mids[0] - 2.0) < 1e-9
    assert abs(mids[1] - 11 / 7) < 1e-9
    assert abs(mids[2] - 1.5) < 1e-9
    rows = sample_curve(1.5, 2.0, 3, "kl")
    mids = [(r.value_lo + r.value_hi) / 2 for r in rows]
    assert abs(mids[0] - 2.0) < 1e-9
    assert abs(mids[2] - 1.5) < 1e-9
    g175 = 2.75 / 1.75
    assert g175 < mids[1] < 1.75 / 0.75  # between G(q0) and q0/(q0-1)
    # two-point sampling is strictly decreasing for both maps
    for what in ("gr", "kl"):
        rows = sample_curve(1.4, 2.2, 2, what)
        assert rows[0].value_lo > rows[1].value_hi


def test_curve_csv_roundtrip(tmp_path):
    rows = sample_curve(1.5, 2.0, 4, "both")
    text = curve_csv(rows)
    assert text.splitlines()[0] == "q0,which,value_lo,value_hi,node,case"
    again = parse_curve_csv(text)
    assert again == rows  # bit-for-bit via repr round trip


def test_strict_monotonicity_on_grid():
    grid = [1.1 + 1.9 * i / 39 for i in range(40)]
    gs = [generalized_golden_ratio(q).value.mid for q in grid]
    ks = [komornik_loreti(q).value.mid for q in grid]
    for x, y in zip(gs, gs[1:]):
        assert x > y
    for x, y in zip(ks, ks[1:]):
        assert x > y


def test_G_below_K_with_coincidence_detection():
    # G <= K everywhere; equality exactly at the coincidence points
    for q0, coincide in [(1.5, True), (2.0, True), (1.7, False), (1.9, False), (PHI, False)]:
        gv = generalized_golden_ratio(q0).value
        kv = komornik_loreti(q0).value
        assert gv.mid <= kv.mid + 1e-9
        if coincide:
            assert abs(gv.mid - kv.mid) < 1e-9
        else:
            assert kv.mid - gv.mid > 1e-3


def test_depth_exhaustion_brackets():
    # very low depth forces the enclosure-by-adjacent-formulas fallback
    r = komornik_loreti(1.787231650458, max_depth=3)
    assert r.case in (Case.DEPTH_EXHAUSTED, Case.PRIMITIVE_LIMIT)
    full = komornik_loreti(1.787231650458)
    assert r.value.lo - 1e-12 <= full.value.mid <= r.value.hi + 1e-12
    # deeper runs tighten the enclosure
    r2 = komornik_loreti(1.787231650458, max_depth=6)
    assert r2.value.width < r.value.width


def test_distant_bases_need_depth():
    # node intervals advance roughly linearly along the R spine, so the
    # default depth covers a bounded base range and reports an honest
    # enclosure beyond it
    shallow = generalized_golden_ratio(50.0)
    assert shallow.case in (Case.DEPTH_EXHAUSTED, Case.PRIMITIVE_LIMIT)
    assert shallow.value.lo <= 1.0102 <= shallow.value.hi
    deep = generalized_golden_ratio(50.0, max_depth=100)
    assert deep.case is Case.RIGHT_FORMULA
    assert deep.node == "R" * 67
    assert 1 / 51 <= 49 * (deep.value.mid - 1) <= 0.5
    back = generalized_golden_ratio(deep.value.mid, max_depth=100)
    assert abs(back.value.mid - 50.0) < 1e-8


def test_random_grid_robustness():
    import random

    rng = random.Random(11)
    for _ in range(60):
        q0 = 1.05 + rng.random() * 4.0
        rg = generalized_golden_ratio(q0)
        rk = komornik_loreti(q0)
        assert rg.value.lo > 1 and rk.value.lo > 1
        assert rg.value.mid <= rk.value.mid + 1e-9
        if rg.case in (Case.LEFT_FORMULA, Case.RIGHT_FORMULA):
            back = generalized_golden_ratio(rg.value.mid)
            assert abs(back.value.mid - q0) < 1e-8
        pg = (q0 - 1) * (rg.value.mid - 1)
        pk = (q0 - 1) * (rk.value.mid - 1)
        assert pg <= 0.5 + 1e-9 <= pk + 2e-9


def _walked_run(w, letter, q0, cfg, max_depth):
    # the reference for _run_end: one node at a time with the same test
    k = 1
    while len(w) + k < max_depth and _beyond(q0, node_mu(w + letter * k, *_SPINE_PAIR[letter], cfg), letter):
        k += 1
    return k


def test_run_end_matches_node_by_node_walk():
    cfg = DEFAULT
    probes = [("R", q0, 40) for q0 in (3.0, 6.0, 10.0, 16.0)]
    probes += [("L", q0, 40) for q0 in (1.05, 1.1, 1.2)]
    probes += [("R", 16.0, 9), ("L", 1.05, 5)]  # runs cut at max_depth
    # q0 within and just outside the slack of a spine crossing
    for letter, j in (("R", 3), ("R", 7), ("L", 4), ("L", 9)):
        mu = node_mu(letter * j, *_SPINE_PAIR[letter], cfg)
        edge = mu.hi + _slack(mu) if letter == "R" else mu.lo - _slack(mu)
        for q0 in (edge, math.nextafter(edge, 1.0), math.nextafter(edge, 100.0), mu.lo, mu.hi):
            probes.append((letter, q0, 40))
    for letter, q0, max_depth in probes:
        assert _run_end("", letter, q0, cfg, max_depth) == _walked_run("", letter, q0, cfg, max_depth), (letter, q0)


def _left_spine_value(q0, k):
    # G on the cell of node L^k M: the root of f at sigma(0^inf) = (0 1 0^k)^inf
    with mp.workdps(40):
        q = mp.mpf(q0)
        return 1 / (q ** k * (q - 1))


def test_near_one_left_spine_cell():
    r = generalized_golden_ratio(1.01, max_depth=100)
    assert r.node == "L" * 68 and r.case is Case.LEFT_FORMULA
    assert r.value.lo <= _left_spine_value(1.01, 68) <= r.value.hi


def test_near_one_default_depth_is_finite():
    r = generalized_golden_ratio(1.01)
    assert r.case is Case.DEPTH_EXHAUSTED
    assert math.isfinite(r.value.lo) and math.isfinite(r.value.hi)
    assert r.value.lo <= _left_spine_value(1.01, 68) <= r.value.hi
    # the product chain 1/(q0+1) <= (q0-1)(G-1) <= 1/2 bounds the enclosure
    assert r.value.width < 0.3


@pytest.mark.parametrize("q0, max_depth", [(1.01, None), (50.0, 100)])
def test_spine_descent_solves_logarithmically_many_crossings(cold_mu, q0, max_depth):
    # a cold spine descent solves O(log depth) crossings, not one per node
    depth = DEFAULT.max_depth if max_depth is None else max_depth
    generalized_golden_ratio(q0, max_depth=max_depth)
    assert critical._node_mu.cache_info().currsize <= 2 * math.ceil(math.log2(depth)) + 4


def _cold_node_evaluations(monkeypatch, q0, max_depth):
    """Node evaluations (all, and those in mp) of one G call, from an
    empty crossing cache when the caller takes cold_mu."""
    calls = [0, 0]
    node_pi = series.node_pi

    def counted(*args, **kwargs):
        calls[0] += 1
        calls[1] += any(isinstance(a, mp.mpf) for a in args)
        return node_pi(*args, **kwargs)

    monkeypatch.setattr(series, "node_pi", counted)
    generalized_golden_ratio(q0, max_depth=max_depth)
    return calls


@pytest.mark.parametrize("curve", [generalized_golden_ratio, komornik_loreti])
@pytest.mark.parametrize("q0", [1.3, 1.75, 2.2])
def test_warm_call_evaluates_no_point_twice(monkeypatch, curve, q0):
    # the search for a root's start bracket hands its evaluated ends to
    # Brent's loop, and the certification proves signs by the bounded
    # float evaluation of the node's value function (series.value_fn's
    # bounded, through node_f_bound, not node_pi) from the composition
    # that function kept where it evaluated the point, or in mp: no
    # point (q0, q1) is composed twice, in node_pi or node_f_bound
    curve(q0)
    points, bounds = [], []
    identity, node_f_bound = series._identity, series.node_f_bound

    def composed(x, y):  # every composition at a point starts here
        points.append((type(x), x, type(y), y))
        return identity(x, y)

    def bounded(*args):
        bounds.append(args)
        return node_f_bound(*args)

    monkeypatch.setattr(series, "_identity", composed)
    monkeypatch.setattr(series, "node_f_bound", bounded)
    curve(q0)
    assert points and bounds and len(set(points)) == len(points)


def test_cold_deep_descent_evaluation_budget(monkeypatch, cold_mu):
    # 17 crossings, each one Newton solve with both functions of a node
    # from one evaluation, float and mp together, started below the
    # root from the end of the crossing read last (296; 518 with every
    # crossing started at (1.5, 0.45)); with a nested search in x over
    # roots in q1 they took 3,265, and 4,894 with every root in q1
    # started cold and Brent crawling through exact zeros
    evaluations, _ = _cold_node_evaluations(monkeypatch, 50.0, 100)
    assert evaluations <= 360, evaluations


@pytest.mark.parametrize("q0, budget", [(1.01, 175), (1.75, 63)], ids=["1.01", "1.75"])
def test_cold_descent_float_budget(monkeypatch, cold_mu, q0, budget):
    # 8 and 3 crossings by one Newton solve each (143 and 51 evaluations;
    # 189 and 51 with every crossing started at (1.5, 0.45): the 3 of
    # G(1.75) are the root's, which start there still); the nested
    # search in x over roots in q1 took 1,645 and 286, and 2,457 and 413
    # when every root started cold and Brent crawled through exact zeros
    evaluations, _ = _cold_node_evaluations(monkeypatch, q0, None)
    assert evaluations <= budget, evaluations


@pytest.mark.parametrize("q0, max_depth, budget", [(1.75, None, 0), (50.0, 100, 75)], ids=["1.75-None", "50.0-100"])
def test_cold_descent_multiprecision_budget(monkeypatch, cold_mu, q0, max_depth, budget):
    # a crossing end is certified by the signs at one corner point and a
    # formula's ends by one sign each, proven in floats where the error
    # bound decides; a crossing the floats cannot close within tol takes
    # one mp Newton evaluation and mp corner signs (60 on the R spine of
    # G(50)).  The nested search with mp signs by side took 6 and 146,
    # G(1.75) 18 when every sign was an mp evaluation, and 77 and 1,234
    # with the nested mp root refinement
    _, evaluations = _cold_node_evaluations(monkeypatch, q0, max_depth)
    assert evaluations <= budget, evaluations


def test_warm_descents_multiprecision_budget(monkeypatch):
    # warm G and K calls solve no crossing, and every formula bracket end
    # is proven in floats: no mp evaluation (443 when every sign at an
    # end was an mp evaluation, up to 200 when an end the float bound
    # left open took one); all their node evaluations are the formula
    # roots, 592 by secant steps from the Hermite guess and slope of
    # each cell's crossing ends (927 by Brent's loop from the guess +-
    # a thousandth of the cell's value span, 1,329 from the product
    # chain's enclosure of the curve, 2,069 when every root started cold
    # from [1 + 1e-12, q0/(q0-1) + 1])
    grid = [1.3 + 0.012 * i for i in range(100)]
    for q0 in grid:
        generalized_golden_ratio(q0)
        komornik_loreti(q0)
    node_pi, evaluations = series.node_pi, [0, 0]

    def counted(*args):
        mp_args = any(isinstance(a, mp.mpf) for a in args)
        evaluations[mp_args] += 1
        return node_pi(*args)

    monkeypatch.setattr(series, "node_pi", counted)
    for q0 in grid:
        generalized_golden_ratio(q0)
        komornik_loreti(q0)
    assert evaluations[1] == 0, evaluations
    assert sum(evaluations) <= 650, evaluations


def test_warm_formula_brackets_are_proven_in_floats(monkeypatch):
    # a warm pass of G, K and classify_univoque queries, as the benchmark's
    # warm_queries makes them (every fifth pair on the diagonal), takes no
    # mp sign: each formula bracket end is proven by the float bound, at
    # the end or one nudge outward within tol, and the bracket holds the
    # root (signs checked at 40 digits)
    grid = [1.3 + 0.012 * i for i in range(100)]
    pairs = [(q0, q0 if i % 5 == 0 else grid[37 * i % 100]) for i, q0 in enumerate(grid)]

    def warm_pass():
        for q0, q1 in pairs:
            generalized_golden_ratio(q0)
            komornik_loreti(q0)
            classify_univoque(q0, q1)

    warm_pass()
    signs, roots = [], []
    sign, formula_root = solvers._sign, critical._formula_root

    def counted_sign(fn, x, y, dps):
        value = sign(fn, x, y, dps)
        signs.append(isinstance(value, mp.mpf))
        return value

    def kept_root(curve, w, key, q0, *args):
        br = formula_root(curve, w, key, q0, *args)
        roots.append((w, key, q0, br))
        return br

    monkeypatch.setattr(solvers, "_sign", counted_sign)
    monkeypatch.setattr(classify, "_sign", counted_sign)
    monkeypatch.setattr(critical, "_formula_root", kept_root)
    warm_pass()
    assert signs and not any(signs), sum(signs)
    assert len(roots) >= 2 * len(grid)
    with mp.workdps(40):
        for w, key, q0, br in roots:
            fn = critical._node_f(w, key)
            assert br.width <= DEFAULT.tol, (w, key, q0, br)
            assert fn(mp.mpf(q0), mp.mpf(br.lo)) > 0 > fn(mp.mpf(q0), mp.mpf(br.hi)), (w, key, q0, br)


def test_warm_formula_roots_start_from_the_cell_ends(monkeypatch):
    # each warm formula root starts from the cubic Hermite guess of p =
    # (x - 1)(y - 1) between its cell's two crossing ends, their values
    # and slopes read from the cached Newton ends, and the slope of the
    # node function in q1 there: a Newton step and secant steps reach
    # the float noise, and one bounded evaluation at each end a quarter
    # of the width budget away proves the bracket.  The 200 warm G and
    # K solves on the grid make 592 float node evaluations and 400
    # bounded ones (927 and 551 by Brent's loop from the guess +- a
    # thousandth of the cell's value span, 1,329 and 538 when every
    # root started from the product chain's enclosure)
    grid = [1.3 + 0.012 * i for i in range(100)]
    for q0 in grid:
        generalized_golden_ratio(q0)
        komornik_loreti(q0)
    node_pi, node_f_bound, counts = series.node_pi, series.node_f_bound, {"float": 0, "bounded": 0}

    def counted_pi(*args):
        counts["float"] += not any(isinstance(a, mp.mpf) for a in args)
        return node_pi(*args)

    def counted_bound(*args):
        counts["bounded"] += 1
        return node_f_bound(*args)

    monkeypatch.setattr(series, "node_pi", counted_pi)
    monkeypatch.setattr(series, "node_f_bound", counted_bound)
    for q0 in grid:
        generalized_golden_ratio(q0)
        komornik_loreti(q0)
    assert counts["float"] <= 650, counts
    assert counts["float"] + counts["bounded"] <= 1_100, counts


def test_flat_formula_root_evaluates_no_point_again(monkeypatch):
    # G's left formula on node L^11 M at q0 = 1.055308389 is so flat in
    # q1 that the float bound proves neither end of the secant stage's
    # bracket, a quarter of the width budget from the root, nor the
    # lower end's nudge, so that end is signed in mp; the upper end,
    # nudged by all of the budget left, is proven in floats.  The warm
    # call composes no point twice and fewer points than the start
    # search and Brent's loop did from the guess +- a thousandth of the
    # cell's value span: 9, 5 float and 2 mp node_pi evaluations and 2
    # bounded ones at nudged points (8 now: 3, 1 and 4)
    q0 = 1.055308389
    generalized_golden_ratio(q0)
    points, identity = [], series._identity

    def composed(x, y):
        points.append((type(x), x, type(y), y))
        return identity(x, y)

    monkeypatch.setattr(series, "_identity", composed)
    r = generalized_golden_ratio(q0)
    assert (r.node, r.key) == ("L" * 11, "s0")
    assert r.value.width <= DEFAULT.tol
    assert len(set(points)) == len(points) <= 8, points
    assert sum(t is mp.mpf for t, *_ in points) <= 1, points


def test_brackets_do_not_depend_on_the_order_of_calls(cold_mu):
    # a formula root starts from the cached Newton ends of its cell's
    # crossings, and a crossing below the root from the end read before
    # it: the G and K results on the grid are the same, bit for bit,
    # whether it is walked up or down from an empty crossing cache
    grid = [1.03 + 0.011 * i for i in range(320)]

    def walk(order):
        critical._node_mu.cache_clear()
        critical._last_end = None
        return {q0: (generalized_golden_ratio(q0), komornik_loreti(q0)) for q0 in order}

    up, down = walk(grid), walk(grid[::-1])
    assert [q0 for q0 in grid if up[q0] != down[q0]] == []


def test_mu_cache_keeps_the_crossings_every_descent_reads(monkeypatch, cold_mu):
    # more than MU_CACHE_SIZE other crossings are solved, with the three
    # root crossings every G descent reads first read between them: the
    # least recently read are dropped, so the root crossings never are
    solved = []

    def stub(fu, fv, tol, dps, start):
        solved.append(fu)
        return solvers.Bracket(1.5, 1.5), (1.5, 0.45, 1.0, 0.0, 0.0, 1.0)

    monkeypatch.setattr(critical, "crossing", stub)
    roots = [("", "s0", "s10"), ("", "s01", "s1"), ("", "s0", "s1")]
    others = ["".join(w) for w in itertools.product("LMR", repeat=8)][: critical.MU_CACHE_SIZE + 1]
    for w in others:
        node_mu(w, "s0", "s10")
        for root in roots:
            node_mu(*root)
    assert len(solved) == len(roots) + len(others)


@pytest.mark.parametrize("w, u, v", [("R" * 20, "s0", "s10"), ("R" * 20, "s0", "s1"), ("R" * 20, "s01", "s1"),
                                     ("R" * 24, "s01", "s1"), ("R" * 32, "s01", "s1")])
def test_deep_spine_crossings_are_within_tol(cold_mu, w, u, v):
    # crossings far out on the R spine, where the float bound leaves the
    # corners open at small distances, are closed by the mp stage within
    # node_mu's 2e-13 (they were up to 4.26e-13 wide when an mp end was
    # nudged outward without a cap), and g_u - g~_v changes sign across
    # the bracket at 40 digits
    br = node_mu(w, u, v)
    assert 0 < br.width <= 2e-13, br
    fu, fv = critical._node_f(w, u), critical._node_f(w, v)
    with mp.workdps(40):
        gap = [solvers.root_q1(fu, x, 1e-30, 40).mid - solvers.root_q1(fv, x, 1e-30, 40).mid for x in (br.lo, br.hi)]
    assert gap[0] > 0 > gap[1], gap


def test_cold_curve_sweep_crossings_are_proven_in_floats(monkeypatch, cold_mu):
    # the 140 crossings of G and K on sample_curve's 60-point grid over
    # [1.05, 3] and of kl_fixed_point, solved from an empty cache: every
    # corner sign is proven in floats, every bracket is within node_mu's
    # 2e-13, and Newton, started below the root from the crossing read
    # last, evaluates both functions of a node 1,541 times (2,681 with
    # every crossing started at (1.5, 0.45))
    sign, crossing, value_pair = solvers._sign, critical.crossing, solvers.value_pair
    in_crossing, mp_signs, widths, evaluations = [False], [], [], [0]

    def counted_sign(fn, x, y, dps):
        value = sign(fn, x, y, dps)
        if in_crossing[0] and isinstance(value, mp.mpf):
            mp_signs.append((x, y))
        return value

    def counted_pair(fu, fv):
        both = value_pair(fu, fv)

        def counted(q0, q1):
            evaluations[0] += 1
            return both(q0, q1)
        return counted

    def flagged(*args):
        in_crossing[0] = True
        try:
            br, end = crossing(*args)
        finally:
            in_crossing[0] = False
        widths.append(br.width)
        return br, end

    monkeypatch.setattr(solvers, "_sign", counted_sign)
    monkeypatch.setattr(solvers, "value_pair", counted_pair)
    monkeypatch.setattr(critical, "crossing", flagged)
    for q0 in (1.05 + 1.95 * i / 59 for i in range(60)):
        generalized_golden_ratio(q0)
        komornik_loreti(q0)
    kl_fixed_point()
    assert critical._node_mu.cache_info().currsize == len(widths) == 140
    assert not mp_signs, len(mp_signs)
    assert max(widths) <= 2e-13, max(widths)
    assert evaluations[0] <= 1_850, evaluations[0]
