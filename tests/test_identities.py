"""Property tests of the paper's identities for the critical curves and
the classifier, on seeded random inputs.

Every value of `G` and `K` is a certified bracket, so each identity is
checked in the form a bracket can refute: an inequality fails only when
the brackets put it the wrong way round at every point they hold.
"""

from hypothesis import assume, given, settings, strategies as st

from doublebase.classify import classify_omega
from doublebase.critical import generalized_golden_ratio, komornik_loreti, ks_crosscheck
from doublebase.expansions import regular
from doublebase.oracle import block_counts
from doublebase.spectral import build_automaton
from doublebase.words import Word, reflect

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)
_Q0 = st.floats(1.1, 3.5)
_Q0_PAIRS = st.tuples(_Q0, _Q0).map(sorted)
_TEXT = st.text("01", max_size=3)
ROUNDING = 1e-14  # slack for the float products below, far under any bracket's width
K_GAP = 1e-3  # ks_crosscheck's default depth decides pairs this far from K


def G(q0):
    return generalized_golden_ratio(q0).value


def K(q0):
    return komornik_loreti(q0).value


@PROPERTY
@given(_Q0)
def test_golden_ratio_is_at_most_komornik_loreti(q0):
    assert G(q0).lo <= K(q0).hi


@PROPERTY
@given(_Q0)
def test_inequality_chain(q0):
    # 1/(q0+1) <= (q0-1)(G-1) <= 1/2 <= (q0-1)(K-1)
    g, k = G(q0), K(q0)
    assert 1 / (q0 + 1) <= (q0 - 1) * (g.hi - 1) + ROUNDING
    assert (q0 - 1) * (g.lo - 1) <= 0.5 + ROUNDING
    assert 0.5 <= (q0 - 1) * (k.hi - 1) + ROUNDING


@PROPERTY
@given(st.floats(1.3, 3.0))
def test_golden_ratio_is_an_involution(q0):
    # G decreases, so G maps the bracket [lo, hi] of G(q0) into
    # [G(hi).lo, G(lo).hi], which must hold q0 = G(G(q0))
    g = G(q0)
    assert G(g.hi).lo <= q0 <= G(g.lo).hi


@PROPERTY
@given(st.floats(1.3, 3.0))
def test_komornik_loreti_is_an_involution(q0):
    # K decreases too, so it maps the bracket [lo, hi] of K(q0) into
    # [K(hi).lo, K(lo).hi], which must hold q0 = K(K(q0))
    k = K(q0)
    assert K(k.hi).lo <= q0 <= K(k.lo).hi


@PROPERTY
@given(_Q0_PAIRS)
def test_curves_decrease(pair):
    q0, q0_right = pair
    assert G(q0_right).lo <= G(q0).hi
    assert K(q0_right).lo <= K(q0).hi


@PROPERTY
@given(_TEXT, _TEXT.map(lambda per: per or "0"), _TEXT, _TEXT.map(lambda per: per or "1"))
def test_omega_classification_is_reflection_symmetric(pre_a, per_a, pre_b, per_b):
    # reflection maps Omega_{a,b} onto Omega_{reflect(b), reflect(a)}
    a, b = Word("0" + pre_a, per_a), Word("1" + pre_b, per_b)
    assert classify_omega(a, b).label == classify_omega(reflect(b), reflect(a)).label


@PROPERTY
@given(_Q0, st.floats(0.0, 1.0))
def test_ks_crosscheck_orders_the_streams_as_k_does(q0, t):
    # regular pairs have q1 <= q0/(q0-1); above K(q0) s(a) > s(b), below it s(a) < s(b)
    q1 = 1.0001 + t * (q0 / (q0 - 1) - 1.0001)
    k = K(q0)
    assume(regular(q0, q1) and (q1 > k.hi + K_GAP or q1 < k.lo - K_GAP))
    assert ks_crosscheck(q0, q1).order == (">" if q1 > k.hi else "<")


@PROPERTY
@given(_TEXT, _TEXT.map(lambda per: per or "0"), _TEXT, _TEXT.map(lambda per: per or "1"))
def test_path_count_matches_the_oracle_block_counts(pre_a, per_a, pre_b, per_b):
    # the automaton's paths of length n are Omega_{a,b}'s blocks of length
    # n, for any words, as in the benchmark's corpus (validate=False)
    a, b = Word("0" + pre_a, per_a), Word("1" + pre_b, per_b)
    assert build_automaton(a, b, validate=False).path_count(12) == block_counts(a, b, 12)[-1]
