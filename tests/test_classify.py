import math
from itertools import product

import pytest

from doublebase import classify, critical, series, substitution
from doublebase.classify import (
    Classification,
    Label,
    classify_omega,
    classify_sigma,
    classify_univoque,
)
from doublebase.config import DEFAULT
from doublebase.critical import Case, generalized_golden_ratio, komornik_loreti
from doublebase.expansions import regular
from doublebase.oracle import block_counts, brute_classify
from doublebase.spectral import build_automaton, entropy
from doublebase.substitution import limit_word, parse_directive, s_map
from doublebase.words import LetterStream, Word, parse_word

from conftest import directive_compare, word_corpus


def test_classify_omega_examples():
    assert classify_omega(parse_word("01(0)"), parse_word("1(0)")).label is Label.COUNTABLE_NONTRIVIAL
    assert classify_omega(Word("", "0"), parse_word("(10)")).label is Label.TRIVIAL
    assert classify_omega(parse_word("0(1)"), parse_word("(10)")).label is Label.POSITIVE_ENTROPY
    tm0 = limit_word(parse_directive("(M)"), 0)
    tm1 = limit_word(parse_directive("(M)"), 1)
    assert classify_omega(tm0, tm1).label is Label.UNCOUNTABLE_ZERO_ENTROPY


def test_classify_omega_corner_cases():
    # a maximal and b minimal: the full shift
    assert classify_omega(parse_word("0(1)"), parse_word("1(0)")).label is Label.POSITIVE_ENTROPY
    # b = 1 0^inf alone keeps a countable set whenever s(a) = L^inf
    assert classify_omega(parse_word("(01)"), parse_word("1(0)")).label is Label.POSITIVE_ENTROPY
    assert classify_omega(parse_word("(0)"), parse_word("1(0)")).label is Label.COUNTABLE_NONTRIVIAL
    # the Thue-Morse fixed pair of the root node
    assert classify_omega(parse_word("(01)"), parse_word("(10)")).label is Label.COUNTABLE_NONTRIVIAL


def test_classify_sigma_examples():
    assert classify_sigma(parse_word("(01)"), parse_word("(10)")).label is Label.COUNTABLE
    # an inverted interval is empty
    assert classify_sigma(parse_word("1(0)"), parse_word("0(1)")).label is Label.EMPTY
    assert classify_sigma(Word("", "0"), Word("", "1")).label is Label.POSITIVE_ENTROPY


def _sigma_blocks(a, b, n):
    """Length-n blocks every suffix s of which has a[:|s|] <= s <= b[:|s|]:
    none means Sigma_{a,b} is empty."""
    pa, pb = a.prefix(n), b.prefix(n)
    blocks = map("".join, product("01", repeat=n))
    return sum(all(pa[:n - i] <= w[i:] <= pb[:n - i] for i in range(n)) for w in blocks)


def test_classify_sigma_limit_word_streams():
    # streams, not words, reach Omega through a prepended letter stream
    for text in ["(LR)", "(M)"]:
        d = parse_directive(text)
        a, b = limit_word(d, 0), limit_word(d, 1)
        assert classify_sigma(a, b).label is Label.EMPTY, text
        assert _sigma_blocks(a, b, 4) == 0, text
    assert _sigma_blocks(parse_word("0(1)"), parse_word("1(0)"), 3) == 0


_SIGMA_OF_OMEGA = {Label.TRIVIAL: Label.EMPTY, Label.COUNTABLE_NONTRIVIAL: Label.COUNTABLE}


def test_classify_sigma_prepends_each_word_once():
    # a corpus of pairs meets each word many times: its prepended Word is
    # built once (a bounded LRU) and equals the one built afresh, while
    # streams are prepended uncached
    classify._prepend_word.cache_clear()
    a_words, b_words = word_corpus("0", 3), word_corpus("1", 3)
    for a in a_words:
        for b in b_words:
            fresh = classify_omega(Word("0" + b.pre, b.per), Word("1" + a.pre, a.per))
            assert classify_sigma(a, b).label is _SIGMA_OF_OMEGA.get(fresh.label, fresh.label)
    info = classify._prepend_word.cache_info()
    assert info.misses == len(a_words) + len(b_words)
    assert info.currsize <= classify.PREPEND_CACHE_SIZE
    stream = classify._prepend("1", limit_word(parse_directive("(M)"), 0))
    assert not isinstance(stream, Word) and stream.prefix(3) == "101"
    assert classify._prepend_word.cache_info() == info


@pytest.mark.parametrize("a, b, label", [
    ("(0100)", "(1000001)", Label.POSITIVE_ENTROPY),
    ("(0100)", "(100001)", Label.COUNTABLE_NONTRIVIAL),
])
def test_classify_omega_descends_through_a_sentinel_string(monkeypatch, a, b, label):
    # the descent leaves the image of a letter and decodes the
    # sentinel-terminated string it made once more; the automaton, which
    # shares no code with the s-map, confirms the label
    kinds = []
    preimage = substitution._preimage

    def spy(u, letter):
        kinds.append(type(u))
        return preimage(u, letter)

    monkeypatch.setattr(substitution, "_preimage", spy)
    substitution._word_walk.cache_clear()  # walk both words afresh
    a, b = parse_word(a), parse_word(b)
    assert classify_omega(a, b).label is label
    assert str in kinds
    h = entropy(build_automaton(a, b))
    assert abs(h - 0.1547) < 1e-4 if label is Label.POSITIVE_ENTROPY else h < 1e-12


def test_classify_univoque_diagonal():
    for q in [1.5, 1.6, 1.61]:
        assert classify_univoque(q, q).label is Label.TRIVIAL, q
    for q in [1.63, 1.7, 1.78]:
        assert classify_univoque(q, q).label is Label.COUNTABLE_NONTRIVIAL, q
    for q in [1.8, 1.9, 2.0]:
        assert classify_univoque(q, q).label is Label.POSITIVE_ENTROPY, q


def test_classify_univoque_irregular_pair_is_full_shift():
    assert classify_univoque(2.5, 2.5).label is Label.POSITIVE_ENTROPY


def test_classify_univoque_off_diagonal():
    # fixed q0 = 2: thresholds G(2) = 1.5 = K(2)
    assert classify_univoque(2.0, 1.3).label is Label.TRIVIAL
    assert classify_univoque(2.0, 1.7).label is Label.POSITIVE_ENTROPY
    # q0 = 1.7: G = 2.7/1.7, K ~ 1.8529
    assert classify_univoque(1.7, 1.55).label is Label.TRIVIAL
    assert classify_univoque(1.7, 1.7).label is Label.COUNTABLE_NONTRIVIAL
    assert classify_univoque(1.7, 1.9).label is Label.POSITIVE_ENTROPY


def test_classify_univoque_at_critical_values():
    # at q1 = K(q0) on a formula node the set is countably infinite
    assert classify_univoque(1.9, 2.8 / 1.71).label is Label.COUNTABLE_NONTRIVIAL
    # at a coincidence point G = K the set at the critical base is trivial
    assert classify_univoque(1.5, 2.0).label is Label.TRIVIAL
    assert classify_univoque(2.0, 1.5).label is Label.TRIVIAL


def test_classify_univoque_just_below_the_g_window():
    # a q1 in [G.lo - w, G.mid - w), w = max(tol, G.width), lies strictly
    # below G(q0) but outside the window around it: the set is trivial
    g = generalized_golden_ratio(1.75).value
    w = max(1e-9, g.width)
    q1 = g.lo - w + g.width / 4
    assert q1 < g.mid - w
    assert classify_univoque(1.75, q1).label is Label.TRIVIAL


def _bracket_rule(q0, q1, tol=1e-9):
    # the label from the public G and K brackets on formula cells: q1 at
    # most G + window is Trivial, at most K + window CountableNontrivial,
    # and above PositiveEntropy, window = max(tol, the bracket's width)
    for curve, label in ((generalized_golden_ratio, Label.TRIVIAL),
                         (komornik_loreti, Label.COUNTABLE_NONTRIVIAL)):
        r = curve(q0)
        assert r.case in (Case.LEFT_FORMULA, Case.RIGHT_FORMULA), (q0, r)
        if q1 <= r.value.mid + max(tol, r.value.width):
            return label
    return Label.POSITIVE_ENTROPY


def test_classify_univoque_matches_the_bracket_rule():
    tol = 1e-9
    q0s = [1.12 + 0.17 * i for i in range(12)]
    pairs = [(q0, 1.05 + 0.2 * j) for q0 in q0s for j in range(12)]
    for q0 in q0s:
        g, k = generalized_golden_ratio(q0).value.mid, komornik_loreti(q0).value.mid
        pairs += [(q0, q1) for q1 in (g - 2 * tol, g + 2 * tol, k - 2 * tol, k + 2 * tol)]
    pairs = [(q0, q1) for q0, q1 in pairs if regular(q0, q1)]
    assert len(pairs) > 100
    for q0, q1 in pairs:
        assert classify_univoque(q0, q1, tol).label is _bracket_rule(q0, q1, tol), (q0, q1)


_FORMULA_PAIRS = [(1.6, 1.6), (1.7, 1.55), (1.7, 1.7), (1.7, 1.9), (1.78, 1.78), (1.9, 1.9),
                  (1.9, 2.8 / 1.71), (1.35, 2.2), (2.3, 1.4), (1.2, 3.5)]


def test_classify_univoque_on_formula_cells_solves_no_root(monkeypatch):
    # on a formula cell that q0 lies in for sure, one certified sign of the
    # node function at q1 - window places q1: with the crossings cached,
    # no root is solved and no node_pi evaluation is made (the signs are
    # proven by the bounded float evaluation)
    labels = [classify_univoque(q0, q1).label for q0, q1 in _FORMULA_PAIRS]
    assert labels == [_bracket_rule(q0, q1) for q0, q1 in _FORMULA_PAIRS]
    for q0, _ in _FORMULA_PAIRS:
        for cell in (critical._g_cell(q0, DEFAULT), critical._k_cell(q0, DEFAULT)):
            assert cell.key is not None and not cell.near, (q0, cell)

    def no_root(*args, **kwargs):
        raise AssertionError("a root was solved")

    node_pi, evaluations = series.node_pi, []

    def counted(*args):
        evaluations.append(args)
        return node_pi(*args)

    monkeypatch.setattr(critical, "root_q1", no_root)
    monkeypatch.setattr(series, "node_pi", counted)
    assert [classify_univoque(q0, q1).label for q0, q1 in _FORMULA_PAIRS] == labels
    assert not evaluations


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf, -math.inf])
def test_classify_univoque_rejects_bad_tol(tol):
    with pytest.raises(ValueError):
        classify_univoque(1.7, 1.7, tol=tol)


def test_classify_omega_stream_tie_at_a_root_corner_is_undecided():
    # a stream of 01 0^inf reaches no corner cell at the root, where the
    # Word itself is decided
    a = Word("01", "0")
    assert substitution.corner_walk(LetterStream(a.letters), "0")[0] is None
    assert classify_omega(LetterStream(a.letters), parse_word("1(0)")) == Classification(Label.UNDECIDED, 0)
    assert classify_omega(a, parse_word("1(0)")).label is Label.COUNTABLE_NONTRIVIAL


def test_classify_omega_stream_tie_at_the_first_node_is_undecided():
    a, b = Word("0110", "01"), parse_word("(10)")
    assert substitution.split_descent(LetterStream(a.letters), b, 48) == ("=", "", None, None)
    assert classify_omega(LetterStream(a.letters), b) == Classification(Label.UNDECIDED, 0)
    assert classify_omega(a, b).label is Label.COUNTABLE_NONTRIVIAL


@pytest.mark.parametrize("q1, label", [
    (50.5, Label.TRIVIAL),
    (50.9, Label.UNDECIDED),
    (51.5, Label.POSITIVE_ENTROPY),
])
def test_classify_univoque_within_an_exhausted_bracket_is_undecided(q1, label):
    # G(1.01) exhausts the default depth on the L spine with the bracket
    # [50.751, 51.0]: q1 inside it is Undecided at that depth
    g = generalized_golden_ratio(1.01)
    assert g.case is Case.DEPTH_EXHAUSTED
    assert (g.value.lo < q1 < g.value.hi) == (label is Label.UNDECIDED)
    expected = Classification(label, DEFAULT.max_depth) if label is Label.UNDECIDED else Classification(label)
    assert classify_univoque(1.01, q1) == expected


_LABEL_RANK = {
    Label.TRIVIAL: 0,
    Label.COUNTABLE_NONTRIVIAL: 1,
    Label.UNCOUNTABLE_ZERO_ENTROPY: 2,
    Label.POSITIVE_ENTROPY: 2,
}


def test_classifier_monotonicity(rng):
    # enlarging a or shrinking b never moves the label left in the order
    # Trivial < CountableNontrivial < uncountable
    a_words = sorted(word_corpus("0", 3))
    b_words = sorted(word_corpus("1", 3))
    for b in b_words:
        labels = [classify_omega(a, b).label for a in a_words]
        ranks = [_LABEL_RANK[l] for l in labels if l is not Label.UNDECIDED]
        assert ranks == sorted(ranks), b
    for a in a_words:
        labels = [classify_omega(a, b).label for b in b_words]
        ranks = [_LABEL_RANK[l] for l in labels if l is not Label.UNDECIDED]
        assert ranks == sorted(ranks, reverse=True), a


def test_classify_agrees_with_block_growth_small_corpus():
    # spot agreement on the complexity-3 corpus (the full corpus sweep is
    # acceptance criterion 7)
    for a in word_corpus("0", 3):
        for b in word_corpus("1", 3):
            label = classify_omega(a, b).label
            counts = block_counts(a, b, 14)
            if label is Label.TRIVIAL:
                assert counts[-1] == 2, (a, b)
            elif label is Label.COUNTABLE_NONTRIVIAL:
                assert counts[-1] > 2, (a, b)
                assert counts[-1] / counts[-5] < 1.9, (a, b)  # subexponential
            elif label is Label.POSITIVE_ENTROPY:
                assert counts[-1] / counts[-5] > 2.0, (a, b)


def test_classify_rejects_bad_sides():
    with pytest.raises(ValueError):
        classify_omega(parse_word("(10)"), parse_word("(10)"))
    with pytest.raises(ValueError):
        classify_omega(parse_word("(01)"), parse_word("(01)"))
    with pytest.raises(ValueError):  # a stream's first letter is read from its letters
        classify_omega(limit_word(parse_directive("(M)"), 1), parse_word("(10)"))


def test_classification_str():
    assert str(Classification(Label.TRIVIAL)) == "Trivial"
    assert str(Classification(Label.UNDECIDED, 7)) == "Undecided(7)"


@pytest.mark.parametrize("max_depth", [1, 3, 48])
def test_corpus_results_equal_freshly_built_classifications(max_depth):
    # settled results are shared constants and an Undecided one carries
    # the depth its descent reached: each equals, hashes and prints as a
    # Classification built afresh
    undecided = 0
    for a, b in product(word_corpus("0", 5), word_corpus("1", 5)):
        for res in (classify_omega(a, b, max_depth), classify_sigma(a, b, max_depth)):
            fresh = Classification(res.label, max_depth if res.label is Label.UNDECIDED else None)
            assert res == fresh and hash(res) == hash(fresh) and str(res) == str(fresh), (a, b)
            undecided += res.label is Label.UNDECIDED
    assert (undecided > 0) == (max_depth < 48)


@pytest.mark.parametrize("a, b", [("(0110)", "(100110)"), ("(011001)", "(1001)"), ("0(11001)", "(100110)")])
def test_a_joint_m_step_witnesses_nontriviality(a, b):
    # the walks take M together, then split at a branch pair that is no
    # window of its own: only the joint M step makes the set nontrivial
    # (no pair of the complexity-5 corpus needs that witness)
    a, b = parse_word(a), parse_word(b)
    assert classify_omega(a, b).label is Label.COUNTABLE_NONTRIVIAL
    assert brute_classify(a, b, 18) == "SubexponentialLike"


def test_classify_omega_double_corner():
    # a maximal with b in the top corner cell: after any "10" the tail is
    # forced to 1^inf, leaving countably many orbits
    assert classify_omega(parse_word("0(1)"), parse_word("10(1)")).label is Label.COUNTABLE_NONTRIVIAL
    # b minimal with a in the bottom corner cell, symmetric
    assert classify_omega(parse_word("01(0)"), parse_word("1(0)")).label is Label.COUNTABLE_NONTRIVIAL


def test_classify_omega_follows_s_map_order():
    # the classifier's corner cells and joint descent agree with comparing
    # the two s-map directives on the complexity-5 corpus
    allowed = {
        1: {Label.POSITIVE_ENTROPY},
        -1: {Label.TRIVIAL, Label.COUNTABLE_NONTRIVIAL},
        0: {Label.COUNTABLE_NONTRIVIAL},
    }
    b_words = [(b, s_map(b).directive) for b in word_corpus("1", 5)]
    for a in word_corpus("0", 5):
        sa = s_map(a).directive
        for b, sb in b_words:
            label = classify_omega(a, b).label
            assert label in allowed[directive_compare(sa, sb)], (a, b, label)
