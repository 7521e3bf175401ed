import itertools
import sys
import threading
from itertools import islice

import pytest

from doublebase import classify, substitution
from doublebase.classify import classify_omega, classify_sigma
from doublebase.expansions import expansion_bounds
from doublebase.substitution import (
    BR_M,
    BR_STOP_L,
    BR_STOP_R,
    Directive,
    DirectiveError,
    PERIODIC,
    REPEAT_L,
    REPEAT_R,
    apply,
    common_node_image,
    decode,
    desubstitute,
    image_lengths,
    is_primitive,
    limit_word,
    node_boundaries,
    parse_directive,
    s_map,
    split_descent,
    walk,
)
from doublebase.words import LetterStream, Word, parse_word, sup0, inf1

from conftest import directive_compare, naive_image, naive_expand, random_word, word_corpus


# ---------------------------------------------------------------- apply


def test_apply_M_zero():
    assert apply("M", Word("", "0")) == parse_word("(01)")


def test_apply_LM_zero():
    # oracle: expand LM(0^k) directly and compare prefixes
    img = apply("LM", Word("", "0"))
    expanded = naive_image("LM", "0" * 40)
    assert img.prefix(len(expanded)) == expanded
    assert img == parse_word("(010)")


def test_apply_M_one_zero():
    assert apply("M", parse_word("1(0)")) == parse_word("10(01)")


def test_apply_matches_naive_on_random_words(rng):
    for _ in range(150):
        w = "".join(rng.choice("LMR") for _ in range(rng.randrange(0, 5)))
        u = random_word(rng, 4, 4)
        img = apply(w, u)
        n = 120
        assert img.prefix(n) == naive_image(w, naive_expand(u.pre, u.per, n))[:n]


def test_image_lengths():
    for w in ["", "L", "M", "R", "LM", "MRML", "LLRRM"]:
        assert image_lengths(w) == (len(naive_image(w, "0")), len(naive_image(w, "1")))


# ---------------------------------------------------------------- limit words


def test_limit_word_repeat_tails():
    assert limit_word(parse_directive("(L)"), 1) == parse_word("1(0)")
    assert limit_word(parse_directive("(R)"), 0) == parse_word("0(1)")
    assert limit_word(parse_directive("(L)"), 0) == Word("", "0")
    assert limit_word(parse_directive("(R)"), 1) == Word("", "1")


def test_limit_word_of_a_finite_directive_is_its_image_of_the_seed():
    # a finite directive applies its head to seed^inf: LR(0^inf) = (010),
    # LR(1^inf) = (10); its letters stop at the head
    d = Directive("LR")
    assert limit_word(d, 0) == parse_word("(010)")
    assert limit_word(d, 1) == parse_word("(10)")
    assert d.letters(5) == "LR"


def test_limit_word_thue_morse_prefix():
    assert limit_word(parse_directive("(M)"), 0, 8) == "01101001"
    assert limit_word(parse_directive("(M)"), 0, 16) == "0110100110010110"


def test_limit_word_matches_iterated_images():
    # the stream agrees with a high iterate of the block on every prefix
    for text, seed in [("(M)", "0"), ("(LR)", "0"), ("L(MR)", "1")]:
        d = parse_directive(text)
        stream = limit_word(d, seed)
        iterated = naive_image(d.head + d.block * 9, seed)
        n = min(200, len(iterated))
        assert stream.prefix(n) == iterated[:n]


# ---------------------------------------------------------------- node words


def test_node_boundaries_root_node():
    nb = node_boundaries("")
    assert nb.s0 == parse_word("(01)")
    assert nb.s010 == parse_word("0110(01)")
    assert nb.s01 == parse_word("01(10)")
    assert nb.s10 == parse_word("10(01)")
    assert nb.s101 == parse_word("1001(10)")
    assert nb.s1 == parse_word("(10)")
    assert nb.s01 < nb.s10


def test_node_boundaries_L_node():
    nb = node_boundaries("L")
    assert nb.s0 == parse_word("01(001)")
    assert nb.s01 == parse_word("01(010)")


def test_node_boundary_ordering(rng):
    for _ in range(60):
        w = "".join(rng.choice("LMR") for _ in range(rng.randrange(0, 4)))
        nb = node_boundaries(w)
        assert nb.s0 <= nb.s010 <= nb.s01 < nb.s10 <= nb.s101 <= nb.s1


def test_node_monotonicity_between_nodes(rng):
    # for directive words w1 < w2 the whole 0-interval of w1 lies below the
    # 0-interval of w2, and likewise on the 1 side
    letters = ["L", "M", "R"]
    for length in (1, 2, 3):
        words = ["".join(t) for t in itertools.product(letters, repeat=length)]
        for _ in range(40):
            w1, w2 = sorted(rng.sample(words, 2))
            nb1, nb2 = node_boundaries(w1), node_boundaries(w2)
            assert nb1.s01 < nb2.s0
            assert nb1.s1 < nb2.s10


# ---------------------------------------------------------------- s-map


def test_s_map_corner_examples():
    assert str(s_map(Word("", "0")).directive) == "(L)"
    assert str(s_map(Word("0", "1")).directive) == "(R)"
    assert str(s_map(Word("", "01")).directive) == "M(L)"
    assert str(s_map(Word("1", "0")).directive) == "(L)"
    assert str(s_map(Word("", "1")).directive) == "(R)"


def test_s_map_of_a_stream_on_a_cut_word_is_truncated():
    # (01)^inf = M(0^inf) is a cut word: the Word lands in M(L) (corner
    # examples above), while a stream of the same letters ties it at every
    # prefix and comes back truncated, with no directive letter decided
    res = s_map(LetterStream(lambda: itertools.cycle("01"), "(01)"))
    assert res.truncated and str(res) == "..."


def test_s_map_figure_values():
    # assorted cells: s((010)^inf) = LM L^inf, s(01(10)) = M R^inf,
    # s((0110)^inf) = MM L^inf, s(10(01)) = M L^inf
    assert str(s_map(parse_word("(010)")).directive) == "LM(L)"
    assert str(s_map(parse_word("01(10)")).directive) == "M(R)"
    assert str(s_map(parse_word("(0110)")).directive) == "MM(L)"
    assert str(s_map(parse_word("10(01)")).directive) == "M(L)"
    # (1001)^inf = MM(1^inf), and the 1^inf tail is fixed by R
    assert str(s_map(parse_word("(1001)")).directive) == "MM(R)"


def test_s_map_monotone(rng):
    words = sorted(
        {random_word(rng, 3, 3) for _ in range(80)} | {Word("", "01"), Word("01", "0")}
    )
    zero_words = [u for u in words if u.letter(0) == "0"]
    results = [s_map(u, 32) for u in zero_words]
    for (u, ru), (v, rv) in zip(zip(zero_words, results), list(zip(zero_words, results))[1:]):
        if ru.truncated or rv.truncated:
            continue
        assert directive_compare(ru.directive, rv.directive) <= 0, (u, v)


def test_s_map_round_trip(rng):
    # limit word of head+repeat tail, fed back through the s-map, returns
    # the canonical directive; seeds are matched to the fixed side of the
    # tail (L^inf fixes 0^inf, R^inf fixes 1^inf)
    for _ in range(200):
        head = "".join(rng.choice("LMR") for _ in range(rng.randrange(0, 7)))
        tail = rng.choice([REPEAT_L, REPEAT_R])
        d = Directive(head, tail)
        seed = "0" if tail == REPEAT_L else "1"
        word = limit_word(d, seed)
        res = s_map(word, 64)
        assert not res.truncated, (d, word)
        assert res.directive == d, (head, tail, word)


@pytest.mark.parametrize("text", ["(M)", "(LR)", "(RL)", "(LMR)", "(RRL)", "L(MR)", "(LLM)"])
@pytest.mark.parametrize("seed", "01")
def test_s_map_of_limit_word_reads_its_directive(text, seed):
    d = parse_directive(text)
    res = s_map(limit_word(d, seed), 32)
    assert res.truncated
    assert res.directive.head == d.letters(32)


def _sign(a: str, b: str) -> int:
    # order over the first len(a) letters; 0 when they agree that far
    b = b[: len(a)]
    return (a > b) - (a < b)


def test_decode_preserves_order(rng):
    # u orders against w(v) as its decoded preimage under w orders against
    # v, for u inside the image, off it by one letter, or random; the
    # two-letter w checks that sentinel-terminated preimages decode on
    n, m = 400, 100
    directives = list("LMR") + [x + y for x in "LMR" for y in "LMR"]
    for _ in range(600):
        w = rng.choice(directives)
        v = random_word(rng, 4, 4)
        image = naive_image(w, naive_expand(v.pre, v.per, n))
        kind = rng.randrange(3)
        if kind == 0:
            u = apply(w, v)
        elif kind == 1:
            k = rng.randrange(1, 40)
            flipped = "1" if image[k] == "0" else "0"
            u = Word(image[:k] + flipped, random_word(rng, 0, 4).per)
        else:
            u = random_word(rng, 4, 4)
        letters = u.letters()
        for x in w:
            letters = decode(x, letters)
        decoded = "".join(islice(letters, m))
        assert _sign(decoded, v.prefix(m)) == _sign(u.prefix(n), image), (w, u, v, decoded)


def test_commutation_with_extremal_suffix(rng):
    # sup0(sigma(u)) = sigma(sup0(u)) for 0-words, dually for inf1
    for _ in range(150):
        w = "".join(rng.choice("LMR") for _ in range(rng.randrange(0, 5)))
        u = random_word(rng, 3, 3)
        if "0" in u.pre + u.per and "1" in u.pre + u.per:
            if u.letter(0) == "0":
                assert sup0(apply(w, u)) == apply(w, sup0(u))
            else:
                assert inf1(apply(w, u)) == apply(w, inf1(u))


# ---------------------------------------------------------------- directives


def test_directive_parse_and_str():
    assert str(parse_directive("LM(R)")) == "LM(R)"
    assert str(parse_directive("(M)")) == "(M)"
    assert str(parse_directive("(LR)")) == "(LR)"
    assert str(parse_directive("LMR")) == "LMR"
    with pytest.raises(DirectiveError):
        parse_directive("LX")


def test_parse_directive_is_directive_of_the_block():
    # Directive turns a constant block into a repeat tail, so the parser
    # passes every block on as periodic: 121 heads times 5 blocks
    heads = ["".join(h) for n in range(5) for h in itertools.product("LMR", repeat=n)]
    for head in heads:
        for block in ("L", "R", "LL", "RR", "LLL"):
            assert parse_directive(f"{head}({block})") == Directive(head, PERIODIC, block), (head, block)


def test_directive_canonicalization():
    # repeats absorb equal trailing letters
    assert Directive("ML", REPEAT_L) == Directive("M", REPEAT_L)
    # forbidden junctions rewrite to the M form
    assert Directive("R", REPEAT_L) == Directive("M", REPEAT_L)
    assert Directive("L", REPEAT_R) == Directive("M", REPEAT_R)
    assert Directive("MRR", REPEAT_L) == Directive("MRM", REPEAT_L)
    # periodic blocks reduce and absorb phase
    assert parse_directive("(MM)") == parse_directive("(M)")
    assert parse_directive("L(RL)") == parse_directive("(LR)")
    assert parse_directive("(L)") == Directive("", REPEAT_L)


def test_forbidden_junction_limit_words_agree():
    # w L R^inf and w M R^inf generate the same 1^inf limit word
    raw = Directive("ML", REPEAT_R)          # canonicalizes to MM(R)
    assert str(raw) == "MM(R)"
    assert limit_word(raw, 1) == apply("MM", Word("", "1"))
    # and the identification preserves the 0-side at the L^inf form
    rawL = Directive("MR", REPEAT_L)
    assert str(rawL) == "MM(L)"
    assert limit_word(rawL, 0) == apply("MM", Word("", "0"))


def test_is_primitive():
    assert is_primitive(parse_directive("(M)")) is True
    assert is_primitive(parse_directive("LM(R)")) is False
    assert is_primitive(parse_directive("(LR)")) is True
    assert is_primitive(parse_directive("LMR")) is False
    truncated = s_map(limit_word(parse_directive("(M)"), 0), max_depth=6)
    assert truncated.truncated
    assert is_primitive(truncated) is None
    # a complete s-map of an eventually periodic word ends L^inf or R^inf
    complete = s_map(parse_word("(0110)"))
    assert not complete.truncated and str(complete) == "MM(L)"
    assert is_primitive(complete) is False


# ---------------------------------------------------------------- inverses


def test_desubstitute():
    assert desubstitute(parse_word("(010)"), "L") == parse_word("(01)")
    assert desubstitute(parse_word("(01)"), "M") == Word("", "0")
    assert desubstitute(parse_word("(011)"), "R") == parse_word("(01)")
    assert desubstitute(parse_word("(011)"), "L") is None


def test_desubstitute_inverts_apply(rng):
    for _ in range(200):
        u = random_word(rng, 3, 3)
        letter = rng.choice("LMR")
        assert desubstitute(apply(letter, u), letter) == u


def test_common_node_image():
    nb = node_boundaries("LL")
    assert common_node_image(nb.s0, nb.s1)
    assert common_node_image(nb.s010, nb.s10)
    nbm = node_boundaries("MLM")
    assert common_node_image(nbm.s01, nbm.s101)
    # 0^inf is not in any M image
    assert not common_node_image(Word("", "0"), Word("", "10"))


# ---------------------------------------------------------------- walks
#
# The reference below is the joint descent as one loop over both words,
# locating and desubstituting each word at every level, with no walk and
# no cache: the cached walks must give what it gives.

_STOPS = (BR_STOP_L, BR_STOP_R)


def _corner(u, side):
    return substitution._locate(u, substitution._CORNER_CUTS[side])


def _joint_descent(a, b, max_depth):
    cuts_a, cuts_b = substitution._NODE_CUTS["0"], substitution._NODE_CUTS["1"]
    w = ""
    for _ in range(max_depth):
        ba, bb = substitution._locate(a, cuts_a), substitution._locate(b, cuts_b)
        if ba is None or bb is None:
            return "=", w, None, None
        if ba != bb:
            return (">" if ba > bb else "<"), w, ba, bb
        if ba in _STOPS:
            return "=", w, ba, bb
        w += "LMR"[ba // 2]
        a, b = substitution._preimage(a, w[-1]), substitution._preimage(b, w[-1])
    return "=", w, None, None


def _uncached_s_map(u, max_depth):
    side = u.prefix(1)
    b, w = _corner(u, side), ""
    if b in _STOPS:
        return Directive("", REPEAT_L if b == BR_STOP_L else REPEAT_R), False
    if b == BR_M:
        cuts = substitution._NODE_CUTS[side]
        for _ in range(max_depth):
            b = substitution._locate(u, cuts)
            if b in _STOPS:
                return Directive(w + "M", REPEAT_L if b == BR_STOP_L else REPEAT_R), False
            if b is None:
                break
            w += "LMR"[b // 2]
            u = substitution._preimage(u, w[-1])
    return Directive(w), True


def test_classifiers_on_cached_walks_match_the_uncached_joint_walk(monkeypatch):
    substitution._word_walk.cache_clear()
    a5, b5 = word_corpus("0", 5), word_corpus("1", 5)
    pairs = list(itertools.product(a5, b5))
    omega = [classify_omega(a, b) for a, b in pairs]
    sigma = [classify_sigma(a, b) for a, b in pairs]
    walked = set(a5) | set(b5)
    walked |= {Word("0" + b.pre, b.per) for b in b5} | {Word("1" + a.pre, a.per) for a in a5}
    info = substitution._word_walk.cache_info()
    # each distinct word is walked once, whatever it is paired with
    assert info.misses == len(walked)
    assert info.currsize <= info.maxsize == substitution.WALK_CACHE_SIZE
    monkeypatch.setattr(classify, "corner", _corner)
    monkeypatch.setattr(classify, "split_descent", _joint_descent)
    assert [classify_omega(a, b) for a, b in pairs] == omega
    assert [classify_sigma(a, b) for a, b in pairs] == sigma


@pytest.mark.parametrize("text", ["(M)", "(LR)", "(RL)", "(LMR)", "(RRL)", "L(MR)", "(LLM)"])
def test_s_map_of_limit_words_matches_the_uncached_walk(text):
    d = parse_directive(text)
    for seed in "01":
        for depth in (1, 16):
            u = limit_word(d, seed)
            res = s_map(u, depth)
            assert (res.directive, res.truncated) == _uncached_s_map(u, depth)


def test_s_map_of_words_matches_the_uncached_walk():
    for u in word_corpus("0", 6) + word_corpus("1", 6):
        for depth in (1, 48):
            res = s_map(u, depth)
            assert (res.directive, res.truncated) == _uncached_s_map(u, depth), u


@pytest.mark.parametrize("q0, q1", [(1.9, 1.5), (1.9, 1.7), (1.9, 1.8), (1.7, 1.7), (2.5, 1.4)])
def test_split_descent_on_expansion_bounds_matches_the_joint_walk(q0, q1):
    for depth in (1, 24):
        assert split_descent(*expansion_bounds(q0, q1), depth) == _joint_descent(*expansion_bounds(q0, q1), depth)


def test_a_walk_interrupted_mid_read_reads_in_full_afterwards(monkeypatch):
    substitution._word_walk.cache_clear()
    u = parse_word("(1000001)")
    preimage, raised = substitution._preimage, []

    def once(x, letter):
        if len(raised) == 0 and isinstance(x, str):
            raised.append(x)
            raise KeyboardInterrupt
        return preimage(x, letter)

    monkeypatch.setattr(substitution, "_preimage", once)
    with pytest.raises(KeyboardInterrupt):
        list(walk(u, "1"))
    assert raised
    assert str(s_map(u).directive) == str(_uncached_s_map(u, 48)[0])
    assert list(walk(u, "1"))[-1] in _STOPS


def test_threads_reading_one_walk_see_it_whole():
    # more threads than cores, switching often, over records they share
    words = word_corpus("0", 6) + word_corpus("1", 6)
    expected = [s_map(u) for u in words]
    substitution._word_walk.cache_clear()
    errors, results = [], {}

    def read(k):
        try:
            results[k] = [s_map(u) for u in words]
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert all(results[k] == expected for k in range(6))
