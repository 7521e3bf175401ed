import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from doublebase.series import (
    AffinePair,
    DegenerateSystemError,
    directive_affine,
    directive_roundings,
    f,
    f_from_pi,
    f_tilde,
    f_tilde_from_pi,
    letter_runs,
    node_f_bound,
    node_pi,
    pi,
    pi_limit,
    pi_tilde,
    reduce_system,
    value_fns,
)
from doublebase.substitution import NODE_SEEDS, limit_word, node_boundaries, parse_directive
from doublebase.words import Word, parse_word, reflect

from conftest import random_word

PHI = (1 + 5 ** 0.5) / 2


def naive_pi(q0, q1, letters, n=300):
    tot, s = 0.0, 1.0
    for _, c in zip(range(n), letters):
        if c == "0":
            s /= q0
        else:
            s /= q1
            tot += s
    return tot


def naive_pi_tilde(q0, q1, letters, n=300):
    tot, s = 0.0, 1.0
    for _, c in zip(range(n), letters):
        if c == "0":
            s /= q0
            tot += s
        else:
            s /= q1
    return tot


def test_pi_examples():
    assert pi(Fraction(2), Fraction(3, 2), parse_word("1(0)")) == Fraction(2, 3)
    assert pi(Fraction(2), Fraction(3, 2), parse_word("0(1)")) == 1
    assert pi(Fraction(2), Fraction(2), parse_word("(10)")) == Fraction(2, 3)


def test_pi_tilde_examples():
    assert pi_tilde(Fraction(2), Fraction(3, 2), parse_word("1(0)")) == Fraction(2, 3)
    assert pi_tilde(2.0, 1.5, Word("", "1")) == 0.0
    # mirror identity: (q1-1) pi(u) + (q0-1) pi-of-reflection-in-swapped-bases = 1
    u = parse_word("01(10)")
    q0, q1 = Fraction(2), Fraction(3, 2)
    assert (q1 - 1) * pi(q0, q1, u) + (q0 - 1) * pi(q1, q0, reflect(u)) == 1


def test_pi_tilde_is_reflected_pi(rng):
    for _ in range(200):
        v = random_word(rng, 4, 4)
        q0 = Fraction(rng.randrange(11, 40), 10)
        q1 = Fraction(rng.randrange(11, 40), 10)
        assert pi_tilde(q0, q1, v) == pi(q1, q0, reflect(v))


def test_pi_matches_naive_sum(rng):
    for _ in range(100):
        u = random_word(rng, 4, 4)
        q0 = 1 + rng.random() * 2
        q1 = 1 + rng.random() * 2
        assert pi(q0, q1, u) == pytest.approx(naive_pi(q0, q1, u.letters()), abs=1e-12)
        assert pi_tilde(q0, q1, u) == pytest.approx(
            naive_pi_tilde(q0, q1, u.letters()), abs=1e-12
        )


def test_f_examples():
    assert f(parse_word("(01)"), Fraction(3, 2), Fraction(2)) == 0
    assert abs(f(parse_word("(01)"), PHI, PHI)) < 1e-14
    assert f_tilde(parse_word("(10)"), Fraction(2), Fraction(3, 2)) == 0


def test_f_monotone_in_both_arguments(rng):
    u = parse_word("01(0110)")
    grid = [1.2, 1.4, 1.7, 2.1, 2.6]
    for i in range(len(grid) - 1):
        for j in range(len(grid) - 1):
            assert f(u, grid[i], grid[j]) > f(u, grid[i + 1], grid[j])
            assert f(u, grid[i], grid[j]) > f(u, grid[i], grid[j + 1])
            assert f_tilde(u, grid[i], grid[j]) > f_tilde(u, grid[i + 1], grid[j])
            assert f_tilde(u, grid[i], grid[j]) > f_tilde(u, grid[i], grid[j + 1])


def test_f_tilde_reflection(rng):
    for _ in range(100):
        v = random_word(rng, 4, 4)
        q0, q1 = 1 + rng.random(), 1 + rng.random()
        assert f_tilde(v, q0, q1) == pytest.approx(f(reflect(v), q1, q0), rel=1e-12, abs=1e-12)


def test_f_at_q1_equal_one():
    # q_u for u = (01)^inf is 2: f((01), 2, 1) = 0
    assert f(parse_word("(01)"), Fraction(2), Fraction(1)) == 0
    assert f(parse_word("(01)"), Fraction(3), Fraction(1)) < 0


def test_reduce_system():
    assert reduce_system(Fraction(0), Fraction(2), Fraction(1), Fraction(3)) == (0, 1)
    offset, scale = reduce_system(Fraction(1), Fraction(2), Fraction(0), Fraction(3))
    assert offset == 1 and scale == -2
    with pytest.raises(DegenerateSystemError):
        reduce_system(1.0, 2.0, 1.0, 2.0)


def test_reduce_system_reproduces_values(rng):
    # the affine map carries standard-digit values to system values
    for _ in range(50):
        d0, d1 = Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-3, 4))
        q0 = Fraction(rng.randrange(12, 30), 10)
        q1 = Fraction(rng.randrange(12, 30), 10)
        if d0 * (q1 - 1) == d1 * (q0 - 1):
            continue
        offset, scale = reduce_system(d0, q0, d1, q1)
        u = random_word(rng, 3, 3)
        direct = _system_value(d0, q0, d1, q1, u)
        assert offset + scale * pi(q0, q1, u) == direct


def _system_value(d0, q0, d1, q1, u, n=160):
    # finite-sum-plus-tail evaluation done independently with Fractions:
    # split off the periodic tail exactly
    def block(letters):
        val, s = Fraction(0), Fraction(1)
        for c in letters:
            d, q = (d0, q0) if c == "0" else (d1, q1)
            s /= q
            val += d * s
        return val, s

    vp, sp = block(u.pre)
    vq, sq = block(u.per)
    return vp + sp * vq / (1 - sq)


def test_node_pi_matches_word_pi(rng):
    for w in ["", "L", "M", "R", "LM", "MR", "LLM", "MLR"]:
        nb = node_boundaries(w)
        q0, q1 = 1 + rng.random(), 1 + rng.random()
        for key, word in nb.as_dict().items():
            val = node_pi(letter_runs(w + "M"), q0, q1, NODE_SEEDS[key])
            assert val == pytest.approx(pi(q0, q1, word), rel=1e-13, abs=1e-13)


def _stepwise_affine(w, q0, q1):
    # the reference composer, one letter map at a time, written apart
    # from the library's: L blocks 0 -> "0", 1 -> "10", M 0 -> "01",
    # 1 -> "10", R 0 -> "01", 1 -> "1"
    one = q0 / q0
    a0, s0, a1, s1 = one - one, one / q0, one / q1, one / q1
    for letter in w:
        if letter == "L":
            a1, s1 = a1 + s1 * a0, s1 * s0
        elif letter == "M":
            a0, s0, a1, s1 = a0 + s0 * a1, s0 * s1, a1 + s1 * a0, s1 * s0
        else:
            assert letter == "R"
            a0, s0 = a0 + s0 * a1, s0 * s1
    return AffinePair(a0, s0, a1, s1)


def _image_length(w):
    # max(|w(0)|, |w(1)|): the power of q in the denominators of w's pair
    n0 = n1 = 1
    for letter in w:
        if letter == "L":
            n1 += n0
        elif letter == "R":
            n0 += n1
        else:
            n0 = n1 = n0 + n1
    return max(n0, n1)


def _random_directive(rng, max_image=None):
    # L and R runs of length 1 to 70, with M letters between some of
    # them; max_image keeps exact Fraction entries to a few thousand digits
    while True:
        parts = []
        for _ in range(rng.randrange(1, 6)):
            parts.append(rng.choice("LR") * rng.randrange(1, 71))
            if rng.random() < 0.5:
                parts.append("M" * rng.randrange(1, 3))
        w = "".join(parts)
        if max_image is None or _image_length(w) <= max_image:
            return w


def _entries(pair):
    return pair.a0, pair.s0, pair.a1, pair.s1


def test_run_composer_is_exact_on_fractions(rng):
    for _ in range(30):
        w = _random_directive(rng, max_image=3000)
        q0 = Fraction(rng.randrange(11, 40), 10)
        q1 = Fraction(rng.randrange(11, 40), 10)
        assert _entries(directive_affine(w, q0, q1)) == _entries(_stepwise_affine(w, q0, q1)), w


def test_run_composer_matches_steps_in_multiprecision(rng):
    # the run composer at 30 digits, on mpf and on Decimal bases, against
    # the stepwise composer at 60 digits
    for _ in range(30):
        w = _random_directive(rng)
        x0, x1 = 1.05 + 2.5 * rng.random(), 1.05 + 2.5 * rng.random()
        with mp.workdps(30):
            on_mpf = _entries(directive_affine(w, mp.mpf(x0), mp.mpf(x1)))
        with localcontext(Context(prec=30)):
            on_decimal = _entries(directive_affine(w, Decimal(x0), Decimal(x1)))
        assert all(isinstance(x, Decimal) for x in on_decimal)
        with mp.workdps(60):
            want = _entries(_stepwise_affine(w, mp.mpf(x0), mp.mpf(x1)))
            for got in (on_mpf, on_decimal):
                for x, y in zip(got, want):
                    assert abs(mp.mpf(str(x)) - y) < mp.mpf("1e-25"), w


def test_node_pi_by_key_and_by_runs():
    # one seed at a time gives the values of a tuple of seeds, exactly
    seeds = tuple(NODE_SEEDS.values())
    for w in ["", "M", "LLLLR", "R" * 40 + "MLL", "L" * 67]:
        q0, q1, runs = Fraction(3, 2), Fraction(7, 4), letter_runs(w + "M")
        vals = node_pi(runs, q0, q1, seeds)
        assert len(vals) == len(seeds)
        for seed, val in zip(seeds, vals):
            assert node_pi(runs, q0, q1, seed) == val


_BASES = st.floats(min_value=1.0, max_value=4.0, exclude_min=True)
_DIRECTIVES = st.one_of(
    st.text(alphabet="LMR", max_size=30),
    st.builds(lambda c, k: c * k, st.sampled_from("LR"), st.integers(1, 70)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_DIRECTIVES, st.sampled_from(sorted(NODE_SEEDS)), _BASES, _BASES)
def test_node_f_bound_encloses_the_exact_value(w, key, q0, q1):
    # the float node function and its error bound against 60 digits;
    # the bounded evaluation repeats the plain one bit for bit
    runs = letter_runs(w + "M")
    from_pi = f_from_pi if key.startswith("s0") else f_tilde_from_pi
    value, err = node_f_bound(runs, directive_roundings(runs), NODE_SEEDS[key], not key.startswith("s0"), q0, q1)
    assert value == from_pi(node_pi(runs, q0, q1, NODE_SEEDS[key]), q0, q1)
    if "M" not in w and min(q0, q1) > 1.001:  # short images, no 1 - s near 0
        assert err < 1e-9 * max(1.0, abs(value))
    with mp.workdps(60):
        x, y = mp.mpf(q0), mp.mpf(q1)
        exact = from_pi(node_pi(runs, x, y, NODE_SEEDS[key]), x, y)
        assert abs(mp.mpf(value) - exact) <= err


def test_bound_from_a_kept_composition_is_bit_identical(rng):
    # a value function keeps the composition of each float point it
    # evaluates, and its bound there starts from it: the same (value,
    # err) as a bound composed afresh, bit for bit; so does a bound from
    # the composition kept by another seed's function of the same runs
    for _ in range(200):
        w = _random_directive(rng) if rng.random() < 0.5 else "".join(rng.choice("LMR") for _ in range(rng.randrange(12)))
        key, other = rng.sample(sorted(NODE_SEEDS), 2)
        runs, tilde = letter_runs(w + "M"), not key.startswith("s0")
        q0, q1 = 1 + 3 * rng.random(), 1 + 3 * rng.random()
        fn = value_fns(runs, (NODE_SEEDS[key], tilde))[0]
        fresh = node_f_bound(runs, directive_roundings(runs), NODE_SEEDS[key], tilde, q0, q1)
        kept = {}
        node_pi(runs, q0, q1, NODE_SEEDS[key], kept)
        assert _entries(kept[q0, q1]) == _entries(directive_affine(runs, q0, q1))
        reused = node_f_bound(runs, directive_roundings(runs), NODE_SEEDS[key], tilde, q0, q1, kept[q0, q1])
        assert reused == fresh and fn.bounded(q0, q1) == fresh, w
        fn(q0, q1)  # now kept by fn
        assert fn.bounded(q0, q1) == fresh, w
        seeds = (NODE_SEEDS[other], not other.startswith("s0")), (NODE_SEEDS[key], tilde)
        fo, fs = value_fns(runs, *seeds)
        alone = value_fns(runs, seeds[0])[0].bounded(q0, q1)
        assert fo.bounded(q0, q1) == alone and fs.bounded(q0, q1) == fresh, w  # fs from fo's
        fo, fs = value_fns(runs, *seeds)
        fs(q0, q1)
        assert fo.bounded(q0, q1) == alone and fs.bounded(q0, q1) == fresh, w


@pytest.mark.parametrize("w, key", [("", "s0"), ("LRR", "s10"), ("R" * 16, "s01")])
def test_mp_values_never_read_a_float_composition(w, key):
    # a Decimal equal to a float hashes and compares equal to it, so the
    # compositions of Decimal points are kept under their precision too:
    # after a float bound and a float value at (2, 1.5), the Decimal
    # values there at 30 and at 40 digits are those of a fresh value
    # function
    runs, seed, tilde = letter_runs(w + "M"), NODE_SEEDS[key], not key.startswith("s0")
    fn, other = value_fns(runs, (seed, tilde), (seed, tilde))
    fn.bounded(2.0, 1.5)
    fn(2.0, 1.5)
    values = []
    for dps in (30, 40, 30):
        with localcontext(Context(prec=dps)):
            x, y = Decimal(2), Decimal(1.5)
            fresh = value_fns(runs, (seed, tilde))[0](x, y)
            assert fn(x, y) == fresh and other(x, y) == fresh, dps
            values.append(fresh)
    assert len({*values, fn(2.0, 1.5)}) == 3, values  # 30 digits, 40 and floats differ


def test_node_f_bound_is_infinite_where_products_underflow():
    # a mixed directive whose images are too long for float products
    runs = letter_runs("LRLRLRMLRLRLRLRMLRLRLRM" * 2 + "M")
    value, err = node_f_bound(runs, directive_roundings(runs), NODE_SEEDS["s0"], False, 1.5, 1.5)
    assert directive_affine(runs, 1.5, 1.5).s0 == 0.0
    assert math.isfinite(value) and err == math.inf


_WORDS = st.builds(Word, st.text(alphabet="01", max_size=6), st.text(alphabet="01", min_size=1, max_size=8))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_WORDS, st.booleans(), _BASES, _BASES)
def test_word_f_bound_encloses_the_exact_value(u, tilde, q0, q1):
    # a plain word's value function (runs ()) with periods of several
    # letters, against 60 digits; the bounded evaluation repeats the
    # plain one bit for bit
    fn = value_fns((), (u, tilde))[0]
    value, err = fn.bounded(q0, q1)
    assert value == fn(q0, q1)
    with mp.workdps(60):
        assert abs(mp.mpf(value) - fn(mp.mpf(q0), mp.mpf(q1))) <= err


@pytest.mark.parametrize("u", [Word("", "0" * 1100 + "1"), Word("0" * 1100, "1")], ids=["period", "preperiod"])
def test_word_f_bound_is_infinite_where_products_underflow(u):
    # 2^-1100 underflows, in the period's product or in the preperiod's
    # Horner steps
    value, err = value_fns((), (u, False))[0].bounded(2.0, 1.5)
    assert math.isfinite(value) and err == math.inf


def test_pi_limit_against_direct_sum():
    d = parse_directive("(M)")
    for seed in "01":
        stream = limit_word(d, seed)
        for (q0, q1) in [(1.3, 1.9), (1.7872, 1.7872), (2.0, 1.5)]:
            direct = naive_pi(q0, q1, stream.letters(), 500)
            assert pi_limit(d, seed, q0, q1) == pytest.approx(direct, abs=1e-12)
    d2 = parse_directive("(LR)")
    stream = limit_word(d2, 0)
    assert pi_limit(d2, "0", 1.5, 1.5) == pytest.approx(
        naive_pi(1.5, 1.5, stream.letters(), 500), abs=1e-12
    )


def test_pi_limit_multiprecision():
    d = parse_directive("(M)")
    with mp.workdps(40):
        val = pi_limit(d, "0", mp.mpf(2), mp.mpf("1.5"))
        direct = mp.mpf(0)
        s = mp.mpf(1)
        stream = limit_word(d, 0)
        for _, c in zip(range(400), stream.letters()):
            if c == "0":
                s /= 2
            else:
                s /= mp.mpf("1.5")
                direct += s
        assert abs(val - direct) < mp.mpf(10) ** -35
