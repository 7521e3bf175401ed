import math
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doublebase.expansions import (
    BasePair,
    DigitRun,
    ExpansionStream,
    ExpansionError,
    _to_fraction,
    expansion_bounds,
    hole,
    quasi_greedy,
    quasi_lazy,
    regular,
)
from doublebase.classify import classify_univoque
from doublebase.critical import ks_crosscheck
from doublebase.oracle import verify_membership
from doublebase.series import reduce_system
from doublebase.spectral import entropy_estimate, univoque_dimension_lower_bound
from doublebase.words import parse_word


def hand_quasi_greedy(q0, q1, x, n):
    """Independent digit iteration with exact rationals."""
    q0, q1, x = Fraction(q0), Fraction(q1), Fraction(x)
    out = ""
    for _ in range(n):
        t = q1 * x - 1
        if t > 0:
            out += "1"
            x = t
        else:
            out += "0"
            x = q0 * x
    return out


def test_quasi_greedy_examples():
    # oracle first: the same values iterated by hand arithmetic
    assert hand_quasi_greedy(2, Fraction(3, 2), Fraction(2, 3), 8) == "01101010"
    run = quasi_greedy(2, 1.5, Fraction(2, 3), 8)
    assert run.digits == "01101010"

    assert hand_quasi_greedy(2, 2, Fraction(1, 2), 5) == "01111"
    assert quasi_greedy(2, 2, 0.5, 5).digits == "01111"

    assert hand_quasi_greedy(Fraction(3, 2), 2, Fraction(1, 2), 6) == "010101"
    assert quasi_greedy(1.5, 2, 0.5, 6).digits == "010101"


def test_quasi_greedy_boundary_flags():
    # x = 1/q1 starts exactly on the boundary q1*x = 1: flagged, digit 0
    run = quasi_greedy(2, 1.5, Fraction(2, 3), 8)
    assert run.flagged(0)
    assert run.digits[0] == "0"


def test_quasi_lazy_examples():
    # b_{2, 3/2}: quasi-lazy expansion of 1/(q0 (q1-1)) = 1
    assert quasi_lazy(2, 1.5, 1, 6).digits == "101010"
    # b_{3/2, 2}: quasi-lazy of 1/(1.5 * 1) = 2/3
    assert quasi_lazy(1.5, 2, Fraction(2, 3), 6).digits == "100101"
    # b_{2,2}: quasi-lazy of 1/2
    assert quasi_lazy(2, 2, 0.5, 4).digits == "1000"


def test_quasi_lazy_is_reflected_greedy():
    # the defining identity: reflect(quasi_greedy(q1, q0, mirrored x))
    q0, q1, x = 2, Fraction(3, 2), Fraction(1)
    mirrored = (1 - (q1 - 1) * x) / (Fraction(q0) - 1)
    greedy = hand_quasi_greedy(q1, q0, mirrored, 12)
    reflected = "".join("1" if c == "0" else "0" for c in greedy)
    assert quasi_lazy(q0, q1, x, 12).digits == reflected


def test_expansion_bounds_start_letters(rng):
    # a starts 01 and b starts 10 for every regular pair
    for _ in range(50):
        q0 = 1 + rng.random()
        q1 = 1 + rng.random()
        if not regular(q0, q1):
            continue
        a, b = expansion_bounds(q0, q1)
        assert a.prefix(2) == "01"
        assert b.prefix(2) == "10"


def test_prefix_monotonicity_in_q1():
    # larger q1 gives a lexicographically larger quasi-greedy bound and a
    # smaller quasi-lazy bound
    q0 = 1.8
    runs = []
    for q1 in [1.4, 1.5, 1.6, 1.7]:
        a = quasi_greedy(q0, q1, Fraction(1, 1) / Fraction(q1), 64).digits
        b = quasi_lazy(q0, q1, 1 / (Fraction(q0) * (Fraction(q1) - 1)), 64).digits
        runs.append((a, b))
    for (a1, b1), (a2, b2) in zip(runs, runs[1:]):
        assert a1 < a2
        assert b2 < b1


def test_regularity_checks():
    assert regular(2, 1.5)
    assert regular(2, 2)
    assert not regular(2.1, 2.1)
    with pytest.raises(ExpansionError):
        quasi_greedy(2.1, 2.1, 0.1, 4)
    with pytest.raises(ExpansionError):
        quasi_greedy(2, 1.5, 3.0, 4)  # outside the attractor
    left, right = hole(2.0, 1.5)
    assert left == pytest.approx(2 / 3)
    assert right == pytest.approx(1.0)
    # an ulp beyond q1 = q0/(q0-1), where q0 + q1 >= q0 q1 holds in floats
    # but not exactly: the pair is irregular, so the dimension bound is the
    # full shift's, the Moran exponent s of the words 0 and 001
    # (q0^-s + (q0^2 q1)^-s = 1), and ks_crosscheck rejects it up front
    q0, q1 = 1.4030927323372038, 3.480818729233398
    assert q0 + q1 >= q0 * q1 and not regular(q0, q1)
    with mp.workdps(30):
        s = mp.findroot(lambda s: mp.mpf(q0) ** -s + (mp.mpf(q0) ** 2 * q1) ** -s - 1, 0.7)
    bound = univoque_dimension_lower_bound(q0, q1)
    assert bound <= s and abs(bound - s) < 1e-9
    with pytest.raises(ValueError, match=r"pair \(1\.4030927323372038, 3\.480818729233398\) is not regular$"):
        ks_crosscheck(q0, q1)


_AS_TYPE = st.sampled_from([float, Fraction, Decimal, mp.mpf])


@settings(max_examples=200, deadline=None)
@given(st.floats(1.001, 20.0), st.integers(-1, 1), _AS_TYPE, _AS_TYPE)
def test_regular_is_the_exact_test_next_to_the_curve(q0, ulps, t0, t1):
    # on q1 = q0/(q0-1) and one ulp either side, where floats disagree
    # with exact arithmetic, regular is the digit steps' Fraction test
    q1 = q0 / (q0 - 1)
    for _ in range(abs(ulps)):
        q1 = math.nextafter(q1, math.copysign(math.inf, ulps))
    exact = Fraction(q0) + Fraction(q1) >= Fraction(q0) * Fraction(q1)
    assert regular(t0(q0), t1(q1)) is exact
    assert regular(t1(q1), t0(q0)) is exact


def test_stream_determinism():
    a = ExpansionStream(1.9, 1.7, Fraction(10, 17))
    p1, p2 = a.prefix(40), a.prefix(80)
    assert p2.startswith(p1)
    assert a.prefix(40) == p1


def test_mpf_inputs_are_exact():
    # finite mpf values are dyadic rationals and run through the exact path
    run = quasi_greedy(mp.mpf(2), mp.mpf("1.5"), mp.mpf(2) / 3, 8)
    assert run.digits == "01101010"


def _exact(v):
    """v as a Fraction: mpf values from their mantissa and exponent."""
    if isinstance(v, mp.mpf):
        return Fraction(v.man) * Fraction(2) ** v.exp
    return Fraction(v)


def hand_digits(q0, q1, x, n, lazy):
    """Digits and exact-boundary indices by a plain Fraction recurrence.
    Quasi-greedy: 1 when q1*x > 1; quasi-lazy: 0 when q0*(q1-1)*x < 1."""
    q0, q1, x = _exact(q0), _exact(q1), _exact(x)
    digits, hits = "", set()
    for i in range(n):
        if lazy:
            t = q0 * (q1 - 1) * x - 1
            digit = "0" if t < 0 else "1"
        else:
            t = q1 * x - 1
            digit = "1" if t > 0 else "0"
        if t == 0:
            hits.add(i)
        digits += digit
        x = q1 * x - 1 if digit == "1" else q0 * x
    return digits, hits


@pytest.mark.parametrize("q0, q1, x", [
    (1.5, 1.8, 0.3),
    (1.9, 1.7, 0.55),
    (Fraction(7, 5), Fraction(4, 3), Fraction(5, 7)),
    (Decimal("1.3"), 1.8, Decimal("0.9")),
    (1.5, Fraction(4, 3), mp.mpf(1) / 3),
    (2, 2, Fraction(1, 2)),  # both expansions hit the boundary at once
], ids=["float", "float-2", "sevenths-thirds", "Decimal", "mpf-point", "boundary"])
def test_digits_match_a_fraction_recurrence(q0, q1, x):
    # exact for every rational input, dyadic or not: 200 digits and
    # every boundary flag of both expansions
    for lazy, fn in ((False, quasi_greedy), (True, quasi_lazy)):
        digits, hits = hand_digits(q0, q1, x, 200, lazy)
        run = fn(q0, q1, x, 200)
        assert run.digits == digits
        assert run.boundary == hits
    if (q0, q1) == (2, 2):
        assert quasi_greedy(q0, q1, x, 4) == DigitRun("0111", frozenset({0}))
        assert quasi_lazy(q0, q1, x, 4) == DigitRun("1000", frozenset({0}))


def test_base_pair_type():
    p = BasePair(2.0, 1.5)
    assert p.regular
    assert p.hole[0] == pytest.approx(2 / 3)
    assert not BasePair(2.2, 2.2).regular
    with pytest.raises(ExpansionError):
        BasePair(1.0, 2.0)


@pytest.mark.parametrize("convert", [
    Decimal,
    lambda v: np.float64(float(v)),
    lambda v: np.float32(float(v)),
    lambda v: np.int64(v) if float(v).is_integer() else Fraction(v),
], ids=["Decimal", "float64", "float32", "int64"])
def test_numeric_types_give_the_fraction_digits(convert):
    # every finite input is one exact rational: its digits and boundary
    # flags are those of the same value as a Fraction
    for q0, q1 in [("2", "1.5"), ("1.5", "2"), ("1.875", "1.75"), ("2", "2")]:
        exact = (Fraction(q0), Fraction(q1))
        given = (convert(q0), convert(q1))
        left, right = hole(*exact)
        assert quasi_greedy(*given, left, 40) == quasi_greedy(*exact, left, 40)
        assert quasi_lazy(*given, right, 40) == quasi_lazy(*exact, right, 40)
        assert entropy_estimate(*given, 24) == entropy_estimate(*exact, 24)
    # the point too: Decimal(2)/3 is a 28-digit rational, not 2/3
    x = Decimal(2) / 3
    assert quasi_greedy(Decimal(2), Decimal("1.5"), x, 60) == quasi_greedy(2, Fraction(3, 2), Fraction(x), 60)


def test_quasi_lazy_rejects_a_mirrored_point_outside_the_attractor():
    # x < 0 mirrors above 1/(q0-1), x > 1/(q1-1) mirrors below 0
    with pytest.raises(ExpansionError):
        quasi_lazy(2, 1.5, Fraction(-1, 10), 4)
    with pytest.raises(ExpansionError):
        quasi_lazy(2, 1.5, Fraction(21, 10), 4)
    assert quasi_lazy(2, 1.5, 2, 4).digits == "1111"  # the right end 1/(q1-1) itself


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), Decimal("Infinity"),
                                 np.float32("inf"), mp.inf, mp.nan], ids=repr)
def test_non_finite_inputs_are_rejected(bad):
    # an infinite mpf has a zero mantissa, like 0 itself, and Fraction
    # raises OverflowError or ValueError on the others
    with pytest.raises(ExpansionError):
        _to_fraction(bad)
    with pytest.raises(ExpansionError):
        quasi_greedy(2, 1.5, bad, 4)
    with pytest.raises(ExpansionError):
        expansion_bounds(bad, 1.5)
    with pytest.raises(ExpansionError):
        BasePair(bad, 1.5)


# every public function that takes a base pair, but the value maps pi,
# pi~, f and f~, which the solvers evaluate at q1 = 1 (where g_u meets 1)
_BASE_PAIR_ENTRIES = {
    "BasePair": BasePair,
    "regular": regular,
    "hole": hole,
    "quasi_greedy": lambda q0, q1: quasi_greedy(q0, q1, 0, 4),
    "quasi_lazy": lambda q0, q1: quasi_lazy(q0, q1, 0, 4),
    "ExpansionStream": lambda q0, q1: ExpansionStream(q0, q1, 0),
    "expansion_bounds": expansion_bounds,
    "ks_crosscheck": ks_crosscheck,
    "classify_univoque": classify_univoque,
    "entropy_estimate": entropy_estimate,
    "univoque_dimension_lower_bound": univoque_dimension_lower_bound,
    "reduce_system": lambda q0, q1: reduce_system(0, q0, 1, q1),
    "verify_membership": lambda q0, q1: verify_membership(q0, q1, parse_word("(01)")),
}


@pytest.mark.parametrize("q0, q1", [(1.5, 1), (1, 1.5), (0.5, 1.5), (1.5, math.inf), (math.inf, 1.5),
                                    (1.5, math.nan), (math.nan, 1.5)], ids=repr)
@pytest.mark.parametrize("name", sorted(_BASE_PAIR_ENTRIES))
def test_bases_outside_the_domain_are_rejected(name, q0, q1):
    with pytest.raises(ValueError):
        _BASE_PAIR_ENTRIES[name](q0, q1)
