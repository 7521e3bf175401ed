import itertools
import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from doublebase.critical import komornik_loreti
from doublebase.expansions import expansion_bounds
from doublebase.oracle import block_count
from doublebase import spectral
from doublebase.solvers import PreconditionError
from doublebase.spectral import (
    SubshiftAutomaton,
    build_automaton,
    entropy,
    entropy_estimate,
    ifs_dimension,
    univoque_dimension_lower_bound,
)
from doublebase.substitution import BR_L, BR_R, split_descent
from doublebase.classify import Label, classify_omega
from doublebase.words import Word, parse_word

from conftest import word_corpus

LN2 = math.log(2)
PHI = (1 + 5 ** 0.5) / 2


def naive_block_count(a: Word, b: Word, n: int, slack: int = 14) -> int:
    """Independent exhaustive count: a length-n block is admissible when
    some extension by `slack` letters keeps every 0-suffix <= a and every
    1-suffix >= b on the letters available."""

    def ok(word: str) -> bool:
        for i, c in enumerate(word):
            tail = word[i:]
            if c == "0":
                ref = a.prefix(len(tail))
                if tail > ref:
                    return False
            else:
                ref = b.prefix(len(tail))
                if tail < ref:
                    return False
        return True

    blocks = set()
    for bits in itertools.product("01", repeat=n + slack):
        w = "".join(bits)
        if ok(w):
            blocks.add(w[:n])
    return len(blocks)


def test_full_shift_automaton():
    m = build_automaton(parse_word("0(1)"), parse_word("1(0)"))
    assert entropy(m) == pytest.approx(LN2, abs=1e-12)
    assert m.path_count(3) == 8
    # every state accepts both letters: the minimized automaton is a point
    assert len(m.minimized()) == 1


def test_an_automaton_with_a_dead_start_counts_no_paths():
    # the start reads 0 into a state with no edge: no state is live, so no
    # block of any length, and minimizing leaves the automaton as it is
    transitions = [{"0": 1}, {}]
    dead = SubshiftAutomaton([0, 1], transitions, SubshiftAutomaton._live_set(transitions), None, None)
    assert dead.live == frozenset()
    assert [dead.path_count(n) for n in range(4)] == [0, 0, 0, 0]
    assert dead.minimized() is dead


def test_one_state_components_are_read_exactly(monkeypatch):
    # a one-state component's Perron root is its loop count: the full
    # shift's automaton is a chain of single states, the last with two
    # loops, so its entropy is log 2 to the last bit without a root solve
    def no_root_solve(rows):
        raise AssertionError(f"root solved on a {len(rows)}-state block")

    monkeypatch.setattr(spectral, "_perron_root", no_root_solve)
    assert entropy(build_automaton(parse_word("0(1)"), parse_word("1(0)"))) == LN2
    one_loop = SubshiftAutomaton([0], [{"0": 0}], frozenset({0}), None, None)
    assert entropy(one_loop) == 0.0
    # a transient state reads 0 and leaves the loop's root alone
    chain = SubshiftAutomaton([0, 1], [{"1": 1}, {"0": 1, "1": 1}], frozenset({0, 1}), None, None)
    assert entropy(chain) == LN2


def _mp_perron_root(rows):
    with mp.workdps(40):
        mat = mp.matrix(len(rows), len(rows))
        for i, row in enumerate(rows):
            for j in row:
                mat[i, j] += 1
        return max(abs(e) for e in mp.eig(mat, left=False, right=False))


def _random_strong_block(rng, n, periodic):
    # a shuffled n-cycle plus chords, at most two successors per state;
    # a periodic block gets one chord whose cycle shares a factor with n
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[perm[(perm.index(i) + 1) % n]] for i in range(n)]
    if periodic:
        # a chord from step a to step b closes a cycle of a - b + 1 steps
        a = rng.randrange(n)
        b = (a + 1 - rng.choice([m for m in range(2, n + 1) if math.gcd(m, n) > 1])) % n
        rows[perm[a]].append(perm[b])
    else:
        for row in rows:
            if rng.random() < 0.6:
                row.append(rng.randrange(n))
    return rows


def test_perron_roots_match_multiprecision_eigenvalues(monkeypatch, rng):
    # the multi-state blocks that entropy meets on the complexity-4 corpus,
    # and random strongly connected blocks of out-degree at most 2, some
    # periodic, against the largest |eigenvalue| from 40-digit mp.eig
    seen = {}
    solve = spectral._perron_root

    def recorded(rows):
        seen[str(rows)] = rows
        return solve(rows)

    monkeypatch.setattr(spectral, "_perron_root", recorded)
    for a in word_corpus("0", 4):
        for b in word_corpus("1", 4):
            entropy(build_automaton(a, b, validate=False))
    blocks = list(seen.values())
    assert len(blocks) >= 20
    blocks += [_random_strong_block(rng, n, True) for n in (4, 4, 6, 6, 8, 9)]
    blocks += [_random_strong_block(rng, rng.randrange(2, 7), False) for _ in range(34)]
    for rows in blocks:
        want = _mp_perron_root(rows)
        assert abs(solve(rows) - want) <= 1e-15 * want, rows


def test_011_free_shift():
    m = build_automaton(parse_word("(01)"), parse_word("1(0)"))
    assert len(m.minimized()) == 3
    # independent value: the live part has one growing component whose
    # characteristic polynomial is x^2 = x + 1
    assert entropy(m) == pytest.approx(math.log(PHI), abs=1e-9)
    assert m.path_count(4) == 12  # binary words of length 4 avoiding 011


def test_entropy_matches_block_growth_slope():
    # the finite-difference slope of ln A_n tracks the entropy closely;
    # ln(A_n)/n itself converges only at rate ln(c)/n for the prefactor c
    from doublebase.oracle import block_counts

    a, b = parse_word("(01)"), parse_word("1(0)")
    counts = block_counts(a, b, 18)
    h = entropy(build_automaton(a, b))
    slope = (math.log(counts[17]) - math.log(counts[13])) / 4
    assert abs(h - slope) < 0.01


def test_root_node_pair_automaton():
    m = build_automaton(parse_word("(01)"), parse_word("(10)"))
    assert m.path_count(4) == 8
    assert naive_block_count(parse_word("(01)"), parse_word("(10)"), 4) == 8
    assert entropy(m) == pytest.approx(0.0, abs=1e-12)


def test_path_counts_match_oracle_corpus():
    pairs = [
        ("(01)", "1(0)"),
        ("(01)", "(10)"),
        ("0(1)", "1(0)"),
        ("(0)", "(10)"),
        ("01(0)", "1(0)"),
        ("(001)", "(110)"),
        ("0(011)", "1(10)"),
        ("(0011)", "(1100)"),
    ]
    for ta, tb in pairs:
        a, b = parse_word(ta), parse_word(tb)
        # agreement must hold whether or not the bounds are extremal-fixed
        m = build_automaton(a, b, validate=False)
        for n in range(1, 15):
            assert m.path_count(n) == block_count(a, b, n), (ta, tb, n)


def test_zero_entropy_for_countable_pairs():
    for a in word_corpus("0", 3):
        for b in word_corpus("1", 3):
            label = classify_omega(a, b).label
            if label in (Label.TRIVIAL, Label.COUNTABLE_NONTRIVIAL):
                m = build_automaton(a, b, validate=False)
                assert entropy(m) == pytest.approx(0.0, abs=1e-12)


def _shuffled_automaton(edges, n, rng):
    # all n states live, relabelled by a random permutation
    perm = list(range(n))
    rng.shuffle(perm)
    transitions = [dict() for _ in range(n)]
    for s, c, t in edges:
        transitions[perm[s]][c] = perm[t]
    return SubshiftAutomaton(list(range(n)), transitions, frozenset(range(n)), None, None)


def _cycle_chain(lengths, rng):
    # k-cycles on letter 0, each linked to the next by one 1-edge
    edges, first = [], 0
    for j, k in enumerate(lengths):
        edges += [(first + i, "0", first + (i + 1) % k) for i in range(k)]
        if j + 1 < len(lengths):
            edges.append((first, "1", first + k))
        first += k
    return _shuffled_automaton(edges, first, rng)


def _golden_chain(blocks, rng):
    # A -0-> A, A -1-> B, B -0-> A, and B -1-> the next block's A
    edges = []
    for j in range(blocks):
        a, b = 2 * j, 2 * j + 1
        edges += [(a, "0", a), (a, "1", b), (b, "0", a)]
        if j + 1 < blocks:
            edges.append((b, "1", b + 2))
    return _shuffled_automaton(edges, 2 * blocks, rng)


def test_entropy_of_chained_components(rng):
    # chained components with equal Perron roots form Jordan blocks of the
    # whole matrix, whose computed eigenvalues split; each component's
    # root must still be read exactly
    chains = [(k,) * copies for k in (3, 5, 7) for copies in (2, 3, 4)] + [(3, 5, 7) * 2]
    for _ in range(10):
        for lengths in chains:
            assert entropy(_cycle_chain(lengths, rng)) <= 1e-12, lengths
        for blocks in (2, 3, 4):
            h = entropy(_golden_chain(blocks, rng))
            assert abs(h - math.log(PHI)) <= 1e-12, blocks


def test_validation():
    with pytest.raises(PreconditionError):
        build_automaton(parse_word("0(01)"), parse_word("(10)"))
    with pytest.raises(PreconditionError):
        build_automaton(parse_word("(01)"), parse_word("1(10)"))
    # the estimator path uses unvalidated truncations on purpose
    build_automaton(parse_word("0(01)"), parse_word("(10)"), validate=False)


def test_dump_format():
    m = build_automaton(parse_word("(01)"), parse_word("1(0)")).minimized()
    lines = m.dump_lines()
    assert all(" -> " in line for line in lines)
    assert len(lines) == sum(len(t) for t in m.transitions)


def test_ifs_dimension_examples():
    assert ifs_dimension(0.5, 0.5) == pytest.approx(1.0, abs=1e-10)
    assert ifs_dimension(0.25, 0.25) == pytest.approx(0.5, abs=1e-10)
    assert ifs_dimension(0.5, 0.25) == pytest.approx(math.log(PHI) / LN2, abs=1e-10)
    # a float midpoint, also where the bracket's ends are mpf
    with mp.workdps(30):
        log2_phi = float(mp.log(mp.phi, 2))
    d = ifs_dimension(0.5, 0.25, tol=1e-20)
    assert type(d) is float
    assert d == pytest.approx(log2_phi, abs=1e-16)


def test_ifs_dimension_symmetry_and_monotonicity(rng):
    for _ in range(50):
        r0 = 0.05 + 0.9 * rng.random()
        r1 = 0.05 + 0.9 * rng.random()
        d = ifs_dimension(r0, r1)
        assert d == pytest.approx(ifs_dimension(r1, r0), abs=1e-10)
        bigger = ifs_dimension(min(r0 * 1.05, 0.99), r1)
        assert bigger > d
    with pytest.raises(ValueError):
        ifs_dimension(1.0, 0.5)


def test_entropy_estimate_tracks_plateau():
    K19 = 2.8 / 1.71
    assert entropy_estimate(1.9, K19 - 0.03) < 0.02
    assert entropy_estimate(1.9, K19 + 0.05) > 0.05


def test_dimension_lower_bound():
    K19 = 2.8 / 1.71
    d = univoque_dimension_lower_bound(1.9, K19 + 0.05)
    assert 0 < d <= 1
    d = univoque_dimension_lower_bound(2.0, 2.0)
    assert 0 < d <= 1
    d = univoque_dimension_lower_bound(1.9, 1.8)
    assert 0 < d <= 1
    with pytest.raises(PreconditionError):
        univoque_dimension_lower_bound(1.7, 1.5)  # below K(1.7)


@pytest.mark.parametrize("q0, branch, expected", [
    (1.3, "L", 0.12380825381411123),
    (2.4, "L", 0.2003495364078796),
    (1.4, "R", 0.14137562281027857),
    (2.9, "R", 0.27922575704039704),
], ids=["L-1.3", "L-2.4", "R-1.4", "R-2.9"])
def test_dimension_lower_bound_marker_branches(q0, branch, expected):
    # just above K(q0) the split descent ends at b on the L branch (the
    # markers w(1 (0(01)^k)^inf)) or at a on the R branch (their
    # reflections); the one marker loop serves both, and the pinned
    # bounds are those of one loop per branch
    q1 = komornik_loreti(q0).value.hi + 0.01
    _, _, ba, bb = split_descent(*expansion_bounds(q0, q1), 64)
    assert ("L" if bb == BR_L else "R" if ba == BR_R else None) == branch
    assert univoque_dimension_lower_bound(q0, q1) == pytest.approx(expected, rel=1e-12)


def _moran_root(q0, q1, g0, g1):
    """The Moran exponent of the generator words g0, g1 at 50 digits."""
    with mp.workdps(50):
        logs = [-(g.count("0") * mp.log(q0) + g.count("1") * mp.log(q1)) for g in (g0, g1)]
        return mp.findroot(lambda s: mp.exp(s * logs[0]) + mp.exp(s * logs[1]) - 1,
                           (mp.mpf("1e-3"), mp.mpf(1)), solver="anderson")


@pytest.mark.parametrize("q0, q1", [
    *((q0, None) for q0 in (1.3, 2.4, 1.4, 2.9)),
    (1.9, 1.7), (2.0, 2.0), (3.0, 3.0),
], ids=repr)
def test_dimension_lower_bound_is_below_the_moran_root(monkeypatch, q0, q1):
    # the bound is a proven lower end, never a midpoint above the root
    if q1 is None:  # the marker-branch cases, just above K(q0)
        q1 = komornik_loreti(q0).value.hi + 0.01
    words = []
    generator_dimension = spectral._generator_dimension
    monkeypatch.setattr(spectral, "_generator_dimension",
                        lambda q0, q1, g0, g1, dps: words.append((g0, g1)) or generator_dimension(q0, q1, g0, g1, dps))
    d = univoque_dimension_lower_bound(q0, q1)
    root = _moran_root(q0, q1, *words[-1])
    assert type(d) is float
    assert root - 2e-12 <= d <= root


def test_minimization_preserves_path_counts():
    for a in word_corpus("0", 3):
        for b in word_corpus("1", 3):
            m = build_automaton(a, b, validate=False)
            mm = m.minimized()
            for n in (1, 3, 6, 10):
                assert m.path_count(n) == mm.path_count(n), (a, b, n)


def _reference_build(a: Word, b: Word):
    """The subset construction on frozensets of positions, each open
    comparison stepped one letter at a time; live states by sweeping all
    states until none dies."""

    def position(w, i):
        lp, lq = len(w.pre), len(w.per)
        return i if i < lp else lp + (i - lp) % lq

    def step(state, c):
        sa, sb = state
        na, nb = set(), set()
        for i in sa:
            if c > a.letter(i):
                return None
            if c == a.letter(i):
                na.add(position(a, i + 1))
        for i in sb:
            if c < b.letter(i):
                return None
            if c == b.letter(i):
                nb.add(position(b, i + 1))
        (na if c == "0" else nb).add(position(a if c == "0" else b, 1))
        return frozenset(na), frozenset(nb)

    init = (frozenset(), frozenset())
    index, states, transitions, todo = {init: 0}, [init], [{}], [init]
    while todo:
        s = todo.pop()
        for c in "01":
            t = step(s, c)
            if t is None:
                continue
            if t not in index:
                index[t] = len(states)
                states.append(t)
                transitions.append({})
                todo.append(t)
            transitions[index[s]][c] = index[t]
    return states, transitions, _reference_live(transitions)


def _reference_live(transitions) -> set:
    live = set(range(len(transitions)))
    changed = True
    while changed:
        changed = False
        for s in list(live):
            if not any(t in live for t in transitions[s].values()):
                live.discard(s)
                changed = True
    return live


def _words_starting(first: str):
    # eventually periodic words of complexity at most 7 starting `first`
    return (st.tuples(st.text("01", max_size=6), st.text("01", min_size=1, max_size=7))
            .filter(lambda t: len(t[0]) + len(t[1]) <= 7)
            .map(lambda t: Word(*t))
            .filter(lambda w: w.letter(0) == first))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_words_starting("0"), _words_starting("1"))
def test_bitmask_automaton_matches_the_frozenset_construction(a, b):
    # same numbering, transitions and live states as stepping frozensets
    # of positions; each state's masks are its position sets as bits
    states, transitions, live = _reference_build(a, b)
    m = build_automaton(a, b, validate=False)
    assert m.transitions == transitions
    assert m.live == live
    assert len(m.states) == len(states)
    assert m.states == [tuple(sum(1 << i for i in side) for side in s) for s in states]


def test_live_set_peels_dead_chains_only():
    # 0 -> 1 -> 2 is a chain feeding the cycle 3 <-> 4, which feeds the
    # dead end 5 -> 6 -> 7 (6 reaches 7 by both letters); 8 loops on itself
    transitions = [
        {"0": 1}, {"1": 2}, {"0": 3},
        {"1": 4}, {"0": 3, "1": 5},
        {"0": 6}, {"0": 7, "1": 7}, {},
        {"0": 8, "1": 7},
    ]
    live = SubshiftAutomaton._live_set(transitions)
    assert live == {0, 1, 2, 3, 4, 8} == _reference_live(transitions)
    assert SubshiftAutomaton._live_set([{}]) == set()
