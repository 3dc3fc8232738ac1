import random
import subprocess
import sys
import threading
import tracemalloc
from array import array
from bisect import bisect_left, bisect_right
from functools import cache
from itertools import accumulate, combinations, pairwise
from math import isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiprimes import (
    MAX_CLASSIFY_INPUT,
    MAX_COUNT_INPUT,
    Category,
    DomainError,
    RangeLimitError,
    classify,
    core,
    count_range,
    icbrt,
    k1,
    k2,
    oracle,
    primality,
    semiprime_count,
    semiprime_indicator,
    t,
)
from semiprimes.core import (
    SEGMENT,
    _HIT,
    _LARGE,
    _MARK,
    _POPCOUNT,
    _PiTable,
    _REJECT,
    _REJECTED,
    _SEMIPRIME,
    _SMALL,
    _SMALL_SEMIPRIMES,
    _SQUARES,
    _odd_segment,
    _prefix_count,
    _prefix_parts,
    _primes,
    _semiprime_flags,
    _triple_bits,
    _window_marks,
    _window_parts,
)

VALID_TRIPLES = {(1, 1, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)}


def test_k1_examples():
    assert k1(9) == 1  # icbrt(9) = 2, table (2,), 9 is odd
    assert k1(10) == 0
    assert k1(30) == 0


def test_k2_examples():
    assert k2(10) == 1  # 2 | 10 and 5 is prime, via the small-domain t
    assert k2(33) == 1  # 3 | 33 and 11 is prime
    assert k2(8) == 0  # 8/2 = 4 is not prime


def test_indicator_examples():
    assert semiprime_indicator(14) == 1
    assert semiprime_indicator(13) == 0
    assert semiprime_indicator(30) == 0


def test_indicator_domain_and_range():
    for fn in (k1, k2, semiprime_indicator):
        with pytest.raises(DomainError):
            fn(7)
    with pytest.raises(RangeLimitError):
        semiprime_indicator(10**12 + 1)


def test_classify_examples():
    prime = classify(13)
    assert prime.category is Category.PRIME
    assert prime.triple == (1, 1, 0)
    semi = classify(14)
    assert semi.category is Category.SEMIPRIME
    assert semi.triple == (0, 0, 1)
    many = classify(30)
    assert many.category is Category.COMPOSITE_MANY_FACTORS
    assert many.triple == (0, 0, 0)


def test_classify_square_of_prime_uses_large_factor_case():
    semi = classify(9409)  # 97 * 97, both factors above icbrt
    assert semi.category is Category.SEMIPRIME
    assert semi.triple == (0, 1, 0)


def test_classify_small_domain():
    for x, cat in ((2, Category.PRIME), (3, Category.PRIME), (4, Category.SEMIPRIME),
                   (5, Category.PRIME), (6, Category.SEMIPRIME), (7, Category.PRIME)):
        result = classify(x)
        assert result.category is cat
        assert result.triple is None
        assert result.small_domain
    assert not classify(13).small_domain


def test_classify_domain_and_range():
    with pytest.raises(DomainError):
        classify(1)
    with pytest.raises(DomainError):
        classify(0)
    with pytest.raises(RangeLimitError):
        classify(10**12 + 1)


def test_classification_against_oracle_to_2e4():
    for x in range(8, 2 * 10**4 + 1):
        profile = oracle.factor_profile(x)
        result = classify(x)
        assert result.triple in VALID_TRIPLES, (x, result.triple)
        assert result.category is oracle.category_for_omega(profile.omega), x
        assert semiprime_indicator(x) == (1 if profile.omega == 2 else 0), x


def test_fused_triple_matches_standalone_indicators():
    for x in range(8, 2001):
        assert classify(x).triple == (t(x), k1(x), k2(x)), x


@given(st.integers(min_value=8, max_value=10**10))
@settings(max_examples=60)
def test_fused_triple_matches_standalone_property(x):
    assert classify(x).triple == (t(x), k1(x), k2(x))


def _oracle_triple(x):
    # (t, k1, k2) read off a trial-division factorization, which shares no
    # code with the indicators' prime table or divisor scan
    profile = oracle.factor_profile(x)
    small = profile.factors[0] <= icbrt(x)
    return (int(profile.omega == 1), int(not small), int(profile.omega == 2 and small))


_PRIMES_TO_1E4 = oracle.sieve(10**4).primes


@pytest.mark.parametrize(
    "x",
    [
        999_999_999_906,  # 2 * 3 * 166666666651
        999_999_999_892,  # 2^2 * 249999999973
        999_470_696_429,  # 9967^2 * 10061, the least factor just below icbrt
        999_977_991_602,  # 2 * 707099^2
        1_067,  # 11 * 97, where icbrt(x) + 1 = 11 is a prime factor
        991_921_850_317,  # 9973^3, where the least factor is icbrt(x)
        999_999_999_997,  # 5507 * 181587071, the largest semiprime <= 10^12
        999_962_000_357,  # 999979 * 999983
        999_999_999_989,  # prime
        10**12,
    ],
)
def test_triple_matches_factorization(x):
    assert classify(x).triple == _oracle_triple(x)


@st.composite
def _products_of_small_primes(draw):
    """x <= 10^10: one to three primes <= 10^4 times a positive integer (a
    third prime that would pass 10^10 is left out)."""
    x = 1
    for p in draw(st.lists(st.sampled_from(_PRIMES_TO_1E4), min_size=1, max_size=3)):
        if x * p <= 10**10:
            x *= p
    return max(8, x * draw(st.integers(min_value=1, max_value=10**10 // x)))


@given(_products_of_small_primes())
@settings(max_examples=200)
def test_triple_matches_factorization_property(x):
    assert classify(x).triple == _oracle_triple(x)


def _least_small_factor_by_scan(x):
    # the reference for the block gcds: every prime <= icbrt(x) in turn
    for p in _primes(icbrt(x)):
        if x % p == 0:
            return p
    return 0


_CUBE_ROOT_PRIMES = _primes(icbrt(MAX_CLASSIFY_INPUT))
_SMALL_PRIMES_TO_1E6 = oracle.sieve(10**6).primes


def _block_starts():
    # the index in the cube-root primes of each block's first prime
    return list(accumulate((len(primes) for _, primes, _ in core._BLOCKS[:-1]), initial=0))


def _block_edge_primes():
    # the first and the last prime of every block, and two primes on either
    # side of each edge between blocks
    indices = set()
    for s in _block_starts()[1:]:
        indices.update(range(s - 2, s + 2))
    indices.update(len(_CUBE_ROOT_PRIMES) - i for i in (1, 2))
    return sorted(_CUBE_ROOT_PRIMES[i] for i in indices | {0, 1})


def _prime_at_most(n):
    # the largest prime <= n, for 2 <= n <= 10^12, by trial division with
    # the oracle's primes
    while not all(n % r for r in _SMALL_PRIMES_TO_1E6[: bisect_right(_SMALL_PRIMES_TO_1E6, isqrt(n))]):
        n -= 1
    return n


def test_blocks_cover_the_cube_root_primes_in_order():
    assert [p for _, primes, _ in core._BLOCKS for p in primes] == list(_CUBE_ROOT_PRIMES)
    for first, primes, product in core._BLOCKS:
        assert first == primes[0]
        assert product == prod(primes)


def test_least_small_factor_matches_the_scan_to_2e4():
    for x in range(8, 2 * 10**4 + 1):
        assert core._least_small_factor(x, icbrt(x)) == _least_small_factor_by_scan(x), x


def test_least_small_factor_matches_the_scan_at_block_edges():
    # p * q with q the next prime (both factors above icbrt) and with q the
    # largest prime that keeps x <= 10^12, p^2, p^3 and p^2 * q, for p at
    # each block edge; the categories follow from the construction
    cases = []
    for p in _block_edge_primes():
        q_next = _SMALL_PRIMES_TO_1E6[bisect_right(_SMALL_PRIMES_TO_1E6, p)]
        q_far = _prime_at_most(MAX_CLASSIFY_INPUT // p)
        q_sq = _prime_at_most(MAX_CLASSIFY_INPUT // (p * p))
        cases += [
            (p * q_next, Category.SEMIPRIME),
            (p * q_far, Category.SEMIPRIME),
            (p * p, Category.SEMIPRIME),
            (p**3, Category.COMPOSITE_MANY_FACTORS),
            (p * p * q_sq, Category.COMPOSITE_MANY_FACTORS),
        ]
    for x, category in cases:
        if x < 8:
            continue
        assert core._least_small_factor(x, icbrt(x)) == _least_small_factor_by_scan(x), x
        assert classify(x).category is category, x


def test_least_small_factor_matches_the_scan_where_icbrt_crosses_a_block_edge():
    # c^3 - 1, c^3 and c^3 + 1 for every c from the last prime of a block
    # to the first of the next, so icbrt steps across the edge
    for s in _block_starts()[1:]:
        for c in range(_CUBE_ROOT_PRIMES[s - 1], _CUBE_ROOT_PRIMES[s] + 1):
            for x in (c**3 - 1, c**3, c**3 + 1):
                assert core._least_small_factor(x, icbrt(x)) == _least_small_factor_by_scan(x), x


def test_least_small_factor_matches_the_scan_at_random():
    rng = random.Random(2021)
    for _ in range(10**5):
        x = rng.randrange(10**6, MAX_CLASSIFY_INPUT + 1)
        assert core._least_small_factor(x, icbrt(x)) == _least_small_factor_by_scan(x), x


def test_classify_matches_factorization_near_the_top():
    rng = random.Random(2022)
    for _ in range(100):
        x = rng.randrange(MAX_CLASSIFY_INPUT - 10**9, MAX_CLASSIFY_INPUT + 1)
        result = classify(x)
        assert result.triple == _oracle_triple(x), x
        assert result.category is oracle.category_for_omega(oracle.factor_profile(x).omega), x


def test_k1_equals_small_divisor_existence_to_1e5():
    # k1 = 0 exactly when some prime <= icbrt(x) divides x
    primes = oracle.sieve(icbrt(10**5)).primes
    for x in range(8, 10**5 + 1):
        c = icbrt(x)
        has_small = any(x % p == 0 for p in primes if p <= c)
        assert k1(x) == (0 if has_small else 1), x


def test_semiprime_factor_bounds_against_oracle_to_1e5():
    # triple (0,1,0): both prime factors above icbrt(x);
    # triple (0,0,1): the smaller factor is <= icbrt(x)
    for x in range(8, 10**5 + 1):
        result = classify(x)
        if result.category is not Category.SEMIPRIME:
            continue
        p, q = oracle.factor_profile(x).factors
        c = icbrt(x)
        if result.triple == (0, 1, 0):
            assert p > c and q > c, x
        else:
            assert result.triple == (0, 0, 1), x
            assert p <= c, x


def test_count_examples():
    assert semiprime_count(10) == 4
    assert semiprime_count(100) == 34
    assert semiprime_count(8) == 2


def test_count_small_domain():
    assert [semiprime_count(n) for n in range(1, 8)] == [0, 0, 0, 1, 1, 2, 2]


def test_count_domain_and_range():
    with pytest.raises(DomainError):
        semiprime_count(0)
    with pytest.raises(RangeLimitError):
        semiprime_count(10**9 + 1)


def test_count_range_examples():
    assert count_range(8, 10) == 2  # 9 and 10
    assert count_range(8, 8) == 0  # 8 = 2^3
    assert count_range(8, 100) == 32


def test_count_range_domain():
    with pytest.raises(DomainError):
        count_range(7, 10)
    with pytest.raises(DomainError):
        count_range(10, 9)
    with pytest.raises(RangeLimitError):
        count_range(8, 10**9 + 1)


def test_count_steps_match_classification():
    acc = semiprime_count(7)
    for x in range(8, 3001):
        step = semiprime_indicator(x)
        assert step in (0, 1)
        assert (step == 1) == (classify(x).category is Category.SEMIPRIME), x
        acc += step
    assert acc == semiprime_count(3000)


@given(st.lists(st.integers(min_value=9, max_value=5000), max_size=6))
@settings(max_examples=40)
def test_count_range_composition_over_random_splits(cuts):
    # wide pieces take the prefix difference and telescope, so the window
    # pass is summed over the same pieces too
    bounds = [8] + sorted(set(cuts)) + [5001]
    total = window_total = 0
    for a, b in zip(bounds, bounds[1:]):
        if a < b:
            total += count_range(a, b - 1)
            k1_sum, k2_sum, t_sum = _window_parts(a, b - 1)
            window_total += k1_sum + k2_sum - t_sum
    assert total == window_total == semiprime_count(5000) - 2


# Primes through the first prime past 1000^2: every p with p^2 <= 10^9, and
# the primes q nearest p^2 for every p with p^3 <= 10^9.
_PRIMES = oracle.sieve(1000**2 + 200).primes


@st.composite
def _edge_windows(draw, top=MAX_COUNT_INPUT):
    """A window [lo, hi] holding edge - 1 and edge, where the construction
    changes at edge: a cube c^3 (icbrt steps up), a prime square p^2, a prime
    cube p^3, or x = p*q with q the prime just below or above p^2 (where the
    semiprime moves from the k1 term to the k2 term).  Edges and hi stay at
    or below top (at most MAX_COUNT_INPUT).  Up to 2 400 integers on each
    side, so that count_range takes both routes, whose cut is at
    2 * isqrt(hi) * isqrt(isqrt(hi)), for every hi up to about 3.4 * 10^4."""
    root_primes = _PRIMES[: bisect_right(_PRIMES, isqrt(top))]
    cube_root_primes = _PRIMES[: bisect_right(_PRIMES, icbrt(top))]
    kind = draw(st.sampled_from(("cube", "prime square", "prime cube", "p*q, q near p^2")))
    if kind == "cube":
        edge = draw(st.integers(min_value=2, max_value=icbrt(top))) ** 3
    elif kind == "prime square":
        edge = draw(st.sampled_from(root_primes)) ** 2
    elif kind == "prime cube":
        edge = draw(st.sampled_from(cube_root_primes)) ** 3
    else:
        p = draw(st.sampled_from(cube_root_primes))
        i = bisect_left(_PRIMES, p * p)
        q = _PRIMES[i - draw(st.integers(min_value=0, max_value=1))]
        edge = p * q
    lo = max(8, edge - draw(st.integers(min_value=1, max_value=2400)))
    hi = min(top, max(edge, lo) + draw(st.integers(min_value=0, max_value=2400)))
    return lo, hi


@given(_edge_windows())
@example((10**9 - 600, 10**9))
@example((8, 8))
@settings(max_examples=200)
def test_count_range_matches_indicator_sum_across_edges(window):
    lo, hi = window
    assert count_range(lo, hi) == sum(semiprime_indicator(x) for x in range(lo, hi + 1))


@given(_edge_windows(top=2 * 10**6))
@example((8, 8))
@example((2 * 10**6 - 600, 2 * 10**6))
@settings(max_examples=200)
def test_count_range_matches_spf_oracle_across_edges(semi_flags_2m, window):
    # the same edges, against flags from a smallest-prime-factor sieve, which
    # shares no code with the indicators
    lo, hi = window
    assert count_range(lo, hi) == sum(semi_flags_2m[lo : hi + 1])


# Several examples end at 10^9; each prefix count there takes ~0.5 s.
_prefix_parts_at = cache(_prefix_parts)

#: Windows narrower than this are summed one integer at a time (about
#: 10 us each), which covers every window _edge_windows draws; a wider one
#: takes two prefix counts, a few ms near 10^6 and about 0.5 s each near 10^9.
_TRIPLE_WIDTH = 5000


def _independent_parts(lo, hi):
    # (sum of k1, sum of k2, sum of t) over [lo, hi] by routes that share no
    # code with the window pass: the per-number triples (the paper's
    # indicators) of a narrow window; for a wider one, the prefix parts at
    # hi and at lo - 1 and the segmented sieve started at lo (>= 3) over
    # the window's primes
    if hi - lo < _TRIPLE_WIDTH:
        t_sum, k1_sum, k2_sum = map(sum, zip(*map(_triple_bits, range(lo, hi + 1))))
        return k1_sum, k2_sum, t_sum
    (k2_hi, k1_t_hi), (k2_lo, k1_t_lo) = _prefix_parts_at(hi), _prefix_parts_at(lo - 1)
    t_sum = 0
    for a in range(lo | 1, hi + 1, 2 * SEGMENT):
        size = min(SEGMENT, (hi - a) // 2 + 1)
        t_sum += _odd_segment(a, size).count(0)
    return k1_t_hi - k1_t_lo + t_sum, k2_hi - k2_lo, t_sum


def _assert_window_parts_match_independent_sums(lo, hi):
    # The window route's three parts, each on its own, against the
    # independent sums: a total alone would not see an error in one part
    # that another cancels.
    assert _window_parts(lo, hi) == _independent_parts(lo, hi)


@given(_edge_windows())
@example((10**9 - 600, 10**9))
@example((8, 8))
@example((997**3 - 300, 997**3 + 300)).via("icbrt steps up to the prime 997 at 997^3")
@example((991**3 - 200, 991**3 + 200)).via("p^3 for the prime 991")
@example((997 * 994013 - 300, 997 * 994013 + 300)).via("p*q, q = 994013 the prime after 997^2")
@example((10**9 - 8 * isqrt(10**9) + 1, 10**9)).via("hi - lo = 8 isqrt(hi) - 1: two pieces")
@example((10**9 - 8 * isqrt(10**9), 10**9)).via("hi - lo = 8 isqrt(hi): two pieces")
@example((10**6, 10**6 + 511)).via("c = 100 < the width: each r > c hits several times")
@example((10**9 - 2 * isqrt(10**9), 10**9)).via("wider than isqrt(hi): r > c hits many times")
@example((10**9 - 2 * SEGMENT - 10, 10**9)).via("wider than 2 SEGMENT: three pieces")
@example((997**3 - SEGMENT, 997**3 + SEGMENT)).via("a cube between two SEGMENT joins")
@settings(max_examples=200)
def test_window_parts_match_independent_sums(window):
    _assert_window_parts_match_independent_sums(*window)


@st.composite
def _narrow_windows(draw):
    """A window [lo, hi] anywhere in [8, MAX_COUNT_INPUT], at any scale, with
    hi - lo < 8 * isqrt(hi): from one integer to several SEGMENT pieces."""
    hi = draw(st.integers(min_value=8, max_value=10 ** draw(st.integers(1, 9))))
    return max(8, hi - draw(st.integers(min_value=0, max_value=8 * isqrt(hi) - 1))), hi


@given(_narrow_windows())
@example((10**9, 10**9)).via("one integer: every modulus above the size, all filtered")
@example((10**8, 10**8 + 511)).via("lo a multiple of 4: s = 0 for p = 2 and for p^2 = 4")
@example((997 * 994013 - 500, 997 * 994013)).via("size 501 < 997: filtered, one multiple, hi, a semiprime")
@example((997 * 994012, 997 * 994013)).via("size 998 > 997: strided, two multiples, lo and hi")
@example((997 * 1003000, 997 * 1003000 + 996)).via("size 997, a prime p <= c = 999: strided, one multiple")
@example((997 * 1003000, 997 * 1003000 + 995)).via("size 996 < 997 <= c = 999: filtered, one multiple")
@example((49 * 20000003 - 30, 49 * 20000003 + 10)).via("49's one multiple, 7 has six")
@example((1009 * 495017, 1009 * 495018 - 1)).via("size 1009, a prime r > c = 793: strided, one multiple")
@example((1009 * 495017, 1009 * 495018 - 2)).via("size 1008 < r = 1009: filtered, one multiple")
@example((1009 * 495017, 1009 * 495018)).via("size 1010 > r = 1009: strided, two multiples")
@example((961 * 520000, 961 * 520001 - 1)).via("size 961 = 31^2: strided, one multiple")
@example((961 * 520000, 961 * 520001 - 2)).via("size 960 < 31^2: filtered, one multiple")
@example((961 * 520000, 961 * 520001)).via("size 962 > 31^2: strided, two multiples")
@example((8, 26)).via("the constant's first piece, c = 2")
@example((10, 10)).via("10 = 2 * 5, the one p * r inside its own piece")
@example((9, 11)).via("10 and its neighbours inside the first piece")
@example((26, 27)).via("the first piece's last integer and 27 = 3^3, inside the constant")
@example((8, 27)).via("the first piece and the next piece's first integer")
@example((33, 33)).via("33 = 3 * 11, the other p * r inside its own piece")
@example((124, 125)).via("the constant's last integer and 125 = 5^3")
@example((8, 343)).via("the whole constant and the piece [5^3, 7^3)")
@example((200, 230)).via("across 6^3 = 216, inside one piece")
@settings(max_examples=200)
def test_window_parts_match_independent_sums_anywhere(window):
    _assert_window_parts_match_independent_sums(*window)


_FOUR_MARKS = bytes([0, _SMALL, _LARGE, _REJECT])


def test_mark_tables_commute_on_the_four_marks():
    # The window pass marks a piece with the three tables in any order, so
    # each maps the four marks into themselves and every two commute on
    # them.  A second hit by a large prime or a second square changes
    # nothing, while a second prime up to c rejects an unmarked x.
    tables = {"_REJECTED": _REJECTED, "_MARK": _MARK, "_HIT": _HIT}
    for name, table in tables.items():
        assert set(_FOUR_MARKS.translate(table)) <= set(_FOUR_MARKS), name
    for (name, f), (other, g) in combinations(tables.items(), 2):
        fg, gf = _FOUR_MARKS.translate(f).translate(g), _FOUR_MARKS.translate(g).translate(f)
        assert fg == gf, (name, other)
    for table in (_HIT, _REJECTED):
        once = _FOUR_MARKS.translate(table)
        assert once.translate(table) == once
    assert _FOUR_MARKS.translate(_MARK).translate(_MARK)[0] == _REJECT


def test_window_squares_are_the_cube_root_prime_squares():
    # the moduli _REJECTED marks with: p^2 for every prime p up to the cube
    # root of the largest count, one per prime a piece can mark with _MARK
    primes = oracle.sieve(icbrt(MAX_COUNT_INPUT)).primes
    assert _SQUARES == tuple(p * p for p in primes)


def test_hit_table_settles_a_large_prime_hit():
    # a prime r in (c, isqrt(b)] turns an unmarked x into _LARGE and an x
    # marked _SMALL into _REJECT, and leaves _LARGE and _REJECT
    assert _FOUR_MARKS.translate(_HIT) == bytes([_LARGE, _REJECT, _LARGE, _REJECT])


def test_small_times_large_prime_lies_below_its_piece_but_for_10_and_33():
    # What the table rests on: in the piece [P^3, q^3), for consecutive
    # primes P < q, a prime p <= P times a prime r in (P, isqrt(q^3 - 1)]
    # lies below P^3, so an x of the piece that both divide has x/p
    # composite.  Over every piece a count reaches, the products inside
    # their own piece are 10 = 2 * 5 in [8, 26] and 33 = 3 * 11 in
    # [27, 124], both in the constant the window pass reads below 125.
    # For each p the products rise with r, so a bisection finds every r
    # with p * r >= P^3.
    primes = oracle.sieve(core.TABLE_CAP).primes
    inside = []
    for cut in range(1, bisect_right(primes, icbrt(MAX_COUNT_INPUT)) + 1):
        low, top = primes[cut - 1] ** 3, primes[cut] ** 3 - 1
        end = bisect_right(primes, isqrt(top))
        for p in primes[:cut]:
            first = max(cut, bisect_left(primes, -(-low // p)))
            inside += [p * r for r in primes[first:end] if p * r <= top]
    assert inside == [10, 33]
    assert 8 + len(core._FIRST_PIECE) == 5**3


def test_first_piece_is_the_triple_marks_below_125():
    # the constant marks of [8, 124], one per x from its (t, k1, k2) triple
    mark = {(1, 1, 0): 0, (0, 1, 0): _LARGE, (0, 0, 1): _SMALL, (0, 0, 0): _REJECT}
    assert len(core._FIRST_PIECE) == 117
    assert core._FIRST_PIECE == bytes(mark[tuple(_triple_bits(x))] for x in range(8, 125))


def test_window_pieces_end_at_prime_cubes_and_segment():
    # A piece ends at SEGMENT integers or before the cube of a prime, where
    # the primes up to the cube root change; a composite cube such as
    # 6^3 = 216 cuts nothing.  The constant reads as the pieces [8, 26]
    # and [27, 124].
    lo, hi = 8, 2 * 10**6
    cuts = [q**3 for q in oracle.sieve(icbrt(hi)).primes] + [hi + 1]
    ends = []
    for a, b in pairwise(cuts):
        ends += [*range(a + SEGMENT - 1, b - 1, SEGMENT), b - 1]
    pieces = [len(marks) for marks in _window_marks(lo, hi)]
    assert list(accumulate(pieces, initial=lo - 1))[1:] == ends


def test_semiprime_table_flags_the_semiprime_marks():
    # _SMALL (p * q, p <= c < q prime) and _LARGE (two primes above c) are
    # semiprimes; a prime (0) and _REJECT are not
    assert _FOUR_MARKS.translate(_SEMIPRIME) == bytes([0, 1, 1, 0])


@st.composite
def _flag_windows(draw, top=2 * 10**6):
    """A window [lo, hi] in [8, top] of 1 to 2 * SEGMENT + 1 integers."""
    width = draw(st.integers(min_value=1, max_value=2 * SEGMENT + 1))
    lo = draw(st.integers(min_value=8, max_value=top - width + 1))
    return lo, lo + width - 1


@given(_flag_windows())
@example((100**3 - 500, 100**3 + 500)).via("across the cube 100^3, inside one piece")
@example((101**3 - 500, 101**3 + 500)).via("across the prime cube 101^3: two pieces")
@example((125**3, 125**3 + 1000)).via("starting on the cube 125^3")
@example((10**6 + 1, 10**6 + SEGMENT + 1)).via("SEGMENT + 1 integers across 101^3 .. 104^3, cut at 103^3")
@example((1_000_001, 1_000_001)).via("one integer, 101 * 9901, both factors above c")
@example((999_958, 999_958)).via("one integer, 2 * 499979, a small factor")
@example((999_983, 999_983)).via("one integer, a prime")
@example((509 * 1973, 509 * 1974 - 1)).via("size 509, a prime r > c = 100: strided, one multiple")
@example((509 * 1973, 509 * 1974 - 2)).via("size 508 < r = 509: filtered, one multiple")
@example((509 * 1973, 509 * 1974)).via("size 510 > r = 509: strided, two multiples")
@example((169 * 5930, 169 * 5931 - 1)).via("size 169 = 13^2: strided, one multiple")
@example((169 * 5930, 169 * 5931 - 2)).via("size 168 < 13^2: filtered, one multiple")
@example((169 * 5930, 169 * 5931)).via("size 170 > 13^2: strided, two multiples")
@example((8, 26)).via("the constant's first piece, c = 2")
@example((10, 10)).via("10 = 2 * 5, the one p * r inside its own piece")
@example((9, 11)).via("10 and its neighbours inside the first piece")
@example((26, 27)).via("the first piece's last integer and 27 = 3^3, inside the constant")
@example((8, 27)).via("the first piece and the next piece's first integer")
@example((33, 33)).via("33 = 3 * 11, the other p * r inside its own piece")
@example((124, 125)).via("the constant's last integer and 125 = 5^3")
@example((8, 343)).via("the whole constant and the piece [5^3, 7^3)")
@example((200, 230)).via("across 6^3 = 216, inside one piece")
@settings(max_examples=200)
def test_semiprime_flags_match_spf_oracle(semi_flags_2m, window):
    lo, hi = window
    assert _semiprime_flags(lo, hi) == bytes(semi_flags_2m[lo : hi + 1])


def test_semiprime_flags_across_a_segment_join():
    # Below 83^3 = 571 787 the prime cubes are closer than SEGMENT and cut
    # every piece first; near 10^9 a piece ends at a + SEGMENT - 1.  The
    # flags on both sides of that join against the indicator, and in all
    # against the difference of two prefix counts.
    lo, hi = 10**9 - SEGMENT - 300, 10**9
    flags = _semiprime_flags(lo, hi)
    join = lo + SEGMENT
    assert flags[SEGMENT - 300 : SEGMENT + 300] == bytes(
        semiprime_indicator(x) for x in range(join - 300, join + 300)
    )
    assert flags.count(1) == sum(_prefix_parts_at(hi)) - sum(_prefix_parts_at(lo - 1))


def test_window_parts_match_independent_sums_at_every_cube():
    # Every seam where icbrt steps up, c^3 for c = 2 .. icbrt(MAX_COUNT_INPUT),
    # with the window split into the pieces on either side of it where c is
    # prime, and inside one piece where it is not.  Every byte of every
    # piece is one of the four marks.
    for c in range(2, icbrt(MAX_COUNT_INPUT) + 1):
        lo, hi = max(8, c**3 - 300), min(MAX_COUNT_INPUT, c**3 + 300)
        _assert_window_parts_match_independent_sums(lo, hi)
        for marks in _window_marks(lo, hi):
            assert set(marks) <= set(_FOUR_MARKS), c


def test_prime_table_is_the_sieve_to_the_cap():
    assert type(core._PRIMES) is tuple
    assert core._PRIMES == oracle.sieve(core.TABLE_CAP).primes


def test_small_pi_is_the_sieve_count_to_the_cap():
    # pi(v) = _SMALL_PI[v] at every v in 0..TABLE_CAP, 0 and 1 reading 0,
    # against a running sum over the classical sieve, in 16-bit entries of
    # about 63 kB
    is_prime = bytearray(core.TABLE_CAP + 1)
    for p in oracle.sieve(core.TABLE_CAP).primes:
        is_prime[p] = 1
    pis = list(accumulate(is_prime))
    tier = core._SMALL_PI
    assert type(tier) is array and tier.typecode == "H"
    assert len(tier) == core.TABLE_CAP + 1
    assert tier.tolist() == pis
    assert sys.getsizeof(tier) < 70_000
    # the edges p^2 - 1 it holds are those of the primes up to 173
    assert core._PRIMES[core._SMALL_EDGES - 1] == 173
    assert 173**2 - 1 <= core.TABLE_CAP < 179**2 - 1


def test_edge_sums_are_the_sieve_sums_of_the_small_edges():
    # _EDGE_SUMS[i] is the sum of pi(p^2 - 1) over the first i primes, for
    # every i up to _SMALL_EDGES, each pi from the classical sieve
    primes = oracle.sieve(core.TABLE_CAP).primes
    edges = [bisect_right(primes, p * p - 1) for p in primes[: core._SMALL_EDGES]]
    assert len(core._EDGE_SUMS) == core._SMALL_EDGES + 1
    assert list(core._EDGE_SUMS) == list(accumulate(edges, initial=0))


def test_prefix_counts_below_twice_the_cap_read_only_the_small_pi(monkeypatch):
    # Below 2 * (TABLE_CAP + 1) every quotient n // p and every edge p^2 - 1
    # is at most TABLE_CAP, so no count grows or reads the pi table
    def unused(top):
        raise AssertionError(f"the pi table was read up to {top}")

    top = 2 * (core.TABLE_CAP + 1) - 1
    expected = list(accumulate(oracle.semiprime_flags(top)))
    monkeypatch.setattr(core, "_pi_to", unused)
    assert [semiprime_count(n) for n in range(8, top + 1)] == expected[8:]


def test_primes_slices_match_the_sieve():
    small = oracle.sieve(200).primes
    for v in (0, 1, 2, *small, *(p - 1 for p in small), core.TABLE_CAP):
        expected = oracle.sieve(v).primes if v >= 2 else ()
        assert _primes(v) == expected, v
    with pytest.raises(RangeLimitError):
        _primes(core.TABLE_CAP + 1)


def test_prime_table_needs_no_indicator_after_import(monkeypatch):
    # the table is a constant: with t out of reach it still answers, and
    # nothing rebinds it
    def unused(x):
        raise AssertionError(f"t ran on {x}")

    table = core._PRIMES
    monkeypatch.setattr(core, "_t", unused)
    monkeypatch.setattr(primality, "_t", unused)
    assert _primes(core.TABLE_CAP) == oracle.sieve(core.TABLE_CAP).primes
    assert core._PRIMES is table


def test_count_range_route_follows_the_width(monkeypatch):
    # Below the cut count_range takes the window pass, at it and above the
    # difference of two prefix counts.  On each side the other engine is
    # patched to fail, after it has computed the value to compare with.
    def unused(*args):
        raise AssertionError(f"wrong route for {args}")

    hi = 10**8
    lo = hi - 2 * isqrt(hi) * isqrt(isqrt(hi)) + 1  # the cut: 2 * 10^6
    by_prefix = _prefix_count(hi) - _prefix_count(lo - 1)
    with monkeypatch.context() as patch:
        patch.setattr(core, "_prefix_count", unused)
        assert count_range(lo, hi) == by_prefix
    lo -= 1
    k1_sum, k2_sum, t_sum = _window_parts(lo, hi)
    with monkeypatch.context() as patch:
        patch.setattr(core, "_window_parts", unused)
        assert count_range(lo, hi) == k1_sum + k2_sum - t_sum
        # from 8 the difference reads the prefix count at 7: 4 and 6
        assert _prefix_parts(7) == (0, len(_SMALL_SEMIPRIMES))
        assert count_range(8, 10**6) == semiprime_count(10**6) - len(_SMALL_SEMIPRIMES) == 210_033


def test_count_memory_is_bounded_by_segments(monkeypatch):
    # From a fresh pi table, the count at 10^7 grows it to its cap of
    # 2 * 10^6 in segments of core.SEGMENT (128 KiB) bytes, each packed into
    # the table's bits as it is sieved, and takes pi(n // 2) and pi(n // 3)
    # from Meissel's formula.  A flat sieve of [8, 10^7] alone would take
    # 10 MB.
    _fresh_pi_table(monkeypatch)
    tracemalloc.start()
    try:
        value = semiprime_count(10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 1904324
    assert peak < 1_000_000, peak


_RSS_GROWTH = """
import resource, sys
from semiprimes import semiprime_count
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
value = semiprime_count(10**9)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(value, (after - before) * (1 if sys.platform == "darwin" else 1024))
"""


def test_count_memory_at_the_top_of_the_range():
    # The prefix count keeps the pi table, at most about 0.63 MB, and one
    # sieve segment, and Meissel's formula only a recursion of depth at
    # most pi(1000) = 168; a flat table of pi up to 10^9 would take
    # gigabytes.  The bound is on the growth of the peak resident set of a
    # fresh interpreter (ru_maxrss, kB on Linux, bytes on macOS), which
    # counts what the interpreter itself holds on to as well.
    result = subprocess.run(
        [sys.executable, "-c", _RSS_GROWTH], capture_output=True, text=True, check=True
    )
    value, growth = map(int, result.stdout.split())
    assert value == 160_788_536
    assert growth < 4_000_000, growth


@given(st.integers(min_value=8, max_value=2 * 10**6))
@example(8)
@example(9)
@example(125**3 - 1).via("c^3 - 1: icbrt is 124")
@example(125**3).via("c^3: icbrt steps up to 125")
@example(1409**2 - 1).via("p^2 - 1: isqrt is 1408")
@example(1409**2).via("p^2: isqrt steps up to the prime 1409")
@example(113**3).via("p^3: icbrt steps up to the prime 113")
@example(113 * 12781).via("p*q with q = 12781, the prime after p^2 = 12769")
@example(97 * 9413).via("p*q with q = 9413, the prime after p^2 = 9409")
@example(2 * 10**6)
@settings(max_examples=60)
def test_count_matches_spf_oracle(semi_flags_2m, n):
    # the prefix route against flags from a smallest-prime-factor sieve
    assert semiprime_count(n) == semi_flags_2m.count(1, 0, n + 1)


@given(st.integers(min_value=8, max_value=10**7))
@example(8)
@example(179**3).via("icbrt is the prime 179, whose edge 179^2 - 1 is the first above TABLE_CAP")
@example(211**3 - 1).via("icbrt is 210")
@example(211**3).via("icbrt is the prime 211, the last p in the sum of k2")
@example(212**3 - 1).via("icbrt is still 211, now with the primes q in [211^2, n/211]")
@example(10**7)
@settings(max_examples=5)
def test_prefix_parts_match_window_sums(n):
    # Each of the paper's parts on its own against the window pass over
    # [8, n]: the total alone would not see a semiprime counted in the wrong
    # part.  The prefix's sum of k1 - t holds 4 and 6, which the window from
    # 8 does not.
    k2_sum, k1_t_sum = _prefix_parts(n)
    k1_sum, k2_window, t_sum = _window_parts(8, n)
    assert k2_sum == k2_window
    assert k1_t_sum == len(_SMALL_SEMIPRIMES) + k1_sum - t_sum
    assert semiprime_count(n) == len(_SMALL_SEMIPRIMES) + k1_sum + k2_window - t_sum


_CAP = core._PI_CAP  # the pi table's largest limit


@cache
def _sieve_to_cap():
    return oracle.sieve(_CAP).primes


@cache
def _pi_up_to_cap():
    # pi(v) for every v <= _CAP, a running sum over the classical sieve
    is_prime = bytearray(_CAP + 1)
    for p in _sieve_to_cap():
        is_prime[p] = 1
    return array("I", accumulate(is_prime))


def _expected_flags(a, size):
    # what _odd_segment(a, size) should give, from the classical sieve: 0
    # exactly for the primes among the odd integers a, a + 2, ...
    primes = _sieve_to_cap()
    flags = bytearray(b"\x01") * size
    for p in primes[bisect_left(primes, max(a, 3)) : bisect_right(primes, a + 2 * size - 2)]:
        flags[(p - a) >> 1] = 0
    return flags


def _fresh_pi_table(monkeypatch):
    # an empty pi table in place of the shared one until the test ends
    monkeypatch.setattr(core, "_pi_table", _PiTable(0, bytes(1), array("I", [1])))


def _assert_pi_table_complete(table):
    # every group's bits and count, against the classical sieve: the limit
    # is a whole number of groups of 16 integers, bit r of bits[g] is set
    # exactly when 16g + 2r + 1 is prime, counts[g] is pi(16g) with the
    # prime 2 in counts[0], and one spare group past the size odd integers
    # is there, its byte 0 and its count pi(limit)
    size = table.limit // 2
    assert table.limit % 16 == 0 and table.limit <= _CAP
    bits = bytearray(size // 8 + 1)
    for p in _sieve_to_cap()[1 : bisect_right(_sieve_to_cap(), 2 * size - 1)]:
        bits[p >> 4] |= 1 << (p >> 1 & 7)
    assert table.bits == bits
    pis = _pi_up_to_cap()
    assert table.counts.tolist() == [pis[max(2, 16 * g)] for g in range(size // 8 + 1)]


def _pi_points(limit):
    # every v up to 40 or the limit, where 1 is no prime and 2 is counted
    # in the first group count; both sides of every odd-only segment join
    # (each segment covers 2 * SEGMENT integers) and of every group
    # boundary (each group covers 16); and the limit itself
    joins = range(2 * SEGMENT, limit + 3, 2 * SEGMENT)
    groups = range(16, limit + 3, 16)
    near = [v + d for v in (*joins, *groups) for d in (-3, -2, -1, 0, 1, 2)]
    return [*range(2, min(41, limit + 1)), *(v for v in near if 41 <= v <= limit), limit - 1, limit]


def _grown(top):
    raise AssertionError(f"the pi table was grown to {top}")


def _assert_reads_pi(monkeypatch, points):
    # core._pi at every point, against the classical sieve, each read off
    # the module's pi table as it stands: TABLE_CAP is patched below the
    # points, so that none is read off _SMALL_PI, and _pi_to to fail, so
    # that none grows the table
    pis = _pi_up_to_cap()
    with monkeypatch.context() as patch:
        patch.setattr(core, "TABLE_CAP", 1)
        patch.setattr(core, "_pi_to", _grown)
        assert [core._pi(v) for v in points] == [pis[v] for v in points]


def test_bit_count_tables():
    # _POPCOUNT[b] counts the set bits of the byte b
    assert len(_POPCOUNT) == 256
    for b in range(256):
        assert _POPCOUNT[b] == b.bit_count()


def test_prime_counts_match_sieve(monkeypatch):
    # pi off a table built fresh, against the classical sieve, at every v
    # up to 2 * 10^5 and at the group and segment edges to the cap; a
    # growth that would double the limit stops at the cap, itself a whole
    # number of groups
    assert _CAP % 16 == 0
    _fresh_pi_table(monkeypatch)
    core._pi_to(_CAP * 3 // 4)
    table = core._pi_to(_CAP * 3 // 4 + 1)
    assert table.limit == _CAP
    _assert_pi_table_complete(table)
    _assert_reads_pi(monkeypatch, _pi_points(_CAP))
    _assert_reads_pi(monkeypatch, range(2, 2 * 10**5 + 1))
    # a table below the cap whose last segment ends at a segment join reads
    # its spare group at the limit
    _fresh_pi_table(monkeypatch)
    table = core._pi_to(4 * SEGMENT)
    assert table.limit == 4 * SEGMENT
    _assert_pi_table_complete(table)
    _assert_reads_pi(monkeypatch, _pi_points(4 * SEGMENT))
    # one segment of the sieve started at lo, odd or even (the segment
    # starts at the odd lo | 1) and past a segment's length: 1 is marked by
    # hand, and each odd prime p marks from p*p or from its least odd
    # multiple in the segment
    for lo in (2, 3, 4, 9, 10, 2 * SEGMENT + 2, 2 * SEGMENT + 3, 4 * SEGMENT + 1):
        a = lo | 1
        for size in (1, 2, 50, SEGMENT):
            assert _odd_segment(a, size) == _expected_flags(a, size), (lo, size)


def test_pi_reads_a_grown_table_without_pi_to(monkeypatch):
    # Once the pi table holds v, _pi(v) reads it in place and never calls
    # _pi_to: with _pi_to patched to fail, every v at the group and segment
    # edges up to the limit still reads exact pi, against the classical
    # sieve, for a top that the growth rounds up to a whole group and for
    # the cap.  The first v past the limit goes to _pi_to.
    for top in (3 * SEGMENT + 5, _CAP):
        _fresh_pi_table(monkeypatch)
        limit = core._pi_to(top).limit
        assert limit % 16 == 0 and top <= limit < top + 16
        _assert_reads_pi(monkeypatch, _pi_points(limit))
        if limit < _CAP:
            with monkeypatch.context() as patch:
                patch.setattr(core, "_pi_to", _grown)
                with pytest.raises(AssertionError, match=f"grown to {limit + 1}"):
                    core._pi(limit + 1)


def _record_segments(monkeypatch):
    # the (start, size) of every _odd_segment sieved until the test ends
    segments = []

    def recorded(a, size):
        segments.append((a, size))
        return _odd_segment(a, size)

    monkeypatch.setattr(core, "_odd_segment", recorded)
    return segments


def _assert_sieved_once(segments, top):
    # the segments cover the odd integers below an even top, each once
    segments = sorted(segments)
    assert segments[0][0] == 1
    for (a, size), (b, _) in zip(segments, segments[1:]):
        assert a + 2 * size == b, segments
    a, size = segments[-1]
    assert a + 2 * size - 2 == top - 1, segments


def test_pi_table_grown_in_steps_reads_as_one_built_fresh(monkeypatch):
    # Each growth sieves on from the old limit + 1, an odd start, so no
    # integer twice, and appends whole groups after the old ones, so the
    # table grown in steps is byte for byte the one built at once.  Each
    # limit is max(top, twice the old limit) rounded up to a whole group of
    # 16: in the second run 17 grows the table to 32, 33 to the doubling's
    # 64, 35 asks nothing, and 1001 grows it to 1008.
    _fresh_pi_table(monkeypatch)
    fresh = core._pi_to(_CAP)
    for tops in ((100, 3 * SEGMENT + 5, _CAP), (17, 33, 35, 1001, _CAP)):
        _fresh_pi_table(monkeypatch)
        segments = _record_segments(monkeypatch)
        for top in tops:
            before = core._pi_table.limit
            table = core._pi_to(top)
            assert top <= table.limit <= -(-max(top, 2 * before) // 16) * 16
            _assert_pi_table_complete(table)
            _assert_reads_pi(monkeypatch, _pi_points(table.limit))
        assert table == fresh
        _assert_sieved_once(segments, _CAP)
    # a growth goes to twice the old limit when that is further, and every
    # limit is rounded up to a whole group
    _fresh_pi_table(monkeypatch)
    assert core._pi_to(1000).limit == 1008
    assert core._pi_to(1009).limit == 2016


def test_pi_table_grows_safely_from_four_threads(monkeypatch):
    # Each growth of the pi table binds a new, complete _PiTable, so four
    # threads growing it at once from a fresh table each read exact pi at
    # their own points through _pi, and the table left is complete.  A
    # short switch interval makes the threads interleave inside _pi_to.
    # TABLE_CAP is patched, before the threads start, down to isqrt(_CAP),
    # the most a growth to the cap sieves with, so that every point above
    # it is a read of the pi table.
    limits = (3_000, 2 * SEGMENT + 9, 700_000, _CAP)
    points = {limit: _pi_points(limit) for limit in limits}
    monkeypatch.setattr(core, "TABLE_CAP", isqrt(_CAP))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            _fresh_pi_table(monkeypatch)
            start = threading.Barrier(len(limits), timeout=60)
            results = {}

            def grow(limit):
                start.wait()
                core._pi_to(limit)
                results[limit] = [core._pi(v) for v in points[limit]]

            threads = [threading.Thread(target=grow, args=(limit,)) for limit in limits]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            pis = _pi_up_to_cap()
            for limit in limits:
                assert results[limit] == [pis[v] for v in points[limit]], limit
            _assert_pi_table_complete(core._pi_table)
    finally:
        sys.setswitchinterval(interval)


def test_wide_count_range_sieves_each_integer_once(monkeypatch):
    # A wide count_range below 2 * (_PI_CAP + 1) reads both prefix counts
    # off the one pi table, so no integer is sieved twice, and the same call
    # again sieves nothing.
    _fresh_pi_table(monkeypatch)
    segments = _record_segments(monkeypatch)
    lo, hi = 10**5, 3 * 10**6
    expected = oracle.classical_count(hi) - oracle.classical_count(lo - 1)
    assert count_range(lo, hi) == expected
    _assert_sieved_once(segments, hi // 2)
    seen = len(segments)
    assert count_range(lo, hi) == expected
    assert len(segments) == seen


def test_pi_table_stays_bounded(monkeypatch):
    # At most _PI_CAP integers, 1 bit per odd one plus 4 bytes per group of
    # 8 odd ones: about 0.63 MB at the cap, whatever is counted.  A count
    # grows the table only as far as its largest read at or below the cap:
    # at 10^9, from an empty table, the quotient of 503 rounded up to a
    # whole group of 16, as those of the primes up to 499 lie above the cap
    # and take Meissel's formula, whose own reads stay below 10^6
    _fresh_pi_table(monkeypatch)
    assert semiprime_count(10**9) == 160_788_536
    assert 10**9 // 499 > _CAP > 10**9 // 503 == 1_988_071
    assert core._pi_table.limit == 1_988_080
    # the last n whose every pi(n // p) is read off the table grows it to
    # the cap
    assert semiprime_count(2 * _CAP + 1) == oracle.classical_count(2 * _CAP + 1)
    table = core._pi_table
    assert table.limit == _CAP
    size = sys.getsizeof(table.bits) + sys.getsizeof(table.counts)
    assert size <= 1_100_000
    assert size <= 700_000


_JOIN = 2 * SEGMENT  # the first integer past the first odd-only segment


@pytest.mark.parametrize(
    "n",
    [
        7,  # the prefix from 8 reads 4 and 6 here
        2 * _CAP - 1, 2 * _CAP,  # n // 2 reads the table's spare group at the cap
        2 * _CAP + 1, 2 * _CAP + 2,  # n // 2 is the cap, then leaves the table
        3 * _CAP + 2, 3 * _CAP + 3,  # the same for n // 3
        125**3 - 1, 125**3,  # icbrt steps up to 125
        211**3 - 1, 211**3,  # icbrt steps up to the prime 211
        1409**2 - 1, 1409**2,  # isqrt steps up to the prime 1409
        2 * _JOIN - 2, 2 * _JOIN - 1,  # n // 2 = _JOIN - 1, the last odd of a segment
        2 * _JOIN + 2, 2 * _JOIN + 3,  # n // 2 = _JOIN + 1, the first odd past it
        4 * _JOIN - 1, 4 * _JOIN + 2,  # the same at the second join
        63_245, 63_246,  # n // 2 steps past TABLE_CAP: p = 2 leaves the small pi
        94_868, 94_869,  # the same for p = 3
        179**3 - 1, 179**3,  # the edge 179^2 - 1 is the first above TABLE_CAP
    ],
)
def test_prefix_parts_agree_on_both_pi_sources(monkeypatch, n):
    # The same parts with every pi above TABLE_CAP from Meissel's formula
    # (the pi table's cap patched down to TABLE_CAP, and the table patched
    # to fail) and with the pi table read up to its real cap, grown fresh
    # so that an earlier test's growth cannot hide one here
    def unused(top):
        raise AssertionError(f"the pi table was read up to {top}")

    _fresh_pi_table(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(core, "_PI_CAP", core.TABLE_CAP)
        patch.setattr(core, "_pi_to", unused)
        by_formula = _prefix_parts(n)
    by_table = _prefix_parts(n)
    assert by_formula == by_table
    if n == 7:
        assert by_table == (0, len(_SMALL_SEMIPRIMES))
    # and the total against the oracle, which both sources could miss alike
    assert sum(by_table) == oracle.classical_count(n)


@pytest.mark.parametrize("n", [63_246, 4_000_002, 6_000_003, 179**3, 10**9])
def test_prefix_parts_read_every_pi_above_the_small_pi_through_pi(monkeypatch, n):
    # _pi alone picks where a prime count above TABLE_CAP comes from: the
    # _pi calls _prefix_parts makes itself, not those inside Meissel's
    # formula, are exactly its quotients n // p above TABLE_CAP, in the
    # order of p, then its edges p^2 - 1 above it, and it reaches _pi_to
    # and _meissel only through _pi.  63 246 has one such quotient, n // 2;
    # 4 000 002 and 6 000 003 send n // 2 and n // 3 to the formula; 179^3
    # has the first edge above TABLE_CAP, 179^2 - 1; and 10^9 sends
    # quotients to the formula and to the table, and edges to the table.
    pi, depth, calls = core._pi, [0], []

    def recorded(v):
        if not depth[0]:
            calls.append(v)
        depth[0] += 1
        try:
            return pi(v)
        finally:
            depth[0] -= 1

    def only_inside_pi(route):
        def checked(v):
            assert depth[0], f"_prefix_parts called {route.__name__}({v}) itself"
            return route(v)

        return checked

    monkeypatch.setattr(core, "_pi_to", only_inside_pi(core._pi_to))
    monkeypatch.setattr(core, "_meissel", only_inside_pi(core._meissel))
    monkeypatch.setattr(core, "_pi", recorded)
    total = sum(_prefix_parts(n))
    primes, top = oracle.sieve(isqrt(n)).primes, core.TABLE_CAP
    quotients = [n // p for p in primes if n // p > top]
    edges = [p * p - 1 for p in primes if p <= icbrt(n) and p * p - 1 > top]
    assert calls == quotients + edges
    assert len(quotients) > 0 and (len(edges) > 0) == (n >= 179**3)
    expected = {63_246: 15_131, 4_000_002: 790_987, 6_000_003: 1_166_582, 179**3: 1_117_206}
    assert total == expected.get(n, 160_788_536)  # from oracle.classical_count


#: pi(10^k) for k = 1..9 (OEIS A006880)
_PI_POWERS = (4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534)


def test_meissel_formula_matches_the_sieve(monkeypatch):
    # Meissel's formula on its own, over its domain above TABLE_CAP, from a
    # fresh pi table, against the classical sieve: at every x in the 3000
    # past TABLE_CAP, where a = pi(icbrt(x)) is 11, the least _pi asks of
    # it; around every p^2 from there to the cap, where b = pi(isqrt(x))
    # steps up; around every p^3 in the same range, where a steps up; and
    # around the cap.  Then at the powers of ten from 10^5, whose pi from
    # 10^8 on is read off the table above TABLE_CAP; those below 10^5 are
    # _pi's reads of _SMALL_PI.
    _fresh_pi_table(monkeypatch)
    primes = oracle.sieve(_CAP + 1).primes
    seams = [
        p**e + d for e in (2, 3) for p in primes if p**e < _CAP for d in (-1, 0, 1)
    ]
    top = core.TABLE_CAP
    assert core._SMALL_PI[core._icbrt(top + 1)] == 11
    for x in (*range(top + 1, top + 3001), *(v for v in seams if v > top), _CAP - 1, _CAP, _CAP + 1):
        assert core._meissel(x) == bisect_right(primes, x), x
    for k, pi in enumerate(_PI_POWERS, 1):
        assert (core._pi if k < 5 else core._meissel)(10**k) == pi, k
    assert core._pi_table.limit <= _CAP and core._pi_table.limit % 16 == 0


def test_phi_period_table():
    # _PHI6[v] counts the integers in [1, v] that none of 2..13 divides
    expected = accumulate(int(all(v % p for p in (2, 3, 5, 7, 11, 13))) for v in range(30030))
    assert core._PHI6.typecode == "H"
    assert core._PHI6.tolist() == list(expected)
    assert core._PHI6[-1] == 5760


def test_large_inputs_within_contract():
    # 999979 * 999983 = 999962000357; the oracle confirms both factors prime
    big = 999962000357
    profile = oracle.factor_profile(big)
    assert profile.factors == (999979, 999983)
    result = classify(big)
    assert result.category is Category.SEMIPRIME
    assert result.triple == (0, 1, 0)  # icbrt is 9999, both factors exceed it
    assert classify(10**12).category is Category.COMPOSITE_MANY_FACTORS
    assert classify(10**9 + 7).category is Category.PRIME
