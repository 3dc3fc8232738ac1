import random
import tracemalloc
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiprimes import (
    MAX_CLASSIFY_INPUT,
    Category,
    DomainError,
    RangeLimitError,
    build_prime_table,
    classify,
    oracle,
    prime_count_formula,
    primality,
    t,
    t0,
    t1,
    t2,
)


def test_t0_examples():
    assert t0(12) == 0
    assert t0(25) == 1
    assert t0(14) == 0


def test_t1_examples():
    assert t1(25) == 0  # 5 divides 25
    assert t1(13) == 1
    assert t1(35) == 0


def test_t2_examples():
    assert t2(49) == 0  # 7 divides 49
    assert t2(13) == 1
    assert t2(91) == 0


def test_t_examples():
    assert t(13) == 1
    assert t(25) == 0
    assert t(5) == 1  # lookup: the raw wheel would see 5 divide itself


def test_t_small_domain_lookup():
    assert [t(x) for x in range(1, 8)] == [0, 1, 1, 0, 1, 0, 1]


def test_domain_errors():
    with pytest.raises(DomainError):
        t(0)
    with pytest.raises(DomainError):
        t0(0)
    for fn in (t1, t2):
        with pytest.raises(DomainError):
            fn(7)


def test_range_limit():
    assert t(10**12) == 0  # even
    with pytest.raises(RangeLimitError):
        t(10**12 + 1)


def test_t_matches_sieve_to_1e5():
    limit = 10**5
    flags = bytearray(limit + 1)
    for p in oracle.sieve(limit).primes:
        flags[p] = 1
    bad = [x for x in range(8, limit + 1) if t(x) != flags[x]]
    assert not bad, bad[:10]


def test_t_equals_conjunction_of_parts():
    for x in range(8, 3001):
        assert t(x) == t0(x) * t1(x) * t2(x), x


@given(st.integers(min_value=8, max_value=10**9))
@settings(max_examples=120)
def test_t_equals_conjunction_property(x):
    assert t(x) == t0(x) * t1(x) * t2(x)


def _check_against_wheel_and_trial_division(x):
    expected = t0(x) * t1(x) * t2(x)
    assert expected == (oracle.factor_profile(x).omega == 1), x
    assert t(x) == expected, x


def test_t_above_wheel_top_at_its_edges():
    # Above WHEEL_TOP t takes the strong-probable-prime test: the seam at
    # 10^6, the first prime past it, squares and products of the primes
    # around it, the largest prime below 10^12 and 10^12 itself.
    cases = {10**12, 999_983**2, 999_979 * 999_983, 999_983 * 1_000_003, 1_000_003,
             999_999_999_989}
    cases.update(range(10**6 - 2, 10**6 + 4))
    assert any(x > primality.WHEEL_TOP and t(x) for x in cases)
    for x in sorted(cases):
        _check_against_wheel_and_trial_division(x)


def test_t_above_wheel_top_matches_sieve_across_the_seam():
    lo, hi = primality.WHEEL_TOP - 10**4, primality.WHEEL_TOP + 10**5
    flags = bytearray(hi + 1)
    for p in oracle.sieve(hi).primes:
        flags[p] = 1
    bad = [x for x in range(lo, hi + 1) if t(x) != flags[x]]
    assert not bad, bad[:10]


#: Odd composites above 10^6 that pass a strong-probable-prime test to some
#: small bases, kept as composites t must still reject: the spsp(2)
#: semiprimes 1016801 and 1093^2; the least spsp(2, 3), spsp(2, 3, 5) and
#: spsp(2, 3, 5, 7) (OEIS A014233); the Carmichael numbers 19 * 199 * 271
#: and 37 * 73 * 541; and five semiprimes p * (k(p - 1) + 1) that each pass
#: four of the five bases 2, 3, 5, 7 and 11, which t used before its two
#: smaller sets.  Each fails at least one base of the set t now uses at its
#: size, so t must still reject every one.
STRONG_PSEUDOPRIMES = (
    1_016_801, 1_194_649, 1_373_653, 25_326_001, 3_215_031_751, 1_024_651, 1_461_241,
    258_503_701,  # 9283 * 27847: every one of 2, 3, 5, 7, 11 but 2
    7_535_192_941,  # 61381 * 122761: every one but 3
    2_284_453,  # 1069 * 2137: every one but 5
    161_304_001,  # 7333 * 21997: every one but 7
    118_670_087_467,  # 172243 * 688969: every one but 11
)

#: Where t's strong test switches base sets: the least odd composite that
#: passes all of 2, 7 and 61 (48781 * 97561).
BASE_SWITCH = 4_759_123_141

#: For each base of each of t's two sets, a semiprime in the set's range,
#: with both factors above its cube root, that passes every other base of
#: the set: (x, the set, the one base it fails).  Dropping that base from
#: the set would make t call x prime.
LOW_BASES, HIGH_BASES = (2, 7, 61), (2, 13, 23, 1_662_803)
BASE_PINS = (
    (1_590_751, LOW_BASES, 2),  # 631 * 2521
    (2_205_967, LOW_BASES, 7),  # 743 * 2969
    (6_386_993, LOW_BASES, 61),  # 653 * 9781
    (7_462_371_601, HIGH_BASES, 2),  # 18013 * 414277
    (5_588_597_071, HIGH_BASES, 13),  # 26431 * 211441
    (6_666_227_443, HIGH_BASES, 23),  # 28867 * 230929
    (11_734_359_787, HIGH_BASES, 1_662_803),  # 54163 * 216649
)


def _strong_probable_prime(x, a):
    # a^d = 1 or a^(d * 2^i) = -1 (mod x) for some i < s, with x - 1 = d * 2^s
    d, s = x - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    y = pow(a, d, x)
    if y in (1, x - 1):
        return True
    for _ in range(s - 1):
        y = y * y % x
        if y == x - 1:
            return True
    return False


def _t_by_five_bases(x):
    # t above 10^6 as a strong test to the bases 2, 3, 5, 7 and 11, which no
    # odd composite below 2 152 302 898 747 passes (Jaeschke 1993; OEIS
    # A014233): an independent reference for t's two smaller sets
    return int(x % 2 == 1 and all(_strong_probable_prime(x, a) for a in (2, 3, 5, 7, 11)))


def test_t_rejects_strong_pseudoprimes_and_carmichael_numbers():
    for x in STRONG_PSEUDOPRIMES:
        assert t(x) == 0, x
        omega = oracle.factor_profile(x).omega
        expected = Category.SEMIPRIME if omega == 2 else Category.COMPOSITE_MANY_FACTORS
        assert classify(x).category is expected, x


def test_strong_test_alone_rejects_strong_pseudoprimes():
    # t's sift rejects the two Carmichael numbers among these before the
    # strong test runs, so the strong test is held to every one directly
    for x in STRONG_PSEUDOPRIMES:
        assert primality._t_strong(x) == 0, x


def test_each_base_is_needed():
    for x, bases, needed in BASE_PINS:
        assert primality.WHEEL_TOP < x <= MAX_CLASSIFY_INPUT, x
        assert (x < BASE_SWITCH) == (bases is LOW_BASES), x
        profile = oracle.factor_profile(x)
        assert profile.omega == 2 and min(profile.factors) ** 3 > x, (x, profile)
        assert [a for a in bases if not _strong_probable_prime(x, a)] == [needed], x
        assert primality._t_strong(x) == 0, x
        assert t(x) == 0, x
        assert classify(x).category is Category.SEMIPRIME, x


def test_base_switch_is_decided_by_the_four_base_set():
    # 4 759 123 141 passes 2, 7 and 61, so the three-base set must stop
    # below it; the four-base set rejects it at 1 662 803
    x = BASE_SWITCH
    assert oracle.factor_profile(x).factors == (48_781, 97_561)
    assert all(_strong_probable_prime(x, a) for a in LOW_BASES)
    assert primality._t_strong(x) == 0
    assert t(x) == 0
    assert classify(x).category is Category.SEMIPRIME


def test_t_matches_five_bases_around_the_switch():
    bad = [x for x in range(BASE_SWITCH - 10**5, BASE_SWITCH + 10**5 + 1, 2)
           if primality._t(x) != _t_by_five_bases(x)]
    assert not bad, bad[:10]


def test_t_matches_five_bases_at_random():
    rng = random.Random(2022)
    xs = [rng.randrange(10**6 + 1, MAX_CLASSIFY_INPUT + 1) for _ in range(10**5)]
    bad = [x for x in xs if primality._t(x) != _t_by_five_bases(x)]
    assert not bad, bad[:10]


def test_sift_is_the_primes_5_to_97():
    primes = oracle.sieve(97).primes
    assert primes[:2] == (2, 3)
    assert primality._SIFT == prod(primes[2:])


def test_sift_decides_products_just_above_wheel_top():
    # for each prime p in 5..97, p * q with q the least prime above
    # 10^6 / p is just above WHEEL_TOP, where the sift decides it
    primes = oracle.sieve(2 * 10**5 + 100).primes
    for p in primes[2 : primes.index(97) + 1]:
        q = next(q for q in primes if q > primality.WHEEL_TOP // p)
        assert p * q > primality.WHEEL_TOP
        assert t(p * q) == 0, (p, q)
        assert t(q) == 1, q


def test_t_above_wheel_top_within_bounded_memory():
    # The strong test keeps no table: deciding the largest prime below
    # 10^12 allocates a few small integers.
    tracemalloc.start()
    try:
        assert t(999_999_999_989) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_prime_count_examples():
    assert prime_count_formula(13) == 6
    assert prime_count_formula(10) == 4
    assert prime_count_formula(100) == 25
    assert prime_count_formula(10**9) == 50_847_534  # OEIS A006880


def test_prime_count_domain():
    with pytest.raises(DomainError):
        prime_count_formula(7)
    with pytest.raises(RangeLimitError):
        prime_count_formula(10**9 + 1)


def test_prime_count_matches_sieve_prefix():
    limit = 2 * 10**4
    flags = bytearray(limit + 1)
    for p in oracle.sieve(limit).primes:
        flags[p] = 1
    pi = [0] * (limit + 1)
    running = 0
    for x in range(limit + 1):
        running += flags[x]
        pi[x] = running
    # the paper's summation grid (literal.prime_count_literal), advanced one
    # argument at a time
    acc = 4
    for x in range(8, limit + 1):
        if x >= 11 and x % 6 in (1, 5):
            acc += t(x)
        assert acc == pi[x], x
    # and the public operation at every x up to 3000, on both sides of every
    # p^2 where Lucy's round for p starts (p <= 141, so p^2 + 1 <= limit),
    # and on a spot grid
    squares = [p * p + d for p in oracle.sieve(141).primes for d in (-1, 0, 1)]
    for x in (*range(8, 3001), *(v for v in squares if v >= 8), 7919, 10**4, limit):
        assert prime_count_formula(x) == pi[x], x


def test_build_prime_table_examples():
    assert build_prime_table(10).primes == (2, 3, 5, 7)
    assert build_prime_table(2).primes == (2,)
    table = build_prime_table(100)
    assert len(table) == 25
    assert table.primes[-1] == 97


def test_build_prime_table_is_iterable():
    assert list(build_prime_table(10)) == [2, 3, 5, 7]


def test_build_prime_table_modes_agree_to_1e5():
    assert build_prime_table(10**5).primes == oracle.sieve(10**5).primes


def test_build_prime_table_bad_args():
    with pytest.raises(DomainError):
        build_prime_table(1)


def test_build_prime_table_stops_at_wheel_top():
    # where t's wheel scan ends: past it t is no longer the paper's
    # divisor scan, and no indicator needs a prime above TABLE_CAP (31622),
    # so the limit is refused up front
    top = primality.WHEEL_TOP
    table = build_prime_table(top)
    assert len(table) == 78498
    assert table.primes == oracle.sieve(top).primes
    for limit in (top + 1, 10**13):
        with pytest.raises(RangeLimitError):
            build_prime_table(limit)
