import tracemalloc
from bisect import bisect_right
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiprimes import (
    MAX_CLASSIFY_INPUT,
    DomainError,
    RangeLimitError,
    build_prime_table,
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


def test_t_block_path_at_its_edges():
    # Above WHEEL_TOP t scans the block products up to the first block whose
    # top prime is >= isqrt(x).  The largest prime below 10^12 comes first:
    # it grows the blocks to their end, past 10^6, so that the blocks beyond
    # the stop hold primes such as 1000003 that the scan must not reach.
    _check_against_wheel_and_trial_division(999_999_999_989)
    tops = primality._blocks.tops
    assert tops[-1] > 1_000_003
    primes = oracle.sieve(tops[-1] + 200).primes
    cases = {10**12, 999_983**2, 999_979 * 999_983, 999_983 * 1_000_003, 1_000_003}
    cases.update(range(10**6 - 2, 10**6 + 4))
    # the first two blocks past the even prime, the last two whose top is at
    # most 10^6, and the one that runs past 10^6
    last = bisect_right(tops, 10**6)
    for top in (tops[1], tops[2], tops[last - 2], tops[last - 1], tops[last]):
        after = primes[bisect_right(primes, top)]  # the first prime of the next block
        cases.update(x for x in (top, after, top * top, top * after, after * after)
                     if x <= MAX_CLASSIFY_INPUT)
    assert any(x > primality.WHEEL_TOP and t(x) for x in cases)
    for x in sorted(cases):
        _check_against_wheel_and_trial_division(x)


def test_block_products_grow_lazily_within_bounded_memory(monkeypatch):
    # A list of the 78 498 primes <= 10^6 alone would take about 2.8 MB.
    monkeypatch.setattr(primality, "_blocks", primality._Blocks(2, (2,), (2,)))
    assert t(100_000_000_003) == 1
    limit = primality._blocks.limit
    assert isqrt(100_000_000_003) <= limit < isqrt(100_000_000_003) + primality.SEGMENT
    tracemalloc.start()
    try:
        assert t(999_999_999_989) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert primality._blocks.limit >= 10**6
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
    # and the public operation on a spot grid
    for x in (8, 9, 10, 13, 17, 100, 541, 1000, 7919, 10**4, limit):
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
    # the largest prime any indicator needs; past it the t route would take
    # time and memory without bound, so the limit is refused up front
    top = primality.WHEEL_TOP
    table = build_prime_table(top)
    assert len(table) == 78498
    assert table.primes == oracle.sieve(top).primes
    for limit in (top + 1, 10**13):
        with pytest.raises(RangeLimitError):
            build_prime_table(limit)
