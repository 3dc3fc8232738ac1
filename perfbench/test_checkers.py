"""Pins for the benchmark's own checkers and input generators.

    python3 -m pytest perfbench/test_checkers.py

The checkers are pinned against published sequences, never against the
program they check: pi_2(10^k) is OEIS A066265 and the semiprimes
themselves are OEIS A001358.
"""

import itertools
import math

import pytest

import checkers
import workloads

# A066265: number of semiprimes <= 10^k
PI2_POWERS_OF_TEN = {2: 34, 3: 299, 4: 2625, 5: 23378, 6: 210035}
# A001358: the first semiprimes
FIRST_SEMIPRIMES = [4, 6, 9, 10, 14, 15, 21, 22, 25, 26, 33, 34, 35, 38, 39, 46, 49, 51, 55, 57]


def primes_for(hi):
    return checkers.primes_upto(2 * math.isqrt(hi) + 2)


@pytest.mark.parametrize("k", sorted(PI2_POWERS_OF_TEN))
def test_segmented_count_matches_a066265(k):
    assert checkers.count_window(1, 10**k, primes_for(10**k)) == PI2_POWERS_OF_TEN[k]


def test_prefix_table_matches_a001358():
    table = checkers.PrefixTable(50_000)
    assert table.semiprimes[: len(FIRST_SEMIPRIMES)] == FIRST_SEMIPRIMES
    assert table.nth(10_000) == 40_882
    assert table.count(10**4) == PI2_POWERS_OF_TEN[4]


def test_windows_compose():
    primes = primes_for(10**9)
    lo, hi = 10**9 - 3000, 10**9
    whole = checkers.count_window(lo, hi, primes)
    for cut in (lo, lo + 1, lo + 1234, hi - 1):
        assert checkers.count_window(lo, cut, primes) + checkers.count_window(cut + 1, hi, primes) == whole


def test_miller_rabin_matches_sieve():
    limit = 10**5
    primes = set(checkers.primes_upto(limit))
    assert all(checkers.is_prime(n) == (n in primes) for n in range(limit + 1))


def test_miller_rabin_near_the_ceiling():
    assert checkers.is_prime(999_999_999_989)  # largest prime below 10^12
    assert not any(checkers.is_prime(n) for n in range(999_999_999_990, 10**12 + 1))
    # strong pseudoprimes to every base up to 7, and up to 23
    assert not checkers.is_prime(3_215_031_751)
    assert not checkers.is_prime(3_825_123_056_546_413_051)


def test_semiprime_test_matches_segmented_flags():
    test = checkers.SemiprimeTest(10**12)
    for lo, hi in ((1, 5000), (10**9 - 2000, 10**9)):
        flags = checkers.semiprime_flags(lo, hi, primes_for(hi))
        assert [int(test(n)) for n in range(lo, hi + 1)] == flags


def test_icbrt_at_cubes():
    for c in itertools.chain(range(1, 200), (9999, 10**4, 10**6)):
        assert checkers.icbrt(c**3) == c
        assert checkers.icbrt(c**3 - 1) == c - 1


def test_prefix_band_constants():
    table = checkers.PrefixTable(workloads.PREFIX_HI)
    assert table.count(workloads.PREFIX_LO) == workloads.PREFIX_PI2_LO
    assert table.count(workloads.PREFIX_HI) == workloads.PREFIX_PI2_HI


def rounds(workload, seed, n):
    return list(itertools.islice(workloads.ROUNDS[workload](seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_on_seed_only(workload):
    assert rounds(workload, 5, 3) == rounds(workload, 5, 3)
    assert rounds(workload, 5, 3) != rounds(workload, 6, 3)


def test_count_windows_are_disjoint_and_hit_edges():
    queries = [q for r in rounds("count", 3, workloads.MAX_ROUNDS["count"]) for q in r]
    spans = sorted(args for _, args, _ in queries)
    assert all(hi - lo + 1 == workloads.COUNT_WIDTH for lo, hi in spans)
    assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))
    assert spans[0][0] >= workloads.COUNT_LO and spans[-1][1] <= workloads.MAX_COUNT_INPUT
    cubes = sum(checkers.icbrt(hi) ** 3 >= lo for lo, hi in spans)
    squares = sum(math.isqrt(hi) ** 2 >= lo and checkers.is_prime(math.isqrt(hi)) for lo, hi in spans)
    assert cubes >= workloads.MAX_ROUNDS["count"] // 2
    assert squares >= workloads.MAX_ROUNDS["count"] // 2


def test_point_inputs_have_their_category():
    test = checkers.SemiprimeTest(10**12)
    for kind, args, label in (q for r in rounds("point", 9, 20) for q in r):
        if kind != "classify":
            continue
        x = args[0]
        assert workloads.POINT_LO <= x <= workloads.MAX_CLASSIFY_INPUT
        got = "prime" if checkers.is_prime(x) else "semiprime" if test(x) else "composite-many-factors"
        assert got == label, x
