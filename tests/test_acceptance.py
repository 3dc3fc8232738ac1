"""Acceptance sweep: every shipped criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.
"""

import math
import random
import time

import semiprimes as sp
from semiprimes import bench, literal, oracle
from semiprimes.core import _window_parts


def _report(tag, ok, detail=""):
    suffix = f" - {detail}" if detail else ""
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{tag} failed{suffix}"


def test_c01_counts_at_powers_of_ten_within_two_minutes():
    begin = time.perf_counter()
    golden = {n: c for n, c in bench.GOLDEN_SEMIPRIME_COUNTS.items() if n <= 10**6}
    got = {n: sp.semiprime_count(n) for n in sorted(golden)}
    elapsed = time.perf_counter() - begin
    exact = got == golden
    _report(
        "criterion 1: counts at 10^1..10^6, under 120 s",
        exact and elapsed < 120.0,
        f"values {'exact' if exact else got}, {elapsed:.1f}s",
    )


def test_c01_count_1e7():
    got = sp.semiprime_count(10**7)
    _report("criterion 1: count at 10^7", got == 1904324, f"got {got}")


def test_c01_count_1e8():
    got = sp.semiprime_count(10**8)
    _report("criterion 1: count at 10^8", got == 17427258, f"got {got}")


def test_c02_nth_semiprime_golden_values():
    got = {n: sp.nth_semiprime(n) for n in sorted(bench.GOLDEN_NTH_SEMIPRIMES)}
    ok = got == bench.GOLDEN_NTH_SEMIPRIMES
    _report("criterion 2: nth semiprime golden values", ok, "exact" if ok else str(got))


def test_c03_next_semiprime_golden_values():
    got = {n: sp.next_semiprime(n) for n in sorted(bench.GOLDEN_NEXT_SEMIPRIMES)}
    ok = got == bench.GOLDEN_NEXT_SEMIPRIMES
    _report("criterion 3: next semiprime golden values", ok, "exact" if ok else str(got))


def test_c04_gate_column_and_fifth_semiprime():
    column = tuple(sp.gate(5, sp.semiprime_count(x)) for x in range(8, 15))
    fifth = sp.nth_semiprime(5)
    ok = column == (1, 1, 1, 1, 1, 1, 0) and fifth == 14
    _report(
        "criterion 4: gate column for x=8..14 and the fifth semiprime",
        ok,
        f"column {column}, sp_5 {fifth}",
    )


def test_c05_classification_matches_trial_division_to_1e5():
    mismatches = 0
    for x in range(8, 10**5 + 1):
        omega = oracle.factor_profile(x).omega
        if sp.classify(x).category is not oracle.category_for_omega(omega):
            mismatches += 1
        if sp.semiprime_indicator(x) != (1 if omega == 2 else 0):
            mismatches += 1
    _report(
        "criterion 5: classify and indicator vs trial-division factors on [8, 10^5]",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_c06_primality_indicator_and_count_exhaustive():
    limit = 10**6
    pi_limit = 10**5
    flags = bytearray(limit + 1)
    for p in oracle.sieve(limit).primes:
        flags[p] = 1
    pi_prefix = [0] * (pi_limit + 1)
    running = 0
    for x in range(pi_limit + 1):
        running += flags[x]
        pi_prefix[x] = running
    indicator_bad = 0
    count_bad = 0
    acc = 4
    for x in range(8, limit + 1):
        tv = sp.t(x)
        if tv != flags[x]:
            indicator_bad += 1
        if x <= pi_limit:
            if x >= 11 and x % 6 in (1, 5):
                acc += tv  # the counting formula's own grid, one step at a time
            if acc != pi_prefix[x]:
                count_bad += 1
    for x in (8, 9, 10, 13, 100, 541, 999, 5000, 25000, 99991, pi_limit):
        if sp.prime_count_formula(x) != pi_prefix[x]:
            count_bad += 1
    _report(
        "criterion 6: t vs sieve on [8, 10^6]; prime counts vs sieve on [8, 10^5]",
        indicator_bad == 0 and count_bad == 0,
        f"{indicator_bad} indicator, {count_bad} count mismatches",
    )


def test_c07_method_triangle(semi_flags_10k):
    limit = 10**4
    mismatches = 0
    # formula route advanced one indicator at a time (count_range composition)
    formula_counts = [0] * (limit + 1)
    acc = 2
    for n in range(8, limit + 1):
        acc += sp.semiprime_indicator(n)
        formula_counts[n] = acc
    sieve_running = 2
    for n in range(8, limit + 1):
        sieve_running += semi_flags_10k[n]
        if formula_counts[n] != sieve_running:
            mismatches += 1
        if oracle.classical_count(n) != formula_counts[n]:
            mismatches += 1
    # the public operation agrees with its own composition
    for n in list(range(8, 72)) + [100, 999, 2500, 5000, limit]:
        if sp.semiprime_count(n) != formula_counts[n]:
            mismatches += 1
    # both heavyweight sizes, all three routes end to end
    for n in (10**5, 10**6):
        a = sp.semiprime_count(n)
        b = oracle.classical_count(n)
        c = oracle.semiprime_count_by_sieve(n)
        if not (a == b == c):
            mismatches += 1
    _report(
        "criterion 7: formula = classical = sieve counts (N <= 10^4, 10^5, 10^6)",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_c08_round_trip_between_count_and_nth(semis_10k):
    mismatches = 0
    for s in semis_10k:
        if sp.nth_semiprime(sp.semiprime_count(s)) != s:
            mismatches += 1
    top = sp.semiprime_count(10**4)
    if top != len(semis_10k):
        mismatches += 1
    for n in range(1, top + 1):
        if sp.semiprime_count(sp.nth_semiprime(n)) != n:
            mismatches += 1
    _report(
        "criterion 8: count/nth round trips over semiprimes <= 10^4",
        mismatches == 0,
        f"{mismatches} mismatches across {len(semis_10k)} semiprimes",
    )


def test_c09_literal_evaluations_match_production():
    mismatches = 0
    rng = random.Random(20260811)
    for x in rng.sample(range(8, 10**5 + 1), 500):
        if literal.semiprime_indicator_literal(x) != sp.semiprime_indicator(x):
            mismatches += 1
    for n in range(9, 2001):
        if literal.next_semiprime_literal(n) != sp.next_semiprime(n):
            mismatches += 1
    # the quadratic nested sum: dense coverage to 120, then a grid to 300
    for n in [*range(3, 121), 150, 200, 250, 300]:
        if literal.nth_semiprime_literal(n) != sp.nth_semiprime(n):
            mismatches += 1
    _report(
        "criterion 9: literal indicator / nth / next equal the production paths",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def _window_count(lo, hi):
    k1_sum, k2_sum, t_sum = _window_parts(lo, hi)
    return k1_sum + k2_sum - t_sum


def _partitioned_count(n, pieces, count=sp.count_range):
    # 2 + the sum of count over `pieces` consecutive parts of [8, n]
    cuts = [8 + (n - 7) * i // pieces for i in range(pieces + 1)]
    return 2 + sum(count(a, b - 1) for a, b in zip(cuts, cuts[1:]))


def test_c10_partition_determinism_at_1e6():
    # pieces this wide take count_range's prefix difference, which
    # telescopes, so the window pass is summed over the same pieces too
    results = {k: _partitioned_count(10**6, k) for k in (1, 2, 4, 8)}
    windows = {k: _partitioned_count(10**6, k, _window_count) for k in (1, 2, 4, 8)}
    ok = set(results.values()) == set(windows.values()) == {210035}
    _report(
        "criterion 10: count(10^6) identical for 1/2/4/8 partitions",
        ok,
        f"{results}, window pass {windows}",
    )
