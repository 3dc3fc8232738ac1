"""Independent answer checkers for the benchmark, standard library only.

Nothing here imports ``semiprimes``: every expected answer comes from two
routes of the benchmark's own.

- ``semiprime_flags`` counts prime factors with multiplicity (Omega) over a
  window [lo, hi] by a segmented sieve over the primes up to sqrt(hi).  It
  checks count windows and builds the prefix table for the prefix workload.
- ``is_prime`` is a deterministic Miller-Rabin test; ``next_prime`` on top
  of it builds the point workload's inputs.  ``SemiprimeTest`` decides
  semiprimality of a single number with it: trial division by the primes up
  to the cube root, then one Miller-Rabin call.  It confirms the category of
  point's inputs and computes the expected successor answers.

``test_checkers.py`` pins both against published values (OEIS A066265 and
A001358), not against the program under test.
"""

import math
from bisect import bisect_right

# Deterministic for every n < 3.3 * 10**24 (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def primes_upto(limit):
    """All primes <= limit, by the classical sieve."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def icbrt(n):
    """Largest c with c**3 <= n, by integer Newton iteration."""
    if n < 8:
        return 1 if n else 0
    c = 1 << -(-n.bit_length() // 3)
    while True:
        d = (2 * c + n // (c * c)) // 3
        if d >= c:
            break
        c = d
    while c * c * c > n:
        c -= 1
    return c


def is_prime(n):
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n):
    """Smallest prime > n."""
    n += 1
    while not is_prime(n):
        n += 1
    return n


class SemiprimeTest:
    """Single-number semiprimality by trial division to the cube root plus
    Miller-Rabin: a number with no prime factor <= its cube root has at most
    two prime factors, so it is a semiprime exactly when it is composite."""

    def __init__(self, limit):
        self.limit = limit
        self.small = primes_upto(icbrt(limit) + 1)

    def __call__(self, n):
        if n > self.limit:
            raise ValueError(f"{n} exceeds this test's limit {self.limit}")
        if n < 4:
            return False
        c = icbrt(n)
        for p in self.small:
            if p > c:
                break
            if n % p == 0:
                return is_prime(n // p)
        return not is_prime(n)


def semiprime_flags(lo, hi, primes):
    """One flag per integer of [lo, hi]: 1 when it has exactly two prime
    factors counted with multiplicity.  ``primes`` holds every prime up to
    sqrt(hi) and at least one above it."""
    if lo < 1 or hi < lo:
        raise ValueError(f"bad window [{lo}, {hi}]")
    if primes[-1] ** 2 <= hi:
        raise ValueError("the prime list must pass sqrt(hi)")
    n = hi - lo + 1
    rest = list(range(lo, hi + 1))
    omega = [0] * n
    for p in primes:
        if p * p > hi:
            break
        for i in range(-lo % p, n, p):
            v = rest[i] // p
            k = 1
            while v % p == 0:
                v //= p
                k += 1
            rest[i] = v
            omega[i] += k
    # whatever is left above 1 is a single prime > sqrt(hi)
    return [1 if om + (r > 1) == 2 else 0 for om, r in zip(omega, rest)]


def count_window(lo, hi, primes):
    """Number of semiprimes in [lo, hi]."""
    return sum(semiprime_flags(lo, hi, primes))


class PrefixTable:
    """All semiprimes <= limit, for pi_2(N) and nth-semiprime lookups."""

    def __init__(self, limit):
        flags = semiprime_flags(1, limit, primes_upto(2 * math.isqrt(limit) + 2))
        self.limit = limit
        self.semiprimes = [i + 1 for i, f in enumerate(flags) if f]

    def count(self, n):
        if n > self.limit:
            raise ValueError(f"{n} exceeds the table limit {self.limit}")
        return bisect_right(self.semiprimes, n)

    def nth(self, n):
        if not 1 <= n <= len(self.semiprimes):
            raise ValueError(f"index {n} outside the table")
        return self.semiprimes[n - 1]
