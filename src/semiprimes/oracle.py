"""Independent ground-truth implementations used only for cross-validation.

Deliberately naive: trial division walks every candidate divisor (no 6k+-1
wheel) and the sieve is the classical one, so these share no machinery with
the indicator formulas they validate.
"""

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass

from .core import Category
from .intmath import bounded
from .primality import PrimeTable

#: bytearray memory budget for the prime sieve.
SIEVE_LIMIT = 10**8
#: memory budget for the factor-counting sieve (one machine word per integer).
FACTOR_SIEVE_LIMIT = 10**7
#: Largest n classical_count accepts: its prime table reaches n/2.
CLASSICAL_COUNT_LIMIT = 2 * SIEVE_LIMIT
#: Largest index whose semiprime classical_count can check: the number of
#: semiprimes <= CLASSICAL_COUNT_LIMIT.  The last of them is 199 999 997,
#: the next 200 000 001.
NTH_CHECK_LIMIT = 33_992_717


def _composite_flags(limit):
    flags = bytearray(limit + 1)
    for p in range(2, math.isqrt(limit) + 1):
        if not flags[p]:
            start = p * p
            flags[start :: p] = b"\x01" * ((limit - start) // p + 1)
    return flags


def _prime_list(limit):
    flags = _composite_flags(limit)
    return [x for x in range(2, limit + 1) if not flags[x]]


def sieve(limit: int) -> PrimeTable:
    """Exact prime table <= limit via the classical sieve."""
    limit = bounded(limit, "sieve", "limit", 2, SIEVE_LIMIT)
    return PrimeTable(limit, tuple(_prime_list(limit)))


@dataclass(frozen=True)
class FactorProfile:
    """Full prime factorization of subject, with multiplicity, ascending."""

    subject: int
    factors: tuple

    @property
    def omega(self) -> int:
        """Prime factors counted with multiplicity."""
        return len(self.factors)


def factor_profile(x: int) -> FactorProfile:
    """Factor x >= 2 by trial division over every integer candidate."""
    x = bounded(x, "factor_profile", "x", 2)
    left = x
    found = []
    d = 2
    while d * d <= left:
        while left % d == 0:
            found.append(d)
            left //= d
        d += 1
    if left > 1:
        found.append(left)
    return FactorProfile(x, tuple(found))


def category_for_omega(omega: int) -> Category:
    """The category of a number with omega prime factors, with multiplicity."""
    return {1: Category.PRIME, 2: Category.SEMIPRIME}.get(omega, Category.COMPOSITE_MANY_FACTORS)


def is_semiprime_oracle(x: int) -> int:
    """1 exactly when trial division finds two prime factors with multiplicity."""
    return 1 if factor_profile(x).omega == 2 else 0


def next_semiprime_oracle(n: int) -> int:
    """Smallest semiprime > n, by trial division of every integer above n."""
    x = max(bounded(n, "next_semiprime_oracle", "n", 0), 3) + 1
    while not is_semiprime_oracle(x):
        x += 1
    return x


def classical_count(n: int) -> int:
    """Semiprimes <= n counted from a prime table up to n/2.

    For each prime p <= sqrt(n) there are pi(n/p) - pi(p) + 1 semiprimes
    whose smaller factor is p, which telescopes to the sum below; below 4
    there is no such p, and the count is 0.  All pi lookups are bisections
    into one sieve-built table, so this route is independent of the
    indicator formulas.
    """
    n = bounded(n, "classical_count", "n", 1, CLASSICAL_COUNT_LIMIT)
    primes = _prime_list(max(2, n // 2))
    total = 0
    for i, p in enumerate(primes):
        if p * p > n:
            break
        total += bisect_right(primes, n // p) - i
    return total


def semiprime_flags(limit: int) -> bytearray:
    """flags[x] == 1 exactly when x is a semiprime, for 0 <= x <= limit.

    Every integer is factored with a smallest-prime-factor sieve, stopping
    at a third factor.
    """
    limit = bounded(limit, "semiprime_flags", "limit", 0, FACTOR_SIEVE_LIMIT)
    spf = array("L", range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    flags = bytearray(limit + 1)
    for x in range(4, limit + 1):
        left = x
        parts = 0
        while left > 1 and parts < 3:
            left //= spf[left]
            parts += 1
        if parts == 2 and left == 1:
            flags[x] = 1
    return flags


def semiprime_count_by_sieve(n: int) -> int:
    """Semiprimes <= n counted by factoring every integer with an spf sieve."""
    n = bounded(n, "semiprime_count_by_sieve", "n", 1, FACTOR_SIEVE_LIMIT)
    return semiprime_flags(n).count(1)
