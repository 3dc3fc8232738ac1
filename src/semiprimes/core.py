"""Semiprimality indicators, the (T, K1, K2) classification, and counting.

The working principle: a number with three or more prime factors must have a
prime factor not exceeding its cube root.  So for x >= 8,

  k1(x) = 1  iff no prime p <= icbrt(x) divides x        (x is prime or
              a semiprime whose factors both exceed the cube root),
  k2(x) = 1  iff some prime p <= icbrt(x) divides x with x/p prime
              (x is a semiprime with a small factor),

and combining them with the primality indicator t gives
k1(x) + k2(x) - t(x) = 1 exactly for semiprimes.

Counting sums that identity over a range, and since the sum is linear each
of its three parts is summed over whole blocks with bytearray slice marking
(see count_range) rather than one indicator call per integer.  Both the
block sums and the per-number scans draw their primes from one shared table,
generated by t and grown on demand.
"""

import enum
from bisect import bisect_right
from dataclasses import dataclass
from math import isqrt
from typing import NamedTuple, Optional

from .intmath import (
    MAX_CLASSIFY_INPUT,
    MAX_COUNT_INPUT,
    DomainError,
    RangeLimitError,
    as_natural,
    icbrt,
)
from .primality import PrimeTable, t


class IndicatorTriple(NamedTuple):
    t: int
    k1: int
    k2: int


class Category(enum.Enum):
    PRIME = "prime"
    SEMIPRIME = "semiprime"
    COMPOSITE_MANY_FACTORS = "composite-many-factors"


@dataclass(frozen=True)
class Classification:
    """Category of an integer plus the indicator triple that produced it.

    For 2 <= x <= 7 the triple machinery does not apply; the category comes
    from a lookup and ``triple`` is None.
    """

    category: Category
    triple: Optional[IndicatorTriple]

    @property
    def small_domain(self) -> bool:
        return self.triple is None


# The only triples that can occur for x >= 8, and what each means.
_TRIPLE_CATEGORY = {
    IndicatorTriple(1, 1, 0): Category.PRIME,
    IndicatorTriple(0, 1, 0): Category.SEMIPRIME,  # both factors > icbrt(x)
    IndicatorTriple(0, 0, 1): Category.SEMIPRIME,  # smaller factor <= icbrt(x)
    IndicatorTriple(0, 0, 0): Category.COMPOSITE_MANY_FACTORS,
}

_SMALL_CATEGORY = {
    2: Category.PRIME,
    3: Category.PRIME,
    4: Category.SEMIPRIME,
    5: Category.PRIME,
    6: Category.SEMIPRIME,
    7: Category.PRIME,
}

# Semiprime counts for arguments below 8 (index by N): semiprimes 4 and 6.
_SMALL_PI2 = (0, 0, 0, 0, 1, 1, 2, 2)


def _indicator_arg(x, name):
    x = as_natural(x, "x")
    if x > MAX_CLASSIFY_INPUT:
        raise RangeLimitError(f"{name} accepts inputs up to {MAX_CLASSIFY_INPUT}, got {x}")
    if x < 8:
        raise DomainError(f"{name} requires x >= 8, got {x}")
    return x


#: Largest prime the shared table is ever asked for: the sieving primes of a
#: count up to MAX_COUNT_INPUT and the cube-root primes of a classification
#: up to MAX_CLASSIFY_INPUT.
TABLE_CAP = max(isqrt(MAX_COUNT_INPUT), icbrt(MAX_CLASSIFY_INPUT))

# Self-contained divisor table: the primality indicator generates its own
# primes, so the formula path never consults the oracle sieve.  It only ever
# grows, from its previous limit, and each growth binds a new PrimeTable, so
# a reader (in any thread) holds either the old table or the new one, never a
# partial one.  Two threads growing it at once each get a complete table;
# the later binding wins.
_table = PrimeTable(1, ())


def _primes(limit: int) -> tuple:
    """Every prime <= limit (limit <= TABLE_CAP), ascending."""
    global _table
    table = _table
    if limit > table.limit:
        if limit > TABLE_CAP:
            raise RangeLimitError(f"the prime table stops at {TABLE_CAP}, asked for {limit}")
        # t decides 2, 3 and every 6k+-1 candidate; the rest are multiples of 2 or 3
        candidates = range(table.limit + 1, limit + 1)
        grown = tuple(x for x in candidates if (x < 5 or x % 6 in (1, 5)) and t(x))
        _table = table = PrimeTable(limit, table.primes + grown)
    return table.primes[: bisect_right(table.primes, limit)]


def k1(x: int) -> int:
    """1 if no prime p <= icbrt(x) divides x, else 0 (x >= 8).

    Floor of the mean of the per-prime nondivisibility indicators, i.e. the
    all-ones test; the scan stops at the first dividing prime.  The prime
    table is nonempty for every x >= 8 since icbrt(8) = 2.
    """
    x = _indicator_arg(x, "k1")
    for p in _primes(icbrt(x)):
        if x % p == 0:
            return 0
    return 1


def k2(x: int) -> int:
    """1 if some prime p <= icbrt(x) divides x with x/p prime, else 0 (x >= 8).

    Ceiling of the mean of the per-prime terms, i.e. the any-test.  Each term
    multiplies a divisibility factor by t at the quotient, so t is only ever
    consulted at exact integer quotients; non-divisors contribute 0 outright.
    """
    x = _indicator_arg(x, "k2")
    for p in _primes(icbrt(x)):
        if x % p == 0 and t(x // p) == 1:
            return 1
    return 0


def _triple_bits(x: int) -> IndicatorTriple:
    # Fused evaluation of (t, k1, k2) sharing one divisor scan.  A prime
    # divisor p <= icbrt(x) <= sqrt(x) is always one of the wheel's own
    # divisors, so finding one already settles t(x) = 0.
    has_small_factor = False
    for p in _primes(icbrt(x)):
        if x % p == 0:
            has_small_factor = True
            if t(x // p) == 1:
                return IndicatorTriple(0, 0, 1)
    if has_small_factor:
        return IndicatorTriple(0, 0, 0)
    return IndicatorTriple(t(x), 1, 0)


def semiprime_indicator(x: int) -> int:
    """1 exactly when x is a semiprime, else 0, for x >= 8.

    Computed as k1(x) + k2(x) - t(x).  Callers needing 4 <= x <= 7 should use
    classify, which handles the small domain by lookup.
    """
    x = _indicator_arg(x, "semiprime_indicator")
    tb, k1b, k2b = _triple_bits(x)
    return k1b + k2b - tb


def classify(x: int) -> Classification:
    """Categorize x >= 2 as prime, semiprime, or >= 3 prime factors."""
    x = as_natural(x, "x")
    if x > MAX_CLASSIFY_INPUT:
        raise RangeLimitError(f"classify accepts inputs up to {MAX_CLASSIFY_INPUT}, got {x}")
    if x < 2:
        raise DomainError(f"classify requires x >= 2, got {x}")
    if x < 8:
        return Classification(_SMALL_CATEGORY[x], None)
    trip = _triple_bits(x)
    return Classification(_TRIPLE_CATEGORY[trip], trip)


#: Width of every sieve segment in the counting engine.  No bytearray it
#: allocates is longer, whatever the range, which bounds its memory.
SEGMENT = 1 << 17

_ONES = memoryview(b"\x01" * SEGMENT)

#: A prime with at most about this many multiples in a segment marks them
#: one by one: a few item stores cost less than a strided slice assignment,
#: and in a narrow range nearly every sieving prime marks one position or
#: none.
FEW_MARKS = 16


def _mark(flags, a, primes):
    # Set flags[m - a] for every multiple m >= p*p of each p, where flags
    # covers a .. a + len(flags) - 1.  (p*p - a) % p == (-a) % p.
    size = len(flags)
    for p in primes:
        s = p * p - a
        if s < 0:
            s %= p
        if s < size:
            if size - s > FEW_MARKS * p:
                flags[s::p] = _ONES[: (size - 1 - s) // p + 1]
            else:
                while s < size:
                    flags[s] = 1
                    s += p


def _count_primes(a: int, b: int) -> int:
    """Number of primes in [a, b] (2 <= a), one segment at a time."""
    total = 0
    while a <= b:
        end = min(b, a + SEGMENT - 1)
        flags = bytearray(end - a + 1)
        _mark(flags, a, _primes(isqrt(end)))
        total += flags.count(0)
        a = end + 1
    return total


def _k1_t_sums(lo: int, hi: int) -> tuple:
    # Pieces never straddle a cube, so c = icbrt is constant in each.  The
    # primes <= c mark every multiple in the piece (it starts at c^3 >= p^3
    # > p^2): what they leave is the piece's sum of k1.  The primes up to
    # sqrt of the piece's end then complete the prime sieve: what is left
    # after them is the piece's sum of t.
    k1_sum = t_sum = 0
    a = lo
    while a <= hi:
        c = icbrt(a)
        b = min(hi, a + SEGMENT - 1, (c + 1) ** 3 - 1)
        flags = bytearray(b - a + 1)
        primes = _primes(isqrt(b))
        cut = bisect_right(primes, c)
        _mark(flags, a, primes[:cut])
        k1_sum += flags.count(0)
        _mark(flags, a, primes[cut:])
        t_sum += flags.count(0)
        a = b + 1
    return k1_sum, t_sum


def _k2_sum(lo: int, hi: int) -> int:
    # x = p*q with p prime, q prime and p <= icbrt(x), i.e. q >= p*p; the
    # semiprime fixes p, so the terms over p never overlap.
    total = 0
    for p in _primes(icbrt(hi)):
        a = max(p * p, -(-lo // p))
        b = hi // p
        if a <= b:
            total += _count_primes(a, b)
    return total


def _count_range(lo: int, hi: int) -> int:
    # count_range without the argument checks
    k1_sum, t_sum = _k1_t_sums(lo, hi)
    return k1_sum + _k2_sum(lo, hi) - t_sum


def count_range(lo: int, hi: int) -> int:
    """Sum of semiprime_indicator over lo..hi inclusive (8 <= lo <= hi).

    The sum is linear, so it is computed as sum(k1) + sum(k2) - sum(t), each
    part over whole blocks rather than integer by integer:

    - sum(t) is the number of primes in [lo, hi], from a segmented sieve
      with the primes <= isqrt(hi), each marking from its square;
    - sum(k1) splits [lo, hi] at consecutive cubes, so icbrt is a constant
      c within each piece, and counts what the primes <= c leave unmarked;
    - sum(k2) is, over the primes p <= icbrt(hi), the number of primes q
      with max(p*p, ceil(lo/p)) <= q <= floor(hi/p), by the same sieve.

    Every sieve runs in segments of SEGMENT integers, so memory stays
    bounded for every range; the primes come from the shared table that the
    per-number indicators use.  Consecutive ranges compose exactly:
    splitting [8, N] anywhere and adding the pieces always reproduces
    semiprime_count(N) - 2.
    """
    lo = as_natural(lo, "lo")
    hi = as_natural(hi, "hi")
    if lo < 8:
        raise DomainError(f"count_range requires lo >= 8, got {lo}")
    if lo > hi:
        raise DomainError(f"count_range requires lo <= hi, got [{lo}, {hi}]")
    if hi > MAX_COUNT_INPUT:
        raise RangeLimitError(f"count_range accepts endpoints up to {MAX_COUNT_INPUT}, got {hi}")
    return _count_range(lo, hi)


def _partitions(lo, hi, pieces):
    # yielded one at a time, so a huge partition count costs time, not memory
    size = hi - lo + 1
    pieces = min(pieces, size)
    step, extra = divmod(size, pieces)
    start = lo
    for i in range(pieces):
        end = start + step - 1 + (1 if i < extra else 0)
        yield start, end
        start = end + 1


def semiprime_count(n: int, threads: int = 1) -> int:
    """Number of semiprimes <= n, for n >= 1.

    For n >= 8 this is 2 + count_range(8, n) (the constant 2 covers the
    semiprimes 4 and 6); below 8 a lookup applies.  ``threads`` is the
    number of consecutive partitions of [8, n]: they are counted one after
    another and added in partition order, so the result is identical for
    every partition count.  (The block sums hold the interpreter lock, so
    running partitions on threads would only add start-up cost.)
    """
    n = as_natural(n, "n")
    threads = as_natural(threads, "threads")
    if n < 1:
        raise DomainError("semiprime_count requires n >= 1")
    if n > MAX_COUNT_INPUT:
        raise RangeLimitError(f"semiprime_count accepts inputs up to {MAX_COUNT_INPUT}, got {n}")
    if threads < 1:
        raise DomainError("threads must be >= 1")
    if n < 8:
        return _SMALL_PI2[n]
    return 2 + sum(_count_range(a, b) for a, b in _partitions(8, n, threads))
