"""Primality indicator, prime counting, and the shared prime tables.

The paper's indicator is t(x) = floor((t0 + t1 + t2) / 3): a number x >= 8 is
prime exactly when it is divisible by neither 2 nor 3 nor any integer of the
form 6k-1 or 6k+1 for k = 1 .. wheel_limit(x).  t0, t1 and t2 are each one
piece of that statement, return 0 or 1, and are exact integer arithmetic.

t itself takes one of two routes to the same value, chosen by the size of x:

- x <= WHEEL_TOP = isqrt(MAX_CLASSIFY_INPUT) = 10^6: one early-exit scan
  over 2, 3 and the 6k+-1 pairs, which needs no stored primes;
- x > WHEEL_TOP: the gcd of x with the product of each block of BLOCK_PRIMES
  consecutive primes, in ascending order, up to the first block whose top
  prime reaches isqrt(x).  A composite x has a prime factor <= isqrt(x) <=
  10^6, which some scanned block holds; a prime x > 10^6 divides no product
  of smaller primes.

This module also holds the segment sieve (_mark), the one shared table of
small primes (_primes) that the block products, the counting routes and the
per-number scans in core all draw on, and Lucy's prime-count table
(_lucy_tables), which gives pi(n // k) for every k in O(n^(3/4)) steps.  The
wheel scan generates the shared table, the table's primes sieve the segments
the block products are taken from, and prime_count_formula and core's prefix
count both read the Lucy table.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, islice
from math import gcd, isqrt, prod
from typing import NamedTuple

from .intmath import (
    MAX_CLASSIFY_INPUT,
    MAX_COUNT_INPUT,
    DomainError,
    RangeLimitError,
    _wheel_limit,
    as_natural,
    icbrt,
    wheel_limit,
)

# Divisor-free primality for arguments the wheel construction cannot reach:
# with fewer than two (6k+-1) pairs available below 8, these are pinned by
# lookup so that every caller receives a correct indicator at any argument.
_SMALL_PRIMALITY = {1: 0, 2: 1, 3: 1, 4: 0, 5: 1, 6: 0, 7: 1}

#: Largest argument t settles by the wheel scan; above it t uses the block
#: products.  Every prime a larger argument can need lies at or below it.
WHEEL_TOP = isqrt(MAX_CLASSIFY_INPUT)

#: Primes per block product.  A product of 128 primes near 10^6 has about
#: 2 600 bits, so each gcd with x stays one short C-level call.
BLOCK_PRIMES = 128


def _classification_arg(x, low, name):
    x = as_natural(x, "x")
    if x > MAX_CLASSIFY_INPUT:
        raise RangeLimitError(
            f"{name} accepts inputs up to {MAX_CLASSIFY_INPUT}, got {x}"
        )
    if x < low:
        raise DomainError(f"{name} requires x >= {low}, got {x}")
    return x


def t0(x: int) -> int:
    """1 if x is divisible by neither 2 nor 3, else 0 (x >= 1)."""
    x = _classification_arg(x, 1, "t0")
    return 1 if x % 2 and x % 3 else 0


def t1(x: int) -> int:
    """1 if no divisor 6k-1, k = 1 .. wheel_limit(x), divides x (x >= 8).

    Equals the floor of the mean of the per-divisor indicators; since each
    is 0 or 1, that is the all-ones test, so the scan may stop at the first
    divisor found.
    """
    x = _classification_arg(x, 8, "t1")
    for d in range(5, 6 * wheel_limit(x) + 1, 6):
        if x % d == 0:
            return 0
    return 1


def t2(x: int) -> int:
    """1 if no divisor 6k+1, k = 1 .. wheel_limit(x), divides x (x >= 8)."""
    x = _classification_arg(x, 8, "t2")
    for d in range(7, 6 * wheel_limit(x) + 3, 6):
        if x % d == 0:
            return 0
    return 1


@dataclass(frozen=True)
class PrimeTable:
    """Ascending tuple of exactly the primes <= limit."""

    limit: int
    primes: tuple

    def __iter__(self):
        return iter(self.primes)

    def __len__(self):
        return len(self.primes)


#: Width of every sieve segment, here and in core's counting engine.  No
#: bytearray a sieve allocates is longer, whatever the range, which bounds
#: its memory.
SEGMENT = 1 << 17

_ONES = memoryview(b"\x01" * SEGMENT)


def _mark(flags, a, primes):
    # Set flags[m - a] for every multiple m >= p*p of each p, where flags
    # covers a .. a + len(flags) - 1, with one strided slice per prime.
    # (p*p - a) % p == (-a) % p.
    size = len(flags)
    for p in primes:
        s = p * p - a
        if s < 0:
            s %= p
        if s < size:
            flags[s::p] = _ONES[: (size - 1 - s) // p + 1]


#: Largest prime the shared table is ever asked for: the sieving primes of a
#: count up to MAX_COUNT_INPUT and the cube-root primes of a classification
#: up to MAX_CLASSIFY_INPUT.
TABLE_CAP = max(isqrt(MAX_COUNT_INPUT), icbrt(MAX_CLASSIFY_INPUT))

# Self-contained divisor table: the wheel scan generates its primes, so the
# formula path never consults the oracle sieve.  It only ever grows, from its
# previous limit, and each growth binds a new PrimeTable, so a reader (in any
# thread) holds either the old table or the new one, never a partial one.
# Two threads growing it at once each get a complete table; the later
# binding wins.
_table = PrimeTable(1, ())


def _primes(limit: int) -> tuple:
    """Every prime <= limit (limit <= TABLE_CAP), ascending."""
    global _table
    table = _table
    if limit > table.limit:
        if limit > TABLE_CAP:
            raise RangeLimitError(f"the prime table stops at {TABLE_CAP}, asked for {limit}")
        # _t decides 2, 3 and every 6k+-1 candidate, all <= WHEEL_TOP, by the
        # wheel scan; the rest are multiples of 2 or 3
        candidates = range(table.limit + 1, limit + 1)
        grown = tuple(x for x in candidates if (x < 5 or x % 6 in (1, 5)) and _t(x))
        _table = table = PrimeTable(limit, table.primes + grown)
    return table.primes[: bisect_right(table.primes, limit)]


class _Blocks(NamedTuple):
    limit: int  # every prime <= limit lies in some block
    tops: tuple  # the largest prime of each block, ascending
    products: tuple  # the product of each block's primes


# Grown like _table: whole segments past the last limit, one new binding per
# growth.  Only the products are kept, never the primes themselves.  The
# first block is the even prime alone, so every segment starts on an odd
# integer and only its odd integers are read.
_blocks = _Blocks(2, (2,), (2,))

# bytes.translate table: an unmarked flag (0, a prime) becomes 1, a marked
# one 0, so compress() keeps exactly the primes.
_UNMARKED = b"\x01" + bytes(255)


def _grow_blocks(root):
    # Sieve one segment at a time from the last limit until the limit reaches
    # root; each segment's primes, BLOCK_PRIMES at a time, make its blocks
    # (the segment's last block may be shorter).  One block's primes are the
    # only ones held at once.
    global _blocks
    limit, tops, products = _blocks
    tops, products = list(tops), list(products)
    while limit < root:
        a = limit + 1
        limit += SEGMENT
        flags = bytearray(SEGMENT)
        _mark(flags, a, _primes(isqrt(limit)))
        primes = compress(range(a, limit + 1, 2), flags.translate(_UNMARKED)[::2])
        while block := tuple(islice(primes, BLOCK_PRIMES)):
            tops.append(block[-1])
            products.append(prod(block))
    _blocks = blocks = _Blocks(limit, tuple(tops), tuple(products))
    return blocks


def _t_blocks(x):
    # t for WHEEL_TOP < x <= MAX_CLASSIFY_INPUT.  The blocks past the first
    # one whose top reaches isqrt(x) may hold x itself (the last segment runs
    # past 10^6), so the scan must stop there.
    root = isqrt(x)
    blocks = _blocks
    if blocks.limit < root:
        blocks = _grow_blocks(root)
    needed = bisect_left(blocks.tops, root) + 1
    for product in islice(blocks.products, needed):
        if gcd(x, product) != 1:
            return 0
    return 1


def _t(x):
    # t without the argument check (1 <= x <= MAX_CLASSIFY_INPUT)
    if x < 8:
        return _SMALL_PRIMALITY[x]
    if x > WHEEL_TOP:
        return _t_blocks(x)
    if x % 2 == 0 or x % 3 == 0:
        return 0
    for d in range(5, 6 * _wheel_limit(x) + 1, 6):
        if x % d == 0 or x % (d + 2) == 0:
            return 0
    return 1


def t(x: int) -> int:
    """Primality indicator: 1 exactly when x is prime (1 <= x <= 10^12).

    For 8 <= x <= WHEEL_TOP (10^6) this is floor((t0 + t1 + t2) / 3), the
    conjunction of the three wheel indicators, evaluated as one early-exit
    divisor scan.  Above 10^6 it is the same value from the prime block
    products: 0 at the first block sharing a factor with x, 1 at the first
    block whose top prime is >= isqrt(x).  For 1 <= x <= 7 the value comes
    from the lookup extension, so t is a correct primality indicator at
    every argument it can receive (the semiprime test applies t to
    quotients as small as 4).
    """
    return _t(_classification_arg(x, 1, "t"))


def _lucy_tables(n):
    # Lucy's recurrence, for n >= 1: small[v] = pi(v) for v <= r = isqrt(n)
    # and large[k] = pi(n // k) for 1 <= k <= r, so large[1] = pi(n).
    # Starting from v - 1, each prime p (in turn, with i = pi(p - 1) primes
    # before it) removes from every value v >= p*p the integers whose least
    # prime factor is p, S(v // p) - i of them.  Each round reads only values
    # the round has not yet changed: large[k * p] and small[v // p] lie past
    # k and below v, and small is updated last.  Item updates in place keep
    # the peak to the two tables, O(sqrt(n)) integers, and the whole build
    # takes O(n^(3/4)) steps.
    r = isqrt(n)
    small = list(range(-1, r))
    large = [0] + [n // k - 1 for k in range(1, r + 1)]
    for i, p in enumerate(_primes(r)):
        p2 = p * p
        kmax = min(r, n // p2)  # large[k] with n // k >= p*p
        inner = min(kmax, r // p)  # large[k * p] is still in large
        for k in range(1, inner + 1):
            large[k] -= large[k * p] - i
        m = n // p  # n // (k * p) == m // k
        for k in range(inner + 1, kmax + 1):
            large[k] -= small[m // k] - i
        for v in range(r, p2 - 1, -1):
            small[v] -= small[v // p] - i
    return small, large


def prime_count_formula(x: int) -> int:
    """Number of primes <= x, for 8 <= x <= MAX_COUNT_INPUT.

    Read off the Lucy-style table that semiprime_count builds, in O(x^(3/4))
    steps and O(sqrt(x)) memory: 10^9 takes well under a second.  The
    paper's sum of t over the 6j+5 / 6j+7 grids is
    literal.prime_count_literal, the slow reference the tests hold this to.
    """
    x = as_natural(x, "x")
    if x < 8:
        raise DomainError(f"prime_count_formula requires x >= 8, got {x}")
    if x > MAX_COUNT_INPUT:
        raise RangeLimitError(
            f"prime_count_formula accepts inputs up to {MAX_COUNT_INPUT}, got {x}"
        )
    return _lucy_tables(x)[1][1]


def build_prime_table(limit: int) -> PrimeTable:
    """All primes <= limit (2 <= limit <= WHEEL_TOP), found by the t indicator.

    Every integer 2 .. limit is tested with t's wheel scan, so the table is
    generated from the paper's indicator alone and touches no mutable state.
    WHEEL_TOP (10^6) is the largest prime any indicator ever needs; for a
    fast sieve of any size use oracle.sieve.
    """
    limit = as_natural(limit, "limit")
    if limit < 2:
        raise DomainError(f"build_prime_table requires limit >= 2, got {limit}")
    if limit > WHEEL_TOP:
        raise RangeLimitError(f"build_prime_table accepts limits up to {WHEEL_TOP}, got {limit}")
    return PrimeTable(limit, tuple(x for x in range(2, limit + 1) if _t(x)))
