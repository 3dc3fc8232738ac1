"""Primality indicator and the prime table type.

The paper's indicator is t(x) = floor((t0 + t1 + t2) / 3): a number x >= 8 is
prime exactly when it is divisible by neither 2 nor 3 nor any integer of the
form 6k-1 or 6k+1 for k = 1 .. wheel_limit(x).  t0, t1 and t2 are each one
piece of that statement, return 0 or 1, and are exact integer arithmetic.

t itself takes one of two routes to the same value, chosen by the size of x:

- x <= WHEEL_TOP = 10^6: one early-exit scan over 2, 3 and the 6k+-1 pairs,
  which needs no stored primes;
- x > WHEEL_TOP: a sift, one gcd of x with the product of the primes
  5..97 (_SIFT), which rejects most composites at once, then, for x it
  leaves, a strong-probable-prime test to one of two base sets chosen by
  size: 2, 7 and 61 below 4 759 123 141, which no odd composite in that
  range passes, and 2, 13, 23 and 1 662 803 from there on, which no odd
  composite below 1 122 004 669 633 passes (Jaeschke, "On strong
  pseudoprimes to several bases", Math. Comp. 61, 1993), so it is exact
  up to MAX_CLASSIFY_INPUT.  A prime costs three or four modular powers;
  most odd composites fail at base 2.  Both routes keep no state.

Every function here is pure.  Prime counting (prime_count_formula) lives
in core, beside the tables it reads; the primes that core's counting
routes and per-number scans draw on are core's constant table of every
prime up to TABLE_CAP = 31 622.
"""

from dataclasses import dataclass
from math import gcd, isqrt, prod

from .intmath import MAX_CLASSIFY_INPUT, _wheel_limit, bounded

# The semiprimes below 8, where the indicator formulas do not apply; every
# other integer in 2..7 is prime.  t and classify below 8 and the nth
# lookup for n = 1 and 2 read this one tuple.  Counting below 8 takes the
# prefix count's sums, and the successor walk from 5 the same test as
# from 8 on, with t answering 5, 6 and 7.
_SMALL_SEMIPRIMES = (4, 6)

#: Largest argument t settles by the paper's wheel scan, at most 167 pairs
#: of trial divisions; above it t uses the strong-probable-prime test.
WHEEL_TOP = isqrt(MAX_CLASSIFY_INPUT)

#: Bases of that test, by the size of x (Jaeschke 1993).  Below
#: _BASE_SWITCH = 4 759 123 141, the least odd composite that passes all of
#: 2, 7 and 61, those three decide every x; from it on, 2, 13, 23 and
#: 1 662 803, which together pass no odd composite below 1 122 004 669 633,
#: above MAX_CLASSIFY_INPUT.  Each set's bases lie below every x it tests
#: (WHEEL_TOP and _BASE_SWITCH), so none is a multiple of x, which a prime x
#: would fail.
_BASE_SWITCH = 4_759_123_141
_STRONG_BASES_LOW = (2, 7, 61)
_STRONG_BASES_HIGH = (2, 13, 23, 1_662_803)

#: Product of the primes 5..97.  Above WHEEL_TOP > 97, an x sharing a
#: factor with it is composite, so t answers 0 before the strong test.  Of
#: the integers prime to 6 it rejects about 64 %; near 10^12, on one core
#: of a 2-core x86-64 host (CPython 3.11), each for one gcd of about
#: 0.4 us where the strong test takes about 7 us on a composite (one
#: modular power) and about 30 us on a prime (four).
_SIFT = prod((5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97))


def t0(x: int) -> int:
    """1 if x is divisible by neither 2 nor 3, else 0 (x >= 1)."""
    x = bounded(x, "t0", "x", 1, MAX_CLASSIFY_INPUT)
    return 1 if x % 2 and x % 3 else 0


def t1(x: int) -> int:
    """1 if no divisor 6k-1, k = 1 .. wheel_limit(x), divides x (x >= 8).

    Equals the floor of the mean of the per-divisor indicators; since each
    is 0 or 1, that is the all-ones test, so the scan may stop at the first
    divisor found.
    """
    x = bounded(x, "t1", "x", 8, MAX_CLASSIFY_INPUT)
    for d in range(5, 6 * _wheel_limit(x) + 1, 6):
        if x % d == 0:
            return 0
    return 1


def t2(x: int) -> int:
    """1 if no divisor 6k+1, k = 1 .. wheel_limit(x), divides x (x >= 8)."""
    x = bounded(x, "t2", "x", 8, MAX_CLASSIFY_INPUT)
    for d in range(7, 6 * _wheel_limit(x) + 3, 6):
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


def _t_strong(x):
    # t for odd x, WHEEL_TOP < x <= MAX_CLASSIFY_INPUT.  With x - 1 = d * 2^s,
    # d odd, a prime x has, for every base a, a^d = 1 or a^(d * 2^i) = -1
    # (mod x) for some i < s.
    d = x - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _STRONG_BASES_LOW if x < _BASE_SWITCH else _STRONG_BASES_HIGH:
        y = pow(a, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return 0
    return 1


def _t(x):
    # t without the argument check (1 <= x <= MAX_CLASSIFY_INPUT): t0 for
    # every x >= 8, then the wheel scan or, above WHEEL_TOP, the sift and
    # the strong test
    if x < 8:
        return int(x > 1 and x not in _SMALL_SEMIPRIMES)
    if x % 2 == 0 or x % 3 == 0:
        return 0
    if x > WHEEL_TOP:
        return 0 if gcd(x, _SIFT) != 1 else _t_strong(x)
    for d in range(5, 6 * _wheel_limit(x) + 1, 6):
        if x % d == 0 or x % (d + 2) == 0:
            return 0
    return 1


def t(x: int) -> int:
    """Primality indicator: 1 exactly when x is prime (1 <= x <= 10^12).

    For 8 <= x <= WHEEL_TOP (10^6) this is floor((t0 + t1 + t2) / 3), the
    conjunction of the three wheel indicators, evaluated as one early-exit
    divisor scan.  Above 10^6 an x that 2 or 3 divides still gets t0's 0;
    any other x is first sifted by the primes 5..97, whose one gcd with x
    proves it composite when it is not 1, since x > 97.  An x the sift
    leaves gets the same value from a strong-probable-prime test to the
    bases 2, 7 and 61 below 4 759 123 141 and to 2, 13, 23 and 1 662 803
    from there on, each set exact over its range (Jaeschke 1993).  Neither
    keeps state.  For 1 <= x <= 7 the value is read off _SMALL_SEMIPRIMES,
    so t is a correct primality indicator at every argument it can receive
    (the semiprime test applies t to quotients as small as 4).
    """
    return _t(bounded(x, "t", "x", 1, MAX_CLASSIFY_INPUT))


def build_prime_table(limit: int) -> PrimeTable:
    """All primes <= limit (2 <= limit <= WHEEL_TOP), found by the t indicator.

    Every integer 2 .. limit is tested with t's wheel scan, so the table is
    generated from the paper's indicator alone and touches no mutable state;
    the limit stops where that scan does, at WHEEL_TOP (10^6).  No indicator
    needs a prime above core.TABLE_CAP (31622); for a fast sieve of any size
    use oracle.sieve.
    """
    limit = bounded(limit, "build_prime_table", "limit", 2, WHEEL_TOP)
    return PrimeTable(limit, tuple(x for x in range(2, limit + 1) if _t(x)))
