"""Semiprimality indicators, the (T, K1, K2) classification, and counting.

The working principle: a number with three or more prime factors must have a
prime factor not exceeding its cube root.  So for x >= 8,

  k1(x) = 1  iff no prime p <= icbrt(x) divides x        (x is prime or
              a semiprime whose factors both exceed the cube root),
  k2(x) = 1  iff some prime p <= icbrt(x) divides x with x/p prime
              (x is a semiprime with a small factor),

and combining them with the primality indicator t gives
k1(x) + k2(x) - t(x) = 1 exactly for semiprimes.

Per number, one scan (_least_small_factor) finds the least prime
p <= c = icbrt(x) dividing x, with c given by its caller: k1, k2 and
_triple_bits compute it per x, and the successor walk in sequences once
per cube piece [c^3, (c+1)^3).  The scan takes one gcd of x with the
product of each block of the cube-root primes (_BLOCKS, a first block of
8 primes, then blocks of 128) that starts at or below c, and looks at the
primes one by one only in the first block whose gcd is not 1.  With
none, k1 = 1 and k2 = 0.  With one, k1 = t = 0 and k2 = t(x/p): since
x/p >= x^(2/3) >= 4, x is a semiprime exactly when x/p is prime, and a
composite x/p means three or more prime factors.

Counting sums that identity over [lo, hi], and since the sum is linear it
takes one of two routes, one engine each:

- the window pass sieves the integers themselves, one bytearray piece at a
  time, and its final marks give sum(k1), sum(k2) and sum(t) together.
  count_range takes it for a window with hi - lo below about 2 * hi^(3/4),
  and nth_semiprime reads the semiprime flags of the blocks it walks off
  the same marks;
- the prefix count (semiprime_count, and count_range over a wider range as
  the difference of two of them) groups each semiprime p*q by its smaller
  prime p, so that sum(k2) and sum(k1 - t) become prime counts pi at n // p
  and at p^2 - 1 and p - 1.  Every pi(v) has one source, by the size of
  v: up to TABLE_CAP, one subscript of _SMALL_PI, a constant count per odd
  integer; up to _PI_CAP = 2 * 10^6, a read of one module-level pi table,
  one bit per odd integer, set for a prime, and a running prime count per
  group of eight bits, which grows on demand from an odd-only segmented
  sieve and never past _PI_CAP, about 0.63 MB; and above that, Meissel's
  formula, whose phi and prime counts are reads of the same two tables at
  or below v^(2/3).  Only pi(n // p) can lie above the table, for the p
  below n / _PI_CAP, so below 2 * (_PI_CAP + 1) a prefix count is reads
  alone.

The two engines share no step beyond the prime table, and the tests hold
each part of one to the other and to the per-number scans.  Both and the
per-number scans draw their primes from _PRIMES, every prime up to
TABLE_CAP = 31 622, which one odd-only sieve pass builds at import, with
_SMALL_PI from the same flags; the pi table is the only table that grows.
The public functions check their arguments once; the scans under them
(_triple_bits, _count_range, _prefix_count, and the _t and _icbrt they
call) take them unchecked.
"""

import enum
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from math import gcd, isqrt, prod
from typing import NamedTuple, Optional

from .intmath import MAX_CLASSIFY_INPUT, MAX_COUNT_INPUT, RangeLimitError, _icbrt, bounded
from .primality import _SMALL_SEMIPRIMES, _t


#: Width of every window piece, and the bytes of every odd-only sieve
#: segment (2 * SEGMENT integers).  No bytearray a count allocates is
#: longer, whatever the range, which bounds its memory.
SEGMENT = 1 << 17

_ONES = memoryview(b"\x01" * SEGMENT)


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


def _least_small_factor(x, c):
    # the least prime p <= c = icbrt(x) dividing x, or 0 if there is none:
    # one gcd with the product of each _BLOCKS block that starts at or below
    # c, and a prime-by-prime scan, stopped at c, only of a block whose gcd
    # is not 1.  Every block before it shares no prime with x, so the first
    # prime of that block that divides x is the least small factor.  The
    # caller supplies c, so that a walk computes it once per cube piece.
    for first, primes, product in _BLOCKS:
        if first > c:
            return 0
        if gcd(x, product) != 1:
            for p in primes:
                if p > c:
                    return 0
                if x % p == 0:
                    return p
    return 0


def k1(x: int) -> int:
    """1 if no prime p <= icbrt(x) divides x, else 0 (x >= 8).

    The scan takes one gcd per block of the cube-root primes and stops at
    the least small factor; literal.k1_literal keeps the paper's floor of
    the mean of the per-prime nondivisibility indicators.
    """
    x = bounded(x, "k1", "x", 8, MAX_CLASSIFY_INPUT)
    return 0 if _least_small_factor(x, _icbrt(x)) else 1


def k2(x: int) -> int:
    """1 if some prime p <= icbrt(x) divides x with x/p prime, else 0 (x >= 8).

    Only the least small factor p can pass (see the module docstring), so
    the block-gcd scan stops there and t is consulted once, at x/p;
    literal.k2_literal keeps the paper's ceiling of the mean of the
    per-prime terms.
    """
    x = bounded(x, "k2", "x", 8, MAX_CLASSIFY_INPUT)
    p = _least_small_factor(x, _icbrt(x))
    return _t(x // p) if p else 0


def _triple_bits(x: int) -> IndicatorTriple:
    # (t, k1, k2) from one scan.  A small factor p <= icbrt(x) < x settles
    # t(x) = k1(x) = 0 and leaves k2(x) = t(x/p); without one, k1(x) = 1,
    # k2(x) = 0 and t is decided on x itself.
    p = _least_small_factor(x, _icbrt(x))
    if p:
        return IndicatorTriple(0, 0, _t(x // p))
    return IndicatorTriple(_t(x), 1, 0)


def semiprime_indicator(x: int) -> int:
    """1 exactly when x is a semiprime, else 0, for x >= 8.

    Computed as k1(x) + k2(x) - t(x).  Callers needing 4 <= x <= 7 should use
    classify, which handles the small domain by lookup.
    """
    x = bounded(x, "semiprime_indicator", "x", 8, MAX_CLASSIFY_INPUT)
    tb, k1b, k2b = _triple_bits(x)
    return k1b + k2b - tb


def classify(x: int) -> Classification:
    """Categorize x >= 2 as prime, semiprime, or >= 3 prime factors."""
    x = bounded(x, "classify", "x", 2, MAX_CLASSIFY_INPUT)
    if x < 8:
        small = Category.SEMIPRIME if x in _SMALL_SEMIPRIMES else Category.PRIME
        return Classification(small, None)
    trip = _triple_bits(x)
    return Classification(_TRIPLE_CATEGORY[trip], trip)


#: Window marks above their prime indices, at most pi(1000) = 168, so
#: that all fit a byte.  _REJECT: x has three or more prime factors.
_LARGE = 254
_REJECT = 255

#: _INDEX[i] is the bytes.translate table of the prime with index i: it maps
#: an unmarked byte (0) to i and every mark already set to _REJECT.
_INDEX = [bytes([i]) + bytes([_REJECT]) * 255 for i in range(_LARGE)]

#: Translates the final window marks to semiprime flags: a prime index or
#: _LARGE to 1, a prime (0) or _REJECT to 0.
_SEMIPRIME = bytes([0]) + bytes([1]) * _LARGE + bytes([0])


def _window_marks(lo: int, hi: int):
    # The final marks of count_range's window route, one bytearray per piece
    # of [lo, hi]: 0 for a prime, a prime index i for p_i * q with q prime,
    # _LARGE for a product of two primes above c, _REJECT for three or more
    # prime factors.  An x marked with its one prime p <= c has x/p composite
    # exactly when some prime r > c divides it with r^2 * p <= x.  An
    # unmarked x that some r > c divides is composite (r <= isqrt(b) < c^3
    # <= x), so a product of two primes above c: _LARGE.  A prime p <= c
    # with two or more multiples in the piece marks them all with one
    # strided translation by _INDEX[p's index], and p^2 rejects its
    # multiples with one strided store; with at most one, a single store.
    a = lo
    while a <= hi:
        c = _icbrt(a)
        b = min(hi, a + SEGMENT - 1, (c + 1) ** 3 - 1)
        size, na = b - a + 1, -a
        primes = _primes(isqrt(b))
        cut = bisect_right(primes, c)
        marks = bytearray(size)
        for i, p in enumerate(primes[:cut], 1):
            s = na % p
            if s + p < size:
                marks[s::p] = marks[s::p].translate(_INDEX[i])
            elif s < size:
                marks[s] = _REJECT if marks[s] else i
            p2 = p * p
            s = na % p2
            if s + p2 < size:
                marks[s::p2] = bytes([_REJECT]) * ((size - 1 - s) // p2 + 1)
            elif s < size:
                marks[s] = _REJECT
        for r, s in [(r, s) for r in primes[cut:] if (s := na % r) < size]:
            r2 = r * r
            while s < size:
                i = marks[s]
                if not i:
                    marks[s] = _LARGE
                elif i < _LARGE and r2 * primes[i - 1] <= a + s:
                    marks[s] = _REJECT
                s += r
        yield marks
        a = b + 1


def _window_parts(lo: int, hi: int) -> tuple:
    # (sum of k1, sum of k2, sum of t) over [lo, hi] from the window marks:
    # the large-prime phase only turns 0 into _LARGE, so k1 = t + _LARGE
    k1_sum = k2_sum = t_sum = 0
    for marks in _window_marks(lo, hi):
        t = marks.count(0)
        k1 = t + marks.count(_LARGE)
        k1_sum += k1
        k2_sum += len(marks) - k1 - marks.count(_REJECT)
        t_sum += t
    return k1_sum, k2_sum, t_sum


def _semiprime_flags(lo: int, hi: int) -> bytes:
    # one byte per x in [lo, hi] (8 <= lo): 1 for a semiprime, else 0
    return b"".join(marks.translate(_SEMIPRIME) for marks in _window_marks(lo, hi))


def _count_range(lo: int, hi: int) -> int:
    # count_range without the argument checks; see there for the width rule
    if hi - lo < 2 * isqrt(hi) * isqrt(isqrt(hi)):
        k1_sum, k2_sum, t_sum = _window_parts(lo, hi)
        return k1_sum + k2_sum - t_sum
    return _prefix_count(hi) - _prefix_count(lo - 1)


def _odd_segment(a: int, size: int) -> bytearray:
    # The flags of the odd integers a, a + 2, ..., a + 2 * (size - 1), for
    # odd a: 1 for 1 and for every composite, 0 for a prime.  Each odd prime
    # p up to the square root of the last marks its odd multiples from p*p
    # with one strided slice: a + 2s = p*p, or, past p*p, the least odd
    # multiple a + 2s >= a, where 2s = -a (mod p).
    flags = bytearray(size)
    if a == 1:
        flags[0] = 1
    for p in _primes(isqrt(a + 2 * size - 2))[1:]:
        p2 = p * p
        s = (p2 - a) >> 1 if p2 >= a else -((a + p) >> 1) % p
        flags[s::p] = _ONES[: (size - 1 - s) // p + 1]
    return flags


#: Largest prime any route asks for: the sieving primes of a count up to
#: MAX_COUNT_INPUT and the cube-root primes of a classification up to
#: MAX_CLASSIFY_INPUT.
TABLE_CAP = max(isqrt(MAX_COUNT_INPUT), _icbrt(MAX_CLASSIFY_INPUT))


def _primes(limit):
    # every prime <= limit, ascending, for limit <= TABLE_CAP
    if limit > TABLE_CAP:
        raise RangeLimitError(f"the prime table stops at {TABLE_CAP}, asked for {limit}")
    return _PRIMES[: bisect_right(_PRIMES, limit)]


# Every prime <= TABLE_CAP, ascending, fixed at import: first the sieving
# primes up to isqrt(TABLE_CAP) = 177 by _t, then every prime from one
# _odd_segment pass that reads them through _primes, its flags flipped to
# 1 for each odd prime.  Nothing rebinds it.
_PRIMES = tuple(p for p in range(2, isqrt(TABLE_CAP) + 1) if _t(p))
_odd_primes = _odd_segment(1, (TABLE_CAP + 1) // 2).translate(bytes([1, 0]) + bytes(254))
_PRIMES = (2,) + tuple(compress(range(1, TABLE_CAP + 1, 2), _odd_primes))

#: pi(v) = _SMALL_PI[(v + 1) >> 1] for 2 <= v <= TABLE_CAP: entry k counts
#: the prime 2 and the odd primes up to 2k - 1, a running sum over the same
#: flags.  A constant of about 32 kB, where most of the prefix count's pi
#: reads fall, each one subscript.
_SMALL_PI = array("H", accumulate(_odd_primes, initial=1))
del _odd_primes

#: How many primes p have their edge p^2 - 1 in _SMALL_PI: those up to 173.
_SMALL_EDGES = bisect_right(_PRIMES, isqrt(TABLE_CAP + 1))

#: The cube-root primes, every prime <= icbrt(MAX_CLASSIFY_INPUT), cut into
#: the blocks _least_small_factor takes one gcd per: a first block of the
#: _FIRST_BLOCK primes up to 19, which settles most composites, then blocks
#: of _BLOCK primes, the last one shorter.  Each block is (its first prime,
#: its primes, their product), the products about 2 kB in all.  Near 10^12,
#: on one core of a 2-core x86-64 host (CPython 3.11), a scan through every
#: cube-root prime costs about 11 us in these blocks, against 14 us in
#: blocks of 64 and 49 us prime by prime; wider blocks gain little on a
#: prime and lose on every integer whose gcd hits.
_FIRST_BLOCK, _BLOCK = 8, 128
_CUBE_ROOT_PRIMES = _primes(_icbrt(MAX_CLASSIFY_INPUT))
_BLOCKS = tuple(
    (block[0], block, prod(block))
    for block in [_CUBE_ROOT_PRIMES[:_FIRST_BLOCK]]
    + [_CUBE_ROOT_PRIMES[i : i + _BLOCK] for i in range(_FIRST_BLOCK, len(_CUBE_ROOT_PRIMES), _BLOCK)]
)


#: _BELOW[b << 3 | r] is the number of set bits among the r low bits of the
#: byte b, and _POPCOUNT[b] the number of set bits in b.
_BELOW = bytes((b & (1 << r) - 1).bit_count() for b in range(256) for r in range(8))
_POPCOUNT = bytes(b.bit_count() for b in range(256))


class _PiTable(NamedTuple):
    # pi(v) for 2 <= v <= limit = 2 * size, with size odd integers 1, 3,
    # ..., limit - 1.  Bit r of bits[g] is set when the odd integer
    # 16g + 2r + 1 is prime, and counts[g] is the number of primes below
    # 16g + 1, 2 counted.  bits has size // 8 + 1 bytes, so that a read at
    # k = size finds a real byte, and its bits past size are 0.
    limit: int
    bits: bytes
    counts: array

    def pi(self, points):
        # pi(v) for each v of points: of the k = (v + 1) // 2 odd integers
        # up to v, the first 8 * (k >> 3) are counted in counts[k >> 3] and
        # the k & 7 others are the low bits of bits[k >> 3]
        bits, counts = self.bits, self.counts
        return [
            counts[k >> 3] + _BELOW[bits[k >> 3] << 3 | k & 7] for v in points for k in [(v + 1) >> 1]
        ]


#: The pi table's largest limit: 125 kB of bits and 0.5 MB of group
#: counts.  Meissel's formula at x reads pi at or below x^(2/3), at most
#: 10^6 for x <= MAX_COUNT_INPUT, so every read it makes lies inside.
_PI_CAP = 2 * 10**6

# The one table every pi(v) with TABLE_CAP < v <= _PI_CAP is read off.  It
# only ever grows, from its previous limit, and each growth binds a new,
# complete _PiTable, so a reader in any thread holds either the old table
# or the new one, never a partial one.  Two threads growing it at once each
# get a complete table; the later binding wins.
_pi_table = _PiTable(0, bytes(1), array("I", [1]))


def _pi_to(top: int) -> _PiTable:
    # The pi table, grown if need be to answer every v <= min(top, _PI_CAP).
    # A growth sieves the odd integers from the old limit + 1 to
    # max(top, twice the old limit), capped at _PI_CAP as read now,
    # one _odd_segment of at most SEGMENT bytes at a time: no integer is
    # sieved twice, and rising queries grow the table only a logarithmic
    # number of times.  Each segment is packed as it is sieved, from eight
    # strided lanes of bytes, into one integer whose bit j is set when the
    # odd integer 2 * (old + j) + 1 is not prime.  Flipped to a set bit per
    # prime, shifted past the old last group's valid bits and joined with
    # them, it gives that group and every new one.  The packing integers
    # are freed before the group counts are built, which keeps a growth to
    # the cap under 0.8 MB traced.
    global _pi_table
    table = _pi_table
    if min(top, _PI_CAP) > table.limit:
        old, size = table.limit // 2, (min(max(top, 2 * table.limit), _PI_CAP) + 1) // 2
        composite = sum(
            sum(int.from_bytes(flags[r::8], "little") << r for r in range(8)) << (j - old)
            for j in range(old, size, SEGMENT)
            for flags in [_odd_segment(2 * j + 1, min(SEGMENT, size - j))]
        )
        g = old >> 3
        primes = composite ^ ((1 << (size - old)) - 1)
        tail = (primes << (old & 7) | table.bits[g]).to_bytes(size // 8 + 1 - g, "little")
        del composite, primes
        counts = table.counts[:g]
        counts.extend(accumulate(tail[:-1].translate(_POPCOUNT), initial=table.counts[g]))
        _pi_table = table = _PiTable(2 * size, table.bits[:g] + tail, counts)
    return table


#: _PHI6[v] is phi(v, 6), the integers in [1, v] that none of 2, 3, 5, 7,
#: 11 and 13 divides, for v < 30030, their product.  The pattern repeats
#: with that period, 5760 integers in each, so phi(x, 6) is
#: x // 30030 * 5760 + _PHI6[x % 30030]: about 60 kB, built at import.
_coprime = bytearray(b"\x01") * 30030
for _p in _PRIMES[:6]:
    _coprime[::_p] = bytes(30030 // _p)
_PHI6 = array("H", accumulate(_coprime))
del _coprime, _p


def _phi(x, k):
    # Legendre's phi(x, k), the integers in [1, x] that none of the first k
    # primes divides, for x >= 1 (x >= 0 when k < 6).  Its recurrence
    # phi(x, k) = phi(x, k - 1) - phi(x // p_k, k - 1), unrolled down to
    # k = 6, which the period of _PHI6 answers in one read; below 6, which
    # only x < 13^3 asks for, it runs down to phi(x, 0) = x.  When
    # p_(k+1)^2 > x, the integers left are 1 and the primes in (p_k, x].
    if k < 6:
        return _phi(x, k - 1) - _phi(x // _PRIMES[k - 1], k - 1) if k else x
    if _PRIMES[k] ** 2 > x:
        return 1 + max(_pi(x) - k, 0)
    return x // 30030 * 5760 + _PHI6[x % 30030] - sum(_phi(x // p, i) for i, p in enumerate(_PRIMES[6:k], 6))


def _meissel(x):
    # pi(x) for 8 <= x <= MAX_COUNT_INPUT by Meissel's formula (Lehmer,
    # Illinois J. Math. 3, 1959), with a = pi(icbrt(x)) and b = pi(isqrt(x)):
    #   pi(x) = phi(x, a) + a - 1 - sum over a < i <= b of (pi(x // p_i) - i + 1)
    # The integers in [1, x] that no prime up to icbrt(x) divides are 1, the
    # primes above it, and the products p_i * q of two primes with
    # a < i <= b and p_i <= q, pi(x // p_i) - i + 1 for each i.  Every pi
    # it reads, at x // p_i with p_i > x^(1/3) or at a leaf of phi below
    # p_a^2, lies below x^(2/3).
    a, b = _SMALL_PI[(_icbrt(x) + 1) >> 1], _SMALL_PI[(isqrt(x) + 1) >> 1]
    return _phi(x, a) + a - 1 + (b - a) * (a + b - 1) // 2 - sum(_pi(x // p) for p in _PRIMES[a:b])


def _pi(v):
    # pi(v) for 2 <= v <= MAX_COUNT_INPUT: one subscript of _SMALL_PI up to
    # TABLE_CAP, a read of the pi table up to _PI_CAP, and Meissel's
    # formula above, whose reads are this function's at smaller v
    if v <= TABLE_CAP:
        return _SMALL_PI[(v + 1) >> 1]
    if v <= _PI_CAP:
        return _pi_to(v).pi((v,))[0]
    return _meissel(v)


def prime_count_formula(x: int) -> int:
    """Number of primes <= x, for 8 <= x <= MAX_COUNT_INPUT.

    The pi semiprime_count reads: one subscript of a constant table up to
    31 622, a read of the pi table up to 2 * 10^6, and above that Meissel's
    formula, whose phi and prime counts are read off the same two tables;
    10^9 takes about 0.05 to 0.1 s.  The paper's sum of t over the
    6j+5 / 6j+7 grids is literal.prime_count_literal, the slow reference
    the tests hold this to.
    """
    return _pi(bounded(x, "prime_count_formula", "x", 8, MAX_COUNT_INPUT))


def _prefix_parts(n):
    # (sum of k2, sum of k1 - t) over [1, n] for n >= 7, each semiprime p*q
    # (p <= q) grouped by p, every part a prime count pi:
    #   sum k2       = sum over p <= c of pi(n/p) - pi(p^2 - 1)        (q >= p^2)
    #   sum k1 - t   = sum over p <= r of pi(min(n/p, p^2 - 1)) - pi(p - 1)
    # with c = icbrt(n) and r = isqrt(n); the second holds 4 and 6.  For
    # p <= c, p^2 - 1 < n/p, and for p > c, n/p < p^2, so the mins split
    # at c; pi(p - 1) is p's index in the prime table.  n // p falls as p
    # rises, so the primes split twice: the p above n // (TABLE_CAP + 1)
    # read pi(n // p) off _SMALL_PI, those from n // (_PI_CAP + 1) to it
    # off the pi table in one batch, and the rest, none below
    # 2 * (_PI_CAP + 1), by Meissel's formula.  The edges p^2 - 1 of the p
    # up to 173 are read off _SMALL_PI, and the rest, n from 179^3 on, off
    # the pi table.
    primes, c = _primes(isqrt(n)), _icbrt(n)
    c_count = bisect_right(primes, c)
    far = bisect_right(primes, n // (_PI_CAP + 1))
    head = bisect_right(primes, n // (TABLE_CAP + 1))
    near = min(c_count, _SMALL_EDGES)
    pi_quotients = [_meissel(n // p) for p in primes[:far]]
    if far < head:
        pi_quotients += _pi_to(n // 2).pi([n // p for p in primes[far:head]])
    pi_quotients += [_SMALL_PI[(n // p + 1) >> 1] for p in primes[head:]]
    pi_edges = [_SMALL_PI[p * p >> 1] for p in primes[:near]]  # (p^2 - 1 + 1) >> 1
    pi_edges += [_pi(p * p - 1) for p in primes[near:c_count]]
    edge_sum = sum(pi_edges)
    k2_sum = sum(pi_quotients[:c_count]) - edge_sum
    k1_t_sum = edge_sum + sum(pi_quotients[c_count:]) - len(primes) * (len(primes) - 1) // 2
    return k2_sum, k1_t_sum


def _prefix_count(n):
    # the number of semiprimes <= n, for n >= 7: about 2 * pi(sqrt(n))
    # reads, every one a subscript of _SMALL_PI below 2 * (TABLE_CAP + 1),
    # and from 2 * (_PI_CAP + 1) on Meissel's formula for each p with
    # n // p above _PI_CAP
    k2_sum, k1_t_sum = _prefix_parts(n)
    return k2_sum + k1_t_sum


def count_range(lo: int, hi: int) -> int:
    """Sum of semiprime_indicator over lo..hi inclusive (8 <= lo <= hi).

    The sum is linear, so it is computed as sum(k1) + sum(k2) - sum(t) by
    one of two routes, chosen by the width alone:

    - a window with hi - lo < 2 * isqrt(hi) * isqrt(isqrt(hi)), about
      2 * hi^(3/4), is sieved itself, in one pass per piece of at most
      SEGMENT integers, the pieces also split at consecutive cubes so that
      icbrt is a constant c within each.  Each x is marked with its one
      prime p <= c, or rejected when two such primes or p*p divide it; the
      unmarked x are sum(k1).  A p with two or more multiples in the piece
      marks them with one strided bytes.translate, not one store per
      multiple, and p*p rejects its multiples with one strided store.  Each
      prime r in (c, isqrt(hi)] then rejects the marked x it divides with
      r*r*p <= x (x/p is composite) and marks every unmarked x it divides
      (a semiprime); what is left unmarked is sum(t), and marked p, sum(k2);
    - a wider range is the difference of two prefix counts,
      semiprime_count(hi) - semiprime_count(lo - 1), whose cost grows
      with hi rather than with the width.  The cut, one rule for every hi,
      was fitted where each prefix count took O(hi^(3/4)) steps; the
      prefix counts now cost far less, so it keeps the window pass at
      widths the prefix difference answers faster.  Re-fitting it waits
      for a benchmark workload that times wide ranges.  The cut is taken
      from integer square roots, so no intermediate value leaves 64 bits.

    The window pass keeps memory bounded by SEGMENT bytes at any width, and
    the prefix count by the constant _SMALL_PI of 32 kB and the pi table of
    at most about 0.63 MB (a growth to it holds under 0.8 MB); the primes
    come from the constant table of the primes up to TABLE_CAP that the
    per-number indicators use.
    Consecutive ranges compose exactly: splitting [8, N] anywhere and adding
    the pieces always reproduces semiprime_count(N) - 2.
    """
    lo = bounded(lo, "count_range", "lo", 8)
    return _count_range(lo, bounded(hi, "count_range", "hi", lo, MAX_COUNT_INPUT))


def semiprime_count(n: int) -> int:
    """Number of semiprimes <= n, for n >= 1.

    For n >= 8 this is the paper's sum(k2) + sum(k1 - t) over [1, n], with
    each semiprime p*q grouped by its smaller prime p so that every part is
    a prime count pi at n // p or at some value <= n^(2/3).  Every pi at
    or below 31 622 is one subscript of a constant table built at import,
    and every other one up to 2 * 10^6 a read of one pi table, an odd-only
    segmented sieve's primes kept as one bit per odd integer with a
    running count per eight bits, which grows on the first query that
    needs it.  Below 4 * 10^6 that is every pi, and a count with the table
    grown costs about 2 * pi(sqrt(n)) reads (0.03 to 0.04 ms at 10^6).
    From there on, the pi(n // p) above 2 * 10^6, those of the p below
    n / (2 * 10^6), come from Meissel's formula over the same two tables,
    so the cost grows well below n: 10^7 takes about 1 to 2 ms, 10^8
    16 to 30 ms and 10^9 0.15 to 0.31 s, in about 1 MB.  The window pass
    under count_range, which sees every integer, is the independent route
    the tests compare it with.  Below 8 the count is read off the
    semiprimes 4 and 6.
    """
    n = bounded(n, "semiprime_count", "n", 1, MAX_COUNT_INPUT)
    if n < 8:
        return bisect_right(_SMALL_SEMIPRIMES, n)
    return _prefix_count(n)
