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
  time.  Each x ends with one of four marks, one per cell of the triple: a
  prime, p * q with p <= c < q, two primes above c, or three or more prime
  factors.  One marking step sets them for every modulus, the squares of
  the primes up to c, those primes, and the primes above c up to the
  piece's square root, each with its own translate table; the tables
  commute, so the order of the moduli does not matter.  The marks' counts
  give sum(k1), sum(k2) and sum(t) together.  count_range takes it for a
  window with hi - lo below about 2 * hi^(3/4), and nth_semiprime reads
  the semiprime flags of the blocks it walks off the same marks;
- the prefix count (semiprime_count, and count_range over a wider range as
  the difference of two of them) groups each semiprime p*q by its smaller
  prime p, so that sum(k2) and sum(k1 - t) become prime counts pi at n // p
  and at p^2 - 1 and p - 1.  Every pi(v) has one source, by the size of
  v, and above TABLE_CAP one function, _pi, picks it: up to TABLE_CAP, one
  subscript of _SMALL_PI, a constant count per integer, indexed by v; up to
  _PI_CAP = 2 * 10^6, a read of one module-level pi table, one bit per odd
  integer, set for a prime, and a running prime count per group of eight
  bits, which grows on demand from an odd-only segmented sieve in whole
  groups, to the larger of the read that asks and twice its old limit,
  rounded up to a group, never past _PI_CAP, about 0.63 MB; and above
  that, Meissel's formula, whose phi and prime counts are reads of the
  same two tables at or below v^(2/3).  _pi itself reads the table, one
  group count and one masked byte; only a v past its limit goes through
  the growth first.  Only pi(n // p) can lie above the table, for the p
  below n / _PI_CAP, so below 2 * (_PI_CAP + 1) a prefix count is reads
  alone, and the edges p^2 - 1 of the p up to 173 are one constant sum,
  _EDGE_SUMS.

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


#: The four window marks, one per cell of the triple.  0: no prime
#: p <= c divides x (t, or k1 with t).  _SMALL: exactly one prime p <= c
#: divides x, and p^2 does not (k2).  _LARGE: x is a product of two primes
#: above c (k1 without t).  _REJECT: three or more prime factors.
_SMALL, _LARGE, _REJECT = 1, 2, 3

#: The bytes.translate tables of the marking step, one per kind of
#: modulus, each mapping the four marks into themselves.  _REJECTED, for a
#: prime square p^2 with p <= c: every mark to _REJECT.  _MARK, for a
#: prime p <= c: 0 to _SMALL, every other mark to _REJECT.  _HIT, for a
#: prime r in (c, isqrt(b)]: 0 to _LARGE, _SMALL to _REJECT, and _LARGE
#: and _REJECT to themselves.  Any two of them commute on the four marks,
#: so the marks of a piece do not depend on the order its moduli mark it in.
_REJECTED = bytes([_REJECT]) * 256
_MARK = bytes([_SMALL]) + bytes([_REJECT]) * 255
_HIT = bytes([_LARGE, _REJECT, _LARGE, _REJECT]) + bytes([_REJECT]) * 252

#: Translates the final window marks to semiprime flags: _SMALL and _LARGE
#: to 1, a prime (0) and _REJECT to 0.
_SEMIPRIME = bytes([0, 1, 1, 0]) + bytes(252)


def _window_marks(lo: int, hi: int):
    # The final marks of count_range's window route, one per piece of
    # [lo, hi]: 0 for a prime, _SMALL for p * q with p <= c < q prime,
    # _LARGE for a product of two primes above c, _REJECT for three or more
    # prime factors.  The pieces are cut at SEGMENT and at the cubes q^3 of
    # the primes q, so that the primes up to icbrt(x) are one set in each:
    # a piece starting at a, with c = icbrt(a), ends before the cube of the
    # next prime above c.  The pieces below 125 = 5^3 read _FIRST_PIECE.
    a = lo
    while a <= hi:
        c = _icbrt(a)
        b = min(hi, a + SEGMENT - 1, _PRIMES[_SMALL_PI[c]] ** 3 - 1)
        yield _FIRST_PIECE[a - 8 : b - 7] if c < 5 else _piece_marks(a, b, c)
        a = b + 1


def _piece_marks(a: int, b: int, c: int) -> bytearray:
    # The marks of one piece [a, b] inside [P^3, q^3), for consecutive
    # primes 5 <= P < q, so that the primes up to icbrt(x) are those up to
    # c = icbrt(a) throughout, from one marking step over three kinds of
    # modulus: the squares p^2 of the primes p <= c with _REJECTED, the
    # primes p <= c with _MARK, and the primes r in (c, isqrt(b)] with
    # _HIT.  A modulus up to the size reads its table for all its multiples
    # with one strided translation; one above it has at most one multiple,
    # which one filter comprehension per kind finds, and that multiple is
    # one table read.  _HIT rests on this fact: p * r <= P * isqrt(q^3 - 1)
    # < P^3 <= x for every prime P from 5 to 997, so an x marked _SMALL by
    # p has x/p = r * (x / (p * r)) composite, and is rejected; an unmarked
    # x has no prime factor up to c and r <= isqrt(b) < x, so it is a
    # product of two primes above c, _LARGE.  The fact fails only below
    # 125, at P = 2 and 3, where 10 = 2 * 5 and 33 = 3 * 11 lie inside
    # their own pieces: _FIRST_PIECE.
    size, na = b - a + 1, -a
    end = bisect_right(_PRIMES, isqrt(b))
    cut = bisect_right(_PRIMES, c, 0, end)
    marks = bytearray(size)
    for moduli, first, last, table in (
        (_SQUARES, 0, cut, _REJECTED),
        (_PRIMES, 0, cut, _MARK),
        (_PRIMES, cut, end, _HIT),
    ):
        mid = bisect_right(moduli, size, first, last)
        for m in moduli[first:mid]:
            s = na % m
            marks[s::m] = marks[s::m].translate(table)
        for s in [s for m in moduli[mid:last] if (s := na % m) < size]:
            marks[s] = table[marks[s]]
    return marks


def _window_parts(lo: int, hi: int) -> tuple:
    # (sum of k1, sum of k2, sum of t) over [lo, hi] from the window marks:
    # t counts the 0 marks, k1 the 0 and _LARGE marks, k2 the _SMALL marks
    k1_sum = k2_sum = t_sum = 0
    for marks in _window_marks(lo, hi):
        t = marks.count(0)
        k1_sum += t + marks.count(_LARGE)
        k2_sum += marks.count(_SMALL)
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


#: pi(v) = _SMALL_PI[v] for 0 <= v <= TABLE_CAP, the running sums over one
#: flag per integer (the odd primes' flags at the odd v, and 2), taken by
#: the array straight from accumulate.  A constant of about 63 kB, where
#: most of the prefix count's pi reads fall, each one subscript by value.
_is_prime = bytearray(TABLE_CAP + 1)
_is_prime[1::2] = _odd_primes
_is_prime[2] = 1
_SMALL_PI = array("H", accumulate(_is_prime))
del _odd_primes, _is_prime

#: How many primes p have their edge p^2 - 1 in _SMALL_PI, each read as
#: _SMALL_PI[p * p - 1]: those up to 173.
_SMALL_EDGES = bisect_right(_PRIMES, isqrt(TABLE_CAP + 1))

#: _EDGE_SUMS[i] is the sum of pi(p^2 - 1) over the first i primes, for
#: i <= _SMALL_EDGES, so that a prefix count reads the edges of its primes
#: up to 173 in one subscript.  pi(p^2 - 1) is _SMALL_PI[p * p - 1].
_EDGE_SUMS = tuple(
    accumulate((_SMALL_PI[p * p - 1] for p in _PRIMES[:_SMALL_EDGES]), initial=0)
)

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

#: The prime squares the window pass rejects with: p^2 for every prime
#: p <= icbrt(MAX_COUNT_INPUT), the 168 squares up to 997^2.
_SQUARES = tuple(p * p for p in _primes(_icbrt(MAX_COUNT_INPUT)))

#: The final window marks of [8, 124], the pieces [2^3, 3^3) and
#: [3^3, 5^3), from the triples: the two pieces where a prime p <= c and a
#: prime r in (c, isqrt(b)] have their product inside, 10 = 2 * 5 and
#: 33 = 3 * 11, semiprimes that a hit by r would reject.
_FIRST_PIECE = bytes(
    0 if t else _LARGE if k1_bit else _SMALL if k2_bit else _REJECT
    for t, k1_bit, k2_bit in map(_triple_bits, range(8, 125))
)


#: _POPCOUNT[b] is the number of set bits in the byte b.
_POPCOUNT = bytes(b.bit_count() for b in range(256))


class _PiTable(NamedTuple):
    # pi(v) for 2 <= v <= limit = 2 * size, with size odd integers 1, 3,
    # ..., limit - 1 in whole groups of eight, so that limit is a multiple
    # of 16.  Bit r of bits[g] is set when the odd integer 16g + 2r + 1 is
    # prime, and counts[g] is the number of primes below 16g + 1, 2
    # counted.  bits and counts each hold one spare entry past the size // 8
    # groups, a zero byte and the count pi(limit), for _pi's read at
    # v = limit.  Plain data: _pi reads it, and _pi_to binds a whole new one.
    limit: int
    bits: bytes
    counts: array


#: The pi table's largest limit, a whole number of groups: 125 kB of bits
#: and 0.5 MB of group counts.  Meissel's formula at x reads pi at or below
#: x^(2/3), at most 10^6 for x <= MAX_COUNT_INPUT, so every read it makes
#: lies inside.
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
    # max(top, twice the old limit), capped at _PI_CAP as read now and
    # rounded up to a whole group, one _odd_segment of at most SEGMENT
    # bytes at a time: no integer is sieved twice, and rising queries grow
    # the table only a logarithmic number of times.  Each segment is packed
    # as it is sieved, from eight strided lanes of bytes, into one integer
    # whose bit j is set when the odd integer 2 * (old + j) + 1 is not
    # prime; flipped to a set bit per prime, it gives the new groups' bytes.
    # They replace the old spare byte and count, and no old group changes.
    # The packing integers are freed before the group counts are built,
    # which keeps a growth to the cap under 0.8 MB traced.
    global _pi_table
    table = _pi_table
    if min(top, _PI_CAP) > table.limit:
        old, size = table.limit // 2, -(-min(max(top, 2 * table.limit), _PI_CAP) // 16) * 8
        composite = sum(
            sum(int.from_bytes(flags[r::8], "little") << r for r in range(8)) << (j - old)
            for j in range(old, size, SEGMENT)
            for flags in [_odd_segment(2 * j + 1, min(SEGMENT, size - j))]
        )
        tail = (composite ^ ((1 << (size - old)) - 1)).to_bytes((size - old) // 8 + 1, "little")
        del composite
        counts = table.counts[:-1]
        counts.extend(accumulate(tail[:-1].translate(_POPCOUNT), initial=table.counts[-1]))
        _pi_table = table = _PiTable(2 * size, table.bits[:-1] + tail, counts)
    return table


#: _PHI6[v] is phi(v, 6), the integers in [1, v] that none of 2, 3, 5, 7,
#: 11 and 13 divides, for v < 30030, their product.  The pattern repeats
#: with that period, 5760 integers in each, so phi(x, 6) is
#: x // 30030 * 5760 + _PHI6[x % 30030]: about 60 kB, the running sums of
#: one flag per integer, built at import like _SMALL_PI.
_coprime = bytearray(b"\x01") * 30030
for _p in _PRIMES[:6]:
    _coprime[::_p] = bytes(30030 // _p)
_PHI6 = array("H", accumulate(_coprime))
del _coprime, _p


def _phi(x, k):
    # Legendre's phi(x, k), the integers in [1, x] that none of the first k
    # primes divides, for x >= 1 and k >= 6: _meissel asks for k >= 11.
    # Its recurrence phi(x, k) = phi(x, k - 1) - phi(x // p_k, k - 1),
    # unrolled down to k = 6, which the period of _PHI6 answers in one
    # read, so no k below 6 is ever reached and there is no base case
    # there.  When p_(k+1)^2 > x, the integers left are 1 and the primes in
    # (p_k, x].
    if _PRIMES[k] ** 2 > x:
        return 1 + max(_pi(x) - k, 0)
    return x // 30030 * 5760 + _PHI6[x % 30030] - sum(_phi(x // p, i) for i, p in enumerate(_PRIMES[6:k], 6))


def _meissel(x):
    # pi(x) for TABLE_CAP < x <= MAX_COUNT_INPUT, the v _pi sends here, by
    # Meissel's formula (Lehmer, Illinois J. Math. 3, 1959), with
    # a = pi(icbrt(x)) >= pi(31) = 11 and b = pi(isqrt(x)):
    #   pi(x) = phi(x, a) + a - 1 - sum over a < i <= b of (pi(x // p_i) - i + 1)
    # The integers in [1, x] that no prime up to icbrt(x) divides are 1, the
    # primes above it, and the products p_i * q of two primes with
    # a < i <= b and p_i <= q, pi(x // p_i) - i + 1 for each i.  Every pi
    # it reads, at x // p_i with p_i > x^(1/3) or at a leaf of phi below
    # p_a^2, lies below x^(2/3).
    a, b = _SMALL_PI[_icbrt(x)], _SMALL_PI[isqrt(x)]
    return _phi(x, a) + a - 1 + (b - a) * (a + b - 1) // 2 - sum(_pi(x // p) for p in _PRIMES[a:b])


def _pi(v):
    # pi(v) for 2 <= v <= MAX_COUNT_INPUT: one subscript of _SMALL_PI by v
    # up to TABLE_CAP, a read of the pi table up to _PI_CAP, and Meissel's
    # formula above, whose reads are this function's at smaller v.  The
    # table's read is here alone: of the k = (v + 1) // 2 odd integers up
    # to v, the first 8 * (k >> 3) are counted in counts[k >> 3] and the
    # k & 7 others are the low bits of bits[k >> 3].  Only a v past the
    # table's limit goes through _pi_to first.
    if v <= TABLE_CAP:
        return _SMALL_PI[v]
    table = _pi_table
    if v > table.limit:
        if v > _PI_CAP:
            return _meissel(v)
        table = _pi_to(v)
    k = (v + 1) >> 1
    return table.counts[k >> 3] + _POPCOUNT[table.bits[k >> 3] & (1 << (k & 7)) - 1]


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
    # rises, so the primes split once: the p above n // (TABLE_CAP + 1)
    # read pi(n // p) as _SMALL_PI[n // p], and the rest take it from _pi,
    # which alone picks the pi table or Meissel's formula.  The edges p^2 - 1 of
    # the p up to 173 are summed in advance in _EDGE_SUMS, one subscript
    # for all of them, and the rest, n from 179^3 on, come from _pi too.
    # Edges and Meissel's reads lie below n^(2/3), and the quotients fall
    # as p rises, so the first quotient at or below _PI_CAP is the largest
    # read of the pi table a count makes.  The three cuts are bisections of
    # _PRIMES itself, which n <= MAX_COUNT_INPUT keeps inside the table,
    # so no slice of it is copied but those the reads walk.
    b = bisect_right(_PRIMES, isqrt(n))
    c_count = bisect_right(_PRIMES, _icbrt(n), 0, b)
    head = bisect_right(_PRIMES, n // (TABLE_CAP + 1), 0, b)
    near = min(c_count, _SMALL_EDGES)
    pi_quotients = [_pi(n // p) for p in _PRIMES[:head]]
    pi_quotients += [_SMALL_PI[n // p] for p in _PRIMES[head:b]]
    edge_sum = _EDGE_SUMS[near] + sum([_pi(p * p - 1) for p in _PRIMES[near:c_count]])
    k2_sum = sum(pi_quotients[:c_count]) - edge_sum
    return k2_sum, sum(pi_quotients) - k2_sum - b * (b - 1) // 2


def _prefix_count(n):
    # the number of semiprimes <= n, for n >= 7: about pi(sqrt(n)) reads,
    # every one a subscript of _SMALL_PI by value below 2 * (TABLE_CAP + 1),
    # and above it one _pi call per p with n // p or p^2 - 1 above
    # TABLE_CAP, Meissel's formula among them from 2 * (_PI_CAP + 1) on
    k2_sum, k1_t_sum = _prefix_parts(n)
    return k2_sum + k1_t_sum


def count_range(lo: int, hi: int) -> int:
    """Sum of semiprime_indicator over lo..hi inclusive (8 <= lo <= hi).

    The sum is linear, so it is computed as sum(k1) + sum(k2) - sum(t) by
    one of two routes, chosen by the width alone:

    - a window with hi - lo < 2 * isqrt(hi) * isqrt(isqrt(hi)), about
      2 * hi^(3/4), is sieved itself, in one pass per piece of at most
      SEGMENT integers, the pieces also split at the cubes of the primes so
      that the primes up to icbrt(x) are one set within each, those up to
      c, the icbrt of the piece's first integer.  Each x gets one of four
      marks: unmarked, one prime p <= c, two primes above c, or rejected.
      A prime p <= c marks its multiples, and rejects those another such
      prime marked; p*p rejects its multiples; and each prime r in
      (c, isqrt(hi)] settles every x it divides: in a piece inside
      [P^3, q^3), P and q consecutive primes and P >= 5, p*r < P^3 <= x,
      so x/p is composite and a marked x is rejected, and an unmarked x is
      a semiprime with both factors above c.  Every modulus takes the same
      step, one strided bytes.translate by its constant table when it is
      at most the piece's size, and otherwise one table read for its one
      multiple, if any.  The pieces where some p*r lies inside are
      [8, 26] and [27, 124], with 10 = 2 * 5 and 33 = 3 * 11, and their
      marks are a constant.  What is left unmarked is sum(t), unmarked or
      with two primes above c sum(k1), and marked by one p, sum(k2);
    - a wider range is the difference of two prefix counts,
      semiprime_count(hi) - semiprime_count(lo - 1), whose cost grows
      with hi rather than with the width.  The cut, one rule for every hi,
      was fitted where each prefix count took O(hi^(3/4)) steps.  On one
      core of a 2-core x86-64 host (CPython 3.11, best of 5, or of 3 at
      10^9, in 3 rounds, the pi table grown), the widest window under it,
      ending at hi = 10^7, 10^8 and 10^9, takes about 3.6-4.0, 20-22 and
      154-166 ms, against 1.8-1.9, 26-28 and 269-279 ms for the two
      prefix counts: the window is slower near 10^7 and faster from 10^8
      on.  Re-fitting the cut waits for a benchmark workload that times
      wide ranges.  The cut is taken from integer square roots, so no
      intermediate value leaves 64 bits.

    The window pass keeps memory bounded by SEGMENT bytes at any width, and
    the prefix count by the constant _SMALL_PI of 63 kB and the pi table of
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
    indexed by the value itself, and every other one up to 2 * 10^6 a read
    of one pi table, an odd-only segmented sieve's primes kept as one bit
    per odd integer with a running count per eight bits, which grows on
    the first query that needs it.  Below 4 * 10^6 that is every pi, and a
    count with the table grown costs about pi(sqrt(n)) reads, the edges
    pi(p^2 - 1) of the p up to 173 being one constant sum.  From there on,
    the pi(n // p) above 2 * 10^6, those of the p below n / (2 * 10^6),
    come from Meissel's formula over the same two tables, so the cost
    grows well below n, in about 1 MB.  On one core of a 2-core x86-64
    host (CPython 3.11, the pi table grown, best of 3 in each of 10
    rounds), 1.2..2.6 * 10^5 took 0.009 to 0.011 ms, 10^6 0.018 to 0.020
    ms, 10^7 0.86 to 1.0 ms, 10^8 13 to 14.4 ms and 10^9 0.13 to 0.16 s;
    the host's speed moves by up to 2x from one process to the next.  The
    window pass under count_range, which sees every integer, is the
    independent route the tests compare it with.  Below 8 the count is
    read off the semiprimes 4 and 6.
    """
    n = bounded(n, "semiprime_count", "n", 1, MAX_COUNT_INPUT)
    if n < 8:
        return bisect_right(_SMALL_SEMIPRIMES, n)
    return _prefix_count(n)
