"""Ordinal lookup (nth semiprime), successor search, and streaming.

The nth semiprime is 8 + sum over x >= 8 of gate(n, pi2(x)): the gate is 1
exactly while pi2(x) < n, so sp_n is the smallest x with pi2(x) >= n.
nth_semiprime finds that x on core's block counter in three steps, carrying
the running count pi2(a - 1) from one to the next:

- walk: from 8, count blocks [a, b] until one would bring the running
  count to n; the first block is min(2n, SEGMENT) integers wide and each
  later one twice the last, up to SEGMENT;
- halve: count the lower half of that block; keep it if it reaches n, else
  add its count and keep the upper half; stop at SCAN_WIDTH integers or
  fewer;
- scan: settle those integers one at a time with the indicator triple.

Indices run up to MAX_NTH_INPUT, the number of semiprimes <= MAX_COUNT_INPUT,
so every answer lies in the counting range; n is checked once, before the
walk.  Successors and streams walk upward one integer at a time with the
same triple, since semiprime gaps are a handful of integers.

The closed-form summations themselves (the gated sum for the nth query, the
telescoping sum of products for the successor) are transcribed in literal,
as slow references for the tests.
"""

from itertools import islice

from .core import _SMALL_SEMIPRIMES, _count_range, _triple_bits
from .intmath import (
    MAX_CLASSIFY_INPUT,
    MAX_COUNT_INPUT,
    MAX_NTH_INPUT,
    DomainError,
    RangeLimitError,
    as_natural,
)
from .primality import SEGMENT

#: The halving stops once its interval holds at most this many integers,
#: which the exact scan then settles.
SCAN_WIDTH = 64


def gate(n: int, x: int) -> int:
    """floor(2n / (n + x + 1)): 1 when x < n, 0 when x >= n (n >= 1, x >= 0).

    Turns a counting function into an ordinal formula: summing
    gate(n, count(x)) over x adds 1 exactly while fewer than n values have
    been counted.
    """
    n = as_natural(n, "n")
    x = as_natural(x, "x")
    if n < 1:
        raise DomainError("gate requires n >= 1")
    return (2 * n) // (n + x + 1)


def nth_semiprime(n: int) -> int:
    """The nth semiprime in ascending order (sp_1 = 4, sp_2 = 6, ...).

    n = 1 and n = 2 are answered by lookup; the formulas start at n = 3.
    Every n up to MAX_NTH_INPUT (160 788 536) is accepted, since its answer
    is at most MAX_COUNT_INPUT; a larger n raises RangeLimitError at once.
    The search walks blocks of up to SEGMENT integers with the block
    counter, halves the block that reaches n down to SCAN_WIDTH integers,
    and scans those (see the module docstring); its cost grows with the
    answer, like semiprime_count's.  literal.nth_semiprime_literal
    evaluates the gated sum itself, as a slow reference.
    """
    n = as_natural(n, "n")
    if n < 1:
        raise DomainError("semiprime indices start at 1")
    if n > MAX_NTH_INPUT:
        raise RangeLimitError(
            f"nth_semiprime accepts indices up to {MAX_NTH_INPUT} "
            f"(answers up to {MAX_COUNT_INPUT}), got {n}"
        )
    if n <= len(_SMALL_SEMIPRIMES):
        return _SMALL_SEMIPRIMES[n - 1]
    return _nth_scan(n)


def _nth_scan(n):
    # running is pi2(a - 1) throughout, starting from the semiprimes below 8.
    # sp_n >= 2.5*n (the ratio is least at n = 4 and 6 and grows with n), so
    # a block from 8 narrower than 2n holds the answer only for n < 14 and is
    # overhead for the rest.  The first block is 2n wide (at most SEGMENT)
    # and each later one doubles up to SEGMENT; any width keeps the walk
    # exact.
    running, a, width = len(_SMALL_SEMIPRIMES), 8, min(SEGMENT, 2 * n)
    while True:
        b = min(a + width - 1, MAX_COUNT_INPUT)
        block = _count_range(a, b)
        if running + block >= n:
            break
        running += block
        a = b + 1
        width = min(2 * width, SEGMENT)
    while b - a >= SCAN_WIDTH:
        mid = (a + b) // 2
        low = _count_range(a, mid)
        if running + low >= n:
            b = mid
        else:
            running += low
            a = mid + 1
    x = a - 1
    while running < n:
        x += 1
        tb, k1b, k2b = _triple_bits(x)
        running += k1b + k2b - tb
    return x


def _semiprimes_after(n):
    # Every semiprime > n (n >= 4), ascending, up to the classification
    # limit; the triple is unchecked, so the range bounds the walk.
    yield from (x for x in _SMALL_SEMIPRIMES if x > n)
    for x in range(max(n + 1, 8), MAX_CLASSIFY_INPUT + 1):
        tb, k1b, k2b = _triple_bits(x)
        if k1b + k2b - tb:
            yield x
    raise RangeLimitError(
        f"the semiprime search from {n} passed the classification limit {MAX_CLASSIFY_INPUT}"
    )


def next_semiprime(n: int) -> int:
    """Smallest semiprime strictly greater than n (n >= 4).

    Walks upward with the indicator triple, with the below-8 stretch
    answered by lookup.  literal.next_semiprime_literal evaluates the
    telescoping sum of products itself, as a slow reference.
    """
    n = as_natural(n, "n")
    if n < 4:
        raise DomainError(f"next_semiprime requires n >= 4, got {n}")
    return next(_semiprimes_after(n))


def semiprime_stream(start: int, count: int) -> list:
    """The first `count` semiprimes strictly greater than start, ascending.

    One upward walk from start, the same as next_semiprime's scan, with the
    arguments checked once.
    """
    start = as_natural(start, "start")
    if start < 4:
        raise DomainError(f"semiprime_stream requires start >= 4, got {start}")
    if start > MAX_CLASSIFY_INPUT:
        raise RangeLimitError(
            f"semiprime_stream accepts starts up to {MAX_CLASSIFY_INPUT}, got {start}"
        )
    count = as_natural(count, "count")
    return list(islice(_semiprimes_after(start), count))
