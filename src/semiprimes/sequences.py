"""Ordinal lookup (nth semiprime), successor search, and streaming.

The nth semiprime is 8 + sum over x >= 8 of gate(n, pi2(x)): the gate is 1
exactly while pi2(x) < n, so sp_n is the smallest x with pi2(x) >= n.
nth_semiprime finds that x with core's two counters in three steps, every
count exact:

- anchor: invert x / ln x * (ln ln x + B + (D ln ln x + C) / ln x) = n in
  floating point (Landau's asymptotic with a fitted second-order term) and
  take pi2 there with the prefix count;
- close: step from the anchor toward sp_n by the gap divided by the local
  density; a step wider than SEGMENT recounts pi2 at its end with the
  prefix count, a shorter one takes the semiprime flags of the block it
  crosses from count_range's window pass and counts them, until a block
  [a, b] has pi2(a - 1) < n <= pi2(b);
- pick: sp_n is that block's (n - pi2(a - 1))th flagged integer, which one
  indicator triple then confirms is a semiprime.

The floats only choose where to count, so any anchor gives the same answer;
a good one saves counts.  The estimate is within 0.6 % of sp_n from 10^4
and within 0.25 % from 61 000 on; for the answers in 1.2..2.6 * 10^5 it
is within 300 integers of sp_n, half of the time within 70; and from 10^6
to 10^9 it is within 0.15 SEGMENT.  The first block is the step plus a
margin that covers the step's measured error, so in that band the search
costs one prefix count and one block, with a second block for about 1 %
of the indices, and above 10^6 typically one prefix count and one wider
block: well below the cost of counting every integer up to the answer.
Counters that disagree raise RuntimeError: a block walk that strays more
than SEGMENT from its last prefix count and does not match a new one, a
block walk that would leave [8, MAX_COUNT_INPUT], or a picked integer that
the triple says is not a semiprime.

Indices run up to MAX_NTH_INPUT, the number of semiprimes <= MAX_COUNT_INPUT,
so every answer lies in the counting range; n is checked once, before the
search.  Successors and streams walk upward one integer at a time, since
semiprime gaps are a handful of integers.  The walk goes through the
window pass's pieces (core._pieces), which end at SEGMENT integers or just
before a prime cube, so that c = icbrt of a piece's first integer bounds
the cube-root primes of every x in it, and decides each x from its least
prime factor p <= c alone: x is a semiprime exactly when t(x/p) = 1, or,
with no such p, when t(x) = 0, which is k1 + k2 - t = 1 without building
the triple.

The closed-form summations themselves (the gated sum for the nth query, the
telescoping sum of products for the successor) are transcribed in literal,
as slow references for the tests.
"""

from itertools import compress, islice
from math import log

from .core import (
    SEGMENT,
    _SMALL_SEMIPRIMES,
    _least_small_factor,
    _pieces,
    _prefix_count,
    _semiprime_flags,
    _triple_bits,
)
from .intmath import (
    MAX_CLASSIFY_INPUT,
    MAX_COUNT_INPUT,
    MAX_NTH_INPUT,
    MAX_STREAM_COUNT,
    RangeLimitError,
    bounded,
)
from .primality import _t


def gate(n: int, x: int) -> int:
    """floor(2n / (n + x + 1)): 1 when x < n, 0 when x >= n (n >= 1, x >= 0).

    Turns a counting function into an ordinal formula: summing
    gate(n, count(x)) over x adds 1 exactly while fewer than n values have
    been counted.
    """
    n = bounded(n, "gate", "n", 1)
    x = bounded(x, "gate", "x", 0)
    return (2 * n) // (n + x + 1)


def nth_semiprime(n: int) -> int:
    """The nth semiprime in ascending order (sp_1 = 4, sp_2 = 6, ...).

    n = 1 and n = 2 are answered by lookup; the formulas start at n = 3.
    Every n up to MAX_NTH_INPUT (160 788 536) is accepted, since its answer
    is at most MAX_COUNT_INPUT; a larger n raises RangeLimitError at once.
    The search takes exact prefix counts near a floating-point estimate of
    the answer, counts the semiprime flags of blocks of at most SEGMENT
    integers to reach it, and picks the answer off the flags of the block
    that does (see the module docstring).  With the pi table grown, on one
    core of a 2-core x86-64 host (CPython 3.11, best of 3 in each of 6
    rounds), it took 0.034 to 0.039 ms for an answer near 2.6 * 10^5, most
    of it the block's window pass, and 0.13 to 0.14 s at MAX_NTH_INPUT,
    most of it one semiprime_count call near the answer.  literal.nth_semiprime_literal
    evaluates the gated sum itself, as a slow reference.
    """
    n = bounded(n, "nth_semiprime", "n", 1, MAX_NTH_INPUT)
    if n <= len(_SMALL_SEMIPRIMES):
        return _SMALL_SEMIPRIMES[n - 1]
    return _nth_scan(n)


#: pi2(x) is about x / ln x * (ln ln x + B + (D ln ln x + C) / ln x).  The
#: leading term is Landau's asymptotic pi_k(x) ~ x (ln ln x)^(k-1) /
#: ((k-1)! ln x) for k = 2 (Landau, Handbuch der Lehre von der Verteilung der
#: Primzahlen, 1909), whose expansion goes on in powers of 1 / ln x with
#: polynomials in ln ln x.  B, C and D are fitted to exact pi2 at 61
#: log-spaced points in 10^4..10^9, which puts the estimate's x within
#: 0.15 SEGMENT of sp_n from 10^6 to 10^9 and within 300 integers of it in
#: 1.2..2.6 * 10^5.  Mertens' constant B = 0.2615 alone ran up to 94 SEGMENT
#: high near 10^9; the fitted pair B, C with D = 0 that comes within 0.3
#: SEGMENT there lands ~2 000 integers low near 2 * 10^5.
_B, _C, _D = 0.2132, -5.36, 2.367


def _estimate_terms(x):
    # (ln x, g, slope) for the estimate pi2(x) ~ x g / ln x, where slope is
    # its derivative over its mean pi2(x) / x:
    #   1 - (1 - (1 + (D - D ln ln x - C) / ln x) / g) / ln x.
    # Below 100 the second-order term would outweigh the first (g < 0 near
    # 8), so x is raised to 100 there; any anchor is cheap at that size.
    lx = log(max(x, 100.0))
    llx = log(lx)
    g = llx + _B + (_D * llx + _C) / lx
    return lx, g, 1 - (1 - (1 + (_D - _D * llx - _C) / lx) / g) / lx


def _nth_anchor(n):
    # The x near which the estimate of pi2 reaches n, by fixed-point
    # iteration: where the search starts.  Only its cost depends on it.
    # It starts from Landau's leading term alone, n ln n / ln ln n (n >= 3,
    # where ln ln n > 0), a few percent from the fixed point, and stops
    # once a step moves x by less than 1, or after 6 steps: 4 estimates for
    # the answers in 1.2..2.6 * 10^5.  Each step shrinks the distance to
    # the fixed point about thirtyfold, so even near 10^9, where the 6th
    # step still moves x by about 1, the anchor ends within 1 of it.
    ln = log(n)
    x = n * ln / log(ln)
    for _ in range(6):
        lx, g, _ = _estimate_terms(x)
        x, last = n * lx / g, x
        if abs(x - last) < 1:
            break
    return min(max(8, int(x)), MAX_COUNT_INPUT)


def _nth_scan(n):
    # Bracket the answer in [a, b] with running = pi2(a - 1) < n <= pi2(b),
    # then pick it off the block's flags.  count = pi2(x) is exact; the floats
    # only choose the next x or block, so every choice gives the same answer.
    # The step to sp_n divides the gap by the local density: the mean
    # count / x times the ratio of the estimate's slope to its mean.  A step
    # wider than SEGMENT recounts pi2 from scratch at its end; a shorter one
    # counts the block it crosses, widened so that it usually holds sp_n.
    # Blocks that walk more than SEGMENT from the last prefix count are
    # checked against a new one.
    # The step's error, (sp_n - x) - step, is the semiprimes' own scatter
    # about the local density.  Over the 30 234 indices whose answers lie in
    # 1.2..2.6 * 10^5 it is within 36 for 98 % of them, 53 for 99.8 % and
    # 80 for all.  A block of the step plus the larger of 32 and a quarter
    # of the step holds sp_n for all but 367 of them (median width 101).
    # The window pass costs less over a narrower block, more than the rare
    # second block takes back.  From a step of 128 on the quarter is the
    # larger, so up to SEGMENT and above 10^6 the block grows with the step.
    x = counted_at = _nth_anchor(n)
    count = _prefix_count(x)
    while True:
        if abs(x - counted_at) > SEGMENT:
            prefix = _prefix_count(x)
            if prefix != count:
                raise RuntimeError(
                    f"nth_semiprime({n}): the block counts give pi2({x}) = {count}, "
                    f"the prefix count {prefix}"
                )
            counted_at = x
        slope = _estimate_terms(x)[2]
        step = (n - count) * x / (count * slope)
        if abs(step) > SEGMENT:
            x = counted_at = min(max(8, x + int(step)), MAX_COUNT_INPUT)
            count = _prefix_count(x)
            continue
        # the margin past the step, so that a short or underestimated step
        # holds sp_n
        reach = int(abs(step))
        width = min(SEGMENT, reach + max(32, reach >> 2))
        if count < n:
            a, b = x + 1, min(x + width, MAX_COUNT_INPUT)
        else:
            a, b = max(8, x + 1 - width), x
        if a > b:
            # pi2(7) = 2 < n <= MAX_NTH_INPUT = pi2(MAX_COUNT_INPUT)
            raise RuntimeError(
                f"nth_semiprime({n}): the block counts give pi2({x}) = {count}, "
                f"which puts it outside [8, {MAX_COUNT_INPUT}]"
            )
        flags = _semiprime_flags(a, b)
        block = flags.count(1)
        running = count if count < n else count - block
        if running < n <= running + block:
            break
        x, count = (b, running + block) if running < n else (a - 1, running)
    x = next(islice(compress(range(a, b + 1), flags), n - running - 1, None))
    tb, k1b, k2b = _triple_bits(x)
    if k1b + k2b - tb != 1:
        raise RuntimeError(
            f"nth_semiprime({n}): the block counts put it at {x}, "
            f"which the indicator triple says is not a semiprime"
        )
    return x


def _semiprimes_after(n):
    # Every semiprime > n (n >= 4), ascending, up to the classification
    # limit; the indicators are unchecked, so the range bounds the walk.
    # Every x in the piece [a, b] has the primes up to c as its cube-root
    # primes.  With a least small factor p, k1 + k2 - t = t(x/p); without
    # one, k1 + k2 - t = 1 - t(x).  Both hold from 5 on: the first piece,
    # (5, 7, 1), has no cube-root primes, and t reads 5, 6 and 7 off the
    # small-domain table.
    for a, b, c in _pieces(n + 1, MAX_CLASSIFY_INPUT):
        for x in range(a, b + 1):
            p = _least_small_factor(x, c)
            if _t(x // p) if p else 1 - _t(x):
                yield x
    raise RangeLimitError(
        f"the semiprime search from {n} passed the classification limit {MAX_CLASSIFY_INPUT}"
    )


def next_semiprime(n: int) -> int:
    """Smallest semiprime strictly greater than n (4 <= n <= 10^12).

    Walks upward through the window pass's pieces, which end just before
    each prime cube, with one cube root per piece and one
    least-small-factor scan and one t call per integer (see the module
    docstring), with the same test below 8 as above it.  An n above
    MAX_CLASSIFY_INPUT raises RangeLimitError before the walk, and a walk
    that passes it without finding a semiprime raises it there.  literal.next_semiprime_literal
    evaluates the telescoping sum of products itself, as a slow reference.
    """
    return next(_semiprimes_after(bounded(n, "next_semiprime", "n", 4, MAX_CLASSIFY_INPUT)))


def semiprime_stream(start: int, count: int) -> list:
    """The first `count` semiprimes strictly greater than start, ascending.

    One upward walk from start, the same as next_semiprime's walk through
    the window pass's pieces, with the arguments checked once.  count is at
    most MAX_STREAM_COUNT (10^6), so the list stays bounded; a larger count
    raises RangeLimitError before the walk.  A walk that passes MAX_CLASSIFY_INPUT before it has found
    count semiprimes raises RangeLimitError there, as next_semiprime does.
    """
    start = bounded(start, "semiprime_stream", "start", 4, MAX_CLASSIFY_INPUT)
    count = bounded(count, "semiprime_stream", "count", 0, MAX_STREAM_COUNT)
    return list(islice(_semiprimes_after(start), count))
