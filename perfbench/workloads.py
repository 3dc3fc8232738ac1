"""Seeded query generators for the three workloads.

A run is a sequence of rounds; every round of a workload has the same make-up
(the same query kinds in the same strata), so the mix is the same in every
run whatever its length.  Each position inside a stratum follows its own
Weyl sequence (offset + r * step mod 1, with the steps sqrt(2), sqrt(3),
sqrt(5), ... mod 1, which no two positions share and no integer relation
ties together) from a seeded offset.  Over the rounds of one run the
positions spread evenly through their strata, also jointly where one query
takes two of them, which keeps the cost mix of two seeds alike while the
inputs themselves differ.

A query is ``[kind, args, expected_category_or_None]``, plain JSON.  This
module does not import ``semiprimes``; it uses only the benchmark's own
checkers to place inputs.
"""

import math
import random
from bisect import bisect_left, bisect_right, insort

from checkers import icbrt, next_prime, primes_upto

_STEPS = [math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)]

MAX_COUNT_INPUT = 10**9
MAX_CLASSIFY_INPUT = 10**12

# count: disjoint windows of one width, lo log-uniform in [10^6, 10^9 - W].
# Below 10^6 there is too little room: log-uniform windows that may not
# overlap fill [10^4, 2*10^4] after about twenty rounds.
COUNT_WIDTH = 512
COUNT_STRATA = 16
COUNT_LO = 10**6
COUNT_TOP = MAX_COUNT_INPUT - COUNT_WIDTH + 1
# The warm-up window sits below COUNT_LO, so no timed window revisits it.
COUNT_WARMUP = (1000, 1000 + COUNT_WIDTH - 1)

# prefix: [8, PREFIX_HI] fits in semiprime_indicator's 2**18-entry cache.
PREFIX_LO, PREFIX_HI = 120_000, 260_000
# pi_2 at the band ends, pinned by test_checkers.py.
PREFIX_PI2_LO, PREFIX_PI2_HI = 27_844, 58_078
PREFIX_STRATA = 4

# point: inputs near the classification ceiling; the margin keeps every
# product built from a target below it under MAX_CLASSIFY_INPUT.
POINT_LO, POINT_HI = 10**11, MAX_CLASSIFY_INPUT - 10**9
STREAM_LENGTH = 4

WORKLOADS = ("count", "prefix", "point")

# A run stops after --seconds or after this many rounds, whichever comes
# first, so that checking its answers stays within a bounded time; count
# is also bounded by the room for disjoint windows in its lowest stratum.
MAX_ROUNDS = {"count": 400, "prefix": 4000, "point": 2000}

# peak_rss_mb is read after this many rounds, so that it measures the same
# work in every run.  On count the indicator cache fills after 32 rounds
# (2^18 entries) and, as it keeps evicting, the peak steps up again after
# about 40 rounds; 36 sits on the plateau between.
RSS_ROUNDS = {"count": 36, "prefix": 8, "point": 32}


def _spread(offsets, r):
    """Position of every seeded offset in round r, each on its own sequence."""
    return [(o + r * step) % 1.0 for o, step in zip(offsets, _STEPS)]


def _log_between(lo, hi, u):
    return int(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


class _Windows:
    """Set of disjoint windows of width COUNT_WIDTH."""

    def __init__(self):
        self.starts = [COUNT_WARMUP[0]]

    def free(self, lo):
        i = bisect_left(self.starts, lo)
        near = self.starts[max(i - 1, 0) : i + 1]
        return all(abs(lo - s) >= COUNT_WIDTH for s in near)

    def take(self, lo):
        insort(self.starts, lo)


def count_rounds(seed):
    """Each round: one window per log stratum of [COUNT_LO, COUNT_TOP]; one
    of them straddles a cube c^3 and one a prime square p^2."""
    rng = random.Random(f"count:{seed}")
    offsets = [rng.random() for _ in range(COUNT_STRATA)]
    taken = _Windows()
    r = 0
    while True:
        queries = []
        spread = _spread(offsets, r)
        for j in range(COUNT_STRATA):
            u = spread[j]
            for attempt in range(1000):
                lo = _log_between(COUNT_LO, COUNT_TOP, (j + u) / COUNT_STRATA)
                if attempt >= 100:
                    # every edge near this stratum is taken
                    edge = None
                elif j == r % COUNT_STRATA:
                    edge = (icbrt(lo) + 1) ** 3
                elif j == (r + COUNT_STRATA // 2) % COUNT_STRATA:
                    edge = next_prime(math.isqrt(lo)) ** 2
                else:
                    edge = None
                if edge is not None:
                    # the window holds edge - 1 and edge
                    lo = edge - 1 - rng.randrange(COUNT_WIDTH - 1)
                lo = min(lo, COUNT_TOP)
                if taken.free(lo):
                    break
                u = rng.random()
            else:
                raise RuntimeError(f"count stratum {j} has no free window left")
            taken.take(lo)
            queries.append(["count_range", [lo, lo + COUNT_WIDTH - 1], None])
        yield queries
        r += 1


def prefix_rounds(seed):
    """Each round: one semiprime_count(N) and one nth_semiprime(n) per
    stratum of the band, N and the nth answers both in [PREFIX_LO, PREFIX_HI]."""
    rng = random.Random(f"prefix:{seed}")
    offsets = [rng.random() for _ in range(2 * PREFIX_STRATA)]
    r = 0
    while True:
        queries = []
        spread = _spread(offsets, r)
        for j in range(PREFIX_STRATA):
            u = (j + spread[j]) / PREFIX_STRATA
            v = (j + spread[PREFIX_STRATA + j]) / PREFIX_STRATA
            n_count = PREFIX_LO + int(u * (PREFIX_HI - PREFIX_LO))
            n_nth = PREFIX_PI2_LO + 1 + int(v * (PREFIX_PI2_HI - PREFIX_PI2_LO - 1))
            queries.append(["semiprime_count", [n_count], None])
            queries.append(["nth_semiprime", [n_nth], None])
        yield queries
        r += 1


def _near_top(u):
    return _log_between(POINT_LO, POINT_HI, u)


def _in_count_range(u):
    return _log_between(10**6, MAX_COUNT_INPUT, u)


class _PointMaker:
    """Numbers of a known category, built from the seeded positions u and w."""

    def __init__(self):
        self.small = primes_upto(icbrt(MAX_CLASSIFY_INPUT))

    def prime(self, u):
        return next_prime(_near_top(u))

    def semiprime_large(self, u, w):
        # p log-uniform between the cube root and half the square root
        x = _near_top(u)
        p = next_prime(_log_between(icbrt(x) + 2, math.isqrt(x) // 2, w))
        return p * next_prime(x // p)

    def semiprime_small(self, u, w):
        # p log-uniform over the primes up to the cube root
        x = _near_top(u)
        p = self.small[bisect_right(self.small, _log_between(2, icbrt(x), w)) - 1]
        return p * next_prime(x // p)

    def many_factors(self, u, w):
        x = _near_top(u)
        p = self.small[int(25 * w)]  # one of the first 25 primes
        q = next_prime(_log_between(p, 3000, w))
        return p * q * next_prime(x // (p * q))


def point_rounds(seed):
    """Each round: classify of 2 primes, 2 semiprimes with both factors above
    the cube root, 2 with a factor at or below it and 2 numbers with three or
    more factors, all in [POINT_LO, POINT_HI]; next_semiprime from 2 starts
    there and 1 in the counting range; semiprime_stream of STREAM_LENGTH from
    one start in each range."""
    rng = random.Random(f"point:{seed}")
    offsets = [rng.random() for _ in range(19)]
    make = _PointMaker()
    r = 0
    while True:
        s = _spread(offsets, r)
        yield [
            ["classify", [make.prime(s[0])], "prime"],
            ["classify", [make.prime(s[1])], "prime"],
            ["classify", [make.semiprime_large(s[2], s[3])], "semiprime"],
            ["classify", [make.semiprime_large(s[4], s[5])], "semiprime"],
            ["classify", [make.semiprime_small(s[6], s[7])], "semiprime"],
            ["classify", [make.semiprime_small(s[8], s[9])], "semiprime"],
            ["classify", [make.many_factors(s[10], s[11])], "composite-many-factors"],
            ["classify", [make.many_factors(s[12], s[13])], "composite-many-factors"],
            ["next_semiprime", [_near_top(s[14])], None],
            ["next_semiprime", [_near_top(s[15])], None],
            ["next_semiprime", [_in_count_range(s[16])], None],
            ["semiprime_stream", [_near_top(s[17]), STREAM_LENGTH], None],
            ["semiprime_stream", [_in_count_range(s[18]), STREAM_LENGTH], None],
        ]
        r += 1


ROUNDS = {"count": count_rounds, "prefix": prefix_rounds, "point": point_rounds}
