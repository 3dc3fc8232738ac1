"""Direct transcriptions of the paper's formulas: the indicators and the sums.

Production code never calls these.  The indicator transcriptions evaluate
the defining expressions with none of the shortcuts the fast paths take:
per-argument prime tables, no early exits, and aggregate floor-of-mean /
ceiling-of-mean forms instead of all/any tests.  Quotients are
fractions.Fraction values, so the floors and ceilings are exact by
construction rather than by integer identity, which makes these useful as an
independent reference route in the tests.

The prime-count, ordinal and successor sums are evaluated term by term over
the production indicators: prime_count_literal adds t over the 6j+5 and
6j+7 grids, nth_semiprime_literal re-evaluates the count for every term of
its gated sum, so it is quadratic in its window, and next_semiprime_literal
multiplies out the telescoping products.  core.prime_count_formula and the
sequences functions answer the same questions in production.
"""

import math
from fractions import Fraction

from .core import _SMALL_SEMIPRIMES, k1, k2, semiprime_indicator
from .intmath import bounded, ceil_div, icbrt, wheel_limit
from .primality import t
from .sequences import gate

#: The largest n nth_semiprime_literal accepts: the last whose window
#: 4*n*n.bit_length() fits in 1 << 15.  Its time is quadratic in the
#: window, about 9 s there.
_MAX_LITERAL_INDEX = 819


def _frac_nondiv(x, d):
    # ceil(x/d - floor(x/d)) over exact rationals
    q = Fraction(x, d)
    return math.ceil(q - math.floor(q))


def t0_literal(x: int) -> int:
    x = bounded(x, "t0_literal", "x", 1)
    return math.floor(Fraction(_frac_nondiv(x, 2) + _frac_nondiv(x, 3), 2))


def t1_literal(x: int) -> int:
    x = bounded(x, "t1_literal", "x", 8)
    m = wheel_limit(x)
    s = sum(_frac_nondiv(x, 6 * k - 1) for k in range(1, m + 1))
    return math.floor(Fraction(s, m))


def t2_literal(x: int) -> int:
    x = bounded(x, "t2_literal", "x", 8)
    m = wheel_limit(x)
    s = sum(_frac_nondiv(x, 6 * k + 1) for k in range(1, m + 1))
    return math.floor(Fraction(s, m))


def t_literal(x: int) -> int:
    x = bounded(x, "t_literal", "x", 8)
    return math.floor(Fraction(t0_literal(x) + t1_literal(x) + t2_literal(x), 3))


def _fresh_prime_table(x):
    # rebuilt per argument on purpose: the unshared, unbatched reading
    from . import oracle

    return oracle.sieve(icbrt(x)).primes


def k1_literal(x: int) -> int:
    x = bounded(x, "k1_literal", "x", 8)
    primes = _fresh_prime_table(x)
    s = 0
    for p in primes:
        q = Fraction(x, p)
        s += math.ceil(math.ceil(q) - q)
    return math.floor(Fraction(s, len(primes)))


def k2_literal(x: int) -> int:
    x = bounded(x, "k2_literal", "x", 8)
    primes = _fresh_prime_table(x)
    s = 0
    for p in primes:
        q = Fraction(x, p)
        # the divisibility factor zeroes the term unless p | x, and the
        # primality indicator is consulted at the rounded-up quotient, an
        # integer, which coincides with x/p on every surviving term
        s += math.floor(q - math.ceil(q) + 1) * t(ceil_div(x, p))
    return math.ceil(Fraction(s, len(primes)))


def semiprime_indicator_literal(x: int) -> int:
    """k1 + k2 - t with every constituent evaluated in literal form."""
    return k1_literal(x) + k2_literal(x) - t_literal(x)


def prime_count_literal(x: int) -> int:
    """4 + sum of t over the 6j+5 and the 6j+7 grids up to x, j >= 1 (x >= 8).

    Both sums range over arguments clamped to <= x (an unclamped ceiling
    bound on j would count indicators past x and overshoot); the constant 4
    accounts for the primes 2, 3, 5, 7 that the grids start above.  One t
    per grid point, so the cost is linear in x.
    """
    x = bounded(x, "prime_count_literal", "x", 8)
    total = 4
    for v in range(11, x + 1, 6):  # 6j+5, j >= 1
        total += t(v)
    for v in range(13, x + 1, 6):  # 6j+7, j >= 1
        total += t(v)
    return total


def _literal_window(n):
    # Empirical ordinal bound: sp_n <= 4*n*ln(n) for n >= 3, and
    # n.bit_length() > log2(n) > ln(n), so this integer bound is wider.
    return 4 * n * n.bit_length()


def nth_semiprime_literal(n: int) -> int:
    """8 + sum over x in [8, 4*n*n.bit_length()] of gate(n, pi2(x)) (n >= 1).

    n = 1 and n = 2 are answered by lookup.  pi2(x) is recomputed from
    scratch for every term, so the cost is quadratic in the window; an n
    above _MAX_LITERAL_INDEX (819), whose window passes 1 << 15, raises
    RangeLimitError before any term is evaluated.
    """
    n = bounded(n, "nth_semiprime_literal", "n", 1, _MAX_LITERAL_INDEX)
    if n <= len(_SMALL_SEMIPRIMES):
        return _SMALL_SEMIPRIMES[n - 1]
    bound = _literal_window(n)
    ind = [semiprime_indicator(m) for m in range(8, bound + 1)]
    total = 8
    pi2 = len(_SMALL_SEMIPRIMES)
    for i in range(1, len(ind) + 1):
        # the counting function, re-evaluated from scratch for every term
        pi2 = len(_SMALL_SEMIPRIMES) + sum(ind[:i])
        total += gate(n, pi2)
    if pi2 < n:
        raise RuntimeError(
            f"window 4*n*bit_length(n) = {bound} holds only {pi2} semiprimes, fewer than n={n}"
        )
    return total


def next_semiprime_literal(n: int) -> int:
    """n + 1 + sum over i of the product of (1 + t - k1 - k2) across (n, n+i] (n >= 9).

    Every product is 1 until the window first covers a semiprime and 0 from
    then on, so the products are accumulated incrementally and the loop
    stops at the first zero factor, which changes nothing in the total.
    """
    n = bounded(n, "next_semiprime_literal", "n", 9)
    total = 0
    prod = 1
    for i in range(1, n + 1):
        x = n + i
        prod *= 1 + t(x) - k1(x) - k2(x)
        if prod == 0:
            return n + 1 + total
        total += prod
    # The sum's window implicitly assumes a semiprime within (n, 2n]; at any
    # practical scale the nearest semiprime is a handful of steps away.
    raise RuntimeError(f"no semiprime found in ({n}, {2 * n}]; window exhausted")
