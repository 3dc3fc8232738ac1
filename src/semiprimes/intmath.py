"""Exact integer primitives: roots, ceiling division, divisibility indicators.

Every floor/ceiling expression used elsewhere in this package reduces to one
of the integer identities implemented here; no value-bearing computation goes
through floating point.  (Here a float only seeds the cube-root search,
and is always corrected by exact comparisons; in sequences one only picks
where the nth search starts counting.)
"""

import math
import operator

#: Largest input accepted by the per-number classification functions.
#: Together with MAX_COUNT_INPUT this keeps almost every intermediate product
#: (36*k*k, prime-table scans, gate numerators) inside signed 64 bits.  The
#: one step that leaves them is t above 10^6: its strong-probable-prime test
#: squares residues below 10^12, up to about 2^80, so a fixed-width port
#: needs 128-bit products there.
MAX_CLASSIFY_INPUT = 10**12

#: Largest range endpoint accepted by the counting functions.
MAX_COUNT_INPUT = 10**9

#: Largest index accepted by nth_semiprime: the number of semiprimes
#: <= MAX_COUNT_INPUT (OEIS A066265), so every answer lies in the counting
#: range.  semiprime_count(MAX_COUNT_INPUT) reproduces it in under a second.
MAX_NTH_INPUT = 160_788_536

#: Largest count accepted by semiprime_stream, which returns one list: a
#: million ints take about 40 MB, and near 10^12 the walk to them about
#: two minutes.
MAX_STREAM_COUNT = 10**6


class DomainError(ValueError):
    """Input lies outside an operation's stated domain."""


class RangeLimitError(DomainError):
    """Input exceeds the supported magnitude for the requested operation."""


def bounded(value, func, what, low, high=None):
    """value as an int in [low, high] (low >= 0), checked for func.

    A non-integer or a value below low raises DomainError, one above high
    (if given) RangeLimitError; each message names func and the argument.
    """
    try:
        n = operator.index(value)
    except TypeError:
        raise DomainError(f"{func} requires an integer {what}, got {type(value).__name__}") from None
    if n < low:
        raise DomainError(f"{func} requires {what} >= {low}, got {n}")
    if high is not None and n > high:
        raise RangeLimitError(f"{func} accepts {what} up to {high}, got {n}")
    return n


def isqrt(n: int) -> int:
    """Largest s with s*s <= n."""
    return math.isqrt(bounded(n, "isqrt", "n", 0))


_THIRD = 1.0 / 3.0


def icbrt(n: int) -> int:
    """Largest c with c*c*c <= n.

    A float cube root only seeds the search; the returned value is fixed up
    with exact integer comparisons, so boundary cubes never round the wrong
    way (icbrt(8) is 2 even though 8 ** (1/3) < 2 in binary floating point).
    """
    return _icbrt(bounded(n, "icbrt", "n", 0))


def _icbrt(n):
    # icbrt without the argument check (n >= 0)
    if n < (1 << 52):
        c = round(n**_THIRD)
    else:
        # integer Newton iteration from above; exact for any magnitude
        c = 1 << -(-n.bit_length() // 3)
        while True:
            d = (2 * c + n // (c * c)) // 3
            if d >= c:
                break
            c = d
    while c > 0 and c * c * c > n:
        c -= 1
    while (c + 1) ** 3 <= n:
        c += 1
    return c


def ceil_div(a: int, b: int) -> int:
    """Exact ceiling of a/b.  b == 0 raises ZeroDivisionError."""
    a = bounded(a, "ceil_div", "a", 0)
    b = bounded(b, "ceil_div", "b", 0)
    return -(-a // b)


def nondiv_indicator(x: int, d: int) -> int:
    """1 if d does not divide x, else 0.  d == 0 raises ZeroDivisionError.

    This is the exact value of ceil(x/d - floor(x/d)) and equally of
    ceil(ceil(x/d) - x/d): the fractional part of x/d is zero exactly when
    d divides x, and any nonzero fractional part ceilings to 1.  A remainder
    test computes it without leaving the integers.
    """
    x = bounded(x, "nondiv_indicator", "x", 0)
    d = bounded(d, "nondiv_indicator", "d", 0)
    return 1 if x % d else 0


def wheel_limit(x: int) -> int:
    """Smallest k >= 1 with 36*k*k >= x; equals ceil(sqrt(x)/6) for x >= 1.

    This is the number of (6k-1, 6k+1) divisor pairs the wheel indicators
    must probe.  Computed as ceil(ceil(sqrt(x))/6), which agrees with
    ceil(sqrt(x)/6) because the inner value is divided by an integer.
    """
    return _wheel_limit(bounded(x, "wheel_limit", "x", 1))


def _wheel_limit(x):
    # wheel_limit without the argument check (x >= 1)
    root_up = math.isqrt(x - 1) + 1
    return -(-root_up // 6)
