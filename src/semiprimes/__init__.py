"""Exact-integer semiprime testing, counting, and search.

Everything value-bearing is integer arithmetic: primality and semiprimality
are decided by floor/ceiling divisor indicators, counting sums those
indicators, and the ordinal / successor queries are gated rearrangements of
the count.  The oracle submodule holds deliberately naive ground-truth
implementations used by the test suite to cross-validate every route.
"""

from .core import (
    Category,
    Classification,
    IndicatorTriple,
    classify,
    count_range,
    k1,
    k2,
    prime_count_formula,
    semiprime_count,
    semiprime_indicator,
)
from .intmath import (
    MAX_CLASSIFY_INPUT,
    MAX_COUNT_INPUT,
    MAX_NTH_INPUT,
    MAX_STREAM_COUNT,
    DomainError,
    RangeLimitError,
    ceil_div,
    icbrt,
    isqrt,
    nondiv_indicator,
    wheel_limit,
)
from .primality import PrimeTable, build_prime_table, t, t0, t1, t2
from .sequences import gate, next_semiprime, nth_semiprime, semiprime_stream

__version__ = "0.1.0"

__all__ = [
    "Category",
    "Classification",
    "DomainError",
    "IndicatorTriple",
    "MAX_CLASSIFY_INPUT",
    "MAX_COUNT_INPUT",
    "MAX_NTH_INPUT",
    "MAX_STREAM_COUNT",
    "PrimeTable",
    "RangeLimitError",
    "build_prime_table",
    "ceil_div",
    "classify",
    "count_range",
    "gate",
    "icbrt",
    "isqrt",
    "k1",
    "k2",
    "next_semiprime",
    "nondiv_indicator",
    "nth_semiprime",
    "prime_count_formula",
    "semiprime_count",
    "semiprime_indicator",
    "semiprime_stream",
    "t",
    "t0",
    "t1",
    "t2",
    "wheel_limit",
]
