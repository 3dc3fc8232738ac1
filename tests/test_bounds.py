"""Every bounded public argument, one below and one above its bounds.

Each row names a function, a call that passes the checked argument v (the
other arguments held inside their bounds), the bounds, and the route under
the function.  The route is patched to fail, so an error raised by the
check is raised before any work.
"""

import pytest

import semiprimes as sp
from semiprimes import (
    MAX_CLASSIFY_INPUT,
    MAX_COUNT_INPUT,
    MAX_NTH_INPUT,
    MAX_STREAM_COUNT,
    DomainError,
    RangeLimitError,
    bench,
    core,
    intmath,
    literal,
    oracle,
    primality,
    sequences,
)

CASES = [
    ("t", sp.t, 1, MAX_CLASSIFY_INPUT, (primality, "_t")),
    ("t0", sp.t0, 1, MAX_CLASSIFY_INPUT, None),
    ("t1", sp.t1, 8, MAX_CLASSIFY_INPUT, (primality, "_wheel_limit")),
    ("t2", sp.t2, 8, MAX_CLASSIFY_INPUT, (primality, "_wheel_limit")),
    ("k1", sp.k1, 8, MAX_CLASSIFY_INPUT, (core, "_least_small_factor")),
    ("k2", sp.k2, 8, MAX_CLASSIFY_INPUT, (core, "_least_small_factor")),
    ("semiprime_indicator", sp.semiprime_indicator, 8, MAX_CLASSIFY_INPUT, (core, "_triple_bits")),
    ("classify", sp.classify, 2, MAX_CLASSIFY_INPUT, (core, "_triple_bits")),
    ("next_semiprime", sp.next_semiprime, 4, MAX_CLASSIFY_INPUT, (sequences, "_semiprimes_after")),
    ("semiprime_stream", lambda v: sp.semiprime_stream(v, 1), 4, MAX_CLASSIFY_INPUT,
     (sequences, "_semiprimes_after")),
    ("semiprime_stream", lambda v: sp.semiprime_stream(4, v), 0, MAX_STREAM_COUNT,
     (sequences, "_semiprimes_after")),
    ("semiprime_count", sp.semiprime_count, 1, MAX_COUNT_INPUT, (core, "_prefix_count")),
    ("count_range", lambda v: sp.count_range(v, 100), 8, None, (core, "_count_range")),
    ("count_range", lambda v: sp.count_range(8, v), 8, MAX_COUNT_INPUT, (core, "_count_range")),
    ("prime_count_formula", sp.prime_count_formula, 8, MAX_COUNT_INPUT, (core, "_pi")),
    ("nth_semiprime", sp.nth_semiprime, 1, MAX_NTH_INPUT, (sequences, "_nth_scan")),
    ("build_prime_table", sp.build_prime_table, 2, primality.WHEEL_TOP, (primality, "_t")),
    ("wheel_limit", sp.wheel_limit, 1, None, (intmath, "_wheel_limit")),
    ("gate", lambda v: sp.gate(v, 0), 1, None, None),
    ("t0_literal", literal.t0_literal, 1, None, (literal, "_frac_nondiv")),
    ("t1_literal", literal.t1_literal, 8, None, (literal, "_frac_nondiv")),
    ("t2_literal", literal.t2_literal, 8, None, (literal, "_frac_nondiv")),
    ("t_literal", literal.t_literal, 8, None, (literal, "_frac_nondiv")),
    ("k1_literal", literal.k1_literal, 8, None, (literal, "_fresh_prime_table")),
    ("k2_literal", literal.k2_literal, 8, None, (literal, "_fresh_prime_table")),
    ("prime_count_literal", literal.prime_count_literal, 8, None, (literal, "t")),
    ("nth_semiprime_literal", literal.nth_semiprime_literal, 1, literal._MAX_LITERAL_INDEX,
     (literal, "semiprime_indicator")),
    ("next_semiprime_literal", literal.next_semiprime_literal, 9, None, (literal, "t")),
    ("sieve", oracle.sieve, 2, oracle.SIEVE_LIMIT, (oracle, "_prime_list")),
    ("factor_profile", oracle.factor_profile, 2, None, None),
    ("classical_count", oracle.classical_count, 1, oracle.CLASSICAL_COUNT_LIMIT, (oracle, "_prime_list")),
    ("semiprime_flags", oracle.semiprime_flags, 0, oracle.FACTOR_SIEVE_LIMIT, (oracle, "array")),
    ("semiprime_count_by_sieve", oracle.semiprime_count_by_sieve, 1, oracle.FACTOR_SIEVE_LIMIT,
     (oracle, "semiprime_flags")),
    ("reproduce_table", bench.reproduce_table, 1, 4, (bench, "_timed_row")),
    ("reproduce_table", lambda v: bench.reproduce_table(1, v), 0, None, (bench, "_timed_row")),
    ("isqrt", sp.isqrt, 0, None, None),
    ("icbrt", sp.icbrt, 0, None, (intmath, "_icbrt")),
    ("ceil_div", lambda v: sp.ceil_div(v, 1), 0, None, None),
    ("ceil_div", lambda v: sp.ceil_div(1, v), 0, None, None),
    ("nondiv_indicator", lambda v: sp.nondiv_indicator(v, 1), 0, None, None),
    ("nondiv_indicator", lambda v: sp.nondiv_indicator(1, v), 0, None, None),
    ("gate", lambda v: sp.gate(1, v), 0, None, None),
    ("next_semiprime_oracle", oracle.next_semiprime_oracle, 0, None, (oracle, "is_semiprime_oracle")),
]


def _no_work(*args):
    raise AssertionError(f"the route ran on {args}")


@pytest.mark.parametrize(
    "name, call, low, high, route", CASES, ids=[f"{case[0]}-{i}" for i, case in enumerate(CASES)]
)
def test_bounds_are_checked_before_any_work(monkeypatch, name, call, low, high, route):
    if route is not None:
        monkeypatch.setattr(*route, _no_work)
    bad = [(low - 1, DomainError, low), (2.5, DomainError, None), ("12", DomainError, None)]
    if high is not None:
        bad.append((high + 1, RangeLimitError, high))
    for value, error, bound in bad:
        with pytest.raises(DomainError) as info:
            call(value)
        assert type(info.value) is error, (value, info.value)
        # every message names the function
        assert name in str(info.value), (value, info.value)
        if bound is not None and value >= 0:
            # and a range message the argument's bound
            assert str(bound) in str(info.value), info.value


def test_literal_index_bound_is_the_window_bound():
    assert literal._literal_window(literal._MAX_LITERAL_INDEX) <= 1 << 15
    assert literal._literal_window(literal._MAX_LITERAL_INDEX + 1) > 1 << 15
