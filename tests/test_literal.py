"""The rational-arithmetic transcriptions must agree with the fast paths everywhere."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiprimes import (
    DomainError,
    k1,
    k2,
    prime_count_formula,
    semiprime_indicator,
    t,
    t0,
    t1,
    t2,
)
from semiprimes.literal import (
    k1_literal,
    k2_literal,
    prime_count_literal,
    semiprime_indicator_literal,
    t0_literal,
    t1_literal,
    t2_literal,
    t_literal,
)


def test_literal_domains():
    for fn in (t1_literal, t2_literal, t_literal, k1_literal, k2_literal, prime_count_literal):
        with pytest.raises(DomainError):
            fn(7)


def test_indicator_transcriptions_sweep():
    for x in range(8, 1501):
        assert t0_literal(x) == t0(x), x
        assert t1_literal(x) == t1(x), x
        assert t2_literal(x) == t2(x), x
        assert t_literal(x) == t(x), x
        assert k1_literal(x) == k1(x), x
        assert k2_literal(x) == k2(x), x


def test_semiprime_indicator_literal_random_sample():
    rng = random.Random(1729)
    for x in rng.sample(range(8, 10**5 + 1), 250):
        assert semiprime_indicator_literal(x) == semiprime_indicator(x), x


@given(st.integers(min_value=8, max_value=2 * 10**4))
@settings(max_examples=60)
def test_k2_literal_property(x):
    assert k2_literal(x) == k2(x)


@given(st.integers(min_value=8, max_value=2 * 10**4))
@settings(max_examples=60)
def test_k1_literal_property(x):
    assert k1_literal(x) == k1(x)


@given(st.integers(min_value=8, max_value=10**4))
@example(8)
@example(10).via("the last x before the grids' first point, 11")
@example(11)
@example(13).via("the first point of the 6j+7 grid")
@example(121).via("11^2, the first composite on a grid")
@example(10**4)
@settings(max_examples=100)
def test_prime_count_formula_matches_the_grid_sum(x):
    # the prefix count's pi against the paper's sum of t over the 6j+5 / 6j+7
    # grids
    assert prime_count_formula(x) == prime_count_literal(x)
