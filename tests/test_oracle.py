import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiprimes import DomainError, RangeLimitError, build_prime_table
from semiprimes.oracle import (
    classical_count,
    factor_profile,
    is_semiprime_oracle,
    next_semiprime_oracle,
    semiprime_count_by_sieve,
    semiprime_flags,
    sieve,
)


def test_sieve_examples():
    assert sieve(10).primes == (2, 3, 5, 7)
    assert len(sieve(30)) == 10
    assert sieve(2).primes == (2,)


def test_sieve_bounds():
    with pytest.raises(DomainError):
        sieve(1)
    with pytest.raises(RangeLimitError):
        sieve(10**8 + 1)


def test_factor_profile_examples():
    assert factor_profile(10).factors == (2, 5)
    assert factor_profile(10).omega == 2
    assert factor_profile(8).factors == (2, 2, 2)
    assert factor_profile(8).omega == 3
    assert factor_profile(9409).factors == (97, 97)


def test_factor_profile_domain():
    with pytest.raises(DomainError):
        factor_profile(1)


def test_factor_profile_reconstructs_subject():
    prime_set = set(sieve(1000).primes)
    for x in range(2, 1001):
        profile = factor_profile(x)
        product = 1
        for p in profile.factors:
            assert p in prime_set, (x, p)
            product *= p
        assert product == x
        assert list(profile.factors) == sorted(profile.factors)


def test_is_semiprime_examples():
    assert is_semiprime_oracle(4) == 1
    assert is_semiprime_oracle(12) == 0
    assert is_semiprime_oracle(9991) == 1  # 97 * 103


def test_semiprime_flags_match_trial_division():
    flags = semiprime_flags(3000)
    assert len(flags) == 3001
    assert [x for x in range(3001) if flags[x]] == [
        x for x in range(2, 3001) if is_semiprime_oracle(x)
    ]
    assert semiprime_flags(3) == bytearray(4)
    with pytest.raises(RangeLimitError):
        semiprime_flags(10**7 + 1)


def test_nth_and_next_oracle_scans():
    semis = [x for x in range(2, 2001) if is_semiprime_oracle(x)]
    for n in range(0, semis[-1]):
        assert next_semiprime_oracle(n) == next(x for x in semis if x > n), n
    assert next_semiprime_oracle(10000) == 10001


def test_classical_count_examples():
    assert classical_count(10) == 4
    assert classical_count(100) == 34
    assert classical_count(4) == 1


def test_classical_count_domain():
    # from 1 up, as semiprime_count_by_sieve: no prime p has p * p <= n
    # below 4, so the loop returns 0 there
    with pytest.raises(DomainError):
        classical_count(0)
    for n in (1, 2, 3):
        assert classical_count(n) == semiprime_count_by_sieve(n) == 0, n


def test_counting_oracles_agree_spots():
    for n in (4, 8, 10, 50, 100, 1000, 12345, 10**5):
        assert classical_count(n) == semiprime_count_by_sieve(n), n


@given(st.integers(min_value=4, max_value=3000))
@settings(max_examples=60)
def test_counting_oracles_agree_property(n):
    assert classical_count(n) == semiprime_count_by_sieve(n)


def test_count_by_sieve_small_and_bounds():
    assert semiprime_count_by_sieve(1) == 0
    assert semiprime_count_by_sieve(3) == 0
    assert semiprime_count_by_sieve(4) == 1
    with pytest.raises(RangeLimitError):
        semiprime_count_by_sieve(10**7 + 1)


def test_sieve_matches_formula_table():
    assert sieve(10**4).primes == build_prime_table(10**4).primes
