import warnings
from itertools import compress, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiprimes import (
    MAX_CLASSIFY_INPUT,
    MAX_COUNT_INPUT,
    MAX_NTH_INPUT,
    DomainError,
    RangeLimitError,
    count_range,
    gate,
    literal,
    next_semiprime,
    nth_semiprime,
    semiprime_count,
    semiprime_stream,
    sequences,
)
from semiprimes.core import SEGMENT
from semiprimes.sequences import SCAN_WIDTH


def test_gate_examples():
    assert gate(5, 4) == 1
    assert gate(5, 5) == 0
    assert gate(1, 0) == 1


def test_gate_exhaustive():
    for n in range(1, 101):
        for x in range(0, 201):
            assert gate(n, x) == (1 if x < n else 0), (n, x)


def test_gate_domain():
    with pytest.raises(DomainError):
        gate(0, 3)
    with pytest.raises(DomainError):
        gate(5, -1)


def test_nth_examples():
    assert nth_semiprime(5) == 14
    assert nth_semiprime(100) == 314
    assert nth_semiprime(1000) == 3595


def test_nth_lookup_cases():
    for nth in (nth_semiprime, literal.nth_semiprime_literal):
        assert nth(1) == 4
        assert nth(2) == 6


def test_nth_domain_and_range():
    with pytest.raises(DomainError):
        nth_semiprime(0)
    with pytest.raises(RangeLimitError):
        nth_semiprime(160_788_537)  # pi2(10^9) + 1: its answer passes the counting range


def test_nth_against_oracle_list(semis_10k):
    for n in (3, 4, 5, 10, 17, 100, 500, 1000, 2000, len(semis_10k)):
        assert nth_semiprime(n) == semis_10k[n - 1], n


def test_nth_modes_agree_small():
    for n in list(range(3, 51)) + [75, 100]:
        assert literal.nth_semiprime_literal(n) == nth_semiprime(n), n


def test_nth_window_is_not_short_in_practice():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for n in range(3, 60):
            nth_semiprime(n)


def test_nth_ordinal_bound_to_1e4(semis_10k):
    # sp_n stays inside the literal sum's window across the whole table
    for n in range(3, len(semis_10k) + 1):
        assert semis_10k[n - 1] <= literal._literal_window(n), n


def _round_trip(flags, x):
    n = semiprime_count(x)
    assert n == flags.count(1, 0, x + 1), x
    assert nth_semiprime(n) == x, (x, n)


def _semiprimes_beside(flags, edge):
    """The last semiprime below edge and the first one at or above it."""
    below = edge - 1
    while not flags[below]:
        below -= 1
    above = edge
    while not flags[above]:
        above += 1
    return below, above


def test_nth_range_limit_is_checked_before_the_walk(monkeypatch):
    def no_walk(lo, hi):
        raise AssertionError(f"counted [{lo}, {hi}]")

    monkeypatch.setattr(sequences, "_count_range", no_walk)
    monkeypatch.setattr(literal, "semiprime_indicator", no_walk)
    for nth in (nth_semiprime, literal.nth_semiprime_literal):
        with pytest.raises(RangeLimitError):
            nth(MAX_NTH_INPUT + 1)
    for n in (MAX_NTH_INPUT, 820):  # their windows pass 1 << 15
        with pytest.raises(RangeLimitError):
            literal.nth_semiprime_literal(n)


def test_nth_past_the_old_float_window():
    # 4*n*ln(n) for this n is 1.34e9, above the counting range; the answer is not
    n = 2 * 10**7
    x = nth_semiprime(n)
    assert count_range(x, x) == 1
    assert semiprime_count(x) == n


def test_nth_round_trip_beside_block_seams(semi_flags_2m):
    # Round trips on both sides of each seam 8 + k*SEGMENT, k = 1..15: fixed
    # places across [8, 2*10^6], one SEGMENT apart.  The semiprime below a
    # seam has n = pi2(seam - 1); the seam itself is even and never a
    # semiprime; seam - 1 is one for some k.
    seams = range(8 + SEGMENT, len(semi_flags_2m), SEGMENT)
    assert len(seams) == 15
    assert any(semi_flags_2m[seam - 1] for seam in seams)
    for seam in seams:
        for x in _semiprimes_beside(semi_flags_2m, seam):
            _round_trip(semi_flags_2m, x)


def test_nth_round_trip_beside_cubes(semi_flags_2m):
    # the block sums split every count at cubes
    for c in [*range(2, 51), 63, 64, 99, 100, 101, 125]:
        for x in _semiprimes_beside(semi_flags_2m, c**3):
            _round_trip(semi_flags_2m, x)


def test_nth_round_trip_at_halving_ends(semi_flags_2m):
    # Round trips at the first and last semiprimes of SCAN_WIDTH-wide
    # intervals [8 + k*SEGMENT + j*SCAN_WIDTH, 8 + k*SEGMENT + (j + 1)*SCAN_WIDTH - 1]:
    # since SEGMENT is a power-of-two multiple of SCAN_WIDTH, these are
    # where halving a SEGMENT-wide block that starts at 8 + k*SEGMENT ends,
    # the widest block the search counts.  Some of the answers sit on an
    # interval's first or last integer.
    per_block = SEGMENT // SCAN_WIDTH
    assert SEGMENT % SCAN_WIDTH == 0 and per_block & (per_block - 1) == 0
    exact = 0
    for k in (0, 1, 3, 7, 14):
        for j in (0, 1, per_block // 2 - 1, per_block // 2, per_block - 1):
            first = 8 + k * SEGMENT + j * SCAN_WIDTH
            last = first + SCAN_WIDTH - 1
            for x in (_semiprimes_beside(semi_flags_2m, first)[1],
                      _semiprimes_beside(semi_flags_2m, last + 1)[0]):
                exact += x in (first, last)
                _round_trip(semi_flags_2m, x)
    assert exact >= 4  # some answers sit on an interval's first or last integer


@given(st.integers(min_value=3, max_value=407_284))  # pi2(2*10^6)
@example(3).via("the first formula index")
@example(7).via("the answer 21 lies 2 below its anchor 23")
@example(9).via("the answer 25 lies 5 below its anchor 30")
@example(324).via("the answer 1111 lies 6 past its anchor 1105")
@example(86_135).via("the answer is 7 + 3*SEGMENT, 112 past its anchor")
@example(86_136).via("the first index past it")
@example(140_279).via("pi2(7 + 5*SEGMENT); the answer is 99 below its anchor")
@example(407_284).via("the top of the oracle flags")
@settings(max_examples=25)
def test_nth_matches_spf_oracle_to_2e6(semi_flags_2m, n):
    assert semi_flags_2m.count(1) == 407_284
    x = nth_semiprime(n)
    assert semi_flags_2m[x] == 1
    assert semi_flags_2m.count(1, 0, x + 1) == n


def _nth_from_flags(flags, n):
    return next(islice(compress(range(len(flags)), flags), n - 1, None))


# n from the first formula index to the top of the 2*10^6 flags, with small
# answers, answers far past SEGMENT and answers on both sides of the anchor
_ANCHOR_SAMPLE = (3, 4, 9, 1000, 86_135, 140_279, 407_284)


@pytest.mark.parametrize(
    "anchor",
    [
        lambda n, x: 8,
        lambda n, x: MAX_COUNT_INPUT,
        lambda n, x: x,
        lambda n, x: x - 1,
        lambda n, x: next_semiprime(x) - 1,  # the last x with pi2(x) = n
    ],
    ids=["8", "MAX_COUNT_INPUT", "the answer", "the answer - 1", "the next semiprime - 1"],
)
def test_nth_does_not_depend_on_the_anchor(semi_flags_2m, monkeypatch, anchor):
    # The anchor only decides where the exact counts start: from below, from
    # above, at the answer, just below it, or past it on a count of exactly n.
    answers = {n: _nth_from_flags(semi_flags_2m, n) for n in _ANCHOR_SAMPLE}
    monkeypatch.setattr(sequences, "_nth_anchor", lambda n: anchor(n, answers[n]))
    for n, x in answers.items():
        assert nth_semiprime(n) == x, n


def test_nth_steps_down_until_the_count_is_below_n(semi_flags_2m, monkeypatch):
    # From the last x with pi2(x) = n, with blocks and halving one integer
    # wide: the downward step must go on past every x with pi2(x - 1) = n,
    # not stop at the first one (n = 4: pi2(13) = pi2(10) = 4, sp_4 = 10).
    answers = {n: _nth_from_flags(semi_flags_2m, n) for n in _ANCHOR_SAMPLE}
    monkeypatch.setattr(sequences, "SCAN_WIDTH", 1)
    monkeypatch.setattr(sequences, "_nth_anchor", lambda n: next_semiprime(answers[n]) - 1)
    for n, x in answers.items():
        assert nth_semiprime(n) == x, n


def test_nth_raises_when_the_scan_disagrees_with_the_counts(monkeypatch):
    # A scan that finds no semiprime in the block the counters chose must
    # fail after that block, not walk on without bound.
    scanned = []

    def no_semiprime(x):
        scanned.append(x)
        return 0, 0, 0

    monkeypatch.setattr(sequences, "_triple_bits", no_semiprime)
    with pytest.raises(RuntimeError, match=r"nth_semiprime\(40000\): the block counts put it in \["):
        nth_semiprime(40_000)
    assert 0 < len(scanned) <= SCAN_WIDTH
    assert scanned == list(range(scanned[0], scanned[-1] + 1))


def test_nth_raises_when_the_block_walk_leaves_the_counting_range(monkeypatch):
    # pi2(100) = 34 from the prefix count, and blocks that count no semiprime
    # walk down to 7, where pi2(7) = 2 < n: the counts disagree.
    monkeypatch.setattr(sequences, "_nth_anchor", lambda n: 100)
    monkeypatch.setattr(sequences, "_count_range", lambda a, b: 0)
    with pytest.raises(RuntimeError, match=r"nth_semiprime\(3\): the block counts give pi2\(7\) = 34"):
        nth_semiprime(3)


def test_nth_raises_when_the_block_walk_disagrees_with_the_prefix_count(monkeypatch):
    # Blocks that count no semiprime would walk on toward 10^9 one narrow
    # block at a time; a prefix count SEGMENT away shows the disagreement.
    blocks = []

    def no_semiprime(a, b):
        blocks.append((a, b))
        return 0

    monkeypatch.setattr(sequences, "_count_range", no_semiprime)
    with pytest.raises(RuntimeError, match=r"nth_semiprime\(300000\): .* the prefix count \d+$"):
        nth_semiprime(300_000)
    assert abs(blocks[-1][0] - blocks[0][0]) <= 2 * SEGMENT


@pytest.mark.parametrize("n", [40_000, 10**7, 10**8, MAX_NTH_INPUT])
def test_nth_takes_one_prefix_count(monkeypatch, n):
    # The anchor lands close enough to sp_n, in the benchmark's prefix band
    # (sp_n near 1.8 * 10^5) and up to the top of the range, that the search
    # closes in by blocks without counting a second prefix.
    counts = []

    def counted(x):
        counts.append(x)
        return prefix_count(x)

    prefix_count = sequences._prefix_count
    monkeypatch.setattr(sequences, "_prefix_count", counted)
    x = nth_semiprime(n)
    assert len(counts) == 1, counts
    assert count_range(x, x) == 1


def test_nth_at_the_top_of_the_range():
    # 999 999 991 = 67 * 14 925 373 is the last semiprime <= 10^9
    assert semiprime_count(10**9) == MAX_NTH_INPUT
    assert nth_semiprime(MAX_NTH_INPUT) == 999_999_991
    assert count_range(999_999_992, 10**9) == 0


def test_next_examples():
    assert next_semiprime(100) == 106
    assert next_semiprime(10000) == 10001
    assert next_semiprime(9) == 10


def test_next_small_domain_scan():
    assert next_semiprime(4) == 6
    assert next_semiprime(5) == 6
    assert next_semiprime(6) == 9
    assert next_semiprime(7) == 9
    assert next_semiprime(8) == 9


def test_next_domain():
    with pytest.raises(DomainError):
        next_semiprime(3)
    with pytest.raises(DomainError):
        literal.next_semiprime_literal(8)  # literal form starts at 9


def test_next_modes_agree():
    for n in range(9, 801):
        assert literal.next_semiprime_literal(n) == next_semiprime(n), n


def test_next_oracle_sweep_to_1e4(semi_flags_10k):
    for n in range(4, 10**4 + 1):
        v = next_semiprime(n)
        assert v > n, n
        assert semi_flags_10k[v], n
        assert not any(semi_flags_10k[m] for m in range(n + 1, v)), n


def test_stream_examples():
    assert semiprime_stream(4, 5) == [6, 9, 10, 14, 15]
    assert semiprime_stream(14, 1) == [15]
    assert semiprime_stream(100, 1) == [106]


def test_stream_empty_and_domain():
    assert semiprime_stream(4, 0) == []
    with pytest.raises(DomainError):
        semiprime_stream(3, 1)


def test_stream_matches_oracle(semis_10k):
    assert semiprime_stream(4, len(semis_10k) - 1) == semis_10k[1:]
    assert semiprime_stream(5, 3) == semis_10k[1:4]


def test_successor_search_stops_at_classification_limit():
    with pytest.raises(RangeLimitError):
        next_semiprime(MAX_CLASSIFY_INPUT)
    with pytest.raises(RangeLimitError):
        semiprime_stream(MAX_CLASSIFY_INPUT - 100, 50)  # about a dozen are left
    assert semiprime_stream(MAX_CLASSIFY_INPUT - 100, 1) == [999_999_999_901]
    # 5507 * 181587071, the largest semiprime <= 10^12
    assert next_semiprime(999_999_999_996) == 999_999_999_997
    for n in (999_999_999_997, MAX_CLASSIFY_INPUT + 1):
        with pytest.raises(RangeLimitError):
            next_semiprime(n)
    with pytest.raises(RangeLimitError):
        semiprime_stream(MAX_CLASSIFY_INPUT + 1, 0)
    assert semiprime_stream(MAX_CLASSIFY_INPUT, 0) == []
