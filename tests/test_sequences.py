import warnings
from itertools import compress, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiprimes import (
    MAX_CLASSIFY_INPUT,
    MAX_COUNT_INPUT,
    MAX_NTH_INPUT,
    MAX_STREAM_COUNT,
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
from semiprimes.core import SEGMENT, _triple_bits


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

    monkeypatch.setattr(sequences, "_semiprime_flags", no_walk)
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
    # the block sums split every count at the cubes of the primes, and the
    # composite cubes lie inside one piece
    for c in [*range(2, 51), 63, 64, 99, 100, 101, 125]:
        for x in _semiprimes_beside(semi_flags_2m, c**3):
            _round_trip(semi_flags_2m, x)


def _final_block(monkeypatch, n, anchor):
    """nth_semiprime(n) searched from anchor, and the last block whose flags
    it took: the block it picked the answer from."""
    blocks, semiprime_flags = [], sequences._semiprime_flags

    def recorded(a, b):
        blocks.append((a, b))
        return semiprime_flags(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(sequences, "_semiprime_flags", recorded)
        patch.setattr(sequences, "_nth_anchor", lambda n: anchor)
        return nth_semiprime(n), blocks[-1]


def test_nth_round_trip_at_final_block_ends(semi_flags_2m, monkeypatch):
    # From pi2(x - 1) = n - 1 the search takes the block upward from x, and
    # from pi2(x) = n downward to x: the answer is the final block's first
    # or last integer, beside seams, cubes and the top of the flags.
    answers = [_semiprimes_beside(semi_flags_2m, edge)[1]
               for edge in (9, 8 + SEGMENT, 100**3, 125**3, 2 * 10**6 - 100)]
    for x in answers:
        n = semi_flags_2m.count(1, 0, x + 1)
        _round_trip(semi_flags_2m, x)
        found, (a, b) = _final_block(monkeypatch, n, x - 1)
        assert found == x == a, (x, a, b)
        found, (a, b) = _final_block(monkeypatch, n, x)
        assert found == x == b, (x, a, b)


def test_nth_round_trip_at_a_join_inside_the_final_block(semi_flags_2m, monkeypatch):
    # The window pass splits a block at the cube of each prime, so the
    # flags the answer is picked from join there: answers on both sides of
    # a cube, from an anchor just below both.  Composite cubes lie inside
    # one piece.
    for c in (3, 5, 10, 11, 47, 50, 97, 99, 100, 101, 113, 125):
        for x in _semiprimes_beside(semi_flags_2m, c**3):
            n = semi_flags_2m.count(1, 0, x + 1)
            found, (a, b) = _final_block(monkeypatch, n, min(x, c**3) - 2)
            assert found == x and a < c**3 <= b, (c, x, a, b)


def test_nth_round_trip_at_a_segment_join_inside_the_final_block(monkeypatch):
    # The window pass also ends a piece at a + SEGMENT - 1, but the search's
    # blocks are at most SEGMENT wide, and below 83^3 the prime cubes cut
    # first; so only a wider block limit, near 999 * 10^6 (above 997^3,
    # the last prime cube below 10^9), puts that join inside the final
    # block.  From an anchor SEGMENT + 1 below x, x is the first integer
    # after the join; from SEGMENT below, the last before it.
    x = next_semiprime(999_000_000)
    n = semiprime_count(x)
    monkeypatch.setattr(sequences, "SEGMENT", 3 * SEGMENT)
    for anchor, join in ((x - SEGMENT - 1, x), (x - SEGMENT, x + 1)):
        found, (a, b) = _final_block(monkeypatch, n, anchor)
        assert found == x and a + SEGMENT == join <= b, (anchor, a, b)


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
    # From the last x with pi2(x) = n: the downward step must go on past
    # every x with pi2(x - 1) = n, not stop at the first one (n = 4:
    # pi2(13) = pi2(10) = 4, sp_4 = 10).
    answers = {n: _nth_from_flags(semi_flags_2m, n) for n in _ANCHOR_SAMPLE}
    monkeypatch.setattr(sequences, "_nth_anchor", lambda n: next_semiprime(answers[n]) - 1)
    for n, x in answers.items():
        assert nth_semiprime(n) == x, n


def test_nth_raises_when_the_scan_disagrees_with_the_counts(monkeypatch):
    # The integer picked off the flags is checked by one indicator triple:
    # a triple that says it is no semiprime stops the search at once.
    answer = nth_semiprime(40_000)
    checked = []

    def no_semiprime(x):
        checked.append(x)
        return 0, 0, 0

    monkeypatch.setattr(sequences, "_triple_bits", no_semiprime)
    with pytest.raises(RuntimeError, match=rf"nth_semiprime\(40000\): .* at {answer}, which"):
        nth_semiprime(40_000)
    assert checked == [answer]


def test_nth_raises_when_the_block_walk_leaves_the_counting_range(monkeypatch):
    # pi2(100) = 34 from the prefix count, and blocks that count no semiprime
    # walk down to 7, where pi2(7) = 2 < n: the counts disagree.
    monkeypatch.setattr(sequences, "_nth_anchor", lambda n: 100)
    monkeypatch.setattr(sequences, "_semiprime_flags", lambda a, b: bytes(b - a + 1))
    with pytest.raises(RuntimeError, match=r"nth_semiprime\(3\): the block counts give pi2\(7\) = 34"):
        nth_semiprime(3)


def test_nth_raises_when_the_block_walk_disagrees_with_the_prefix_count(monkeypatch):
    # Blocks that count no semiprime would walk on toward 10^9 one narrow
    # block at a time; a prefix count SEGMENT away shows the disagreement.
    blocks = []

    def no_semiprime(a, b):
        blocks.append((a, b))
        return bytes(b - a + 1)

    monkeypatch.setattr(sequences, "_semiprime_flags", no_semiprime)
    with pytest.raises(RuntimeError, match=r"nth_semiprime\(300000\): .* the prefix count \d+$"):
        nth_semiprime(300_000)
    assert abs(blocks[-1][0] - blocks[0][0]) <= 2 * SEGMENT


#: The indices whose answers lie in the benchmark's prefix band,
#: 1.2..2.6 * 10^5: pi2(120 000) = 27 844 and pi2(260 000) = 58 078.
_BAND = range(27_845, 58_079)


def _search_cost(monkeypatch, n):
    """nth_semiprime(n), and the prefix counts and blocks its search took."""
    counts, blocks = [], []
    prefix_count, semiprime_flags = sequences._prefix_count, sequences._semiprime_flags

    def counted(x):
        counts.append(x)
        return prefix_count(x)

    def flagged(a, b):
        blocks.append((a, b))
        return semiprime_flags(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(sequences, "_prefix_count", counted)
        patch.setattr(sequences, "_semiprime_flags", flagged)
        return nth_semiprime(n), counts, blocks


def test_nth_anchor_lies_near_the_answer_in_the_band(semi_flags_2m):
    # The module docstring's claim for the band, at every index in it: the
    # anchor lies within 300 integers of sp_n, and half of the anchors
    # within 70.  The block the search counts first is sized to the step
    # from the anchor, so its cost rests on this.
    answers = list(compress(range(len(semi_flags_2m)), semi_flags_2m))
    assert answers[_BAND[0] - 2] <= 120_000 < answers[_BAND[0] - 1]
    assert answers[_BAND[-1] - 1] <= 260_000 < answers[_BAND[-1]]
    errors = sorted(abs(sequences._nth_anchor(n) - answers[n - 1]) for n in _BAND)
    assert errors[-1] <= 300, errors[-1]
    assert errors[len(errors) // 2] <= 70, errors[len(errors) // 2]


@pytest.mark.parametrize(
    "n, answer",
    [
        (210_035, 999_997),  # pi2(10^6)
        (1_904_324, 9_999_998),  # pi2(10^7)
        (17_427_258, 99_999_997),  # pi2(10^8)
        (10**8, 611_720_495),
        (MAX_NTH_INPUT, 999_999_991),  # pi2(10^9)
    ],
)
def test_nth_anchor_lies_near_the_answer_above_a_million(n, answer):
    # The module docstring's claim from 10^6 to 10^9: the anchor lies
    # within 0.15 SEGMENT of sp_n, so the first step is a block, not a
    # second prefix count.  Each answer is checked by the two counters.
    assert count_range(answer, answer) == 1
    assert semiprime_count(answer) == n
    assert abs(sequences._nth_anchor(n) - answer) <= 0.15 * SEGMENT


@pytest.mark.parametrize("n", [40_000, 1_904_324, 10**7, 17_427_258, 10**8, MAX_NTH_INPUT])
def test_nth_takes_one_prefix_count(monkeypatch, n):
    # The anchor lands close enough to sp_n, in the benchmark's prefix band
    # (sp_n near 1.8 * 10^5) and up to the top of the range, that the search
    # closes in by blocks without counting a second prefix; and the first
    # block, the step plus a quarter of it above 10^6, holds sp_n.
    x, counts, blocks = _search_cost(monkeypatch, n)
    assert len(counts) == 1, counts
    assert len(blocks) == 1, blocks
    assert count_range(x, x) == 1


def test_nth_search_cost_across_the_band(monkeypatch):
    # Every index in the band takes one prefix count, at its anchor, and
    # one block, but for 367 of its 30 234 indices (1.2 %) whose step
    # falls more than the block's margin short of sp_n; those take a second
    # block and never a third.  A narrower margin, or an anchor or step
    # that strays further, shows here as more second blocks.
    second = []
    for n in _BAND:
        x, counts, blocks = _search_cost(monkeypatch, n)
        assert counts == [sequences._nth_anchor(n)], (n, counts)
        assert len(blocks) <= 2, (n, blocks)
        if len(blocks) == 2:
            second.append(n)
    assert len(second) <= 367, len(second)
    assert 28_009 in second  # the first; CI checks it with nth --verify


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


def _semiprimes_by_triples(lo, hi):
    """Every semiprime in [lo, hi] (lo >= 8), one indicator triple each."""
    xs = range(lo, hi + 1)
    return [x for x, (tb, k1b, k2b) in zip(xs, map(_triple_bits, xs)) if k1b + k2b - tb]


@pytest.mark.parametrize(
    "lo, hi",
    [
        (101**3 - 150, 101**3 + 150),  # 101^3 itself: the prime 101 joins at the cube
        (1000**3 - 150, 1000**3 + 150),
        (1682**3 - 150, 1682**3 + 150),  # the cube piece that holds 4 759 123 141
        (9999**3 - 150, 9999**3 + 150),
        (4_759_123_141 - 150, 4_759_123_141 + 150),  # the strong test's base switch
        (MAX_CLASSIFY_INPUT - 300, MAX_CLASSIFY_INPUT),
    ],
    ids=["101^3", "1000^3", "1682^3", "9999^3", "base switch", "10^12"],
)
def test_walk_matches_the_triples(lo, hi):
    # The walk takes icbrt once per cube piece; the stream from lo - 1 must
    # list the semiprimes that one triple per integer finds, across the edge.
    expected = _semiprimes_by_triples(lo, hi)
    assert len(expected) > 10
    assert semiprime_stream(lo - 1, len(expected)) == expected
    if hi < MAX_CLASSIFY_INPUT:
        assert next_semiprime(expected[-1]) > hi
    else:
        with pytest.raises(RangeLimitError):
            next_semiprime(expected[-1])


def test_next_lands_on_the_base_switch():
    # 4 759 123 141 = 48781 * 97561 passes the strong test to 2, 7 and 61
    assert next_semiprime(4_759_123_140) == 4_759_123_141


def test_stream_examples():
    assert semiprime_stream(4, 5) == [6, 9, 10, 14, 15]
    assert semiprime_stream(14, 1) == [15]
    assert semiprime_stream(100, 1) == [106]


def test_stream_empty_and_domain():
    assert semiprime_stream(4, 0) == []
    with pytest.raises(DomainError):
        semiprime_stream(3, 1)


def test_stream_count_is_capped_before_the_walk(monkeypatch):
    # MAX_STREAM_COUNT passes the cap: near the top of the classification
    # range the walk itself then stops at the limit.  One more is refused
    # before the walk starts.
    with pytest.raises(RangeLimitError, match="classification limit"):
        semiprime_stream(MAX_CLASSIFY_INPUT - 100, MAX_STREAM_COUNT)

    def no_walk(n):
        raise AssertionError(f"walked from {n}")

    monkeypatch.setattr(sequences, "_semiprimes_after", no_walk)
    with pytest.raises(RangeLimitError, match=f"count up to {MAX_STREAM_COUNT}"):
        semiprime_stream(4, MAX_STREAM_COUNT + 1)


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
