"""Golden-table reproduction with CSV/JSON row serialization.

The embedded expected values are reference results for the counting, ordinal
and successor queries; reproduce_table recomputes each row and records
whether it matches.  Wall-clock columns are informational only and are never
asserted anywhere: they depend on the host, the counted values do not.
"""

import json
import time
from dataclasses import dataclass

from .core import semiprime_count
from .intmath import bounded
from .sequences import gate, next_semiprime, nth_semiprime

GOLDEN_SEMIPRIME_COUNTS = {
    10: 4,
    100: 34,
    1000: 299,
    10**4: 2625,
    10**5: 23378,
    10**6: 210035,
    10**7: 1904324,
    10**8: 17427258,
    10**9: 160788536,
}

GOLDEN_NTH_SEMIPRIMES = {
    100: 314,
    200: 669,
    300: 1003,
    400: 1355,
    500: 1735,
    600: 2098,
    700: 2474,
    800: 2866,
    900: 3202,
    1000: 3595,
    5000: 19643,
    10000: 40882,
}

GOLDEN_NEXT_SEMIPRIMES = {
    100: 106,
    200: 201,
    300: 301,
    400: 403,
    500: 501,
    1000: 1003,
    5000: 5001,
    10000: 10001,
}

#: gate(5, semiprime_count(x)) for x = 8..14: the worked derivation of the
#: fifth semiprime, whose terms flip from 1 to 0 as the count reaches 5.
GOLDEN_GATE_COLUMN = {8: 1, 9: 1, 10: 1, 11: 1, 12: 1, 13: 1, 14: 0}
GOLDEN_FIFTH_SEMIPRIME = 14

CSV_HEADER = "input,expected,computed,elapsed_s,match"


@dataclass(frozen=True)
class TableRow:
    input: int
    expected: int
    computed: int
    elapsed_s: float
    match: bool


def _timed_row(value, expected, fn):
    begin = time.perf_counter()
    computed = fn(value)
    elapsed = time.perf_counter() - begin
    return TableRow(value, expected, computed, elapsed, computed == expected)


def reproduce_table(table_id: int, max_input: int = 10**6) -> list:
    """Recompute one golden table, skipping rows whose input exceeds max_input.

    Table 1 is the fifth-semiprime derivation: the gate column for x = 8..14
    plus a final row checking the ordinal query itself (input 5, expected 14).
    Table 2 is semiprime counts at powers of ten (the 10^7, 10^8 and 10^9
    rows only when max_input reaches them), table 3 the nth-semiprime
    values, table 4 the next-semiprime values.
    """
    table_id = bounded(table_id, "reproduce_table", "table_id", 1, 4)
    max_input = bounded(max_input, "reproduce_table", "max_input", 0)
    if table_id == 1:
        rows = [
            _timed_row(x, expected, lambda v: gate(5, semiprime_count(v)))
            for x, expected in GOLDEN_GATE_COLUMN.items()
            if x <= max_input
        ]
        if 5 <= max_input:
            rows.append(_timed_row(5, GOLDEN_FIFTH_SEMIPRIME, nth_semiprime))
        return rows
    if table_id == 2:
        return [
            _timed_row(v, e, semiprime_count)
            for v, e in sorted(GOLDEN_SEMIPRIME_COUNTS.items())
            if v <= max_input
        ]
    if table_id == 3:
        return [
            _timed_row(n, e, nth_semiprime)
            for n, e in sorted(GOLDEN_NTH_SEMIPRIMES.items())
            if n <= max_input
        ]
    return [
        _timed_row(n, e, next_semiprime)
        for n, e in sorted(GOLDEN_NEXT_SEMIPRIMES.items())
        if n <= max_input
    ]


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.input},{r.expected},{r.computed},{r.elapsed_s!r},{'true' if r.match else 'false'}"
        )
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    return json.dumps(
        [
            {
                "input": r.input,
                "expected": r.expected,
                "computed": r.computed,
                "elapsed_s": r.elapsed_s,
                "match": r.match,
            }
            for r in rows
        ],
        indent=2,
    )
