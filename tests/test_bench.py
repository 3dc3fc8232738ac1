import json

import pytest

from semiprimes import bench
from semiprimes.bench import CSV_HEADER, reproduce_table, rows_to_csv, rows_to_json


def test_reproduce_table2_capped():
    rows = reproduce_table(2, max_input=10**4)
    assert [r.input for r in rows] == [10, 100, 1000, 10**4]
    assert all(r.match for r in rows)
    assert rows[-1].computed == 2625


def test_reproduce_table4_capped():
    rows = reproduce_table(4, max_input=500)
    assert len(rows) == 5
    assert rows[-1].input == 500
    assert rows[-1].computed == 501
    assert all(r.match for r in rows)


def test_reproduce_table3_capped():
    rows = reproduce_table(3, max_input=100)
    assert len(rows) == 1
    assert rows[0].computed == 314
    assert rows[0].match


def test_reproduce_table1():
    rows = reproduce_table(1)
    gate_rows, ordinal_row = rows[:-1], rows[-1]
    assert [r.input for r in gate_rows] == list(range(8, 15))
    assert [r.computed for r in gate_rows] == [1, 1, 1, 1, 1, 1, 0]
    assert ordinal_row.input == 5
    assert ordinal_row.computed == 14
    assert all(r.match for r in rows)


def test_reproduce_table_unknown_id():
    with pytest.raises(ValueError):
        reproduce_table(5)


def test_reproduce_table_is_deterministic():
    first = [r.computed for r in reproduce_table(3, max_input=300)]
    second = [r.computed for r in reproduce_table(3, max_input=300)]
    assert first == second == [314, 669, 1003]


def test_long_run_rows_are_gated(monkeypatch):
    requested = []

    def fake_count(n):
        requested.append(n)
        return bench.GOLDEN_SEMIPRIME_COUNTS[n]

    monkeypatch.setattr(bench, "semiprime_count", fake_count)
    # max_input alone decides: the default skips the 10^7, 10^8 and 10^9 rows
    for kwargs, top in (({}, 6), ({"max_input": 10**8 - 1}, 7), ({"max_input": 10**8}, 8),
                        ({"max_input": 10**9}, 9)):
        requested.clear()
        assert all(r.match for r in reproduce_table(2, **kwargs))
        assert requested == [10**k for k in range(1, top + 1)], kwargs


def test_row_serialization_schema():
    rows = reproduce_table(4, max_input=200)
    csv_text = rows_to_csv(rows)
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER == "input,expected,computed,elapsed_s,match"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "100" and first[1] == "106" and first[2] == "106" and first[4] == "true"
    assert lines[2].split(",")[:3] == ["200", "201", "201"]
    decoded = json.loads(rows_to_json(rows))
    assert [set(entry) for entry in decoded] == [
        {"input", "expected", "computed", "elapsed_s", "match"}
    ] * 2
    assert decoded[0]["computed"] == 106 and decoded[0]["match"] is True
