import json
import os
import re
import subprocess
import sys

import pytest

from semiprimes import MAX_STREAM_COUNT, bench, cli, nth_semiprime, oracle, semiprime_count


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _table_json(*rows, match="true"):
    # the table's indented JSON text, one (input, expected, computed) per row
    return "[\n" + ",\n".join(
        f'  {{\n    "input": {x},\n    "expected": {e},\n    "computed": {c},\n'
        f'    "elapsed_s": T,\n    "match": {match}\n  }}'
        for x, e, c in rows
    ) + "\n]\n"


_TABLE_HEAD = "       input     expected     computed    elapsed_s match\n"
_TABLE_1 = ((8, 1, 1), (9, 1, 1), (10, 1, 1), (11, 1, 1), (12, 1, 1), (13, 1, 1), (14, 0, 0), (5, 14, 14))
_TABLE_4 = (
    (100, 106, 106), (200, 201, 201), (300, 301, 301), (400, 403, 403),
    (500, 501, 501), (1000, 1003, 1003), (5000, 5001, 5001), (10000, 10001, 10001),
)

def _masked(out):
    # every elapsed time (a float, in fixed-point or exponent form) read as T
    return re.sub(r"\d+(\.\d+)?e[-+]\d+|\d+\.\d+", "T", out)


# The stdout of every command in each format, with every elapsed time
# read as T.
_STDOUT = {
    ("count 100", "plain"): "34\n",
    ("count 100", "json"): '{"input": 100, "result": 34, "method": "formula", "elapsed_s": T}\n',
    ("count 100", "csv"): "input,result,method,elapsed_s\n100,34,formula,T\n",
    ("nth 5", "plain"): "14\n",
    ("nth 5", "json"): '{"input": 5, "result": 14, "method": "formula", "elapsed_s": T}\n',
    ("nth 5", "csv"): "input,result,method,elapsed_s\n5,14,formula,T\n",
    ("next 10", "plain"): "14\n",
    ("next 10", "json"): '{"input": 10, "result": 14, "method": "scan", "elapsed_s": T}\n',
    ("next 10", "csv"): "input,result,method,elapsed_s\n10,14,scan,T\n",
    ("classify 13", "plain"): "prime (T=1, K1=1, K2=0)\n",
    ("classify 13", "json"): '{"input": 13, "result": "prime", "triple": [1, 1, 0], '
    '"method": "formula", "elapsed_s": T}\n',
    ("classify 13", "csv"): "input,category,t,k1,k2\n13,prime,1,1,0\n",
    ("classify 14", "plain"): "semiprime (T=0, K1=0, K2=1)\n",
    ("classify 14", "json"): '{"input": 14, "result": "semiprime", "triple": [0, 0, 1], '
    '"method": "formula", "elapsed_s": T}\n',
    ("classify 14", "csv"): "input,category,t,k1,k2\n14,semiprime,0,0,1\n",
    ("classify 4", "plain"): "semiprime (small domain)\n",
    ("classify 4", "json"): '{"input": 4, "result": "semiprime", "triple": null, '
    '"method": "formula", "elapsed_s": T}\n',
    ("classify 4", "csv"): "input,category,t,k1,k2\n4,semiprime,,,\n",
    ("stream 4 5", "plain"): "6\n9\n10\n14\n15\n",
    ("stream 4 5", "json"): '{"input": 4, "result": [6, 9, 10, 14, 15], "method": "scan", "elapsed_s": T}\n',
    ("stream 4 5", "csv"): "index,value\n1,6\n2,9\n3,10\n4,14\n5,15\n",
    ("stream 4 0", "plain"): "",
    ("stream 4 0", "json"): '{"input": 4, "result": [], "method": "scan", "elapsed_s": T}\n',
    ("stream 4 0", "csv"): "index,value\n",
    ("table 1", "plain"): _TABLE_HEAD
    + "".join(f"{x:>12} {e:>12} {c:>12}     T true\n" for x, e, c in _TABLE_1),
    ("table 1", "json"): _table_json(*_TABLE_1),
    ("table 1", "csv"): "input,expected,computed,elapsed_s,match\n"
    + "".join(f"{x},{e},{c},T,true\n" for x, e, c in _TABLE_1),
    ("table 4", "plain"): _TABLE_HEAD
    + "".join(f"{x:>12} {e:>12} {c:>12}     T true\n" for x, e, c in _TABLE_4),
    ("table 4", "json"): _table_json(*_TABLE_4),
    ("table 4", "csv"): "input,expected,computed,elapsed_s,match\n"
    + "".join(f"{x},{e},{c},T,true\n" for x, e, c in _TABLE_4),
}


@pytest.mark.parametrize("command, fmt", list(_STDOUT), ids=lambda v: v.replace(" ", "-"))
def test_stdout_of_every_command_in_every_format(capsys, command, fmt):
    # the exact bytes each format prints, elapsed times aside; plain table
    # rows print elapsed_s 12 wide with 6 decimals, so T keeps 4 spaces
    code, out, err = run_cli(capsys, *command.split(), "--format", fmt)
    assert (code, err) == (0, "")
    assert _masked(out) == _STDOUT[command, fmt]
    if fmt == "json":
        # the elapsed times the pattern masks are JSON numbers too
        json.loads(out)


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_table_row_that_does_not_match(capsys, monkeypatch, fmt):
    # every row of table 4 off by one: each shows false, the command exits
    # 1 and says so in one line on stderr
    next_semiprime = bench.next_semiprime
    monkeypatch.setattr(bench, "next_semiprime", lambda n: next_semiprime(n) + 1)
    rows = [(x, e, e + 1) for x, e, _ in _TABLE_4]
    expected = {
        "plain": _TABLE_HEAD + "".join(f"{x:>12} {e:>12} {c:>12}     T false\n" for x, e, c in rows),
        "json": _table_json(*rows, match="false"),
        "csv": "input,expected,computed,elapsed_s,match\n"
        + "".join(f"{x},{e},{c},T,false\n" for x, e, c in rows),
    }[fmt]
    code, out, err = run_cli(capsys, "table", "4", "--format", fmt)
    assert code == 1
    assert _masked(out) == expected
    assert err == "semiprimes: verification failed: table 4: one or more rows did not match the expected values\n"


def test_count_plain(capsys):
    assert run_cli(capsys, "count", "100") == (0, "34\n", "")


def test_classify_plain(capsys):
    assert run_cli(capsys, "classify", "14") == (0, "semiprime (T=0, K1=0, K2=1)\n", "")
    assert run_cli(capsys, "classify", "13") == (0, "prime (T=1, K1=1, K2=0)\n", "")
    assert run_cli(capsys, "classify", "30")[1] == "composite-many-factors (T=0, K1=0, K2=0)\n"
    assert run_cli(capsys, "classify", "4") == (0, "semiprime (small domain)\n", "")


def test_nth_next_plain(capsys):
    assert run_cli(capsys, "nth", "5") == (0, "14\n", "")
    assert run_cli(capsys, "next", "10000") == (0, "10001\n", "")


def test_stream_plain(capsys):
    assert run_cli(capsys, "stream", "4", "5") == (0, "6\n9\n10\n14\n15\n", "")


def test_count_methods_agree(capsys):
    # the formula's count against the independent --verify route
    for n in ("50", "100", "777", "5000"):
        assert run_cli(capsys, "count", n, "--verify")[0] == 0, n


def test_count_json(capsys):
    code, out, _ = run_cli(capsys, "count", "100", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["input"] == 100
    assert payload["result"] == 34
    assert payload["method"] == "formula"
    assert isinstance(payload["elapsed_s"], float)


def test_nth_names_the_formula_route(capsys):
    # nth_semiprime counts and picks, as count does, the lookup answers too;
    # next still walks integer by integer
    for n, value in (("5", 14), ("1", 4)):
        code, out, _ = run_cli(capsys, "nth", n, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["result"], payload["method"]) == (value, "formula")
    _, out, _ = run_cli(capsys, "nth", "5", "--format", "csv")
    assert out.split("\n")[1].startswith("5,14,formula,")
    assert json.loads(run_cli(capsys, "next", "10", "--format", "json")[1])["method"] == "scan"


def test_classify_json_and_csv(capsys):
    payload = json.loads(run_cli(capsys, "classify", "14", "--format", "json")[1])
    assert payload["result"] == "semiprime"
    assert payload["triple"] == [0, 0, 1]
    payload = json.loads(run_cli(capsys, "classify", "4", "--format", "json")[1])
    assert payload["triple"] is None
    _, out, _ = run_cli(capsys, "classify", "14", "--format", "csv")
    assert out == "input,category,t,k1,k2\n14,semiprime,0,0,1\n"


def test_stream_csv_empty_has_header_only(capsys):
    assert run_cli(capsys, "stream", "4", "0", "--format", "csv")[1] == "index,value\n"


def test_count_csv(capsys):
    _, out, _ = run_cli(capsys, "count", "100", "--format", "csv")
    header, row = out.strip().split("\n")
    assert header == "input,result,method,elapsed_s"
    assert row.startswith("100,34,formula,")


def test_removed_flags_are_usage_errors(capsys):
    for argv in (["count", "10", "--threads", "2"], ["table", "2", "--long-run"],
                 ["nth", "5", "--mode", "scan"], ["next", "100", "--mode", "literal"],
                 ["count", "10", "--method", "classical"]):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        _, err = capsys.readouterr()
        assert len(err.strip().splitlines()) == 1, argv


def test_table_command(capsys):
    code, out, err = run_cli(capsys, "table", "2", "--max-input", "1000")
    assert code == 0 and err == ""
    assert out.splitlines()[0].split() == ["input", "expected", "computed", "elapsed_s", "match"]
    code, out, _ = run_cli(capsys, "table", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "input,expected,computed,elapsed_s,match"
    assert len(out.splitlines()) == 1 + 8


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["computed"] for r in rows[:-1]] == [1, 1, 1, 1, 1, 1, 0]
    assert rows[-1]["computed"] == 14
    assert all(r["match"] for r in rows)


def test_usage_errors_exit_2(capsys):
    for argv in (["count", "abc"], ["count", "-5"], ["count"], ["frobnicate", "3"],
                 ["table", "9"], []):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        _, err = capsys.readouterr()
        assert err.strip(), argv  # one-line diagnostic on stderr
        assert len(err.strip().splitlines()) == 1, argv


def test_non_ascii_digits_exit_2(capsys):
    # str.isdecimal accepts these; the CLI takes ASCII digits only
    for text in ("\u0663", "\u00b2", "\uff11\uff12"):  # Arabic-Indic 3, superscript 2, fullwidth 12
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["count", text])
        assert excinfo.value.code == 2, text
        _, err = capsys.readouterr()
        assert len(err.strip().splitlines()) == 1, text
    for text in ("\u0663", " +4"):  # int() would read these as tables 3 and 4
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["table", text])
        assert excinfo.value.code == 2, text
        _, err = capsys.readouterr()
        assert len(err.strip().splitlines()) == 1, text
    result = subprocess.run(
        [sys.executable, "-m", "semiprimes", "count", "\u0663"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.strip().splitlines()) == 1


def test_domain_errors_exit_2(capsys):
    for argv in (["count", "0"], ["classify", "1"], ["nth", "0"], ["next", "3"],
                 ["stream", "3", "1"], ["count", "10000000000"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert len(err.strip().splitlines()) == 1, argv


def test_verify_passes_when_routes_agree(capsys):
    assert run_cli(capsys, "count", "100", "--verify")[0] == 0
    assert run_cli(capsys, "count", "2", "--verify")[0] == 0  # the classical count is 0 below 4
    assert run_cli(capsys, "classify", "14", "--verify")[0] == 0
    assert run_cli(capsys, "nth", "100", "--verify")[0] == 0
    assert run_cli(capsys, "next", "100", "--verify")[0] == 0


def test_count_verify_past_its_oracle_fails_first(capsys, monkeypatch):
    # the classical oracle stops at 2*10^8; the CLI refuses before counting
    def no_count(n):
        raise AssertionError(f"counted {n}")

    monkeypatch.setattr(cli, "semiprime_count", no_count)
    code, out, err = run_cli(capsys, "count", "300000000", "--verify")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "--verify" in err and "200000000" in err


def test_nth_verify_past_its_oracle_fails_first(capsys, monkeypatch):
    # NTH_CHECK_LIMIT semiprimes are <= 2*10^8, where the classical count
    # stops, and the next one is past it; the CLI refuses a larger n before
    # the search
    limit = oracle.NTH_CHECK_LIMIT
    assert semiprime_count(oracle.CLASSICAL_COUNT_LIMIT) == limit
    assert nth_semiprime(limit) <= oracle.CLASSICAL_COUNT_LIMIT < nth_semiprime(limit + 1)

    def no_search(n):
        raise AssertionError(f"searched for {n}")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "nth_semiprime", no_search)
        code, out, err = run_cli(capsys, "nth", str(limit + 1), "--verify")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "--verify" in err and str(limit) in err
    # the limit itself passes the refusal; its classical count, a sieve to
    # 10^8, is stood in for
    monkeypatch.setattr(cli, "nth_semiprime", lambda n: 199_999_997)
    monkeypatch.setattr(cli.oracle, "classical_count", {199_999_997: limit}.get)
    assert run_cli(capsys, "nth", str(limit), "--verify") == (0, "199999997\n", "")


def test_nth_verify_is_bounded_by_the_answer(capsys):
    # the check sieves to half the answer and trial-divides it, instead of
    # factoring every integer up to it
    assert run_cli(capsys, "nth", "100000", "--verify") == (0, "459577\n", "")


def test_stream_count_past_its_cap_exits_2(capsys):
    code, out, err = run_cli(capsys, "stream", "4", str(MAX_STREAM_COUNT + 1))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert str(MAX_STREAM_COUNT) in err


def test_verify_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli.oracle, "classical_count", lambda n: 0)
    code, out, err = run_cli(capsys, "count", "100", "--verify")
    assert code == 1
    assert out == ""
    assert "verification failed" in err and "classical=0" in err
    # the same oracle checks the counts below 4
    monkeypatch.setattr(cli.oracle, "classical_count", lambda n: 1)
    code, out, err = run_cli(capsys, "count", "2", "--verify")
    assert (code, out) == (1, "")
    assert "classical=1" in err


def test_verify_nth_next_mismatch_exits_1(capsys, monkeypatch):
    # nth is checked by the classical count at its answer and by trial
    # division of it; each failing alone is a mismatch
    with monkeypatch.context() as patch:
        patch.setattr(cli.oracle, "classical_count", lambda n: 0)
        patch.setattr(cli.oracle, "next_semiprime_oracle", lambda n: 0)
        for argv in (["nth", "100", "--verify"], ["next", "100", "--verify"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1, argv
            assert out == ""
            assert "verification failed" in err
    monkeypatch.setattr(cli.oracle, "is_semiprime_oracle", lambda x: 0)
    code, out, err = run_cli(capsys, "nth", "100", "--verify")
    assert (code, out) == (1, "")
    assert "verification failed" in err


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "classify", "997")
    assert first == run_cli(capsys, "classify", "997")
    a = json.loads(run_cli(capsys, "count", "360", "--format", "json")[1])
    b = json.loads(run_cli(capsys, "count", "360", "--format", "json")[1])
    a.pop("elapsed_s"), b.pop("elapsed_s")
    assert a == b


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_quietly(buffered):
    # A reader that takes one line of a long stream and closes the pipe, and
    # one that closed it before the first write: exit 128 + SIGPIPE, with
    # nothing on stderr, whether stdout is block-buffered or not.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "semiprimes"]
    proc = subprocess.Popen(
        [*argv, "stream", "4", "100000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    assert proc.stdout.readline() == b"6\n"
    proc.stdout.close()
    assert proc.wait() == cli.CLOSED_PIPE == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run([*argv, "classify", "14"], stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (141, b"")


def test_python_m_invocation():
    result = subprocess.run(
        [sys.executable, "-m", "semiprimes", "count", "100"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "34\n"
