"""Command-line front-end: classify, count, nth, next, stream, table.

Exit status 0 on success, 1 on an internal mismatch (a --verify cross-check
or a golden-table row disagreeing), 2 on usage, domain, or range errors,
and 141 (128 + SIGPIPE, as a shell reports a tool that a closed pipe
stopped) when the reader of stdout closes it early, with nothing on
stderr.  Other diagnostics go to stderr as a single line.
"""

import argparse
import json
import os
import sys
import time

from . import bench, oracle
from .core import classify, semiprime_count
from .intmath import MAX_COUNT_INPUT, MAX_NTH_INPUT, MAX_STREAM_COUNT
from .sequences import next_semiprime, nth_semiprime, semiprime_stream

OK = 0
MISMATCH = 1
USAGE = 2
CLOSED_PIPE = 141


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE)


def _natural_arg(text):
    # ASCII digits only: str.isdecimal would also pass other scripts' digits
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a base-10 natural number, got {text!r}")
    return int(text, 10)


def _mismatch(message):
    print(f"semiprimes: verification failed: {message}", file=sys.stderr)
    return MISMATCH


def _timed(query, *inputs):
    # the query's answer and the wall-clock seconds it took
    begin = time.perf_counter()
    value = query(*inputs)
    return value, time.perf_counter() - begin


def _emit(args, plain_lines, json_text, csv_header, csv_rows):
    # print one answer in the format args asks for, a line at a time
    if args.format == "plain":
        lines = plain_lines
    elif args.format == "json":
        lines = [json_text]
    else:
        lines = [csv_header, *csv_rows]
    for line in lines:
        print(line)
    return OK


def _emit_result(args, value, method, elapsed):
    # the one-value answer of count, nth and next
    n = args.number
    record = {"input": n, "result": value, "method": method, "elapsed_s": elapsed}
    csv_row = f"{n},{value},{method},{elapsed!r}"
    return _emit(args, [value], json.dumps(record), "input,result,method,elapsed_s", [csv_row])


def _cmd_count(args):
    if args.verify and args.number > oracle.CLASSICAL_COUNT_LIMIT:
        # checked first: the oracle would refuse it only after the count
        raise ValueError(f"count --verify accepts N up to {oracle.CLASSICAL_COUNT_LIMIT}, got {args.number}")
    value, elapsed = _timed(semiprime_count, args.number)
    if args.verify:
        check = oracle.classical_count(args.number)
        if check != value:
            return _mismatch(f"count({args.number}): formula={value} but classical={check}")
    return _emit_result(args, value, "formula", elapsed)


def _cmd_classify(args):
    result, elapsed = _timed(classify, args.number)
    if args.verify:
        omega = oracle.factor_profile(args.number).omega
        if oracle.category_for_omega(omega) is not result.category:
            return _mismatch(
                f"classify({args.number})={result.category.value} but trial division "
                f"finds {omega} prime factors"
            )
    category, trip = result.category.value, result.triple
    record = {
        "input": args.number,
        "result": category,
        "triple": list(trip) if trip else None,
        "method": "formula",
        "elapsed_s": elapsed,
    }
    shown = f"T={trip.t}, K1={trip.k1}, K2={trip.k2}" if trip else "small domain"
    csv_row = ",".join(map(str, (args.number, category, *(trip or ("", "", "")))))
    return _emit(args, [f"{category} ({shown})"], json.dumps(record), "input,category,t,k1,k2", [csv_row])


def _cmd_nth(args):
    n = args.number
    if args.verify and n > oracle.NTH_CHECK_LIMIT:
        # checked first: the answer could pass what classical_count accepts
        raise ValueError(
            f"nth --verify accepts n up to {oracle.NTH_CHECK_LIMIT} "
            f"(answers up to {oracle.CLASSICAL_COUNT_LIMIT}), got {n}"
        )
    value, elapsed = _timed(nth_semiprime, n)
    if args.verify:
        # value is the nth semiprime exactly when it is a semiprime and n
        # semiprimes are <= value
        count = oracle.classical_count(value)
        semiprime = oracle.is_semiprime_oracle(value)
        if count != n or not semiprime:
            return _mismatch(
                f"nth({n})={value} but the classical count there is {count} "
                f"and the semiprime indicator by trial division {semiprime}"
            )
    return _emit_result(args, value, "formula", elapsed)


def _cmd_next(args):
    value, elapsed = _timed(next_semiprime, args.number)
    if args.verify:
        check = oracle.next_semiprime_oracle(args.number)
        if check != value:
            return _mismatch(f"next({args.number})={value} but oracle scan gives {check}")
    return _emit_result(args, value, "scan", elapsed)


def _cmd_stream(args):
    values, elapsed = _timed(semiprime_stream, args.start, args.count)
    record = {"input": args.start, "result": values, "method": "scan", "elapsed_s": elapsed}
    rows = [f"{i},{v}" for i, v in enumerate(values, start=1)]
    return _emit(args, values, json.dumps(record), "index,value", rows)


def _cmd_table(args):
    rows = bench.reproduce_table(args.table_id, max_input=args.max_input)
    plain = [f"{'input':>12} {'expected':>12} {'computed':>12} {'elapsed_s':>12} match"]
    csv_rows = []
    for r in rows:
        flag = "true" if r.match else "false"
        plain.append(f"{r.input:>12} {r.expected:>12} {r.computed:>12} {r.elapsed_s:>12.6f} {flag}")
        csv_rows.append(f"{r.input},{r.expected},{r.computed},{r.elapsed_s!r},{flag}")
    json_text = json.dumps([vars(r) for r in rows], indent=2)
    _emit(args, plain, json_text, "input,expected,computed,elapsed_s,match", csv_rows)
    if all(r.match for r in rows):
        return OK
    return _mismatch(f"table {args.table_id}: one or more rows did not match the expected values")


def _add_format(p):
    p.add_argument(
        "--format", choices=("plain", "json", "csv"), default="plain", help="output format"
    )


def _add_verify(p, what):
    p.add_argument("--verify", action="store_true", help=f"cross-check against {what}; exit 1 on disagreement")


def _build_parser():
    parser = _Parser(prog="semiprimes", description="Semiprime testing, counting and search.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("classify", help="categorize x as prime, semiprime, or 3+ prime factors")
    p.add_argument("number", metavar="x", type=_natural_arg, help="integer >= 2")
    _add_verify(p, "trial-division factoring")
    _add_format(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("count", help="number of semiprimes <= N")
    p.add_argument("number", metavar="N", type=_natural_arg, help="upper bound >= 1")
    _add_verify(p, f"an independent counting route (N up to {oracle.CLASSICAL_COUNT_LIMIT})")
    _add_format(p)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser(
        "nth",
        help="the nth semiprime in ascending order",
        description="The nth semiprime in ascending order.  It counts the "
        "semiprimes up to an estimate of the answer exactly, counts blocks "
        "of integers from there until one reaches n, and picks the answer "
        "off that block's semiprime flags.",
    )
    p.add_argument(
        "number",
        metavar="n",
        type=_natural_arg,
        help=f"ordinal index, 1 .. {MAX_NTH_INPUT} (the semiprimes up to {MAX_COUNT_INPUT})",
    )
    _add_verify(
        p,
        f"the classical count at the answer and trial division of it (n up to "
        f"{oracle.NTH_CHECK_LIMIT})",
    )
    _add_format(p)
    p.set_defaults(handler=_cmd_nth)

    p = sub.add_parser("next", help="smallest semiprime strictly greater than N")
    p.add_argument("number", metavar="N", type=_natural_arg, help="starting point")
    _add_verify(p, "a trial-division scan")
    _add_format(p)
    p.set_defaults(handler=_cmd_next)

    p = sub.add_parser("stream", help="the k semiprimes following a starting point")
    p.add_argument("start", metavar="from", type=_natural_arg, help="starting point >= 4")
    p.add_argument(
        "count", metavar="k", type=_natural_arg, help=f"how many semiprimes to emit, 0 .. {MAX_STREAM_COUNT}"
    )
    _add_format(p)
    p.set_defaults(handler=_cmd_stream)

    p = sub.add_parser("table", help="recompute a golden result table")
    p.add_argument("table_id", metavar="id", type=_natural_arg, choices=(1, 2, 3, 4), help="table number")
    p.add_argument(
        "--max-input",
        type=_natural_arg,
        default=10**6,
        help="skip rows whose input exceeds this (default 10^6; table 2 "
        "has rows up to 10^9)",
    )
    _add_format(p)
    p.set_defaults(handler=_cmd_table)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        # a closed pipe shows here, not in the interpreter's last flush
        sys.stdout.flush()
        return code
    except ValueError as exc:  # DomainError, RangeLimitError, bad table, --verify past its oracle
        print(f"semiprimes: error: {exc}", file=sys.stderr)
        return USAGE
    except BrokenPipeError:
        # the reader closed stdout: what is left in its buffer goes to
        # devnull, so that the interpreter's last flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_PIPE


if __name__ == "__main__":
    raise SystemExit(main())
