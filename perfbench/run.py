"""Benchmark for the semiprimes package: one workload per call.

    python3 perfbench/run.py --workload count --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout (it imports ``src/semiprimes``).
The workload runs in a child process (worker.py), one query at a time, one
caller, single-threaded.  This process only waits while the child is
measured, then checks every answer with the benchmark's own checkers
(checkers.py); a wrong answer or an exception is a failed operation.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs a fixed number of rounds twice, once
plain and once under cProfile in a fresh process, and reports the per-layer
metrics.  README.md describes both sets.  Each run also writes its raw
figures to perfbench/out/.
"""

import argparse
import json
import math
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checkers
import workloads
from worker import REF_NOMINAL_S, reference_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-up is timed in this many fresh processes per run; the median is reported.
SETUP_SAMPLES = 5
#: Rounds of the traced run; fixed, so that its counts repeat exactly per seed.
TRACE_ROUNDS = {"count": 12, "prefix": 12, "point": 16}
#: A worker that has not finished by then is killed and the run fails.
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(workload, seed, *extra, deadline):
    """Start worker.py; return (set-up seconds, its result or None)."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"worker-{workload}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--out", str(out), *extra]
    begin = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.perf_counter(), 0))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - begin
        if line.strip() != "ready":
            raise BenchError(f"worker for {workload} did not get ready (output {line!r})")
        proc.wait(timeout=max(deadline - time.perf_counter(), 0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {workload} ran past its deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited with code {proc.returncode}")
    if not out.exists():
        return setup_s, None
    result = json.loads(out.read_text())
    out.unlink()
    return setup_s, result


class Checker:
    """Expected answers from the benchmark's own routes, never the program's."""

    def __init__(self, workload):
        if workload == "count":
            self.primes = checkers.primes_upto(2 * math.isqrt(workloads.MAX_COUNT_INPUT) + 2)
        elif workload == "prefix":
            self.table = checkers.PrefixTable(workloads.PREFIX_HI)
        else:
            self.is_semiprime = checkers.SemiprimeTest(workloads.MAX_CLASSIFY_INPUT + 10**7)
        self.memo = {}

    def successor(self, n):
        n += 1
        while not self.is_semiprime(n):
            n += 1
        return n

    def category(self, x):
        if checkers.is_prime(x):
            return "prime"
        return "semiprime" if self.is_semiprime(x) else "composite-many-factors"

    def expected(self, kind, args, label):
        key = (kind, *args)
        if key not in self.memo:
            self.memo[key] = self._expected(kind, args, label)
        return self.memo[key]

    def _expected(self, kind, args, label):
        if kind == "count_range":
            return checkers.count_window(args[0], args[1], self.primes)
        if kind == "semiprime_count":
            return self.table.count(args[0])
        if kind == "nth_semiprime":
            return self.table.nth(args[0])
        if kind == "classify":
            if self.category(args[0]) != label:
                raise BenchError(f"input {args[0]} was built as {label} but is not")
            return label
        if kind == "next_semiprime":
            return self.successor(args[0])
        out = [args[0]]
        for _ in range(args[1]):
            out.append(self.successor(out[-1]))
        return out[1:]

    def wrong(self, result):
        """(queries that raised, queries that answered wrongly)."""
        raised = wrong = 0
        for (kind, args, label), answer in zip(result["queries"], result["answers"]):
            if isinstance(answer, dict):
                raised += 1
            elif answer != self.expected(kind, args, label):
                wrong += 1
            else:
                continue
            print(f"failed: {kind}{tuple(args)} -> {answer}", file=sys.stderr)
        return raised, wrong


def metric(value, unit):
    return {"value": value, "unit": unit}


def host_scale(ref_s):
    """Factor that turns seconds on the host as it ran into seconds at the
    reference speed (README.md, "Host speed")."""
    return REF_NOMINAL_S / statistics.mean(ref_s)


def scaled(result):
    """(latencies, wall seconds) at the reference speed: each round is scaled
    by the reference loops timed just before and just after it."""
    ref = result["ref_s"]
    lat, wall = [], 0.0
    for r, (round_wall, round_lat) in enumerate(zip(result["round_wall_s"], result["latency_s"])):
        k = host_scale(ref[r : r + 2])
        wall += round_wall * k
        lat.extend(x * k for x in round_lat)
    return lat, wall


def timed_setup(workload, seed, *extra, deadline):
    """(host-scaled set-up seconds, worker result)."""
    before = [reference_loop() for _ in range(3)]
    setup_s, result = run_worker(workload, seed, *extra, deadline=deadline)
    after = [reference_loop() for _ in range(3)]
    return setup_s * host_scale(before + after), result


def end_to_end(workload, seed, seconds, deadline):
    setups = [timed_setup(workload, seed, "--setup-only", deadline=deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup_s, result = timed_setup(workload, seed, "--seconds", str(seconds), deadline=deadline)
    setups.append(setup_s)
    lat, wall = scaled(result)
    if len(lat) < 100:
        print(f"warning: {len(lat)} queries leave fewer than ten beyond p90", file=sys.stderr)
    metrics = {
        "queries_per_s": metric(len(lat) / wall, "1/s"),
        "ints_per_s": metric(sum(result["ints"]) / wall, "1/s"),
        "p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "p90_ms": metric(statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    raw = {
        "unscaled_wall_s": sum(result["round_wall_s"]),
        "setup_samples_s": setups,
        "rounds": result["rounds"],
        "latency_s": lat,
    }
    return [result], metrics, raw


def per_layer(workload, seed, deadline):
    rounds = str(TRACE_ROUNDS[workload])
    _, plain = run_worker(workload, seed, "--rounds", rounds, deadline=deadline)
    _, traced = run_worker(workload, seed, "--rounds", rounds, "--profile", deadline=deadline)
    _, traced_s = scaled(traced)
    _, plain_s = scaled(plain)
    scale = traced_s / sum(traced["round_wall_s"])
    mods = {name: t * scale for name, t in traced["module_self_s"].items()}
    calls = traced["function_calls"]
    ints = sum(traced["ints"])
    lookups = traced["cache_hits"] + traced["cache_misses"]
    evals = calls.get("core.semiprime_indicator", 0)
    metrics = {
        "trace.overhead_ratio": metric(traced_s / plain_s, "ratio"),
        "trace.untraced_s": metric(plain_s, "s"),
        "trace.queries": metric(len(traced["queries"]), "count"),
        "trace.ints_settled": metric(ints, "count"),
        "core.self_s": metric(mods.get("core", 0.0), "s"),
        "core.count_range.calls": metric(calls.get("core.count_range", 0), "count"),
        "core.classify.calls": metric(calls.get("core.classify", 0), "count"),
        "core.semiprime_indicator.evals": metric(evals, "count"),
        "core.semiprime_indicator.evals_per_int": metric(evals / ints, "count/int"),
        "core.semiprime_indicator.cache_lookups": metric(lookups, "count"),
        "core.semiprime_indicator.cache_hit_ratio": metric(traced["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "primality.self_s": metric(mods.get("primality", 0.0), "s"),
        "primality.t.calls": metric(calls.get("primality.t", 0), "count"),
        "primality.t.calls_per_int": metric(calls.get("primality.t", 0) / ints, "count/int"),
        "intmath.self_s": metric(mods.get("intmath", 0.0), "s"),
        "intmath.as_natural.calls_per_int": metric(calls.get("intmath.as_natural", 0) / ints, "count/int"),
        "intmath.icbrt.calls": metric(calls.get("intmath.icbrt", 0), "count"),
        "intmath.wheel_limit.calls": metric(calls.get("intmath.wheel_limit", 0), "count"),
        "sequences.self_s": metric(mods.get("sequences", 0.0), "s"),
        "sequences.nth_semiprime.calls": metric(calls.get("sequences.nth_semiprime", 0), "count"),
        "sequences.next_semiprime.calls": metric(calls.get("sequences.next_semiprime", 0), "count"),
    }
    raw = {"module_self_s": mods, "function_calls": calls, "spans": traced["spans"]}
    return [plain, traced], metrics, raw


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "semiprimes" / "__init__.py").is_file():
        print(f"error: no src/semiprimes under {ROOT}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    try:
        if args.trace:
            results, metrics, raw = per_layer(args.workload, args.seed, deadline)
        else:
            results, metrics, raw = end_to_end(args.workload, args.seed, args.seconds, deadline)
        checker = Checker(args.workload)
        raised, wrong = map(sum, zip(*(checker.wrong(r) for r in results)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(len(r["queries"]) for r in results)
    # a wrong answer is a failed operation and also makes the run incorrect
    report = {"correct": wrong == 0, "attempted": attempted, "failed": raised + wrong, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    (OUT / name).write_text(json.dumps({**report, "raw": raw}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
