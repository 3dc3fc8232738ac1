"""One workload process: import semiprimes, warm up, run timed rounds.

Started by run.py, never by hand.  It prints ``ready`` as soon as the
warm-up is done (run.py times set-up from process start to that line), then
writes one JSON file with every query, answer and latency.  Answers are checked by
run.py, outside this process, so that checking costs neither time nor
memory here.

Before every round and after the last, outside the timed part, the worker
times a fixed pure-Python reference loop that does not touch the package.
The speed of the shared host drifts by a fifth and more over minutes;
run.py scales each round's times by the two reference loops around it
(README.md, "Host speed").

With ``--profile`` the rounds run under cProfile and the JSON file also
carries calls and self time per function of the package, spans around each
query, and the deltas of semiprime_indicator's cache counters.
"""

import argparse
import cProfile
import json
import pstats
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]

#: The reference loop takes about this long on the 2-core host the README's
#: figures come from; times are reported in units of that host's speed.
REF_NOMINAL_S = 0.010
REF_ITERATIONS = 100_000


def reference_loop():
    """Seconds taken by fixed integer work that shares no code with semiprimes."""
    begin = time.perf_counter()
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - begin


def warm_up(sp, workload):
    if workload == "count":
        sp.count_range(*workloads.COUNT_WARMUP)
    elif workload == "prefix":
        # one cold walk of the band: [8, PREFIX_HI] enters the indicator cache
        sp.semiprime_count(workloads.PREFIX_HI)
    else:
        sp.classify(workloads.POINT_LO + 3)
        sp.next_semiprime(workloads.POINT_LO)


def settled(kind, args, answer):
    """Integers a query settles: see README.md."""
    if kind == "count_range":
        return args[1] - args[0] + 1
    if kind == "semiprime_count":
        return args[0]
    if kind == "classify":
        return 1
    if kind == "nth_semiprime":
        return answer
    if kind == "next_semiprime":
        return answer - args[0]
    return answer[-1] - args[0]  # semiprime_stream


def encode(kind, answer):
    if kind == "classify":
        return answer.category.value
    return answer


def cache_info(core):
    """(hits, misses) of semiprime_indicator's cache, (0, 0) without one."""
    info = getattr(core.semiprime_indicator, "cache_info", None)
    return (info().hits, info().misses) if info else (0, 0)


def module_stats(profile):
    """Self seconds per module and calls per function of src/semiprimes."""
    modules, calls = {}, {}
    for (filename, _, func), (_, ncalls, tottime, _, _) in pstats.Stats(profile).stats.items():
        path = Path(filename)
        if path.parent.name != "semiprimes" or path.suffix != ".py":
            continue
        modules[path.stem] = modules.get(path.stem, 0.0) + tottime
        name = f"{path.stem}.{func}"
        calls[name] = calls.get(name, 0) + ncalls
    return modules, calls


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=0, help="fixed round count (overrides --seconds)")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--profile", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import semiprimes as sp
    from semiprimes import core

    warm_up(sp, args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return

    calls = {
        "count_range": sp.count_range,
        "semiprime_count": sp.semiprime_count,
        "nth_semiprime": sp.nth_semiprime,
        "classify": sp.classify,
        "next_semiprime": sp.next_semiprime,
        "semiprime_stream": sp.semiprime_stream,
    }
    max_rounds = args.rounds or workloads.MAX_ROUNDS[args.workload]
    profile = cProfile.Profile(builtins=False) if args.profile else None
    cache_before = cache_info(core)
    rounds = workloads.ROUNDS[args.workload](args.seed)
    queries, answers, latency, ints, spans, ref_s, round_wall = [], [], [], [], [], [], []
    wall = 0.0
    done = 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while done < max_rounds and (args.rounds or wall < args.seconds):
        batch = next(rounds)
        ref_s.append(reference_loop())
        if profile:
            profile.enable()
        latency.append([])
        begin = time.perf_counter()
        for kind, qargs, _ in batch:
            t0 = time.perf_counter()
            try:
                answer = encode(kind, calls[kind](*qargs))
                error = None
            except Exception as exc:  # a failed query is counted, the run goes on
                answer, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            latency[-1].append(t1 - t0)
            answers.append(answer if error is None else {"error": error})
            ints.append(0 if error else settled(kind, qargs, answer))
            if profile:
                spans.append({"id": len(spans), "round": done, "name": kind, "start": t0 - begin + wall, "end": t1 - begin + wall})
        round_wall.append(time.perf_counter() - begin)
        wall += round_wall[-1]
        if profile:
            profile.disable()
        queries.extend(batch)
        done += 1
        if done <= workloads.RSS_ROUNDS[args.workload]:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref_s.append(reference_loop())  # brackets the last round
    cache_after = cache_info(core)
    result = {
        "rounds": done,
        "round_wall_s": round_wall,
        "ref_s": ref_s,
        "queries": queries,
        "answers": answers,
        "latency_s": latency,
        "ints": ints,
        "peak_rss_mb": peak_rss_mb,
        "cache_hits": cache_after[0] - cache_before[0],
        "cache_misses": cache_after[1] - cache_before[1],
    }
    if profile:
        result["module_self_s"], result["function_calls"] = module_stats(profile)
        result["spans"] = spans
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
