"""One workload process: set up, warm up, time whole rounds, check answers.

Started by run.py, which passes the clock reading taken just before it
started this process, so set-up time covers interpreter start and import.
Prints one JSON object as its last line of output.
"""

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

import probes
import wl_algebra
import wl_cli
import wl_decide
import wl_oracle
from ref import CheckError
from tracer import NAMES, Tracer

BUILDERS = {
    "algebra": wl_algebra.build,
    "decide": wl_decide.build,
    "oracle": wl_oracle.build,
    "cli": wl_cli.build,
}
MIN_OPS = 100  # the 90th percentile then has at least ten samples beyond it
TAIL = 0.9


class Measured:
    """Latencies of every operation, and each distinct answer of each
    operation with how often it came back, for checking after the timing."""

    def __init__(self):
        self.latencies = []
        self.answers = {}  # op index -> [[plain answer, times seen], ...]
        self.errors = []  # (op, why) for answers that raised or could not be read


def measure(ops, seconds, min_ops):
    """Whole rounds of ops until their timed total reaches `seconds` and at
    least `min_ops` ran.  Answers are read between operations, outside the
    timing, and kept once per distinct answer."""
    m = Measured()
    clock = time.perf_counter
    busy = 0.0
    while True:
        for i, op in enumerate(ops):
            t0 = clock()
            try:
                answer = op.run()
            except Exception as exc:  # a failing operation is recorded, not fatal
                dt = clock() - t0
                m.errors.append((op, f"raised {exc!r}"))
            else:
                dt = clock() - t0
                try:
                    plain = op.read(answer)
                except Exception as exc:  # whatever the program returned
                    m.errors.append((op, f"unreadable answer: {exc!r}"))
                else:
                    seen = m.answers.setdefault(i, [])
                    for entry in seen:
                        if entry[0] == plain:
                            entry[1] += 1
                            break
                    else:
                        seen.append([plain, 1])
            busy += dt
            m.latencies.append(dt)
        if busy >= seconds and len(m.latencies) >= min_ops:
            return m


def judge(ops, m):
    """(failed, wrong): failures of fault operations, and reasons for every
    other wrong answer.  Each distinct answer is checked once and counts as
    often as it came back."""
    failed = 0
    wrong = []
    outcomes = list(m.errors)
    for i, seen in m.answers.items():
        for plain, times in seen:
            try:
                ops[i].check(plain)
            except CheckError as exc:
                outcomes += [(ops[i], str(exc))] * times
    for op, why in outcomes:
        if op.fault:
            failed += 1
        else:
            wrong.append(f"{op.kind}: {why}")
    return failed, wrong


def end_to_end(m, peak_rss_kb):
    lat = sorted(m.latencies)
    return {
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "latency_tail_ms": {"value": lat[math.ceil(TAIL * len(lat)) - 1] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024, "unit": "MB"},
    }


def per_layer(tr, n_ops, untraced, traced, probe_metrics):
    """Per-layer metrics: counts and milliseconds per traced operation,
    ratios with their base named, probe results as measured."""
    calls, incl, counts = tr.calls, tr.incl, tr.counts

    def per_op(x):
        return x / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in ("kernels.mul", "kernels.leq", "kernels.rays", "kernels.suffix_of",
                 "subsemigroups.membership", "subsemigroups.bounded_elements",
                 "graphs.find_escape_circuit", "graphs.count_paths_from"):
        put(f"{name}.calls", per_op(calls[name]), "count/op")
    for name in ("kernels.mul", "kernels.saturate", "elements.multiply", "elements.natural_leq",
                 "elements.up_set", "elements.enumerate_elements", "subsemigroups.membership",
                 "subsemigroups.generated", "cosets.same_coset", "subsemigroups.bounded_elements",
                 "cosets.index_verdict", "cosets.coset_representatives", "conjugacy.conjugator",
                 "graphs.find_escape_circuit", "graphs.iter_paths", "graphs.count_paths_from",
                 "oracle.closure_saturate", "oracle.index_profile"):
        put(f"{name}.ms", per_op(incl[name]) * 1e3, "ms/op")
    for name in ("graphs.Path.built", "elements.Element.built", "graphs.iter_paths.yielded"):
        put(name, per_op(counts[name]), "count/op")
    put(
        "elements.multiply.wrap_ratio",
        ratio(incl["elements.multiply"], tr.edge_time[("elements.multiply", "kernels.mul")]),
        "ratio",
    )
    put(
        "oracle.closure.members",
        ratio(counts["oracle.closure.members"], calls["oracle.closure_saturate"]),
        "count/call",
    )
    put(
        "oracle.index_profile.membership_calls",
        ratio(tr.edge_calls[("oracle.index_profile", "subsemigroups.membership")], calls["oracle.index_profile"]),
        "count/call",
    )
    for name in NAMES:
        put(f"{name}.self_ms", per_op(tr.self_time[name]) * 1e3, "ms/op")
    out.update(probe_metrics)
    ops_untraced = len(untraced.latencies) / sum(untraced.latencies)
    ops_traced = len(traced.latencies) / sum(traced.latencies)
    put("trace.ops_per_s_untraced", ops_untraced, "1/s")
    put("trace.ops_per_s_traced", ops_traced, "1/s")
    put("trace.overhead_ratio", ops_untraced / ops_traced, "ratio")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True, help="perf_counter reading at process start")
    ap.add_argument("--out", required=True, help="directory for temporary files and spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import gisalg
    import gisalg.cli  # noqa: F401  (loaded before tracing, so its names get wrapped)

    rng = random.Random(args.seed)
    os.makedirs(args.out, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out)
    try:
        wl = BUILDERS[args.workload](gisalg, rng, tmpdir)
        for op in wl.warm:
            try:
                op.run()
            except Exception:  # a failing operation is recorded by the timed rounds
                pass
        gc.collect()
        setup_s = time.perf_counter() - args.t0
        result = {"setup_s": setup_s, "backend": gisalg.BACKEND}
        if args.setup_only:
            print(json.dumps(result))
            return 0
        if args.trace:
            untraced = measure(wl.traced, args.seconds / 2, 1)
            tr = Tracer()
            tr.install()
            try:
                traced = measure(wl.traced, args.seconds / 2, 1)
            finally:
                tr.uninstall()
            probe_metrics, details = probes.run_all(gisalg, rng, tmpdir)
            parts = [(wl.traced, untraced), (wl.traced, traced)]
            result["metrics"] = per_layer(tr, len(traced.latencies), untraced, traced, probe_metrics)
            result["probes"] = details
            spans = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.json")
            with open(spans, "w", encoding="utf-8") as fh:
                json.dump({"summary": tr.summary(), "spans": tr.spans}, fh)
        else:
            m = measure(wl.ops, args.seconds, MIN_OPS)
            # peak memory before checking, so the checks' own use is left out
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            result["metrics"] = end_to_end(m, resource.getrusage(who).ru_maxrss)
            parts = [(wl.ops, m)]
        judged = [judge(ops, m) for ops, m in parts]
        wrong = [w for _, ws in judged for w in ws]
        for w in wrong[:10]:
            print(f"wrong answer: {w}", file=sys.stderr)
        result.update(
            correct=not wrong,
            attempted=sum(len(m.latencies) for _, m in parts),
            failed=sum(f for f, _ in judged),
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
