"""Growth and process-cost probes for the traced run.

They run untraced, after the traced phase, and read the same on every
workload: index_verdict time over growing K_n, chain<n> and ring<n>; the
oracle's universes and its saturation over a growing bound; the CLI
process split into interpreter start, import and in-process ``main``.
Each time is a median of repeated calls.
"""

import math
import os
import statistics
import subprocess
import sys
import time

import families
import wl_cli
import wl_oracle
from families import Relabelled, literal_spec

KN_SIZES = (4, 5, 6, 7)
CHAIN_SIZES = (50, 100, 200)
RING_SIZES = (100, 200, 400, 800)
ORACLE_BOUNDS = (3, 4)
REPEATS = 3
PROCESS_REPEATS = 7


def _m(value, unit):
    return {"value": value, "unit": unit}


def _median_ms(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _slope(sizes, times):
    """Least-squares slope of log(time) over log(size)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _verdict_ms(G, g, spec, repeats=REPEATS):
    gg = G.Graph(g.vertices, g.edges)
    sub = G.parse_subsemigroup(gg, literal_spec(spec))
    return _median_ms(lambda: G.index_verdict(gg, sub), repeats)


def decide(G, rng):
    kn, chain, ring = {}, {}, {}
    for n in KN_SIZES:
        R = Relabelled(families.kn_tail(n), rng)
        kn[n] = _verdict_ms(G, R.graph, ("chain", R.path("t2", ["s2", "s1"])))
    for n in CHAIN_SIZES:
        R = Relabelled(families.chain(n), rng)
        chain[n] = _verdict_ms(G, R.graph, ("chain", R.path(f"v{n}", [f"e{i}" for i in range(n, 0, -1)])))
    for n in RING_SIZES:
        R = Relabelled(families.ring(n), rng)
        ring[n] = _verdict_ms(G, R.graph, ("chain", R.path("r0", ["x0"])), repeats=5)
    steps = [kn[n + 1] / kn[n] for n in KN_SIZES[:-1]]
    metrics = {
        "decide.kn_tail.growth_per_vertex": _m(math.prod(steps) ** (1 / len(steps)), "ratio"),
        "decide.chain.growth_exponent": _m(_slope(CHAIN_SIZES, [chain[n] for n in CHAIN_SIZES]), "exponent"),
        "decide.ring.growth_exponent": _m(_slope(RING_SIZES, [ring[n] for n in RING_SIZES]), "exponent"),
    }
    return metrics, {"kn_tail_ms": kn, "chain_ms": chain, "ring_ms": ring}


def oracle(G):
    specs = [
        (families.bouquet(2), wl_oracle.GROW_SMALL_BOUND),
        (families.bouquet(2), wl_oracle.GROW_BOUND),
        (families.loopx(), wl_oracle.LOOPX_BOUND),
    ] + [(families.ring(n), wl_oracle.RING_BOUND) for n in (2, 3, 4)]
    graphs = [(G.Graph(g.vertices, g.edges), bound) for g, bound in specs]
    build_ms = _median_ms(lambda: [G.BoundedUniverse(gg, b) for gg, b in graphs])
    elements = sum(len(G.BoundedUniverse(gg, b).elements) for gg, b in graphs)
    g = families.bouquet(2)
    b2 = G.Graph(g.vertices, g.edges)
    gens = [G.parse_element(b2, "(a|b)"), G.parse_element(b2, "(@o|a)")]
    saturate = {}
    for bound in ORACLE_BOUNDS:
        u = G.BoundedUniverse(b2, bound)
        saturate[bound] = _median_ms(lambda: G.closure_saturate(u, gens))
    lo, hi = ORACLE_BOUNDS
    metrics = {
        "oracle.BoundedUniverse.ms": _m(build_ms, "ms"),
        "oracle.universe.elements": _m(elements, "count"),
        "oracle.saturate.growth_per_bound": _m(saturate[hi] / saturate[lo], "ratio"),
    }
    return metrics, {"growing_closure_ms": saturate}


def _process_ms(argv):
    return _median_ms(lambda: subprocess.run(argv, check=True, capture_output=True), PROCESS_REPEATS)


def cli(G, rng, tmpdir):
    import gisalg.cli as C

    interpreter = _process_ms([sys.executable, "-c", "pass"])
    imported = _process_ms([sys.executable, "-c", "import gisalg.cli"])
    os.makedirs(os.path.join(tmpdir, "probe"))
    qs = wl_cli.questions(rng, os.path.join(tmpdir, "probe"))
    main_ms = statistics.median(_median_ms(lambda a=argv: wl_cli.in_process(C.main, a), 1) for argv, _ in qs)
    load_ms = statistics.median(_median_ms(lambda s=argv[2]: C.load_graph(s)) for argv, _ in qs)
    return {
        "cli.interpreter_ms": _m(interpreter, "ms"),
        "cli.import_ms": _m(imported - interpreter, "ms"),
        "cli.main_ms": _m(main_ms, "ms"),
        "cli.load_graph.ms": _m(load_ms, "ms"),
    }, {}


def run_all(G, rng, tmpdir):
    metrics, details = {}, {}
    for m, d in (decide(G, rng), oracle(G), cli(G, rng, tmpdir)):
        metrics.update(m)
        details.update(d)
    return metrics, details

