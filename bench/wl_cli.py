"""cli: one ``python -m gisalg.cli`` process per question, one at a time.

A round is a fixed mix of verbs, 15 questions: multiply 3, member 3,
index 3, cosets 2, conjugate 2, oracle-index 1 and oracle-closure 1.  The
seed draws the elements and picks each question from a pool, on fixture
names and on graph files written during set-up.  Every question is small, so
a process costs what a user pays: interpreter start, import, graph loading
and output formatting.  The traced run calls ``cli.main`` in-process on the
same argument lists instead, since a child process cannot be traced.
"""

import contextlib
import io
import os
import subprocess
import sys

import canon
import families
import ref
import wl_algebra
from families import literal_spec
from ops import Op, Workload
from ref import CheckError, check

MIX = {
    "multiply": 3,
    "member": 3,
    "index": 3,
    "cosets": 2,
    "conjugate": 2,
    "oracle-index": 1,
    "oracle-closure": 1,
}
CHILD_TIMEOUT_S = 60


def questions(rng, tmpdir):
    """[(argv, judge)]: judge takes the parsed --json payload and raises
    CheckError if the answer is wrong."""
    n_chain = rng.randint(5, 30)
    n_ring = rng.randint(5, 30)
    chain = f"chain{n_chain}"
    graphs = {
        "bouquet2": families.bouquet(2),
        "bouquet3": families.bouquet(3),
        "loopx": families.loopx(),
        chain: families.chain(n_chain),
    }
    src = {name: name for name in graphs}
    files = {
        "loopxf": families.loopxf(),
        "kn5": families.kn_tail(5),
        "ring": families.ring(n_ring),
        "ring3": families.ring(3),
    }
    for name, g in files.items():
        src[name] = os.path.join(tmpdir, f"{name}.graph")
        with open(src[name], "w", encoding="utf-8") as fh:
            fh.write(g.text())
    graphs.update(files)
    member = {name: ref.Members(g) for name, g in graphs.items()}

    def spec(name, kind, *ps):
        return (kind, *(ref.lit_path(graphs[name], p) for p in ps))

    def ask(verb, name, *args):
        return [verb, "--json", src[name], *args]

    def element(verb):
        name = rng.choice(["bouquet2", "bouquet3", "loopx"])
        g = graphs[name]
        specs = [spec(name, *s) for s in wl_algebra.SUBS[name]]
        x = wl_algebra.draw(g, specs, rng)
        if verb == "multiply":
            y = wl_algebra.draw(g, specs, rng)
            want = ref.mul(g, x, y)
            argv = ask(verb, name, ref.element_literal(x), ref.element_literal(y))
            return argv, lambda p: check(ref.lit_element(g, p["result"]) == want, "product is wrong")
        s = rng.choice(specs)
        want = member[name](s, x)
        argv = ask(verb, name, literal_spec(s), ref.element_literal(x))
        return argv, lambda p: check(p["result"] is want, "membership is wrong")

    def index(name, s, expected):
        g = graphs[name]
        judge = lambda p: ref.check_verdict(g, s, canon.cli_verdict(g, p["result"]), expected)  # noqa: E731
        return ask("index", name, literal_spec(s)), judge

    def cosets(name, s, expected):
        g = graphs[name]

        def judge(p):
            reps = [ref.lit_element(g, t) for t in p["result"]]
            ref.check_reps(g, s, reps, expected, member[name])

        return ask("cosets", name, literal_spec(s)), judge

    def conjugate(name, a, b):
        g = graphs[name]

        def judge(p):
            check(p["result"] is True, "not conjugate")
            c = ref.lit_element(g, p["witness"])
            ref.check_conjugator(g, a, b, c, member[name], 8)

        return ask("conjugate", name, literal_spec(a), literal_spec(b)), judge

    def oracle_index(name, s, expected, bound):
        judge = lambda p: ref.check_profile([tuple(x) for x in p["result"]], bound, expected)  # noqa: E731
        return ask("oracle-index", name, literal_spec(s), "--maxlen", str(bound)), judge

    def oracle_closure(name, gens, bound):
        g = graphs[name]
        gens_r = [ref.lit_element(g, x) for x in gens]

        def judge(p):
            within = ref.universe(g, bound)
            got = [ref.lit_element(g, x) for x in p["result"]["elements"]]
            zero = p["result"]["contains_zero"]
            ref.check_closure(g, within, gens_r, got, zero)
            want, want_zero = ref.closure_fixpoint(g, within, gens_r)
            check(set(got) == want and zero == want_zero, "closure is not the fixpoint")

        return ask("oracle-closure", name, *gens, "--maxlen", str(bound)), judge

    full_chain = ("chain", ref.path(graphs[chain], f"v{n_chain}", [f"e{i}" for i in range(n_chain, 0, -1)]))

    def ring_cycle(j):
        return (
            "cycle",
            ref.path(graphs["ring"], f"r{j}", [f"x{(j + i) % n_ring}" for i in range(n_ring)]),
            ref.path(graphs["ring"], f"r{j}", ()),
        )

    j, k = rng.randrange(n_ring), rng.randrange(n_ring)
    lx_cycle = spec("loopx", "cycle", "a.a", "e.f")
    pools = {
        "index": [
            lambda: index("loopx", lx_cycle, 12),
            lambda: index("loopxf", spec("loopxf", "cycle", "a.a", "e.f"), "infinite"),
            lambda: index(chain, full_chain, n_chain + 1),
            lambda: index("kn5", spec("kn5", "chain", "s2.s1"), 3),
            lambda: index("ring", ("chain", ref.path(graphs["ring"], f"r{j}", [f"x{j}"])), "infinite"),
            lambda: index("bouquet2", spec("bouquet2", "cycle", "a", "@o"), "infinite"),
        ],
        "cosets": [
            lambda: cosets("loopx", lx_cycle, 12),
            lambda: cosets(chain, full_chain, n_chain + 1),
            lambda: cosets("kn5", spec("kn5", "chain", "s2.s1"), 3),
            lambda: cosets("loopx", spec("loopx", "cycle", "a", "@x"), 6),
        ],
        "conjugate": [
            lambda: conjugate(
                "bouquet2", spec("bouquet2", "cycle", "a.b", "@o"), spec("bouquet2", "cycle", "b.a", "@o")
            ),
            lambda: conjugate("ring", ring_cycle(j), ring_cycle(k)),
            lambda: conjugate("loopx", lx_cycle, spec("loopx", "cycle", "a.a", "g")),
        ],
        "oracle-index": [
            lambda: oracle_index("loopx", lx_cycle, 12, 4),
            lambda: oracle_index("ring3", spec("ring3", "cycle", "x0.x1.x2", "@r0"), 3, 6),
        ],
        "oracle-closure": [
            lambda: oracle_closure("bouquet2", ["(a|b)", "(@o|a)"], 2),
            lambda: oracle_closure("bouquet2", ["(@o|a.b)"], 4),
            lambda: oracle_closure("loopx", ["(e.f|a.e.f)"], 4),
        ],
    }
    out = []
    for verb, count in MIX.items():
        if verb in ("multiply", "member"):
            out += [element(verb) for _ in range(count)]
        else:
            out += [make() for make in rng.sample(pools[verb], count)]
    rng.shuffle(out)
    return out


def _read(answer):
    code, stdout, stderr = answer
    if code != 0:
        raise CheckError(f"exit status {code}: {stderr.strip()[-300:]}")
    return canon.cli_json(stdout)


def in_process(main, argv):
    """cli.main on argv with its output captured: (status, stdout, "")."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue(), ""


def _child(argv):
    r = subprocess.run(
        [sys.executable, "-m", "gisalg.cli", *argv],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return r.returncode, r.stdout, r.stderr


def build(G, rng, tmpdir):
    import gisalg.cli as cli

    qs = questions(rng, tmpdir)
    ops = [Op(argv[0], lambda a=argv: _child(a), _read, judge) for argv, judge in qs]
    traced = [
        Op(argv[0], lambda a=argv: in_process(cli.main, a), _read, judge) for argv, judge in qs
    ]
    return Workload(ops, warm=ops[:2], traced=traced)
