"""decide: index verdicts, coset representatives and conjugators on graph
families that grow, and on the fixtures.

- K_n with an acyclic two-edge tail it cannot reach, n = 4..7; the chain on
  the tail has index 3.  The escape search enumerates every circuit of K_n.
- chain<n> with its full chain, index n+1.
- ring<n> with a short chain (infinite index, with an escape witness), and
  conjugators between cycle types (infinite chains on the smallest ring) of
  the whole ring at two access vertices half the ring apart.
- The fault: on ring<n> the cycle type of the whole ring raised to m at an
  empty access path has index n*m, and on bouquet2 ``cycle a.b @o`` is
  infinite; the cycle-type branch of ``index_verdict`` answers both with
  the subsemigroup's own circuit as witness.  These inputs do not depend on
  the seed, so they fail in every round.
- loopx, loopxf and bouquet2 questions with hand-derived answers.

Sizes are fixed; the seed renames the family graphs, places the ring
chains and access vertices, and orders the round.
"""

import canon
import families
import ref
from families import Relabelled, literal_spec
from ops import Op, Workload, repeat

# n -> batch.  Batches bring every small question to about 4 ms on a 2-CPU
# machine, so that half the round sits on one plateau and the median falls
# inside it rather than between two kinds of operation.
KN = {4: 4, 5: 1, 6: 1, 7: 1}
KN_REPS = {4: 8, 5: 1, 6: 1}
KN_CONJ_BATCH = 3000
CHAINS = {50: 1, 100: 1, 200: 1, 300: 1}
CHAIN_REPS = {50: 1, 100: 1, 200: 1}
RINGS = {100: 8, 200: 2, 400: 1}
RING_CONJ = {100: 1, 200: 5, 400: 1}
FAULT_RINGS = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]
FAULT_BATCH = 4000
CONJ_BOUND = 8


class _Questions:
    """Operations on one graph, given as a reference graph."""

    def __init__(self, G, g, name):
        self.G = G
        self.g = g
        self.name = name
        self.gg = G.Graph(g.vertices, g.edges)
        self.member = ref.Members(g)

    def sub(self, spec):
        return self.G.parse_subsemigroup(self.gg, literal_spec(spec))

    def verdict(self, spec, expected, batch, fault=False):
        G, g, gg, sub = self.G, self.g, self.gg, self.sub(spec)
        return Op(
            f"index_verdict {self.name} {literal_spec(spec)[:30]}",
            repeat(lambda: G.index_verdict(gg, sub), batch),
            canon.batch(lambda a: canon.verdict(g, a)),
            lambda v: ref.check_verdict(g, spec, v, expected),
            fault,
        )

    def reps(self, spec, expected, batch):
        G, g, gg, sub = self.G, self.g, self.gg, self.sub(spec)
        return Op(
            f"coset_representatives {self.name}",
            repeat(lambda: G.coset_representatives(gg, sub), batch),
            canon.batch(lambda reps: [canon.element(g, t) for t in reps]),
            lambda reps: ref.check_reps(g, spec, reps, expected, self.member),
        )

    def conj(self, a, b, batch):
        G, g, sa, sb = self.G, self.g, self.sub(a), self.sub(b)
        return Op(
            f"conjugator {self.name}",
            repeat(lambda: G.conjugator(sa, sb), batch),
            canon.batch(lambda c: None if c is None else canon.element(g, c)),
            lambda c: ref.check_conjugator(g, a, b, c, self.member, CONJ_BOUND),
        )


def _ring_circuit(R, n, j):
    return R.path(f"r{j}", [f"x{(j + i) % n}" for i in range(n)])


def build(G, rng, tmpdir):
    ops = []
    warm = []
    for n, batch in KN.items():
        R = Relabelled(families.kn_tail(n), rng)
        q = _Questions(G, R.graph, f"K{n}+tail")
        chain = ("chain", R.path("t2", ["s2", "s1"]))
        ops.append(q.verdict(chain, 3, batch))
        if n in KN_REPS:
            ops.append(q.reps(chain, 3, KN_REPS[n]))
        if n == 4:
            warm += ops[-2:]
            other = ("chain", R.path("t2", rng.choice([["s2"], []])))
            ops.append(q.conj(chain, other, KN_CONJ_BATCH))
            warm.append(ops[-1])
    for n, batch in CHAINS.items():
        R = Relabelled(families.chain(n), rng)
        q = _Questions(G, R.graph, f"chain{n}")
        full = ("chain", R.path(f"v{n}", [f"e{i}" for i in range(n, 0, -1)]))
        ops.append(q.verdict(full, n + 1, batch))
        if n in CHAIN_REPS:
            ops.append(q.reps(full, n + 1, CHAIN_REPS[n]))
    for n, batch in RINGS.items():
        R = Relabelled(families.ring(n), rng)
        q = _Questions(G, R.graph, f"ring{n}")
        j = rng.randrange(n)
        w = R.path(f"r{j}", [f"x{(j + i) % n}" for i in range(rng.randint(1, 3))])
        ops.append(q.verdict(("chain", w), "infinite", batch))
        # access vertices half the ring apart: conjugator's rotation search
        # then does the same work for every seed.  On the smallest ring the
        # pair is of infinite chains, whose conjugator checks itself on
        # bounded_elements.
        j = rng.randrange(n)
        k = (j + n // 2) % n
        kind = "infchain" if n == min(RING_CONJ) else "cycle"
        a = (kind, _ring_circuit(R, n, j), R.path(f"r{j}", []))
        b = (kind, _ring_circuit(R, n, k), R.path(f"r{k}", []))
        ops.append(q.conj(a, b, RING_CONJ[n]))

    for n, m in FAULT_RINGS:
        g = families.ring(n)
        p = ref.path(g, "r0", [f"x{i % n}" for i in range(n * m)])
        spec = ("cycle", p, ref.path(g, "r0", ()))
        ops.append(_Questions(G, g, f"ring{n}").verdict(spec, n * m, FAULT_BATCH, fault=True))
    b2 = _Questions(G, families.bouquet(2), "bouquet2")
    lit = lambda q, kind, *ps: (kind, *(ref.lit_path(q.g, s) for s in ps))  # noqa: E731
    ops.append(b2.verdict(lit(b2, "cycle", "a.b", "@o"), "infinite", FAULT_BATCH, fault=True))

    # Fixture answers.  On loopx, L(a^2, e.f) has index
    #   sum over v on e.f of N(v, e.f) without a: x 3 (@x, g, g.h), y 2, z 1
    #   + (2-1) * N(x, a): @x, e, e.f, e.k, g, g.h = 6,  so 12.
    # Every other question reaches a circuit other than its own.
    lx, lxf = _Questions(G, families.loopx(), "loopx"), _Questions(G, families.loopxf(), "loopxf")
    cyc = lit(lx, "cycle", "a.a", "e.f")
    ops.append(lx.verdict(cyc, 12, 60))
    ops.append(lx.reps(cyc, 12, 20))
    ops.append(lx.conj(cyc, lit(lx, "cycle", "a.a", "g"), 800))
    warm += ops[-3:]
    ops.append(lx.verdict(lit(lx, "chain", "e.f"), "infinite", 200))
    ops.append(lxf.verdict(lit(lxf, "cycle", "a.a", "e.f"), "infinite", 200))
    ops.append(lxf.verdict(lit(lxf, "chain", "g.h"), "infinite", 200))
    ops.append(b2.verdict(lit(b2, "cycle", "a", "@o"), "infinite", 500))
    rng.shuffle(ops)
    return Workload(ops, warm)
