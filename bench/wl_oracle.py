"""oracle: the brute-force engine on bounded universes.

Set-up builds BoundedUniverse for bouquet2 at bounds 3 and 4, loopx at 5 and
ring<n> at 8.  A round runs closure_saturate on closures that grow to the
whole universe and produce many zero products (a seeded variant of
(a|b), (@o|a) on bouquet2, three at bound 4 and two at bound 3), on small
closures (a cycle, a chain), and index_profile on finite and infinite
indices.  ``saturate`` works on raw tuples while index_profile calls
membership and Element products in bulk, so this workload uses the kernels
differently from ``algebra``.
"""

import canon
import families
import ref
from families import literal_spec
from ops import Op, Workload, repeat

GROW_BOUND = 4
GROW_SMALL_BOUND = 3
LOOPX_BOUND = 5
RING_BOUND = 8


class _Universe:
    def __init__(self, G, name, g, bound):
        self.G, self.g, self.bound = G, g, bound
        self.name = f"{name} L{bound}"
        self.gg = G.Graph(g.vertices, g.edges)
        self.u = G.BoundedUniverse(self.gg, bound)
        self.within = None  # the reference universe, built when first checked

    def ref_universe(self):
        if self.within is None:
            self.within = ref.universe(self.g, self.bound)
        return self.within

    def closure(self, gens, batch, fixpoint):
        """closure_saturate on literal generators; with ``fixpoint`` the
        answer must also equal the definitional fixpoint."""
        G, g, u = self.G, self.g, self.u
        gens_r = [ref.lit_element(g, s) for s in gens]
        gens_p = [G.parse_element(self.gg, s) for s in gens]

        def read(answer):
            members, zero = answer
            return ([canon.element(g, x) for x in members], zero)

        def judge(ans):
            within = self.ref_universe()
            ref.check_closure(g, within, gens_r, ans[0], ans[1])
            if fixpoint:
                want, zero = ref.closure_fixpoint(g, within, gens_r)
                ref.check(set(ans[0]) == want and ans[1] == zero, "closure is not the fixpoint")

        return Op(
            f"closure_saturate {self.name} {' '.join(gens)}",
            repeat(lambda: G.closure_saturate(u, gens_p), batch),
            canon.batch(read),
            judge,
        )

    def profile(self, spec, expected, batch):
        G, u = self.G, self.u
        sub = G.parse_subsemigroup(self.gg, literal_spec(spec))
        return Op(
            f"index_profile {self.name} {literal_spec(spec)}",
            repeat(lambda: G.index_profile(u, sub), batch),
            canon.batch(lambda prof: [tuple(x) for x in prof]),
            lambda prof: ref.check_profile(prof, self.bound, expected),
        )


def _growing(rng):
    """(x|y) with (@o|z), z one of x and y: a closure that fills the
    universe, for any of the symmetric choices."""
    x, y = rng.sample("ab", 2)
    z = rng.choice([x, y])
    return [f"({x}|{y})", rng.choice([f"(@o|{z})", f"({z}|@o)"])]


def build(G, rng, tmpdir):
    b2 = families.bouquet(2)
    b2_small = _Universe(G, "bouquet2", b2, GROW_SMALL_BOUND)
    b2_big = _Universe(G, "bouquet2", b2, GROW_BOUND)
    lx = _Universe(G, "loopx", families.loopx(), LOOPX_BOUND)
    rings = {n: _Universe(G, f"ring{n}", families.ring(n), RING_BOUND) for n in (2, 3, 4)}

    ops = [b2_big.closure(_growing(rng), 1, False) for _ in range(3)]
    ops += [b2_small.closure(_growing(rng), 1, True) for _ in range(2)]
    # The ten small questions are batched to about 6 ms each on a 2-CPU
    # machine, so that the median falls inside one plateau of operations.
    x, y = rng.sample("ab", 2)
    ops.append(b2_big.closure([f"(@o|{x}.{y})"], 16, True))
    ops.append(b2_big.closure([f"({x}.{y}.{x}|{x}.{y}.{x})"], 80, True))
    ops.append(lx.closure(["(e.f|a.e.f)"], 12, True))
    ops.append(lx.closure(["(a.e|a.e)", "(g|g)"], 80, True))
    lit = lambda u, kind, *ps: (kind, *(ref.lit_path(u.g, s) for s in ps))  # noqa: E731
    # loopx: L(a^2, e.f) has index 12 and L(a, @x) index 6 (the paths from x
    # that avoid a: @x, e, e.f, e.k, g, g.h); the chain e.f reaches the loop
    ops.append(lx.profile(lit(lx, "cycle", "a.a", "e.f"), 12, 1))
    ops.append(lx.profile(lit(lx, "cycle", "a", "@x"), 6, 1))
    ops.append(lx.profile(lit(lx, "chain", "e.f"), "infinite", 3))
    for n, u in rings.items():
        m = rng.choice([1, 2])
        p = ref.path(u.g, "r0", [f"x{i % n}" for i in range(n * m)])
        ops.append(u.profile(("cycle", p, ref.path(u.g, "r0", ())), n * m, 2))
    warm = [ops[3], ops[5], ops[9]]
    rng.shuffle(ops)
    return Workload(ops, warm)
