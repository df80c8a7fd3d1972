"""algebra: seeded element questions on bouquet2, bouquet3 and loopx.

One operation takes one drawn element x through a fixed batch of partners:
products both ways, the order both ways, inverse, up-set and top, membership
in one fixed subsemigroup of each kind, and ``generated`` from x with zero,
one or two partners and from the defining generator (d|p.d) of the cycle
type.  For same_coset it also draws, for each proper subsemigroup, an
element c with c c^-1 in it, and asks whether c and each of a fixed batch of
such elements generate the same coset.  Every operation asks the same number
of each question, so a seed changes the paths, and the work hardly.
No escape search and no saturation runs, so the kernels and the
Path/Element layer do nearly all the work.
"""

import random

import canon
import families
import ref
from ops import Op, Workload
from ref import check

MAX_LEN = 4
PARTNERS = 48
COSET_PARTNERS = 12
OPS_PER_GRAPH = 35

# one subsemigroup of each proper kind per graph: (kind, path literals)
SUBS = {
    "bouquet2": [("chain", "a.b.a"), ("infchain", "a.b", "b"), ("cycle", "a.b", "b")],
    "bouquet3": [("chain", "a.c"), ("infchain", "c.b", "a"), ("cycle", "a.b", "c")],
    "loopx": [("chain", "e.f"), ("infchain", "a", "e.f"), ("cycle", "a.a", "e.f")],
}
GRAPHS = {"bouquet2": families.bouquet(2), "bouquet3": families.bouquet(3), "loopx": families.loopx()}


def _walk(g, v, n, rng):
    edges = []
    for _ in range(n):
        if not g.out[v]:
            break
        e = rng.choice(g.out[v])
        edges.append(e)
        v = g.edges[e][1]
    return edges, v


def _draw_in(g, spec, rng):
    """An element t with t t^-1 in the subsemigroup: its left component is
    that of a member."""
    left = rng.choice(sorted(ref.members(g, spec, MAX_LEN)))[0]
    right, _ = _walk(g, left[0], rng.randint(0, MAX_LEN), rng)
    return (left, ref.path(g, left[0], right))


def draw(g, specs, rng):
    """A nonzero element with components of length <= MAX_LEN; half the
    draws share their left component with a member of one of specs."""
    if rng.random() < 0.5:
        return _draw_in(g, rng.choice(specs), rng)
    v = rng.choice(g.vertices)
    pre, v1 = _walk(g, v, rng.randint(0, 2), rng)
    left, _ = _walk(g, v1, rng.randint(0, MAX_LEN - len(pre)), rng)
    right, _ = _walk(g, v1, rng.randint(0, MAX_LEN - len(pre)), rng)
    return (ref.path(g, v, pre + left), ref.path(g, v, pre + right))


def _program_element(G, gg, x):
    return G.parse_element(gg, ref.element_literal(x))


def _graph_ops(G, name, rng):
    """The operations on one graph.  The partners are the same for every
    seed, so that the work of a round does not hang on one seeded draw; the
    seed draws the elements sent through them."""
    g = GRAPHS[name]
    gg = G.Graph(g.vertices, g.edges)
    specs = [(k, *(ref.lit_path(g, s) for s in paths)) for k, *paths in SUBS[name]]
    subs = [G.parse_subsemigroup(gg, families.literal_spec(s)) for s in specs]
    specs.append(("improper",))
    subs.append(G.IMPROPER)
    member = ref.Members(g)
    p, d = specs[2][1], specs[2][2]
    defining = (d, ref.concat(g, p, d))

    fixed = random.Random(name)
    partners = [draw(g, specs[:3], fixed) for _ in range(PARTNERS)]
    partners_p = [_program_element(G, gg, y) for y in partners]
    defining_p = _program_element(G, gg, defining)

    coset_partners = [[_draw_in(g, spec, fixed) for _ in range(COSET_PARTNERS)] for spec in specs[:3]]
    coset_partners_p = [[_program_element(G, gg, y) for y in ys] for ys in coset_partners]

    def make(x, cs):
        xp = _program_element(G, gg, x)
        cs_p = [_program_element(G, gg, c) for c in cs]
        gen_sets = [[x], [x, partners[0]], [x, partners[0], partners[1]], [defining]]
        gen_sets_p = [[xp], [xp, partners_p[0]], [xp, partners_p[0], partners_p[1]], [defining_p]]

        def run():
            mul, leq = G.multiply, G.natural_leq
            return {
                "inverse": G.inverse(xp),
                "up": G.up_set(xp),
                "top": G.top(xp),
                "member": [G.membership(s, xp) for s in subs],
                "products": [(mul(xp, y), mul(y, xp)) for y in partners_p],
                "order": [(leq(xp, y), leq(y, xp)) for y in partners_p],
                "same": [
                    [G.same_coset(sub, c, y) for y in ys] for sub, c, ys in zip(subs, cs_p, coset_partners_p)
                ],
                "generated": [G.generated(gs) for gs in gen_sets_p],
            }

        def read(out):
            el = lambda y: canon.element(g, y)  # noqa: E731
            return {
                "inverse": el(out["inverse"]),
                "up": [el(y) for y in out["up"]],
                "top": el(out["top"]),
                "member": out["member"],
                "products": [(el(a), el(b)) for a, b in out["products"]],
                "order": out["order"],
                "same": out["same"],
                "generated": [canon.subsemigroup(g, s) for s in out["generated"]],
            }

        def judge(ans):
            check(ans["inverse"] == ref.inv(x), "inverse is wrong")
            up = ref.up_set(g, x)
            check(len(ans["up"]) == len(up) and set(ans["up"]) == up, "up-set is wrong")
            check(ans["top"] in up and all(ref.leq(g, y, ans["top"]) for y in up), "top is wrong")
            check(ans["member"] == [member(s, x) for s in specs], "membership is wrong")
            for y, (xy, yx), (le, ge) in zip(partners, ans["products"], ans["order"]):
                check(xy == ref.mul(g, x, y) and yx == ref.mul(g, y, x), "product is wrong")
                check(le == ref.leq(g, x, y) and ge == ref.leq(g, y, x), "order is wrong")
            for spec, c, ys, got in zip(specs, cs, coset_partners, ans["same"]):
                want = [member(spec, ref.mul(g, c, ref.inv(y))) for y in ys]
                check(got == want, "same_coset is wrong")
            for gens, spec in zip(gen_sets, ans["generated"]):
                check(all(member(spec, t) for t in gens), "generated misses a generator")
            check(
                ref.same_members(g, ans["generated"][-1], specs[2], 2 * MAX_LEN + 4),
                "generated((d|p.d)) is not L(p,d)",
            )

        return Op("element", run, read, judge)

    return [
        make(draw(g, specs[:3], rng), [_draw_in(g, spec, rng) for spec in specs[:3]])
        for _ in range(OPS_PER_GRAPH)
    ]


def build(G, rng, tmpdir):
    per_graph = [_graph_ops(G, name, rng) for name in GRAPHS]
    ops = [op for group in per_graph for op in group]
    rng.shuffle(ops)
    return Workload(ops, warm=[group[0] for group in per_graph])
