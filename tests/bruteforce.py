"""Definition-level reimplementations used to cross-check the package.

Everything here recomputes results directly from the written definitions:
paths by explicit breadth-first search, multiplication by trying every
suffix split, the order through the a = (aa^-1)b characterization, closures
by fixpoint sweeps, infinity of path counts by the pigeonhole bound.  None
of it calls the package kernels or the closed-form index machinery.
"""

from gisalg import ZERO, Element, Path


def bf_concat(p, q):
    assert p.verts[-1] == q.verts[0]
    return Path(p.edges + q.edges, p.verts[:-1] + q.verts)


def bf_suffix(s, u):
    k = len(u.edges) - len(s.edges)
    if k < 0:
        return False
    return u.edges[k:] == s.edges and u.verts[k:] == s.verts


def bf_suffixes(p):
    return [Path(p.edges[i:], p.verts[i:]) for i in range(len(p.edges) + 1)]


def bf_paths(graph, start, max_len, removed=(), first_not_in=()):
    """Every path from start of length <= max_len, breadth first."""
    removed = set(removed)
    out = []
    frontier = [Path((), (start,))]
    while frontier:
        out.extend(frontier)
        nxt = []
        for p in frontier:
            if len(p.edges) >= max_len:
                continue
            for e in graph.out_edges(p.verts[-1]):
                if e in removed:
                    continue
                if not p.edges and e in first_not_in:
                    continue
                nxt.append(Path(p.edges + (e,), p.verts + (graph.tgt(e),)))
        frontier = nxt
    return out


def bf_count_paths(graph, v, removed=()):
    """Exact path count from v, or None for infinitely many.

    A path of length |V| must repeat a vertex, so one exists iff a circuit
    is reachable iff the count is infinite; otherwise every path is shorter
    and the bounded enumeration is complete.
    """
    n = len(graph.vertices)
    paths = bf_paths(graph, v, n, removed=removed)
    if any(len(p.edges) == n for p in paths):
        return None
    return len(paths)


def bf_mul(a, b):
    if a.is_zero or b.is_zero:
        return ZERO
    t, u = a.left, a.right
    v, w = b.left, b.right
    if bf_suffix(v, u):
        k = len(u.edges) - len(v.edges)
        p = Path(u.edges[:k], u.verts[: k + 1])
        return Element(t, bf_concat(p, w))
    if bf_suffix(u, v):
        k = len(v.edges) - len(u.edges)
        p = Path(v.edges[:k], v.verts[: k + 1])
        return Element(bf_concat(p, t), w)
    return ZERO


def bf_inv(a):
    if a.is_zero:
        return ZERO
    return Element(a.right, a.left)


def bf_leq(a, b):
    # a <= b iff a = (aa^-1)b, an equivalent form of the prefix condition
    return a == bf_mul(bf_mul(a, bf_inv(a)), b)


def bf_up_set(a, universe_elements):
    return {y for y in universe_elements if not y.is_zero and bf_leq(a, y)}


def bf_closure(universe_elements, gens):
    """Fixpoint closure inside the universe; returns (members, saw_zero)."""
    pool = [x for x in universe_elements if not x.is_zero]
    in_universe = set(pool)
    closed = set()
    saw_zero = False
    for g in gens:
        if g.is_zero:
            saw_zero = True
        else:
            closed.add(g)
    while True:
        fresh = set()
        for x in closed:
            fresh.add(bf_inv(x))
            fresh |= bf_up_set(x, pool)
            for y in closed:
                z = bf_mul(x, y)
                if z.is_zero:
                    saw_zero = True
                elif z in in_universe:
                    fresh.add(z)
        if fresh <= closed:
            return closed, saw_zero
        closed |= fresh


def bf_rotations(p):
    out = []
    for i in range(len(p.edges)):
        out.append(Path(p.edges[i:] + p.edges[:i], p.verts[i:] + p.verts[1 : i + 1]))
    return out


def bf_conjugate(p, q):
    if p == q:
        return True
    if p.verts[0] != p.verts[-1] or q.verts[0] != q.verts[-1]:
        return False
    if not p.edges or not q.edges:
        return False
    return any(r == q for r in bf_rotations(p))


def bf_primitive_root(p):
    n = len(p.edges)
    for d in range(1, n + 1):
        if n % d == 0 and p.edges[:d] * (n // d) == p.edges:
            return Path(p.edges[:d], p.verts[: d + 1]), n // d
    raise AssertionError


def bf_power(p, k):
    return Path(p.edges * k, p.verts[:-1] * k + (p.verts[0],))


def bf_chain_members(w, bound):
    return {Element(s, s) for s in bf_suffixes(w) if len(s.edges) <= bound}


def bf_infchain_members(c, q, bound):
    ray = bf_concat(bf_power(c, bound // len(c.edges) + 2), q)
    return {Element(s, s) for s in bf_suffixes(ray) if len(s.edges) <= bound}


def bf_cycle_members(p, d, bound):
    """L(p,d) by enumeration: pairs (v p^r d, v p^s d) share one suffix v."""
    out = {Element(s, s) for s in bf_suffixes(d) if len(s.edges) <= bound}
    rmax = bound // len(p.edges) + 1
    for v in bf_suffixes(p):
        comps = []
        for r in range(rmax + 1):
            c = bf_concat(v, bf_concat(bf_power(p, r), d))
            if len(c.edges) <= bound:
                comps.append(c)
        for x in comps:
            for y in comps:
                out.add(Element(x, y))
    return out


def bf_simple_circuits(graph, s):
    """Every vertex-simple circuit based at s, by depth-first extension."""
    found = []

    def walk(p):
        for e in graph.out_edges(p.verts[-1]):
            t = graph.tgt(e)
            q = Path(p.edges + (e,), p.verts + (t,))
            if t == s:
                found.append(q)
            elif t not in p.verts:
                walk(q)

    walk(Path((), (s,)))
    return found


def bf_reaches(graph, v0, targets, blocked):
    """Whether a path from v0 that avoids the blocked edges ends in targets."""
    seen = {v0}
    frontier = [v0]
    while frontier:
        if any(v in targets for v in frontier):
            return True
        nxt = []
        for v in frontier:
            for e in graph.out_edges(v):
                t = graph.tgt(e)
                if e not in blocked and t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return False


def bf_escape_exists(graph, anchor, forbidden_loop=None):
    """Whether an escape witness exists, by enumerating circuits.

    Some circuit c, other than the lone forbidden loop, is reached from a
    vertex of anchor by a path using no edge of c or of anchor.  Each vertex
    of a circuit lies on a vertex-simple circuit made of its edges, so trying
    the vertex-simple circuits from every vertex loses nothing.
    """
    for s in graph.vertices:
        for c in bf_simple_circuits(graph, s):
            if c.edges == (forbidden_loop,):
                continue
            blocked = set(c.edges) | set(anchor.edges)
            if any(bf_reaches(graph, v0, set(c.verts), blocked) for v0 in anchor.verts):
                return True
    return False
