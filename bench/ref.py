"""Reference computations that the benchmark checks gisalg's answers against.

Everything here is written from the definitions, on plain tuples, and imports
nothing from gisalg.  A graph is an ``RGraph``; a path is ``(start, edges)``
with ``edges`` a tuple of edge names; an element is ``(left, right)`` for two
coinitial paths, or ``None`` for zero.  Subsemigroups are specs:
``("chain", w)``, ``("infchain", c, q)``, ``("cycle", p, d)`` or
``("improper",)``.
"""


class CheckError(Exception):
    """An answer failed a check; the message says which and why."""


class RGraph:
    """A finite directed multigraph given by its vertex names and an edge map
    ``name -> (source, target)``."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(sorted(vertices))
        self.edges = dict(edges)
        out = {v: [] for v in self.vertices}
        for e in sorted(self.edges):
            out[self.edges[e][0]].append(e)
        self.out = {v: tuple(es) for v, es in out.items()}

    def text(self):
        """The graph in gisalg's text format."""
        lines = [f"vertex {v}" for v in self.vertices]
        lines += [f"edge {e} {s} {t}" for e, (s, t) in sorted(self.edges.items())]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# paths


def path(g, start, edges):
    """A path, validated against the graph."""
    edges = tuple(edges)
    v = start
    if v not in g.out:
        raise CheckError(f"unknown vertex {v!r}")
    for e in edges:
        if e not in g.edges or g.edges[e][0] != v:
            raise CheckError(f"edge {e!r} does not continue a path at {v!r}")
        v = g.edges[e][1]
    return (start, edges)


def lit_path(g, text):
    """A path from its literal: '@v' or 'e1.e2'."""
    if text.startswith("@"):
        return path(g, text[1:], ())
    names = text.split(".")
    if names[0] not in g.edges:
        raise CheckError(f"unknown edge {names[0]!r}")
    return path(g, g.edges[names[0]][0], names)


def lit_element(g, text):
    """An element from its literal: '0' or '(left|right)'."""
    if text == "0":
        return None
    if not (text.startswith("(") and text.endswith(")")) or text.count("|") != 1:
        raise CheckError(f"malformed element literal {text!r}")
    left, right = (lit_path(g, s) for s in text[1:-1].split("|"))
    if left[0] != right[0]:
        raise CheckError(f"components of {text!r} are not coinitial")
    return (left, right)


def path_literal(p):
    return ".".join(p[1]) if p[1] else "@" + p[0]


def element_literal(x):
    if x is None:
        return "0"
    return f"({path_literal(x[0])}|{path_literal(x[1])})"


def end(g, p):
    return g.edges[p[1][-1]][1] if p[1] else p[0]


def verts(g, p):
    return [p[0]] + [g.edges[e][1] for e in p[1]]


def concat(g, p, q):
    if end(g, p) != q[0]:
        raise CheckError("paths do not compose")
    return (p[0], p[1] + q[1])


def power(p, k):
    return (p[0], p[1] * k)


def suffixes(g, p):
    """Terminal segments of p, longest first."""
    vs = verts(g, p)
    return [(vs[i], p[1][i:]) for i in range(len(p[1]) + 1)]


def is_suffix(g, s, u):
    """u = q.s for some path q."""
    k = len(u[1]) - len(s[1])
    if k < 0 or u[1][k:] != s[1]:
        return False
    return bool(s[1]) or s[0] == end(g, u)


def comparable(g, u, v):
    return is_suffix(g, u, v) or is_suffix(g, v, u)


def paths_from(g, v, max_len):
    """Every path from v with at most max_len edges."""
    out = []
    stack = [(v, ())]
    while stack:
        p = stack.pop()
        out.append(p)
        if len(p[1]) < max_len:
            stack.extend((v, p[1] + (e,)) for e in g.out[end(g, p)])
    return out


def circuit_edges(p):
    """Edge set of the primitive root of a circuit."""
    n = len(p[1])
    for k in range(1, n + 1):
        if n % k == 0 and p[1][:k] * (n // k) == p[1]:
            return set(p[1][:k])
    raise CheckError("not a circuit")


# ---------------------------------------------------------------------------
# elements


def mul(g, a, b):
    """(t,u)(v,w) by splitting off a suffix: (t, p.w) when u = p.v,
    (p.t, w) when v = p.u, zero otherwise."""
    if a is None or b is None:
        return None
    t, u = a
    v, w = b
    k = len(u[1]) - len(v[1])
    if k >= 0 and is_suffix(g, v, u):
        return (t, (u[0], u[1][:k] + w[1]))
    if k < 0 and is_suffix(g, u, v):
        return ((v[0], v[1][:-k] + t[1]), w)
    return None


def inv(a):
    return None if a is None else (a[1], a[0])


def leq(g, a, b):
    """a <= b in the natural partial order, by a = (a a^-1) b."""
    return a == mul(g, mul(g, a, inv(a)), b)


def up_set(g, x):
    """Every y >= x.  Such a y has components that are suffixes of x's."""
    return {
        (s, t)
        for s in suffixes(g, x[0])
        for t in suffixes(g, x[1])
        if s[0] == t[0] and leq(g, x, (s, t))
    }


def universe(g, max_len):
    """Nonzero elements with both components of length <= max_len."""
    out = set()
    for v in g.vertices:
        ps = paths_from(g, v, max_len)
        out.update((a, b) for a in ps for b in ps)
    return out


# ---------------------------------------------------------------------------
# closed inverse subsemigroups


def members(g, spec, bound):
    """Members with components of length <= bound, enumerated from the
    definition of the subsemigroup's kind."""
    kind = spec[0]
    if kind == "chain":
        return {(s, s) for s in suffixes(g, spec[1]) if len(s[1]) <= bound}
    if kind == "infchain":
        c, q = spec[1], spec[2]
        ray = concat(g, power(c, bound // len(c[1]) + 1), q)
        return {(s, s) for s in suffixes(g, ray) if len(s[1]) <= bound}
    if kind == "cycle":
        # L(p,d): (v p^r d, v p^s d) for v a suffix of p, and (q,q) for q a
        # suffix of d
        p, d = spec[1], spec[2]
        out = {(s, s) for s in suffixes(g, d) if len(s[1]) <= bound}
        for v in suffixes(g, p):
            comps = []
            r = 0
            while len(v[1]) + r * len(p[1]) + len(d[1]) <= bound:
                comps.append(concat(g, concat(g, v, power(p, r)), d))
                r += 1
            out.update((a, b) for a in comps for b in comps)
        return out
    raise CheckError(f"no finite member set for kind {kind!r}")


class Members:
    """Membership by lookup in the enumerated member sets, cached by bound."""

    def __init__(self, g):
        self.g = g
        self._sets = {}

    def __call__(self, spec, x):
        if spec[0] == "improper":
            return True
        if x is None:
            return False
        need = max(len(x[0][1]), len(x[1][1]))
        bound = 8
        while bound < need:
            bound *= 2
        key = (spec, bound)
        if key not in self._sets:
            self._sets[key] = members(self.g, spec, bound)
        return x in self._sets[key]


def same_members(g, a, b, bound):
    """Two specs agree on every element with components <= bound."""
    if a[0] == "improper" or b[0] == "improper":
        return a[0] == b[0]
    return members(g, a, bound) == members(g, b, bound)


# ---------------------------------------------------------------------------
# checkers; each raises CheckError with a reason, or returns None


def check(cond, msg):
    if not cond:
        raise CheckError(msg)


def check_escape(g, spec, witness):
    """An escape witness (circuit c, connector path, vertex v0): c is a
    circuit, v0 lies on the subsemigroup's defining paths, the connector runs
    from v0 to a vertex of c and uses no edge of c or of the defining paths.
    For a cycle type, c must not run round the subsemigroup's own circuit."""
    c, conn, v0 = witness
    check(c[1] and end(g, c) == c[0], "witness circuit is not a circuit")
    if spec[0] == "chain":
        anchor = [spec[1]]
    elif spec[0] == "cycle":
        anchor = [spec[2], spec[1]]
        check(
            set(c[1]) != circuit_edges(spec[1]),
            "witness circuit is the subsemigroup's own circuit",
        )
    else:
        raise CheckError(f"no escape witness for kind {spec[0]!r}")
    anchor_verts = {v for p in anchor for v in verts(g, p)}
    blocked = set(c[1]).union(*(p[1] for p in anchor))
    check(v0 in anchor_verts, "witness vertex is not on the defining paths")
    check(conn[0] == v0, "connector does not start at the witness vertex")
    check(end(g, conn) in verts(g, c), "connector does not reach the circuit")
    check(not set(conn[1]) & blocked, "connector uses a blocked edge")


def check_verdict(g, spec, verdict, expected):
    """verdict is ("finite", n) or ("infinite", witness); expected an int or
    "infinite"."""
    if expected == "infinite":
        check(verdict[0] == "infinite", f"expected infinite index, got {verdict}")
        check(verdict[1] is not None, "infinite verdict without a witness")
        check_escape(g, spec, verdict[1])
    else:
        check(verdict == ("finite", expected), f"expected index {expected}, got {verdict}")


def check_reps(g, spec, reps, expected, member):
    """Exactly `expected` representatives, each t with t t^-1 in L, pairwise
    in different cosets (a b^-1 not in L)."""
    check(len(reps) == expected, f"expected {expected} representatives, got {len(reps)}")
    for t in reps:
        check(t is not None and member(spec, mul(g, t, inv(t))), "representative is in no coset")
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            check(not member(spec, mul(g, a, inv(b))), "two representatives share a coset")


def check_conjugator(g, a, b, c, member, bound):
    """c^-1 a c lies in b and c b c^-1 in a, over members with components
    <= bound."""
    check(c is not None, "zero conjugator")
    ic = inv(c)
    for x in members(g, a, bound):
        y = mul(g, mul(g, ic, x), c)
        check(y is not None and member(b, y), "c^-1 L c is not inside K")
    for x in members(g, b, bound):
        y = mul(g, mul(g, c, x), ic)
        check(y is not None and member(a, y), "c K c^-1 is not inside L")


def closure_fixpoint(g, within, gens):
    """Smallest subset of `within` holding gens and closed under inverses,
    up-sets and products that stay in `within`; and whether a product fell to
    zero.  Plain sweeps until nothing new appears."""
    closed = set(gens)
    zero = False
    while True:
        fresh = set()
        for x in closed:
            fresh.add(inv(x))
            fresh |= up_set(g, x)
            for y in closed:
                z = mul(g, x, y)
                if z is None:
                    zero = True
                elif z in within:
                    fresh.add(z)
        if fresh <= closed:
            return closed, zero
        closed |= fresh


def check_closure(g, within, gens, got, zero_flag):
    """got holds the generators, lies in `within` and is closed under
    inverses, up-sets and products that stay in `within`; the zero flag says
    whether some pair of members has a zero product."""
    got = set(got)
    check(set(gens) <= got, "closure misses a generator")
    check(got <= within, "closure leaves the universe")
    for x in got:
        check(inv(x) in got, "closure is not closed under inverses")
        check(up_set(g, x) <= got, "closure is not closed under up-sets")
    if got == within:
        # products that stay inside are members trivially; find one zero pair
        rights = {x[1] for x in got}
        lefts = {x[0] for x in got}
        saw_zero = any(not comparable(g, u, v) for u in rights for v in lefts)
    else:
        saw_zero = False
        for x in got:
            for y in got:
                z = mul(g, x, y)
                if z is None:
                    saw_zero = True
                elif z in within:
                    check(z in got, "closure is not closed under products")
    check(zero_flag == saw_zero, f"zero flag {zero_flag}, members say {saw_zero}")


def check_profile(profile, max_len, expected):
    """Coset counts by bound 0..max_len: non-decreasing; a finite index shows
    as the last two counts equal to it, an infinite one as a count still
    growing at the last bound."""
    check([b for b, _ in profile] == list(range(max_len + 1)), "profile bounds are wrong")
    counts = [c for _, c in profile]
    check(counts[0] >= 1, "no coset at bound 0")
    check(all(x <= y for x, y in zip(counts, counts[1:])), "profile decreases")
    if expected == "infinite":
        check(counts[-1] > counts[-2], "profile levelled off for an infinite index")
    else:
        check(counts[-2:] == [expected, expected], f"profile does not level off at {expected}")


def brute_index(g, spec, max_len, member):
    """Coset count among elements with components <= max_len, by the
    definition: t with t t^-1 in L, a ~ b iff a b^-1 in L."""
    reps = []
    for t in sorted(universe(g, max_len)):
        if not member(spec, mul(g, t, inv(t))):
            continue
        if not any(member(spec, mul(g, t, inv(r))) for r in reps):
            reps.append(t)
    return len(reps)
