"""Closed inverse subsemigroups of S(G) and their classification.

Every closed inverse subsemigroup is one of four kinds: a finite chain of
idempotents below (w,w); an infinite chain of idempotents, eventually
periodic along a circuit; a cycle type L(p,d) built from a circuit p and an
access path d; or the whole semigroup (the only one containing zero).  Each
kind is stored by its defining paths, so membership and closure questions
reduce to suffix arithmetic.
"""

from math import gcd

from gisalg.elements import Element, element_key, enumerate_elements, idempotent, top
from gisalg.errors import ConstructionError, ParseError, WrongKindError
from gisalg.graphs import (
    Path,
    concat,
    is_circuit,
    is_suffix,
    parse_path,
    power,
    primitive_root,
    rotate_circuit,
    suffix_comparable,
    suffixes,
)


class ClosedInverseSubsemigroup:
    kind = None

    def literal(self):
        raise NotImplementedError


class FiniteChain(ClosedInverseSubsemigroup):
    """All (s,s) with s a suffix of w: the finite chain hanging below (w,w).

    The root is the initial vertex of w; it classifies the chain up to
    conjugacy.
    """

    kind = "finite-chain"
    __slots__ = ("w",)

    def __init__(self, w):
        object.__setattr__(self, "w", w)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteChain is immutable")

    def __eq__(self, other):
        if not isinstance(other, FiniteChain):
            return NotImplemented
        return self.w == other.w

    def __hash__(self):
        return hash(("finite-chain", self.w))

    def literal(self):
        return f"chain {self.w.literal()}"

    def __repr__(self):
        return f"FiniteChain({self.w.literal()!r})"


class InfiniteChain(ClosedInverseSubsemigroup):
    """All (s,s) with s a suffix of c^k q for some k: the idempotents along
    an eventually periodic ray.

    The stored pair is canonical: c is the primitive root rotation and q the
    shortest tail that together present the same chain, so equal chains
    compare equal structurally.
    """

    kind = "infinite-chain"
    __slots__ = ("c", "q")

    def __init__(self, c, q):
        if not is_circuit(c):
            raise ConstructionError("the periodic part must be a circuit")
        if q.start != c.start:
            raise ConstructionError(
                f"tail starts at {q.start!r}, circuit at {c.start!r}"
            )
        c, q = _canonical_ray(c, q)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("InfiniteChain is immutable")

    def __eq__(self, other):
        if not isinstance(other, InfiniteChain):
            return NotImplemented
        return self.c == other.c and self.q == other.q

    def __hash__(self):
        return hash(("infinite-chain", self.c, self.q))

    def literal(self):
        return f"infchain {self.c.literal()} {self.q.literal()}"

    def __repr__(self):
        return f"InfiniteChain({self.c.literal()!r}, {self.q.literal()!r})"


class CycleType(ClosedInverseSubsemigroup):
    """L(p,d): all (v p^r d, v p^s d) with v a suffix of p, plus the (q,q)
    with q a suffix of d.

    p is a circuit, d a path out of the same vertex, and the two share no
    edge at the start.  p is taken literally, not reduced to its primitive
    root: L(p,d) and L(p^2,d) are different subsemigroups.
    """

    kind = "cycle"
    __slots__ = ("p", "d")

    def __init__(self, p, d):
        if not is_circuit(p):
            raise ConstructionError("the cycle part must be a nonempty circuit")
        if d.start != p.start:
            raise ConstructionError(
                f"access path starts at {d.start!r}, circuit at {p.start!r}"
            )
        if d.edges and d.edges[0] == p.edges[0]:
            raise ConstructionError("circuit and access path share a first edge")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("CycleType is immutable")

    def __eq__(self, other):
        if not isinstance(other, CycleType):
            return NotImplemented
        return self.p == other.p and self.d == other.d

    def __hash__(self):
        return hash(("cycle", self.p, self.d))

    def literal(self):
        return f"cycle {self.p.literal()} {self.d.literal()}"

    def __repr__(self):
        return f"CycleType({self.p.literal()!r}, {self.d.literal()!r})"


class Improper(ClosedInverseSubsemigroup):
    """The whole of S(G): the only closed inverse subsemigroup containing
    zero."""

    kind = "improper"
    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, Improper):
            return NotImplemented
        return True

    def __hash__(self):
        return hash("improper")

    def literal(self):
        return "improper"

    def __repr__(self):
        return "Improper()"


IMPROPER = Improper()


def _canonical_ray(c, q):
    # The chain is the suffix set of the left-infinite ray c^inf q.  Present
    # it by the primitive root rotation that leaves the shortest tail.
    rho, _ = primitive_root(c)
    n = len(rho.edges)
    best_key = None
    best = None
    for i in range(n):
        ci = rotate_circuit(rho, i)
        tail = concat(Path(rho.edges[i:], rho.verts[i:]), q)
        while len(tail.edges) >= n and tail.edges[:n] == ci.edges:
            tail = Path(tail.edges[n:], tail.verts[n:])
        key = (len(tail.edges), ci.edges)
        if best_key is None or key < best_key:
            best_key = key
            best = (ci, tail)
    return best


# number of defining paths per kind tag, for make() and for literals
_ARITY = {"chain": 1, "cycle": 2, "infchain": 2, "improper": 0}


def make(kind, *paths):
    """Build a subsemigroup from its kind tag and defining paths."""
    if kind not in _ARITY:
        raise ConstructionError(f"unknown subsemigroup kind {kind!r}")
    if len(paths) != _ARITY[kind]:
        raise ConstructionError(
            f"{kind} takes {_ARITY[kind]} path(s), got {len(paths)}"
        )
    if kind == "chain":
        return FiniteChain(paths[0])
    if kind == "cycle":
        return CycleType(paths[0], paths[1])
    if kind == "infchain":
        return InfiniteChain(paths[0], paths[1])
    return IMPROPER


def parse_subsemigroup(graph, text):
    """Subsemigroup from a literal: 'chain <p>', 'cycle <p> <d>',
    'infchain <c> <q>', or 'improper', with path literals for the parts."""
    tokens = text.split()
    if not tokens:
        raise ParseError("empty subsemigroup literal")
    kind, args = tokens[0], tokens[1:]
    if kind not in _ARITY:
        raise ParseError(f"unknown subsemigroup kind {kind!r}")
    if len(args) != _ARITY[kind]:
        raise ParseError(f"{kind} takes {_ARITY[kind]} path literal(s), got {len(args)}")
    return make(kind, *(parse_path(graph, a) for a in args))


def classify(sub):
    return sub.kind


def root(sub):
    """The root vertex of a finite chain: where its longest path leaves from."""
    if sub.kind != "finite-chain":
        raise WrongKindError(f"no root for kind {sub.kind!r}")
    return sub.w.start


def min_idempotent(sub):
    if sub.kind != "finite-chain":
        raise WrongKindError(f"no minimum idempotent for kind {sub.kind!r}")
    return idempotent(sub.w)


def _cycle_residue(sub, m):
    # strip d, then whole copies of p, off the right end; membership requires
    # the leftover to be a suffix of p
    if not is_suffix(sub.d, m):
        return None
    k = len(sub.d.edges)
    m = Path(m.edges[: len(m.edges) - k], m.verts[: len(m.verts) - k])
    n = len(sub.p.edges)
    while is_suffix(sub.p, m):
        m = Path(m.edges[:-n], m.verts[: len(m.verts) - n])
    return m if is_suffix(m, sub.p) else None


def membership(sub, x):
    """Decide x in sub from the defining paths alone."""
    if sub.kind == "improper":
        return True
    if x.is_zero:
        return False
    if sub.kind == "finite-chain":
        return x.left == x.right and is_suffix(x.left, sub.w)
    if sub.kind == "infinite-chain":
        if x.left != x.right:
            return False
        k = len(x.left.edges) // len(sub.c.edges) + 1
        ray = concat(power(sub.c, k), sub.q)
        return is_suffix(x.left, ray)
    if x.left == x.right and is_suffix(x.left, sub.d):
        return True
    v1 = _cycle_residue(sub, x.left)
    if v1 is None:
        return False
    v2 = _cycle_residue(sub, x.right)
    return v2 is not None and v1 == v2


def generated(gens):
    """Smallest closed inverse subsemigroup containing every generator.

    Incomparable components force the improper answer immediately; otherwise
    idempotent generators span a finite chain, and non-idempotent ones pin
    down a cycle type candidate that every original generator must pass.
    """
    gens = list(gens)
    if not gens:
        raise ConstructionError("need at least one generator")
    if any(g.is_zero for g in gens):
        return IMPROPER
    comps = [g.left for g in gens] + [g.right for g in gens]
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            if not suffix_comparable(comps[i], comps[j]):
                return IMPROPER
    if all(g.is_idempotent for g in gens):
        return FiniteChain(max(comps, key=lambda p: len(p.edges)))

    cands = []
    for g in gens:
        t = top(g)
        if t.is_idempotent:
            continue
        a, b = t.left, t.right
        if len(a.edges) > len(b.edges):
            a, b = b, a
        k = len(b.edges) - len(a.edges)
        u, circ = a, Path(b.edges[:k], b.verts[: k + 1])
        # rotating a shared first edge around the circuit cannot happen after
        # the top reduction, but costs nothing to keep sound
        while u.edges and circ.edges and u.edges[0] == circ.edges[0]:
            e = u.edges[0]
            u = Path(u.edges[1:], u.verts[1:])
            circ = Path(circ.edges[1:] + (e,), circ.verts[1:] + (circ.verts[1],))
        cands.append((u, circ))

    d0 = cands[0][0]
    if any(u != d0 for u, _ in cands):
        return IMPROPER
    roots = [primitive_root(circ) for _, circ in cands]
    rho = roots[0][0]
    if any(r != rho for r, _ in roots):
        return IMPROPER
    exp = 0
    for _, k in roots:
        exp = gcd(exp, k)
    try:
        cand = CycleType(power(rho, exp), d0)
    except ConstructionError:
        return IMPROPER
    for g in gens:
        if not membership(cand, g):
            return IMPROPER
    return cand


def bounded_elements(sub, max_len, graph=None):
    """All members with both components of length <= max_len, sorted by the
    deterministic element order.  The improper kind needs the graph."""
    if sub.kind == "finite-chain":
        items = {idempotent(s) for s in suffixes(sub.w) if len(s.edges) <= max_len}
    elif sub.kind == "infinite-chain":
        k = max_len // len(sub.c.edges) + 1
        ray = concat(power(sub.c, k), sub.q)
        items = {idempotent(s) for s in suffixes(ray) if len(s.edges) <= max_len}
    elif sub.kind == "cycle":
        items = {idempotent(s) for s in suffixes(sub.d) if len(s.edges) <= max_len}
        for v in suffixes(sub.p)[1:]:
            comps = []
            r = 0
            while True:
                length = len(v.edges) + r * len(sub.p.edges) + len(sub.d.edges)
                if length > max_len:
                    break
                comps.append(concat(v, concat(power(sub.p, r), sub.d)))
                r += 1
            for a in comps:
                for b in comps:
                    items.add(Element(a, b))
    else:
        if graph is None:
            raise ConstructionError(
                "bounded enumeration of the improper subsemigroup needs the graph"
            )
        return enumerate_elements(graph, max_len)
    return sorted(items, key=element_key)
