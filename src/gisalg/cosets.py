"""Cosets of a closed inverse subsemigroup and the index of L in S(G).

A coset is the up-closure of L·t for a nonzero t with t·t^-1 in L.  Two
elements generate the same coset exactly when a·b^-1 lies in L, so coset
equality never needs the coset materialized.  The index is the number of
distinct cosets; the closed forms below decide finiteness and, when finite,
count and enumerate representatives.
"""

from gisalg.elements import (
    Element,
    element_key,
    idempotent,
    inverse,
    multiply,
    top,
    up_set,
)
from gisalg.errors import InfiniteIndexError, NotACosetError
from gisalg.graphs import (
    INFINITE,
    Count,
    PathCounts,
    concat,
    find_escape_circuit,
    iter_paths,
    power,
    suffixes,
)
from gisalg.subsemigroups import bounded_elements, membership


def _require_cosettable(sub, t):
    if t.is_zero:
        raise NotACosetError("zero is in no coset")
    if not membership(sub, multiply(t, inverse(t))):
        raise NotACosetError(
            f"{t.literal()} times its inverse is not in the subsemigroup"
        )


def _rep_key(x):
    return (len(x.left.edges) + len(x.right.edges), element_key(x))


def _canonical_rep(sub, t):
    # shrink t by absorbing subsemigroup elements on the left, keeping the
    # shortest top seen; purely cosmetic, equality goes through same_coset
    current = top(t)
    if sub.kind == "improper":
        return current
    while True:
        bound = max(len(current.left.edges), len(current.right.edges))
        best = current
        best_key = _rep_key(best)
        for x in bounded_elements(sub, bound):
            y = multiply(x, current)
            if y.is_zero:
                continue
            cand = top(y)
            k = _rep_key(cand)
            if k < best_key:
                best, best_key = cand, k
        if best == current:
            return current
        current = best


class Coset:
    """The coset of `representative` in `subsemigroup`; equality is semantic."""

    __slots__ = ("subsemigroup", "representative")

    def __init__(self, subsemigroup, representative):
        object.__setattr__(self, "subsemigroup", subsemigroup)
        object.__setattr__(self, "representative", representative)

    def __setattr__(self, name, value):
        raise AttributeError("Coset is immutable")

    def contains(self, x):
        if x.is_zero:
            return False
        sub = self.subsemigroup
        if not membership(sub, multiply(x, inverse(x))):
            return False
        return membership(sub, multiply(x, inverse(self.representative)))

    def __eq__(self, other):
        if not isinstance(other, Coset):
            return NotImplemented
        if self.subsemigroup != other.subsemigroup:
            return False
        return same_coset(
            self.subsemigroup, self.representative, other.representative
        )

    def __hash__(self):
        # all cosets of one subsemigroup collide; equality stays semantic
        return hash(("coset", self.subsemigroup))

    def __repr__(self):
        return f"Coset({self.subsemigroup!r}, {self.representative.literal()!r})"


def coset_of(sub, t):
    _require_cosettable(sub, t)
    return Coset(sub, _canonical_rep(sub, t))


def same_coset(sub, a, b):
    """True iff a and b generate the same coset of sub."""
    _require_cosettable(sub, a)
    _require_cosettable(sub, b)
    return membership(sub, multiply(a, inverse(b)))


def index_verdict(graph, sub):
    """(index, witness): the witness is a (circuit, path, vertex) triple
    explaining an infinite verdict, None for finite ones.

    Escape-based verdicts carry a checkable escape witness.  The two
    unconditional cases carry their defining paths: an infinite chain is
    already an infinite family, and a cycle part with two distinct edges
    manufactures one.
    """
    if sub.kind == "improper":
        return Count(1), None
    if sub.kind == "finite-chain":
        wit = find_escape_circuit(graph, sub.w)
        if wit is not None:
            return INFINITE, wit
        return PathCounts(graph).N(dict.fromkeys(sub.w.verts), set(sub.w.edges)), None
    if sub.kind == "infinite-chain":
        return INFINITE, (sub.c, sub.q, sub.c.start)
    if len(set(sub.p.edges)) >= 2:
        return INFINITE, (sub.p, sub.d, sub.p.start)
    a = sub.p.edges[0]
    m = len(sub.p.edges)
    wit = find_escape_circuit(graph, sub.d, forbidden_loop=a)
    if wit is not None:
        return INFINITE, wit
    total = PathCounts(graph).N((graph.src(a),), {a}) * (m - 1)
    total = total + PathCounts(graph, {a}).N(dict.fromkeys(sub.d.verts), set(sub.d.edges))
    return total, None


def index(graph, sub):
    """Number of cosets of sub in S(G), finite or INFINITE."""
    return index_verdict(graph, sub)[0]


def coset_representatives(graph, sub):
    """One element per coset, in deterministic order: suffixes of the
    defining path long to short, then continuations in lexicographic
    edge-id order."""
    cnt, _ = index_verdict(graph, sub)
    if not cnt.is_finite:
        raise InfiniteIndexError("the subsemigroup has infinite index")
    if sub.kind == "improper":
        v = sorted(graph.vertices)[0]
        return [idempotent(graph.empty_path(v))]
    if sub.kind == "finite-chain":
        w = sub.w
        # finite index forces w to visit no vertex twice, otherwise a piece
        # of w is an escape circuit with an empty connector
        assert len(set(w.verts)) == len(w.verts)
        banned = set(w.edges)
        return [
            Element(s, t)
            for s in suffixes(w)
            for t in iter_paths(graph, s.start, skip_first=banned)
        ]
    # cycle type, necessarily p = a^m on a single loop edge
    a = sub.p.edges[0]
    m = len(sub.p.edges)
    banned = set(sub.d.edges)
    reps = [
        Element(s, t)
        for s in suffixes(sub.d)
        for t in iter_paths(graph, s.start, removed={a}, skip_first=banned)
    ]
    loop = graph.path((a,))
    for j in range(1, m):
        reps.extend(
            Element(sub.d, concat(power(loop, j), t))
            for t in iter_paths(graph, sub.p.start, skip_first={a})
        )
    return reps


def coset_elements_bounded(sub, t, max_len, graph=None):
    """All coset members with components of length <= max_len, via s >= x·t
    over subsemigroup probes x bounded by max_len plus the size of t."""
    _require_cosettable(sub, t)
    bound = max_len + max(len(t.left.edges), len(t.right.edges))
    out = set()
    for x in bounded_elements(sub, bound, graph):
        if x.is_zero:
            continue
        y = multiply(x, t)
        if y.is_zero:
            continue
        for s in up_set(y):
            if len(s.left.edges) <= max_len and len(s.right.edges) <= max_len:
                out.add(s)
    return out
