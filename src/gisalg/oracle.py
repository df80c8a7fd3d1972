"""Brute-force verification engine.

Everything here works by raw enumeration and products over a bounded
universe: no classification theory, no index formulas.  The rest of the
package is tested against it.
"""

from gisalg._backend import kernels
from gisalg.elements import Element, _trusted, element_key, enumerate_elements
from gisalg.elements import inverse, multiply, top
from gisalg.errors import ConstructionError
from gisalg.subsemigroups import membership


class BoundedUniverse:
    """All elements of S(G) with components of length <= max_len."""

    __slots__ = ("graph", "max_len", "elements", "_nonzero")

    def __init__(self, graph, max_len):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "max_len", max_len)
        object.__setattr__(self, "elements", enumerate_elements(graph, max_len))
        object.__setattr__(self, "_nonzero", frozenset(self.elements[1:]))

    def __setattr__(self, name, value):
        raise AttributeError("BoundedUniverse is immutable")

    def __contains__(self, x):
        return x.is_zero or x in self._nonzero

    def __repr__(self):
        return f"BoundedUniverse(max_len={self.max_len}, {len(self.elements)} elements)"


def closure_saturate(universe, gens):
    """Smallest subset of the universe containing gens and closed under
    products that stay inside, inverses, and up-sets.

    Returns (members, contains_zero): members is sorted and zero-free, the
    flag records whether any product fell to zero.
    """
    gens = list(gens)
    for g in gens:
        if g not in universe:
            raise ConstructionError(f"generator {g.literal()} is outside the universe")
    closed, saw_zero = kernels.saturate(universe._nonzero, gens)
    members = sorted(map(_trusted, closed), key=element_key)
    return members, saw_zero


def idem_left(t):
    """t·t^-1 without the multiplication: the idempotent on t's left path."""
    return Element(t.left, t.left)


def _class_bucket(sub, t):
    # a cheap coset invariant: elements of one coset always land in the same
    # bucket, so the pairwise same-coset search only runs within buckets
    if sub.kind in ("finite-chain", "infinite-chain"):
        # every element of a coset of an idempotent-only subsemigroup has the
        # same maximal element above it
        return top(t)
    # cycle part: multiplying by a member shifts the length difference by a
    # multiple of |p| and never moves the right component's endpoint; finer
    # splits are unsound because a partial copy of d at the end of the right
    # component can still cancel against a member
    mod = (len(t.left.edges) - len(t.right.edges)) % len(sub.p.edges)
    return (mod, t.right.end)


def index_profile(universe, sub):
    """Coset counts by growing bound: [(b, classes among elements with
    components <= b)] for b = 0..max_len.

    Grouping is greedy through membership(sub, t·rep^-1) only; a finite index
    shows up as a stabilizing profile, an infinite one keeps growing.
    """
    ts = [
        t
        for t in universe.elements
        if not t.is_zero and membership(sub, idem_left(t))
    ]
    labeled = []
    if sub.kind == "improper":
        labeled = [(t, 0) for t in ts]
    else:
        buckets = {}
        next_id = 0
        for t in ts:
            b = _class_bucket(sub, t)
            cid = None
            for rep, rep_id in buckets.get(b, ()):
                if membership(sub, multiply(t, inverse(rep))):
                    cid = rep_id
                    break
            if cid is None:
                cid = next_id
                next_id += 1
                buckets.setdefault(b, []).append((t, cid))
            labeled.append((t, cid))
    profile = []
    for b in range(universe.max_len + 1):
        seen = {
            cid
            for t, cid in labeled
            if len(t.left.edges) <= b and len(t.right.edges) <= b
        }
        profile.append((b, len(seen)))
    return profile
