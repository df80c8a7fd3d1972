"""Pure-Python arithmetic kernels over paths and elements as they are.

A path is a pair of tuples (edges, verts) with len(verts) == len(edges)+1;
verts[0] is the initial vertex and verts[-1] the terminal one.  An element
is a pair of coinitial paths (left, right), or (None, None) for zero.
Results are plain nested tuples.
"""


def suffix_of(s, u):
    """True iff the path s is a terminal segment of the path u."""
    se, sv = s
    ue, uv = u
    k = len(ue) - len(se)
    return k >= 0 and ue[k:] == se and uv[k] == sv[0]


def mul(a, b):
    """Product of elements; (None, None) is absorbing and means zero.

    (t,u)(v,w) is (t,pw) when u = pv, (pt,w) when v = pu, zero otherwise.
    """
    if a[0] is None or b[0] is None:
        return (None, None)
    t, (ue, uv) = a
    (ve, vv), w = b
    k = len(ue) - len(ve)
    if k >= 0:
        if ue[k:] == ve and uv[k] == vv[0]:
            return (t, (ue[:k] + w[0], uv[:k] + w[1]))
    else:
        k = -k
        if ve[k:] == ue and vv[k] == uv[0]:
            return ((ve[:k] + t[0], vv[:k] + t[1]), w)
    return (None, None)


def leq(a, b):
    """Natural partial order: a <= b iff a = (p v, p w) where b = (v, w)."""
    if a[0] is None:
        return True
    if b[0] is None:
        return False
    (te, tv), (ue, uv) = a
    (ve, vv), (we, wv) = b
    k = len(te) - len(ve)
    if k < 0 or k != len(ue) - len(we):
        return False
    return (
        te[k:] == ve
        and tv[k] == vv[0]
        and ue[k:] == we
        and uv[k] == wv[0]
        and te[:k] == ue[:k]
    )


def _lcp(te, ue):
    n = min(len(te), len(ue))
    k = 0
    while k < n and te[k] == ue[k]:
        k += 1
    return k


def rays(a):
    """Ancestors of a nonzero element, the element itself first.

    Deleting a common prefix of the two components ascends in the natural
    partial order; the up-set of (t,u) has exactly lcp(t,u)+1 elements.
    """
    (te, tv), (ue, uv) = a
    k = _lcp(te, ue)
    return [((te[i:], tv[i:]), (ue[i:], uv[i:])) for i in range(k + 1)]


def top(a):
    """Maximum of the up-set of a nonzero element."""
    (te, tv), (ue, uv) = a
    k = _lcp(te, ue)
    return ((te[k:], tv[k:]), (ue[k:], uv[k:]))


def saturate(universe, gens):
    """Smallest subset of universe containing gens and closed under products
    that stay inside, inverses, and up-sets.  Returns (closure, saw_zero).

    The universe is a set of nonzero elements; zero products are flagged, not
    stored, and products falling outside the universe are discarded as they
    are formed.
    """
    closed = set()
    zero = any(g[0] is None for g in gens)
    work = [g for g in gens if g[0] is not None and g in universe]
    while work:
        x = work.pop()
        if x in closed:
            continue
        fresh = []
        for t, u in rays(x):
            for y in ((t, u), (u, t)):
                if y not in closed and y in universe:
                    closed.add(y)
                    fresh.append(y)
        for y in fresh:
            for w in closed:
                for z in (mul(y, w), mul(w, y)):
                    if z[0] is None:
                        zero = True
                    elif z not in closed and z in universe:
                        work.append(z)
    return closed, zero
