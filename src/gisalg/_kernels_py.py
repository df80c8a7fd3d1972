"""Pure-Python arithmetic kernels over raw element tuples.

A raw path is a pair of tuples (edges, verts) with len(verts) == len(edges)+1;
verts[0] is the initial vertex and verts[-1] the terminal one.  A raw element
is a flat 4-tuple (left_edges, left_verts, right_edges, right_verts), or None
for the zero element.
"""


def suffix_of(se, sv, ue, uv):
    """True iff the raw path (se, sv) is a terminal segment of (ue, uv)."""
    k = len(ue) - len(se)
    return k >= 0 and ue[k:] == se and uv[k] == sv[0]


def mul(a, b):
    """Product of raw elements; None is absorbing and means zero.

    (t,u)(v,w) is (t,pw) when u = pv, (pt,w) when v = pu, zero otherwise.
    """
    if a is None or b is None:
        return None
    te, tv, ue, uv = a
    ve, vv, we, wv = b
    k = len(ue) - len(ve)
    if k >= 0:
        if ue[k:] == ve and uv[k] == vv[0]:
            return (te, tv, ue[:k] + we, uv[:k] + wv)
    else:
        k = -k
        if ve[k:] == ue and vv[k] == uv[0]:
            return (ve[:k] + te, vv[:k] + tv, we, wv)
    return None


def leq(a, b):
    """Natural partial order: a <= b iff a = (p v, p w) where b = (v, w)."""
    if a is None:
        return True
    if b is None:
        return False
    te, tv, ue, uv = a
    ve, vv, we, wv = b
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
    """Ancestors of a nonzero raw element, the element itself first.

    Deleting a common prefix of the two components ascends in the natural
    partial order; the up-set of (t,u) has exactly lcp(t,u)+1 elements.
    """
    te, tv, ue, uv = a
    k = _lcp(te, ue)
    return [(te[i:], tv[i:], ue[i:], uv[i:]) for i in range(k + 1)]


def top(a):
    """Maximum of the up-set of a nonzero raw element."""
    te, tv, ue, uv = a
    k = _lcp(te, ue)
    return (te[k:], tv[k:], ue[k:], uv[k:])


def saturate(universe, gens):
    """Smallest subset of universe containing gens and closed under products
    that stay inside, inverses, and up-sets.  Returns (closure, saw_zero).

    The universe is a set of nonzero raws; zero products are flagged, not
    stored, and products falling outside the universe are discarded.
    """
    closed = set()
    zero = False
    work = list(gens)
    while work:
        x = work.pop()
        if x is None:
            zero = True
            continue
        if x in closed or x not in universe:
            continue
        te, tv, ue, uv = x
        k = _lcp(te, ue)
        fresh = []
        for i in range(k + 1):
            y = (te[i:], tv[i:], ue[i:], uv[i:])
            z = (ue[i:], uv[i:], te[i:], tv[i:])
            if y not in closed and y in universe:
                closed.add(y)
                fresh.append(y)
            if z not in closed and z in universe:
                closed.add(z)
                fresh.append(z)
        for y in fresh:
            for w in list(closed):
                work.append(mul(y, w))
                work.append(mul(w, y))
    return closed, zero
