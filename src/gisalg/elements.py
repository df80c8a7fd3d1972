"""Elements of the graph inverse semigroup S(G).

A nonzero element is a pair (left, right) of paths with the same initial
vertex, written "(left | right)".  Element is that pair itself, so the
kernels compute on it directly; their results are wrapped back without
validating again.
"""

from operator import itemgetter

from gisalg._backend import kernels
from gisalg.errors import ConstructionError, ParseError, ZeroUpSetError
from gisalg.graphs import Path, iter_paths, parse_path

_new = tuple.__new__


class Element(tuple):
    """One element of S(G): the pair (left, right), or (None, None) for
    zero."""

    __slots__ = ()

    def __new__(cls, left, right):
        return tuple.__new__(cls, (left, right))

    def __init__(self, left, right):
        if (left is None) != (right is None):
            raise ConstructionError("both components or neither")
        if left is not None and left.start != right.start:
            raise ConstructionError(
                f"components start at {left.start!r} and {right.start!r}"
            )

    def __getnewargs__(self):
        # copy and pickle rebuild through __new__, which takes both fields
        return tuple(self)

    left = property(itemgetter(0))
    right = property(itemgetter(1))

    @property
    def is_zero(self):
        return self[0] is None

    @property
    def is_idempotent(self):
        return self[0] is None or self[0] == self[1]

    def literal(self):
        if self.is_zero:
            return "0"
        return f"({self.left.literal()}|{self.right.literal()})"

    def __repr__(self):
        return f"Element({self.literal()!r})"

    def __mul__(self, other):
        return multiply(self, other)


ZERO = Element(None, None)


def _trusted(r):
    # a kernel result: its components are coinitial paths by construction
    left, right = r
    if left is None:
        return ZERO
    return _new(Element, (_new(Path, left), _new(Path, right)))


def idempotent(p):
    return Element(p, p)


def multiply(a, b):
    return _trusted(kernels.mul(a, b))


def inverse(a):
    if a.is_zero:
        return ZERO
    return _new(Element, (a[1], a[0]))


def natural_leq(a, b):
    """a <= b in the natural partial order; zero sits below everything."""
    return kernels.leq(a, b)


def up_set(a):
    """All elements above a, a itself first; refuses the zero element, whose
    up-set is the whole semigroup."""
    if a.is_zero:
        raise ZeroUpSetError("the up-set of zero is the whole semigroup")
    return [_trusted(r) for r in kernels.rays(a)]


def top(a):
    """Maximum of up_set(a): both components stripped of their longest common
    prefix."""
    if a.is_zero:
        raise ZeroUpSetError("the up-set of zero is the whole semigroup")
    return _trusted(kernels.top(a))


def element_key(a):
    """Deterministic sort key: zero first, then by start vertex and the two
    edge sequences, shorter components before longer at equal prefixes."""
    if a.is_zero:
        return (0,)
    return (
        1,
        a.left.start,
        len(a.left.edges),
        a.left.edges,
        len(a.right.edges),
        a.right.edges,
    )


def parse_element(graph, text):
    """Element from a literal: '(left|right)' with path literals inside, or
    '0' for zero."""
    text = text.strip()
    if text == "0":
        return ZERO
    if not (text.startswith("(") and text.endswith(")")) or text.count("|") != 1:
        raise ParseError(f"malformed element literal {text!r}")
    left, right = text[1:-1].split("|")
    try:
        return Element(parse_path(graph, left), parse_path(graph, right))
    except ConstructionError as exc:
        raise ParseError(str(exc)) from None


def enumerate_elements(graph, max_len):
    """All elements with both components of length <= max_len, zero first,
    then ordered by element_key."""
    if max_len < 0:
        raise ConstructionError("max_len must be nonnegative")
    out = [ZERO]
    for v in sorted(graph.vertices):
        lefts = list(iter_paths(graph, v, max_len=max_len))
        for left in lefts:
            for right in lefts:
                out.append(Element(left, right))
    out[1:] = sorted(out[1:], key=element_key)
    return out
