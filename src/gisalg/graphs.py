"""Finite directed multigraphs, their paths, and path counting.

Paths are read left to right: the initial vertex d(p) is where the path
leaves from and r(p) is where it arrives.  A path is stored as its edge-id
sequence together with the full vertex itinerary, so slicing never needs to
consult the graph again.
"""

import re
from collections import deque

from gisalg._backend import kernels
from gisalg.errors import (
    CompositionError,
    ConstructionError,
    ParseError,
    UnknownVertexError,
    WrongKindError,
)

_NAME = re.compile(r"[A-Za-z0-9]+\Z")


def _check_name(name, what):
    if not isinstance(name, str) or not _NAME.match(name):
        raise ConstructionError(
            f"{what} name must be a nonempty alphanumeric string, got {name!r}"
        )


class Path:
    """A directed path: edge ids plus the vertex itinerary they visit.

    len(verts) == len(edges) + 1 always; an empty path is a single vertex.
    """

    __slots__ = ("edges", "verts")

    def __init__(self, edges, verts):
        edges = tuple(edges)
        verts = tuple(verts)
        if len(verts) != len(edges) + 1:
            raise ConstructionError("path needs one more vertex than edges")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "verts", verts)

    def __setattr__(self, name, value):
        raise AttributeError("Path is immutable")

    @property
    def start(self):
        return self.verts[0]

    @property
    def end(self):
        return self.verts[-1]

    def __len__(self):
        return len(self.edges)

    def __eq__(self, other):
        if not isinstance(other, Path):
            return NotImplemented
        return self.edges == other.edges and self.verts == other.verts

    def __hash__(self):
        return hash((self.edges, self.verts))

    def literal(self):
        if not self.edges:
            return "@" + self.verts[0]
        return ".".join(self.edges)

    def __repr__(self):
        return f"Path({self.literal()!r})"


class Graph:
    """Finite directed multigraph with named vertices and edges.

    Edge-deleted subgraphs may have no edges at all, so only the vertex set
    is required to be nonempty.  Out-edge lists are kept sorted by edge id;
    every enumeration in the package inherits its determinism from that.
    """

    __slots__ = ("vertices", "_edges", "_out")

    def __init__(self, vertices, edges):
        vs = frozenset(vertices)
        if not vs:
            raise ConstructionError("a graph needs at least one vertex")
        for v in vs:
            _check_name(v, "vertex")
        items = dict(edges)
        es = {}
        for name in sorted(items):
            _check_name(name, "edge")
            s, t = items[name]
            if s not in vs:
                raise ConstructionError(f"edge {name!r} leaves unknown vertex {s!r}")
            if t not in vs:
                raise ConstructionError(f"edge {name!r} enters unknown vertex {t!r}")
            es[name] = (s, t)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "_edges", es)
        out = {v: [] for v in sorted(vs)}
        for name, (s, _) in es.items():
            out[s].append(name)
        object.__setattr__(self, "_out", {v: tuple(ns) for v, ns in out.items()})

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def edges(self):
        """Edge ids in sorted order; mapping id -> (source, target)."""
        return self._edges

    def src(self, e):
        try:
            return self._edges[e][0]
        except KeyError:
            raise ConstructionError(f"unknown edge {e!r}") from None

    def tgt(self, e):
        try:
            return self._edges[e][1]
        except KeyError:
            raise ConstructionError(f"unknown edge {e!r}") from None

    def out_edges(self, v):
        try:
            return self._out[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def empty_path(self, v):
        if v not in self.vertices:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return Path((), (v,))

    def path(self, names, at=None):
        """Path from a sequence of edge ids; empty sequences need `at`."""
        names = tuple(names)
        if not names:
            if at is None:
                raise ConstructionError("an empty path needs a vertex")
            return self.empty_path(at)
        verts = [self.src(names[0])]
        for e in names:
            if self.src(e) != verts[-1]:
                raise CompositionError(
                    f"edge {e!r} does not continue the path at {verts[-1]!r}"
                )
            verts.append(self.tgt(e))
        if at is not None and at != verts[0]:
            raise CompositionError(f"path does not start at {at!r}")
        return Path(names, verts)

    def without_edges(self, removed):
        removed = frozenset(removed)
        for e in removed:
            if e not in self._edges:
                raise ConstructionError(f"unknown edge {e!r}")
        kept = {e: st for e, st in self._edges.items() if e not in removed}
        return Graph(self.vertices, kept)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self._edges == other._edges

    def __hash__(self):
        return hash((self.vertices, tuple(sorted(self._edges.items()))))

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self._edges)} edges)"


# ---------------------------------------------------------------------------
# path algebra


def concat(p, q):
    if p.end != q.start:
        raise CompositionError(
            f"cannot compose: first path ends at {p.end!r}, second starts at {q.start!r}"
        )
    return Path(p.edges + q.edges, p.verts[:-1] + q.verts)


def power(p, k):
    """k-fold composition of a circuit with itself; k = 0 gives the empty path."""
    if not is_circuit(p):
        raise WrongKindError("only circuits can be raised to a power")
    if k < 0:
        raise ConstructionError("negative power")
    return Path(p.edges * k, p.verts[:-1] * k + (p.verts[0],))


def is_suffix(s, u):
    """True iff u = p.s for some path p (the empty p included)."""
    return kernels.suffix_of(s.edges, s.verts, u.edges, u.verts)


def suffix_comparable(u, v):
    return is_suffix(u, v) or is_suffix(v, u)


def suffixes(p):
    """All terminal segments of p, longest first (p itself down to empty)."""
    return [Path(p.edges[i:], p.verts[i:]) for i in range(len(p.edges) + 1)]


def strip_common_prefix(u, v):
    """Split off the longest shared initial segment: returns (prefix, u', v')."""
    if u.start != v.start:
        raise CompositionError("paths start at different vertices")
    n = min(len(u.edges), len(v.edges))
    k = 0
    while k < n and u.edges[k] == v.edges[k]:
        k += 1
    prefix = Path(u.edges[:k], u.verts[: k + 1])
    return prefix, Path(u.edges[k:], u.verts[k:]), Path(v.edges[k:], v.verts[k:])


def is_circuit(p):
    return len(p.edges) > 0 and p.start == p.end


def rotate_circuit(p, i):
    if not is_circuit(p):
        raise WrongKindError("only circuits rotate")
    i %= len(p.edges)
    if i == 0:
        return p
    return Path(p.edges[i:] + p.edges[:i], p.verts[i:] + p.verts[1 : i + 1])


def circuit_shift(p, q):
    """Least i with rotate_circuit(p, i) == q, or None.

    p = uv and q = vu exactly when q is a rotation of p.
    """
    if not is_circuit(p) or not is_circuit(q):
        raise WrongKindError("only circuits rotate")
    if len(p.edges) != len(q.edges):
        return None
    for i in range(len(p.edges)):
        if rotate_circuit(p, i) == q:
            return i
    return None


def paths_conjugate(p, q):
    """Rotation equivalence: p == q, or both are circuits and one is a
    rotation of the other.  Distinct open or empty paths are never conjugate."""
    if p == q:
        return True
    if not (is_circuit(p) and is_circuit(q)):
        return False
    return circuit_shift(p, q) is not None


def primitive_root(p):
    """Shortest circuit r with p = r^k; returns (r, k)."""
    if not is_circuit(p):
        raise WrongKindError("primitive root needs a circuit")
    n = len(p.edges)
    for d in range(1, n + 1):
        if n % d == 0 and p.edges[:d] * (n // d) == p.edges:
            return Path(p.edges[:d], p.verts[: d + 1]), n // d
    raise AssertionError("unreachable: p is its own root")


# ---------------------------------------------------------------------------
# counting


class Count:
    """A path count: a nonnegative integer or infinite."""

    __slots__ = ("_n",)

    def __init__(self, n):
        if n is not None and (not isinstance(n, int) or n < 0):
            raise ConstructionError(f"count must be a nonnegative int or None, got {n!r}")
        object.__setattr__(self, "_n", n)

    def __setattr__(self, name, value):
        raise AttributeError("Count is immutable")

    @property
    def is_finite(self):
        return self._n is not None

    @property
    def value(self):
        if self._n is None:
            raise ValueError("count is infinite")
        return self._n

    def __add__(self, other):
        if isinstance(other, int):
            other = Count(other)
        if not isinstance(other, Count):
            return NotImplemented
        if self._n is None or other._n is None:
            return INFINITE
        return Count(self._n + other._n)

    __radd__ = __add__

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if self._n is None:
            return INFINITE if k > 0 else Count(0)
        return Count(self._n * k)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Count):
            return NotImplemented
        return self._n == other._n

    def __hash__(self):
        return hash(("Count", self._n))

    def __str__(self):
        return "infinite" if self._n is None else str(self._n)

    def __repr__(self):
        return "INFINITE" if self._n is None else f"Count({self._n})"


INFINITE = Count(None)


def count_paths_from(graph, v, removed=frozenset()):
    """Number of paths leaving v (the empty path included), or INFINITE.

    Infinite exactly when a circuit is reachable from v through the allowed
    edges.  `removed` deletes edges before counting.
    """
    removed = frozenset(removed)
    for e in removed:
        if e not in graph.edges:
            raise ConstructionError(f"unknown edge {e!r}")
    if v not in graph.vertices:
        raise UnknownVertexError(f"unknown vertex {v!r}")
    reach = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for e in graph.out_edges(u):
            if e in removed:
                continue
            t = graph.tgt(e)
            if t not in reach:
                reach.add(t)
                stack.append(t)
    # peel sinks first; anything left over sits on a reachable circuit
    out_count = {u: 0 for u in reach}
    incoming = {u: [] for u in reach}
    for u in reach:
        for e in graph.out_edges(u):
            if e in removed:
                continue
            out_count[u] += 1
            incoming[graph.tgt(e)].append(e)
    queue = deque(sorted(u for u in reach if out_count[u] == 0))
    totals = {}
    while queue:
        u = queue.popleft()
        totals[u] = 1 + sum(
            totals[graph.tgt(e)]
            for e in graph.out_edges(u)
            if e not in removed
        )
        for e in incoming[u]:
            s = graph.src(e)
            out_count[s] -= 1
            if out_count[s] == 0:
                queue.append(s)
    if len(totals) < len(reach):
        return INFINITE
    return Count(totals[v])


def count_N(graph, v, w, removed=frozenset()):
    """Paths from v whose first edge is not an edge of w; empty path counts.

    The per-vertex term behind every finite index formula.  `removed` deletes
    edges from the graph before anything is counted.
    """
    removed = frozenset(removed)
    banned = set(w.edges)
    total = Count(1)
    for e in graph.out_edges(v):
        if e in removed or e in banned:
            continue
        total = total + count_paths_from(graph, graph.tgt(e), removed)
    return total


def iter_paths(graph, start, removed=frozenset(), skip_first=frozenset(), max_len=None):
    """Yield paths from `start` in depth-first lexicographic edge-id order.

    The empty path comes first.  `skip_first` bans edge ids in the first
    position only; `removed` bans them everywhere.  Without max_len the
    generator is infinite whenever a circuit is reachable, so callers either
    pass a bound or know the path set is finite.
    """
    removed = frozenset(removed)
    skip_first = frozenset(skip_first)
    path = graph.empty_path(start)
    yield path
    if max_len is not None and max_len <= 0:
        return
    # each frame resumes the out-edges of its path where the last child left off
    stack = [(path, iter(graph.out_edges(start)))]
    while stack:
        path, edges = stack[-1]
        for e in edges:
            if e in removed or (not path.edges and e in skip_first):
                continue
            q = Path(path.edges + (e,), path.verts + (graph.tgt(e),))
            yield q
            if max_len is None or len(q.edges) < max_len:
                stack.append((q, iter(graph.out_edges(q.end))))
            break
        else:
            stack.pop()


# ---------------------------------------------------------------------------
# escape witnesses


def _simple_circuits_from(graph, s):
    # vertex-simple circuits based at s, in lexicographic edge order
    found = []
    seen = {s}
    stack = [(graph.empty_path(s), iter(graph.out_edges(s)))]
    while stack:
        path, edges = stack[-1]
        for e in edges:
            t = graph.tgt(e)
            if t != s and t in seen:
                continue
            q = Path(path.edges + (e,), path.verts + (t,))
            if t == s:
                found.append(q)
            else:
                seen.add(t)
                stack.append((q, iter(graph.out_edges(t))))
                break
        else:
            stack.pop()
            seen.discard(path.end)
    return found


def _reach_path(graph, v0, targets, blocked):
    # shortest path from v0 to any target avoiding blocked edges, BFS order
    if v0 in targets:
        return Path((), (v0,))
    seen = {v0}
    queue = deque([Path((), (v0,))])
    while queue:
        p = queue.popleft()
        for e in graph.out_edges(p.end):
            if e in blocked:
                continue
            t = graph.tgt(e)
            if t in seen:
                continue
            q = Path(p.edges + (e,), p.verts + (t,))
            if t in targets:
                return q
            seen.add(t)
            queue.append(q)
    return None


def find_escape_circuit(graph, anchor, forbidden_loop=None):
    """Search for (circuit, connector, vertex) certifying an infinite index.

    The witness is a circuit c, a vertex v0 of `anchor`, and a path g from v0
    to a vertex of c using no edge of c or of `anchor`.  With forbidden_loop
    set, circuits consisting of that single loop edge alone are skipped.
    Returns None when no witness exists; restricting the search to
    vertex-simple circuits and vertex-simple connectors loses nothing, since
    any witness shortens to one of that shape.
    """
    anchor_vs = list(dict.fromkeys(anchor.verts))
    for s in sorted(graph.vertices):
        for c in _simple_circuits_from(graph, s):
            if forbidden_loop is not None and all(e == forbidden_loop for e in c.edges):
                continue
            blocked = set(c.edges) | set(anchor.edges)
            targets = set(c.verts)
            for v0 in anchor_vs:
                g = _reach_path(graph, v0, targets, blocked)
                if g is not None:
                    return c, g, v0
    return None


def check_escape_witness(graph, anchor, witness, forbidden_loop=None):
    """Validate a witness triple against the definition, independently of how
    it was found."""
    c, g, v0 = witness
    if not is_circuit(c):
        return False
    if forbidden_loop is not None and all(e == forbidden_loop for e in c.edges):
        return False
    if v0 not in anchor.verts:
        return False
    if g.start != v0 or g.end not in c.verts:
        return False
    blocked = set(c.edges) | set(anchor.edges)
    return not (set(g.edges) & blocked)


# ---------------------------------------------------------------------------
# text formats


def parse_graph(text):
    """Graph from its text form: 'vertex NAME' and 'edge NAME SRC TGT' lines,
    blank lines and # comments ignored."""
    vertices = []
    edges = {}
    for ln, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "vertex" and len(tokens) == 2:
            if tokens[1] in vertices:
                raise ParseError(f"line {ln}: duplicate vertex {tokens[1]!r}")
            vertices.append(tokens[1])
        elif tokens[0] == "edge" and len(tokens) == 4:
            if tokens[1] in edges:
                raise ParseError(f"line {ln}: duplicate edge {tokens[1]!r}")
            edges[tokens[1]] = (tokens[2], tokens[3])
        else:
            raise ParseError(f"line {ln}: expected 'vertex NAME' or 'edge NAME SRC TGT'")
    try:
        return Graph(vertices, edges)
    except ConstructionError as exc:
        raise ParseError(str(exc)) from None


def parse_path(graph, text):
    """Path from a literal: '@v' for the empty path at v, 'e1.e2.e3' otherwise."""
    text = text.strip()
    if not text:
        raise ParseError("empty path literal")
    if text.startswith("@"):
        v = text[1:]
        if v not in graph.vertices:
            raise ParseError(f"unknown vertex {v!r}")
        return graph.empty_path(v)
    names = text.split(".")
    if any(not n for n in names):
        raise ParseError(f"malformed path literal {text!r}")
    try:
        return graph.path(names)
    except (ConstructionError, CompositionError) as exc:
        raise ParseError(str(exc)) from None


def path_literal(p):
    return p.literal()
