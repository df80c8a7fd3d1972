"""Graphs the workloads ask questions on, as reference graphs.

The fixtures are written out from their definitions, not read from gisalg.
``Relabelled`` renames vertices and edges from the seed, so a seed changes the
inputs and the order every search meets them in, while the shape, and with
it the work and the answers, stays the same.
"""

import string

from ref import RGraph, path, path_literal


def bouquet(k):
    return RGraph(["o"], {string.ascii_lowercase[i]: ("o", "o") for i in range(k)})


def loopx():
    return RGraph(
        ["x", "y", "z", "xp", "yp"],
        {
            "a": ("x", "x"),
            "e": ("x", "y"),
            "f": ("y", "z"),
            "g": ("x", "xp"),
            "h": ("xp", "yp"),
            "k": ("y", "yp"),
        },
    )


def loopxf():
    g = loopx()
    return RGraph(g.vertices, dict(g.edges, fp=("z", "x")))


def chain(n):
    """v_n -> ... -> v_0 along e_n ... e_1, as gisalg's chain<n>."""
    return RGraph(
        [f"v{i}" for i in range(n + 1)],
        {f"e{i}": (f"v{i}", f"v{i - 1}") for i in range(1, n + 1)},
    )


def ring(n):
    """r_0 -> r_1 -> ... -> r_{n-1} -> r_0 along x_0 ... x_{n-1}."""
    return RGraph(
        [f"r{i}" for i in range(n)],
        {f"x{i}": (f"r{i}", f"r{(i + 1) % n}") for i in range(n)},
    )


def kn_tail(n):
    """The complete digraph on k_0..k_{n-1}, a bridge k_0 -> t_2, and the
    acyclic tail t_2 -s2-> t_1 -s1-> t_0, which cannot reach the K_n."""
    edges = {
        f"c{i}x{j}": (f"k{i}", f"k{j}") for i in range(n) for j in range(n) if i != j
    }
    edges.update(br=("k0", "t2"), s2=("t2", "t1"), s1=("t1", "t0"))
    return RGraph([f"k{i}" for i in range(n)] + ["t0", "t1", "t2"], edges)


class Relabelled:
    """A graph under a seeded renaming; ``path`` takes old names."""

    def __init__(self, g, rng):
        vs = list(g.vertices)
        es = sorted(g.edges)
        vnum = rng.sample(range(len(vs)), len(vs))
        enum = rng.sample(range(len(es)), len(es))
        self.v = {v: f"n{k}" for v, k in zip(vs, vnum)}
        self.e = {e: f"m{k}" for e, k in zip(es, enum)}
        self.graph = RGraph(
            self.v.values(),
            {self.e[e]: (self.v[s], self.v[t]) for e, (s, t) in g.edges.items()},
        )

    def path(self, start, edges):
        return path(self.graph, self.v[start], [self.e[e] for e in edges])


def literal_spec(spec):
    """gisalg's literal for a subsemigroup spec."""
    if spec[0] == "improper":
        return "improper"
    return " ".join([spec[0]] + [path_literal(p) for p in spec[1:]])
