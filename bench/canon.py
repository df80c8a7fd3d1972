"""Answers from gisalg, read into the reference form of ``ref``.

Reading validates as it goes: a path must be a real path of the graph with
the itinerary its edges give, an element's components must be coinitial.
Every function raises ``ref.CheckError`` on an answer it cannot read.
"""

import json

import ref
from ref import CheckError, check


def path(g, p):
    edges, vs = tuple(p.edges), tuple(p.verts)
    check(len(vs) == len(edges) + 1, "path itinerary has the wrong length")
    out = ref.path(g, vs[0], edges)
    check(list(vs) == ref.verts(g, out), "path itinerary does not follow its edges")
    return out


def element(g, x):
    if x.left is None:
        check(x.right is None, "zero element with a component")
        return None
    out = (path(g, x.left), path(g, x.right))
    check(out[0][0] == out[1][0], "element components are not coinitial")
    return out


def subsemigroup(g, s):
    kind = s.kind
    if kind == "finite-chain":
        return ("chain", path(g, s.w))
    if kind == "infinite-chain":
        return ("infchain", path(g, s.c), path(g, s.q))
    if kind == "cycle":
        return ("cycle", path(g, s.p), path(g, s.d))
    check(kind == "improper", f"unknown subsemigroup kind {kind!r}")
    return ("improper",)


def verdict(g, answer):
    """index_verdict's (count, witness) as ("finite", n) or
    ("infinite", (circuit, connector, vertex) or None)."""
    cnt, wit = answer
    if cnt.is_finite:
        check(wit is None, "finite verdict with a witness")
        return ("finite", cnt.value)
    if wit is None:
        return ("infinite", None)
    c, conn, v0 = wit
    return ("infinite", (path(g, c), path(g, conn), v0))


def batch(one):
    """Read every answer of a batch; they must agree."""

    def read(answers):
        out = [one(a) for a in answers]
        check(all(x == out[0] for x in out), "answers in one batch differ")
        return out[0]

    return read


# ---------------------------------------------------------------------------
# the command line's --json output


def cli_json(stdout):
    try:
        payload = json.loads(stdout)
    except ValueError:
        raise CheckError(f"output is not JSON: {stdout[:200]!r}") from None
    check(isinstance(payload, dict) and "result" in payload, "JSON output without a result")
    return payload


def cli_verdict(g, result):
    if "finite" in result:
        return ("finite", result["finite"])
    check(result.get("infinite") is True, f"unreadable index result {result!r}")
    w = result.get("witness")
    if w is None:
        return ("infinite", None)
    return (
        "infinite",
        (ref.lit_path(g, w["circuit"]), ref.lit_path(g, w["path"]), w["vertex"]),
    )
