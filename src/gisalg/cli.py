"""Command line interface.

Every verb takes the graph first, as a file path or a named fixture, then
literals: paths as '@v' or 'e1.e2', elements as '(left|right)' or '0',
subsemigroups as 'chain <p>', 'cycle <p> <d>', 'infchain <c> <q>' or
'improper' in a single shell argument.  Output is plain text, or one JSON
object with --json.  Exit status: 0 ok, 1 domain error (category named on
stderr), 2 parse error, 3 internal error (traceback on stderr).
"""

import argparse
import json
import os
import sys

from gisalg.conjugacy import conjugator
from gisalg.cosets import coset_representatives, index_verdict, same_coset
from gisalg.elements import multiply, natural_leq, parse_element
from gisalg.elements import inverse as element_inverse
from gisalg.errors import GisalgError, ParseError
from gisalg.fixtures import FIXTURE_PATTERNS, fixture
from gisalg.graphs import parse_graph
from gisalg.oracle import BoundedUniverse, closure_saturate, index_profile
from gisalg.subsemigroups import (
    classify,
    generated,
    membership,
    parse_subsemigroup,
)


def load_graph(source):
    if os.path.exists(source):
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {source!r}: {exc}") from None
        return parse_graph(text)
    g = fixture(source)
    if g is None:
        raise ParseError(f"{source!r} is neither a graph file nor a named fixture")
    return g


def build_parser():
    top = argparse.ArgumentParser(
        prog="gisalg",
        description="graph inverse semigroup calculator",
    )
    subs = top.add_subparsers(dest="verb", required=True)

    def add(name, help_text, graph=True):
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        if graph:
            p.add_argument("graph", help="graph file or named fixture")
        return p

    p = add("multiply", "product of two elements")
    p.add_argument("a")
    p.add_argument("b")
    p = add("inverse", "inverse of an element")
    p.add_argument("a")
    p = add("leq", "natural partial order test")
    p.add_argument("a")
    p.add_argument("b")
    p = add("member", "element membership in a subsemigroup")
    p.add_argument("sub")
    p.add_argument("a")
    p = add("closure", "smallest closed inverse subsemigroup containing the generators")
    p.add_argument("gens", nargs="+")
    p = add("classify", "kind of a subsemigroup")
    p.add_argument("sub")
    p = add("index", "number of cosets, finite or infinite with witness")
    p.add_argument("sub")
    p = add("cosets", "coset representatives (finite index only)")
    p.add_argument("sub")
    p = add("same-coset", "whether two elements generate the same coset")
    p.add_argument("sub")
    p.add_argument("a")
    p.add_argument("b")
    p = add("conjugate", "conjugacy of two subsemigroups, with a conjugator")
    p.add_argument("sub1")
    p.add_argument("sub2")
    p = add("oracle-index", "brute-force coset counts by growing bound")
    p.add_argument("sub")
    p.add_argument("--maxlen", type=int, default=8)
    p = add("oracle-closure", "brute-force closure of generators in a bounded universe")
    p.add_argument("gens", nargs="+")
    p.add_argument("--maxlen", type=int, default=8)
    add("fixtures", "list named fixture patterns", graph=False)
    return top


def _bool_lines(flag):
    return ["true" if flag else "false"]


def run(ns):
    verb = ns.verb
    if verb == "fixtures":
        return {"verb": verb, "result": FIXTURE_PATTERNS}, list(FIXTURE_PATTERNS)

    graph = load_graph(ns.graph)

    if verb == "multiply":
        r = multiply(parse_element(graph, ns.a), parse_element(graph, ns.b))
        return {"verb": verb, "result": r.literal()}, [r.literal()]

    if verb == "inverse":
        r = element_inverse(parse_element(graph, ns.a))
        return {"verb": verb, "result": r.literal()}, [r.literal()]

    if verb == "leq":
        r = natural_leq(parse_element(graph, ns.a), parse_element(graph, ns.b))
        return {"verb": verb, "result": r}, _bool_lines(r)

    if verb == "member":
        sub = parse_subsemigroup(graph, ns.sub)
        r = membership(sub, parse_element(graph, ns.a))
        return {"verb": verb, "result": r}, _bool_lines(r)

    if verb == "closure":
        sub = generated([parse_element(graph, g) for g in ns.gens])
        return {"verb": verb, "result": sub.literal()}, [sub.literal()]

    if verb == "classify":
        tag = classify(parse_subsemigroup(graph, ns.sub))
        return {"verb": verb, "result": tag}, [tag]

    if verb == "index":
        sub = parse_subsemigroup(graph, ns.sub)
        cnt, wit = index_verdict(graph, sub)
        if cnt.is_finite:
            return (
                {"verb": verb, "result": {"finite": cnt.value}},
                [f"finite {cnt.value}"],
            )
        if wit is None:
            return {"verb": verb, "result": {"infinite": True}}, ["infinite"]
        c, g, v0 = wit
        w = {"circuit": c.literal(), "path": g.literal(), "vertex": v0}
        return (
            {"verb": verb, "result": {"infinite": True, "witness": w}},
            [
                "infinite",
                f"witness circuit={c.literal()} path={g.literal()} vertex={v0}",
            ],
        )

    if verb == "cosets":
        sub = parse_subsemigroup(graph, ns.sub)
        lits = [r.literal() for r in coset_representatives(graph, sub)]
        return {"verb": verb, "result": lits}, lits

    if verb == "same-coset":
        sub = parse_subsemigroup(graph, ns.sub)
        r = same_coset(sub, parse_element(graph, ns.a), parse_element(graph, ns.b))
        return {"verb": verb, "result": r}, _bool_lines(r)

    if verb == "conjugate":
        a = parse_subsemigroup(graph, ns.sub1)
        b = parse_subsemigroup(graph, ns.sub2)
        conj = conjugator(a, b)
        payload = {"verb": verb, "result": conj is not None}
        lines = _bool_lines(conj is not None)
        if conj is not None:
            payload["witness"] = conj.literal()
            lines.append(f"conjugator {conj.literal()}")
        return payload, lines

    if verb == "oracle-index":
        sub = parse_subsemigroup(graph, ns.sub)
        profile = index_profile(BoundedUniverse(graph, ns.maxlen), sub)
        return (
            {"verb": verb, "result": [[b, c] for b, c in profile]},
            [f"{b} {c}" for b, c in profile],
        )

    if verb == "oracle-closure":
        universe = BoundedUniverse(graph, ns.maxlen)
        gens = [parse_element(graph, g) for g in ns.gens]
        members, saw_zero = closure_saturate(universe, gens)
        lits = [m.literal() for m in members]
        return (
            {
                "verb": verb,
                "result": {"contains_zero": saw_zero, "elements": lits},
            },
            [f"zero {'true' if saw_zero else 'false'}"] + lits,
        )

    raise AssertionError(f"unhandled verb {verb!r}")


def main(argv=None):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        payload, lines = run(ns)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except GisalgError as exc:
        print(f"{exc.category} error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # a fault in gisalg itself, never reported as a domain error; the
        # import is here to keep it out of every start-up of the CLI
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if ns.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
