"""Paths, graphs, path counting, and escape-circuit search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (
    bf_concat,
    bf_conjugate,
    bf_count_paths,
    bf_paths,
    bf_primitive_root,
    bf_rotations,
    bf_suffix,
    bf_suffixes,
)
from gisalg import (
    INFINITE,
    CompositionError,
    ConstructionError,
    Count,
    WrongKindError,
    ParseError,
    Path,
    UnknownVertexError,
    chain,
    check_escape_witness,
    circuit_shift,
    concat,
    count_N,
    count_paths_from,
    find_escape_circuit,
    is_circuit,
    is_suffix,
    iter_paths,
    parse_graph,
    parse_path,
    paths_conjugate,
    power,
    primitive_root,
    rotate_circuit,
    strip_common_prefix,
    suffix_comparable,
    suffixes,
)

# words over the two loops of bouquet(2); every word is a path at o
words = st.lists(st.sampled_from("ab"), min_size=0, max_size=6)


def wpath(g, word):
    return g.path(word, at="o")


# ---------------------------------------------------------------- paths


def test_path_validation():
    with pytest.raises(ConstructionError):
        Path(("e",), ("v",))  # verts must be edges+1
    with pytest.raises(ConstructionError):
        Path((), ())


def test_path_basics(loopx):
    p = loopx.path(["e", "f"])
    assert (p.start, p.end, len(p)) == ("x", "z", 2)
    assert p.literal() == "e.f"
    assert loopx.empty_path("y").literal() == "@y"
    with pytest.raises(AttributeError):
        p.edges = ()


def test_parse_path_round_trip(loopx):
    for lit in ["@x", "e", "e.f", "a.a.e.k"]:
        assert parse_path(loopx, lit).literal() == lit
    with pytest.raises(ParseError):
        parse_path(loopx, "@nope")
    with pytest.raises(ParseError):
        parse_path(loopx, "e.e")  # f is the only edge out of y
    with pytest.raises(ParseError):
        parse_path(loopx, "")


def test_graph_accessors(loopx):
    assert loopx.src("f") == "y" and loopx.tgt("f") == "z"
    assert [e for e in loopx.out_edges("x")] == ["a", "e", "g"]
    with pytest.raises(ConstructionError):
        loopx.src("zz")
    with pytest.raises(UnknownVertexError):
        loopx.out_edges("w")
    with pytest.raises(CompositionError):
        loopx.path(["e", "e"])
    assert loopx.without_edges({"a"}).out_edges("x") == ("e", "g")


def test_parse_graph_round_trip(loopx):
    text = "\n".join(
        ["# comment", "vertex x", "vertex y", "vertex z", "vertex xp", "vertex yp"]
        + ["edge a x x", "edge e x y", "edge f y z", "edge g x xp", "edge h xp yp",
           "edge k y yp"]
    )
    assert parse_graph(text) == loopx


@pytest.mark.parametrize(
    "bad",
    [
        "vertex v\nvertex v",
        "vertex v\nedge e v v\nedge e v v",
        "vertex v\nedge e v w",
        "vertex v\nedge e v",
        "frobnicate v",
    ],
)
def test_parse_graph_errors(bad):
    with pytest.raises(ParseError):
        parse_graph(bad)


# ------------------------------------------------- path combinators


def test_concat_and_power(loopx):
    e, f = loopx.path(["e"]), loopx.path(["f"], at="y")
    assert concat(e, f) == loopx.path(["e", "f"])
    with pytest.raises(CompositionError):
        concat(f, e)
    a = loopx.path(["a"])
    assert power(a, 3) == loopx.path(["a", "a", "a"])
    assert power(a, 0) == loopx.empty_path("x")
    with pytest.raises(WrongKindError):
        power(e, 2)  # not a circuit


@given(words, words)
def test_suffix_matches_bruteforce(bouquet2, u, v):
    pu, pv = wpath(bouquet2, u), wpath(bouquet2, v)
    assert is_suffix(pu, pv) == bf_suffix(pu, pv)
    assert suffix_comparable(pu, pv) == (bf_suffix(pu, pv) or bf_suffix(pv, pu))


def test_suffixes_order(loopx):
    p = loopx.path(["a", "e", "f"])
    assert [s.literal() for s in suffixes(p)] == ["a.e.f", "e.f", "f", "@z"]
    assert suffixes(p) == bf_suffixes(p)


@given(words, words, words)
def test_strip_common_prefix(bouquet2, c, u, v):
    pu, pv = wpath(bouquet2, c + u), wpath(bouquet2, c + v)
    prefix, du, dv = strip_common_prefix(pu, pv)
    assert concat(prefix, du) == pu and concat(prefix, dv) == pv
    if du.edges and dv.edges:
        assert du.edges[0] != dv.edges[0]
    assert len(prefix) >= len(c)


def test_rotations(bouquet2, loopx):
    p = wpath(bouquet2, "aab")
    assert rotate_circuit(p, 1) == wpath(bouquet2, "aba")
    assert rotate_circuit(p, 3) == p
    assert circuit_shift(p, wpath(bouquet2, "baa")) == 2
    assert circuit_shift(p, wpath(bouquet2, "bab")) is None
    assert circuit_shift(p, p) == 0
    assert is_circuit(loopx.path(["a"]))
    assert not is_circuit(loopx.path(["e"]))
    assert not is_circuit(loopx.empty_path("x"))
    with pytest.raises(WrongKindError):
        rotate_circuit(loopx.path(["e"]), 1)


@given(words, words)
def test_conjugacy_matches_bruteforce(bouquet2, u, v):
    pu, pv = wpath(bouquet2, u), wpath(bouquet2, v)
    assert paths_conjugate(pu, pv) == bf_conjugate(pu, pv)


@given(words.filter(bool))
def test_primitive_root_matches_bruteforce(bouquet2, w):
    p = wpath(bouquet2, w)
    root, k = primitive_root(p)
    assert (root, k) == bf_primitive_root(p)
    assert power(root, k) == p
    assert primitive_root(root) == (root, 1)


# ------------------------------------------------------ counting


def test_count_arithmetic():
    assert Count(2) + Count(3) == Count(5)
    assert Count(2) + INFINITE == INFINITE
    assert INFINITE + Count(0) == INFINITE
    assert Count(3) * 4 == Count(12)
    assert INFINITE * 2 == INFINITE
    assert Count(7).value == 7
    assert not INFINITE.is_finite
    with pytest.raises(ValueError):
        INFINITE.value
    with pytest.raises(ConstructionError):
        Count(-1)


def bf_count(graph, v, removed=()):
    n = bf_count_paths(graph, v, removed=removed)
    return INFINITE if n is None else Count(n)


def test_count_paths_from_frozen(chain3, loopx, loop1, bouquet2):
    # chain: 1 + (paths down the spine)
    assert count_paths_from(chain3, "v3") == Count(4)
    assert count_paths_from(chain3, "v0") == Count(1)
    # loopx from y: @y, f, k (the spec prose miscounts this as 4; the
    # listed paths and the brute-force count both give 3)
    assert count_paths_from(loopx, "y") == Count(3)
    assert count_paths_from(loopx, "x") == INFINITE
    assert count_paths_from(loopx, "x", removed={"a"}) == Count(6)
    assert count_paths_from(loop1, "x") == INFINITE
    assert count_paths_from(loop1, "x", removed={"a"}) == Count(1)
    assert count_paths_from(bouquet2, "o") == INFINITE


def test_count_paths_from_matches_bruteforce(chain3, loopx, loopxf, loop1, bouquet2):
    for g in (chain3, loopx, loopxf, loop1, bouquet2):
        for v in sorted(g.vertices):
            assert count_paths_from(g, v) == bf_count(g, v)
            for e in sorted(g.edges):
                assert count_paths_from(g, v, removed={e}) == bf_count(
                    g, v, removed={e}
                )


def test_count_N_frozen(loopx, chain3):
    ef = loopx.path(["e", "f"])
    a = loopx.path(["a"])
    assert count_N(loopx, "z", ef) == Count(1)
    assert count_N(loopx, "y", ef, removed={"a"}) == Count(2)
    assert count_N(loopx, "x", ef, removed={"a"}) == Count(3)
    assert count_N(loopx, "x", a) == Count(6)
    w = chain3.path(["e3", "e2", "e1"])
    for v in ("v0", "v1", "v2", "v3"):
        assert count_N(chain3, v, w) == Count(1)


def test_count_N_matches_bruteforce(loopx):
    # N counts paths whose first edge avoids the anchor's edge set
    for v in sorted(loopx.vertices):
        for w in (loopx.path(["e", "f"]), loopx.path(["k"], at="y")):
            got = count_N(loopx, v, w, removed={"a"})
            want = len(
                bf_paths(loopx, v, 9, removed={"a"}, first_not_in=set(w.edges))
            )
            assert got == Count(want)


# ------------------------------------------------------ enumeration


def test_iter_paths_is_sorted_dfs(loopx):
    got = [p.literal() for p in iter_paths(loopx, "x", max_len=3)]
    assert got == [
        "@x", "a", "a.a", "a.a.a", "a.a.e", "a.a.g", "a.e", "a.e.f", "a.e.k",
        "a.g", "a.g.h", "e", "e.f", "e.k", "g", "g.h",
    ]


def test_iter_paths_filters(loopx):
    got = set(iter_paths(loopx, "x", removed={"a"}, skip_first={"e"}, max_len=4))
    want = set(bf_paths(loopx, "x", 4, removed={"a"}, first_not_in={"e"}))
    assert got == want
    assert {p.literal() for p in got} == {"@x", "g", "g.h"}


@given(st.integers(min_value=0, max_value=5))
@settings(max_examples=6, deadline=None)
def test_iter_paths_matches_bruteforce(loopx, n):
    got = list(iter_paths(loopx, "x", max_len=n))
    assert len(got) == len(set(got))
    assert set(got) == set(bf_paths(loopx, "x", n))


def test_iter_paths_walks_deeper_than_the_recursion_limit():
    assert len(list(iter_paths(chain(5000), "v5000"))) == 5001


# ------------------------------------------------- escape witnesses


def as_literals(witness):
    c, g, v0 = witness
    return (c.literal(), g.literal(), v0)


def test_escape_on_loopx(loopx):
    ef = loopx.path(["e", "f"])
    wit = find_escape_circuit(loopx, ef)
    assert wit is not None
    assert check_escape_witness(loopx, ef, wit)
    assert as_literals(wit) == ("a", "@x", "x")
    # removing the loop from play leaves no circuit at all
    assert find_escape_circuit(loopx, ef, forbidden_loop="a") is None


def test_escape_on_acyclic(chain3):
    w = chain3.path(["e3", "e2", "e1"])
    assert find_escape_circuit(chain3, w) is None
    assert find_escape_circuit(chain3, chain3.empty_path("v0")) is None


def test_escape_with_forbidden_loop(loopxf):
    ef = loopxf.path(["e", "f"])
    wit = find_escape_circuit(loopxf, ef, forbidden_loop="a")
    assert wit is not None
    c, g, v0 = wit
    assert set(c.edges) != {"a"}
    assert check_escape_witness(loopxf, ef, wit, forbidden_loop="a")
    assert as_literals(wit) == ("e.f.fp", "@x", "x")


def test_escape_witness_checker_rejects(loopx, loopxf):
    ef = loopx.path(["e", "f"])
    a = loopx.path(["a"])
    x0 = loopx.empty_path("x")
    z0 = loopx.empty_path("z")
    assert not check_escape_witness(loopx, ef, (ef, x0, "x"))  # not a circuit
    assert not check_escape_witness(loopx, ef, (a, z0, "z"))  # z not on circuit
    assert not check_escape_witness(loopx, ef, (a, x0, "y"))  # path at wrong vertex
    ag = loopx.path(["a", "g"])
    assert not check_escape_witness(loopx, ef, (a, ag, "x"))  # path uses circuit edge
    e = loopx.path(["e"])
    assert not check_escape_witness(loopx, ef, (a, e, "x"))  # path uses anchor edge
    wit = (loopxf.path(["e", "f", "fp"]), loopxf.empty_path("x"), "x")
    assert check_escape_witness(loopxf, loopxf.path(["e", "f"]), wit)
    assert not check_escape_witness(
        loopxf, loopxf.path(["e", "f"]), (loopxf.path(["a"]),) + wit[1:],
        forbidden_loop="a",
    )
