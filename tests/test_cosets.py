"""Cosets, canonical representatives, and the index formulas.

Representative lists are validated two ways: frozen against hand-computed
literals, and checked as a genuine partition (pairwise distinct cosets whose
union covers every element x with x·x^-1 in the subsemigroup).
"""

import itertools
import time

import pytest

from gisalg import (
    Count,
    FiniteChain,
    Graph,
    IMPROPER,
    INFINITE,
    InfiniteIndexError,
    NotACosetError,
    ZERO,
    chain,
    check_escape_witness,
    coset_elements_bounded,
    coset_of,
    coset_representatives,
    enumerate_elements,
    idempotent,
    index,
    index_verdict,
    inverse,
    membership,
    min_idempotent,
    multiply,
    natural_leq,
    parse_element,
    parse_subsemigroup,
    same_coset,
)


@pytest.fixture
def L(loopx):
    return parse_subsemigroup(loopx, "cycle a.a e.f")


# ------------------------------------------------------ cosettability


def test_not_a_coset(loopx, L):
    with pytest.raises(NotACosetError):
        coset_of(L, parse_element(loopx, "(g|g)"))
    with pytest.raises(NotACosetError):
        coset_of(L, ZERO)
    with pytest.raises(NotACosetError):
        same_coset(L, ZERO, parse_element(loopx, "(e.f|a)"))
    with pytest.raises(NotACosetError):
        coset_elements_bounded(L, parse_element(loopx, "(e.k|e.k)"), 3)


def test_same_coset_examples(loopx, L):
    a = parse_element(loopx, "(e.f|a.g)")
    b = parse_element(loopx, "(a.a.e.f|a.a.a.g)")
    c = parse_element(loopx, "(e.f|g)")
    assert same_coset(L, a, b)
    assert not same_coset(L, a, c)
    assert same_coset(L, a, a)


def test_canonical_representatives(loopx, chain3, L):
    got = coset_of(L, parse_element(loopx, "(e.f|a.a.a.g)"))
    assert got.representative == parse_element(loopx, "(e.f|a.g)")
    got = coset_of(L, parse_element(loopx, "(a.a.e.f|a.a.e.f)"))
    assert got.representative == parse_element(loopx, "(@z|@z)")
    w = chain3.path(["e3", "e2", "e1"])
    sub = FiniteChain(w)
    assert coset_of(sub, idempotent(w)).representative == idempotent(
        chain3.empty_path("v0")
    )
    t = parse_element(chain3, "(e1|@v1)")
    assert coset_of(sub, t).representative == t


def test_coset_equality_and_contains(loopx, L):
    A = coset_of(L, parse_element(loopx, "(e.f|a.g)"))
    B = coset_of(L, parse_element(loopx, "(a.a.e.f|a.a.a.g)"))
    C = coset_of(L, parse_element(loopx, "(e.f|g)"))
    assert A == B and hash(A) == hash(B)
    assert A != C
    assert A != coset_of(parse_subsemigroup(loopx, "chain e.f"), idempotent(loopx.path("ef")))
    assert A.contains(parse_element(loopx, "(e.f|a.a.a.g)"))
    assert not A.contains(parse_element(loopx, "(e.f|g)"))
    assert not A.contains(ZERO)
    assert not A.contains(parse_element(loopx, "(g|g)"))


# ------------------------------------------------------ index values


def test_index_finite_chain(chain3, loopx):
    w = chain3.path(["e3", "e2", "e1"])
    assert index(chain3, FiniteChain(w)) == Count(4)
    assert index(chain3, FiniteChain(chain3.path(["e1"], at="v1"))) == Count(2)
    cnt, wit = index_verdict(loopx, FiniteChain(loopx.path("ef")))
    assert cnt == INFINITE
    assert check_escape_witness(loopx, loopx.path("ef"), wit)


def test_index_cycle_single_loop(loopx, loop1):
    ef = loopx.path("ef")
    for m in (1, 2, 3):
        sub = parse_subsemigroup(loopx, f"cycle {'.'.join('a' * m)} e.f")
        assert index(loopx, sub) == Count(6 * m)
    for m in (1, 2, 3, 4, 5):
        sub = parse_subsemigroup(loop1, f"cycle {'.'.join('a' * m)} @x")
        assert index(loop1, sub) == Count(m)


def test_index_escape_beats_the_loop_formula(loopxf):
    # an extra return edge opens a circuit avoiding the loop: infinite
    sub = parse_subsemigroup(loopxf, "cycle a.a e.f")
    cnt, wit = index_verdict(loopxf, sub)
    assert cnt == INFINITE
    assert check_escape_witness(loopxf, sub.d, wit, forbidden_loop="a")
    assert any(e != "a" for e in wit[0].edges)


def test_index_unconditionally_infinite(bouquet2, loopx):
    sub = parse_subsemigroup(bouquet2, "cycle a.b @o")
    cnt, wit = index_verdict(bouquet2, sub)
    assert cnt == INFINITE
    assert check_escape_witness(bouquet2, sub.d, wit)
    sub = parse_subsemigroup(loopx, "infchain a @x")
    cnt, wit = index_verdict(loopx, sub)
    assert cnt == INFINITE
    assert check_escape_witness(loopx, sub.q, wit)


def test_index_on_a_ring_longer_than_the_recursion_limit():
    ring = _ring(3000)
    sub = parse_subsemigroup(ring, "chain x0")
    cnt, wit = index_verdict(ring, sub)
    assert cnt == INFINITE
    assert check_escape_witness(ring, sub.w, wit)


def _kn_tail(n):
    # K_n, a bridge k0 -> t2, and the acyclic tail t2 -s2-> t1 -s1-> t0
    edges = {f"c{i}x{j}": (f"k{i}", f"k{j}") for i in range(n) for j in range(n) if i != j}
    edges.update(br=("k0", "t2"), s2=("t2", "t1"), s1=("t1", "t0"))
    return Graph([f"k{i}" for i in range(n)] + ["t0", "t1", "t2"], edges)


def _ring(n):
    return Graph(
        [f"r{i}" for i in range(n)],
        {f"x{i}": (f"r{i}", f"r{(i + 1) % n}") for i in range(n)},
    )


@pytest.mark.parametrize(
    "graph, spec, expected",
    [
        (_kn_tail(12), "chain s2.s1", Count(3)),
        (chain(5000), "chain " + ".".join(f"e{i}" for i in range(5000, 0, -1)), Count(5001)),
        (_ring(5000), "chain x0", INFINITE),
    ],
    ids=["K12+tail", "chain5000", "ring5000"],
)
def test_index_verdict_time_is_linear(graph, spec, expected):
    # each verdict is O(V+E); enumerating the circuits of K_12 would take hours
    sub = parse_subsemigroup(graph, spec)
    t0 = time.perf_counter()
    cnt, wit = index_verdict(graph, sub)
    assert time.perf_counter() - t0 < 2
    assert cnt == expected
    if wit is not None:
        assert check_escape_witness(graph, sub.w, wit)


def test_index_improper(loopx):
    assert index(loopx, IMPROPER) == Count(1)
    assert coset_representatives(loopx, IMPROPER) == [
        idempotent(loopx.empty_path("x"))
    ]


def test_infinite_index_raises_on_enumeration(loopx):
    with pytest.raises(InfiniteIndexError):
        coset_representatives(loopx, FiniteChain(loopx.path("ef")))
    with pytest.raises(InfiniteIndexError):
        coset_representatives(loopx, parse_subsemigroup(loopx, "infchain a @x"))


# ------------------------------------------------------ representatives


def test_representatives_chain3(chain3):
    sub = FiniteChain(chain3.path(["e3", "e2", "e1"]))
    reps = coset_representatives(chain3, sub)
    assert [r.literal() for r in reps] == [
        "(e3.e2.e1|@v3)",
        "(e2.e1|@v2)",
        "(e1|@v1)",
        "(@v0|@v0)",
    ]
    sizes = [len(coset_elements_bounded(sub, r, 4)) for r in reps]
    assert sizes == [1, 2, 3, 4]


def test_representatives_loopx(loopx, L):
    reps = coset_representatives(loopx, L)
    assert [r.literal() for r in reps] == [
        "(e.f|@x)",
        "(e.f|g)",
        "(e.f|g.h)",
        "(f|@y)",
        "(f|k)",
        "(@z|@z)",
        "(e.f|a)",
        "(e.f|a.e)",
        "(e.f|a.e.f)",
        "(e.f|a.e.k)",
        "(e.f|a.g)",
        "(e.f|a.g.h)",
    ]
    assert Count(len(reps)) == index(loopx, L)
    for a, b in itertools.combinations(reps, 2):
        assert not same_coset(L, a, b)


@pytest.mark.parametrize(
    "fixture,literal",
    [
        ("chain3", "chain e3.e2.e1"),
        ("loopx", "cycle a.a e.f"),
        ("loopx", "cycle a e.f"),
        ("loop1", "cycle a.a.a @x"),
    ],
)
def test_representatives_partition(fixture, literal, request):
    # the reps form a partition of {x != 0 : x x^-1 in L} at a small bound
    g = request.getfixturevalue(fixture)
    sub = parse_subsemigroup(g, literal)
    reps = coset_representatives(g, sub)
    cosets = [coset_of(sub, r) for r in reps]
    for x in enumerate_elements(g, 3):
        if x.is_zero:
            continue
        hits = sum(1 for c in cosets if c.contains(x))
        expected = 1 if membership(sub, multiply(x, inverse(x))) else 0
        assert hits == expected


# ----------------------------------------------- coset structure laws


def test_products_fall_back_into_the_subsemigroup(loopx, L):
    t = parse_element(loopx, "(e.f|a)")
    C = coset_elements_bounded(L, t, 4)
    assert C
    for c1, c2 in itertools.product(C, repeat=2):
        y = multiply(c1, inverse(c2))
        assert not y.is_zero
        assert membership(L, y)


def test_subsemigroup_is_upclosure_of_coset_products(loopx, L):
    from gisalg import bounded_elements

    t = parse_element(loopx, "(e.f|a)")
    C = coset_elements_bounded(L, t, 4)
    for x in bounded_elements(L, 2):
        c1 = multiply(x, t)
        assert not c1.is_zero and c1 in C
        assert natural_leq(multiply(c1, inverse(t)), x) or any(
            natural_leq(multiply(c1, inverse(c2)), x) for c2 in C
        )


def test_bounded_cosets_disjoint_or_equal(loopx, L):
    reps = coset_representatives(loopx, L)
    slices = [coset_elements_bounded(L, r, 3) for r in reps]
    for (ra, sa), (rb, sb) in itertools.combinations(zip(reps, slices), 2):
        if same_coset(L, ra, rb):
            assert sa == sb
        else:
            assert not (sa & sb)
    extra = coset_elements_bounded(L, parse_element(loopx, "(a.a.e.f|a.a.a.g)"), 3)
    assert extra == coset_elements_bounded(L, parse_element(loopx, "(e.f|a.g)"), 3)


def test_membership_in_bounded_slice_matches_same_coset(loopx, L):
    a = parse_element(loopx, "(e.f|a.g)")
    for lit in ["(a.a.e.f|a.a.a.g)", "(e.f|g)", "(e.f|a)", "(e.f|a.g.h)"]:
        b = parse_element(loopx, lit)
        bound = max(len(b.left.edges), len(b.right.edges))
        assert (b in coset_elements_bounded(L, a, bound)) == same_coset(L, a, b)


def test_min_idempotent_coset_is_the_subsemigroup_slice(chain3):
    sub = FiniteChain(chain3.path(["e3", "e2", "e1"]))
    from gisalg import bounded_elements

    got = coset_elements_bounded(sub, min_idempotent(sub), 4)
    assert got == set(bounded_elements(sub, 4))
