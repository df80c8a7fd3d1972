"""Element arithmetic against the spec'd examples and the brute-force twin."""

import copy
import itertools
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gisalg
from bruteforce import bf_inv, bf_leq, bf_mul, bf_paths, bf_suffix
from gisalg import (
    ZERO,
    ConstructionError,
    Element,
    ParseError,
    Path,
    ZeroUpSetError,
    closure_saturate,
    coset_representatives,
    element_key,
    enumerate_elements,
    idempotent,
    inverse,
    multiply,
    natural_leq,
    parse_element,
    parse_subsemigroup,
    top,
    up_set,
)
from gisalg.oracle import BoundedUniverse

words = st.lists(st.sampled_from("ab"), min_size=0, max_size=4)


def elem(g, lw, rw):
    return Element(g.path(lw, at="o"), g.path(rw, at="o"))


@pytest.fixture(scope="module")
def universe2(bouquet2):
    return enumerate_elements(bouquet2, 2)


def test_kernel_names_the_benchmark_reads(loopx):
    # the benchmark records BACKEND in every result and traces these kernels
    assert gisalg.BACKEND == "pure"
    for name in ("mul", "leq", "rays", "top", "suffix_of", "saturate"):
        assert callable(getattr(gisalg._backend.kernels, name))
    # it counts constructions by wrapping __init__ with a pass-through
    built = []

    def counting(init):
        def counted(obj, *args, **kwargs):
            built.append(type(obj))
            init(obj, *args, **kwargs)

        return counted

    originals = {cls: cls.__init__ for cls in (Path, Element)}
    try:
        for cls, init in originals.items():
            cls.__init__ = counting(init)
        assert loopx.path(["e", "f"]).literal() == "e.f"
        x = parse_element(loopx, "(e.f|e.k)")
        assert multiply(x, inverse(x)).literal() == "(e.f|e.f)"
        assert Path in built and Element in built
    finally:
        for cls, init in originals.items():
            cls.__init__ = init


def test_results_are_elements_of_paths(loopx):
    # kernel results must come back wrapped, never as bare nested tuples
    x = parse_element(loopx, "(a.e.f|a.e.k)")
    y = parse_element(loopx, "(e.k|e.f)")
    sub = parse_subsemigroup(loopx, "cycle a.a e.f")
    gens = [parse_element(loopx, "(e.f|a.e.f)")]
    members, _ = closure_saturate(BoundedUniverse(loopx, 3), gens)
    results = [multiply(x, y), multiply(y, x), inverse(x), top(x)]
    results += up_set(x) + members + coset_representatives(loopx, sub)
    for r in results:
        assert type(r) is Element, r
        assert type(r.left) is Path and type(r.right) is Path, r
        again = parse_element(loopx, r.literal())
        assert r == again and hash(r) == hash(again), r
    assert multiply(x, parse_element(loopx, "(g|g)")) is ZERO


def test_construction(loopx):
    ef = loopx.path(["e", "f"])
    k = loopx.path(["k"], at="y")
    with pytest.raises(ConstructionError):
        Element(ef, k)  # components must be coinitial
    with pytest.raises(ConstructionError):
        Element(ef, None)  # zero is both-None only
    x = Element(ef, loopx.path(["e", "k"]))
    assert not x.is_zero and not x.is_idempotent
    assert idempotent(ef).is_idempotent
    assert ZERO.is_zero and ZERO.is_idempotent
    # an element is the pair of its components, hashed as that pair
    assert x == (x.left, x.right) and hash(x) == hash((x.left, x.right))
    assert ZERO == (None, None) and hash(ZERO) == hash((None, None))
    with pytest.raises(AttributeError):
        x.left = k


def test_copy_and_pickle_round_trip(loopx):
    x = parse_element(loopx, "(e.f|e.k)")
    for obj in (x.left, x, ZERO):
        for got in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert got == obj and type(got) is type(obj)

def test_literals(loopx):
    assert parse_element(loopx, "(e.f|e.k)").literal() == "(e.f|e.k)"
    assert parse_element(loopx, "0") is ZERO
    assert parse_element(loopx, "(@x|a.a)").literal() == "(@x|a.a)"
    for bad in ["", "(e.f|)", "(e.f)", "(e.f|k)", "e.f|e.k", "(e.f|e.k", "(a|b|c)"]:
        with pytest.raises(ParseError):
            parse_element(loopx, bad)


def test_multiply_examples(loop1, loopx):
    # powers of the loop compose by cancelling the matched middle
    assert multiply(
        parse_element(loop1, "(@x|a.a)"), parse_element(loop1, "(a|@x)")
    ) == parse_element(loop1, "(@x|a)")
    ef = parse_element(loopx, "(e.f|e.f)")
    f = parse_element(loopx, "(f|f)")
    g = parse_element(loopx, "(g|g)")
    assert multiply(ef, f) == ef
    assert multiply(f, ef) == ef
    assert multiply(g, ef) is ZERO
    assert multiply(ef, ZERO) is ZERO and multiply(ZERO, ef) is ZERO
    assert ef * f == ef  # operator form


def test_inverse(loopx):
    x = parse_element(loopx, "(e.f|a.e.f)")
    assert inverse(x) == parse_element(loopx, "(a.e.f|e.f)")
    assert inverse(ZERO) is ZERO
    fk = parse_element(loopx, "(f|k)")
    assert multiply(inverse(fk), fk) == parse_element(loopx, "(k|k)")
    assert multiply(fk, inverse(fk)) == parse_element(loopx, "(f|f)")


def test_multiply_matches_bruteforce(universe2):
    for a, b in itertools.product(universe2, repeat=2):
        assert multiply(a, b) == bf_mul(a, b)


def test_inverse_matches_bruteforce(universe2):
    for a in universe2:
        assert inverse(a) == bf_inv(a)
        assert multiply(multiply(a, inverse(a)), a) == a


def test_leq_matches_bruteforce(universe2):
    for a, b in itertools.product(universe2, repeat=2):
        assert natural_leq(a, b) == bf_leq(a, b)


def test_leq_examples(loopx):
    below = parse_element(loopx, "(a.e.f|a.e.f)")
    above = parse_element(loopx, "(e.f|e.f)")
    assert natural_leq(below, above)
    assert natural_leq(above, parse_element(loopx, "(f|f)"))
    assert not natural_leq(parse_element(loopx, "(f|f)"), above)
    assert natural_leq(ZERO, above) and not natural_leq(above, ZERO)
    assert natural_leq(above, above)


def test_up_set_examples(loopx):
    x = parse_element(loopx, "(a.e.f|a.a.e.f)")
    assert up_set(x) == [x, parse_element(loopx, "(e.f|a.e.f)")]
    assert top(x) == parse_element(loopx, "(e.f|a.e.f)")
    idem = parse_element(loopx, "(a.e.f|a.e.f)")
    assert [y.literal() for y in up_set(idem)] == [
        "(a.e.f|a.e.f)", "(e.f|e.f)", "(f|f)", "(@z|@z)",
    ]
    lone = parse_element(loopx, "(g|e.f)")
    assert up_set(lone) == [lone]
    with pytest.raises(ZeroUpSetError):
        up_set(ZERO)
    with pytest.raises(ZeroUpSetError):
        top(ZERO)


@given(words, words)
def test_up_set_size_is_lcp_plus_one(bouquet2, u, v):
    x = elem(bouquet2, u, v)
    k = 0
    while k < min(len(u), len(v)) and u[k] == v[k]:
        k += 1
    ups = up_set(x)
    assert len(ups) == k + 1
    assert ups[0] == x and ups[-1] == top(x)
    for lo, hi in zip(ups, ups[1:]):
        assert natural_leq(lo, hi) and not natural_leq(hi, lo)


def test_element_key_order(universe2):
    keys = [element_key(a) for a in universe2]
    assert keys == sorted(keys)
    assert universe2[0] is ZERO
    assert len(set(keys)) == len(keys)


def test_enumerate_counts(bouquet2, chain3, loopx):
    # one vertex, 2^(k+1)-1 paths up to length k, squared, plus zero
    assert len(enumerate_elements(bouquet2, 1)) == 3 * 3 + 1
    assert len(enumerate_elements(bouquet2, 2)) == 7 * 7 + 1
    # pairs are grouped by shared initial vertex
    expected = 1 + sum(
        len(bf_paths(chain3, v, 3)) ** 2 for v in sorted(chain3.vertices)
    )
    assert len(enumerate_elements(chain3, 3)) == expected == 31
    got = enumerate_elements(loopx, 2)
    want = 1 + sum(len(bf_paths(loopx, v, 2)) ** 2 for v in sorted(loopx.vertices))
    assert len(got) == len(set(got)) == want
