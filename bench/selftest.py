"""Self-test of the benchmark's checkers:

    python3 bench/selftest.py

First the closed forms the workloads expect (3 for K_n with a tail, n+1 for
chain<n>, n*m on ring<n>, 12 and 6 on loopx) are recounted by brute force
from the definitions.  Then every checker must pass gisalg's right answers
and reject a deliberately wrong one, so that none passes vacuously.  Exits 1
on the first failure.
"""

import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gisalg  # noqa: E402

import canon  # noqa: E402
import families  # noqa: E402
import ref  # noqa: E402
import wl_algebra  # noqa: E402
import wl_cli  # noqa: E402
import wl_decide  # noqa: E402
import wl_oracle  # noqa: E402
from ref import CheckError  # noqa: E402


def rejects(fn, *args):
    try:
        fn(*args)
    except CheckError:
        return
    raise AssertionError(f"{getattr(fn, '__name__', fn)} accepted a wrong answer")


def closed_forms(tmp):
    def brute(g, spec, bound):
        return ref.brute_index(g, spec, bound, ref.Members(g))

    g = families.kn_tail(4)
    assert brute(g, ("chain", ref.lit_path(g, "s2.s1")), 3) == 3
    g = families.chain(5)
    assert brute(g, ("chain", ref.lit_path(g, "e5.e4.e3.e2.e1")), 5) == 6
    for n, m in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        g = families.ring(n)
        p = ref.path(g, "r0", [f"x{i % n}" for i in range(n * m)])
        assert brute(g, ("cycle", p, ref.path(g, "r0", ())), 2 * n * m) == n * m, (n, m)
    g = families.loopx()
    assert brute(g, ("cycle", ref.lit_path(g, "a.a"), ref.lit_path(g, "e.f")), 5) == 12
    assert brute(g, ("cycle", ref.lit_path(g, "a"), ref.lit_path(g, "@x")), 5) == 6


def reference_checkers(tmp):
    # index off by one, infinite without witness, and vacuous witnesses
    g = families.ring(3)
    p = ref.path(g, "r0", ["x0", "x1", "x2"])
    at = ref.path(g, "r0", ())
    cyc = ("cycle", p, at)
    ref.check_verdict(g, cyc, ("finite", 3), 3)
    rejects(ref.check_verdict, g, cyc, ("finite", 4), 3)
    rejects(ref.check_verdict, g, cyc, ("infinite", None), "infinite")
    rejects(ref.check_verdict, g, cyc, ("infinite", (p, at, "r0")), "infinite")
    b2 = families.bouquet(2)
    ab = ref.lit_path(b2, "a.b")
    o = ref.lit_path(b2, "@o")
    rejects(ref.check_escape, b2, ("cycle", ab, o), (ab, o, "o"))
    ref.check_escape(b2, ("cycle", ref.lit_path(b2, "a"), o), (ref.lit_path(b2, "b"), o, "o"))
    lx = families.loopx()
    ef = ("chain", ref.lit_path(lx, "e.f"))
    a = ref.lit_path(lx, "a")
    ref.check_escape(lx, ef, (a, ref.lit_path(lx, "@x"), "x"))
    rejects(ref.check_escape, lx, ef, (a, ref.lit_path(lx, "e"), "x"))  # uses an edge of e.f
    rejects(ref.check_escape, lx, ef, (ref.lit_path(lx, "e"), ref.lit_path(lx, "@x"), "x"))

    # representatives: one missing, or two in the same coset
    member = ref.Members(lx)
    cyc = ("cycle", ref.lit_path(lx, "a.a"), ref.lit_path(lx, "e.f"))
    gg = gisalg.Graph(lx.vertices, lx.edges)
    reps = [canon.element(lx, t) for t in gisalg.coset_representatives(gg, gisalg.parse_subsemigroup(gg, "cycle a.a e.f"))]
    ref.check_reps(lx, cyc, reps, 12, member)
    rejects(ref.check_reps, lx, cyc, reps[:-1], 12, member)
    rejects(ref.check_reps, lx, cyc, reps[:-1] + reps[:1], 12, member)

    # conjugators: the inverse conjugates the wrong way, zero conjugates nothing
    other = ("cycle", ref.lit_path(lx, "a.a"), ref.lit_path(lx, "g"))
    c = ref.lit_element(lx, "(a.a.e.f|g)")
    ref.check_conjugator(lx, cyc, other, c, member, 8)
    rejects(ref.check_conjugator, lx, cyc, other, ref.inv(c), member, 8)
    rejects(ref.check_conjugator, lx, cyc, other, None, member, 8)

    # closures: a member short, the zero flag flipped, not the fixpoint
    within = ref.universe(b2, 2)
    gens = [ref.lit_element(b2, "(a|b)"), ref.lit_element(b2, "(@o|a)")]
    full, zero = ref.closure_fixpoint(b2, within, gens)
    assert full == within and zero
    ref.check_closure(b2, within, gens, full, True)
    rejects(ref.check_closure, b2, within, gens, sorted(full)[1:], True)
    rejects(ref.check_closure, b2, within, gens, full, False)
    within = ref.universe(b2, 4)
    small = [ref.lit_element(b2, "(@o|a.b)")]
    members, zero = ref.closure_fixpoint(b2, within, small)
    ref.check_closure(b2, within, small, members, zero)
    for drop in members - set(small):
        rejects(ref.check_closure, b2, within, small, members - {drop}, zero)

    # profiles: decreasing, or levelling off one below the index
    ref.check_profile([(0, 1), (1, 3), (2, 3)], 2, 3)
    rejects(ref.check_profile, [(0, 1), (1, 3), (2, 2)], 2, 2)
    rejects(ref.check_profile, [(0, 1), (1, 3), (2, 3)], 2, 4)
    rejects(ref.check_profile, [(0, 1), (1, 3), (2, 3)], 2, "infinite")

    # reading answers: a path whose itinerary does not follow its edges
    rejects(canon.path, lx, gisalg.Path(("e",), ("x", "z")))


def _answers(ops):
    """Each operation's right answer, read; fault operations' answers are
    wrong and must be rejected."""
    out = []
    for op in ops:
        plain = op.read(op.run())
        if op.fault:
            rejects(op.check, plain)
        else:
            op.check(plain)
        out.append((op, plain))
    return out


def algebra_checkers(tmp):
    wl = wl_algebra.build(gisalg, random.Random(1), tmp)
    swaps = 0
    for op, ans in _answers(wl.ops[:6]):
        # a product with its components swapped
        for k, (xy, yx) in enumerate(ans["products"]):
            if xy is not None and xy[0] != xy[1]:
                products = list(ans["products"])
                products[k] = ((xy[1], xy[0]), yx)
                rejects(op.check, dict(ans, products=products))
                swaps += 1
                break
        rejects(op.check, dict(ans, up=ans["up"][1:]))
        rejects(op.check, dict(ans, member=[not ans["member"][0]] + ans["member"][1:]))
        same = [[not ans["same"][0][0]] + ans["same"][0][1:]] + ans["same"][1:]
        rejects(op.check, dict(ans, same=same))
        # generated((d|p.d)) answered by the chain on d instead of L(p,d)
        rejects(op.check, dict(ans, generated=ans["generated"][:-1] + [("chain", ans["generated"][-1][2])]))
    assert swaps, "no product to swap"


def workload_checkers(tmp):
    """Every operation of every workload passes on gisalg's answers; the
    fault operations of decide fail."""
    for build in (wl_decide.build, wl_oracle.build):
        _answers(build(gisalg, random.Random(2), tmp).ops)
    qs = wl_cli.build(gisalg, random.Random(3), tmp).traced
    for op, ans in _answers(qs):
        if op.kind == "index":
            result = ans["result"]
            wrong = {"finite": result["finite"] + 1} if "finite" in result else {"finite": 1}
            rejects(op.check, dict(ans, result=wrong))
        elif op.kind == "oracle-closure":
            elements = ans["result"]["elements"][1:]
            rejects(op.check, dict(ans, result=dict(ans["result"], elements=elements)))


def main():
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        for test in (closed_forms, reference_checkers, algebra_checkers, workload_checkers):
            test(tmp)
            print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
