"""The command line front end, exercised in-process through main(argv).

A couple of determinism checks spawn real subprocesses, once per hash seed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gisalg import fixtures, parse_element
from gisalg.cli import main

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines_of(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert err == ""
    return out.splitlines()


# ------------------------------------------------------ happy paths


def test_index_example(capsys):
    assert lines_of(
        capsys, "index", str(FIXTURE_DIR / "loopx.graph"), "cycle a.a e.f"
    ) == ["finite 12"]


def test_multiply_example(capsys):
    assert lines_of(
        capsys, "multiply", str(FIXTURE_DIR / "loop1.graph"), "(@x|a.a)", "(a|@x)"
    ) == ["(@x|a)"]


def test_member_example(capsys):
    assert lines_of(
        capsys, "member", str(FIXTURE_DIR / "loopx.graph"), "cycle a.a e.f", "(e.f|a.e.f)"
    ) == ["false"]
    assert lines_of(
        capsys, "member", "loopx", "cycle a.a e.f", "(e.f|a.a.e.f)"
    ) == ["true"]


def test_named_fixture_equals_file(capsys):
    from_file = lines_of(
        capsys, "cosets", str(FIXTURE_DIR / "chain3.graph"), "chain e3.e2.e1"
    )
    from_name = lines_of(capsys, "cosets", "chain3", "chain e3.e2.e1")
    assert from_file == from_name


def test_inverse_and_leq(capsys):
    assert lines_of(capsys, "inverse", "loopx", "(f|k)") == ["(k|f)"]
    assert lines_of(capsys, "leq", "loopx", "(a.e.f|a.a.e.f)", "(e.f|a.e.f)") == ["true"]
    assert lines_of(capsys, "leq", "loopx", "(e.f|a.e.f)", "(a.e.f|a.a.e.f)") == ["false"]


def test_closure_and_classify(capsys):
    assert lines_of(capsys, "closure", "loopx", "(@x|a)") == ["cycle a @x"]
    assert lines_of(capsys, "closure", "loopx", "(g|g)", "(e.f|e.f)") == ["improper"]
    assert lines_of(capsys, "classify", "loopx", "cycle a.a e.f") == ["cycle"]
    assert lines_of(capsys, "classify", "loopx", "improper") == ["improper"]


def test_cosets_chain3(capsys):
    got = lines_of(capsys, "cosets", "chain3", "chain e3.e2.e1")
    assert got == ["(e3.e2.e1|@v3)", "(e2.e1|@v2)", "(e1|@v1)", "(@v0|@v0)"]
    g = fixtures.chain(3)
    for line in got:
        assert parse_element(g, line).literal() == line


def test_same_coset(capsys):
    assert lines_of(
        capsys, "same-coset", "loopx", "cycle a.a e.f", "(e.f|a.g)", "(a.a.e.f|a.a.a.g)"
    ) == ["true"]
    assert lines_of(
        capsys, "same-coset", "loopx", "cycle a.a e.f", "(e.f|a.g)", "(e.f|g)"
    ) == ["false"]


def test_conjugate(capsys):
    assert lines_of(capsys, "conjugate", "loopx", "chain e.f", "chain e.k") == [
        "true",
        "conjugator (e.f|e.k)",
    ]
    assert lines_of(capsys, "conjugate", "loopx", "chain e.f", "chain f") == ["false"]


def test_infinite_index_with_witness(capsys):
    assert lines_of(capsys, "index", "loopx", "chain e.f") == [
        "infinite",
        "witness circuit=a path=@x vertex=x",
    ]
    assert lines_of(capsys, "index", "loopx", "infchain a @x") == [
        "infinite",
        "witness circuit=a path=@x vertex=x",
    ]


def test_oracle_index(capsys):
    got = lines_of(
        capsys, "oracle-index", "chain3", "chain e3.e2.e1", "--maxlen", "4"
    )
    assert got == ["0 1", "1 2", "2 3", "3 4", "4 4"]


def test_oracle_closure(capsys):
    got = lines_of(capsys, "oracle-closure", "loopx", "(e.f|e.f)", "--maxlen", "3")
    assert got == ["zero false", "(e.f|e.f)", "(f|f)", "(@z|@z)"]
    got = lines_of(
        capsys, "oracle-closure", "loopx", "(g|g)", "(e.f|e.f)", "--maxlen", "3"
    )
    assert got[0] == "zero true"


def test_fixtures_verb(capsys):
    assert lines_of(capsys, "fixtures") == ["bouquet<n>", "chain<n>", "loop1", "loopx"]


# ------------------------------------------------------ JSON output


def test_json_index_finite(capsys):
    code, out, err = run_cli(capsys, "index", "--json", "loopx", "cycle a.a e.f")
    assert code == 0
    assert json.loads(out) == {"verb": "index", "result": {"finite": 12}}


def test_json_index_infinite(capsys):
    code, out, _ = run_cli(capsys, "index", "--json", "loopx", "chain e.f")
    assert code == 0
    assert json.loads(out) == {
        "verb": "index",
        "result": {
            "infinite": True,
            "witness": {"circuit": "a", "path": "@x", "vertex": "x"},
        },
    }


def test_json_is_sorted_and_single_line(capsys):
    code, out, _ = run_cli(capsys, "cosets", "--json", "chain3", "chain e3.e2.e1")
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
    assert out.count("\n") == 1


def test_json_conjugate_witness(capsys):
    code, out, _ = run_cli(capsys, "conjugate", "--json", "loopx", "chain e.f", "chain e.k")
    assert json.loads(out) == {
        "verb": "conjugate",
        "result": True,
        "witness": "(e.f|e.k)",
    }


# ------------------------------------------------------ failure modes


def test_parse_errors_exit_2(capsys):
    for argv in [
        ["multiply", "loopx", "(e.f|e.k", "(f|f)"],
        ["multiply", "loopx", "(e.f|e.q)", "(f|f)"],
        ["member", "loopx", "chain e.f.g", "(f|f)"],
        ["index", "nosuchfixture", "improper"],
        ["classify", "loopx", "ring a.a"],
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("parse error:"), (argv, err)
        assert out == ""


def test_argparse_failures_exit_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate", "loopx"]) == 2
    capsys.readouterr()


def test_index_on_a_long_ring_file(capsys, tmp_path):
    n = 1200
    lines = [f"vertex r{i}" for i in range(n)]
    lines += [f"edge x{i} r{i} r{(i + 1) % n}" for i in range(n)]
    graph = tmp_path / "ring.graph"
    graph.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "index", str(graph), "chain x0")
    assert code == 0, err
    assert out.startswith("infinite\n")


def test_domain_errors_exit_1(capsys):
    code, out, err = run_cli(capsys, "cosets", "loopx", "chain e.f")
    assert code == 1 and out == ""
    assert err.startswith("infinite-index error:")
    code, out, err = run_cli(capsys, "index", "loopx", "cycle e.f a.a")
    assert code == 1
    assert err.startswith("construction error:")
    code, out, err = run_cli(capsys, "conjugate", "loopx", "improper", "chain e.f")
    assert code == 1
    assert err.startswith("wrong-kind error:")
    code, out, err = run_cli(capsys, "same-coset", "loopx", "cycle a.a e.f", "(g|g)", "(f|f)")
    assert code == 1
    assert err.startswith("not-a-coset error:")
    code, out, err = run_cli(capsys, "multiply", "loopx", "0", "0")
    assert code == 0  # zero is a value, not an error
    assert out == "0\n"


# ------------------------------------------------------ determinism


CMDS = [
    ["cosets", "loopx", "cycle a.a e.f"],
    ["index", "--json", "loopx", "chain e.f"],
    ["oracle-closure", "loopx", "(e.f|a.e.f)", "--maxlen", "3"],
    ["fixtures", "--json"],
]


def test_repeat_invocations_identical(capsys):
    for cmd in CMDS:
        first = run_cli(capsys, *cmd)
        second = run_cli(capsys, *cmd)
        assert first == second


@pytest.mark.parametrize("cmd", CMDS, ids=lambda c: c[0])
def test_backends_emit_identical_bytes(cmd):
    # set iteration order differs between hash seeds; the output must not
    def spawn(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        return subprocess.run(
            [sys.executable, "-m", "gisalg.cli", *cmd],
            capture_output=True,
            env=env,
            cwd=str(FIXTURE_DIR.parent),
        )

    first = spawn("0")
    second = spawn("1")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
