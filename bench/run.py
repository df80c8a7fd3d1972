"""Benchmark for gisalg: one workload per call, each in its own process.

    python3 bench/run.py --workload {algebra,decide,oracle,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; gisalg is imported from ``src``.
With ``--trace 0`` the workload is timed untraced and the last line of
output holds the end-to-end metrics; set-up is repeated in separate
processes and its median reported.  With ``--trace 1`` it holds the
per-layer metrics of a traced run.  Each run also writes
``bench/out/result-<workload>-seed<N>-trace<T>.json`` with the metrics, the
git commit, gisalg's kernel backend, the Python version and the CPU count.
See bench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("algebra", "decide", "oracle", "cli")
SETUP_REPEATS = 4  # set-up-only processes, besides the measured one
TIME_LIMIT_S = 170


def git_sha(root):
    """The checked-out commit, read from .git without running git; None
    outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def run_child(args, deadline, *extra):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    argv = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t0", repr(t0), "--out", str(OUT), *extra,
    ]
    proc = subprocess.run(
        argv, env=env, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic())
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"workload process failed with status {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gisalg" / "__init__.py").is_file():
        print(f"no gisalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S

    setups = []
    if not args.trace:
        setups = [run_child(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_REPEATS)]
    child = run_child(args, deadline)
    setups.append(child["setup_s"])
    metrics = child["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result = {k: child[k] for k in ("correct", "attempted", "failed")}
    result["metrics"] = metrics

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "backend": child["backend"],
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "setup_s_samples": setups,
        "probes": child.get("probes"),
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
