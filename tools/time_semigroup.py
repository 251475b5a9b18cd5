"""Time the semigroup, chain and smooth rungs of the reference ladder, and
a cold CLI call.

Each in-process rung is one call of ``balancenets.cli.main`` on an inline
network with a random gauge marking (g(i, j) = s_i^-1 * s_j, so
potential):

- ``absorb`` with 256 runs of 64 steps on K7 over the sign group and on
  K3,4 over S3;
- ``ideals`` on K5, K6 and K7 over S3;
- ``markov`` and ``analyze`` on K11 over the sign group (2048 states),
  gauge and with one edge frustrated (its mark times g, so not
  potential), and on C6 over S3 (729 states);
- ``smooth p-integral`` of the elliptic-wave field over a four-leg loop
  at 2**10, 2**12, 2**14 and 2**16 steps (and twice that, for the
  refinement), ``smooth discretize`` of it on K7 with its nodes on a
  circle and 4096 steps per edge, and ``smooth check-residual --grid 40``.

The cold rungs run fresh interpreters: ``python -m balancenets.cli
check-potential`` on an inline K4 over the sign group, and ``python -c
"import balancenets.cli"``.  The exact rungs run ``python -m
balancenets.cli markov --exact --out`` to the null device, each in a fresh
interpreter, on K10, K11 and K12 over the sign group (1024 to 4096
states; K12 writes about 681 MB of JSON).

The program is imported from this checkout's ``src/``.  Every in-process
rung runs once untimed, then ``--repeat`` times, and reports its min; each
cold and exact rung runs ``--repeat`` times and reports its median
seconds, and an exact rung also the median of its own peak resident
memory (the child's ``ru_maxrss``).  The last line of stdout is one JSON
object with those numbers, the line count of ``src/`` and whether Python
writes bytecode: a ``__pycache__`` left by an earlier run takes the
compile out of a cold call.  A rung that exits nonzero stops the script
with its output.

The object also holds a calibration, timed in the same run as the rungs
(min of ``--repeat``): a fixed pure-Python float loop and a fixed numpy
product.  Numbers from runs at different hours or on different machines
can be read against it.  ``--bench LABEL`` also writes the line to
``BENCH_LABEL.json`` at the root of the checkout.

    python tools/time_semigroup.py --repeat 7
    python tools/time_semigroup.py --repeat 7 --bench scalar-fold
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from balancenets import cli  # noqa: E402
from balancenets.groups import group_to_json, sign_group, symmetric_group  # noqa: E402


def _gauge_network(group, n: int, edges, rng: random.Random, frustrate: bool = False) -> str:
    """Inline network JSON on nodes 1..n, both directions of every edge.

    ``frustrate`` multiplies both marks of the first edge by the same
    element of order two, which a sign group has."""
    gauge = [rng.choice(list(group)) for _ in range(n)]
    marks = {
        (a, b): gauge[a].inverse() * gauge[b] for i, j in edges for a, b in ((i, j), (j, i))
    }
    if frustrate:
        i, j = edges[0]
        flip = group.element("g")
        marks[i, j], marks[j, i] = marks[i, j] * flip, marks[j, i] * flip
    return json.dumps({
        "group": group_to_json(group),
        "nodes": list(range(1, n + 1)),
        "edges": [{"from": a + 1, "to": b + 1, "reaction": g.name} for (a, b), g in marks.items()],
    })


def _complete(n: int):
    return list(itertools.combinations(range(n), 2))


def rungs() -> dict[str, list[str]]:
    rng = random.Random(0)
    g2, s3 = sign_group(), symmetric_group(3)
    absorb = ["absorb", "--runs", "256", "--steps", "64", "--seed", "1", "--net"]
    k34 = [(i, j) for i in range(3) for j in range(3, 7)]
    out = {
        "absorb K7 sign": absorb + [_gauge_network(g2, 7, _complete(7), rng)],
        "absorb K3,4 S3": absorb + [_gauge_network(s3, 7, k34, rng)],
    }
    for n in (5, 6, 7):
        out[f"ideals K{n} S3"] = ["ideals", "--net", _gauge_network(s3, n, _complete(n), rng)]
    chains = {
        "K11 sign": _gauge_network(g2, 11, _complete(11), rng),
        "K11 sign frustrated": _gauge_network(g2, 11, _complete(11), rng, frustrate=True),
        "C6 S3": _gauge_network(s3, 6, [(i, (i + 1) % 6) for i in range(6)], rng),
    }
    for command in ("markov", "analyze"):
        for name, net in chains.items():
            out[f"{command} {name}"] = [command, "--net", net]
    loop = json.dumps({
        "type": "polyline",
        "points": [[0.2, 0.2], [0.8, 0.2], [0.8, 0.8], [0.2, 0.8], [0.2, 0.2]],
    })
    wave = ["--field", "elliptic-wave"]
    for k in (10, 12, 14, 16):
        out[f"p-integral loop 2^{k}"] = ["smooth", "p-integral", "--curve", loop, "--n", str(2 ** k)] + wave
    angles = [2 * math.pi * k / 7 for k in range(7)]
    k7 = json.dumps({
        "nodes": {str(k + 1): [0.5 + 0.4 * math.cos(a), 0.5 + 0.4 * math.sin(a)] for k, a in enumerate(angles)},
        "edges": [{"from": str(i + 1), "to": str(j + 1), "steps": 4096} for i, j in _complete(7)],
    })
    out["discretize K7 4096"] = [
        "smooth", "discretize", "--net", _gauge_network(g2, 7, _complete(7), rng), "--embedding", k7,
    ] + wave
    out["check-residual grid 40"] = ["smooth", "check-residual", "--grid", "40"] + wave
    return out


def calibration() -> dict:
    """Two fixed jobs, yardsticks of the interpreter and of the machine's
    BLAS: a pure-Python float loop and a numpy product."""
    import numpy as np

    def float_loop():
        x = 0.5
        for _ in range(1_000_000):
            x = x * 0.999999 + 0.000001
        return x

    a = np.random.default_rng(0).random((256, 256))
    return {"python float loop 10^6": float_loop, "numpy 256x256 matmul": lambda: a @ a}


def cold_rungs() -> dict[str, list[str]]:
    k4 = _gauge_network(sign_group(), 4, _complete(4), random.Random(0))
    return {
        "check-potential K4": ["-m", "balancenets.cli", "check-potential", "--net", k4],
        "import balancenets.cli": ["-c", "import balancenets.cli"],
    }


def exact_rungs() -> dict[str, list[str]]:
    rng = random.Random(0)
    exact = ["-m", "balancenets.cli", "markov", "--exact", "--out", os.devnull, "--net"]
    return {
        f"markov --exact K{n} sign": exact + [_gauge_network(sign_group(), n, _complete(n), rng)]
        for n in (10, 11, 12)
    }


def _cold(argv: list[str]) -> tuple[float, float]:
    """Seconds for a fresh interpreter to run ``python *argv``, and its own
    peak resident memory in MB (``ru_maxrss``, kilobytes on Linux)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )}
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    with proc.stdout:
        output = proc.stdout.read()
    # wait4 reaps the child with its own resource usage; proc is given the
    # exit code, so it does not wait for the child again.
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{argv[:2]} exited {proc.returncode}: {output}")
    return elapsed, usage.ru_maxrss / 1024


def _seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _run(argv: list[str]) -> float:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code}: {buf.getvalue()}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="timed runs per rung")
    parser.add_argument("--bench", metavar="LABEL", help="also write the line to BENCH_LABEL.json")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    ladder = rungs()
    for cmd in ladder.values():
        _run(cmd)
    best = {name: min(_run(cmd) for _ in range(args.repeat)) for name, cmd in ladder.items()}
    calibrated = {name: min(_seconds(fn) for _ in range(args.repeat)) for name, fn in calibration().items()}
    # The cold rungs take turns, so a change in machine load reaches both.
    colds = cold_rungs()
    cold = {name: [] for name in colds}
    for _ in range(args.repeat):
        for name, cmd in colds.items():
            cold[name].append(_cold(cmd)[0])
    exacts = exact_rungs()
    exact = {name: [_cold(cmd) for _ in range(args.repeat)] for name, cmd in exacts.items()}
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    line = json.dumps({
        "repeat": args.repeat,
        "calibration_min_s": {name: round(t, 6) for name, t in calibrated.items()},
        "min_s": {name: round(t, 6) for name, t in best.items()},
        "cold_median_s": {name: round(statistics.median(t), 6) for name, t in cold.items()},
        "exact_median": {
            name: {
                "s": round(statistics.median(t for t, _ in runs), 6),
                "peak_rss_mb": round(statistics.median(m for _, m in runs), 1),
            }
            for name, runs in exact.items()
        },
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "src_lines": src_lines,
    })
    print(line)
    if args.bench:
        (ROOT / f"BENCH_{args.bench}.json").write_text(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
