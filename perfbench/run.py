"""Benchmark of balancenets: one workload, one seed, one JSON line of metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload markov-large --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` and driven through
``balancenets.cli.main`` in this process.  Rounds of the workload's fixed
operation list run until ``--seconds`` have passed (at least one round);
every output is checked apart from the program.  With ``--trace 0`` the
last line carries the end-to-end metrics, with ``--trace 1`` the
per-module metrics of a traced run.  Inputs go to a directory of the
run's own under ``perfbench/_work/``, removed when the run ends; the
traced run leaves its spans in ``perfbench/_work/trace-<workload>.jsonl``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

WORKLOADS = ("markov-large", "ideals-small", "smooth-fields")
SETUP_REPEATS = 3
# Fresh-interpreter runs per untraced run.
COLD_STARTS = 12

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "cold_start_s": "s",
    "peak_rss_mb": "MB",
}


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_op(cli, op, tracer=None):
    """One in-process CLI call: (exit code, seconds, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if tracer is not None:
            tracer.begin_op()
        started = time.perf_counter()
        try:
            code = cli.main(op.argv)
        finally:
            elapsed = time.perf_counter() - started
            if tracer is not None:
                tracer.end_op()
    return code, elapsed, buf.getvalue()


def judge(op, code: int, text: str, seen: dict):
    from checks import WRONG, Verdict

    if code != 0:
        return Verdict(WRONG, f"exit {code}: {text.strip()[:300]}")
    try:
        return op.check(json.loads(text), seen)
    except Exception as exc:  # a malformed document is a wrong answer
        return Verdict(WRONG, f"{type(exc).__name__}: {exc}")


class Tally:
    """Attempted, failed and wrong operations, with the first reasons."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.reasons: dict[str, str] = {}

    def add(self, op, verdict) -> None:
        from checks import OK, WRONG

        self.attempted += 1
        if verdict.status == OK:
            return
        self.failed += 1
        self.wrong += verdict.status == WRONG
        if op.label not in self.reasons:
            self.reasons[op.label] = verdict.reason
            log(f"{verdict.status}: {op.label}: {verdict.reason}")


def cold_start(op, tally: Tally) -> float:
    """Seconds for a fresh interpreter to run the operation; checks its output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "balancenets.cli", *op.argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    tally.add(op, judge(op, proc.returncode, proc.stdout, {}))
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "balancenets" / "cli.py").is_file():
        log(f"no program sources at {SRC / 'balancenets'}")
        return 2

    # Import the program before anything else loads numpy, scipy or networkx.
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import balancenets.cli as cli
    import_s = time.perf_counter() - started

    import workloads
    from tracer import METRICS, Tracer

    # A directory of its own, so runs that overlap cannot clobber inputs.
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    # Warm-up and cold-start outputs are checked too; they are not counted
    # as attempted, so the failed share depends only on the rounds.
    side = Tally()
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        wl = workloads.build(args.workload, args.seed, work)
        results = [(op, *run_op(cli, op)) for op in wl.warmup]
        setups.append(time.perf_counter() - started)
        for op, code, _, text in results:
            side.add(op, judge(op, code, text, {}))
    setup_s = import_s + statistics.median(setups)
    log(f"{args.workload} seed {args.seed}: {len(wl.ops)} operations per round")

    # Cold starts are spread over the rounds, one due every `spacing` seconds
    # of round time, so each run samples the machine over its whole length.
    # Their own time does not count against --seconds.
    colds: list[float] = []
    spacing = args.seconds / COLD_STARTS
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    walls, op_times, layer_rounds = [], [], []
    tally = Tally()
    gc.collect()
    loop_start = time.perf_counter()
    paused = 0.0
    while True:
        seen: dict = {}
        wall = 0.0
        for op in wl.ops:
            code, elapsed, text = run_op(cli, op, tracer)
            wall += elapsed
            op_times.append(elapsed)
            tally.add(op, judge(op, code, text, seen))
            due = not tracer and len(colds) < COLD_STARTS
            if due and time.perf_counter() - loop_start - paused >= spacing * len(colds):
                started = time.perf_counter()
                colds.append(cold_start(wl.cold_start, side))
                paused += time.perf_counter() - started
        walls.append(wall)
        if tracer:
            layer_rounds.append(tracer.round_metrics(import_s))
        gc.collect()
        if time.perf_counter() - loop_start - paused >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log(f"{len(walls)} rounds, wall_s per round {[round(w, 4) for w in walls]}")
    if len(wl.ops) <= 30:
        firsts = op_times[: len(wl.ops)]
        log("first round: " + ", ".join(f"{op.label} {t:.3f}" for op, t in zip(wl.ops, firsts)))

    if tracer:
        tracer.uninstall()
        tracer.dump(WORK / f"trace-{args.workload}.jsonl")
        # Counts repeat exactly from round to round; keep them whole numbers.
        metrics = {
            name: {
                "value": (statistics.median_low if unit == "count" else statistics.median)(
                    r[name] for r in layer_rounds
                ),
                "unit": unit,
            }
            for name, unit in METRICS.items()
        }
    else:
        colds += [cold_start(wl.cold_start, side) for _ in range(COLD_STARTS - len(colds))]
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(op_times),
            "cold_start_s": statistics.median(colds),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }

    shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": tally.wrong == 0 and side.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
