"""The three workloads: a fixed list of CLI operations, each with its check.

``build(name, seed, directory)`` writes the seeded inputs under
``directory`` and returns the operations.  A round runs every operation
once, in list order; every round of a run is the same.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen
from checks import NetFacts, Verdict
from perms import S3, SIGN

FIELDS = ("elliptic", "elliptic-wave", "hyperbolic")
ABSORB_RUNS = 32
ABSORB_STEPS = 64


@dataclass
class Op:
    label: str
    argv: list[str]
    # (parsed JSON output, per-round scratch dict) -> verdict
    check: Callable[[dict, dict], Verdict]


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]
    cold_start: Op  # run in a fresh interpreter


def _nets(directory: Path, *specs) -> list[NetFacts]:
    gen.write_nets(specs, directory)
    return [NetFacts(s) for s in specs]


def _markov(facts: NetFacts, exact: bool = False) -> Op:
    argv = ["markov", "--net", str(facts.spec.path)] + (["--exact"] if exact else [])
    label = f"markov{' --exact' if exact else ''} {facts.spec.name}"
    return Op(label, argv, lambda doc, _: checks.check_markov(doc, facts, exact))


def _analyze(*facts: NetFacts) -> Op:
    argv = ["analyze"]
    for f in facts:
        argv += ["--net", str(f.spec.path)]
    label = "analyze " + " ".join(f.spec.name for f in facts)
    return Op(label, argv, lambda doc, _: checks.check_analyze(doc, list(facts)))


def _ideals(facts: NetFacts) -> Op:
    argv = ["ideals", "--net", str(facts.spec.path)]
    return Op(f"ideals {facts.spec.name}", argv, lambda doc, _: checks.check_ideals(doc, facts))


def _absorb(facts: NetFacts, seed: int, runs: int = ABSORB_RUNS, steps: int = ABSORB_STEPS) -> Op:
    argv = [
        "absorb", "--net", str(facts.spec.path), "--runs", str(runs),
        "--steps", str(steps), "--seed", str(seed),
    ]
    return Op(
        f"absorb {facts.spec.name}", argv,
        lambda doc, _: checks.check_absorb(doc, facts, runs, steps),
    )


def _check_potential(facts: NetFacts) -> Op:
    argv = ["check-potential", "--net", str(facts.spec.path)]
    return Op(
        f"check-potential {facts.spec.name}", argv,
        lambda doc, _: checks.check_check_potential(doc, facts),
    )


def _p_integral(curve_path: Path, kind: str, n: int, parity: str, field: str) -> Op:
    argv = [
        "smooth", "p-integral", "--curve", str(curve_path), "--n", str(n),
        "--parity", parity, "--field", field,
    ]
    return Op(
        f"p-integral {field} {kind} {parity} {n}", argv,
        lambda doc, seen: checks.check_p_integral(doc, kind, parity, seen),
    )


def _residual(field: str, grid: int) -> Op:
    argv = ["smooth", "check-residual", "--field", field, "--grid", str(grid)]
    return Op(f"check-residual {field}", argv, lambda doc, _: checks.check_residual(doc))


def _discretize(embed, field: str) -> Op:
    argv = [
        "smooth", "discretize", "--net", str(embed.net.path),
        "--embedding", str(embed.path), "--field", field,
    ]
    return Op(
        f"discretize {embed.name} {field}", argv,
        lambda doc, _: checks.check_discretize(doc, embed),
    )


# -- workloads ---------------------------------------------------------------


def markov_large(rng: random.Random, d: Path) -> list[Op]:
    """256 to 2187 joint states; Markov assembly dominates."""
    K = gen.complete_edges
    k8, k9p, k10p, k9f, k10f, c7, k34, pool9, pool8 = _nets(
        d,
        gen.potential_net(rng, "k8-potential", SIGN, 8, K(8)),
        gen.potential_net(rng, "k9-potential", SIGN, 9, K(9)),
        gen.potential_net(rng, "k10-potential", SIGN, 10, K(10)),
        gen.frustrated_net(rng, "k9-frustrated", SIGN, 9, K(9)),
        gen.frustrated_net(rng, "k10-frustrated", SIGN, 10, K(10)),
        gen.potential_net(rng, "c7-s3", S3, 7, gen.cycle_edges(7)),
        gen.potential_net(rng, "k34-s3", S3, 7, gen.complete_bipartite_edges(3, 4)),
        gen.frustrated_net(rng, "k9-frustrated-b", SIGN, 9, K(9)),
        gen.frustrated_net(rng, "k8-frustrated", SIGN, 8, K(8)),
    )
    return [
        _markov(k9p),
        _markov(k10p),
        _markov(k9f),
        _analyze(k9f),
        _analyze(k10f),
        _analyze(c7),
        # Bipartite and potential: today's report reads cross_check "fail".
        _analyze(k34),
        _markov(k8, exact=True),
        # Two --net files go through the thread pool.
        _analyze(pool9, pool8),
    ]


def ideals_small(rng: random.Random, d: Path) -> list[Op]:
    """Every connected 6-node atlas graph and a 7-node sample.

    6-node graphs alternate between the sign group and S3; 7-node graphs
    get both.  This keeps a round near 7 s, so a 20 s run has 3 rounds.
    """
    ops = []
    for idx, graph in enumerate(gen.atlas_graphs(rng)):
        groups = (("sign", SIGN), ("s3", S3))
        if len(graph) == 6:
            groups = groups[idx % 2 :][:1]
        for tag, group in groups:
            name = f"atlas{idx}-n{len(graph)}-{tag}"
            (facts,) = _nets(d, gen.potential_net(rng, name, group, len(graph), graph.edges()))
            ops.append(_ideals(facts))
            ops.append(_absorb(facts, rng.randrange(2 ** 32)))
    return ops


def smooth_fields(rng: random.Random, d: Path) -> list[Op]:
    """Path-ordered products at 2**14 to 2**16 steps, residuals, discretization."""
    d.mkdir(parents=True, exist_ok=True)
    paths = {}
    for kind, curve in gen.curves(rng).items():
        paths[kind] = d / f"curve-{kind}.json"
        paths[kind].write_text(json.dumps(curve))
    embeds = [gen.k4_fixture_embedding(rng), gen.generated_embedding(rng, 7, 4096)]
    gen.write_embeddings(embeds, d)
    ops = []
    for field in FIELDS:
        # The line comes first: the polyline check compares with it.
        for kind, exponent in (("line", 14), ("polyline", 15), ("loop", 16)):
            for parity in ("even", "odd"):
                n = 2 ** exponent + (parity == "odd")
                ops.append(_p_integral(paths[kind], kind, n, parity, field))
    ops += [_residual(field, 17) for field in FIELDS]
    ops += [_discretize(e, field) for e in embeds for field in FIELDS]
    return ops


OPERATION_LISTS = {
    "markov-large": markov_large,
    "ideals-small": ideals_small,
    "smooth-fields": smooth_fields,
}


def _warmup(rng: random.Random, d: Path) -> tuple[list[Op], Op]:
    """Small operations on every subcommand the workloads use."""
    (k4,) = _nets(d, gen.potential_net(rng, "warm-k4", SIGN, 4, gen.complete_edges(4)))
    line = d / "warm-line.json"
    line.write_text(json.dumps({"type": "line", "from": [0.2, 0.3], "to": [0.7, 0.6]}))
    embed = gen.k4_fixture_embedding(rng)
    embed.name = "warm-k4-fixture"
    gen.write_embeddings([embed], d)
    ops = [
        _check_potential(k4), _markov(k4), _analyze(k4), _ideals(k4),
        _absorb(k4, 1, runs=4, steps=16),
        _p_integral(line, "line", 256, "even", "elliptic"),
        _residual("elliptic", 3),
        _discretize(embed, "elliptic"),
    ]
    return ops, _check_potential(k4)


def build(name: str, seed: int, directory: Path) -> Workload:
    rng = random.Random(f"{name}/{seed}")
    warmup, cold = _warmup(random.Random(f"warmup/{seed}"), directory / "warmup")
    return Workload(OPERATION_LISTS[name](rng, directory / "inputs"), warmup, cold)
