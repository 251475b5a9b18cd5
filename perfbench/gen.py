"""Seeded input generator: marked networks, curves and embeddings as JSON files.

Everything is drawn from one ``random.Random(seed)`` stream, so one seed
always gives the same files.  The program under test only ever sees the
files written here; the checks read the generator's own records of what
it wrote (``NetSpec``, ``EmbedSpec``).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

import networkx as nx

from perms import SIGN, Group, inv, mul


@dataclass
class NetSpec:
    """One generated network and the facts the checks need about it."""

    name: str
    group: Group
    nodes: int
    edges: list[tuple[int, int]]  # undirected, 0-based, (low, high)
    marks: dict[tuple[int, int], tuple[int, ...]]  # directed, 0-based
    gauge: list[tuple[int, ...]] | None  # s_i of a potential marking, else None
    path: Path | None = None

    @property
    def potential(self) -> bool:
        return self.gauge is not None

    def neighbors(self) -> list[list[int]]:
        out = [[] for _ in range(self.nodes)]
        for a, b in self.edges:
            out[a].append(b)
            out[b].append(a)
        return [sorted(x) for x in out]

    def to_json(self) -> dict:
        """Network document listing both directions of every edge."""
        name = self.group.names
        return {
            "group": self.group.to_json(),
            "nodes": list(range(1, self.nodes + 1)),
            "edges": [
                {"from": i + 1, "to": j + 1, "reaction": name[self.marks[(i, j)]]}
                for a, b in self.edges
                for i, j in ((a, b), (b, a))
            ],
        }


def potential_net(rng: random.Random, name: str, group: Group, nodes: int, edges) -> NetSpec:
    """Gauge-random potential marking g(i, j) = s_i^-1 * s_j."""
    edges = sorted((min(a, b), max(a, b)) for a, b in edges)
    gauge = [rng.choice(group.elements) for _ in range(nodes)]
    marks = {}
    for a, b in edges:
        for i, j in ((a, b), (b, a)):
            marks[(i, j)] = mul(inv(gauge[i]), gauge[j])
    return NetSpec(name, group, nodes, edges, marks, gauge)


def frustrated_net(rng: random.Random, name: str, group: Group, nodes: int, edges) -> NetSpec:
    """Gauge-random marking with one hostile edge on a triangle.

    The triangle through that edge multiplies to the hostile element, so
    the marking carries an odd hostile cycle and is not potential.  On a
    complete graph every choice of edge gives an isomorphic chain.
    """
    spec = potential_net(rng, name, group, nodes, edges)
    g = nx.Graph(spec.edges)
    on_triangle = [
        (a, b) for a, b in spec.edges if set(g[a]) & set(g[b])
    ]
    a, b = rng.choice(on_triangle)
    hostile = group.non_identity[0]
    s = spec.gauge
    spec.marks[(a, b)] = mul(inv(s[a]), mul(hostile, s[b]))
    spec.marks[(b, a)] = mul(inv(s[b]), mul(inv(hostile), s[a]))
    spec.gauge = None
    return spec


def complete_edges(n: int):
    return list(itertools.combinations(range(n), 2))


def cycle_edges(n: int):
    return [(i, (i + 1) % n) for i in range(n)]


def complete_bipartite_edges(p: int, q: int):
    return [(i, p + j) for i in range(p) for j in range(q)]


def write_nets(specs, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for spec in specs:
        spec.path = directory / f"{spec.name}.json"
        spec.path.write_text(json.dumps(spec.to_json()))


# -- graph atlas --------------------------------------------------------------

# Seven-node graphs drawn per round, one from each of this many slices of
# the atlas.  The atlas orders graphs by edge count, so one pick per slice
# keeps the cost of the sample nearly the same from seed to seed.
ATLAS7_PICKS = 24


def atlas_graphs(rng: random.Random) -> list[nx.Graph]:
    """Every connected 6-node atlas graph, plus a stratified 7-node sample."""
    atlas = nx.graph_atlas_g()
    six = [g for g in atlas if len(g) == 6 and nx.is_connected(g)]
    seven = [g for g in atlas if len(g) == 7 and nx.is_connected(g)]
    picks = []
    for s in range(ATLAS7_PICKS):
        lo = s * len(seven) // ATLAS7_PICKS
        hi = (s + 1) * len(seven) // ATLAS7_PICKS
        picks.append(seven[rng.randrange(lo, hi)])
    return six + picks


# -- smooth-field inputs ------------------------------------------------------


def _point(rng: random.Random) -> list[float]:
    return [round(rng.uniform(0.05, 0.95), 6), round(rng.uniform(0.05, 0.95), 6)]


def curves(rng: random.Random) -> dict[str, dict]:
    """A line, a two-leg polyline with the same ends and a four-leg loop.

    The polyline parameter runs over its legs in equal shares, so with
    2**k steps every pair of steps stays inside one leg.
    """
    p, q, m = _point(rng), _point(rng), _point(rng)
    loop = [_point(rng) for _ in range(4)]
    return {
        "line": {"type": "line", "from": p, "to": q},
        "polyline": {"type": "polyline", "points": [p, m, q]},
        "loop": {"type": "polyline", "points": loop + [loop[0]]},
    }


@dataclass
class EmbedSpec:
    """A straight-or-bent embedding of a complete graph with parity tags."""

    name: str
    net: NetSpec
    coords: dict[str, list[float]]
    edges: list[dict]
    path: Path | None = None

    def parity(self, a: int, b: int) -> str:
        """Parity tag of the undirected edge between 1-based labels a, b."""
        for e in self.edges:
            if {e["from"], e["to"]} == {str(a), str(b)}:
                return e.get("parity", "even")
        return "even"

    def to_json(self) -> dict:
        return {"nodes": self.coords, "edges": self.edges}


# The K4 test fixture embedding, reproduced so the benchmark stands alone.
K4_FIXTURE = {
    "1": [0.05, 0.05], "2": [0.95, 0.1], "3": [0.9, 0.9], "4": [0.1, 0.85],
}


def k4_fixture_embedding(rng: random.Random) -> EmbedSpec:
    net = potential_net(rng, "k4-embed", SIGN, 4, complete_edges(4))
    edges = [
        {"from": str(a + 1), "to": str(b + 1), "parity": "even", "steps": 1024}
        for a, b in complete_edges(4)
    ]
    return EmbedSpec("k4-fixture", net, dict(K4_FIXTURE), edges)


def generated_embedding(rng: random.Random, nodes: int, steps: int) -> EmbedSpec:
    """Random points for K_n; edges across a random cut are odd.

    Odd edges are straight.  About half the even edges bend through a
    random point; ``steps`` is a multiple of 4 so no step pair straddles
    the bend.
    """
    net = potential_net(rng, f"k{nodes}-embed", SIGN, nodes, complete_edges(nodes))
    coords = {str(i + 1): _point(rng) for i in range(nodes)}
    side = [rng.random() < 0.5 for _ in range(nodes)]
    edges = []
    for a, b in complete_edges(nodes):
        entry = {"from": str(a + 1), "to": str(b + 1)}
        if side[a] != side[b]:
            entry.update(parity="odd", steps=steps + 1)
        else:
            entry.update(parity="even", steps=steps)
            if rng.random() < 0.5:
                entry["polyline"] = [coords[str(a + 1)], _point(rng), coords[str(b + 1)]]
        edges.append(entry)
    return EmbedSpec(f"k{nodes}-random", net, coords, edges)


def write_embeddings(specs, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for spec in specs:
        write_nets([spec.net], directory)
        spec.path = directory / f"{spec.name}.embedding.json"
        spec.path.write_text(json.dumps(spec.to_json()))
