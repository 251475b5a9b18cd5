"""Relation graphs, edge markings and the induced two-step structure.

Graphs are directed but symmetric: whenever (i, j) is an edge so is (j, i),
and the two directions carry independent marks.  Nodes keep the labels they
were given; internally everything runs on dense indices with a sorted edge
index so iteration order is reproducible.
"""

from __future__ import annotations

import functools
import operator
from collections import deque
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Callable, Iterable, Mapping, Sequence

from .config import inline_json, json_scalar, label_key, read_json
from .errors import ValidationError
from .groups import GroupElement, ReactionGroup, group_to_json, load_group


class RelationGraph:
    """Connected, loop-free, symmetric directed graph."""

    def __init__(self, nodes: Sequence, edges: Iterable[tuple]):
        self.nodes = tuple(nodes)
        if len(self.nodes) < 2:
            raise ValidationError("a relation graph needs at least two nodes")
        self._index = {label_key(label): i for i, label in enumerate(self.nodes)}
        if len(self._index) != len(self.nodes):
            raise ValidationError("node labels must be distinct")
        n = len(self.nodes)

        seen: set[tuple[int, int]] = set()
        for a, b in edges:
            i, j = self._resolve(a), self._resolve(b)
            if i == j:
                raise ValidationError(f"self-loop on node {self.nodes[i]!r}")
            if (i, j) in seen:
                raise ValidationError(
                    f"duplicate edge ({self.nodes[i]!r}, {self.nodes[j]!r})"
                )
            seen.add((i, j))
        for i, j in seen:
            if (j, i) not in seen:
                raise ValidationError(
                    f"edge ({self.nodes[i]!r}, {self.nodes[j]!r}) has no reverse "
                    f"({self.nodes[j]!r}, {self.nodes[i]!r})"
                )
        self.directed_edges: tuple[tuple[int, int], ...] = tuple(sorted(seen))

        adjacency: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.directed_edges:
            adjacency[i].append(j)
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(row)) for row in adjacency
        )
        for i, row in enumerate(self.adjacency):
            if not row:
                raise ValidationError(f"node {self.nodes[i]!r} is isolated")
        self._edge_set = seen
        # The all-hostile walk raises on a disconnected graph; its parts are
        # the bipartition, or None when an odd cycle exists.
        self.parts = two_coloring(self, dict.fromkeys(self.directed_edges, -1))[0]

    def _resolve(self, label) -> int:
        try:
            return self._index[label_key(label)]
        except KeyError:
            raise ValidationError(f"unknown node {label!r}") from None

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.adjacency[i]

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self._edge_set

    @property
    def undirected_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, j in self.directed_edges if i < j)

    def is_complete(self) -> bool:
        n = len(self.nodes)
        return len(self.directed_edges) == n * (n - 1)

    # -- stock shapes --------------------------------------------------------

    @classmethod
    def from_undirected(cls, nodes: Sequence, pairs: Iterable[tuple]) -> "RelationGraph":
        both = []
        for a, b in pairs:
            both.append((a, b))
            both.append((b, a))
        return cls(nodes, both)

    @classmethod
    def complete(cls, nodes: Sequence) -> "RelationGraph":
        nodes = tuple(nodes)
        return cls.from_undirected(
            nodes,
            [(nodes[i], nodes[j]) for i in range(len(nodes)) for j in range(i + 1, len(nodes))],
        )

    @classmethod
    def cycle(cls, nodes: Sequence) -> "RelationGraph":
        nodes = tuple(nodes)
        pairs = [(nodes[i], nodes[(i + 1) % len(nodes)]) for i in range(len(nodes))]
        return cls.from_undirected(nodes, pairs)


@dataclass(frozen=True)
class Path:
    """Contiguous sequence of directed edges in a relation graph."""

    graph: RelationGraph
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for i, j in self.edges:
            if not self.graph.has_edge(i, j):
                raise ValidationError(
                    f"({self.graph.nodes[i]!r}, {self.graph.nodes[j]!r}) is not an edge"
                )
        for (a, b), (c, d) in zip(self.edges, self.edges[1:]):
            if b != c:
                raise ValidationError("path edges are not contiguous")

    @classmethod
    def from_nodes(cls, graph: RelationGraph, nodes: Sequence[int]) -> "Path":
        return cls(graph, tuple(zip(nodes[:-1], nodes[1:])))

    @property
    def is_closed(self) -> bool:
        return bool(self.edges) and self.edges[0][0] == self.edges[-1][1]

    @property
    def node_sequence(self) -> tuple[int, ...]:
        if not self.edges:
            return ()
        return (self.edges[0][0],) + tuple(j for _, j in self.edges)


class Marking:
    """Assignment of one group element to every directed edge."""

    def __init__(
        self,
        graph: RelationGraph,
        group: ReactionGroup,
        values: Mapping[tuple[int, int], GroupElement],
    ):
        self.graph = graph
        self.group = group
        marks: dict[tuple[int, int], GroupElement] = {}
        for (i, j), g in values.items():
            if not graph.has_edge(i, j):
                raise ValidationError(f"mark on non-edge ({i}, {j})")
            g = group.element(g)
            marks[(i, j)] = g
        missing = set(graph.directed_edges) - set(marks)
        if missing:
            i, j = sorted(missing)[0]
            raise ValidationError(
                f"edge ({graph.nodes[i]!r}, {graph.nodes[j]!r}) has no mark"
            )
        self._marks = marks

    def mark(self, i: int, j: int) -> GroupElement:
        try:
            return self._marks[(i, j)]
        except KeyError:
            raise ValidationError(f"({i}, {j}) is not an edge") from None

    def items(self):
        for edge in self.graph.directed_edges:
            yield edge, self._marks[edge]

    @property
    def symmetric(self) -> bool:
        return all(
            self._marks[(i, j)] == self._marks[(j, i)]
            for i, j in self.graph.undirected_edges
        )

    @classmethod
    def constant(cls, graph: RelationGraph, element: GroupElement) -> "Marking":
        return cls(
            graph, element.group, {e: element for e in graph.directed_edges}
        )

    @classmethod
    def from_names(
        cls,
        graph: RelationGraph,
        group: ReactionGroup,
        names: Mapping[tuple[int, int], str],
        symmetric: bool = False,
    ) -> "Marking":
        values: dict[tuple[int, int], GroupElement] = {}
        for (i, j), name in names.items():
            values[(i, j)] = group.element(name)
            if symmetric:
                values.setdefault((j, i), group.element(name))
        return cls(graph, group, values)


class TwoStepGraph:
    """Multigraph of length-two walks: edge (i, j, k) when (i,k),(k,j) exist."""

    def __init__(self, base: RelationGraph):
        self.base = base
        edges = []
        for k in range(len(base)):
            around = base.neighbors(k)
            for i in around:
                for j in around:
                    edges.append((i, j, k))
        self.star_edges: tuple[tuple[int, int, int], ...] = tuple(sorted(edges))
        self._edge_set = set(self.star_edges)

        # Two-step walks join exactly the nodes an even walk joins: the two
        # sides of a bipartite graph, or every node otherwise.
        parts = bipartition(base)
        self.components: tuple[frozenset[int], ...] = parts or (
            frozenset(range(len(base))),
        )

    def has_edge(self, i: int, j: int, k: int) -> bool:
        return (i, j, k) in self._edge_set

    def edges_between(self, i: int, j: int) -> tuple[tuple[int, int, int], ...]:
        return tuple(e for e in self.star_edges if e[0] == i and e[1] == j)

    def component_of(self, i: int) -> frozenset[int]:
        for comp in self.components:
            if i in comp:
                return comp
        raise ValidationError(f"node index {i} out of range")


@dataclass(frozen=True)
class StarPath:
    """Contiguous sequence of mediated edges in a two-step graph."""

    star: TwoStepGraph
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        for e in self.edges:
            if not self.star.has_edge(*e):
                raise ValidationError(f"{e} is not a two-step edge")
        for (_, b, _), (c, _, _) in zip(self.edges, self.edges[1:]):
            if b != c:
                raise ValidationError("two-step path edges are not contiguous")

    @property
    def is_closed(self) -> bool:
        return bool(self.edges) and self.edges[0][0] == self.edges[-1][1]


class StarMarking:
    """Induced marks on the two-step graph: a(i,j,k) = g(k,i)^-1 * g(k,j)."""

    def __init__(self, star: TwoStepGraph, group: ReactionGroup, values):
        self.star = star
        self.group = group
        self._marks = dict(values)
        if set(self._marks) != set(star.star_edges):
            raise ValidationError("star marking must cover exactly the two-step edges")

    def mark(self, i: int, j: int, k: int) -> GroupElement:
        return self._marks[(i, j, k)]

    def items(self):
        for e in self.star.star_edges:
            yield e, self._marks[e]


def two_step(graph: RelationGraph) -> TwoStepGraph:
    return TwoStepGraph(graph)


def _tree_consistency(
    nodes: Sequence[int],
    edges: Sequence[tuple],
    root: int,
    identity,
    compose: Callable,
    equal: Callable,
):
    """Shared potentiality test over one connected component.

    ``edges`` holds tuples (tail, head, value, reverse_value); reverse_value,
    the mark of the opposite direction, walks back along tree edges in a
    witness.  Returns ``(u, None)`` on success, or ``(None, (cycle_nodes,
    product))`` for a cycle from the root whose product is not the identity.
    """
    adjacency: dict[int, list[int]] = {v: [] for v in nodes}
    for idx, (i, _, _, _) in enumerate(edges):
        adjacency[i].append(idx)

    u = {root: identity}
    parent_edge: dict[int, int] = {}
    queue = deque([root])
    while queue:
        i = queue.popleft()
        for idx in adjacency[i]:
            _, j, val, _ = edges[idx]
            if j not in u:
                u[j] = compose(u[i], val)
                parent_edge[j] = idx
                queue.append(j)
    if len(u) != len(adjacency):
        raise ValidationError("graph is not connected")

    def tree_path(node: int) -> list[int]:
        """Indices of the tree edges from the root down to ``node``."""
        path: list[int] = []
        while node != root:
            path.append(parent_edge[node])
            node = edges[path[-1]][0]
        return path[::-1]

    for idx, (i, j, val, _) in enumerate(edges):
        if equal(compose(u[i], val), u[j]):
            continue
        # Out along the tree to i, across (i, j), back from j with reverse
        # values; when that multiplies to the identity, the round trip
        # through j alone must fail instead.
        back = tree_path(j)[::-1]
        for out in (tree_path(i) + [idx], back[::-1]):
            vals = [edges[k][2] for k in out] + [edges[k][3] for k in back]
            product = functools.reduce(compose, vals, identity)
            if not equal(product, identity):
                break
        cycle = (root, *(edges[k][1] for k in out), *(edges[k][0] for k in back))
        return None, (cycle, product)
    return u, None


def two_coloring(
    graph: RelationGraph, signs: Mapping[tuple[int, int], int]
) -> tuple[tuple[frozenset[int], frozenset[int]] | None, tuple[int, ...] | None]:
    """Split the nodes in two: positive edges inside a part, negative across.

    This is the potentiality walk over the sign group {+1, -1}, every
    positive sign read as +1 and every other as -1, from node index 0, whose
    part comes first.  Returns ``(parts, None)`` when the split exists, else
    ``(None, walk)`` with ``walk`` the closed walk from node 0 through the
    first inconsistent edge, crossing an odd number of non-positive edges.
    """
    unit = {edge: 1 if signs[edge] > 0 else -1 for edge in graph.directed_edges}
    edges = [(i, j, s, unit[(j, i)]) for (i, j), s in unit.items()]
    nodes = range(len(graph))
    u, witness = _tree_consistency(nodes, edges, 0, 1, operator.mul, operator.eq)
    if witness is not None:
        return None, witness[0]
    return (
        frozenset(i for i in nodes if u[i] > 0),
        frozenset(i for i in nodes if u[i] < 0),
    ), None


def bipartition(graph: RelationGraph) -> tuple[frozenset[int], frozenset[int]] | None:
    """Two-coloring of the nodes, or None when an odd cycle exists.

    The first part is the one containing node index 0.  The graph found it
    when it was built.
    """
    return graph.parts


def star_marking(marking: Marking) -> StarMarking:
    star = two_step(marking.graph)
    values = {}
    for i, j, k in star.star_edges:
        values[(i, j, k)] = marking.mark(k, i).inverse() * marking.mark(k, j)
    return StarMarking(star, marking.group, values)


# -- JSON interchange --------------------------------------------------------


def load_network(source) -> Marking:
    """Load a marked network from a JSON file path, an inline string or a dict.

    Shape::

        {"group": {...} | "group.json",
         "nodes": [...],
         "symmetric": false,
         "edges": [{"from": a, "to": b, "reaction": "name"}, ...]}

    Every directed edge must be listed along with its reverse, unless
    ``symmetric`` is true: then an edge listed without its reverse gets the
    reverse with the same reaction.  A group path is relative to the file.
    """
    base_dir = None
    if isinstance(source, (str, FsPath)) and not inline_json(source):
        base_dir = FsPath(source).parent
    data = read_json(source, "network")
    for key in ("group", "nodes", "edges"):
        if key not in data:
            raise ValidationError(f"network description is missing {key!r}")
    symmetric = data.get("symmetric", False)
    if not isinstance(symmetric, bool):
        raise ValidationError("'symmetric' must be true or false")

    group_src = data["group"]
    if isinstance(group_src, str) and base_dir is not None:
        group_src = base_dir / group_src
    group = load_group(group_src)

    nodes = data["nodes"]
    if not isinstance(nodes, list):
        raise ValidationError("'nodes' must be a list of labels")
    for label in nodes:
        if not json_scalar(label):
            raise ValidationError(f"'nodes' labels must be JSON scalars, got {label!r}")
    edge_entries = data["edges"]
    if not isinstance(edge_entries, list):
        raise ValidationError("'edges' must be a list")

    edges = []
    reactions = {}
    label_to_index = {label_key(label): i for i, label in enumerate(nodes)}
    for pos, entry in enumerate(edge_entries):
        if not isinstance(entry, dict) or not {"from", "to", "reaction"} <= set(entry):
            raise ValidationError(
                f"edge #{pos} needs 'from', 'to' and 'reaction' fields"
            )
        a, b = entry["from"], entry["to"]
        for key, label in (("from", a), ("to", b)):
            if not json_scalar(label):
                raise ValidationError(
                    f"edge #{pos} '{key}' must be a JSON scalar, got {label!r}"
                )
            if label_key(label) not in label_to_index:
                raise ValidationError(f"edge #{pos} references unknown node {label!r}")
        if not isinstance(entry["reaction"], str):
            raise ValidationError(
                f"edge #{pos} 'reaction' must be an element name, got {entry['reaction']!r}"
            )
        edges.append((a, b))
        reactions[(label_to_index[label_key(a)], label_to_index[label_key(b)])] = (
            entry["reaction"]
        )
    if symmetric:
        for (i, j), name in list(reactions.items()):
            if (j, i) not in reactions:
                edges.append((nodes[j], nodes[i]))
                reactions[(j, i)] = name

    graph = RelationGraph(nodes, edges)
    values = {edge: group.element(name) for edge, name in reactions.items()}
    return Marking(graph, group, values)


def network_to_json(marking: Marking) -> dict:
    graph = marking.graph
    return {
        "group": group_to_json(marking.group),
        "nodes": list(graph.nodes),
        "edges": [
            {
                "from": graph.nodes[i],
                "to": graph.nodes[j],
                "reaction": marking.mark(i, j).name,
            }
            for i, j in graph.directed_edges
        ],
    }
