"""Relation graphs, markings, the two-step multigraph and JSON I/O."""

import json
import operator
import random
from collections import deque

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancenets import network
from balancenets.errors import NonPotentialError, ValidationError
from balancenets.groups import cyclic_group, sign_group, symmetric_group
from balancenets.network import (
    Marking,
    Path,
    RelationGraph,
    StarPath,
    TwoStepGraph,
    bipartition,
    load_network,
    network_to_json,
    star_marking,
    two_coloring,
    two_step,
)
from balancenets.potential import check_A1, complete_extension, is_potential
from balancenets.semigroup import ReactionMatrix, theorem1_expected, theorem1_min_rank

G2 = sign_group()
S3 = symmetric_group(3)


def _atlas_graphs(lo, hi):
    for g in nx.graph_atlas_g():
        if lo <= len(g) <= hi and nx.is_connected(g):
            yield RelationGraph.from_undirected(
                [v + 1 for v in sorted(g.nodes)],
                [(i + 1, j + 1) for i, j in g.edges],
            )


def _triangle(marks):
    graph = RelationGraph.complete([1, 2, 3])
    return Marking.from_names(graph, G2, marks, symmetric=True)


BALANCED = {(0, 1): "g", (0, 2): "g", (1, 2): "e"}
ALL_G = {(0, 1): "g", (0, 2): "g", (1, 2): "g"}


def test_graph_validation():
    with pytest.raises(ValidationError):
        RelationGraph([1], [])
    with pytest.raises(ValidationError):
        RelationGraph([1, 2], [(1, 1), (1, 2), (2, 1)])
    with pytest.raises(ValidationError):
        RelationGraph([1, 2], [(1, 2)])
    with pytest.raises(ValidationError):
        RelationGraph([1, 1], [(1, 1)])
    with pytest.raises(ValidationError):
        RelationGraph([1, 2, 3, 4], [(1, 2), (2, 1), (3, 4), (4, 3)])
    with pytest.raises(ValidationError):
        RelationGraph([1, 2], [(1, 3), (3, 1)])


def test_stock_shapes():
    k4 = RelationGraph.complete("abcd")
    assert len(k4) == 4
    assert k4.is_complete()
    assert len(k4.undirected_edges) == 6
    assert len(k4.directed_edges) == 12

    c5 = RelationGraph.cycle(range(5))
    assert len(c5.undirected_edges) == 5
    assert not c5.is_complete()
    assert c5.degree(0) == 2
    assert c5.neighbors(0) == (1, 4)
    assert c5.has_edge(0, 1) and not c5.has_edge(0, 2)


def test_paths():
    k3 = RelationGraph.complete([1, 2, 3])
    loop = Path.from_nodes(k3, [0, 1, 2, 0])
    assert loop.is_closed
    assert loop.node_sequence == (0, 1, 2, 0)
    open_path = Path.from_nodes(k3, [0, 1])
    assert not open_path.is_closed
    with pytest.raises(ValidationError):
        Path(k3, ((0, 1), (2, 0)))


def test_marking_requires_full_coverage():
    k3 = RelationGraph.complete([1, 2, 3])
    with pytest.raises(ValidationError):
        Marking(k3, G2, {(0, 1): G2.element("g")})
    with pytest.raises(ValidationError):
        Marking.from_names(k3, G2, {**BALANCED, (3, 4): "e"}, symmetric=True)


def test_marking_queries():
    marking = _triangle(BALANCED)
    assert marking.symmetric
    assert marking.mark(0, 1).name == "g"
    assert marking.mark(1, 0).name == "g"
    assert marking.mark(1, 2).name == "e"
    assert len(list(marking.items())) == 6
    with pytest.raises(ValidationError):
        marking.mark(0, 0)

    const = Marking.constant(marking.graph, G2.element("g"))
    assert all(g.name == "g" for _, g in const.items())

    lopsided = Marking.from_names(
        RelationGraph.complete([1, 2]), G2, {(0, 1): "g", (1, 0): "e"}
    )
    assert not lopsided.symmetric


def test_two_step_graph_of_triangle():
    star = two_step(RelationGraph.complete([1, 2, 3]))
    # Every node has two neighbors, so each mediator contributes 4 edges.
    assert len(star.star_edges) == 12
    assert star.has_edge(0, 1, 2)
    assert star.has_edge(0, 0, 1)  # loop through a shared neighbor
    assert not star.has_edge(0, 1, 0)
    # Odd cycle: the two-step walks connect everything.
    assert len(star.components) == 1
    assert star.component_of(0) == frozenset({0, 1, 2})


def test_two_step_graph_of_square():
    c4 = RelationGraph.cycle([1, 2, 3, 4])
    star = two_step(c4)
    # Bipartite: opposite corners talk, adjacent ones never do.
    assert star.components == (frozenset({0, 2}), frozenset({1, 3}))
    assert star.edges_between(0, 2) == ((0, 2, 1), (0, 2, 3))
    assert star.edges_between(0, 1) == ()


def _two_step_components_union_find(graph):
    """Components joined by the walks i - k - j, found by union-find."""
    parent = list(range(len(graph)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k in range(len(graph)):
        for i in graph.neighbors(k):
            for j in graph.neighbors(k):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for v in range(len(graph)):
        groups.setdefault(find(v), set()).add(v)
    return tuple(sorted((frozenset(c) for c in groups.values()), key=min))


def test_two_step_components_match_union_find_on_the_atlas():
    graphs = list(_atlas_graphs(2, 7))
    assert len(graphs) == 995
    for graph in graphs:
        assert two_step(graph).components == _two_step_components_union_find(graph)


def test_star_path_contiguity():
    star = two_step(RelationGraph.complete([1, 2, 3]))
    StarPath(star, ((0, 1, 2), (1, 0, 2)))
    with pytest.raises(ValidationError):
        StarPath(star, ((0, 1, 2), (0, 1, 2)))
    with pytest.raises(ValidationError):
        StarPath(star, ((0, 1, 0),))


def test_bipartition():
    assert bipartition(RelationGraph.complete([1, 2, 3])) is None
    parts = bipartition(RelationGraph.cycle([1, 2, 3, 4]))
    assert parts == (frozenset({0, 2}), frozenset({1, 3}))
    chain = RelationGraph.from_undirected([1, 2, 3], [(1, 2), (2, 3)])
    assert bipartition(chain) == (frozenset({0, 2}), frozenset({1}))


def _two_coloring_oracle(graph, signs):
    """Breadth-first two-coloring with its own parent chains, verbatim."""
    n = len(graph)
    color = [-1] * n
    parent = [-1] * n
    color[0] = 0
    queue = deque([0])

    def ancestry(node: int) -> list[int]:
        chain = [node]
        while parent[chain[-1]] >= 0:
            chain.append(parent[chain[-1]])
        return chain

    while queue:
        i = queue.popleft()
        for j in graph.neighbors(i):
            want = color[i] if signs[(i, j)] > 0 else 1 - color[i]
            if color[j] < 0:
                color[j] = want
                parent[j] = i
                queue.append(j)
            elif color[j] != want:
                up_i = ancestry(i)
                up_j = ancestry(j)
                shared = set(up_i) & set(up_j)
                pivot = next(v for v in up_i if v in shared)
                head = list(reversed(up_i[: up_i.index(pivot) + 1]))
                tail = up_j[: up_j.index(pivot)]
                return None, tuple(head + tail + [pivot])
    part0 = frozenset(i for i in range(n) if color[i] == 0)
    part1 = frozenset(i for i in range(n) if color[i] == 1)
    return (part0, part1), None


def _signings(graph, rng):
    """A balanced gauge signing, then random symmetric, asymmetric and
    non-unit (-1, 0, 2) signings of the graph."""
    side = [rng.choice((1, -1)) for _ in range(len(graph))]
    yield {(i, j): side[i] * side[j] for i, j in graph.directed_edges}
    undirected = {e: rng.choice((1, -1)) for e in graph.undirected_edges}
    yield {(i, j): undirected[(min(i, j), max(i, j))] for i, j in graph.directed_edges}
    yield {e: rng.choice((1, -1)) for e in graph.directed_edges}
    yield {e: rng.choice((-1, 0, 2)) for e in graph.directed_edges}


def test_two_coloring_matches_the_breadth_first_oracle_on_the_atlas():
    rng = random.Random(2027)
    graphs = list(_atlas_graphs(2, 7))
    assert len(graphs) == 995
    verdicts = set()
    for graph in graphs:
        assert graph.parts == _two_coloring_oracle(
            graph, dict.fromkeys(graph.directed_edges, -1)
        )[0]
        for signs in _signings(graph, rng):
            parts, walk = two_coloring(graph, signs)
            expected, oracle_walk = _two_coloring_oracle(graph, signs)
            assert parts == expected
            assert (walk is None) == (oracle_walk is None)
            verdicts.add(parts is None)
            if walk is None:
                continue
            assert walk[0] == walk[-1] == 0
            assert all(graph.has_edge(a, b) for a, b in zip(walk, walk[1:]))
            hostile = sum(1 for a, b in zip(walk, walk[1:]) if signs[(a, b)] <= 0)
            assert hostile % 2 == 1
    assert verdicts == {True, False}


def _tree_consistency_oracle(nodes, edges, root, identity, compose, equal):
    """The spanning-tree walk with hand-built witness cycles, verbatim."""
    adjacency = {v: [] for v in nodes}
    for idx, (i, _, _, _) in enumerate(edges):
        adjacency[i].append(idx)

    u = {root: identity}
    parent_edge = {}
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

    def climb(node):
        """Forward values and node list along the tree path root -> node."""
        vals = []
        rev_nodes = [node]
        while node != root:
            idx = parent_edge[node]
            i, j, val, _ = edges[idx]
            vals.append(val)
            node = i
            rev_nodes.append(node)
        vals.reverse()
        rev_nodes.reverse()
        return vals, rev_nodes

    def descend(node):
        """Reverse values and node list along the tree path node -> root."""
        vals = []
        nodes_out = [node]
        while node != root:
            idx = parent_edge[node]
            i, _, _, rval = edges[idx]
            vals.append(rval)
            node = i
            nodes_out.append(node)
        return vals, nodes_out

    def fold(vals):
        acc = identity
        for v in vals:
            acc = compose(acc, v)
        return acc

    for i, j, val, _ in edges:
        if equal(compose(u[i], val), u[j]):
            continue
        out_vals, out_nodes = climb(i)
        back_vals, back_nodes = descend(j)
        cycle_vals = out_vals + [val] + back_vals
        cycle_nodes = out_nodes + back_nodes
        product = fold(cycle_vals)
        if not equal(product, identity):
            return None, (tuple(cycle_nodes), product)
        # The round trip through j alone must then fail instead.
        out_vals, out_nodes = climb(j)
        back_vals, back_nodes = descend(j)
        cycle_vals = out_vals + back_vals
        cycle_nodes = out_nodes + back_nodes[1:]
        return None, (tuple(cycle_nodes), fold(cycle_vals))
    return u, None


def _random_connected_graph(n, rng):
    """A random tree on 0..n-1 plus random chords, nodes shuffled."""
    order = list(range(n))
    rng.shuffle(order)
    pairs = {frozenset((order[v], order[rng.randrange(v)])) for v in range(1, n)}
    density = rng.random()
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                pairs.add(frozenset((a, b)))
    return RelationGraph.from_undirected(range(n), [tuple(p) for p in pairs])


def _gauge_marking_with_noise(graph, group, rng, noise=0.15):
    """Marks u(i)^-1 * u(j) of a random potential, with some entries
    overwritten one direction at a time."""
    elements = list(group)
    u = [rng.choice(elements) for _ in range(len(graph))]
    values = {}
    for i, j in graph.directed_edges:
        values[(i, j)] = u[i].inverse() * u[j]
        if rng.random() < noise:
            values[(i, j)] = rng.choice(elements)
    return Marking(graph, group, values)


def _walks_agree(nodes, edges, root, identity):
    """Run the walk and its oracle on one component; return whether the
    oracle took the round-trip fallback."""
    checks = []

    def equal(a, b):
        checks.append(a == b)
        return checks[-1]

    got = network._tree_consistency(
        nodes, edges, root, identity, operator.mul, operator.eq
    )
    want = _tree_consistency_oracle(nodes, edges, root, identity, operator.mul, equal)
    assert got == want
    # Only the fallback ends the oracle on a passing identity check.
    return want[1] is not None and checks[-1]


@pytest.mark.parametrize("group", [G2, cyclic_group(3), S3], ids=["G2", "C3", "S3"])
def test_tree_path_witnesses_match_the_hand_built_walk(group):
    rng = random.Random(1517)
    identity = group.identity
    witnesses = fallbacks = 0
    for _ in range(700):
        graph = _random_connected_graph(rng.randint(2, 7), rng)
        marking = _gauge_marking_with_noise(graph, group, rng)
        n = len(graph)
        edges = [
            (i, j, marking.mark(i, j), marking.mark(j, i))
            for i, j in graph.directed_edges
        ]
        for root in (0, rng.randrange(n)):
            fallbacks += _walks_agree(range(n), edges, root, identity)
        verdict = is_potential(marking)
        u, witness = _tree_consistency_oracle(
            range(n), edges, 0, identity, operator.mul, operator.eq
        )
        witnesses += witness is not None
        if witness is None:
            assert verdict.ok and verdict.potential.values == u
        else:
            assert (verdict.witness_cycle_nodes, verdict.witness_product) == witness

        marks = star_marking(marking)
        star_edges = [
            (i, j, marks.mark(i, j, k), marks.mark(j, i, k))
            for i, j, k in marks.star.star_edges
        ]
        potentials, a1_witness = [], None
        for comp in marks.star.components:
            tails = [e for e in star_edges if e[0] in comp]
            for root in (min(comp), rng.choice(sorted(comp))):
                fallbacks += _walks_agree(sorted(comp), tails, root, identity)
            u, witness = _tree_consistency_oracle(
                sorted(comp), tails, min(comp), identity, operator.mul, operator.eq
            )
            if witness is not None:
                a1_witness = witness
                break
            potentials.append((min(comp), u))
        report = check_A1(marking)
        if a1_witness is None:
            assert report.ok
            assert [(p.root, p.values) for p in report.potentials] == potentials
        else:
            assert not report.ok and report.potentials is None
            assert (report.witness_cycle_nodes, report.witness_product) == a1_witness
    assert witnesses > 100
    assert fallbacks > 0


def test_tree_path_walk_reports_a_disconnected_component():
    e = S3.identity
    edges = [(0, 1, e, e), (1, 0, e, e)]
    for walk in (network._tree_consistency, _tree_consistency_oracle):
        with pytest.raises(ValidationError, match="^graph is not connected$"):
            walk(range(3), edges, 0, e, operator.mul, operator.eq)


def test_a_built_graph_runs_no_walk_for_its_bipartition(monkeypatch):
    square = RelationGraph.cycle([1, 2, 3, 4])
    triangle = RelationGraph.complete([1, 2, 3])

    def refuse(*args, **kwargs):
        raise AssertionError("the spanning-tree walk ran again")

    monkeypatch.setattr(network, "_tree_consistency", refuse)
    assert bipartition(square) == (frozenset({0, 2}), frozenset({1, 3}))
    assert bipartition(triangle) is None
    assert TwoStepGraph(square).components == bipartition(square)
    assert TwoStepGraph(triangle).components == (frozenset({0, 1, 2}),)
    assert (theorem1_expected(square), theorem1_min_rank(square)) == (4, 2)
    assert (theorem1_expected(triangle), theorem1_min_rank(triangle)) == (3, 1)
    with pytest.raises(AssertionError):
        RelationGraph.cycle([1, 2, 3])


def test_labels_that_differ_only_by_type_are_distinct():
    graph = RelationGraph.from_undirected([1, True, 3], [(1, 3), (3, True)])
    assert graph.directed_edges == ((0, 2), (1, 2), (2, 0), (2, 1))
    assert graph.nodes[1] is True
    # Equal numbers stay one label.
    with pytest.raises(ValidationError, match="node labels must be distinct"):
        RelationGraph.complete([1, 1.0])


def test_star_marking_values():
    report = star_marking(_triangle(BALANCED))
    # a(i, j, k) multiplies the inverse mark into k with the mark out of k.
    assert report.mark(1, 2, 0).name == "e"
    assert report.mark(0, 2, 1).name == "g"
    assert report.mark(0, 1, 2).name == "g"
    assert report.mark(0, 0, 1).name == "e"
    assert len(list(report.items())) == 12


def test_complete_extension_fills_tree_products():
    chain = RelationGraph.from_undirected([1, 2, 3], [(1, 2), (2, 3)])
    marking = Marking.from_names(
        chain, G2, {(0, 1): "g", (1, 2): "e"}, symmetric=True
    )
    extended = complete_extension(marking)
    assert extended.graph.is_complete()
    assert extended.mark(0, 1).name == "g"
    assert extended.mark(0, 2).name == "g"
    assert extended.mark(2, 0).name == "g"
    assert extended.symmetric


def test_complete_extension_rejects_non_potential():
    with pytest.raises(NonPotentialError):
        complete_extension(_triangle(ALL_G))


def _complete_extension_verbatim(marking):
    """Edge marks kept verbatim, every other pair filled with u(i)^-1 * u(j)."""
    u = is_potential(marking).potential.values
    graph = marking.graph
    full = RelationGraph.complete(graph.nodes)
    values = {
        (i, j): marking.mark(i, j) if graph.has_edge(i, j) else u[i].inverse() * u[j]
        for i, j in full.directed_edges
    }
    return Marking(full, marking.group, values)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(list(_atlas_graphs(2, 5))), st.sampled_from([G2, S3]), st.data())
def test_pair_marks_from_the_potential_match_the_verbatim_extension(graph, group, data):
    # A gauge marking g(i, j) = s_i^-1 * s_j is a potential marking.
    gauge = data.draw(st.lists(st.sampled_from(list(group)), min_size=len(graph),
                               max_size=len(graph)))
    marking = Marking(
        graph, group,
        {(i, j): gauge[i].inverse() * gauge[j] for i, j in graph.directed_edges},
    )
    oracle = _complete_extension_verbatim(marking)
    extended = complete_extension(marking)
    assert extended.graph.directed_edges == oracle.graph.directed_edges
    assert list(extended.items()) == list(oracle.items())
    rm = ReactionMatrix.from_marking(marking)
    n = len(graph)
    assert rm.entries == tuple(
        tuple(group.identity if i == j else oracle.mark(i, j) for j in range(n))
        for i in range(n)
    )


def test_network_json_round_trip():
    marking = _triangle(BALANCED)
    payload = network_to_json(marking)
    again = load_network(payload)
    assert again.graph.nodes == (1, 2, 3)
    assert [g.name for _, g in again.items()] == [g.name for _, g in marking.items()]


def test_load_network_error_messages():
    base = network_to_json(_triangle(BALANCED))
    with pytest.raises(ValidationError):
        load_network({k: v for k, v in base.items() if k != "edges"})
    broken = dict(base)
    broken["edges"] = base["edges"][:1]
    with pytest.raises(ValidationError):
        load_network(broken)
    unknown = dict(base)
    unknown["edges"] = base["edges"] + [{"from": 9, "to": 1, "reaction": "e"}]
    with pytest.raises(ValidationError):
        load_network(unknown)


# The network example of the README, verbatim.
README_NETWORK = """
{
  "nodes": [1, 2, 3],
  "group": {
    "states": [1, -1],
    "elements": [
      {"name": "e", "perm": [0, 1]},
      {"name": "g", "perm": [1, 0]}
    ],
    "identity": "e"
  },
  "symmetric": true,
  "edges": [
    {"from": 1, "to": 2, "reaction": "g"},
    {"from": 1, "to": 3, "reaction": "g"},
    {"from": 2, "to": 3, "reaction": "e"}
  ]
}
"""


def test_load_network_mirrors_symmetric_edges(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(README_NETWORK)
    for source in (path, str(path), README_NETWORK, json.loads(README_NETWORK)):
        marking = load_network(source)
        assert marking.graph.directed_edges == _triangle(BALANCED).graph.directed_edges
        assert [g.name for _, g in marking.items()] == ["g", "g", "g", "e", "g", "e"]
        assert marking.symmetric


def test_load_network_symmetric_keeps_listed_reverses():
    base = json.loads(README_NETWORK)
    base["edges"].append({"from": 3, "to": 2, "reaction": "g"})
    marking = load_network(base)
    assert marking.mark(1, 2).name == "e"
    assert marking.mark(2, 1).name == "g"
    with pytest.raises(ValidationError):
        load_network({**base, "symmetric": "yes"})
    with pytest.raises(ValidationError):
        load_network({**base, "symmetric": False})
