"""Acceptance gate: the ten headline claims, each with a pinned runtime budget.

Every test prints one ACCEPTANCE line so a log scrape shows the verdicts.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from balancenets.dynamics import (
    build_markov,
    core_set,
    limit_exists,
    max_nonergodicity_scan,
    stationary_count,
)
from balancenets.errors import NonPotentialError
from balancenets.groups import sign_group
from balancenets.network import Marking, RelationGraph, load_network
from balancenets.potential import generate_potential_fields, is_potential
from balancenets.semigroup import (
    ControlMatrix,
    ReactionMatrix,
    control_matrices,
    enumerate_ideals,
    final_states,
    rho,
    star_product,
    theorem1_min_rank,
    word_index_map,
)
from balancenets.smoothfield import (
    EdgeQuadratureRule,
    InvolutionField,
    ParameterizedCurve,
    discretize,
    load_embedding,
    p_integral,
    pointwise,
    residual_orders,
    valid_parity_assignment,
)

FIXTURES = Path(__file__).parent / "fixtures"
G2 = sign_group()


@contextmanager
def criterion(number: int, budget_seconds: float):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL ({time.monotonic() - started:.2f} s)")
        raise
    elapsed = time.monotonic() - started
    verdict = "PASS" if elapsed < budget_seconds else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} ({elapsed:.2f} s)")
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f} s, budget {budget_seconds} s"
    )


def _triangle(marks):
    graph = RelationGraph.complete([1, 2, 3])
    return Marking.from_names(graph, G2, marks, symmetric=True)


def _labels(index_tuple):
    return tuple(G2.states.labels[i] for i in index_tuple)


def test_criterion_01_two_stationary_measures():
    with criterion(1, 1.0):
        marking = load_network(FIXTURES / "gamma3_balanced.json")
        model = build_markov(marking)
        assert stationary_count(model) == 2
        assert limit_exists(model)
        core = core_set(marking)
        assert {_labels(x) for x in core.states} == {(1, -1, -1), (-1, 1, 1)}
        assert core.matches_closed_form


def test_criterion_02_oscillation_means_one_measure():
    with criterion(2, 1.0):
        for name in ("gamma3_ex1.json", "gamma3_allg.json"):
            marking = load_network(FIXTURES / name)
            model = build_markov(marking)
            assert stationary_count(model) == 1
            assert not limit_exists(model)


def test_criterion_03_maximum_nonergodicity_is_potentiality():
    with criterion(3, 5.0):
        graph = RelationGraph.complete([1, 2, 3])
        seen = 0
        for names in itertools.product("eg", repeat=3):
            marking = _triangle(
                {(0, 1): names[0], (0, 2): names[1], (1, 2): names[2]}
            )
            model = build_markov(marking)
            potential = is_potential(marking).ok
            maximal = stationary_count(model) == 2
            assert limit_exists(model) == potential == maximal
            seen += 1
        assert seen == 8

        scan = max_nonergodicity_scan(graph, G2)
        assert scan.total_scanned == 8
        assert scan.best_count == 2
        assert len(scan.argmax) == 4
        assert all(is_potential(m).ok for m in scan.argmax)


def test_criterion_04_minimal_ideal_counts_on_small_graphs():
    with criterion(4, 120.0):
        graphs = [
            g
            for g in nx.graph_atlas_g()
            if 2 <= len(g) <= 6 and nx.is_connected(g)
        ]
        assert len(graphs) == 142
        for g in graphs:
            nodes = sorted(g.nodes)
            graph = RelationGraph.from_undirected(
                [v + 1 for v in nodes], [(i + 1, j + 1) for i, j in g.edges]
            )
            rm = ReactionMatrix.from_marking(
                Marking.constant(graph, G2.identity)
            )
            enumeration = enumerate_ideals(rm)
            assert enumeration.min_rank == theorem1_min_rank(graph)
            parts = graph.parts
            if parts is None:
                assert not nx.is_bipartite(g)
                assert len(enumeration.ideals) == len(graph)
                assert {i.kind for i in enumeration.ideals} == {"column"}
                assert sorted(i.nodes for i in enumeration.ideals) == [
                    (k,) for k in range(len(graph))
                ]
            else:
                assert nx.is_bipartite(g)
                assert len(enumeration.ideals) == len(parts[0]) * len(parts[1])
                assert {i.kind for i in enumeration.ideals} == {"pair"}
                assert sorted(i.nodes for i in enumeration.ideals) == sorted(
                    tuple(sorted((a, b)))
                    for a in parts[0]
                    for b in parts[1]
                )
            assert enumeration.matches_expected


def test_criterion_05_final_states_equal_stationary_measures():
    with criterion(5, 30.0):
        for n in (3, 4):
            for marking in generate_potential_fields(n):
                rm = ReactionMatrix.from_marking(marking)
                reachable = final_states(rm)
                model = build_markov(marking)
                assert len(reachable) == stationary_count(model)

        fixture = _triangle({(0, 1): "g", (0, 2): "g", (1, 2): "e"})
        balanced = ReactionMatrix.from_marking(fixture)
        column = star_product((0, 0, 0), balanced)
        image = {
            _labels(column.apply(x)) for x in itertools.product(range(2), repeat=3)
        }
        assert image == {(1, -1, -1), (-1, 1, 1)}


def test_criterion_06_word_map_is_a_homomorphism():
    with criterion(6, 10.0):
        fixtures = [
            ReactionMatrix.from_marking(
                _triangle({(0, 1): "g", (0, 2): "g", (1, 2): "e"})
            ),
            ReactionMatrix.from_marking(
                Marking.from_names(
                    RelationGraph.from_undirected([1, 2, 3], [(1, 2), (2, 3)]),
                    G2,
                    {(0, 1): "g", (1, 2): "e"},
                    symmetric=True,
                )
            ),
            ReactionMatrix.from_marking(
                Marking.constant(RelationGraph.cycle([1, 2, 3, 4]), G2.identity)
            ),
        ]
        rng = random.Random(20240815)
        for rm in fixtures:
            controls = list(control_matrices(rm.graph))
            for _ in range(1000):
                w1 = [rng.choice(controls) for _ in range(rng.randint(1, 4))]
                w2 = [rng.choice(controls) for _ in range(rng.randint(1, 4))]
                assert rho(w1 + w2, rm) == rho(w1, rm) * rho(w2, rm)

        broken = ReactionMatrix(
            G2,
            [["e", "g", "g"], ["g", "e", "g"], ["g", "g", "e"]],
            validate=False,
        )
        word = [ControlMatrix((1, 2, 0)), ControlMatrix((1, 2, 0))]
        with pytest.raises(NonPotentialError):
            rho(word, broken)
        accumulated = rho(word, broken, check=False)
        direct = star_product(word_index_map(word), broken)
        assert accumulated != direct


def _field_signature(marking):
    pairs = marking.graph.undirected_edges
    return tuple(marking.mark(i, j).name for i, j in pairs)


def test_criterion_07_generated_fields_are_complete():
    with criterion(7, 5.0):
        for n, expected_count in ((3, 4), (4, 8)):
            graph = RelationGraph.complete(tuple(range(1, n + 1)))
            generated = {
                _field_signature(m) for m in generate_potential_fields(n)
            }
            assert len(generated) == expected_count

            brute = set()
            pairs = graph.undirected_edges
            for names in itertools.product("eg", repeat=len(pairs)):
                marking = Marking.from_names(
                    graph, G2, dict(zip(pairs, names)), symmetric=True
                )
                if is_potential(marking).ok:
                    brute.add(_field_signature(marking))
            assert generated == brute

            one_hostile = Marking.from_names(
                graph,
                G2,
                {
                    (i, j): ("g" if i == 0 else "e")
                    for i, j in pairs
                },
                symmetric=True,
            )
            alternating = Marking.from_names(
                graph,
                G2,
                {(i, j): ("g" if (j - i) % 2 else "e") for i, j in pairs},
                symmetric=True,
            )
            assert _field_signature(one_hostile) in generated
            assert _field_signature(alternating) in generated


def test_criterion_08_closed_loop_products_return_identity():
    with criterion(8, 10.0):
        field = InvolutionField.from_parameter(lambda x, y: x, "elliptic")
        sample = field(0.3, 0.0)
        assert np.allclose(
            sample.matrix,
            [[math.cos(0.3), math.sin(0.3)], [math.sin(0.3), -math.cos(0.3)]],
        )
        leg_out = ParameterizedCurve(
            lambda s: (math.sin(s), 0.0), 0.0, math.pi / 2
        )
        for m in (2, 3):
            leg_back = ParameterizedCurve(
                lambda s, m=m: (s ** m, 0.0), 0.0, 1.0
            ).reversed()
            defects = []
            for n in (1024, 2048):
                parts = [
                    p_integral(field, leg, n, "even")
                    for leg in (leg_out, leg_back)
                ]
                for part in parts:
                    assert abs(np.linalg.det(part) - 1.0) < 1e-9
                loop = parts[0] @ parts[1]
                defects.append(float(np.abs(loop - np.eye(2)).max()))
            assert defects[0] < 1e-6
            assert defects[1] < 0.5 * defects[0]

            odd = p_integral(field, leg_back, 1023, "odd")
            assert abs(np.linalg.det(odd) + 1.0) < 1e-9


def test_criterion_09_residuals_vanish_at_second_order():
    with criterion(9, 10.0):
        ladder = (1e-2, 5e-3, 2.5e-3)
        for kind in ("elliptic", "hyperbolic"):
            field = InvolutionField.from_parameter(
                lambda x, y: pointwise(math.sin, x) + y * y, kind
            )
            norms, orders = residual_orders(field, (0.4, 0.35), ladder)
            assert all(1.8 <= order <= 2.2 for order in orders)
            assert norms[0] < 1e-3

        twisted = InvolutionField.from_components(
            lambda x, y: x * y,
            lambda x, y: math.sqrt(1.0 - (x * y) ** 2),
            lambda x, y: math.sqrt(1.0 - (x * y) ** 2),
        )
        norms, _ = residual_orders(twisted, (0.5, 0.5), ladder)
        assert all(norm >= 1e-3 for norm in norms)
        assert max(norms) < 1.2 * min(norms)


def test_criterion_10_discretized_markings_close_every_cycle():
    with criterion(10, 30.0):
        marking = load_network(FIXTURES / "k4_complete.json")
        embedding, rules = load_embedding(
            FIXTURES / "k4_embedding.json", marking.graph
        )
        field = InvolutionField.from_parameter(
            lambda x, y: pointwise(math.sin, x) + y * y, "elliptic"
        )
        mm = discretize(field, embedding, rules)
        assert mm.potential_ok

        digraph = nx.DiGraph(marking.graph.directed_edges)
        for cycle in nx.simple_cycles(digraph):
            acc = np.eye(2)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                acc = acc @ mm.mark(a, b)
            assert np.abs(acc - np.eye(2)).max() < 1e-6

        triangle = RelationGraph.complete([1, 2, 3])
        edges = triangle.undirected_edges
        valid = {
            tags
            for tags in itertools.product(("even", "odd"), repeat=3)
            if valid_parity_assignment(triangle, dict(zip(edges, tags)))
        }
        assert valid == {
            tags
            for tags in itertools.product(("even", "odd"), repeat=3)
            if tags.count("odd") in (0, 2)
        }
