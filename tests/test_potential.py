"""Potentiality tests: tree consistency, the two star criteria, generation."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancenets.errors import ValidationError
from balancenets.groups import sign_group, symmetric_group
from balancenets.network import (
    Marking,
    Path,
    RelationGraph,
    star_marking,
    two_coloring,
)
from balancenets.potential import (
    balance_signs,
    check_A1,
    check_A2,
    gamma3_solution_family,
    generate_potential_fields,
    is_potential,
    product_integral,
    sign_by_identity,
)

G2 = sign_group()


def _triangle(marks):
    graph = RelationGraph.complete([1, 2, 3])
    return Marking.from_names(graph, G2, marks, symmetric=True)


BALANCED = {(0, 1): "g", (0, 2): "g", (1, 2): "e"}
ALL_G = {(0, 1): "g", (0, 2): "g", (1, 2): "g"}


def _all_closed_products_trivial(marking):
    # Every simple directed cycle, including the two-step round trips.
    dg = nx.DiGraph(list(marking.graph.directed_edges))
    for cyc in nx.simple_cycles(dg):
        closed = list(cyc) + [cyc[0]]
        acc = marking.group.identity
        for a, b in zip(closed, closed[1:]):
            acc = acc * marking.mark(a, b)
        if not acc.is_identity:
            return False
    return True


def test_product_integral():
    marking = _triangle(BALANCED)
    loop = Path.from_nodes(marking.graph, [0, 1, 2, 0])
    assert product_integral(marking, loop).is_identity
    assert product_integral(marking, Path(marking.graph, ())).is_identity
    hostile = _triangle(ALL_G)
    assert product_integral(hostile, loop).name == "g"


def test_is_potential_balanced_triangle():
    verdict = is_potential(_triangle(BALANCED))
    assert verdict.ok
    assert verdict.witness_cycle_nodes is None
    u = verdict.potential
    assert u.root == 0
    assert u.values[0].is_identity
    assert [u.values[i].name for i in (0, 1, 2)] == ["e", "g", "g"]
    assert u.check(_triangle(BALANCED))


def test_is_potential_witness_reproduces_failure():
    marking = _triangle(ALL_G)
    verdict = is_potential(marking)
    assert not verdict.ok
    cycle = verdict.witness_cycle_nodes
    assert cycle[0] == cycle[-1]
    path = Path.from_nodes(marking.graph, cycle)
    assert product_integral(marking, path) == verdict.witness_product
    assert not verdict.witness_product.is_identity


def test_is_potential_matches_cycle_enumeration_on_sign_markings():
    graph = RelationGraph.complete([1, 2, 3, 4])
    slots = graph.undirected_edges
    for bits in itertools.product((0, 1), repeat=len(slots)):
        names = {e: ("g" if b else "e") for e, b in zip(slots, bits)}
        marking = Marking.from_names(graph, G2, names, symmetric=True)
        assert is_potential(marking).ok == _all_closed_products_trivial(marking)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=12, max_size=12))
def test_is_potential_matches_cycle_enumeration_on_s3_markings(picks):
    s3 = symmetric_group(3)
    graph = RelationGraph.complete([1, 2, 3, 4])
    values = {
        edge: s3.element(pick)
        for edge, pick in zip(graph.directed_edges, picks)
    }
    marking = Marking(graph, s3, values)
    assert is_potential(marking).ok == _all_closed_products_trivial(marking)


def test_check_A1_on_triangle_markings():
    # Every symmetric two-reaction triangle passes the star criterion,
    # potential or not: the two-step marks always multiply out.
    for marks in (BALANCED, ALL_G, {(0, 1): "e", (0, 2): "g", (1, 2): "e"}):
        report = check_A1(_triangle(marks))
        assert report.ok
        assert len(report.potentials) == 1
        assert report.potentials[0].values[0].is_identity


def test_check_A1_failure_on_square():
    c4 = RelationGraph.cycle([1, 2, 3, 4])
    marking = Marking.from_names(
        c4,
        G2,
        {(0, 1): "g", (1, 2): "e", (2, 3): "e", (3, 0): "e"},
        symmetric=True,
    )
    report = check_A1(marking)
    assert not report.ok
    assert report.potentials is None
    assert not report.witness_product.is_identity
    # The parallel two-step edges 0->2 disagree between the two mediators.
    marks = star_marking(marking)
    assert marks.mark(0, 2, 1) != marks.mark(0, 2, 3)


def test_product_integral_star_round_trip():
    marks = star_marking(_triangle(BALANCED))
    from balancenets.network import StarPath

    loop = StarPath(marks.star, ((0, 2, 1), (2, 0, 1)))
    assert product_integral(marks, loop).is_identity


def test_check_A2():
    assert check_A2(_triangle(BALANCED)) is not None
    reactions = check_A2(_triangle(BALANCED))
    assert all(el.is_identity for el in reactions.values.values())
    assert reactions.uniform().is_identity

    lopsided = Marking.from_names(
        RelationGraph.complete([1, 2, 3]),
        G2,
        {
            (0, 1): "g",
            (1, 0): "e",
            (0, 2): "e",
            (2, 0): "e",
            (1, 2): "e",
            (2, 1): "e",
        },
    )
    assert check_A2(lopsided) is None


def test_generated_fields_match_brute_force():
    for n in (3, 4, 5):
        generated = list(generate_potential_fields(n))
        assert len(generated) == 2 ** (n - 1)
        generated_marks = {
            tuple(g.name for _, g in m.items()) for m in generated
        }
        graph = RelationGraph.complete(tuple(range(1, n + 1)))
        slots = graph.undirected_edges
        brute = set()
        for bits in itertools.product((0, 1), repeat=len(slots)):
            names = {e: ("g" if b else "e") for e, b in zip(slots, bits)}
            marking = Marking.from_names(graph, G2, names, symmetric=True)
            if is_potential(marking).ok:
                brute.add(tuple(g.name for _, g in marking.items()))
        assert generated_marks == brute


def test_generated_fields_are_symmetric_and_potential():
    for marking in generate_potential_fields(4):
        assert marking.symmetric
        assert is_potential(marking).ok


def test_generate_potential_fields_validation():
    with pytest.raises(ValidationError):
        list(generate_potential_fields(2))
    with pytest.raises(ValidationError):
        list(generate_potential_fields(3, symmetric_group(3)))


def test_gamma3_family_always_passes_the_star_criterion():
    s3 = symmetric_group(3)
    elements = list(s3)
    for x1, x2, x3 in itertools.product(elements, repeat=3):
        marking = gamma3_solution_family(x1, x2, x3)
        assert check_A1(marking).ok


def test_gamma3_family_places_the_free_parameters():
    s3 = symmetric_group(3)
    x1, x2, x3 = s3.element(1), s3.element(2), s3.element(3)
    marking = gamma3_solution_family(x1, x2, x3)
    assert marking.mark(0, 1) == x1
    assert marking.mark(2, 0) == x2
    assert marking.mark(2, 1) == x3


def test_balance_partition():
    for names, want in [
        (BALANCED, (frozenset({0}), frozenset({1, 2}))),
        (ALL_G, None),
        ({(0, 1): "e", (0, 2): "e", (1, 2): "e"}, (frozenset({0, 1, 2}), frozenset())),
    ]:
        marking = _triangle(names)
        parts, _ = two_coloring(marking.graph, balance_signs(marking))
        assert parts == want


def test_balance_witness():
    balanced = _triangle(BALANCED)
    assert two_coloring(balanced.graph, balance_signs(balanced))[1] is None

    marking = _triangle(ALL_G)
    walk = two_coloring(marking.graph, balance_signs(marking))[1]
    assert walk is not None
    assert walk[0] == walk[-1]
    hostile = sum(
        1 for a, b in zip(walk, walk[1:]) if not marking.mark(a, b).is_identity
    )
    assert hostile % 2 == 1
    for a, b in zip(walk, walk[1:]):
        assert b in marking.graph.neighbors(a)


def test_sign_by_identity():
    assert sign_by_identity(G2.identity) == 1
    assert sign_by_identity(G2.element("g")) == -1


def test_partition_from_signs_validates_signs():
    marking = _triangle(BALANCED)
    with pytest.raises(ValidationError):
        balance_signs(marking, sign_rule=lambda g: 0)
    # Direct use with explicit signs.
    signs = {e: 1 for e in marking.graph.directed_edges}
    parts, _ = two_coloring(marking.graph, signs)
    assert parts[1] == frozenset()
