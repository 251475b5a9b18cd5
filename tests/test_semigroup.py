"""Operator semigroup: words, the homomorphism law and minimal left ideals."""

import dataclasses
import itertools
import random
import types
from collections import deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancenets import semigroup
from balancenets.config import BOUND_PRODUCT_STEPS, trajectory_seed
from balancenets.errors import BoundExceededError, NonPotentialError, ValidationError
from balancenets.groups import (
    GroupElement,
    cyclic_group,
    sign_group,
    symmetric_group,
)
from balancenets.network import Marking, RelationGraph, load_network
from balancenets.semigroup import (
    ControlMatrix,
    OperatorMatrix,
    ProductTrajectory,
    ReactionMatrix,
    _closure,
    _contracting_word,
    _left_children,
    _right_children,
    control_matrices,
    enumerate_ideals,
    final_states,
    random_product_process,
    rho,
    star_product,
    theorem1_expected,
    theorem1_min_rank,
    word_index_map,
)
from test_dynamics import GROUPS, SMALL_GRAPHS

G2 = sign_group()


def _triangle_marking(marks):
    graph = RelationGraph.complete([1, 2, 3])
    return Marking.from_names(graph, G2, marks, symmetric=True)


BALANCED_RM = ReactionMatrix.from_marking(
    _triangle_marking({(0, 1): "g", (0, 2): "g", (1, 2): "e"})
)

CHAIN_RM = ReactionMatrix.from_marking(
    Marking.from_names(
        RelationGraph.from_undirected([1, 2, 3], [(1, 2), (2, 3)]),
        G2,
        {(0, 1): "g", (1, 2): "e"},
        symmetric=True,
    )
)

SQUARE_RM = ReactionMatrix.from_marking(
    Marking.from_names(
        RelationGraph.cycle([1, 2, 3, 4]),
        G2,
        {(0, 1): "e", (1, 2): "e", (2, 3): "e", (3, 0): "e"},
        symmetric=True,
    )
)


def _broken_triangle():
    """The all-g triangle, which is not potential, built without the check."""
    return ReactionMatrix(
        G2,
        [["e", "g", "g"], ["g", "e", "g"], ["g", "g", "e"]],
        validate=False,
    )


def _semigroup_closure(rg):
    gens = [star_product(cm, rg) for cm in control_matrices(rg.graph)]
    seen = set(gens)
    queue = list(gens)
    while queue:
        op = queue.pop()
        for g in gens:
            for prod in (op * g, g * op):
                if prod not in seen:
                    seen.add(prod)
                    queue.append(prod)
    return seen


def _minimal_left_ideals_brute(rg):
    """Distinct minimal principal left ideals of the full semigroup."""
    sg = _semigroup_closure(rg)
    principal = {x: frozenset({x} | {s * x for s in sg}) for x in sg}
    return {
        lx
        for x, lx in principal.items()
        if all(principal[y] == lx for y in lx)
    }


# -- exhaustive witness and fixpoint kernel (oracles) --------------------------
# A search over every achievable word image, and a kernel that shrinks
# two-sided closures until nothing smaller exists; neither assumes the
# minimum rank that the constructed witness relies on.


def _achievable_images(graph: RelationGraph):
    """Breadth-first search over images of control words, as bitmasks.

    Children of an image T are the sets T' such that some neighbor choice
    on T covers T' exactly: every member of T needs a neighbor in T', and
    a matching argument (Hall's condition) must saturate T'.
    """
    n = len(graph)
    nbr = [0] * n
    for i in range(n):
        for j in graph.neighbors(i):
            nbr[i] |= 1 << j
    full = (1 << n) - 1

    def children(t_mask: int) -> list[int]:
        members = [i for i in range(n) if t_mask >> i & 1]
        reach = 0
        for i in members:
            reach |= nbr[i]
        out = []
        sub = reach
        while sub:
            # Images never grow along a word, so larger candidates are dead.
            if bin(sub).count("1") <= len(members) and _coverable(
                members, nbr, sub
            ):
                out.append(sub)
            sub = (sub - 1) & reach
        return out

    parent: dict[int, int] = {}
    seen = {full}
    queue = deque([full])
    while queue:
        t_mask = queue.popleft()
        for child in children(t_mask):
            if child not in parent:
                parent[child] = t_mask
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return parent, full


def _coverable(members: list[int], nbr: list[int], target: int) -> bool:
    """Does some choice c(t) in N(t) map the members onto target exactly?"""
    if any(not nbr[t] & target for t in members):
        return False
    # Hall's condition over subsets of the target.
    sub = target
    while sub:
        hits = sum(1 for t in members if nbr[t] & sub)
        if hits < bin(sub).count("1"):
            return False
        sub = (sub - 1) & target
    return True


def _choice_matrix(
    graph: RelationGraph, source: int, target: int
) -> ControlMatrix:
    """Control matrix sending the source image onto the target image."""
    n = len(graph)
    nbr = [set(graph.neighbors(i)) for i in range(n)]
    members = [i for i in range(n) if source >> i & 1]
    wanted = [j for j in range(n) if target >> j & 1]

    match: dict[int, int] = {}

    def augment(j: int, banned: set[int]) -> bool:
        for t in members:
            if t in banned or j not in nbr[t]:
                continue
            banned.add(t)
            if t not in match or augment(match[t], banned):
                match[t] = j
                return True
        return False

    for j in wanted:
        if not augment(j, set()):
            raise ValidationError("image step is not coverable")

    rowmap = []
    for i in range(n):
        if i in match:
            rowmap.append(match[i])
        elif source >> i & 1:
            rowmap.append(min(j for j in nbr[i] if target >> j & 1))
        else:
            rowmap.append(min(nbr[i]))
    return ControlMatrix(tuple(rowmap))


def _min_rank_witness(graph: RelationGraph) -> list[ControlMatrix]:
    """A control word whose operator has the smallest achievable image."""
    parent, full = _achievable_images(graph)
    best = min(parent, key=lambda m: (bin(m).count("1"), m))
    path = [best]
    while path[-1] != full:
        path.append(parent[path[-1]])
    path.reverse()
    if len(path) == 1:
        # Only the full image is achievable; one explicit step realizes it.
        path = [full, full]
    return [
        _choice_matrix(graph, src, dst) for src, dst in zip(path, path[1:])
    ]


def _left_closure(op, rg):
    return _closure(op, lambda o: _left_children(o, rg))


def _two_sided_closure(op, rg):
    return _closure(
        op, lambda o: itertools.chain(_left_children(o, rg), _right_children(o, rg))
    )


def _fixpoint_kernel(rg: ReactionMatrix) -> frozenset:
    """Smallest two-sided ideal, found by shrinking closures to a fixpoint."""
    witness = _min_rank_witness(rg.graph)
    current = _two_sided_closure(rho(witness, rg, check=False), rg)
    while True:
        for op in sorted(current, key=OperatorMatrix.sort_key):
            candidate = _two_sided_closure(op, rg)
            if len(candidate) < len(current):
                current = candidate
                break
        else:
            return current


def _fixpoint_ideals(rg):
    """Kernel size and distinct left closures of the fixpoint kernel."""
    kernel = _fixpoint_kernel(rg)
    return len(kernel), {_left_closure(op, rg) for op in kernel}


def _final_states_scan(rg, enumeration):
    """Every kernel operator applied to every one of the k**n joint states."""
    k = len(rg.group.states)
    return frozenset(
        op.apply(x)
        for ideal in enumeration.ideals
        for op in ideal.elements
        for x in itertools.product(range(k), repeat=rg.n)
    )


def _random_product_oracle(rg, steps, seed=0, index=0, start=None):
    """Random products by multiplying operators: one control matrix, one
    operator product and one state update per step, drawing to the end.
    Absorption is the first step at the minimum rank of the enumerated
    kernel."""
    rng = random.Random(trajectory_seed(seed, index))
    k = len(rg.group.states)
    if start is None:
        start = tuple(rng.randrange(k) for _ in range(rg.n))
    pools = [sorted(rg.graph.neighbors(i)) for i in range(rg.n)]
    min_rank = enumerate_ideals(rg).min_rank
    acc = None
    x = start
    ranks = []
    absorbed = None
    for t in range(1, steps + 1):
        rowmap = tuple(rng.choice(pool) for pool in pools)
        step_op = star_product(ControlMatrix(rowmap), rg)
        acc = step_op if acc is None else step_op * acc
        x = step_op.apply(x)
        ranks.append(acc.rank)
        if absorbed is None and acc.rank <= min_rank:
            absorbed = t
    return ProductTrajectory(start, tuple(ranks), absorbed, x, acc)


def _cubic_potential_defect(rg):
    """First failing triple of the full lexicographic scan, or None."""
    for i, j, k in itertools.product(range(rg.n), repeat=3):
        if rg.entry(i, j) * rg.entry(j, k) != rg.entry(i, k):
            return f"entries ({i},{j})*({j},{k}) do not match entry ({i},{k})"
    return None


def _refuse(*args, **kwargs):
    raise AssertionError("called a routine that must not run here")


def _gauge_matrix(graph, group, choose):
    """Matrix of a gauge marking g(i, j) = s_i^-1 * s_j, which is potential.

    choose(m) picks each s_i by its index below m.
    """
    gauge = [group.element(choose(len(group))) for _ in range(len(graph))]
    values = {(i, j): gauge[i].inverse() * gauge[j] for i, j in graph.directed_edges}
    return ReactionMatrix.from_marking(Marking(graph, group, values))


def test_control_matrix_validation():
    cm = ControlMatrix.from_matrix([[0, 1, 0], [0, 0, 1], [0, 1, 0]])
    assert cm.rowmap == (1, 2, 1)
    assert np.array_equal(
        cm.matrix, np.array([[0, 1, 0], [0, 0, 1], [0, 1, 0]])
    )
    with pytest.raises(ValidationError):
        ControlMatrix.from_matrix([[1, 1, 0], [0, 0, 1], [0, 1, 0]])
    chain = RelationGraph.from_undirected([1, 2, 3], [(1, 2), (2, 3)])
    with pytest.raises(ValidationError):
        ControlMatrix((2, 0, 1)).validate_on(chain)
    ControlMatrix((1, 0, 1)).validate_on(chain)


def test_control_matrices_enumeration():
    k3 = RelationGraph.complete([1, 2, 3])
    assert len(list(control_matrices(k3))) == 8
    chain = RelationGraph.from_undirected([1, 2, 3], [(1, 2), (2, 3)])
    assert [cm.rowmap for cm in control_matrices(chain)] == [
        (1, 0, 1),
        (1, 2, 1),
    ]


def test_word_index_map_composes_first_factor_first():
    c2 = ControlMatrix.from_matrix([[0, 1, 0], [0, 0, 1], [0, 1, 0]])
    c1 = ControlMatrix.from_matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert word_index_map([c2]) == (1, 2, 1)
    assert word_index_map([c1]) == (2, 0, 1)
    assert word_index_map([c2, c1]) == (0, 1, 0)
    with pytest.raises(ValidationError):
        word_index_map([])


def test_reaction_matrix_construction():
    assert BALANCED_RM.n == 3
    assert BALANCED_RM.entry(0, 1).name == "g"
    assert BALANCED_RM.entry(1, 2).name == "e"
    assert BALANCED_RM.is_potential()
    with pytest.raises(ValidationError):
        ReactionMatrix(G2, [["g", "e"], ["e", "e"]])  # bad diagonal
    with pytest.raises(NonPotentialError):
        ReactionMatrix(
            G2, [["e", "g", "g"], ["g", "e", "g"], ["g", "g", "e"]]
        )
    assert not _broken_triangle().is_potential()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([G2, symmetric_group(3)]), st.integers(2, 5), st.data())
def test_potentiality_matches_the_cubic_scan(group, n, data):
    # A gauge matrix s_i^-1 * s_j is potential; overwriting a few
    # off-diagonal entries usually breaks it.
    pick = st.integers(0, len(group) - 1).map(group.element)
    gauge = [data.draw(pick) for _ in range(n)]
    entries = [[gauge[i].inverse() * gauge[j] for j in range(n)] for i in range(n)]
    off_diagonal = [(i, j) for i in range(n) for j in range(n) if i != j]
    for i, j in data.draw(st.lists(st.sampled_from(off_diagonal), max_size=3)):
        entries[i][j] = data.draw(pick)
    unchecked = ReactionMatrix(group, entries, validate=False)
    defect = _cubic_potential_defect(unchecked)
    assert unchecked.is_potential() == (defect is None)
    if defect is None:
        assert ReactionMatrix(group, entries).is_potential()
    else:
        with pytest.raises(NonPotentialError) as err:
            ReactionMatrix(group, entries)
        assert str(err.value) == defect


def test_is_potential_multiplies_no_group_elements(monkeypatch):
    broken = _broken_triangle()
    monkeypatch.setattr(GroupElement, "__mul__", _refuse)
    assert BALANCED_RM.is_potential()
    assert not broken.is_potential()


def test_from_marking_requires_potentiality():
    with pytest.raises(NonPotentialError):
        ReactionMatrix.from_marking(
            _triangle_marking({(0, 1): "g", (0, 2): "g", (1, 2): "g"})
        )


def test_from_marking_keeps_the_relation_graph():
    # Entries cover all pairs, but controls stay on the chain.
    assert CHAIN_RM.entry(0, 2).name == "g"
    assert not CHAIN_RM.graph.has_edge(0, 2)


def test_operator_application_and_product():
    op = star_product(ControlMatrix((1, 0, 1)), BALANCED_RM)
    # Nodes 0 and 1 read each other through g, node 2 reads node 1 plainly.
    assert op.apply((0, 0, 0)) == (1, 1, 0)
    assert op.apply((0, 1, 0)) == (0, 1, 1)

    other = star_product(ControlMatrix((2, 2, 0)), BALANCED_RM)
    left = op * other
    for x in itertools.product(range(2), repeat=3):
        assert left.apply(x) == op.apply(other.apply(x))
    assert left.rank <= min(op.rank, other.rank) + 1


def test_rho_homomorphism_on_random_words():
    rng = random.Random(991)
    controls = list(control_matrices(BALANCED_RM.graph))
    for _ in range(1000):
        w1 = [rng.choice(controls) for _ in range(rng.randint(1, 4))]
        w2 = [rng.choice(controls) for _ in range(rng.randint(1, 4))]
        assert rho(w1 + w2, BALANCED_RM) == rho(w1, BALANCED_RM) * rho(
            w2, BALANCED_RM
        )


def test_rho_check_catches_non_potential_matrices():
    broken = _broken_triangle()
    word = [ControlMatrix((1, 2, 0)), ControlMatrix((1, 2, 0))]
    with pytest.raises(NonPotentialError):
        rho(word, broken)
    # The uncheck variant still produces the accumulated product.
    op = rho(word, broken, check=False)
    assert op.pattern == (2, 0, 1)
    assert all(v.is_identity for v in op.values)


def test_theorem1_expected_counts():
    assert theorem1_expected(RelationGraph.complete([1, 2, 3])) == 3
    assert theorem1_expected(RelationGraph.complete([1, 2, 3, 4, 5])) == 5
    assert theorem1_expected(RelationGraph.cycle([1, 2, 3, 4])) == 4
    assert (
        theorem1_expected(
            RelationGraph.from_undirected([1, 2, 3], [(1, 2), (2, 3)])
        )
        == 2
    )


@pytest.mark.parametrize(
    "rm,expected",
    [(BALANCED_RM, 3), (CHAIN_RM, 2), (SQUARE_RM, 4)],
)
def test_enumerate_ideals_matches_brute_force(rm, expected):
    enumeration = enumerate_ideals(rm)
    assert enumeration.expected_count == expected
    assert enumeration.matches_expected
    assert len(enumeration.ideals) == expected

    brute = _minimal_left_ideals_brute(rm)
    mine = {frozenset(ideal.elements) for ideal in enumeration.ideals}
    assert mine == brute

    # The kernel is exactly the union of the minimal left ideals.
    assert enumeration.kernel_size == sum(
        len(ideal.elements) for ideal in enumeration.ideals
    )
    assert all(
        op.rank == enumeration.min_rank
        for ideal in enumeration.ideals
        for op in ideal.elements
    )


def test_ideal_kinds_and_nodes():
    non_bip = enumerate_ideals(BALANCED_RM)
    assert [ideal.kind for ideal in non_bip.ideals] == ["column"] * 3
    assert sorted(ideal.nodes for ideal in non_bip.ideals) == [(0,), (1,), (2,)]

    bip = enumerate_ideals(CHAIN_RM)
    assert [ideal.kind for ideal in bip.ideals] == ["pair", "pair"]
    assert sorted(ideal.nodes for ideal in bip.ideals) == [(0, 1), (1, 2)]


def _atlas_graphs(lo, hi):
    for g in nx.graph_atlas_g():
        if lo <= len(g) <= hi and nx.is_connected(g):
            yield RelationGraph.from_undirected(
                [v + 1 for v in sorted(g.nodes)],
                [(i + 1, j + 1) for i, j in g.edges],
            )


def test_contracting_word_reaches_the_theorem1_rank_on_the_atlas():
    graphs = list(_atlas_graphs(2, 7))
    assert len(graphs) == 995
    for graph in graphs:
        word = _contracting_word(graph)
        for cm in word:
            cm.validate_on(graph)
        rank = len(set(word_index_map(word)))
        assert rank == theorem1_min_rank(graph)
        if len(graph) <= 5:
            assert rank == len(set(word_index_map(_min_rank_witness(graph))))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_GRAPHS), st.sampled_from(GROUPS), st.data())
def test_enumerate_ideals_matches_the_fixpoint_oracle(graph, group, data):
    rm = _gauge_matrix(graph, group, lambda m: data.draw(st.integers(0, m - 1)))
    enumeration = enumerate_ideals(rm)
    kernel_size, ideals = _fixpoint_ideals(rm)
    assert enumeration.kernel_size == kernel_size
    assert {frozenset(ideal.elements) for ideal in enumeration.ideals} == ideals
    assert enumeration.matches_expected


def test_enumerate_ideals_without_potentiality_matches_brute_force():
    # Theorem 1's count needs a potential matrix; the kernel does not.
    broken = _broken_triangle()
    enumeration = enumerate_ideals(broken)
    assert enumeration.expected_count is None
    assert enumeration.matches_expected is None
    assert enumeration.min_rank == 1
    mine = {frozenset(ideal.elements) for ideal in enumeration.ideals}
    assert mine == _minimal_left_ideals_brute(broken)
    assert (enumeration.kernel_size, mine) == _fixpoint_ideals(broken)
    assert final_states(broken, enumeration) == _final_states_scan(broken, enumeration)


# Graphs on which the fixpoint oracle stays fast on any matrix; it takes
# seconds on four- and five-node graphs.
TINY_GRAPHS = (
    RelationGraph.complete([1, 2]),
    RelationGraph.complete([1, 2, 3]),
    RelationGraph.from_undirected([1, 2, 3], [(1, 2), (2, 3)]),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TINY_GRAPHS), st.sampled_from([G2, cyclic_group(3)]), st.data())
def test_ideals_of_any_matrix_group_the_kernel_by_the_nodes_read(graph, group, data):
    # Random off-diagonal entries: mostly not potential, so no closed form
    # holds, and the left closures of the fixpoint kernel are the oracle.
    pick = st.integers(0, len(group) - 1).map(group.element)
    n = len(graph)
    entries = [
        [group.identity if i == j else data.draw(pick) for j in range(n)]
        for i in range(n)
    ]
    rm = ReactionMatrix(group, entries, graph=graph, validate=False)
    enumeration = enumerate_ideals(rm)
    kernel_size, ideals = _fixpoint_ideals(rm)
    assert enumeration.kernel_size == kernel_size
    assert {frozenset(ideal.elements) for ideal in enumeration.ideals} == ideals
    for ideal in enumeration.ideals:
        read = set().union(*(op.pattern for op in ideal.elements))
        assert ideal.nodes == tuple(sorted(read))


def test_ideals_come_back_ordered_by_their_first_element():
    rng = random.Random(415)
    matrices = [_gauge_matrix(g, G2, rng.randrange) for g in _atlas_graphs(2, 7)]
    for rm in matrices + [_broken_triangle()]:
        enumeration = enumerate_ideals(rm)
        firsts = [ideal.elements[0].sort_key() for ideal in enumeration.ideals]
        assert firsts == sorted(firsts) and len(set(firsts)) == len(firsts)
        for ideal in enumeration.ideals:
            keys = [op.sort_key() for op in ideal.elements]
            assert keys == sorted(keys)
        members = [op for ideal in enumeration.ideals for op in ideal.elements]
        assert len(set(members)) == len(members) == enumeration.kernel_size


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_GRAPHS), st.sampled_from(GROUPS), st.data())
def test_final_states_match_the_scan_oracle(graph, group, data):
    rm = _gauge_matrix(graph, group, lambda m: data.draw(st.integers(0, m - 1)))
    enumeration = enumerate_ideals(rm)
    assert final_states(rm, enumeration) == _final_states_scan(rm, enumeration)


@pytest.mark.parametrize(
    "graph",
    [RelationGraph.cycle(range(1, 13)), RelationGraph.complete(range(1, 13))],
    ids=["C12", "K12"],
)
def test_ideals_on_twelve_nodes_meet_theorem1(graph):
    # Closed forms over the sign group: |A||B| ideals and 4 final states on a
    # bipartite graph, n ideals and 2 final states otherwise.
    rm = _gauge_matrix(graph, G2, random.Random(12).randrange)
    enumeration = enumerate_ideals(rm)
    parts = graph.parts
    if parts is None:
        ideals, finals = 12, 2
    else:
        ideals, finals = len(parts[0]) * len(parts[1]), 4
    assert len(enumeration.ideals) == ideals
    assert enumeration.matches_expected
    assert enumeration.min_rank == theorem1_min_rank(graph)
    assert len(final_states(rm, enumeration)) == finals


def test_final_states_balanced():
    assert final_states(BALANCED_RM) == frozenset({(0, 1, 1), (1, 0, 0)})


def test_final_states_square_matches_recurrent_classes():
    from balancenets.dynamics import build_markov

    reachable = final_states(SQUARE_RM)
    marking = Marking.constant(SQUARE_RM.graph, G2.identity)
    model = build_markov(marking)
    recurrent = frozenset().union(*model.recurrent_classes())
    assert reachable == recurrent


def test_random_product_process_is_reproducible():
    a = random_product_process(BALANCED_RM, steps=20, seed=7, index=3)
    b = random_product_process(BALANCED_RM, steps=20, seed=7, index=3)
    assert a == b
    c = random_product_process(BALANCED_RM, steps=20, seed=7, index=4)
    assert a != c


def test_random_product_process_absorbs():
    enumeration = enumerate_ideals(BALANCED_RM)
    finals = final_states(BALANCED_RM, enumeration)
    for index in range(16):
        run = random_product_process(BALANCED_RM, steps=64, seed=11, index=index)
        assert run.absorbed_at is not None
        assert run.ranks[run.absorbed_at - 1] == enumeration.min_rank
        assert all(r1 >= r2 for r1, r2 in zip(run.ranks, run.ranks[1:]))
        assert run.final_state in finals
        assert run.final_operator.rank == run.ranks[-1]
        assert run.final_state == run.final_operator.apply(run.start)


def test_random_product_process_validation():
    with pytest.raises(ValidationError):
        random_product_process(BALANCED_RM, steps=0)
    with pytest.raises(ValidationError):
        random_product_process(BALANCED_RM, steps=5, start=(0, 0))
    fixed = random_product_process(BALANCED_RM, steps=5, start=(1, 0, 1))
    assert fixed.start == (1, 0, 1)


@pytest.mark.parametrize("entry", [-1, 2, 5, 0.0, True])
def test_random_product_process_rejects_start_entries_outside_the_states(
    fixtures_dir, entry
):
    rm = ReactionMatrix.from_marking(load_network(fixtures_dir / "gamma3_balanced.json"))
    with pytest.raises(ValidationError, match=rf"start entry {entry!r} is not a state index"):
        random_product_process(rm, steps=5, start=(entry, 0, 1))


def test_random_product_process_stores_a_list_start_as_a_tuple(fixtures_dir):
    rm = ReactionMatrix.from_marking(load_network(fixtures_dir / "gamma3_balanced.json"))
    from_list = random_product_process(rm, steps=8, seed=3, start=[1, 0, 1])
    from_tuple = random_product_process(rm, steps=8, seed=3, start=(1, 0, 1))
    assert from_list.start == (1, 0, 1) and type(from_list.start) is tuple
    assert type(from_list.final_state) is tuple
    assert from_list == from_tuple
    assert hash(from_list) == hash(from_tuple)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(SMALL_GRAPHS),
    st.sampled_from(GROUPS),
    st.data(),
    st.integers(0, 2**64 - 1),
    st.integers(0, 1000),
    st.integers(1, 48),
    st.booleans(),
)
def test_random_product_process_matches_the_operator_oracle(
    graph, group, data, seed, index, steps, drawn_start
):
    rm = _gauge_matrix(graph, group, lambda m: data.draw(st.integers(0, m - 1)))
    start = None
    if drawn_start:
        state = st.integers(0, len(group.states) - 1)
        start = tuple(data.draw(state) for _ in range(len(graph)))
    kwargs = dict(seed=seed, index=index, start=start)
    run = random_product_process(rm, steps, **kwargs)
    oracle = _random_product_oracle(rm, steps, **kwargs)
    for field in dataclasses.fields(ProductTrajectory):
        assert getattr(run, field.name) == getattr(oracle, field.name), field.name


def test_random_product_process_multiplies_nothing(monkeypatch):
    """No control matrix, operator product or per-step operator: the one
    star_product of a trajectory builds its final operator, and one read
    of it gives the final state."""
    oracles = [_random_product_oracle(SQUARE_RM, 32, seed=3, index=i) for i in range(4)]
    built, read = [], []

    def counted_star_product(control, rg):
        built.append(control)
        return star_product(control, rg)

    def counted_apply(op, x, apply=OperatorMatrix.apply):
        read.append(x)
        return apply(op, x)

    monkeypatch.setattr(GroupElement, "__mul__", _refuse)
    monkeypatch.setattr(OperatorMatrix, "__mul__", _refuse)
    monkeypatch.setattr(OperatorMatrix, "apply", counted_apply)
    monkeypatch.setattr(ControlMatrix, "__init__", _refuse)
    monkeypatch.setattr(semigroup, "star_product", counted_star_product)
    runs = [random_product_process(SQUARE_RM, 32, seed=3, index=i) for i in range(4)]
    assert runs == oracles
    assert len(built) == len(read) == len(runs)
    assert read == [run.start for run in runs]


def test_random_product_process_matches_the_oracle_at_benchmark_scale():
    """The size of an ideals-small absorb: 32 runs of 64 steps on 7 nodes,
    a bipartite graph over S3 (min rank 2) and K7 over the sign group."""
    bipartite = RelationGraph.from_undirected(
        range(1, 8), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (7, 1), (7, 3)]
    )
    choose = random.Random(7).randrange
    for graph, group in [
        (bipartite, symmetric_group(3)),
        (RelationGraph.complete(range(1, 8)), G2),
    ]:
        rm = _gauge_matrix(graph, group, choose)
        for index in range(32):
            kwargs = dict(seed=101, index=index)
            run = random_product_process(rm, 64, **kwargs)
            oracle = _random_product_oracle(rm, 64, **kwargs)
            for field in dataclasses.fields(ProductTrajectory):
                assert getattr(run, field.name) == getattr(oracle, field.name), (
                    len(group), index, field.name
                )


# Widths where choice rejects up to half its words: degree 1 (path ends and
# star leaves), 5 (K6) and 8 (the star's centre).
WIDE_GRAPHS = (
    RelationGraph.from_undirected(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5)]),
    RelationGraph.complete(range(1, 7)),
    RelationGraph.from_undirected(range(1, 10), [(1, j) for j in range(2, 10)]),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(WIDE_GRAPHS),
    st.sampled_from([G2, symmetric_group(3)]),
    st.data(),
    st.integers(0, 2**64 - 1),
    st.integers(0, 1000),
    st.integers(1, 64),
    st.booleans(),
)
def test_random_product_process_matches_the_oracle_on_wide_and_narrow_pools(
    graph, group, data, seed, index, steps, given_start
):
    rm = _gauge_matrix(graph, group, lambda m: data.draw(st.integers(0, m - 1)))
    start = None
    if given_start:
        state = st.integers(0, len(group.states) - 1)
        start = tuple(data.draw(state) for _ in range(len(graph)))
    _assert_matches_the_oracle(rm, steps, seed=seed, index=index, start=start)


def test_random_product_process_draws_a_start_entry_through_draw_below_only(monkeypatch):
    """_draw_below draws the n start entries of a run and nothing else: the
    step loop reads its rule inline, one getrandbits call per word."""
    calls = []

    def counted_draw_below(getrandbits, m, draw_below=semigroup._draw_below):
        calls.append(m)
        return draw_below(getrandbits, m)

    monkeypatch.setattr(semigroup, "_draw_below", counted_draw_below)
    for rm in (SQUARE_RM, CHAIN_RM, _gauge_matrix(WIDE_GRAPHS[2], G2, random.Random(2).randrange)):
        for index in range(8):
            calls.clear()
            random_product_process(rm, 64, seed=19, index=index)
            assert calls == [len(rm.group.states)] * rm.n
            calls.clear()
            random_product_process(rm, 64, seed=19, index=index, start=(0,) * rm.n)
            assert calls == []


def test_random_product_process_refuses_steps_past_the_bound_before_seeding(monkeypatch):
    """A direct call is bounded as absorb is: past BOUND_PRODUCT_STEPS it
    raises before any stream is seeded, where 2**40 steps could not finish."""
    with monkeypatch.context() as patched:
        patched.setattr(semigroup, "random", types.SimpleNamespace(Random=_refuse))
        for steps in (BOUND_PRODUCT_STEPS + 1, 2**40):
            message = f"random products: {steps} steps exceed the bound {BOUND_PRODUCT_STEPS}"
            with pytest.raises(BoundExceededError, match=message):
                random_product_process(BALANCED_RM, steps)
    run = random_product_process(BALANCED_RM, BOUND_PRODUCT_STEPS, seed=2)
    assert len(run.ranks) == BOUND_PRODUCT_STEPS and run.absorbed_at is not None


@pytest.mark.parametrize("m", range(1, 10))
def test_draw_below_reads_the_words_of_choice_and_randrange(m):
    for seed in range(200):
        bits, chooser, ranger = (random.Random(seed) for _ in range(3))
        for _ in range(40):
            drawn = semigroup._draw_below(bits.getrandbits, m)
            assert drawn == chooser.choice(range(m)) == ranger.randrange(m)
        assert bits.getstate() == chooser.getstate() == ranger.getstate()


def _assert_matches_the_oracle(rm, steps, **kwargs):
    run = random_product_process(rm, steps, **kwargs)
    oracle = _random_product_oracle(rm, steps, **kwargs)
    for field in dataclasses.fields(ProductTrajectory):
        assert getattr(run, field.name) == getattr(oracle, field.name), (steps, field.name)
    return run


def test_random_product_process_settles_k2_at_the_first_step():
    rm = _gauge_matrix(RelationGraph.complete([1, 2]), symmetric_group(3), random.Random(1).randrange)
    for index in range(4):
        first = random_product_process(rm, 1, seed=5, index=index).final_state
        for steps in range(1, 8):
            run = _assert_matches_the_oracle(rm, steps, seed=5, index=index)
            assert run.absorbed_at == 1
            assert run.final_state == (first if steps % 2 else run.start)


def test_random_product_process_draws_on_past_an_unsettled_rank_two():
    """On a triangle a rank-2 map is not constant on every neighborhood, so
    the product has not settled there and the draws go on."""
    through_two = 0
    for index in range(64):
        run = _assert_matches_the_oracle(BALANCED_RM, 24, seed=13, index=index)
        through_two += 2 in run.ranks and run.ranks[-1] == 1
    assert through_two > 16


def test_random_product_process_fills_the_settled_tail_of_a_bipartite_graph():
    """Settling on the last step, then one to four steps more: odd and even
    tails alternate the two maps of the settled period, and with them the
    final state."""
    rm = _gauge_matrix(
        RelationGraph.from_undirected(
            range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4)]
        ),
        symmetric_group(3),
        random.Random(3).randrange,
    )
    settled = set()
    for index in range(24):
        kwargs = dict(seed=21, index=index)
        at = _random_product_oracle(rm, 64, **kwargs).absorbed_at
        settled.add(at)
        finals = []
        for steps in range(at, at + 5):
            run = _assert_matches_the_oracle(rm, steps, **kwargs)
            assert run.absorbed_at == at
            assert run.ranks[at - 1:] == (2,) * (steps - at + 1)
            finals.append(run.final_state)
        assert finals[0::2] == finals[:1] * 3 and finals[1::2] == finals[1:2] * 2
    assert len(settled) > 3


class _CountedRandom(random.Random):
    calls = 0

    def getrandbits(self, k):
        _CountedRandom.calls += 1
        return super().getrandbits(k)


@pytest.mark.parametrize(
    "rm", [BALANCED_RM, SQUARE_RM, CHAIN_RM], ids=["triangle", "square", "chain"]
)
def test_random_product_process_stops_drawing_once_settled(monkeypatch, rm):
    monkeypatch.setattr(semigroup, "random", types.SimpleNamespace(Random=_CountedRandom))
    for index in range(8):
        calls = []
        for steps in (200, 2000):
            _CountedRandom.calls = 0
            run = random_product_process(rm, steps, seed=17, index=index)
            calls.append(_CountedRandom.calls)
            assert run.absorbed_at < 200
        assert calls[0] == calls[1] < 200 * rm.n


def test_random_product_process_needs_a_potential_matrix():
    with pytest.raises(NonPotentialError):
        random_product_process(_broken_triangle(), steps=5)
