"""Synchronous dynamics, the induced chain, the core and its characteristic."""

import collections
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import networkx as nx
import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balancenets import dynamics
from balancenets.cli import _exact_rows
from balancenets.config import BOUND_STATES, json_pieces
from balancenets.dynamics import (
    ChoiceDistribution,
    CoreSet,
    MarkovModel,
    TheoremBReport,
    _hits,
    _seeded_classes,
    _seeds,
    _successors,
    build_markov,
    core_set,
    essential_check,
    limit_exists,
    max_nonergodicity_scan,
    stationary_count,
    theoremB_verify,
)
from balancenets.errors import BoundExceededError, ValidationError
from balancenets.groups import (
    GroupElement,
    cyclic_group,
    orbit_count,
    pair_orbit_count,
    sign_group,
    solve_characteristic,
    solve_characteristic_pair,
    symmetric_group,
)
from balancenets.network import Marking, RelationGraph
from balancenets.potential import check_A1, check_A2
from balancenets.semigroup import _contracting_word

G2 = sign_group()


def _triangle(marks):
    graph = RelationGraph.complete([1, 2, 3])
    return Marking.from_names(graph, G2, marks, symmetric=True)


BALANCED = _triangle({(0, 1): "g", (0, 2): "g", (1, 2): "e"})
ONE_HOSTILE = _triangle({(0, 1): "e", (0, 2): "g", (1, 2): "e"})
ALL_G = _triangle({(0, 1): "g", (0, 2): "g", (1, 2): "g"})


def _square(marks):
    graph = RelationGraph.cycle([1, 2, 3, 4])
    return Marking.from_names(graph, G2, marks, symmetric=True)


ALL_E_SQUARE = _square({(0, 1): "e", (1, 2): "e", (2, 3): "e", (3, 0): "e"})


def _float_csr(model: MarkovModel) -> scipy.sparse.csr_array:
    """The float CSR the model once held, rebuilt from its integer parts,
    with the columns of each row in increasing order."""
    indptr, cols, nums, D = model._chain
    data = np.asarray(nums / D, dtype=np.float64)
    return scipy.sparse.csr_array((data, cols, indptr), shape=(model.size, model.size))


# The exact-row oracle: the whole chain read at once, as dicts of values,
# against which the row blocks that markov --exact writes are checked.
def _distinct(model: MarkovModel) -> tuple[np.ndarray, np.ndarray]:
    """Distinct numerators, and each nonzero's position among them."""
    return np.unique(model._chain[2], return_inverse=True)


def _chain_fractions(model: MarkovModel) -> list[Fraction]:
    """Each distinct probability once, in increasing order."""
    D = model._chain[3]
    return [Fraction(a, D) for a in _distinct(model)[0].tolist()]


def _chain_rows(model: MarkovModel, values: list) -> list[dict[int, object]]:
    """Row r as {c: values[i]} over its nonzeros (r, c), where i is the
    position of the nonzero's probability in ``_chain_fractions``."""
    indptr, cols, _, _ = model._chain
    keys = cols.tolist()
    picked = np.asarray(values, dtype=object)[_distinct(model)[1]].tolist()
    bounds = indptr.tolist()
    return [dict(zip(keys[a:b], picked[a:b])) for a, b in zip(bounds, bounds[1:])]


# Oracles for core_set: the one-step image scan over every joint state, and
# the read of single-successor chain rows that core_set made before it
# walked the marks.
def state_space(marking, bound=BOUND_STATES):
    """All joint states as tuples of state indices, node-major lexicographic."""
    return tuple(map(tuple, build_markov(marking, bound=bound).states.tolist()))


def apply_F(marking, x):
    """Set of joint states reachable in one synchronous step from x."""
    graph = marking.graph
    options = []
    for i in range(len(graph)):
        seen = {marking.mark(i, j)(x[j]) for j in graph.neighbors(i)}
        options.append(sorted(seen))
    return frozenset(itertools.product(*options))


def _closed_form_state(
    transport: dict[int, GroupElement],
    components: tuple[frozenset[int], ...],
    params: tuple[int, ...],
) -> tuple[int, ...]:
    """Core state whose free state on component c is params[c]."""
    x = {j: transport[j](t) for comp, t in zip(components, params) for j in comp}
    return tuple(x[j] for j in range(len(x)))


def _chain_core_set(model: MarkovModel) -> dict:
    """Read the single-image states off the model and reconcile with the
    closed form: what core_set should report, field by field.  The parts
    are the two-step components of check_A1 when A1 holds, else the sides
    of the bipartition, or all nodes."""
    marking = model.marking
    m = _float_csr(model)
    single = np.flatnonzero(np.diff(m.indptr) == 1)
    found = frozenset(map(tuple, model.states[single].tolist()))
    closed = bool(np.isin(m.indices[m.indptr[single]], single).all())

    a1 = check_A1(marking)
    a2 = check_A2(marking)
    parts = marking.graph.parts or (frozenset(range(len(marking.graph))),)
    transport = None
    matches = None
    if a1.ok:
        transport = {
            j: u.inverse() for pot in a1.potentials for j, u in pot.values.items()
        }
        parts = tuple(frozenset(pot.values) for pot in a1.potentials)
    if a1.ok and a2 is not None:
        k = len(marking.group.states)
        closed_form = frozenset(
            _closed_form_state(transport, parts, params)
            for params in itertools.product(range(k), repeat=len(parts))
        )
        matches = closed_form == found
    return {
        "states": found,
        "closed": closed,
        "a1_ok": a1.ok,
        "a2_ok": a2 is not None,
        "matches_closed_form": matches,
        "transport": transport,
        "parts": parts,
        "characteristic": a2,
    }


def _core_fields(core: CoreSet) -> dict:
    """The fields _chain_core_set predicts, read off a CoreSet."""
    return {
        "states": core.states,
        "closed": core.closed,
        "a1_ok": core.a1_ok,
        "a2_ok": core.a2_ok,
        "matches_closed_form": core.matches_closed_form,
        "transport": core.transport,
        "parts": core.parts,
        "characteristic": core.characteristic,
    }


def test_state_space_enumeration():
    states = state_space(BALANCED)
    assert len(states) == 8
    assert states[0] == (0, 0, 0)
    assert states[-1] == (1, 1, 1)
    with pytest.raises(BoundExceededError):
        state_space(BALANCED, bound=4)


def test_apply_F_on_the_oscillating_pair():
    # With one hostile edge the alternating states swap with probability one.
    assert apply_F(ONE_HOSTILE, (0, 1, 0)) == frozenset({(1, 0, 1)})
    assert apply_F(ONE_HOSTILE, (1, 0, 1)) == frozenset({(0, 1, 0)})
    # Elsewhere the image has several options.
    assert len(apply_F(ONE_HOSTILE, (0, 0, 0))) > 1


def test_apply_F_fixes_the_balanced_core():
    assert apply_F(BALANCED, (0, 1, 1)) == frozenset({(0, 1, 1)})
    assert apply_F(BALANCED, (1, 0, 0)) == frozenset({(1, 0, 0)})


def test_choice_distribution_validation():
    graph = BALANCED.graph
    uniform = ChoiceDistribution.uniform(graph)
    assert uniform.prob(0, 1) == Fraction(1, 2)
    with pytest.raises(ValidationError):
        ChoiceDistribution(graph, {(0, 1): Fraction(1)})  # misses neighbors
    weights = {e: Fraction(1) for e in graph.directed_edges}
    weights[(0, 1)] = Fraction(0)
    with pytest.raises(ValidationError):
        ChoiceDistribution(graph, weights)


def test_the_uniform_choice_law_is_built_by_the_first_chain_read(monkeypatch):
    built = []
    uniform = ChoiceDistribution.uniform.__func__
    monkeypatch.setattr(
        ChoiceDistribution, "uniform",
        classmethod(lambda cls, graph: built.append(graph) or uniform(cls, graph)),
    )
    model = build_markov(BALANCED)
    # Closed classes read no choice law.
    assert stationary_count(model) == 2 and limit_exists(model)
    assert built == []
    model.support
    assert built == [BALANCED.graph]
    _chain_fractions(model)  # reads the same assembly
    assert built == [BALANCED.graph]


def test_build_markov_rows_are_probabilities():
    model = build_markov(BALANCED)
    m = _float_csr(model)
    assert m.shape == (8, 8)
    assert all(abs(row.sum() - 1.0) < 1e-12 for row in m)
    assert all(sum(row.values()) == 1 for row in _chain_rows(model, _chain_fractions(model)))


def test_transition_row_matches_simulation():
    model = build_markov(BALANCED)
    x = (0, 0, 0)
    row = _float_csr(model)[model.index(x)]
    rng = random.Random(20240817)
    trials = 20000
    counts = collections.Counter()
    for _ in range(trials):
        nxt = tuple(
            BALANCED.mark(i, j)(x[j])
            for i in range(3)
            for j in [rng.choice(BALANCED.graph.neighbors(i))]
        )
        counts[nxt] += 1
    for y, hits in counts.items():
        p = row[model.index(y)]
        assert p > 0
        sigma = math.sqrt(p * (1.0 - p) / trials)
        assert abs(hits / trials - p) <= 4.0 * sigma + 1e-9


def test_stationary_counts_and_limits():
    balanced = build_markov(BALANCED)
    assert stationary_count(balanced) == 2
    assert limit_exists(balanced)

    hostile = build_markov(ONE_HOSTILE)
    assert stationary_count(hostile) == 1
    assert not limit_exists(hostile)

    allg = build_markov(ALL_G)
    assert stationary_count(allg) == 1
    assert not limit_exists(allg)


def test_recurrent_classes_of_the_balanced_chain():
    model = build_markov(BALANCED)
    classes = model.recurrent_classes()
    assert [sorted(c) for c in classes] == [[(0, 1, 1)], [(1, 0, 0)]]


def test_essential_check():
    model = build_markov(BALANCED)
    assert essential_check(model, frozenset({(0, 1, 1), (1, 0, 0)}))
    # A non-closed singleton is not essential.
    assert not essential_check(model, frozenset({(0, 0, 0)}))
    assert not essential_check(model, frozenset())


def test_core_set_balanced():
    core = core_set(BALANCED)
    assert core.states == frozenset({(0, 1, 1), (1, 0, 0)})
    assert core.closed
    assert core.a1_ok and core.a2_ok
    assert core.parts == (frozenset({0, 1, 2}),)
    assert core.matches_closed_form
    # The transport of the root parameter reproduces each member.
    t0 = core.transport[0]
    assert all(x == tuple(core.transport[j](t0.perm.index(x[0]))
                          for j in range(3))
               for x in core.states)


def test_core_set_oscillating():
    core = core_set(ONE_HOSTILE)
    assert core.states == frozenset({(0, 1, 0), (1, 0, 1)})
    assert core.closed
    assert core.matches_closed_form


def test_core_set_square_is_bipartite():
    core = core_set(ALL_E_SQUARE)
    assert core.parts == (frozenset({0, 2}), frozenset({1, 3}))
    # Two free parameters, one per part: all states constant on each part.
    assert core.states == frozenset(
        {(t, r, t, r) for t in range(2) for r in range(2)}
    )
    assert core.matches_closed_form


SMALL_GRAPHS = (
    RelationGraph.complete([1, 2]),
    RelationGraph.complete([1, 2, 3]),
    RelationGraph.cycle([1, 2, 3, 4]),
    RelationGraph.from_undirected([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)]),
    RelationGraph.from_undirected(
        [1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]
    ),
    RelationGraph.cycle([1, 2, 3, 4, 5]),
    RelationGraph.from_undirected(
        [1, 2, 3, 4, 5], [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3)]
    ),
)
GROUPS = (G2, cyclic_group(4), symmetric_group(3))


@st.composite
def _markings_with_choice(draw):
    graph = draw(st.sampled_from(SMALL_GRAPHS))
    group = draw(st.sampled_from(GROUPS))
    pick = st.integers(0, len(group) - 1).map(group.element)
    if draw(st.booleans()):
        # A gauge marking g(i, j) = s_i^-1 * s_j, which is potential.
        gauge = [draw(pick) for _ in range(len(graph))]
        values = {(i, j): gauge[i].inverse() * gauge[j] for i, j in graph.directed_edges}
    else:
        values = {edge: draw(pick) for edge in graph.directed_edges}
    choice = None
    if draw(st.booleans()):
        weight = st.integers(1, 5)
        weights = {
            i: {j: draw(weight) for j in graph.neighbors(i)} for i in range(len(graph))
        }
        choice = ChoiceDistribution(graph, weights)
    return Marking(graph, group, values), choice


@settings(max_examples=60, deadline=None)
@given(_markings_with_choice())
def test_core_set_matches_the_apply_F_scan(case):
    marking, choice = case
    scan = frozenset(x for x in state_space(marking) if len(apply_F(marking, x)) == 1)
    core = core_set(marking)
    assert core.states == scan
    assert core.closed == all(next(iter(apply_F(marking, x))) in scan for x in scan)
    want = _chain_core_set(build_markov(marking, choice))
    assert _core_fields(core) == want
    # One state more or less is a different core.
    assert _core_fields(core) != {**want, "states": want["states"] ^ {state_space(marking)[0]}}


def _fraction_rows(marking, choice=None):
    """The one-step law built state by state in Fractions: the oracle rows."""
    graph = marking.graph
    if choice is None:
        choice = ChoiceDistribution.uniform(graph)
    k = len(marking.group.states)
    states = list(itertools.product(range(k), repeat=len(graph)))
    index = {x: i for i, x in enumerate(states)}
    rows = []
    for x in states:
        row_probs = {(): Fraction(1)}
        for i in range(len(graph)):
            dist = {}
            for j in graph.neighbors(i):
                s = marking.mark(i, j)(x[j])
                dist[s] = dist.get(s, Fraction(0)) + choice.prob(i, j)
            row_probs = {
                prefix + (s,): p * q
                for prefix, p in row_probs.items()
                for s, q in dist.items()
            }
        rows.append({index[y]: p for y, p in row_probs.items()})
    return rows


def _support_digraph(rows):
    g = nx.DiGraph()
    g.add_nodes_from(range(len(rows)))
    g.add_edges_from((r, c) for r, row in enumerate(rows) for c in row)
    return g


def _closed_classes(g):
    cond = nx.condensation(g)
    sinks = [frozenset(cond.nodes[c]["members"]) for c in cond if cond.out_degree(c) == 0]
    return sorted(sinks, key=min)


def _essential_walk(g, core_idx):
    """Closed under successors and reached from every state by a reverse walk."""
    if not core_idx or any(t not in core_idx for i in core_idx for t in g.successors(i)):
        return False
    reached = set(core_idx)
    stack = list(core_idx)
    while stack:
        for p in g.predecessors(stack.pop()):
            if p not in reached:
                reached.add(p)
                stack.append(p)
    return len(reached) == len(g)


def _assert_matches_oracle(model, rows):
    assert _chain_rows(model, _chain_fractions(model)) == rows
    m = _float_csr(model)
    for r, row in enumerate(rows):
        cols = sorted(row)
        lo, hi = m.indptr[r], m.indptr[r + 1]
        assert m.indices[lo:hi].tolist() == cols
        assert m.data[lo:hi].tolist() == [float(row[c]) for c in cols]


@settings(max_examples=60, deadline=None)
@given(_markings_with_choice(), st.data())
def test_sparse_markov_layer_matches_the_fraction_oracle(case, data):
    marking, choice = case
    rows = _fraction_rows(marking, choice)
    model = build_markov(marking, choice)
    k = len(marking.group.states)
    states = list(map(tuple, model.states.tolist()))
    assert states == list(itertools.product(range(k), repeat=len(marking.graph)))
    _assert_matches_oracle(model, rows)

    g = _support_digraph(rows)
    closed = _closed_classes(g)
    assert list(model.recurrent_class_indices()) == closed
    assert limit_exists(model) == all(nx.is_aperiodic(g.subgraph(c)) for c in closed)

    drawn = data.draw(st.sets(st.sampled_from(states), max_size=8))
    candidates = [
        core_set(marking).states,
        frozenset().union(*model.recurrent_classes()),
        model.recurrent_classes()[0],
        frozenset(drawn),
        frozenset(states),
    ]
    for core in candidates:
        core_idx = {model.index(x) for x in core}
        assert essential_check(model, core) == _essential_walk(g, core_idx)


# Oracles for the seeded classes: the closed classes and the periodicity
# test that read the assembled chain, verbatim from before the classes were
# searched from the marks.
def _csr_recurrent_class_indices(model: MarkovModel) -> tuple[frozenset[int], ...]:
    """Closed communicating classes as row indices, sorted by smallest.

    A strong component is closed when none of its members has an edge
    leaving it.
    """
    from scipy.sparse.csgraph import connected_components

    m = _float_csr(model)
    count, labels = connected_components(m, directed=True, connection="strong")
    sources = labels[np.repeat(np.arange(len(model.states)), np.diff(m.indptr))]
    leaves = np.zeros(count, dtype=bool)
    leaves[sources[sources != labels[m.indices]]] = True
    members = np.flatnonzero(~leaves[labels])
    members = members[np.argsort(labels[members], kind="stable")]
    cuts = np.flatnonzero(np.diff(labels[members])) + 1
    classes = (frozenset(c.tolist()) for c in np.split(members, cuts))
    return tuple(sorted(classes, key=min))


def _csr_limit_exists(model: MarkovModel) -> bool:
    """True when P**t converges: every closed class must be aperiodic.

    The period of a closed class is the gcd of level[u] + 1 - level[v] over
    its edges (u, v), with level the breadth-first distance from one member.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import shortest_path

    m = _float_csr(model)
    position = np.zeros(len(model.states), dtype=np.int64)
    for cls in _csr_recurrent_class_indices(model):
        members = np.array(sorted(cls))
        position[members] = np.arange(len(members))
        # A closed class keeps every edge of its members inside it.
        out = m[members]
        inner = csr_array(
            (out.data, position[out.indices], out.indptr), shape=(len(members),) * 2
        )
        level = shortest_path(inner, unweighted=True, indices=0).astype(np.int64)
        u = np.repeat(np.arange(len(members)), np.diff(out.indptr))
        if np.gcd.reduce(level[u] + 1 - level[inner.indices]) != 1:
            return False
    return True


def _assert_seeded_classes_match_the_oracles(model, rows=None):
    seeded = model.recurrent_class_indices()
    closed = _csr_recurrent_class_indices(model)
    assert seeded == closed
    if rows is not None:
        assert list(seeded) == _closed_classes(_support_digraph(rows))
    assert [len(c) for c in seeded] == [len(c) for c in closed]
    assert limit_exists(model) == _csr_limit_exists(model)
    # The seeds are the image of a minimum-rank word: k or k**2 states, each
    # in a closed class.
    k = len(model.marking.group.states)
    seeds = _seeds(model.marking)
    assert len(set(seeds)) == k ** (1 if model.marking.graph.parts is None else 2)
    assert all(any(s in c for c in closed) for s in seeds)


@settings(max_examples=100, deadline=None)
@given(_markings_with_choice())
def test_seeded_classes_match_the_chain_and_the_condensation(case):
    marking, choice = case
    model = build_markov(marking, choice)
    _assert_seeded_classes_match_the_oracles(model, _fraction_rows(marking, choice))


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("hostile", ["one", "all"])
def test_seeded_classes_of_frustrated_complete_graphs(n, hostile):
    graph = RelationGraph.complete(list(range(n)))
    marks = {
        edge: "g" if hostile == "all" or edge == (0, 1) else "e"
        for edge in graph.undirected_edges
    }
    model = build_markov(Marking.from_names(graph, G2, marks, symmetric=True))
    _assert_seeded_classes_match_the_oracles(model)


@settings(max_examples=100, deadline=None)
@given(_markings_with_choice(), st.data())
def test_hits_are_the_union_of_the_boolean_expansion(case, data):
    marking, _ = case
    size = len(marking.group.states) ** len(marking.graph)
    codes = np.array(data.draw(st.lists(st.integers(0, size - 1), min_size=1, unique=True)))
    weights = [dict.fromkeys(marking.graph.neighbors(i), True) for i in range(len(marking.graph))]
    want = np.zeros(size, dtype=bool)
    want[_successors(marking, codes, weights, bool)[1]] = True
    # One row per block, a few rows per block, and every row in one block.
    cells = data.draw(st.sampled_from([1, 3 * size, dynamics._MASK_CELLS]))
    with mock.patch.object(dynamics, "_MASK_CELLS", cells):
        assert (_hits(marking, codes) == want).all()


@pytest.mark.parametrize("n", [11, 12])
def test_frustrated_complete_graphs_are_one_aperiodic_class(n):
    graph = RelationGraph.complete(list(range(n)))
    marks = {edge: "g" if edge == (0, 1) else "e" for edge in graph.undirected_edges}
    marking = Marking.from_names(graph, G2, marks, symmetric=True)
    tracemalloc.start()
    try:
        classes, periods = _seeded_classes(marking)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert classes == (frozenset(range(2 ** n)),)
    assert periods == (1,)
    # The boolean expansion peaked at 140 MB on K12.
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("n", [9, 10])
def test_seeds_of_complete_graphs_have_rank_one(n):
    # Composed first factor first, the word's map on K9 has rank 2.
    graph = RelationGraph.complete(list(range(n)))
    marks = {edge: "g" if edge == (0, 1) else "e" for edge in graph.undirected_edges}
    assert len(set(_seeds(Marking.from_names(graph, G2, marks, symmetric=True)))) == 2


# Oracle for _seeds: the contracting word composed a second time, in numpy,
# as _seeds did before it read the semigroup's word operator.
def _numpy_seeds(marking):
    """Row codes of the image of the contracting word's map on joint states.

    A control c acts as y_i = g(i, c_i)(x_{c_i}), and the word's last factor
    acts first, so the composite reads node p[i] through h[i].
    """
    graph = marking.graph
    n, k = len(graph), len(marking.group.states)
    p, h = np.arange(n), np.tile(np.arange(k), (n, 1))
    for cm in reversed(_contracting_word(graph)):
        c = np.array(cm.rowmap)
        marks = np.array([marking.mark(i, j).perm for i, j in enumerate(cm.rowmap)])
        p, h = p[c], np.take_along_axis(marks, h[c], axis=1)
    image, column = np.unique(p, return_inverse=True)
    free = np.indices((k,) * len(image)).reshape(len(image), -1).T
    return h[np.arange(n), free[:, column]] @ k ** np.arange(n - 1, -1, -1)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SMALL_GRAPHS), st.sampled_from(GROUPS), st.data())
def test_seeds_match_the_numpy_composition_in_order(graph, group, data):
    # Random marks, mostly frustrated: the seeds read only the edge marks.
    pick = st.integers(0, len(group) - 1).map(group.element)
    marking = Marking(graph, group, {edge: data.draw(pick) for edge in graph.directed_edges})
    assert _seeds(marking) == _numpy_seeds(marking).tolist()


def test_periods_are_the_cycle_lengths_of_a_deterministic_map():
    # On K2 with both marks the rotation r of C3, (a, b) steps to
    # (r(b), r(a)): the diagonal is a 3-cycle and the rest one 6-cycle.
    group = cyclic_group(3)
    r = group.element(1)
    marking = Marking(RelationGraph.complete([1, 2]), group, {(0, 1): r, (1, 0): r})
    model = build_markov(marking)
    assert _seeded_classes(marking) == (
        (frozenset({0, 4, 8}), frozenset({1, 2, 3, 5, 6, 7})),
        (3, 6),
    )
    assert not limit_exists(model)
    assert model.recurrent_class_indices() == _csr_recurrent_class_indices(model)


def test_seeded_classes_past_the_state_bound():
    # The gauge C14 of test_core_and_theoremB_past_the_state_bound: two
    # consensus states and one alternating pair, found without the chain.
    graph = RelationGraph.cycle(list(range(14)))
    gauge = [G2.element(i % 3 % 2) for i in range(14)]
    values = {(i, j): gauge[i].inverse() * gauge[j] for i, j in graph.directed_edges}
    marking = Marking(graph, G2, values)
    with pytest.raises(BoundExceededError):
        build_markov(marking)
    model = build_markov(marking, bound=2 ** 14)
    assert sorted(len(c) for c in model.recurrent_classes()) == [1, 1, 2]
    assert stationary_count(model) == 3
    assert not limit_exists(model)
    assert frozenset().union(*model.recurrent_classes()) == core_set(marking).states


def test_build_markov_assembles_values_only_when_asked(monkeypatch):
    import balancenets.dynamics as dynamics

    assembled = []
    real = dynamics._assemble
    monkeypatch.setattr(dynamics, "_assemble", lambda *args: assembled.append(args) or real(*args))
    # ALL_E_SQUARE's probabilities are multiples of 1/16, so 16 values
    # cover every distinct one.
    views = {
        "support": lambda m: len(m.support) == 16,
        "fractions": lambda m: sum(_chain_fractions(m)) > 0,
        "rows": lambda m: len(_chain_rows(m, [None] * 16)) == 16,
    }
    for first in views:
        assembled.clear()
        model = build_markov(ALL_E_SQUARE)
        assert stationary_count(model) == 3 and not limit_exists(model)
        assert len(model.recurrent_classes()) == 3 and len(model.states) == 16
        assert assembled == []
        assert views[first](model)
        assert len(assembled) == 1
        assert all(read(model) for read in views.values())
        assert essential_check(model, frozenset().union(*model.recurrent_classes()))
        assert len(assembled) == 1


def test_exact_rows_hold_one_fraction_per_distinct_value():
    graph = BALANCED.graph
    choice = ChoiceDistribution(graph, {0: {1: 1, 2: 2}, 1: {0: 1, 2: 3}, 2: {0: 1, 1: 1}})
    model = build_markov(BALANCED, choice)
    fractions = _chain_fractions(model)
    assert fractions == sorted(set(fractions))
    rows = _chain_rows(model, fractions)
    values = [p for row in rows for p in row.values()]
    assert {id(p) for p in values} == {id(p) for p in fractions}
    assert rows == _fraction_rows(BALANCED, choice)


@pytest.mark.parametrize(
    "marking",
    [
        BALANCED,
        ALL_E_SQUARE,
        Marking.constant(RelationGraph.cycle([1, 2, 3, 4]), symmetric_group(3).identity),
    ],
    ids=["triangle", "square", "square-s3"],
)
def test_index_is_the_row_of_a_state_and_rejects_non_states(marking):
    model = build_markov(marking)
    n = len(marking.graph)
    k = len(marking.group.states)
    assert model.states.shape == (k ** n, n)
    for r, row in enumerate(model.states.tolist()):
        assert model.index(tuple(row)) == r
    for bad in [(k,) + (0,) * (n - 1), (0,) * (n - 1) + (-1,), (0,) * (n - 1), (0,) * (n + 1)]:
        with pytest.raises(ValueError):
            model.index(bad)


def _past_int64():
    """A marking and a choice law whose common denominator D is past 2**63."""
    graph = RelationGraph.complete([1, 2, 3])
    marking = Marking.from_names(
        graph, symmetric_group(3), {(0, 1): "s102", (0, 2): "s021", (1, 2): "e"},
        symmetric=True,
    )
    # Node i weighs its neighbors 1 : 2**22 + i, so D = prod(2**22 + i + 1).
    weights = {
        i: {j: 1 if j == min(graph.neighbors(i)) else 2 ** 22 + i
            for j in graph.neighbors(i)}
        for i in range(3)
    }
    return marking, ChoiceDistribution(graph, weights)


def test_denominators_past_int64_fall_back_to_python_ints():
    marking, choice = _past_int64()
    assert math.prod(choice.integer_weights(i)[0] for i in range(3)) > 2 ** 63
    model = build_markov(marking, choice)
    _assert_matches_oracle(model, _fraction_rows(marking, choice))
    uniform = build_markov(marking)
    assert model.recurrent_class_indices() == uniform.recurrent_class_indices()
    assert limit_exists(model) == limit_exists(uniform)


@settings(max_examples=40, deadline=None)
@given(_markings_with_choice())
@example(_past_int64())
def test_streamed_exact_rows_are_the_text_of_the_chain_oracle(case):
    marking, choice = case
    model = build_markov(marking, choice)
    want = "".join(json_pieces(_chain_rows(model, [str(p) for p in _chain_fractions(model)]), 1))
    # One row a block, blocks that divide no k**n, and the default.
    for rows_per_block in (1, 5, dynamics._BLOCK_ROWS):
        with mock.patch.object(dynamics, "_BLOCK_ROWS", rows_per_block):
            assert "".join(json_pieces(_exact_rows(model), 1)) == want
            split = build_markov(marking, choice)._chain
        assert all(np.array_equal(a, b) for a, b in zip(split, model._chain))


def test_build_markov_at_the_state_bound_stays_sparse():
    graph = RelationGraph.cycle(list(range(12)))
    marking = Marking.from_names(
        graph, G2, {(i, (i + 1) % 12): "e" for i in range(12)}, symmetric=True
    )
    started = time.perf_counter()
    model = build_markov(marking)
    classes = model.recurrent_classes()
    converges = limit_exists(model)
    elapsed = time.perf_counter() - started
    assert len(model.states) == BOUND_STATES
    assert scipy.sparse.issparse(_float_csr(model))
    # Bipartite closed form: two consensus states and the alternating pair.
    assert classes == (
        frozenset({(0,) * 12}),
        frozenset({(0, 1) * 6, (1, 0) * 6}),
        frozenset({(1,) * 12}),
    )
    assert not converges
    assert elapsed < 1.0


def test_theoremB_non_bipartite():
    report = theoremB_verify(BALANCED)
    assert report.ok
    assert not report.bipartite
    assert report.core_matches
    assert report.realized[0].is_identity
    assert {s.name for s in report.solutions} == {"e", "g"}
    assert report.realized_is_solution
    assert report.second_step_matches
    assert report.best_solution.name == "e"
    assert report.predicted_stationary == 2
    assert report.predicted_stationary == stationary_count(build_markov(BALANCED))


def test_theoremB_predicts_the_oscillating_count():
    report = theoremB_verify(ONE_HOSTILE)
    assert report.ok
    assert report.realized[0].name == "g"
    assert report.predicted_stationary == 1
    assert report.predicted_stationary == stationary_count(build_markov(ONE_HOSTILE))


def test_theoremB_bipartite_square():
    report = theoremB_verify(ALL_E_SQUARE)
    assert report.ok
    assert report.bipartite
    v, w = report.realized
    assert v.is_identity and w.is_identity
    assert report.realized_is_solution
    assert report.second_step_matches
    assert report.predicted_stationary == 3
    assert report.predicted_stationary == stationary_count(
        build_markov(ALL_E_SQUARE)
    )


def test_theoremB_reports_failed_criteria():
    bad_square = _square({(0, 1): "g", (1, 2): "e", (2, 3): "e", (3, 0): "e"})
    report = theoremB_verify(bad_square)
    assert not report.ok
    assert not report.a1_ok


@pytest.mark.parametrize(
    "marking,ok",
    [(BALANCED, True), (ONE_HOSTILE, True), (ALL_E_SQUARE, True),
     (_square({(0, 1): "g", (1, 2): "e", (2, 3): "e", (3, 0): "e"}), False)],
)
def test_theoremB_never_builds_the_core_states(monkeypatch, marking, ok):
    # Only states and closed walk the product of the walks, k**parts states.
    def refuse(self):
        raise AssertionError("the core states were built")

    monkeypatch.setattr(CoreSet, "_pairs", refuse)
    assert theoremB_verify(marking).ok is ok


# The two-branch replay theoremB_verify had before its one loop over the
# core parameters, and its failure report, verbatim: the oracle for its
# reports.
def _fail_report(bip: bool, a1: bool, a2: bool) -> TheoremBReport:
    return TheoremBReport(
        ok=False,
        bipartite=bip,
        a1_ok=a1,
        a2_ok=a2,
        core_matches=False,
        characteristic=None,
        realized=None,
        solutions=(),
        realized_is_solution=None,
        second_step_matches=None,
        best_solution=None,
        predicted_stationary=None,
    )


def _theoremB_oracle(model: MarkovModel) -> TheoremBReport:
    """Check that the one-step map on the core is a characteristic solution.

    Non-bipartite: the core is z(t) and one step sends z(t) to z(b t) where
    b solves v*v = a_root.  Bipartite: the core is z(t, r) and one step
    sends it to z(v r, w t) where v*w = a_1 and w*v = a_2 for the two
    component roots.  The map is recovered by replaying one step of the
    model from each core state, then matched against the solution list.
    """
    core = _chain_core_set(model)
    group = model.marking.group
    bip = model.marking.graph.parts is not None
    if not core["a1_ok"] or not core["a2_ok"]:
        return _fail_report(bip, core["a1_ok"], core["a2_ok"])
    if not core["matches_closed_form"]:
        return _fail_report(bip, True, True)

    a2 = core["characteristic"]
    roots = [min(comp) for comp in core["parts"]]
    k = len(group.states)

    def z(params: tuple[int, ...]) -> tuple[int, ...]:
        return _closed_form_state(core["transport"], core["parts"], params)

    m = _float_csr(model)

    def successor(x: tuple[int, ...]) -> tuple[int, ...]:
        # Core states have exactly one successor.
        return tuple(model.states[m.indices[m.indptr[model.index(x)]]].tolist())

    if not bip:
        a_root = a2.values[roots[0]]
        step = []
        for t in range(k):
            y = successor(z((t,)))
            if y != z((y[roots[0]],)):
                return _fail_report(bip, True, True)
            step.append(y[roots[0]])
        if sorted(step) != list(range(k)):
            return _fail_report(bip, True, True)
        try:
            realized = group.element_by_perm(tuple(step))
        except ValidationError:
            return _fail_report(bip, True, True)
        solutions = tuple(solve_characteristic(group, a_root))
        second = all(step[step[t]] == a_root(t) for t in range(k))
        report_ok = realized in solutions and second
        return TheoremBReport(
            ok=report_ok,
            bipartite=False,
            a1_ok=True,
            a2_ok=True,
            core_matches=True,
            characteristic=a2.values,
            realized=(realized,),
            solutions=solutions,
            realized_is_solution=realized in solutions,
            second_step_matches=second,
            best_solution=solutions[0] if solutions else None,
            predicted_stationary=orbit_count(realized),
        )

    # Bipartite: recover the pair (v, w) from the replayed two-step shift.
    r1, r2 = roots
    a_1, a_2 = a2.values[r1], a2.values[r2]
    v_perm = [None] * k
    w_perm = [None] * k
    for t in range(k):
        for r in range(k):
            y = successor(z((t, r)))
            t2, r2_val = y[r1], y[r2]
            if y != z((t2, r2_val)):
                return _fail_report(bip, True, True)
            if v_perm[r] is None:
                v_perm[r] = t2
            elif v_perm[r] != t2:
                return _fail_report(bip, True, True)
            if w_perm[t] is None:
                w_perm[t] = r2_val
            elif w_perm[t] != r2_val:
                return _fail_report(bip, True, True)
    try:
        v = group.element_by_perm(tuple(v_perm))
        w = group.element_by_perm(tuple(w_perm))
    except ValidationError:
        return _fail_report(bip, True, True)
    solutions = tuple(solve_characteristic_pair(group, a_1, a_2))
    second = (v * w) == a_1 and (w * v) == a_2
    report_ok = (v, w) in solutions and second
    return TheoremBReport(
        ok=report_ok,
        bipartite=True,
        a1_ok=True,
        a2_ok=True,
        core_matches=True,
        characteristic=a2.values,
        realized=(v, w),
        solutions=solutions,
        realized_is_solution=(v, w) in solutions,
        second_step_matches=second,
        best_solution=solutions[0] if solutions else None,
        predicted_stationary=pair_orbit_count(v, w),
    )


@st.composite
def _theoremB_models(draw):
    """Models of gauge, A2-symmetric and random markings."""
    graph = draw(st.sampled_from(SMALL_GRAPHS))
    group = draw(st.sampled_from(GROUPS))
    pick = st.integers(0, len(group) - 1).map(group.element)
    kind = draw(st.sampled_from(["gauge", "a2-symmetric", "random"]))
    if kind == "random":
        values = {edge: draw(pick) for edge in graph.directed_edges}
    else:
        # g(i, j) = s_i^-1 * b * s_j: round trips s_i^-1 * b * b * s_i at i,
        # whichever the neighbor, so A2 holds; b = e is a gauge marking.
        gauge = [draw(pick) for _ in range(len(graph))]
        b = group.identity if kind == "gauge" else draw(pick)
        values = {(i, j): gauge[i].inverse() * b * gauge[j] for i, j in graph.directed_edges}
    return build_markov(Marking(graph, group, values))


@settings(max_examples=150, deadline=None)
@given(_theoremB_models())
def test_theoremB_verify_matches_the_two_branch_replay(model):
    assert theoremB_verify(model.marking) == _theoremB_oracle(model)


@settings(max_examples=150, deadline=None)
@given(_theoremB_models())
def test_core_set_reads_A1_and_the_closed_form_off_its_walks(model):
    # The star-marking walk of check_A1 and the closed-form product are
    # the oracles for what core_set reads off its double-cover walks.
    marking = model.marking
    core = core_set(marking)
    a1 = check_A1(marking)
    assert core.a1_ok == a1.ok
    if not a1.ok:
        return
    assert core.transport == {
        j: u.inverse() for pot in a1.potentials for j, u in pot.values.items()
    }
    assert core.parts == tuple(frozenset(pot.values) for pot in a1.potentials)
    if core.a2_ok:
        k = len(marking.group.states)
        assert core.states == frozenset(
            _closed_form_state(core.transport, core.parts, params)
            for params in itertools.product(range(k), repeat=len(core.parts))
        )


@settings(max_examples=60, deadline=None)
@given(_markings_with_choice())
def test_theoremB_predicts_the_stationary_count(case):
    marking, choice = case
    report = theoremB_verify(marking)
    if report.ok:
        assert report.predicted_stationary == stationary_count(build_markov(marking, choice))


@settings(max_examples=60, deadline=None)
@given(_markings_with_choice())
def test_limit_exists_exactly_when_the_realized_map_fixes_every_parameter(case):
    # When Theorem B holds, the closed classes are the orbits of the realized
    # map on the core's parameters, so the chain converges exactly when that
    # map fixes every parameter: each t, or each pair (x, y), which steps to
    # (v(y), w(x)) on a bipartite graph.
    marking, choice = case
    report = theoremB_verify(marking)
    if not report.ok:
        return
    states = range(len(marking.group.states))
    if report.bipartite:
        v, w = report.realized
        fixed = all((v(y), w(x)) == (x, y) for x in states for y in states)
    else:
        fixed = all(report.realized[0](t) == t for t in states)
    assert limit_exists(build_markov(marking, choice)) == fixed


def test_core_and_theoremB_past_the_state_bound():
    # A gauge C14 over the sign group: 2**14 joint states, above the bound
    # a chain may have, but the core needs none.
    graph = RelationGraph.cycle(list(range(14)))
    gauge = [G2.element(i % 3 % 2) for i in range(14)]
    values = {(i, j): gauge[i].inverse() * gauge[j] for i, j in graph.directed_edges}
    marking = Marking(graph, G2, values)
    assert 2 ** 14 > BOUND_STATES
    core = core_set(marking)
    assert len(core.states) == 4
    assert core.closed and core.matches_closed_form
    report = theoremB_verify(marking)
    assert report.ok and report.bipartite
    assert report.predicted_stationary == 3


def test_max_nonergodicity_scan_triangle():
    graph = RelationGraph.complete([1, 2, 3])
    result = max_nonergodicity_scan(graph, G2)
    assert result.total_scanned == 8
    assert result.best_count == 2
    assert len(result.argmax) == 4
    # Exactly the potential markings reach the maximum.
    from balancenets.potential import is_potential

    assert all(is_potential(m).ok for m in result.argmax)


def test_max_nonergodicity_scan_caps_enumeration():
    graph = RelationGraph.complete([1, 2, 3])
    with pytest.raises(BoundExceededError):
        max_nonergodicity_scan(graph, G2, max_fields=4)


def test_max_nonergodicity_scan_writes_a_huge_count_as_a_power():
    # K76 has 5700 directed edges; 6**5700 has more digits than Python
    # writes out from an int.
    graph = RelationGraph.complete(list(range(76)))
    message = r"^scan would enumerate 6\*\*5700 markings, above the cap 65536$"
    with pytest.raises(BoundExceededError, match=message):
        max_nonergodicity_scan(graph, symmetric_group(3), symmetric=False)


def test_assembly_refuses_a_row_that_misses_the_denominator(monkeypatch):
    honest = ChoiceDistribution.integer_weights

    def short(self, i):
        d, weights = honest(self, i)
        if i == 0:
            weights = {j: w - (j == min(weights)) for j, w in weights.items()}
        return d, weights

    monkeypatch.setattr(ChoiceDistribution, "integer_weights", short)
    model = build_markov(BALANCED)
    with pytest.raises(ValidationError, match=r"^row 0 sums to 0\.5$"):
        model.support
