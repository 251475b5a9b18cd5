"""Synchronous perception dynamics and the induced Markov chain.

Every automaton simultaneously picks a random neighbor and adopts that
neighbor's state pushed through the mark on the connecting edge.  The
one-step law is a row-stochastic matrix over the product state space,
enumerated in lexicographic node-major order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import networkx as nx
import numpy as np

from .config import BOUND_STATES, TAU_DYN
from .errors import BoundExceededError, ValidationError
from .groups import (
    GroupElement,
    pair_orbit_count,
    solve_characteristic,
    solve_characteristic_pair,
)
from .network import Marking, bipartition
from .potential import CharacteristicReactions, check_A1, check_A2


def state_space(marking: Marking, bound: int = BOUND_STATES) -> tuple[tuple[int, ...], ...]:
    """All joint states as tuples of state indices, node-major lexicographic."""
    n = len(marking.graph)
    k = len(marking.group.states)
    size = k ** n
    if size > bound:
        raise BoundExceededError(
            f"state space has {size} elements, which exceeds the bound {bound}"
        )
    return tuple(itertools.product(range(k), repeat=n))


def apply_F(marking: Marking, x: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Set of joint states reachable in one synchronous step from x."""
    graph = marking.graph
    options = []
    for i in range(len(graph)):
        seen = {marking.mark(i, j)(x[j]) for j in graph.neighbors(i)}
        options.append(sorted(seen))
    return frozenset(itertools.product(*options))


class ChoiceDistribution:
    """Per-node probabilities over neighbors, kept as exact fractions."""

    def __init__(self, graph, weights: Mapping[int, Mapping[int, object]]):
        self.graph = graph
        self._q: dict[int, dict[int, Fraction]] = {}
        for i in range(len(graph)):
            if i not in weights:
                raise ValidationError(f"node index {i} has no choice weights")
            row = weights[i]
            if set(row) != set(graph.neighbors(i)):
                raise ValidationError(
                    f"choice weights of node {graph.nodes[i]!r} must cover exactly "
                    "its neighbors"
                )
            frac = {j: Fraction(w) for j, w in row.items()}
            if any(w <= 0 for w in frac.values()):
                raise ValidationError("choice weights must be positive")
            total = sum(frac.values())
            self._q[i] = {j: w / total for j, w in frac.items()}

    @classmethod
    def uniform(cls, graph) -> "ChoiceDistribution":
        return cls(
            graph,
            {i: {j: 1 for j in graph.neighbors(i)} for i in range(len(graph))},
        )

    def prob(self, i: int, j: int) -> Fraction:
        return self._q[i][j]


@dataclass
class MarkovModel:
    """One-step law of the perception process over the joint state space."""

    marking: Marking
    choice: ChoiceDistribution
    states: tuple[tuple[int, ...], ...]
    matrix: np.ndarray
    exact_rows: list[dict[int, Fraction]] | None
    support: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        self._index = {x: i for i, x in enumerate(self.states)}
        self._digraph: nx.DiGraph | None = None
        self._recurrent: tuple[frozenset[int], ...] | None = None

    def index(self, x: tuple[int, ...]) -> int:
        return self._index[x]

    def transition_digraph(self) -> nx.DiGraph:
        if self._digraph is None:
            g = nx.DiGraph()
            g.add_nodes_from(range(len(self.states)))
            for row, targets in enumerate(self.support):
                g.add_edges_from((row, t) for t in targets)
            self._digraph = g
        return self._digraph

    def recurrent_class_indices(self) -> tuple[frozenset[int], ...]:
        """Closed communicating classes as row indices, sorted by smallest."""
        if self._recurrent is None:
            g = self.transition_digraph()
            cond = nx.condensation(g)
            classes = []
            for scc_id in cond.nodes:
                if cond.out_degree(scc_id) == 0:
                    classes.append(frozenset(cond.nodes[scc_id]["members"]))
            self._recurrent = tuple(sorted(classes, key=min))
        return self._recurrent

    def recurrent_classes(self) -> tuple[frozenset[tuple[int, ...]], ...]:
        """Closed communicating classes as joint states."""
        return tuple(
            frozenset(self.states[i] for i in cls)
            for cls in self.recurrent_class_indices()
        )


def build_markov(
    marking: Marking,
    choice: ChoiceDistribution | None = None,
    bound: int = BOUND_STATES,
    exact: bool = False,
) -> MarkovModel:
    """Assemble the one-step transition matrix.

    Per-node next-state distributions are independent given the current
    state, so each row is the product of n small distributions.  Row sums
    are checked against TAU_DYN; with exact=True the fraction-valued rows
    are kept and sum to exactly one.
    """
    graph = marking.graph
    if choice is None:
        choice = ChoiceDistribution.uniform(graph)
    states = state_space(marking, bound)
    size = len(states)
    index = {x: i for i, x in enumerate(states)}
    n = len(graph)

    matrix = np.zeros((size, size))
    exact_rows: list[dict[int, Fraction]] | None = [] if exact else None
    support: list[tuple[int, ...]] = []
    for row, x in enumerate(states):
        per_node: list[dict[int, Fraction]] = []
        for i in range(n):
            dist: dict[int, Fraction] = {}
            for j in graph.neighbors(i):
                s = marking.mark(i, j)(x[j])
                dist[s] = dist.get(s, Fraction(0)) + choice.prob(i, j)
            per_node.append(dist)
        row_probs: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
        for dist in per_node:
            row_probs = {
                prefix + (s,): p * q
                for prefix, p in row_probs.items()
                for s, q in dist.items()
            }
        entries = {index[y]: p for y, p in row_probs.items()}
        total = sum(entries.values())
        if abs(float(total) - 1.0) > TAU_DYN:
            raise ValidationError(f"row {row} sums to {float(total)!r}")
        for col, p in entries.items():
            matrix[row, col] = float(p)
        if exact_rows is not None:
            exact_rows.append(entries)
        support.append(tuple(sorted(entries)))

    return MarkovModel(marking, choice, states, matrix, exact_rows, tuple(support))


def stationary_count(model: MarkovModel) -> int:
    """Number of extreme stationary measures: one per closed class."""
    return len(model.recurrent_classes())


def limit_exists(model: MarkovModel) -> bool:
    """True when P**t converges: every closed class must be aperiodic."""
    g = model.transition_digraph()
    return all(
        nx.is_aperiodic(g.subgraph(cls))
        for cls in model.recurrent_class_indices()
    )


def essential_check(model: MarkovModel, core: frozenset[tuple[int, ...]]) -> bool:
    """Core states must absorb: reachable from everywhere and never left."""
    core_idx = {model.index(x) for x in core}
    if not core_idx:
        return False
    g = model.transition_digraph()
    for i in core_idx:
        if any(t not in core_idx for t in g.successors(i)):
            return False
    reached = set(core_idx)
    stack = list(core_idx)
    reverse = g.reverse(copy=False)
    while stack:
        i = stack.pop()
        for p in reverse.successors(i):
            if p not in reached:
                reached.add(p)
                stack.append(p)
    return len(reached) == len(model.states)


# -- deterministic core and its closed form -----------------------------------


@dataclass(frozen=True)
class CoreSet:
    """States where the one-step image is a single state.

    When the induced marks are potential, ``components`` (the two-step
    components, each rooted at its smallest node) and ``transport``
    parameterize the closed form; ``characteristic`` holds the A2
    reactions, or None when A2 fails.
    """

    states: frozenset[tuple[int, ...]]
    closed: bool
    a1_ok: bool
    a2_ok: bool
    bipartite: bool
    closed_form: frozenset[tuple[int, ...]] | None
    matches_closed_form: bool | None
    transport: dict[int, GroupElement] | None
    components: tuple[frozenset[int], ...] | None
    characteristic: CharacteristicReactions | None


def _closed_form_state(
    transport: dict[int, GroupElement],
    components: tuple[frozenset[int], ...],
    params: tuple[int, ...],
) -> tuple[int, ...]:
    """Core state whose free state on component c is params[c]."""
    x = {j: transport[j](t) for comp, t in zip(components, params) for j in comp}
    return tuple(x[j] for j in range(len(x)))


def core_set(model: MarkovModel) -> CoreSet:
    """Read the single-image states off the model and reconcile with the
    closed form.

    The closed form parameterizes the core by one free state per two-step
    component; it only applies when the induced marks are potential (A1)
    and the round-trip marks are neighbor-independent (A2), so those two
    verdicts ride along in the result.
    """
    marking = model.marking
    single = {row for row, targets in enumerate(model.support) if len(targets) == 1}
    found = frozenset(model.states[row] for row in single)
    closed = all(model.support[row][0] in single for row in single)

    a1 = check_A1(marking)
    a2 = check_A2(marking)
    bip = bipartition(marking.graph) is not None
    transport = None
    components = None
    closed_form = None
    matches = None
    if a1.ok:
        # x_j = transport[j](t) carries the root parameter t to node j.
        transport = {
            j: u.inverse() for pot in a1.potentials for j, u in pot.values.items()
        }
        components = tuple(frozenset(pot.values) for pot in a1.potentials)
    if a1.ok and a2 is not None:
        k = len(marking.group.states)
        closed_form = frozenset(
            _closed_form_state(transport, components, params)
            for params in itertools.product(range(k), repeat=len(components))
        )
        matches = closed_form == found
    return CoreSet(
        states=found,
        closed=closed,
        a1_ok=a1.ok,
        a2_ok=a2 is not None,
        bipartite=bip,
        closed_form=closed_form,
        matches_closed_form=matches,
        transport=transport,
        components=components,
        characteristic=a2,
    )


# -- characteristic equation verification -------------------------------------


@dataclass(frozen=True)
class TheoremBReport:
    """Replay of the core dynamics against the characteristic equations."""

    ok: bool
    bipartite: bool
    a1_ok: bool
    a2_ok: bool
    core_matches: bool
    characteristic: dict[int, GroupElement] | None
    realized: tuple[GroupElement, ...] | None
    solutions: tuple
    realized_is_solution: bool | None
    second_step_matches: bool | None
    best_solution: object
    predicted_stationary: int | None


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


def theoremB_verify(model: MarkovModel) -> TheoremBReport:
    """Check that the one-step map on the core is a characteristic solution.

    Non-bipartite: the core is z(t) and one step sends z(t) to z(b t) where
    b solves v*v = a_root.  Bipartite: the core is z(t, r) and one step
    sends it to z(v r, w t) where v*w = a_1 and w*v = a_2 for the two
    component roots.  The map is recovered by replaying one step of the
    model from each core state, then matched against the solution list.
    """
    core = core_set(model)
    group = model.marking.group
    bip = core.bipartite
    if not core.a1_ok or not core.a2_ok:
        return _fail_report(bip, core.a1_ok, core.a2_ok)
    if not core.matches_closed_form:
        return _fail_report(bip, True, True)

    a2 = core.characteristic
    roots = [min(comp) for comp in core.components]
    k = len(group.states)

    def z(params: tuple[int, ...]) -> tuple[int, ...]:
        return _closed_form_state(core.transport, core.components, params)

    def successor(x: tuple[int, ...]) -> tuple[int, ...]:
        # Core states have exactly one successor.
        return model.states[model.support[model.index(x)][0]]

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
            predicted_stationary=group.orbit_count(realized),
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


# -- nonergodicity scan --------------------------------------------------------


@dataclass(frozen=True)
class ScanResult:
    best_count: int
    argmax: tuple[Marking, ...]
    total_scanned: int


def max_nonergodicity_scan(
    graph,
    group,
    symmetric: bool = True,
    choice: ChoiceDistribution | None = None,
    bound: int = BOUND_STATES,
    max_fields: int = 65536,
) -> ScanResult:
    """Exhaust markings of the graph and keep those with the most measures.

    With symmetric=True both directions of an edge get the same element,
    which matches how fields are generated; otherwise every directed edge
    varies independently.
    """
    slots = graph.undirected_edges if symmetric else graph.directed_edges
    total = len(group) ** len(slots)
    if total > max_fields:
        raise BoundExceededError(
            f"scan would enumerate {total} markings, above the cap {max_fields}"
        )
    best: list[Marking] = []
    best_count = -1
    for assignment in itertools.product(range(len(group)), repeat=len(slots)):
        values = {}
        for (i, j), gi in zip(slots, assignment):
            values[(i, j)] = group.element(gi)
            if symmetric:
                values[(j, i)] = group.element(gi)
        marking = Marking(graph, group, values)
        count = stationary_count(build_markov(marking, choice, bound))
        if count > best_count:
            best_count = count
            best = [marking]
        elif count == best_count:
            best.append(marking)
    return ScanResult(best_count, tuple(best), total)
