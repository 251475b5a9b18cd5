"""Synchronous perception dynamics and the induced Markov chain.

Every automaton simultaneously picks a random neighbor and adopts that
neighbor's state pushed through the mark on the connecting edge.  The
one-step law is a row-stochastic matrix over the product state space,
enumerated in lexicographic node-major order.  It is held as one
``scipy.sparse`` CSR matrix, assembled in integers over a common
denominator; closed classes and periods are read off it.  The core and
Theorem B need no chain: they follow from the marks alone.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .config import BOUND_STATES
from .errors import BoundExceededError, ValidationError
from .groups import (
    GroupElement,
    pair_orbit_count,
    solve_characteristic,
    solve_characteristic_pair,
)
from .network import Marking, _tree_consistency, bipartition
from .potential import CharacteristicReactions, check_A1, check_A2

if TYPE_CHECKING:
    from scipy.sparse import csr_array


def _state_array(marking: Marking, bound: int) -> np.ndarray:
    """All joint states as rows of a (k**n, n) array, node-major lexicographic."""
    n = len(marking.graph)
    k = len(marking.group.states)
    size = k ** n
    if size > bound:
        raise BoundExceededError(
            f"state space has {size} elements, which exceeds the bound {bound}"
        )
    return np.arange(size)[:, None] // k ** np.arange(n - 1, -1, -1) % k


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

    def integer_weights(self, i: int) -> tuple[int, dict[int, int]]:
        """Node i's probabilities as integers over their common denominator."""
        q = self._q[i]
        denominator = math.lcm(*(p.denominator for p in q.values()))
        return denominator, {j: int(p * denominator) for j, p in q.items()}


@dataclass
class MarkovModel:
    """One-step law of the perception process over the joint state space.

    ``states`` is the (k**n, n) array of joint states, so row r is r
    written in base k; ``matrix`` lists the columns of each row in
    increasing order; ``exact_rows`` holds the same rows as Fractions when
    built with exact=True.
    """

    marking: Marking
    choice: ChoiceDistribution
    states: np.ndarray
    matrix: csr_array
    exact_rows: list[dict[int, Fraction]] | None
    _recurrent: tuple[frozenset[int], ...] | None = field(default=None, init=False, repr=False)

    def index(self, x: tuple[int, ...]) -> int:
        """Row of joint state x, its base-k number; ValueError for a non-state."""
        k = len(self.marking.group.states)
        return int(np.ravel_multi_index(tuple(x), (k,) * self.states.shape[1]))

    @cached_property
    def support(self) -> list[np.ndarray]:
        """Sorted target columns of each row."""
        return np.split(self.matrix.indices, self.matrix.indptr[1:-1])

    def recurrent_class_indices(self) -> tuple[frozenset[int], ...]:
        """Closed communicating classes as row indices, sorted by smallest.

        A strong component is closed when none of its members has an edge
        leaving it.
        """
        if self._recurrent is None:
            from scipy.sparse.csgraph import connected_components

            m = self.matrix
            count, labels = connected_components(m, directed=True, connection="strong")
            sources = labels[np.repeat(np.arange(len(self.states)), np.diff(m.indptr))]
            leaves = np.zeros(count, dtype=bool)
            leaves[sources[sources != labels[m.indices]]] = True
            members = np.flatnonzero(~leaves[labels])
            members = members[np.argsort(labels[members], kind="stable")]
            cuts = np.flatnonzero(np.diff(labels[members])) + 1
            classes = (frozenset(c.tolist()) for c in np.split(members, cuts))
            self._recurrent = tuple(sorted(classes, key=min))
        return self._recurrent

    def recurrent_classes(self) -> tuple[frozenset[tuple[int, ...]], ...]:
        """Closed communicating classes as joint states."""
        return tuple(
            frozenset(map(tuple, self.states[list(cls)].tolist()))
            for cls in self.recurrent_class_indices()
        )


def build_markov(
    marking: Marking,
    choice: ChoiceDistribution | None = None,
    bound: int = BOUND_STATES,
    exact: bool = False,
) -> MarkovModel:
    """Assemble the one-step transition matrix as CSR.

    Per-node next-state distributions are independent given the current
    state, so each row is the Kronecker product of n small distributions.
    Node i's distribution is held as integer weights over its common
    denominator d_i, so every entry is an integer numerator over
    D = prod(d_i), and each row must sum to exactly D.  With exact=True
    the rows are also kept as Fractions.
    """
    from scipy.sparse import csr_array

    graph = marking.graph
    if choice is None:
        choice = ChoiceDistribution.uniform(graph)
    X = _state_array(marking, bound)
    size, n = X.shape
    k = len(marking.group.states)
    weights = [choice.integer_weights(i) for i in range(n)]
    D = math.prod(d for d, _ in weights)
    # Below 2**53 every numerator and D are exact float64 values, so num / D
    # is the correctly rounded quotient; above it, Python ints take over.
    dtype = np.int64 if D < 2 ** 53 else object

    # State indices fit in int32: a state array past 2**31 rows would not
    # fit in memory, and narrower index arrays cut the peak at the bound.
    every_row = np.arange(size, dtype=np.int32)
    # tables[i][r, s]: weight of node i moving to state s from joint state r.
    tables = []
    for i, (_, w) in enumerate(weights):
        table = np.zeros((size, k), dtype=dtype)
        for j, wij in w.items():
            perm = np.array(marking.mark(i, j).perm)
            table[every_row, perm[X[:, j]]] += wij
        tables.append(table)

    # Expand node by node; each entry splits into its successors in state
    # order, so the columns of every row stay sorted.
    rows = every_row
    cols = np.zeros(size, dtype=np.int32)
    nums = np.ones(size, dtype=dtype)
    for table in tables:
        nums = (nums[:, None] * table[rows]).ravel()
        cols = (cols[:, None] * k + np.arange(k, dtype=np.int32)).ravel()
        rows = np.repeat(rows, k)
        keep = nums != 0
        rows, cols, nums = rows[keep], cols[keep], nums[keep]

    # Every node has a neighbor with positive weight, so no row is empty.
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=size))))
    sums = np.add.reduceat(nums, indptr[:-1])
    bad = np.flatnonzero(sums != D)
    if bad.size:
        r = int(bad[0])
        raise ValidationError(f"row {r} sums to {float(Fraction(int(sums[r]), D))!r}")

    matrix = csr_array(
        (np.asarray(nums / D, dtype=np.float64), cols, indptr), shape=(size, size)
    )
    exact_rows = None
    if exact:
        fractions = [Fraction(a, D) for a in nums.tolist()]
        targets = cols.tolist()
        bounds = indptr.tolist()
        exact_rows = [
            dict(zip(targets[a:b], fractions[a:b])) for a, b in zip(bounds, bounds[1:])
        ]
    return MarkovModel(marking, choice, X, matrix, exact_rows)


def stationary_count(model: MarkovModel) -> int:
    """Number of extreme stationary measures: one per closed class."""
    return len(model.recurrent_classes())


def limit_exists(model: MarkovModel) -> bool:
    """True when P**t converges: every closed class must be aperiodic.

    The period of a closed class is the gcd of level[u] + 1 - level[v] over
    its edges (u, v), with level the breadth-first distance from one member.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import shortest_path

    m = model.matrix
    position = np.zeros(len(model.states), dtype=np.int64)
    for cls in model.recurrent_class_indices():
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


def essential_check(model: MarkovModel, core: frozenset[tuple[int, ...]]) -> bool:
    """Core states must absorb: reachable from everywhere and never left.

    Every state reaches some closed class, and a closed core holds each
    closed class it meets, so a closed core is reached from everywhere
    exactly when it holds every closed class.
    """
    core_idx = {model.index(x) for x in core}
    if not core_idx:
        return False
    targets = model.matrix[sorted(core_idx)].indices
    if not all(t in core_idx for t in targets.tolist()):
        return False
    return all(cls <= core_idx for cls in model.recurrent_class_indices())


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


def _core_walk(marking: Marking) -> tuple[frozenset[tuple[int, ...]], bool]:
    """Single-image states and whether their images stay among them.

    State x steps to y alone when y_c = g(c, p)(x_p) on every edge (c, p):
    a potential on the bipartite double cover, with copy p holding x_p,
    copy n + c holding y_c and the edge carrying the permutation of g(c, p).
    The cover has one component per part of a bipartite graph, else one;
    each is walked from every state of its root.
    """
    graph = marking.graph
    n = len(graph)
    edges = []
    for c, p in graph.directed_edges:
        forward, back = marking.mark(c, p).perm, marking.mark(c, p).inverse().perm
        edges += [(p, n + c, forward, back), (n + c, p, back, forward)]
    walks = []
    for part in graph.parts or (range(n),):
        nodes = {*part, *(n + c for p in part for c in graph.neighbors(p))}
        tails = [e for e in edges if e[0] in nodes]
        walks.append([])
        for t in range(len(marking.group.states)):
            u, _ = _tree_consistency(
                nodes, tails, min(part), t, lambda s, perm: perm[s], operator.eq
            )
            if u is not None:
                walks[-1].append(u)
    pairs = []
    for pieces in itertools.product(*walks):
        u = {v: s for piece in pieces for v, s in piece.items()}
        pairs.append((tuple(u[v] for v in range(n)), tuple(u[v] for v in range(n, 2 * n))))
    found = frozenset(x for x, _ in pairs)
    return found, all(y in found for _, y in pairs)


def core_set(marking: Marking) -> CoreSet:
    """Find the single-image states from the marks and reconcile them with
    the closed form.

    The closed form parameterizes the core by one free state per two-step
    component; it only applies when the induced marks are potential (A1)
    and the round-trip marks are neighbor-independent (A2), so those two
    verdicts ride along in the result.
    """
    found, closed = _core_walk(marking)

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
    """The one-step map on the core against the characteristic equations."""

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


def theoremB_verify(marking: Marking) -> TheoremBReport:
    """Check that the one-step map on the core is a characteristic solution.

    The core is z(params), one free state per two-step component. One step
    sends component c's parameter to e_c applied to the parameter of the
    component c reads: itself on a non-bipartite graph, where e solves
    v*v = a_root, and the other side on a bipartite one, where (v, w)
    solves v*w = a_1, w*v = a_2 for the two component roots.  On the core,
    root r of c steps to g(r, p)(x_p) for every neighbor p, so e_c is
    g(r, p) * transport[p], which is then matched against the solution list.
    """
    core = core_set(marking)
    group = marking.group
    bip = core.bipartite
    # None unless both A1 and A2 hold.
    if not core.matches_closed_form:
        return _fail_report(bip, core.a1_ok, core.a2_ok)

    roots = [min(comp) for comp in core.components]
    reads = (1, 0) if bip else (0,)
    first = [marking.graph.neighbors(r)[0] for r in roots]
    realized = tuple(marking.mark(r, p) * core.transport[p] for r, p in zip(roots, first))

    a = [core.characteristic.values[r] for r in roots]
    # Two steps: v*v = a_root, or v*w = a_1 and w*v = a_2.
    second = all(e * realized[s] == a_c for e, s, a_c in zip(realized, reads, a))
    if bip:
        solutions = tuple(solve_characteristic_pair(group, *a))
        candidate, predicted = realized, pair_orbit_count(*realized)
    else:
        solutions = tuple(solve_characteristic(group, *a))
        candidate, predicted = realized[0], group.orbit_count(realized[0])
    is_solution = candidate in solutions
    return TheoremBReport(
        ok=is_solution and second,
        bipartite=bip,
        a1_ok=True,
        a2_ok=True,
        core_matches=True,
        characteristic=core.characteristic.values,
        realized=realized,
        solutions=solutions,
        realized_is_solution=is_solution,
        second_step_matches=second,
        best_solution=solutions[0] if solutions else None,
        predicted_stationary=predicted,
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
