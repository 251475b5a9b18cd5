"""Synchronous perception dynamics and the induced Markov chain.

Every automaton simultaneously picks a random neighbor and adopts that
neighbor's state pushed through the mark on the connecting edge.  The
one-step law is a row-stochastic matrix over the product state space,
enumerated in lexicographic node-major order.  Its closed classes and
their periods are searched from the image of one minimum-rank control
word, with no matrix; the values are assembled in integers over a common
denominator, a block of rows at a time, when they are read.  The core and
Theorem B need no chain: they follow from the marks alone.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import TYPE_CHECKING, Iterator, Mapping

from .config import BOUND_STATES, lazy_module, power_over
from .errors import BoundExceededError, ValidationError
from .groups import (
    GroupElement,
    ReactionGroup,
    orbit_count,
    pair_orbit_count,
    solve_characteristic,
    solve_characteristic_pair,
)
from .network import Marking, _tree_consistency
from .potential import CharacteristicReactions, check_A2

if TYPE_CHECKING:
    from fractions import Fraction

    # A block of rows: their range, CSR row pointers from 0, the columns of
    # each row in increasing order and their integer numerators.
    Block = tuple[range, np.ndarray, np.ndarray, np.ndarray]

np = lazy_module("numpy")
semigroup = lazy_module(f"{__package__}.semigroup")


def _state_count(marking: Marking, bound: int) -> int:
    """k**n, the number of joint states; BoundExceededError above bound."""
    k, n = len(marking.group.states), len(marking.graph)
    over = power_over(k, n, bound)
    if over:
        raise BoundExceededError(
            f"state space has {over} elements, which exceeds the bound {bound}"
        )
    return k ** n


def _digits(codes: np.ndarray, marking: Marking) -> np.ndarray:
    """Joint states of row codes, one per row: each code written in base k."""
    n, k = len(marking.graph), len(marking.group.states)
    return codes[:, None] // k ** np.arange(n - 1, -1, -1) % k


def _successors(
    marking: Marking, codes: np.ndarray, weights: list[Mapping[int, object]], dtype
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(position in codes, successor code, weight) of every one-step move.

    Node i moves to s with weight table[r, s], the sum of weights[i][j] over
    the neighbors j whose mark sends x_j to s.  Expanding node by node and
    dropping zeros keeps each state's successors in increasing code order.
    """
    k = len(marking.group.states)
    x = _digits(codes, marking)
    at = np.arange(len(codes), dtype=codes.dtype)
    rows, cols, nums = at, np.zeros_like(codes), np.ones(len(codes), dtype=dtype)
    for i, w in enumerate(weights):
        table = np.zeros((len(codes), k), dtype=dtype)
        for j, wij in w.items():
            table[at, np.array(marking.mark(i, j).perm)[x[:, j]]] += wij
        nums = (nums[:, None] * table[rows]).ravel()
        cols = (cols[:, None] * k + np.arange(k, dtype=cols.dtype)).ravel()
        rows = np.repeat(rows, k)
        keep = nums != 0
        rows, cols, nums = rows[keep], cols[keep], nums[keep]
    return rows, cols, nums


def _seeds(marking: Marking) -> list[int]:
    """Row codes of the image of the semigroup's word operator on joint
    states: rank 1, or rank 2 on a bipartite graph, the least of any word.
    It reads only the edge marks, so any marking has it."""
    k = len(marking.group.states)
    witness = semigroup._witness(marking.graph, marking.mark)
    return [reduce(lambda code, s: code * k + s, x) for x in semigroup._image(witness, k)]


# The most booleans a block of frontier rows by k**n states may hold: at the
# default bound, 1,024 rows.
_MASK_CELLS = 2 ** 22


def _hits(marking: Marking, codes: np.ndarray) -> np.ndarray:
    """Mask over all k**n row codes of the states one step from codes.

    Every choice weight is positive, so a state's successors are the
    product set of S_i(x) = {g(i, j)(x_j) : j a neighbor of i}.  Per block
    of rows, the per-node membership tables are ANDed by broadcasting into
    (rows, k, ..., k), node 0 first as in the row codes, and ORed over rows.
    """
    graph = marking.graph
    n, k = len(graph), len(marking.group.states)
    size = k ** n
    perms = {(i, j): np.array(marking.mark(i, j).perm) for i, j in graph.directed_edges}
    x = _digits(codes, marking)
    hit = np.zeros(size, dtype=bool)
    block = max(1, _MASK_CELLS // size)
    for a in range(0, len(codes), block):
        xb = x[a : a + block]
        at = np.arange(len(xb))
        mask = np.ones((len(xb), 1), dtype=bool)
        for i in range(n):
            table = np.zeros((len(xb), k), dtype=bool)
            for j in graph.neighbors(i):
                table[at, perms[i, j][xb[:, j]]] = True
            mask = (mask[:, :, None] & table[:, None, :]).reshape(len(xb), -1)
        hit |= mask.any(axis=0)
    return hit


def _seeded_classes(marking: Marking) -> tuple[tuple[frozenset[int], ...], tuple[int, ...]]:
    """Closed classes as row codes, sorted by smallest, and their periods.

    The contracting word's map lies in the kernel of the semigroup of choice
    maps, so each state of its image is recurrent, and the image meets every
    closed class, which every map keeps.  Every choice weight is positive,
    so the support is the union of the choice maps and a recurrent state's
    forward closure is its class: a breadth-first search from each seed not
    yet placed.  A period is the gcd of level[u] + 1 - level[v] over the
    class's edges (u, v).  Levels run on from class to class, so a level's
    states are the frontier and a class is every state from its first level.
    """
    size = len(marking.group.states) ** len(marking.graph)
    level = np.full(size, -1)
    depth = 0
    classes, periods = [], []
    for seed in _seeds(marking):
        if level[seed] >= 0:
            continue
        first, period = depth, 0
        level[seed] = depth
        frontier = np.array([seed])
        # Once every state is placed and the period is 1, no edge can
        # change either.
        while frontier.size and (period != 1 or (level < 0).any()):
            # Every frontier state sits at depth, so its edges need only the
            # levels of the states they reach.
            reached = np.flatnonzero(_hits(marking, frontier))
            level[reached[level[reached] < 0]] = depth + 1
            period = math.gcd(period, int(np.gcd.reduce(depth + 1 - level[reached])))
            depth += 1
            frontier = np.flatnonzero(level == depth)
        classes.append(frozenset(np.flatnonzero(level >= first).tolist()))
        periods.append(period)
    order = sorted(range(len(classes)), key=lambda c: min(classes[c]))
    return tuple(classes[c] for c in order), tuple(periods[c] for c in order)


class ChoiceDistribution:
    """Per-node probabilities over neighbors, kept as exact fractions."""

    def __init__(self, graph, weights: Mapping[int, Mapping[int, object]]):
        # Only a Markov chain needs fractions; commands that build none skip it.
        from fractions import Fraction

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
    written in base k.  Closed classes need no values.  ``blocks`` assembles
    the chain in integers, a block of rows at a time; the first read of
    ``support`` keeps one such assembly whole.  A ``choice`` of None is the
    uniform law, built by each assembly.
    """

    marking: Marking
    choice: ChoiceDistribution | None
    size: int

    @cached_property
    def states(self) -> np.ndarray:
        return _digits(np.arange(self.size), self.marking)

    def blocks(self) -> tuple[int, Iterator[Block]]:
        """The common denominator D and the chain's row blocks, assembled
        as they are read; a bad choice law raises here, before any block."""
        choice = self.choice or ChoiceDistribution.uniform(self.marking.graph)
        return _assemble(self.marking, choice, self.size)

    @cached_property
    def _chain(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """CSR row pointers, columns and numerators of the whole chain, and D."""
        D, blocks = self.blocks()
        _, indptrs, cols, nums = zip(*blocks)
        starts = np.cumsum([0, *map(len, cols)])
        indptr = np.concatenate([p[:-1] + s for p, s in zip(indptrs, starts)] + [starts[-1:]])
        # Each field's blocks are dropped once joined, so the columns and the
        # numerators are never held twice at once.
        cols = np.concatenate(cols)
        nums = np.concatenate(nums)
        return indptr, cols, nums, D

    def index(self, x: tuple[int, ...]) -> int:
        """Row of joint state x, its base-k number; ValueError for a non-state."""
        k = len(self.marking.group.states)
        return int(np.ravel_multi_index(tuple(x), (k,) * len(self.marking.graph)))

    @cached_property
    def support(self) -> list[np.ndarray]:
        """Sorted target columns of each row."""
        indptr, cols, _, _ = self._chain
        return np.split(cols, indptr[1:-1])

    @cached_property
    def _seeded(self) -> tuple[tuple[frozenset[int], ...], tuple[int, ...]]:
        return _seeded_classes(self.marking)

    def recurrent_class_indices(self) -> tuple[frozenset[int], ...]:
        """Closed communicating classes as row indices, sorted by smallest."""
        return self._seeded[0]

    def recurrent_classes(self) -> tuple[frozenset[tuple[int, ...]], ...]:
        """Closed communicating classes as joint states."""
        return tuple(
            frozenset(map(tuple, _digits(np.array(sorted(cls)), self.marking).tolist()))
            for cls in self.recurrent_class_indices()
        )


# Rows per assembled block: a K8 chain over two states (256 rows, 63K
# nonzeros) is one block, and a block of K12 holds about 1M nonzeros.
_BLOCK_ROWS = 256


def _assemble(
    marking: Marking, choice: ChoiceDistribution, size: int
) -> tuple[int, Iterator[Block]]:
    """The one-step law in integers: the common denominator D and the
    blocks of rows, each assembled when it is read.

    Per-node next-state distributions are independent given the current
    state, so each row is the Kronecker product of n small distributions.
    Node i's distribution is held as integer weights over its common
    denominator d_i, so every entry is an integer numerator over
    D = prod(d_i), and each row must sum to exactly D.
    """
    weights = [choice.integer_weights(i) for i in range(len(marking.graph))]
    D = math.prod(d for d, _ in weights)
    # Below 2**53 every numerator and D are exact float64 values, so num / D
    # is the correctly rounded quotient; above it, Python ints take over.
    dtype = np.int64 if D < 2 ** 53 else object
    return D, _blocks(marking, [w for _, w in weights], D, dtype, size)


def _blocks(
    marking: Marking, weights: list[dict[int, int]], D: int, dtype, size: int
) -> Iterator[Block]:
    for lo in range(0, size, _BLOCK_ROWS):
        span = range(lo, min(lo + _BLOCK_ROWS, size))
        # State indices fit in int32: a state array past 2**31 rows would
        # not fit in memory, and narrower index arrays cut the peak.
        rows, cols, nums = _successors(
            marking, np.arange(span.start, span.stop, dtype=np.int32), weights, dtype
        )
        # Every node has a neighbor with positive weight, so no row is empty.
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(span)))))
        sums = np.add.reduceat(nums, indptr[:-1])
        bad = np.flatnonzero(sums != D)
        if bad.size:
            r = int(bad[0])
            raise ValidationError(f"row {span[r]} sums to {int(sums[r]) / D!r}")
        yield span, indptr, cols, nums


def build_markov(
    marking: Marking,
    choice: ChoiceDistribution | None = None,
    bound: int = BOUND_STATES,
) -> MarkovModel:
    """The chain of the perception process on a marking.

    The state bound is checked here; nothing is assembled, the uniform
    choice law included, until a value is first read.
    """
    return MarkovModel(marking, choice, _state_count(marking, bound))


def stationary_count(model: MarkovModel) -> int:
    """Number of extreme stationary measures: one per closed class."""
    return len(model.recurrent_class_indices())


def limit_exists(model: MarkovModel) -> bool:
    """True when P**t converges: every closed class must be aperiodic."""
    return all(p == 1 for p in model._seeded[1])


def essential_check(model: MarkovModel, core: frozenset[tuple[int, ...]]) -> bool:
    """Core states must absorb: reachable from everywhere and never left.

    Every state reaches some closed class, and a closed core holds each
    closed class it meets, so a closed core is reached from everywhere
    exactly when it holds every closed class.
    """
    core_idx = {model.index(x) for x in core}
    if not core_idx:
        return False
    if not all(t in core_idx for r in core_idx for t in model.support[r].tolist()):
        return False
    return all(cls <= core_idx for cls in model.recurrent_class_indices())


# -- deterministic core and its closed form -----------------------------------


@dataclass(frozen=True)
class CoreSet:
    """States where the one-step image is a single state, from the marks.

    ``walks`` are ``_core_walk``'s walks of ``parts``, and ``characteristic``
    holds the A2 reactions, or None when A2 fails.  The verdicts and
    ``transport`` are read off these; ``states`` and ``closed`` build the
    product of the walks when first read.
    """

    group: ReactionGroup
    parts: tuple[frozenset[int], ...]
    walks: list[list[dict[int, int] | None]]
    characteristic: CharacteristicReactions | None

    @property
    def a1_ok(self) -> bool:
        # Every walk succeeds exactly when each cycle's product fixes every
        # state, and distinct group elements are distinct permutations.
        return all(u is not None for w in self.walks for u in w)

    @property
    def a2_ok(self) -> bool:
        return self.characteristic is not None

    @property
    def matches_closed_form(self) -> bool | None:
        # Under A1 and A2 the closed form is the product of the walks.
        return True if self.a1_ok and self.a2_ok else None

    @cached_property
    def transport(self) -> dict[int, GroupElement] | None:
        """x_j = transport[j](t) carries the root state t of j's part to
        node j; None unless A1 holds."""
        if not self.a1_ok:
            return None
        return {
            j: self.group.element_by_perm([u[j] for u in w])
            for part, w in zip(self.parts, self.walks)
            for j in part
        }

    def _pairs(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Each core state, from one successful walk per part, and its one
        successor."""
        n = sum(map(len, self.parts))
        for pieces in itertools.product(*([u for u in w if u is not None] for w in self.walks)):
            u = {v: s for piece in pieces for v, s in piece.items()}
            yield tuple(u[v] for v in range(n)), tuple(u[v] for v in range(n, 2 * n))

    @cached_property
    def states(self) -> frozenset[tuple[int, ...]]:
        return frozenset(x for x, _ in self._pairs())

    @cached_property
    def closed(self) -> bool:
        return all(y in self.states for _, y in self._pairs())


def _core_walk(
    marking: Marking, parts: tuple[frozenset[int], ...]
) -> list[list[dict[int, int] | None]]:
    """The double-cover walk of each part from every state of its root.

    State x steps to y alone when y_c = g(c, p)(x_p) on every edge (c, p):
    a potential on the bipartite double cover, with copy p holding x_p,
    copy n + c holding y_c and the edge carrying the permutation of g(c, p).
    The cover has one component per part: each side of a bipartite graph,
    else all nodes.  Walk t of a part starts its smallest node at state t
    and is None where the walk meets an inconsistent edge.
    """
    graph = marking.graph
    n = len(graph)
    edges = []
    for c, p in graph.directed_edges:
        forward, back = marking.mark(c, p).perm, marking.mark(c, p).inverse().perm
        edges += [(p, n + c, forward, back), (n + c, p, back, forward)]
    walks = []
    for part in parts:
        nodes = {*part, *(n + c for p in part for c in graph.neighbors(p))}
        tails = [e for e in edges if e[0] in nodes]
        walks.append([
            _tree_consistency(nodes, tails, min(part), t, lambda s, perm: perm[s], operator.eq)[0]
            for t in range(len(marking.group.states))
        ])
    return walks


def core_set(marking: Marking) -> CoreSet:
    """The core's walks and the A2 reactions, read off the marks.

    The closed form parameterizes the core by one free state per part, the
    root state t that walk t starts from.  It applies when the induced marks
    are potential (A1) and the round-trip marks neighbor-independent (A2),
    so both verdicts ride along.  No joint state is built here.
    """
    parts = marking.graph.parts or (frozenset(range(len(marking.graph))),)
    return CoreSet(marking.group, parts, _core_walk(marking, parts), check_A2(marking))


# -- characteristic equation verification -------------------------------------


@dataclass(frozen=True)
class TheoremBReport:
    """The one-step map on the core against the characteristic equations.

    The fields after ``a2_ok`` default to their values when A1 or A2 fails.
    """

    ok: bool
    bipartite: bool
    a1_ok: bool
    a2_ok: bool
    core_matches: bool = False
    characteristic: dict[int, GroupElement] | None = None
    realized: tuple[GroupElement, ...] | None = None
    solutions: tuple = ()
    realized_is_solution: bool | None = None
    second_step_matches: bool | None = None
    best_solution: object = None
    predicted_stationary: int | None = None


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
    bip = marking.graph.parts is not None
    # None unless both A1 and A2 hold.
    if not core.matches_closed_form:
        return TheoremBReport(ok=False, bipartite=bip, a1_ok=core.a1_ok, a2_ok=core.a2_ok)

    roots = [min(part) for part in core.parts]
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
        candidate, predicted = realized[0], orbit_count(realized[0])
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
    bound: int = BOUND_STATES,
    max_fields: int = 65536,
) -> ScanResult:
    """Exhaust markings of the graph and keep those with the most measures.

    With symmetric=True both directions of an edge get the same element,
    which matches how fields are generated; otherwise every directed edge
    varies independently.  Each count reads the closed classes searched
    from the marks, so no transition matrix is assembled.
    """
    slots = graph.undirected_edges if symmetric else graph.directed_edges
    over = power_over(len(group), len(slots), max_fields)
    if over:
        raise BoundExceededError(
            f"scan would enumerate {over} markings, above the cap {max_fields}"
        )
    total = len(group) ** len(slots)
    best: list[Marking] = []
    best_count = -1
    for assignment in itertools.product(range(len(group)), repeat=len(slots)):
        values = {}
        for (i, j), gi in zip(slots, assignment):
            values[(i, j)] = group.element(gi)
            if symmetric:
                values[(j, i)] = group.element(gi)
        marking = Marking(graph, group, values)
        count = stationary_count(build_markov(marking, bound=bound))
        if count > best_count:
            best_count = count
            best = [marking]
        elif count == best_count:
            best.append(marking)
    return ScanResult(best_count, tuple(best), total)
